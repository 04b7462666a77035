import csv
import json
import os
import struct
import time

import numpy as np
import pytest

import nzs.cli
import nzs.games
import nzs.instances
import nzs.vecmat
from nzs.cli import bench_rows, main, run_method
from nzs.games import JointPoint
from nzs.instances import gen_sparse_experiment
from nzs.serialize import read_instance, write_instance, write_point


@pytest.fixture()
def instance_file(tmp_path):
    path = tmp_path / "inst.nzs"
    rc = main(["generate", "--n", "40", "--m", "40", "--nnz", "200",
               "--seed", "0", "--mu", "0.05", "--nu", "1.0",
               "--out", str(path)])
    assert rc == 0
    return path


class TestGenerate:
    def test_writes_readable_instance(self, instance_file):
        M, meta = read_instance(instance_file)
        assert M.shape == (40, 40) and M.nnz == 200
        assert meta["seed"] == 0
        assert abs(meta["norm"] - 1.0) <= 1e-6

    def test_deterministic_bytes(self, tmp_path):
        paths = [tmp_path / "a.nzs", tmp_path / "b.nzs"]
        for p in paths:
            assert main(["generate", "--n", "30", "--m", "20", "--nnz", "100",
                         "--seed", "7", "--out", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_oversized_nnz_exits_2(self, tmp_path):
        rc = main(["generate", "--n", "3", "--m", "3", "--nnz", "100",
                   "--seed", "0", "--out", str(tmp_path / "x.nzs")])
        assert rc == 2

    def test_bad_flags_exit_2(self, tmp_path):
        assert main(["generate", "--n", "3"]) == 2

    @pytest.mark.parametrize("flag", ["--mu", "--nu"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_curvature_exits_2_without_file(self, tmp_path, capsys,
                                                       flag, value):
        # such a header would hold NaN or Infinity, which is not JSON and
        # which nzs solve refuses
        out = tmp_path / "x.nzs"
        rc = main(["generate", "--n", "3", "--m", "3", "--nnz", "4",
                   "--seed", "0", f"{flag}={value}", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_write_instance_refuses_non_finite_metadata(self, tmp_path, value):
        _, meta = gen_sparse_experiment(3, 3, 4, 0, 1e-4, 1.0)
        M = meta.pop("M")
        meta["mu"] = value
        out = tmp_path / "x.nzs"
        with pytest.raises(ValueError):
            write_instance(out, M, meta)
        assert not out.exists()


class TestSolve:
    @pytest.mark.parametrize("method", ["eg", "ogda", "icl"])
    def test_report_schema_and_exit_code(self, instance_file, tmp_path, method):
        out = tmp_path / f"{method}.json"
        rc = main(["solve", "--method", method, "--instance",
                   str(instance_file), "--rho", "0.001", "--eps", "1e-9",
                   "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        for key in ("method", "rho", "eps", "queries_h", "queries_g",
                    "queries_cert", "iterations", "certified_sq_distance",
                    "seed"):
            assert key in report
        assert report["certified_sq_distance"] <= 1e-9
        assert report["status"] == "converged"

    def test_baselines_agree(self, instance_file, tmp_path):
        eps = 1e-12
        pts = {}
        for method in ("eg", "ogda"):
            out = tmp_path / f"{method}.json"
            assert main(["solve", "--method", method, "--instance",
                         str(instance_file), "--rho", "0", "--eps", str(eps),
                         "--out", str(out)]) == 0
            pts[method] = json.loads(out.read_text())
        # both certified to eps: points within 10 sqrt(eps) of each other
        # is checked at the bench level; here check certified quality only
        assert pts["eg"]["certified_sq_distance"] <= eps
        assert pts["ogda"]["certified_sq_distance"] <= eps

    def test_nonconvergence_exit_1(self, instance_file, tmp_path):
        # starved iteration budget cannot certify; expect exit code 1
        import nzs.cli as cli_mod
        import nzs.solvers as solvers_mod
        orig = solvers_mod.SolverConfig
        try:
            solvers_mod.SolverConfig = lambda epsilon: orig(
                epsilon=epsilon, max_iter=2)
            cli_mod.SolverConfig = solvers_mod.SolverConfig
            rc = main(["solve", "--method", "eg", "--instance",
                       str(instance_file), "--rho", "0", "--eps", "1e-12",
                       "--out", str(tmp_path / "r.json")])
        finally:
            solvers_mod.SolverConfig = orig
            cli_mod.SolverConfig = orig
        assert rc == 1

    def test_truncated_icl_exit_1(self, instance_file, tmp_path, monkeypatch):
        # one outer iteration cannot certify 1e-12; the report must say so
        import nzs.cli as cli_mod
        from nzs.icl import solve_icl

        monkeypatch.setattr(
            cli_mod, "solve_icl",
            lambda spec, eps, **kw: solve_icl(spec, eps, max_outer=1, **kw))
        out = tmp_path / "r.json"
        rc = main(["solve", "--method", "icl", "--instance",
                   str(instance_file), "--rho", "0.001", "--eps", "1e-12",
                   "--out", str(out)])
        report = json.loads(out.read_text())
        assert report["status"] != "converged"
        assert report["certified_sq_distance"] > 1e-12
        assert rc == 1

    def test_stalled_icl_exit_1(self, instance_file, tmp_path, monkeypatch,
                                capsys):
        # an inner budget of one step cannot pass the inexactness check
        import nzs.icl

        monkeypatch.setattr(nzs.icl, "_inner_budget", lambda sched, rate: 1)
        out = tmp_path / "r.json"
        rc = main(["solve", "--method", "icl", "--instance",
                   str(instance_file), "--rho", "0.001", "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: inner solve stalled: gap did not reach")
        assert "within 1 iterations; the smallest gap checked was" in err

    @pytest.mark.parametrize("eps", ["nan", "inf", "0", "-1e-7"])
    @pytest.mark.parametrize("method", ["eg", "ogda", "icl"])
    def test_eps_not_positive_and_finite_exits_2(self, instance_file,
                                                 tmp_path, method, eps):
        out = tmp_path / "r.json"
        rc = main(["solve", "--method", method, "--instance",
                   str(instance_file), "--eps", eps, "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("rho", ["nan", "inf", "-0.1", "1.5"])
    @pytest.mark.parametrize("command", ["solve", "gap"])
    def test_fee_outside_unit_interval_exits_2_at_parse_time(
            self, instance_file, tmp_path, capsys, command, rho):
        # as --rho-list does; a NaN fee used to reach the coupling check
        # and be reported as a coupling norm
        out, point = tmp_path / "r.json", tmp_path / "pt.json"
        write_point(point, JointPoint(np.full(40, 1 / 40),
                                      np.full(40, 1 / 40)))
        args = (["--method", "ogda"] if command == "solve"
                else ["--point", str(point)])
        rc = main([command, "--instance", str(instance_file),
                   f"--rho={rho}", "--out", str(out)] + args)
        assert rc == 2
        assert not out.exists()
        assert "fee must be finite and in [0, 1]" in capsys.readouterr().err

    def test_header_without_norm_abs_exits_2(self, instance_file, tmp_path,
                                              capsys):
        M, meta = read_instance(instance_file)
        del meta["norm_abs"]
        bad = tmp_path / "bad.nzs"
        write_instance(bad, M, meta)
        rc = main(["solve", "--method", "ogda", "--instance", str(bad),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert "norm_abs" in capsys.readouterr().err

    def test_float_col_indices_exit_2_without_report(self, instance_file,
                                                     tmp_path):
        # col_indices declared float64 with fractional values: reading
        # them as int64 would solve another matrix
        raw = instance_file.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16:16 + hlen])
        lengths = {a["name"]: a["length"] for a in header["arrays"]}
        for a in header["arrays"]:
            if a["name"] == "col_indices":
                a["dtype"] = "float64"
        blob = json.dumps(header).encode("utf-8")
        start = 16 + hlen + 8 * lengths["row_offsets"]
        end = start + 8 * lengths["col_indices"]
        cols = np.frombuffer(raw[start:end], dtype="<i8") + 0.5
        bad = tmp_path / "bad.nzs"
        bad.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob
                        + raw[16 + hlen:start] + cols.astype("<f8").tobytes()
                        + raw[end:])
        out = tmp_path / "r.json"
        rc = main(["solve", "--method", "ogda", "--instance", str(bad),
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()


class TestZeroCurvature:
    @pytest.mark.parametrize("method", ["icl", "ogda", "eg"])
    def test_zero_mu_exits_2_at_once_without_report(self, tmp_path, method):
        # min(mu, nu) = 0 leaves no certificate modulus: the baselines
        # would run max_iter iterations, so every method refuses it
        _, meta = gen_sparse_experiment(6, 5, 12, 0, 0.0, 1.0)
        inst = tmp_path / "flat.nzs"
        write_instance(inst, meta.pop("M"), meta)
        out = tmp_path / "r.json"
        t0 = time.perf_counter()
        rc = main(["solve", "--method", method, "--instance", str(inst),
                   "--out", str(out)])
        assert rc == 2
        assert time.perf_counter() - t0 < 1.0
        assert not out.exists()


class TestHeaderNorms:
    """run_method takes L, |C| and |K| from the header's two norms, after
    checking max|M_ij| <= norm <= norm_abs <= sqrt(|M|_1 |M|_inf). A norm
    below the true one that passes these bounds is not caught."""

    @pytest.fixture()
    def header_case(self, tmp_path):
        path = tmp_path / "inst.nzs"
        assert main(["generate", "--n", "50", "--m", "60", "--nnz", "300",
                     "--seed", "0", "--out", str(path)]) == 0
        return path

    @pytest.mark.parametrize("key,value", [
        ("norm", 0.0), ("norm", -1.0), ("norm", 0.1), ("norm", 50.0),
        ("norm_abs", 0.0), ("norm_abs", "half")])
    @pytest.mark.parametrize("method", ["icl", "ogda"])
    def test_wrong_header_norm_exits_2_naming_the_key(
            self, header_case, tmp_path, capsys, method, key, value):
        M, meta = read_instance(header_case)
        meta[key] = meta["norm"] / 2 if value == "half" else value
        bad = tmp_path / "bad.nzs"
        write_instance(bad, M, meta)
        out = tmp_path / "r.json"
        rc = main(["solve", "--method", method, "--instance", str(bad),
                   "--rho", "0.0009", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert f"'{key}'" in capsys.readouterr().err

    def test_zero_matrix_passes_with_zero_norms(self):
        _, meta = gen_sparse_experiment(5, 4, 0, 0, 0.5, 1.0)
        assert (meta["norm"], meta["norm_abs"]) == (0.0, 0.0)
        rep, _ = run_method(meta.pop("M"), meta, 0.0009, "ogda", 1e-7)
        assert rep.status == "converged"

    @pytest.mark.parametrize("rho", [0.0, 0.0009])
    @pytest.mark.parametrize("method", ["icl", "ogda", "eg"])
    def test_fee_solves_run_no_power_iteration(self, monkeypatch, method,
                                               rho):
        _, meta = gen_sparse_experiment(60, 50, 300, 3, 1e-4, 1.0)
        M = meta.pop("M")
        want, _ = run_method(M, meta, rho, method, 1e-7)

        def refuse(*args, **kwargs):
            raise AssertionError("spectral_norm called")

        monkeypatch.setattr(nzs.games, "spectral_norm", refuse)
        monkeypatch.setattr(nzs.instances, "spectral_norm", refuse)
        got, _ = run_method(M, meta, rho, method, 1e-7)
        assert got.status == want.status == "converged"
        assert (got.ledger, got.iterations, got.certified_sq_distance) == (
            want.ledger, want.iterations, want.certified_sq_distance)


class TestMonotoneRange:
    @pytest.mark.parametrize("method", ["icl", "ogda", "eg"])
    def test_run_method_rejects_fee_beyond_monotone_range(self, method):
        # beta = 0.003 |M+| / 2 >= 1.5e-3 > sqrt(1e-4 * 0.01) / 2 = 5e-4
        _, meta = gen_sparse_experiment(40, 40, 200, 0, 1e-4, 0.01)
        M = meta.pop("M")
        with pytest.raises(ValueError, match="not certifiably monotone"):
            run_method(M, meta, 0.003, method, 1e-7)

    def test_bench_with_failed_cells_exits_1(self, tmp_path, capsys):
        out = tmp_path / "t4.csv"
        rc = main(["bench", "--table", "t4", "--seeds", "0",
                   "--rho-list", "0.003", "--threads", "1",
                   "--out", str(out)])
        assert rc == 1
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 3
        assert all(r["queries_h"] == "" for r in rows)
        assert all(r["status"] == "failed" for r in rows)
        assert "3 failed cells" in capsys.readouterr().out


class TestBench:
    def test_tiny_sweep_schema_and_determinism(self, tmp_path):
        out1 = tmp_path / "bench1.csv"
        out2 = tmp_path / "bench2.csv"
        args = ["bench", "--table", "t1", "--scale", "desk",
                "--seeds", "0,111", "--rho-list", "0,0.0009",
                "--eps", "1e-6", "--threads", "1"]
        # desk dims are fixed; shrink the run by overriding internals is
        # avoided: this uses the real desk dims but a loose eps
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        rows1 = list(csv.DictReader(out1.open()))
        rows2 = list(csv.DictReader(out2.open()))
        assert [r["queries_h"] for r in rows1] == \
            [r["queries_h"] for r in rows2]
        assert rows1[0].keys() == {
            "method", "rho", "seed", "queries_h", "queries_g",
            "queries_cert", "queries_total", "iterations",
            "certified_sq_distance", "wall_ms", "status"}
        for r in rows1:
            assert int(r["queries_total"]) == (int(r["queries_h"])
                                               + int(r["queries_g"])
                                               + int(r["queries_cert"]))
            assert r["status"] == "converged"
        methods = {r["method"] for r in rows1}
        assert methods == {"icl", "ogda", "eg"}
        assert len(rows1) == 2 * 2 * 3

    @pytest.mark.parametrize("flags", [["--eps", "nan"], ["--eps", "inf"],
                                       ["--methods", "icl,foo"]])
    def test_bad_eps_or_method_exits_2_without_csv(self, tmp_path, capsys,
                                                   flags):
        out = tmp_path / "t1.csv"
        rc = main(["bench", "--seeds", "0", "--rho-list", "0",
                   "--threads", "1", "--out", str(out)] + flags)
        assert rc == 2
        assert not out.exists()
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--seeds", "0", "--rho-list", "nan"],
                                       ["--seeds", "0", "--rho-list", "inf"],
                                       ["--seeds", "0", "--rho-list",
                                        "0,-0.001"],
                                       ["--seeds", "0", "--rho-list", "1.5"],
                                       ["--rho-list", "0", "--seeds", "-1"],
                                       ["--rho-list", "0", "--seeds",
                                        "0,-3"],
                                       ["--seeds", "0", "--rho-list", ","],
                                       ["--rho-list", "0", "--seeds", ","]])
    def test_fee_or_seed_out_of_range_exits_2_without_csv(
            self, tmp_path, capsys, flags):
        # a fee outside [0, 1] or a negative seed fails every cell it
        # reaches, and an empty list leaves no cell, so each is refused
        # before the sweep starts
        out = tmp_path / "t1.csv"
        rc = main(["bench", "--methods", "ogda", "--threads", "1",
                   "--out", str(out)] + flags)
        assert rc == 2
        assert not out.exists()
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-2", "two"])
    def test_threads_not_a_positive_int_exits_2_without_csv(
            self, tmp_path, capsys, threads):
        # 0 would mean all cores and a negative count a serial run
        out = tmp_path / "t1.csv"
        rc = main(["bench", "--seeds", "0", "--rho-list", "0",
                   "--threads", threads, "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "Traceback" not in capsys.readouterr().err


    def test_pool_has_no_more_workers_than_cells(self, monkeypatch):
        # a stand-in pool that records its size and runs the cells in this
        # process; a real pool forks all its workers at the first submit
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, initializer):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells):
                return map(fn, cells)

        monkeypatch.setattr(nzs.cli, "ProcessPoolExecutor", RecordingPool)
        rows = bench_rows(20, 20, 60, [0], [0.0, 0.0003], ["ogda"], 0.05,
                          1.0, 1e-4, threads=64)
        assert sizes == [2]
        assert [r["status"] for r in rows] == ["converged"] * 2
        bench_rows(20, 20, 60, [0], [0.0], ["ogda"], 0.05, 1.0, 1e-4,
                   threads=64)
        assert sizes == [2]  # one cell runs without a pool

    def test_pool_processes_run_products_serially(self, monkeypatch):
        # the pool's processes already fill the cores: a product split in
        # one of them fails its cell. This process may still split
        parent, submit = os.getpid(), nzs.vecmat._submit

        def parent_only(*args):
            if os.getpid() != parent:
                raise RuntimeError("a pool process split a product")
            return submit(*args)

        monkeypatch.setattr(nzs.vecmat, "SPLIT_NNZ", 0)
        monkeypatch.setattr(nzs.vecmat, "_cpus", 2)
        monkeypatch.setattr(nzs.vecmat, "_submit", parent_only)
        rows = bench_rows(20, 20, 60, [0], [0.0, 0.0003], ["ogda"], 0.05,
                          1.0, 1e-4, threads=2)
        assert [r["status"] for r in rows] == ["converged"] * 2
        serial = bench_rows(20, 20, 60, [0], [0.0, 0.0003], ["ogda"], 0.05,
                            1.0, 1e-4, threads=1)
        assert [{**r, "wall_ms": 0} for r in rows] == [
            {**r, "wall_ms": 0} for r in serial]

class TestGap:
    def test_gap_on_solver_output(self, instance_file, tmp_path):
        report = tmp_path / "sol.json"
        solved_pt = tmp_path / "solved.json"
        assert main(["solve", "--method", "eg", "--instance",
                     str(instance_file), "--rho", "0", "--eps", "1e-10",
                     "--out", str(report), "--point-out", str(solved_pt)]) == 0
        rc = main(["gap", "--instance", str(instance_file), "--point",
                   str(solved_pt), "--out", str(tmp_path / "gap_sol.json")])
        assert rc == 0
        rep = json.loads((tmp_path / "gap_sol.json").read_text())
        # a point certified to 1e-10 squared distance has a tiny gain
        assert rep["deviation_gain"] <= 1e-4

        # uniform strategies are feasible on simplices
        pt = tmp_path / "pt.json"
        write_point(pt, JointPoint(np.full(40, 1 / 40), np.full(40, 1 / 40)))
        rc = main(["gap", "--instance", str(instance_file), "--point",
                   str(pt), "--out", str(tmp_path / "gap.json")])
        assert rc == 0
        rep = json.loads((tmp_path / "gap.json").read_text())
        assert rep["delta_value"] >= -1e-9
        assert 2 * (rep["delta_value"] + rep["delta_residual"]) >= \
            rep["deviation_gain"] - 1e-6

    def test_gap_runs_no_power_iteration(self, instance_file, tmp_path,
                                         monkeypatch):
        solved_pt = tmp_path / "solved.json"
        assert main(["solve", "--method", "ogda", "--instance",
                     str(instance_file), "--rho", "0.0009", "--out",
                     str(tmp_path / "sol.json"), "--point-out",
                     str(solved_pt)]) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("spectral_norm called")

        for module in (nzs.vecmat, nzs.games, nzs.instances):
            monkeypatch.setattr(module, "spectral_norm", refuse)
        out = tmp_path / "gap.json"
        assert main(["gap", "--instance", str(instance_file), "--rho",
                     "0.0009", "--point", str(solved_pt), "--out",
                     str(out)]) == 0
        assert json.loads(out.read_text())["deviation_gain"] <= 1e-4

    def test_norm_above_norm_abs_exits_2(self, instance_file, tmp_path,
                                         capsys):
        M, meta = read_instance(instance_file)
        meta["norm"] = 2 * meta["norm_abs"]
        bad = tmp_path / "bad.nzs"
        write_instance(bad, M, meta)
        pt = tmp_path / "pt.json"
        write_point(pt, JointPoint(np.full(40, 1 / 40), np.full(40, 1 / 40)))
        rc = main(["gap", "--instance", str(bad), "--point", str(pt)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'norm' = " in err and "exceeds 'norm_abs'" in err

    def test_infeasible_point_exit_2(self, instance_file, tmp_path):
        pt = tmp_path / "bad.json"
        write_point(pt, JointPoint(np.full(40, 1.0), np.full(40, 1 / 40)))
        rc = main(["gap", "--instance", str(instance_file), "--point",
                   str(pt)])
        assert rc == 2

    @pytest.mark.parametrize("content", ['{"y": [0.5, 0.5]}', '[1, 2]'])
    def test_malformed_point_exit_2(self, instance_file, tmp_path, capsys,
                                    content):
        pt = tmp_path / "bad.json"
        pt.write_text(content)
        rc = main(["gap", "--instance", str(instance_file), "--point",
                   str(pt)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "point file" in err and "Traceback" not in err
