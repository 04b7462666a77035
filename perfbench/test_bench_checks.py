"""Tests of the benchmark's own checks: each check passes a correct output
of the program and fails a corrupted one. Small games, a few seconds."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import nzs
from nzs import cli

import checks
import run
from tracing import Tracer

EPS = 1e-7


@pytest.fixture(scope="module")
def fee_case():
    _, data = nzs.gen_sparse_experiment(40, 30, 300, seed=3, mu=1e-2, nu=1.0)
    M = data.pop("M")
    ref = checks.FeeGameReference(M.row_offsets, M.col_indices, M.values,
                                  M.shape, 1e-2, 1.0)
    return M, data, ref


def _shift_mass(p, amount=1e-3):
    q = p.copy()
    i, j = int(np.argmax(q)), int(np.argmin(q))
    q[i] -= amount
    q[j] += amount
    return q


def test_project_simplex_is_the_projection():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.standard_normal(25) * 3
        p = checks.project_simplex(v)
        checks.check_simplex_point(p, 25)
        # optimality: <v - p, q - p> <= 0 for every q in the simplex
        for q in np.eye(25):
            assert (v - p) @ (q - p) <= 1e-12
    p = checks.project_simplex(np.full(4, 0.25))
    assert np.array_equal(p, np.full(4, 0.25))


def test_simplex_point_check_rejects_corruption():
    p = np.full(10, 0.1)
    checks.check_simplex_point(p, 10)
    negative = p.copy()
    negative[0], negative[1] = -1e-6, 0.2 + 1e-6
    for bad in (p * 1.01, negative, np.r_[p[:-1], np.nan], p[:-1]):
        with pytest.raises(checks.CheckFailed):
            checks.check_simplex_point(bad, 10)


@pytest.mark.parametrize("method", ["icl", "ogda", "eg"])
@pytest.mark.parametrize("rho", [0.0, 0.003])
def test_certificate_check(fee_case, method, rho):
    M, data, ref = fee_case
    rep, _ = cli.run_method(M, data, rho, method, EPS)
    assert rep.status == "converged"
    x, y = rep.point.x, rep.point.y
    cert = ref.check_point(rho, x, y, EPS, method, icl=method == "icl")
    assert cert == pytest.approx(rep.certified_sq_distance, rel=1e-5)
    with pytest.raises(checks.CheckFailed):
        ref.check_point(rho, _shift_mass(x), y, EPS, method,
                        icl=method == "icl")
    with pytest.raises(checks.CheckFailed):
        ref.check_point(rho, x, y * 1.001, EPS, method, icl=method == "icl")


def test_known_ne_check():
    game = nzs.gen_quadratic_known_ne(8, 6, 0.1, 0.1, 0.01, 1.0, seed=2)
    rep = nzs.solve_ogda(game, nzs.SolverConfig(epsilon=EPS))
    z = checks.concat(rep.point.x, rep.point.y)
    z_star = checks.concat(game.known_ne.x, game.known_ne.y)
    checks.check_known_ne(z, z_star, rep.certified_sq_distance)
    checks.check_ball_point(rep.point.x, game.X.center, game.X.radius)
    bad = z.copy()
    bad[0] += 2 * math.sqrt(rep.certified_sq_distance)
    with pytest.raises(checks.CheckFailed):
        checks.check_known_ne(bad, z_star, rep.certified_sq_distance)
    with pytest.raises(checks.CheckFailed):
        checks.check_ball_point(game.X.center + 1.01 * game.X.radius
                                * np.eye(8)[0], game.X.center, game.X.radius)


def test_pairwise_check():
    z = np.linspace(0.0, 1.0, 12)
    points = {"icl": z, "ogda": z + 1e-5 / 12, "eg": z.copy()}
    assert checks.check_pairwise(points, EPS) == set()
    points["eg"] = z + np.r_[3 * math.sqrt(EPS), np.zeros(11)]
    assert checks.check_pairwise(points, EPS) == {"eg", "icl", "ogda"}


def test_sweep_row_check():
    rows = []
    for method in ("icl", "ogda", "eg"):
        for rho in (0.0, 0.5):
            it = 40
            h = {"icl": 77, "ogda": it, "eg": 2 * it}[method]
            rows.append({"method": method, "rho": str(rho), "seed": "7",
                         "queries_h": str(h), "queries_g": "1",
                         "queries_cert": "10", "iterations": str(it),
                         "certified_sq_distance": "9e-08", "wall_ms": "1.0"})
    args = (("icl", "ogda", "eg"), (0.0, 0.5), (7,), EPS)
    assert checks.check_sweep_rows(rows, *args) == {}
    corrupt = [dict(r) for r in rows]
    corrupt[0]["certified_sq_distance"] = "2e-07"          # icl 0.0
    corrupt[2]["queries_h"] = "41"                          # ogda 0.0
    corrupt[5]["iterations"] = ""                           # eg 0.5
    del corrupt[3]                                          # ogda 0.5
    bad = checks.check_sweep_rows(corrupt, *args)
    assert set(bad) == {("icl", 0.0, 7), ("ogda", 0.0, 7), ("eg", 0.5, 7),
                        ("ogda", 0.5, 7)}


def test_tracer_self_time_and_restore():
    original = nzs.vecmat.spmv
    tracer = Tracer()
    tracer.patch_function(nzs.vecmat, "spmv", "vecmat.spmv")
    tracer.patch_function(nzs.vecmat, "spmv_transpose",
                          "vecmat.spmv_transpose")
    tracer.patch_function(nzs.vecmat, "spectral_norm", "vecmat.spectral_norm")
    assert nzs.games.spmv is not original  # rebound in every nzs module
    M = nzs.SparseMatrix.from_dense(np.arange(12.0).reshape(3, 4))
    sigma = nzs.spectral_norm(M)
    tracer.restore()
    assert nzs.vecmat.spmv is original and nzs.games.spmv is original
    assert sigma == pytest.approx(np.linalg.norm(M.to_dense(), 2))
    totals = tracer.totals()
    calls = {k: v[0] for k, v in totals.items()}
    assert calls["vecmat.spectral_norm"] == 1
    assert calls["vecmat.spmv"] == calls["vecmat.spmv_transpose"] >= 3
    start = np.frombuffer(tracer.start)
    end = np.frombuffer(tracer.end)
    self_sum = sum(v[1] for v in totals.values())
    assert self_sum == pytest.approx(end[0] - start[0])


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        run.PER_LAYER
