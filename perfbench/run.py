"""Benchmark of nzs: time and queries to a certified equilibrium.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
./src. One process, one client, closed loop: each solve starts when the
previous one has ended. BLAS is pinned to one thread and `nzs bench`
runs with --threads 1. A run sets the workload up, then repeats whole
rounds of the same solves for about --seconds seconds (at least one
round), checks every output apart from the program (checks.py) and
prints one JSON object as its last line of standard output.

--trace 0 prints the end-to-end metrics; --trace 1 wraps the program's
public functions (tracing.py) and prints the per-layer metrics of one
set-up plus one round, and writes the spans to perfbench/out/.
See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import contextlib
import csv
import functools
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

EPS = 1e-7
MU = 1e-4
# Fee workloads solve fixed base instances (seed 0, the first of nzs
# bench's default seeds); --seed permutes their rows and columns, or the
# order of the fees. Iteration counts differ by up to 50% between random
# instances, and a permutation leaves them unchanged.
BASE_SEED = 0
METHODS = ("icl", "ogda", "eg")
T1_RHOS = (0.0, 0.0003, 0.0006, 0.0009, 0.0012, 0.0015, 0.0018)
PAPER_RHOS = (0.0, 0.0009)
LOWCURV_RHOS = (0.0,)
LOWCURV_NU = 0.01
QUAD = dict(n_x=200, n_y=200, mu=0.01, nu=0.01, delta=0.001,
            coupling_norm=1.0)
QUAD_GAMES = 3
SETUP_REPEATS = 3

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"),
    ("icl_s", "s"), ("ogda_s", "s"), ("eg_s", "s"),
    ("icl_queries", "count"), ("ogda_queries", "count"),
    ("eg_queries", "count"), ("peak_rss_mb", "MB"),
]

# (metric, unit); "<layer>.calls" and "<layer>.self_s" come from the spans
# of the traced layer, the rest from counters the traced run adds up.
PER_LAYER = [
    ("vecmat.spmv.calls", "count"), ("vecmat.spmv.self_s", "s"),
    ("vecmat.spmv_transpose.calls", "count"),
    ("vecmat.spmv_transpose.self_s", "s"),
    ("vecmat.spectral_norm.calls", "count"),
    ("vecmat.spectral_norm.self_s", "s"),
    ("sets.Simplex.project.calls", "count"),
    ("sets.Simplex.project.self_s", "s"),
    ("sets.lmo.calls", "count"), ("sets.lmo.self_s", "s"),
    ("sets.Ball.project.calls", "count"), ("sets.Ball.project.self_s", "s"),
    ("games.grad_g.calls", "count"), ("games.grad_g.self_s", "s"),
    ("games.ledger.f", "count"), ("games.ledger.h", "count"),
    ("games.ledger.g", "count"), ("games.ledger.cert", "count"),
    ("instances.gen_sparse_experiment.calls", "count"),
    ("instances.gen_sparse_experiment.self_s", "s"),
    ("instances.fee_game.self_s", "s"),
    ("instances.reformulate_bilinear.self_s", "s"),
    ("instances.gen_quadratic_known_ne.self_s", "s"),
    ("solvers.PdhgKernel.step.calls", "count"),
    ("solvers.PdhgKernel.step.self_s", "s"),
    ("solvers.solve_apd_bilinear.calls", "count"),
    ("solvers.solve_apd_bilinear.iterations", "count"),
    ("solvers.solve_apd_bilinear.self_s", "s"),
    ("solvers.SaddleSubproblem.operator.calls", "count"),
    ("solvers.SaddleSubproblem.operator.self_s", "s"),
    ("solvers.solve_ogda.self_s", "s"), ("solvers.solve_eg.self_s", "s"),
    ("icl.solve_icl.self_s", "s"), ("icl.outer_iterations", "count"),
    ("icl.build_subproblem.calls", "count"),
    ("icl.build_subproblem.self_s", "s"),
    ("icl.check_inexactness.calls", "count"),
    ("icl.check_inexactness.self_s", "s"),
    ("icl.check_inexactness.accept_ratio", "ratio"),
    ("serialize.read_instance.self_s", "s"),
    ("serialize.write_instance.self_s", "s"),
    ("serialize.write_point.self_s", "s"),
    ("cli.run_method.calls", "count"), ("cli.run_method.self_s", "s"),
    ("cli.bench_rows.self_s", "s"),
]


class Solve:
    """One solve of one round: what the client saw and what was checked."""

    def __init__(self, method, game):
        self.method = method
        self.game = game
        self.seconds = None
        self.queries = 0
        self.result = None
        self.point = None
        self.error = None

    @property
    def key(self):
        return (self.method, self.game)


def _cli(*argv):
    """nzs.cli.main with its progress lines kept off our standard output."""
    with contextlib.redirect_stdout(io.StringIO()):
        return nzs.cli.main([str(a) for a in argv])


def _permuted(M, seed):
    """M with its rows and columns permuted by a seeded generator: the
    same game up to relabelling the strategies."""
    rng = np.random.default_rng(seed)
    rows = rng.permutation(M.n_rows)[
        np.repeat(np.arange(M.n_rows), np.diff(M.row_offsets))]
    cols = rng.permutation(M.n_cols)[M.col_indices]
    return nzs.SparseMatrix.from_coo(rows, cols, M.values, M.shape)


def _ledger_total(ledger):
    return (ledger.f_queries + ledger.h_queries + ledger.g_queries
            + ledger.cert_queries)


class SolveRound:
    """A round of solves, one after another, each timed around one public
    call; the outputs are checked after the round, off the clock."""

    def calls(self):
        """[(Solve, function of no arguments)] in the order they run."""
        raise NotImplementedError

    def check(self, s):
        """Check s.result; set s.queries and s.point; raise CheckFailed."""
        raise NotImplementedError

    def round(self):
        plan = self.calls()
        t0 = time.perf_counter()
        for s, fn in plan:
            t = time.perf_counter()
            try:
                s.result = fn()
            except Exception as exc:  # a solve that raises is a failed solve
                s.error = f"{type(exc).__name__}: {exc}"
            s.seconds = time.perf_counter() - t
        wall = time.perf_counter() - t0
        solves = [s for s, _ in plan]
        for s in solves:
            if s.error is None:
                try:
                    self.check(s)
                except (checks.CheckFailed, OSError, KeyError,
                        ValueError) as exc:
                    s.error = str(exc)
        games = {}
        for s in solves:
            if s.error is None:
                games.setdefault(s.game, {})[s.method] = s
        for group in games.values():
            far = checks.check_pairwise(
                {m: s.point for m, s in group.items()}, EPS)
            for method in far:
                group[method].error = (f"point on {group[method].game} too "
                                       "far from another method's")
        return solves, wall


class DeskT1Sweep:
    """`nzs bench --table t1 --scale desk` on the base instance, with the
    fees in a seeded order."""

    def setup(self, seed, workdir):
        self.rhos = [float(r) for r in
                     np.random.default_rng(seed).permutation(T1_RHOS)]
        self.csv = workdir / "t1.csv"

    def prepare_checks(self):
        pass

    def round(self):
        solves = [Solve(m, rho) for m in METHODS for rho in T1_RHOS]
        t0 = time.perf_counter()
        try:
            rc = _cli("bench", "--table", "t1", "--scale", "desk",
                      "--seeds", BASE_SEED,
                      "--rho-list", ",".join(map(str, self.rhos)),
                      "--eps", EPS, "--threads", 1, "--out", self.csv)
        except Exception as exc:  # the whole sweep failed
            rc = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if rc != 0:
            for s in solves:
                s.error = f"nzs bench failed: {rc}"
            return solves, wall
        with open(self.csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        bad = checks.check_sweep_rows(rows, METHODS, T1_RHOS, [BASE_SEED],
                                      EPS)
        cells = {(r["method"], float(r["rho"])): r for r in rows}
        for s in solves:
            s.error = bad.get((s.method, s.game, BASE_SEED))
            if s.error is None:
                r = cells[s.key]
                s.seconds = float(r["wall_ms"]) / 1000.0
                s.queries = (int(r["queries_h"]) + int(r["queries_g"])
                             + int(r["queries_cert"]))
        return solves, wall


class PaperSolve(SolveRound):
    """`nzs solve --point-out` on one paper-scale instance file: the base
    instance from `nzs generate`, permuted and written back."""

    def setup(self, seed, workdir):
        self.workdir = workdir
        self.instance = workdir / "paper.nzs"
        rc = _cli("generate", "--n", 10_000, "--m", 10_000, "--nnz", 100_000,
                  "--seed", BASE_SEED, "--mu", MU, "--nu", 1.0,
                  "--out", self.instance)
        if rc != 0:
            raise RuntimeError(f"nzs generate exited {rc}")
        M, meta = nzs.serialize.read_instance(self.instance)
        nzs.serialize.write_instance(self.instance, _permuted(M, seed), meta)

    def prepare_checks(self):
        arrays, meta = checks.read_instance_arrays(self.instance)
        self.ref = checks.FeeGameReference(
            arrays["row_offsets"], arrays["col_indices"], arrays["values"],
            meta["shape"], meta["mu"], meta["nu"])

    def _stem(self, s):
        return self.workdir / f"{s.method}-{s.game}"

    def calls(self):
        plan = []
        for rho in PAPER_RHOS:
            for method in METHODS:
                s = Solve(method, rho)
                stem = self._stem(s)
                plan.append((s, functools.partial(
                    _cli, "solve", "--method", method,
                    "--instance", self.instance, "--rho", rho, "--eps", EPS,
                    "--out", f"{stem}.report.json",
                    "--point-out", f"{stem}.point.json")))
        return plan

    def check(self, s):
        if s.result != 0:
            raise checks.CheckFailed(f"nzs solve exited {s.result}")
        stem = self._stem(s)
        with open(f"{stem}.report.json") as fh:
            report = json.load(fh)
        with open(f"{stem}.point.json") as fh:
            point = json.load(fh)
        s.queries = (report["queries_h"] + report["queries_g"]
                     + report["queries_cert"])
        checks.check_report(report["status"], report["certified_sq_distance"],
                            EPS, f"{s.method} rho={s.game}")
        x, y = checks.as_point(point["x"]), checks.as_point(point["y"])
        self.ref.check_point(s.game, x, y, EPS, s.method,
                             icl=s.method == "icl")
        s.point = checks.concat(x, y)


class DeskLowcurv(SolveRound):
    """`run_method` at desk scale with nu = 0.01 on the permuted base
    instance."""

    def setup(self, seed, workdir):
        _, self.meta = nzs.gen_sparse_experiment(1000, 1000, 10_000,
                                                 BASE_SEED, MU, LOWCURV_NU)
        self.M = _permuted(self.meta.pop("M"), seed)

    def prepare_checks(self):
        M = self.M
        self.ref = checks.FeeGameReference(
            M.row_offsets, M.col_indices, M.values, M.shape, MU, LOWCURV_NU)

    def calls(self):
        return [(Solve(method, rho),
                 functools.partial(nzs.cli.run_method, self.M, self.meta, rho,
                                   method, EPS))
                for rho in LOWCURV_RHOS for method in METHODS]

    def check(self, s):
        rep, _ = s.result
        s.queries = _ledger_total(rep.ledger)
        checks.check_report(rep.status, rep.certified_sq_distance, EPS,
                            f"{s.method} rho={s.game}")
        self.ref.check_point(s.game, rep.point.x, rep.point.y, EPS, s.method,
                             icl=s.method == "icl")
        s.point = checks.concat(rep.point.x, rep.point.y)


class QuadCoupled(SolveRound):
    """solve_icl (library default), solve_ogda and solve_eg on quadratic
    games with smooth non-bilinear coupling and a known equilibrium."""

    def setup(self, seed, workdir):
        self.games = {g: nzs.gen_quadratic_known_ne(seed=g, **QUAD)
                      for g in range(QUAD_GAMES * seed,
                                     QUAD_GAMES * (seed + 1))}

    def prepare_checks(self):
        pass

    def calls(self):
        config = nzs.SolverConfig(epsilon=EPS)
        solvers = {"icl": lambda game: nzs.solve_icl(game, EPS),
                   "ogda": lambda game: nzs.solve_ogda(game, config),
                   "eg": lambda game: nzs.solve_eg(game, config)}
        return [(Solve(method, g), functools.partial(solvers[method], game))
                for g, game in self.games.items() for method in METHODS]

    def check(self, s):
        rep, game = s.result, self.games[s.game]
        s.queries = _ledger_total(rep.ledger)
        what = f"{s.method} game {s.game}"
        checks.check_report(rep.status, rep.certified_sq_distance, EPS, what)
        for p, S in ((rep.point.x, game.X), (rep.point.y, game.Y)):
            checks.check_ball_point(p, S.center, S.radius, what)
        z = checks.concat(rep.point.x, rep.point.y)
        checks.check_known_ne(z, checks.concat(game.known_ne.x,
                                               game.known_ne.y),
                              rep.certified_sq_distance, what)
        s.point = z


WORKLOADS = {
    "desk-t1-sweep": DeskT1Sweep,
    "paper-solve": PaperSolve,
    "desk-lowcurv": DeskLowcurv,
    "quad-coupled": QuadCoupled,
}


def _setup_seconds(args):
    """Wall time from spawning a fresh interpreter to the end of the
    workload's set-up in it: imports, instance generation, instance
    files."""
    t0 = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--setup-only"],
        stdout=subprocess.PIPE, text=True)
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
    finally:
        child.stdout.close()
        rc = child.wait(timeout=120)
    if rc != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up process exited {rc}")
    return elapsed


def _install_tracer():
    from tracing import Tracer

    tracer = Tracer()

    def ledger(t, rep):
        for bucket in ("f", "h", "g", "cert"):
            t.add(f"games.ledger.{bucket}",
                  getattr(rep.ledger, f"{bucket}_queries"))

    def icl_report(t, rep):
        ledger(t, rep)
        t.add("icl.outer_iterations", rep.iterations)

    def apd_report(t, rep):
        t.add("solvers.solve_apd_bilinear.iterations", rep.iterations)

    for module, attr, name, hook in [
        (nzs.vecmat, "spmv", "vecmat.spmv", None),
        (nzs.vecmat, "spmv_transpose", "vecmat.spmv_transpose", None),
        (nzs.vecmat, "spectral_norm", "vecmat.spectral_norm", None),
        (nzs.games, "grad_g", "games.grad_g", None),
        (nzs.instances, "gen_sparse_experiment",
         "instances.gen_sparse_experiment", None),
        (nzs.instances, "fee_game", "instances.fee_game", None),
        (nzs.instances, "reformulate_bilinear",
         "instances.reformulate_bilinear", None),
        (nzs.instances, "gen_quadratic_known_ne",
         "instances.gen_quadratic_known_ne", None),
        (nzs.solvers, "solve_apd_bilinear", "solvers.solve_apd_bilinear",
         apd_report),
        (nzs.solvers, "solve_ogda", "solvers.solve_ogda", ledger),
        (nzs.solvers, "solve_eg", "solvers.solve_eg", ledger),
        (nzs.icl, "solve_icl", "icl.solve_icl", icl_report),
        (nzs.icl, "build_subproblem", "icl.build_subproblem", None),
        (nzs.icl, "check_inexactness", "icl.check_inexactness", None),
        (nzs.serialize, "read_instance", "serialize.read_instance", None),
        (nzs.serialize, "write_instance", "serialize.write_instance", None),
        (nzs.serialize, "write_point", "serialize.write_point", None),
        (nzs.cli, "run_method", "cli.run_method", None),
        (nzs.cli, "bench_rows", "cli.bench_rows", None),
    ]:
        tracer.patch_function(module, attr, name, hook)
    sets = nzs.sets
    tracer.patch_method(sets.Simplex, "project", "sets.Simplex.project")
    tracer.patch_method(sets.Ball, "project", "sets.Ball.project")
    for cls in (sets.Simplex, sets.Ball, sets.Box):
        tracer.patch_method(cls, "lmo", "sets.lmo")
    tracer.patch_method(nzs.solvers.PdhgKernel, "step",
                        "solvers.PdhgKernel.step")
    tracer.patch_method(nzs.solvers.SaddleSubproblem, "operator",
                        "solvers.SaddleSubproblem.operator")
    return tracer


def _per_layer(tracer, round_start, rounds):
    """Per-layer metrics of one set-up plus one (mean) round."""
    setup = tracer.totals(0, round_start)
    timed = tracer.totals(round_start)
    values = {k: v / rounds for k, v in tracer.counters.items()}
    for name in tracer.names:
        calls = setup[name][0] + timed[name][0] / rounds
        self_s = setup[name][1] + timed[name][1] / rounds
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    checks_done = values.get("icl.check_inexactness.calls", 0)
    values["icl.check_inexactness.accept_ratio"] = (
        values.get("icl.outer_iterations", 0) / checks_done
        if checks_done else 0.0)
    return {name: {"value": float(values.get(name, 0)), "unit": unit}
            for name, unit in PER_LAYER}


def _end_to_end(rounds, walls, setup_times):
    times = {}
    for solves in rounds:
        for s in solves:
            times.setdefault(s.key, []).append(s.seconds or 0.0)
    values = {"setup_s": statistics.median(setup_times),
              "wall_s": statistics.median(walls)}
    for method in METHODS:
        values[f"{method}_s"] = sum(statistics.median(v)
                                    for k, v in times.items()
                                    if k[0] == method)
        values[f"{method}_queries"] = sum(s.queries for s in rounds[0]
                                          if s.method == method)
    values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in END_TO_END}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "nzs" / "__init__.py").is_file():
        print(f"error: no nzs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # pin BLAS to one thread before numpy is first imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    global nzs, checks, np
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np
    import nzs
    import nzs.cli
    import checks

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    tracer = None
    try:
        workload = WORKLOADS[args.workload]()
        if args.setup_only:
            workload.setup(args.seed, workdir)
            print("ready", flush=True)
            return 0
        setup_times = []
        if args.trace:
            tracer = _install_tracer()
        else:
            setup_times = [_setup_seconds(args)
                           for _ in range(SETUP_REPEATS)]
        workload.setup(args.seed, workdir)
        workload.prepare_checks()
        round_start = tracer.mark() if tracer else 0

        rounds, walls = [], []
        target = 1
        while len(rounds) < target:
            solves, wall = workload.round()
            rounds.append(solves)
            walls.append(wall)
            if len(rounds) == 1:
                target = max(1, round(args.seconds / wall))

        attempted = sum(len(r) for r in rounds)
        failed = sum(1 for r in rounds for s in r if s.error is not None)
        for r in rounds:
            for s in r:
                if s.error is not None:
                    print(f"FAILED {s.method} {s.game}: {s.error}",
                          file=sys.stderr)
        if tracer:
            tracer.restore()
            metrics = _per_layer(tracer, round_start, len(rounds))
            print(f"traced wall_s {statistics.median(walls):.4f} over "
                  f"{len(rounds)} rounds", file=sys.stderr)
            tracer.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
        else:
            metrics = _end_to_end(rounds, walls, setup_times)
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
