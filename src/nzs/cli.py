"""Command-line front end.

Subcommands: generate (write a seeded instance file), solve (one method
on one instance at one fee), bench (sweep fees x seeds x methods to a
CSV), gap (equilibrium diagnostics for a point file). Exit codes:
0 success, 1 solver non-convergence (bench: a failed cell), 2 usage or
validation error, arithmetic overflow on an extreme input included.

bench --threads caps bench parallelism (default: all cores); each cell
is serial, so reruns are reproducible cell-wise.
"""

import argparse
import csv
import dataclasses
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .instances import (fee_game, gen_sparse_experiment, reformulate_bilinear,
                        require_monotone_coupling)
from .diagnostics import gap_report
from .icl import IclError, solve_icl
from .serialize import (read_instance, read_point, write_instance,
                        write_point, write_report)
from .solvers import SolverConfig, solve_eg, solve_ogda
from .vecmat import SpectralNormError, keep_serial

CSV_HEADER = ["method", "rho", "seed", "queries_h", "queries_g",
              "queries_cert", "queries_total", "iterations",
              "certified_sq_distance", "wall_ms", "status"]

METHODS = ("icl", "ogda", "eg")
DEFAULT_SEEDS = list(range(0, 1000, 111))
T1_RHOS = [0.0, 0.0003, 0.0006, 0.0009, 0.0012, 0.0015, 0.0018]
T4_RHOS = [0.0, 0.003, 0.006, 0.009, 0.012, 0.015, 0.018]


def _header_game(M, meta, rho):
    """fee_game at rho with the header's curvatures and its two norms."""
    return fee_game(M, rho, float(meta["mu"]), float(meta["nu"]),
                    (float(meta.get("norm", 1.0)), float(meta["norm_abs"])))


def run_method(M, meta, rho, method, eps):
    """Solve one fee instance with one method; returns (report, row dict).

    Serves both solve and bench. L, |C| and |K| come from the header's
    `norm` (default 1.0) and `norm_abs` through instances.fee_game, which
    checks them, so no power iteration runs. Every method stops on the
    same whole-game displacement certificate (stepsize 1/(2L), modulus
    min(mu, nu)/2), polled on solvers.drive's schedule: for the baselines
    at least solvers.CERTIFICATE_PERIOD iterations apart, for ICL at least
    one outer iteration apart (stop="certificate"). ICL runs on
    reformulate_bilinear(game, |C|), which adds the curvature it moves to
    the same L. That modulus needs min(mu, nu) > 0 and |C| <= sqrt(mu nu)/2;
    every method raises ValueError otherwise.
    """
    mu, nu = float(meta["mu"]), float(meta["nu"])
    if not min(mu, nu) > 0:
        raise ValueError("min(mu, nu) must be positive")
    game = _header_game(M, meta, rho)
    require_monotone_coupling(game.coupling_norm(), mu, nu)
    t0 = time.perf_counter()
    if method in ("eg", "ogda"):
        spec = game.game_spec(monotone_modulus=min(mu, nu) / 2)
        solver = solve_eg if method == "eg" else solve_ogda
        rep = solver(spec, SolverConfig(epsilon=eps))
    elif method == "icl":
        spec = reformulate_bilinear(game, game.coupling_norm())
        rep = solve_icl(spec, eps, stop="certificate")
    else:
        raise ValueError(f"unknown method {method!r}")
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    led = rep.ledger
    row = {
        "method": method, "rho": rho, "seed": int(meta.get("seed", -1)),
        "queries_h": led.main_queries(), "queries_g": led.g_queries,
        "queries_cert": led.cert_queries,
        "queries_total": (led.main_queries() + led.g_queries
                          + led.cert_queries),
        "iterations": rep.iterations,
        "certified_sq_distance": rep.certified_sq_distance,
        "wall_ms": round(wall_ms, 3), "status": rep.status,
    }
    return rep, row


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args):  # gen_sparse_experiment checks nnz <= n m
    _, data = gen_sparse_experiment(args.n, args.m, args.nnz, args.seed,
                                    args.mu, args.nu, normalize=args.normalize)
    M = data.pop("M")
    write_instance(args.out, M, data)
    print(f"wrote {args.out}: {args.m}x{args.n}, nnz={M.nnz}, "
          f"seed={args.seed}, norm={data['norm']:.6g}")
    return 0


def cmd_solve(args):
    M, meta = read_instance(args.instance)
    rep, row = run_method(M, meta, args.rho, args.method, args.eps)
    row["eps"] = args.eps
    out = args.out or (args.instance + f".{args.method}.report.json")
    write_report(out, row)
    if args.point_out:
        write_point(args.point_out, rep.point)
    cert = row["certified_sq_distance"]
    cert_txt = "n/a" if cert is None else f"{cert:.3e}"
    print(f"{args.method} rho={args.rho}: status={rep.status} "
          f"queries_h={row['queries_h']} certified={cert_txt} -> {out}")
    return 0 if rep.status == "converged" else 1


def _bench_instance(n, m, nnz, seed, mu, nu):
    """(M, metadata) of one seed's instance, or the text of the error
    that generating it raised."""
    try:
        _, data = gen_sparse_experiment(n, m, nnz, seed, mu, nu)
    except Exception as exc:  # fail the seed's cells, keep sweeping
        return str(exc)
    return data.pop("M"), data


def _bench_cell(cell):
    seed, instance, rho, method, eps = cell
    if isinstance(instance, str):
        error = instance
    else:
        try:
            return run_method(*instance, rho, method, eps)[1]
        except Exception as exc:  # mark the cell failed, keep sweeping
            error = str(exc)
    return {**dict.fromkeys(CSV_HEADER, ""), "method": method, "rho": rho,
            "seed": seed, "status": "failed", "error": error}


def bench_rows(n, m, nnz, seeds, rhos, methods, mu, nu, eps, threads=None):
    """One row per (seed, fee, method) cell, sorted by method, fee, seed.

    Each seed's instance is generated once and shared by its cells; each
    cell is still its own task, so threads spreads cells over processes.
    """
    instances = {seed: _bench_instance(n, m, nnz, seed, mu, nu)
                 for seed in seeds}
    cells = [(seed, instances[seed], rho, method, eps)
             for seed in seeds for rho in rhos for method in methods]
    # no more workers than cells: a pool forks all of them at once. They
    # already fill the cores, so each runs its products on one thread
    workers = min(threads or os.cpu_count() or 1, len(cells))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=keep_serial) as pool:
            rows = list(pool.map(_bench_cell, cells))
    else:
        rows = [_bench_cell(c) for c in cells]
    rows.sort(key=lambda r: (r["method"], float(r["rho"]), int(r["seed"])))
    return rows


def summarize(rows):
    """Mean and 2-sigma of the h-query counts per (method, rho) cell."""
    groups = {}
    for r in rows:
        if r.get("error") or r["queries_h"] == "":
            continue
        groups.setdefault((r["method"], float(r["rho"])), []).append(
            float(r["queries_h"]))
    return [{"method": method, "rho": rho, "mean": float(np.mean(vals)),
             "two_sigma": float(2.0 * np.std(vals)), "runs": len(vals)}
            for (method, rho), vals in sorted(groups.items())]


def cmd_bench(args):
    n = m = 1000 if args.scale == "desk" else 10_000
    nnz, mu = 10 * n, 1e-4
    nu = 1.0 if args.table == "t1" else 0.01
    rhos = args.rho_list if args.rho_list is not None else (
        T1_RHOS if args.table == "t1" else T4_RHOS)
    seeds = args.seeds if args.seeds is not None else DEFAULT_SEEDS
    rows = bench_rows(n, m, nnz, seeds, rhos, args.methods, mu, nu, args.eps,
                      threads=args.threads)
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_HEADER, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    failed = [r for r in rows if r.get("error")]
    print(f"wrote {args.out}: {len(rows)} rows ({len(failed)} failed cells)")
    for s in summarize(rows):
        print(f"  {s['method']:>4} rho={s['rho']:<7g} queries_h = "
              f"{s['mean']:.1f} +- {s['two_sigma']:.1f}  ({s['runs']} runs)")
    for r in failed:
        print(f"  FAILED {r['method']} rho={r['rho']} seed={r['seed']}: "
              f"{r['error']}", file=sys.stderr)
    return 1 if failed else 0


def cmd_gap(args):
    M, meta = read_instance(args.instance)
    point = read_point(args.point)
    spec = _header_game(M, meta, args.rho).game_spec()
    if not (spec.X.contains(point.x, 1e-8) and spec.Y.contains(point.y, 1e-8)):
        print("error: point is infeasible for the instance", file=sys.stderr)
        return 2
    rep = gap_report(spec, point)
    print(f"potential gap     : {rep.delta_value:.6e} "
          f"(+ residual {rep.delta_residual:.1e})")
    print(f"deviation gain    : {rep.deviation_gain:.6e} "
          f"(+ residual {rep.deviation_residual:.1e}) [{rep.method}]")
    if args.out:
        write_report(args.out, dataclasses.asdict(rep))
    return 0


# ---------------------------------------------------------------------------

def _arg(convert, test, message):
    """An argparse type: convert(text) when test holds of it, else a usage
    error with message (also when convert raises ValueError)."""
    def parse(text):
        try:
            value = convert(text)
            if test(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(message)
    return parse


def _tokens(convert):
    return lambda text: [convert(t) for t in text.split(",") if t.strip()]


_parse_fee = _arg(float, lambda v: 0.0 <= v <= 1.0,  # NaN fails too
                  "fee must be finite and in [0, 1]")
_parse_rho_list = _arg(_tokens(_parse_fee), bool,
                       "fees must be a non-empty list")
_parse_seed_list = _arg(_tokens(int), lambda v: v and min(v) >= 0,
                        "seeds must be a non-empty list of non-negative "
                        "integers")
_parse_finite = _arg(float, math.isfinite, "value must be finite")
_parse_threads = _arg(int, lambda v: v >= 1,
                      "threads must be a positive integer")
_parse_eps = _arg(float, lambda v: 0 < v < math.inf,
                  "eps must be positive and finite")
_parse_methods = _arg(lambda text: text.split(","),
                      lambda v: set(v) <= set(METHODS),
                      f"methods must be among {METHODS}")


def build_parser():
    p = argparse.ArgumentParser(
        prog="nzs",
        description="solvers and benchmarks for monotone near-zero-sum games")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a seeded sparse instance file")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--nnz", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--mu", type=_parse_finite, default=1e-4)
    g.add_argument("--nu", type=_parse_finite, default=1.0)
    g.add_argument("--normalize", action=argparse.BooleanOptionalAction,
                   default=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="solve one instance with one method")
    s.add_argument("--method", choices=METHODS, required=True)
    s.add_argument("--instance", required=True)
    s.add_argument("--rho", type=_parse_fee, default=0.0)
    s.add_argument("--eps", type=_parse_eps, default=1e-7)
    s.add_argument("--out")
    s.add_argument("--point-out", dest="point_out")
    s.set_defaults(func=cmd_solve)

    b = sub.add_parser("bench", help="fee sweep benchmark to CSV")
    b.add_argument("--table", choices=("t1", "t4"), default="t1")
    b.add_argument("--scale", choices=("desk", "paper"), default="desk")
    b.add_argument("--seeds", type=_parse_seed_list, default=None)
    b.add_argument("--rho-list", type=_parse_rho_list, default=None)
    b.add_argument("--methods", type=_parse_methods, default=list(METHODS))
    b.add_argument("--eps", type=_parse_eps, default=1e-7)
    b.add_argument("--threads", type=_parse_threads, default=None)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_bench)

    q = sub.add_parser("gap", help="diagnostics for a point on an instance")
    q.add_argument("--instance", required=True)
    q.add_argument("--point", required=True)
    q.add_argument("--rho", type=_parse_fee, default=0.0)
    q.add_argument("--out")
    q.set_defaults(func=cmd_gap)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IclError, SpectralNormError) as exc:  # did not converge
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
