"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with
the measured quantities at the criterion's stated tolerance. The lines
print outside output capture so they appear in any run mode.
"""

import math
import time

import numpy as np
import pytest

from nzs.cli import bench_rows
from nzs.diagnostics import deviation_gain, potential_gap
from nzs.games import BilinearSaddleForm, GameSpec, JointPoint, QueryLedger
from nzs.icl import solve_icl, solve_monotone
from nzs.instances import (apply_transaction_fee, gen_quadratic_known_ne,
                           fee_game, matching_pennies, stackelberg_demo,
                           stackelberg_example, stackelberg_reference_points)
from nzs.sets import Ball
from nzs.solvers import (JointProblem, OperatorProblem, SaddleSubproblem,
                         SolverConfig, displacement_certificate,
                         solve_apd_bilinear, solve_eg, solve_operator_eg)
from nzs.vecmat import SparseMatrix


@pytest.fixture()
def report(capsys):
    def _report(criterion, ok, detail):
        line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
        with capsys.disabled():
            print(line)
        return ok
    return _report


# ---------------------------------------------------------------------------

def test_criterion_1_fee_matrices_exact(report):
    M = SparseMatrix.from_dense(np.array([[300.0, -200.0], [-100.0, 400.0]]))
    apply_transaction_fee(M, 0.01)  # warm the code path before timing
    t0 = time.perf_counter()
    A, B = apply_transaction_fee(M, 0.01)
    elapsed = time.perf_counter() - t0
    exact = (A.to_dense().tolist() == [[297.0, -200.0], [-100.0, 396.0]]
             and B.to_dense().tolist() == [[-300.0, 198.0], [99.0, -400.0]])
    ok = report(1, exact and elapsed < 1e-3,
                f"exact={exact}, runtime={elapsed * 1e6:.0f}us")
    assert ok


def test_criterion_2_closed_form_example_equilibria(report):
    t0 = time.perf_counter()
    game = stackelberg_example()
    nash, stack = stackelberg_reference_points()
    d_icl = solve_icl(game, 2.5e-13).point.distance_to(nash)
    d_eg = solve_eg(game, SolverConfig(epsilon=2.5e-13)).point.distance_to(nash)
    limit = stackelberg_demo()
    d_demo = limit.distance_to(stack)
    d_split = limit.distance_to(nash)
    elapsed = time.perf_counter() - t0
    ok = report(
        2,
        d_icl <= 1e-6 and d_eg <= 1e-6 and d_demo <= 1e-6
        and d_split > 1e-2 and elapsed < 1.0,
        f"icl={d_icl:.2e}, eg={d_eg:.2e}, demo={d_demo:.2e}, "
        f"separation={d_split:.2e}, runtime={elapsed:.2f}s")
    assert ok


def test_criterion_3_descent_lemma_suite(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    eps = 1e-8
    worst_slack = -np.inf
    all_ok = True
    for seed in range(20):
        n_x = int(rng.integers(3, 13))
        n_y = int(rng.integers(3, 13))
        mu = float(rng.uniform(0.3, 1.5))
        nu = float(rng.uniform(0.3, 1.5))
        delta = float(rng.choice([0.0, 0.2, 0.6, 1.2]))
        game = gen_quadratic_known_ne(n_x, n_y, mu, nu, delta,
                                      coupling_norm=float(rng.uniform(0.2, 1.2)),
                                      seed=seed)
        rep = solve_icl(game, eps, keep_trace=True)
        sched = rep.extras["schedule"]
        budget = math.ceil((1 / sched.theta)
                           * math.log(2 * sched.diameter_sq / eps))
        if rep.iterations > budget:
            all_ok = False
        zs = game.known_ne
        m = min(mu, nu)
        trace = rep.extras["trace"]
        for t in range(len(trace) - 1):
            lhs = (1 / (2 * sched.eta) + m / 2) * \
                trace[t + 1].distance_to(zs) ** 2
            rhs = (1 / (2 * sched.eta)) * trace[t].distance_to(zs) ** 2 \
                + sched.eps_t
            slack = (lhs - rhs) / max(abs(rhs), 1e-300)
            worst_slack = max(worst_slack, slack)
            if lhs > rhs * (1 + 1e-9) + 1e-18:
                all_ok = False
    elapsed = time.perf_counter() - t0
    ok = report(3, all_ok and elapsed < 30.0,
                f"20 instances, worst relative slack={worst_slack:.2e}, "
                f"runtime={elapsed:.1f}s")
    assert ok


def _linear_coupling_pair(seed, n=4, mu=1.0, nu=1.0):
    rng = np.random.default_rng(seed)
    K = rng.standard_normal((n, n))
    K *= 1.0 / np.linalg.norm(K, 2)
    a1 = rng.standard_normal(n) * 0.1
    b2 = rng.standard_normal(n) * 0.1
    a2 = rng.standard_normal(n) * 0.1
    b1 = rng.standard_normal(n) * 0.1
    X = Ball(np.zeros(n), 1.0)
    Y = Ball(np.zeros(n), 1.0)
    L = 1.0 + max(mu, nu) + 0.5

    def hq(x, y):
        return float(0.5 * mu * (x @ x) - 0.5 * nu * (y @ y) + y @ (K @ x))

    game = GameSpec.from_partials(
        lambda x, y: a1 - (mu * x + K.T @ y),
        lambda x, y: b1 - (-nu * y + K @ x),
        lambda x, y: a2 + (mu * x + K.T @ y),
        lambda x, y: b2 + (-nu * y + K @ x),
        L=L, mu=mu, nu=nu, delta=0.0, X=X, Y=Y,
        u1=lambda x, y: float(a1 @ x + b1 @ y) - hq(x, y),
        u2=lambda x, y: float(a2 @ x + b2 @ y) + hq(x, y),
        h_structure=BilinearSaddleForm(K, ax=mu, ay=nu,
                                       bx=0.5 * (a2 - a1),
                                       by=-0.5 * (b2 - b1)),
        monotone_modulus=min(mu, nu))
    J = np.block([[mu * np.eye(n), K.T], [-K, nu * np.eye(n)]])
    z_exact = np.linalg.solve(J, np.concatenate([a1, b2]))
    return game, JointPoint(z_exact[:n], z_exact[n:])


def test_criterion_4_zero_sum_recovery(report):
    t0 = time.perf_counter()
    worst = 0.0
    for seed in (1, 2, 3):
        game, z_exact = _linear_coupling_pair(seed)
        rep = solve_icl(game, 1e-12)
        worst = max(worst, rep.point.distance_to(z_exact))
    elapsed = time.perf_counter() - t0
    ok = report(4, worst <= 1e-8 and elapsed < 5.0,
                f"max distance to the competitive-game equilibrium="
                f"{worst:.2e}, runtime={elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------

def _aggregate(rows, method):
    """mean and 2-sigma of total algorithm queries per fee level.

    For the coupling-linearization method the outer coupling-gradient
    evaluations count as algorithm queries (the ledger keeps them in a
    separate column so either reporting convention stays available).
    """
    out = {}
    for r in rows:
        if r["method"] != method or r.get("error"):
            continue
        total = float(r["queries_h"]) + float(r["queries_g"])
        out.setdefault(float(r["rho"]), []).append(total)
    rhos = sorted(out)
    means = np.array([np.mean(out[r]) for r in rhos])
    sigs = np.array([np.std(out[r], ddof=0) for r in rhos])
    return rhos, means, 2.0 * sigs


def test_criterion_5_desk_scale_table_trends(report):
    t0 = time.perf_counter()
    seeds = list(range(0, 1000, 111))
    rhos = [0.0, 0.0003, 0.0006, 0.0009, 0.0012, 0.0015, 0.0018]
    rows = bench_rows(1000, 1000, 10_000, seeds, rhos,
                      ("icl", "ogda", "eg"), mu=1e-4, nu=1.0, eps=1e-7)
    failed = [r for r in rows if r.get("error")]
    icl_rho, icl_mean, icl_2s = _aggregate(rows, "icl")
    _, ogda_mean, _ = _aggregate(rows, "ogda")
    _, eg_mean, _ = _aggregate(rows, "eg")
    elapsed = time.perf_counter() - t0

    ok_a = all(icl_mean[i + 1] >= icl_mean[i]
               - max(icl_2s[i], icl_2s[i + 1])
               for i in range(len(icl_mean) - 1))
    report("5a", ok_a, "icl queries across fees = "
           + ", ".join(f"{m:.0f}+-{s:.0f}" for m, s in zip(icl_mean, icl_2s)))

    spread_ogda = (ogda_mean.max() - ogda_mean.min()) / ogda_mean.mean()
    spread_eg = (eg_mean.max() - eg_mean.min()) / eg_mean.mean()
    ok_b = spread_ogda < 0.02 and spread_eg < 0.02
    report("5b", ok_b, f"ogda spread={spread_ogda:.3%}, "
           f"eg spread={spread_eg:.3%} across fees")

    ok_c = icl_mean[0] <= 0.5 * ogda_mean[0]
    report("5c", ok_c, f"rho=0: icl={icl_mean[0]:.0f} vs "
           f"ogda/2={0.5 * ogda_mean[0]:.0f}")

    ratios = eg_mean / ogda_mean
    ok_d = bool(np.all((ratios >= 1.2) & (ratios <= 1.65)))
    report("5d", ok_d,
           "eg/ogda ratios = " + ", ".join(f"{r:.3f}" for r in ratios))

    ok_time = elapsed < 1200.0
    report("5", ok_a and ok_b and ok_c and ok_d and ok_time and not failed,
           f"runtime={elapsed:.0f}s, failed cells={len(failed)}")
    assert ok_a, "icl query counts must be nondecreasing in the fee"
    assert ok_b, "baseline query counts must be fee-insensitive"
    assert ok_d, "eg/ogda query ratio out of the expected band"
    assert ok_time and not failed
    assert ok_c, "icl must use at most half the baseline queries at rho=0"


def test_criterion_6_low_curvature_ordering(report):
    t0 = time.perf_counter()
    seeds = list(range(0, 1000, 111))
    rows = bench_rows(1000, 1000, 10_000, seeds, [0.0],
                      ("icl", "ogda", "eg"), mu=1e-4, nu=0.01, eps=1e-7)
    _, icl_mean, _ = _aggregate(rows, "icl")
    _, ogda_mean, _ = _aggregate(rows, "ogda")
    _, eg_mean, _ = _aggregate(rows, "eg")
    elapsed = time.perf_counter() - t0
    ok = report(
        6, icl_mean[0] < ogda_mean[0] < eg_mean[0],
        f"rho=0 query counts: icl={icl_mean[0]:.0f}, ogda={ogda_mean[0]:.0f}, "
        f"eg={eg_mean[0]:.0f} (runtime={elapsed:.0f}s)")
    assert ok


def test_criterion_7_certificate_soundness(report):
    violations = 0
    checked = 0
    for seed in range(5):
        game = gen_quadratic_known_ne(6, 5, 0.3 + 0.2 * seed, 1.4 - 0.1 * seed,
                                      delta=0.1 * seed, coupling_norm=0.8,
                                      seed=seed)
        prob = JointProblem(game, QueryLedger())
        gamma = 1.0 / (2 * game.L)
        mu_min = min(game.mu, game.nu)
        rng = np.random.default_rng(seed)
        for _ in range(200):
            z = JointPoint(game.X.project(rng.standard_normal(6) * 3),
                           game.Y.project(rng.standard_normal(5) * 3))
            bound = displacement_certificate(prob, z.concat(), gamma, mu_min)
            true = z.distance_to(game.known_ne) ** 2
            checked += 1
            if bound < true * (1 - 1e-9):
                violations += 1
    ok = report(7, violations == 0,
                f"{checked} sampled points, {violations} violations")
    assert ok


def test_criterion_8_potential_function_properties(report):
    games = [
        fee_game(SparseMatrix.from_dense(
            np.array([[0.8, -0.5], [-0.3, 0.6]])), 0.02, 0.6, 0.9).game_spec(),
        fee_game(SparseMatrix.from_dense(
            np.array([[1.0, -1.0], [-1.0, 1.0]]) / 2), 0.05, 0.4, 0.7).game_spec(),
    ]
    min_delta = np.inf
    worst_rel = -np.inf
    rng = np.random.default_rng(7)
    n_points = 0
    for game in games:
        for _ in range(500):
            z = JointPoint(game.X.project(rng.standard_normal(2) * 2),
                           game.Y.project(rng.standard_normal(2) * 2))
            pg = potential_gap(game, z, inner_budget=300)
            dg = deviation_gain(game, z)
            min_delta = min(min_delta, pg.value)
            worst_rel = max(worst_rel, dg.value - 2 * pg.value)
            n_points += 1
    ok_nonneg = min_delta >= -1e-9
    ok_dom = worst_rel <= 1e-6

    worst_at_ne = 0.0
    for seed in range(5):
        game = gen_quadratic_known_ne(5, 4, 0.6, 1.0, 0.3, 0.7, seed=seed)
        pg = potential_gap(game, game.known_ne)
        worst_at_ne = max(worst_at_ne, pg.value + pg.residual)
    ok_ne = worst_at_ne <= 1e-8
    ok = report(8, ok_nonneg and ok_dom and ok_ne,
                f"{n_points} points: min potential={min_delta:.2e}, "
                f"max(gain - 2*potential)={worst_rel:.2e}, "
                f"worst at equilibrium={worst_at_ne:.2e}")
    assert ok


def own_certificate(operator, X, Y, Lop, mu, ledger):
    """A saddle problem's own displacement certificate for an operator
    with Lipschitz bound Lop and strong-monotonicity modulus mu."""
    prob = OperatorProblem(operator, X, Y, ledger, Lop)
    return lambda z: displacement_certificate(prob, z, 1.0 / (2 * Lop), mu)


def test_criterion_9_inner_solver_rate_and_fallback(report):
    rng = np.random.default_rng(99)
    n = 10
    ok_rate = True
    details = []
    for kappa in (10.0, 100.0, 1000.0, 10000.0):
        s = 1.0 / (kappa - 1.0)
        W = rng.standard_normal((n, n))
        W /= np.linalg.norm(W, 2)
        bx, by = rng.standard_normal(n), rng.standard_normal(n)
        big = Ball(np.zeros(n), 1e6)
        form = BilinearSaddleForm(W, ax=s, ay=s, bx=bx, by=by)
        sub = SaddleSubproblem(
            c_x=np.zeros(n), c_y=np.zeros(n), x_center=np.zeros(n),
            y_center=np.zeros(n), eta=1.0 / s, X=big, Y=big,
            L_sub=s + 1.0, phi_form=form, mu_sub=s)
        J = np.block([[s * np.eye(n), W.T], [-W, s * np.eye(n)]])
        z_star = np.linalg.solve(J, -np.concatenate([bx, by]))
        d0_sq = float(z_star @ z_star)
        target = d0_sq * 1e-10
        led = QueryLedger()
        cert = own_certificate(sub.operator, big, big,
                               s + form.w_norm(), s, led)
        rep = solve_apd_bilinear(sub, 100_000_000, led, certificate=cert,
                                 target=target)
        envelope = 20.0 * ((s + 1.0) / s) * np.log(d0_sq / target)
        err = np.linalg.norm(rep.point.concat() - z_star)
        good = (rep.status == "converged" and rep.iterations <= envelope
                and err <= np.sqrt(target))
        ok_rate = ok_rate and good
        details.append(f"cond={kappa:.0f}: {rep.iterations} iters "
                       f"(envelope {envelope:.0f})")

    # generic fallback against the dense saddle system
    W = rng.standard_normal((n, n))
    W /= np.linalg.norm(W, 2)
    bx, by = rng.standard_normal(n), rng.standard_normal(n)
    big = Ball(np.zeros(n), 1e6)

    def op(x, y, ledger=None, bucket="h"):
        return W.T @ y + x + bx, y + by - W @ x

    J = np.block([[np.eye(n), W.T], [-W, np.eye(n)]])
    z_star = np.linalg.solve(J, -np.concatenate([bx, by]))
    target = 1e-12
    led = QueryLedger()
    rep = solve_operator_eg(op, big, big, np.zeros(n), np.zeros(n),
                            gamma=1.0 / (np.sqrt(2) * 2.0), budget=10 ** 7,
                            ledger=led, target=target,
                            certificate=own_certificate(op, big, big, 2.0,
                                                        1.0, led))
    err_fb = np.linalg.norm(rep.point.concat() - z_star)
    ok_fb = rep.status == "converged" and err_fb <= np.sqrt(target)
    ok = report(9, ok_rate and ok_fb,
                "; ".join(details) + f"; fallback error={err_fb:.2e}")
    assert ok


def test_criterion_10_monotone_reduction(report):
    game = matching_pennies()
    eps = 1e-3
    point, bound, rep = solve_monotone(game, eps)
    gain = deviation_gain(game, point)
    DX2 = game.X.diameter() ** 2
    DY2 = game.Y.diameter() ** 2
    mu_bar_expected = min(eps / (2 * DX2), game.L)
    nu_bar_expected = min(eps / (2 * DY2), game.L)
    ok_formulas = (rep.extras["reduced_mu"] == mu_bar_expected
                   and rep.extras["reduced_nu"] == nu_bar_expected)
    ok = report(10, gain.value + gain.residual <= eps and ok_formulas,
                f"deviation gain={gain.value + gain.residual:.2e} "
                f"(target {eps}), moduli exact={ok_formulas}")
    assert ok
