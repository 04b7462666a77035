import math

import numpy as np
import pytest

from nzs.games import BilinearSaddleForm, JointPoint, QueryLedger
from nzs.icl import build_subproblem
from nzs.instances import (fee_game, gen_quadratic_known_ne,
                           stackelberg_example)
from nzs.sets import Ball, Box
from nzs.solvers import (CHECK_PERIOD, JointProblem, OperatorProblem,
                         PdhgKernel, Pending, SaddleSubproblem, SolverConfig,
                         StructureError,
                         certificate_coefficient, displacement_certificate,
                         drive, extract_approx_ne, game_certificate,
                         pdhg_rate, primal_weight, solve_apd_bilinear,
                         solve_eg, solve_ogda, solve_operator_eg)
from nzs.vecmat import SparseMatrix
from nzs.diagnostics import deviation_gain


def quad_game(seed=0, mu=1.0, nu=1.0, delta=0.2, coupling=0.8, nx=6, ny=5):
    return gen_quadratic_known_ne(nx, ny, mu, nu, delta, coupling, seed)


def sparse_game(seed, n=30, rho=0.0, mu=0.05, nu=1.0, nnz=200):
    rng = np.random.default_rng(seed)
    idx = rng.choice(n * n, nnz, replace=False)
    M = SparseMatrix.from_coo(idx // n, idx % n, rng.uniform(-1, 1, nnz),
                              (n, n))
    from nzs.vecmat import spectral_norm
    M = M.scaled(1.0 / spectral_norm(M))
    return fee_game(M, rho, mu, nu)


def certify(game, z, gamma, mu_min, ledger=None):
    prob = JointProblem(game, QueryLedger() if ledger is None else ledger)
    return displacement_certificate(prob, z.concat(), gamma, mu_min)


class TestExtragradientStep:
    def test_fixed_point_at_interior_equilibrium(self):
        game = quad_game(seed=3)
        z = game.known_ne.concat()
        led = QueryLedger()
        zp = JointProblem(game, led).extragradient(z, 0.3, "f")
        assert np.linalg.norm(zp - z) <= 1e-12
        assert led.f_queries == 2 and led.cert_queries == 0

    def test_scalar_hand_example(self):
        # F(z) = z on [-2, 2]^2, gamma = 1/2, z = (1, 1):
        # zh = 0.5, zp = z - 0.5 * 0.5 = 0.75 in each coordinate
        box = Box([-2.0], [2.0])
        prob = OperatorProblem(lambda x, y, ledger, bucket: (x, y), box, box,
                               QueryLedger())
        zp = prob.extragradient(np.array([1.0, 1.0]), 0.5, "h")
        assert zp == pytest.approx([0.75, 0.75])

    def test_nonexpansion_toward_equilibrium(self):
        game = quad_game(seed=4, mu=0.7, nu=1.1)
        prob = JointProblem(game, QueryLedger())
        gamma = 1.0 / (np.sqrt(2) * game.L)
        rng = np.random.default_rng(0)
        zs = game.known_ne.concat()
        for _ in range(200):
            z = np.concatenate([game.X.project(rng.standard_normal(6) * 2),
                                game.Y.project(rng.standard_normal(5) * 2)])
            zp = prob.extragradient(z, gamma, "f")
            assert (np.linalg.norm(zp - zs)
                    <= np.linalg.norm(z - zs) * (1 + 1e-9))


class TestCertifyDistance:
    def test_zero_at_equilibrium(self):
        game = quad_game(seed=5)
        led = QueryLedger()
        bound = certify(game, game.known_ne, 1.0 / (2 * game.L),
                        min(game.mu, game.nu), led)
        assert bound <= 1e-20
        assert led.cert_queries == 2 and led.f_queries == 0

    def test_coefficient_hand_value(self):
        # mu*gamma = 1/2: 4/(1/4) - 2/(1/2) + 16 = 16 - 4 + 16 = 28
        assert certificate_coefficient(1.0, 0.5) == pytest.approx(28.0)

    def test_sound_on_random_points(self):
        # acceptance-grade soundness sweep happens in the acceptance suite;
        # spot-check 100 points here
        game = quad_game(seed=6, mu=0.4, nu=1.3)
        rng = np.random.default_rng(1)
        gamma = 1.0 / (2 * game.L)
        for _ in range(100):
            z = JointPoint(game.X.project(rng.standard_normal(6) * 3),
                           game.Y.project(rng.standard_normal(5) * 3))
            bound = certify(game, z, gamma, min(game.mu, game.nu))
            true = z.distance_to(game.known_ne) ** 2
            assert bound >= true * (1 - 1e-9)

    def test_zero_modulus_rejected(self):
        game = quad_game(seed=7)
        with pytest.raises(ValueError):
            certify(game, game.known_ne, 0.1, 0.0)

    def test_large_gamma_rejected(self):
        game = quad_game(seed=8)
        with pytest.raises(ValueError):
            certify(game, game.known_ne, 1.0 / game.L, 0.5)


class TestDrive:
    def test_poll_order_and_counts(self):
        # stop_check before steps 0, 4, 8; certificate after steps 3, 6, 9
        # and 10, the last, whose value 1/10 meets the target
        steps, polls = [], []

        def certificate():
            polls.append(("cert", len(steps)))
            return 1.0 / len(steps)

        led = QueryLedger()
        rep = drive(lambda: steps.append(1), lambda: len(steps), led, 10,
                    certificate, 0.1, 3,
                    stop_check=lambda: polls.append(("check", len(steps))))
        assert (rep.point, rep.ledger, rep.iterations, rep.status,
                rep.extras) == (10, led, 10, "converged", {})
        assert rep.residual_history == [(3, 1 / 3), (6, 1 / 6), (9, 1 / 9),
                                        (10, 1 / 10)]
        assert rep.certified_sq_distance == 1 / 10
        assert polls == [("check", 0), ("cert", 3), ("check", 4),
                         ("cert", 6), ("check", 8), ("cert", 9),
                         ("cert", 10)]

    @pytest.mark.parametrize("max_iter,polled", [
        (0, [0]), (1, [1]), (8, [8]), (20, [8, 16, 20]), (24, [8, 16, 24])])
    def test_the_returned_point_is_polled_once(self, max_iter, polled):
        # a run that uses up max_iter ends with a poll of its last point,
        # the same one when the schedule already lands there
        steps = []
        rep = drive(lambda: steps.append(1), lambda: len(steps), None,
                    max_iter, lambda: 1.0, 0.5, 8)
        assert (rep.point, rep.iterations, rep.status) == (
            max_iter, max_iter, "max_iter")
        assert [k for k, _ in rep.residual_history] == polled

    def test_certificate_at_target_stops(self):
        rep = drive(lambda: None, lambda: None, None, 100, lambda: 0.5, 0.5, 8)
        assert (rep.iterations, rep.status, rep.residual_history) == \
            (8, "converged", [(8, 0.5)])

    def test_stop_check_result_is_returned(self):
        calls = []
        rep = drive(lambda: calls.append(1), lambda: None, None, 100, None,
                    None, 8,
                    stop_check=lambda: "done" if len(calls) >= 6 else None)
        assert (rep.iterations, rep.status, rep.residual_history,
                rep.certified_sq_distance, rep.extras) == \
            (8, "converged", [], None, {"accepted": "done"})

    @pytest.mark.parametrize("q", [0.5, 0.99, 0.9999])
    def test_geometric_certificate_stops_within_a_period(self, q):
        # c_k = q^k first reaches the target at k_star; the polls close in
        # on it by halving the predicted remainder
        target, period = 1e-6, 8
        k_star = math.ceil(math.log(target) / math.log(q))
        steps = []
        rep = drive(lambda: steps.append(1), lambda: None, None, 10 * k_star,
                    lambda: q ** len(steps), target, period)
        assert rep.status == "converged"
        assert k_star <= rep.iterations < k_star + period
        assert len(rep.residual_history) <= 3 + math.log2(k_star)

    @pytest.mark.parametrize("value", [lambda k: 1.0, lambda k: float(k)])
    def test_certificate_that_does_not_fall_is_polled_every_period(
            self, value):
        steps = []
        rep = drive(lambda: steps.append(1), lambda: None, None, 100,
                    lambda: value(len(steps)), 0.5, 8)
        assert ([k for k, _ in rep.residual_history]
                == list(range(8, 97, 8)) + [100])

    @pytest.mark.parametrize("gap,rate,spacing", [
        (1.0001, 0.5, CHECK_PERIOD),  # nearly there: the floor
        (math.exp(20.0), 0.5, 20),    # half of ln(gap / 1) / 0.5 = 40 steps
        (2.0, 0.0, CHECK_PERIOD),     # no known rate
        (math.inf, 0.5, CHECK_PERIOD),
    ])
    def test_stop_checks_are_spaced_by_the_rate_and_the_floor(
            self, gap, rate, spacing):
        steps, checks = [], []

        def stop_check():
            checks.append(len(steps))
            return Pending(gap, 1.0, rate)

        drive(lambda: steps.append(1), lambda: None, None, 100, None, None,
              8, stop_check=stop_check)
        assert checks == list(range(0, 100, spacing))


class TestExtractApproxNe:
    def test_fixed_point_at_interior_equilibrium(self):
        game = quad_game(seed=9)
        point, bound = extract_approx_ne(game, game.known_ne,
                                         1.0 / (np.sqrt(2) * game.L), dist=0.0)
        assert point.distance_to(game.known_ne) <= 1e-12
        assert bound == 0.0

    def test_bound_formula(self):
        game = quad_game(seed=10)
        gamma = 1.0 / (np.sqrt(2) * game.L)
        _, bound = extract_approx_ne(game, game.known_ne, gamma, dist=1e-3)
        expect = 2.0 / gamma * np.sqrt(game.diameter_sq()) * 1e-3
        assert bound == pytest.approx(expect)

    def test_extraction_at_boundary_equilibrium_has_tiny_gain(self):
        game = stackelberg_example()
        point, _ = extract_approx_ne(game, game.known_ne,
                                     1.0 / (np.sqrt(2) * game.L))
        gain = deviation_gain(game, point)
        assert gain.value + gain.residual <= 1e-9

    def test_gamma_range(self):
        game = quad_game(seed=11)
        with pytest.raises(ValueError):
            extract_approx_ne(game, game.known_ne, 1.0 / game.L)


class TestBaselines:
    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf")])
    def test_config_rejects_eps_not_positive_and_finite(self, eps):
        with pytest.raises(ValueError, match="positive and finite"):
            SolverConfig(epsilon=eps)

    def test_eg_converges_fast_on_well_conditioned_quadratic(self):
        game = quad_game(seed=12, mu=1.0, nu=1.0, delta=0.1, coupling=0.5)
        rep = solve_eg(game, SolverConfig(epsilon=1e-8))
        assert rep.status == "converged"
        assert rep.iterations <= 200
        assert rep.point.distance_to(game.known_ne) ** 2 <= 1e-8
        assert rep.certified_sq_distance <= 1e-8

    def test_eg_query_count_is_twice_iterations(self):
        game = quad_game(seed=13)
        rep = solve_eg(game, SolverConfig(epsilon=1e-9))
        assert rep.ledger.f_queries == 2 * rep.iterations
        assert rep.ledger.cert_queries > 0  # certificates ledgered apart

    def test_ogda_one_query_per_iteration(self):
        game = quad_game(seed=14)
        rep = solve_ogda(game, SolverConfig(epsilon=1e-9))
        assert rep.status == "converged"
        assert rep.ledger.f_queries == rep.iterations

    def test_ogda_first_step_is_projected_gradient(self):
        game = quad_game(seed=15)
        rep = solve_ogda(game, SolverConfig(epsilon=1e-9, max_iter=1))
        gamma = 1.0 / (2 * game.L)
        z0 = JointPoint(game.X.canonical_point(), game.Y.canonical_point())
        F0 = JointPoint.split(game.F(z0.concat()), game.X.dimension)
        expect_x = game.X.project(z0.x - gamma * F0.x)
        expect_y = game.Y.project(z0.y - gamma * F0.y)
        assert np.allclose(rep.point.x, expect_x, atol=1e-14)
        assert np.allclose(rep.point.y, expect_y, atol=1e-14)

    def test_eg_and_ogda_agree_on_zero_sum_fee_game(self):
        game = sparse_game(seed=16, rho=0.0).game_spec()
        cfg = SolverConfig(epsilon=1e-14)
        z_eg = solve_eg(game, cfg).point
        z_og = solve_ogda(game, cfg).point
        assert z_eg.distance_to(z_og) <= 1e-6

    def test_max_iter_status(self):
        game = quad_game(seed=17)
        rep = solve_eg(game, SolverConfig(epsilon=1e-12, max_iter=4))
        assert rep.status == "max_iter"

    @pytest.mark.parametrize("solve", [solve_ogda, solve_eg])
    def test_max_iter_run_certifies_the_point_it_returns(self, solve):
        # the schedule's last poll comes at step 16, aiming at 1e-300; the
        # report must certify the step-1000 point, not that older iterate
        game = gen_quadratic_known_ne(20, 20, 1e-2, 1e-2, 1e-3, 1.0, 0)
        rep = solve(game, SolverConfig(epsilon=1e-300, max_iter=1000))
        assert (rep.status, rep.iterations) == ("max_iter", 1000)
        assert rep.residual_history[-1][0] == rep.iterations
        cert = game_certificate(game, QueryLedger())
        assert rep.certified_sq_distance == cert(rep.point.concat())
        assert (rep.point.distance_to(game.known_ne) ** 2
                <= rep.certified_sq_distance)


def unconstrained_subproblem(seed, n=20, ax=1.0, ay=1.0, wnorm=1.0):
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((n, n))
    W *= wnorm / np.linalg.norm(W, 2)
    bx = rng.standard_normal(n)
    by = rng.standard_normal(n)
    big = Ball(np.zeros(n), 1e6)
    form = BilinearSaddleForm(W, ax=ax, ay=ay, bx=bx, by=by)
    sub = SaddleSubproblem(
        c_x=np.zeros(n), c_y=np.zeros(n),
        x_center=np.zeros(n), y_center=np.zeros(n),
        eta=1.0 / min(ax, ay), X=big, Y=big,
        L_sub=max(ax, ay) + wnorm, phi_form=form, mu_sub=min(ax, ay))
    # saddle solves the linear system  [ax I, W'; -W, ay I] z = -(bx, by)
    J = np.block([[ax * np.eye(n), W.T], [-W, ay * np.eye(n)]])
    z_star = np.linalg.solve(J, -np.concatenate([bx, by]))
    return sub, z_star


def own_certificate(operator, X, Y, Lop, mu, ledger):
    """A saddle problem's own displacement certificate for an operator
    with Lipschitz bound Lop and strong-monotonicity modulus mu."""
    prob = OperatorProblem(operator, X, Y, ledger, Lop)
    return lambda z: displacement_certificate(prob, z, 1.0 / (2 * Lop), mu)


def solve_to_own_certificate(sub, target, max_iter=1_000_000):
    """solve_apd_bilinear on sub until its own certificate (Lipschitz
    bound max(ax, ay) + |W|, modulus min(ax, ay)) is at most target."""
    f = sub.phi_form
    led = QueryLedger()
    cert = own_certificate(sub.operator, sub.X, sub.Y,
                           max(f.ax, f.ay) + f.w_norm(), min(f.ax, f.ay), led)
    return solve_apd_bilinear(sub, max_iter, led, certificate=cert,
                              target=target)


class TestApdBilinear:
    def test_symmetric_scalar_saddle(self):
        # min_x max_y xy + x^2/2 - y^2/2 has its saddle at the origin
        box = Box([-2.0], [2.0])
        form = BilinearSaddleForm(np.array([[1.0]]), ax=1.0, ay=1.0)
        sub = SaddleSubproblem(c_x=np.zeros(1), c_y=np.zeros(1),
                               x_center=np.array([1.5]),
                               y_center=np.array([-1.0]),
                               eta=1.0, X=box, Y=box, L_sub=2.0,
                               phi_form=form, mu_sub=1.0)
        rep = solve_to_own_certificate(sub, 1e-10)
        assert rep.status == "converged"
        assert float(rep.point.x[0] ** 2 + rep.point.y[0] ** 2) <= 1e-10

    def test_matches_linear_system_saddle(self):
        sub, z_star = unconstrained_subproblem(seed=20)
        target = 1e-12
        rep = solve_to_own_certificate(sub, target)
        got = rep.point.concat()
        assert rep.status == "converged"
        assert np.linalg.norm(got - z_star) <= np.sqrt(target)

    def test_rate_envelope_across_condition_numbers(self):
        # iterations within 20 (L'/sqrt(ax ay)) log(d0^2/target)
        for kappa in (10.0, 100.0, 1000.0, 10000.0):
            s = 1.0 / (kappa - 1.0)
            sub, z_star = unconstrained_subproblem(seed=21, n=10, ax=s, ay=s)
            d0_sq = float(np.sum(z_star ** 2))  # start is the origin
            target = d0_sq * 1e-10
            rep = solve_to_own_certificate(sub, target, max_iter=50_000_000)
            Lp = s + 1.0
            envelope = 20.0 * (Lp / s) * np.log(d0_sq / target)
            assert rep.status == "converged"
            assert rep.iterations <= envelope
            err = np.linalg.norm(rep.point.concat() - z_star)
            assert err ** 2 <= target

    def test_linear_convergence_of_certified_bounds(self):
        sub, _ = unconstrained_subproblem(seed=22, ax=0.05, ay=0.05)
        rep = solve_to_own_certificate(sub, 1e-16)
        its = np.array([i for i, _ in rep.residual_history], dtype=float)
        vals = np.log([b for _, b in rep.residual_history])
        tail = len(its) // 4
        its, vals = its[tail:], vals[tail:]
        slope, intercept = np.polyfit(its, vals, 1)
        pred = slope * its + intercept
        ss_res = np.sum((vals - pred) ** 2)
        ss_tot = np.sum((vals - np.mean(vals)) ** 2)
        assert slope < 0
        assert 1 - ss_res / ss_tot >= 0.95

    def test_starts_at_start_else_at_the_center(self):
        sub, z_star = unconstrained_subproblem(seed=25)
        seen = []

        def look(x, y):  # polled once, before the first step
            seen.append(np.concatenate([x, y]))

        start = JointPoint.split(z_star, 20)
        solve_apd_bilinear(sub, 1, stop_check=look, start=start)
        solve_apd_bilinear(sub, 1, stop_check=look)
        assert np.array_equal(seen[0], z_star)
        assert np.array_equal(start.concat(), z_star)  # not written into
        assert np.array_equal(seen[1], np.zeros(40))

    def test_structure_error_names_fallback(self):
        sub, _ = unconstrained_subproblem(seed=23)
        sub.phi_form = None
        sub.h_operator = lambda x, y: JointPoint(x, y)
        with pytest.raises(StructureError, match="solve_operator_eg"):
            solve_apd_bilinear(sub, 1000)

    def test_generic_fallback_matches_linear_system(self):
        sub, z_star = unconstrained_subproblem(seed=24)
        form = sub.phi_form
        W, ax, ay, bx, by = form.W, form.ax, form.ay, form.bx, form.by

        def op(x, y, ledger=None, bucket="h"):
            if ledger is not None:
                ledger.h_queries += 1
            return W.T @ y + ax * x + bx, ay * y + by - W @ x

        target = 1e-12
        led = QueryLedger()
        rep = solve_operator_eg(
            op, sub.X, sub.Y, sub.x_center, sub.y_center,
            gamma=1.0 / (np.sqrt(2) * sub.L_sub), budget=10_000_000,
            ledger=led, target=target,
            certificate=own_certificate(op, sub.X, sub.Y, sub.L_sub,
                                        sub.mu_sub, led))
        assert rep.status == "converged"
        assert np.linalg.norm(rep.point.concat() - z_star) <= np.sqrt(target)


class TestRestartedPass:
    """A subproblem at eta = inf: PDHG with PDLP's restarts and primal
    weight, polling its certificate at each restart."""

    def test_primal_weight_moves_halfway_in_logs(self):
        dx = np.array([3.0, 4.0])  # |dx| = 5
        for omega, q in ((1e-2, 3.0), (5.0, 0.1), (0.7, 1.0)):
            dy = 5.0 * q * np.array([0.6, 0.8, 0.0])
            assert primal_weight(omega, dx, dy) == pytest.approx(
                math.sqrt(omega * q), rel=1e-12)
        assert primal_weight(0.3, np.zeros(2), np.ones(3)) == 0.3
        assert primal_weight(0.3, np.ones(2), np.zeros(3)) == 0.3

    def test_weight_of_the_moduli_ratio_gives_the_constructors_steps(self):
        rng = np.random.default_rng(30)
        W = rng.standard_normal((4, 6))
        form = BilinearSaddleForm(W, ax=1e-4, ay=1.0)
        big = Ball(np.zeros(6), 1e6), Ball(np.zeros(4), 1e6)
        kern = PdhgKernel(form, *big, np.zeros(6), np.zeros(4))
        steps = (kern.tau, kern.sigma, kern.theta)
        kern.set_weight(math.sqrt(form.ax / form.ay))
        assert (kern.tau, kern.sigma, kern.theta) == pytest.approx(steps,
                                                                   rel=1e-12)

    def test_decoupled_form_keeps_its_proximal_steps(self):
        # |W| = 0: plain proximal steps 4/ax and 4/ay without extrapolation,
        # whatever the primal weight
        form = BilinearSaddleForm(np.zeros((4, 6)), ax=0.5, ay=2.0)
        big = Ball(np.zeros(6), 1e6), Ball(np.zeros(4), 1e6)
        kern = PdhgKernel(form, *big, np.zeros(6), np.zeros(4))
        assert (kern.tau, kern.sigma, kern.theta) == (8.0, 2.0, 0.0)
        kern.set_weight(3.0)
        assert (kern.tau, kern.sigma, kern.theta) == (8.0, 2.0, 0.0)
        assert pdhg_rate(form) == 0.5

    def test_zero_coupling_pass_converges_to_the_baselines_point(
            self, monkeypatch):
        game = sparse_game(31, n=40, mu=1e-4, nu=1.0, nnz=300).game_spec()
        assert game.delta == 0
        eps = 1e-8
        ledger = QueryLedger()
        cert = game_certificate(game, ledger)
        polled, restarts, weights = [], [], []

        def certificate(z):
            polled.append(z.copy())
            restarts.append((ledger.h_queries, cert(z)))
            return restarts[-1][1]

        set_weight = PdhgKernel.set_weight

        def record(kern, omega):
            weights.append(omega)
            set_weight(kern, omega)

        monkeypatch.setattr(PdhgKernel, "set_weight", record)
        z0 = JointPoint(game.X.canonical_point(), game.Y.canonical_point())
        sub = build_subproblem(game, z0, math.inf, ledger)
        rep = solve_apd_bilinear(sub, 100_000, ledger,
                                 certificate=certificate, target=eps)
        assert rep.status == "converged"
        recomputed = game_certificate(game, QueryLedger())(rep.point.concat())
        assert recomputed == rep.extras["accepted"] <= eps
        ref = solve_ogda(game, SolverConfig(epsilon=eps))
        assert rep.point.distance_to(ref.point) <= 2 * math.sqrt(eps)

        # one (steps, certificate) pair per restart; the last one stops
        steps = [i for i, _ in restarts]
        assert all(a < b for a, b in zip(steps, steps[1:]))
        assert all(i % CHECK_PERIOD == 0 for i in steps)
        assert steps[-1] == rep.iterations
        assert len(polled) == len(steps) == len(weights) + 1 > 2
        assert all(v > eps for _, v in restarts[:-1])

        # each other restart moves omega halfway, in logs, to |dy|/|dx| of
        # the move since the previous restart
        nx = game.X.dimension
        omega = math.sqrt(sub.phi_form.ax / sub.phi_form.ay)
        anchors = [z0.concat()] + polled
        for a, b, new in zip(anchors, anchors[1:], weights):
            d = b - a
            q = np.linalg.norm(d[nx:]) / np.linalg.norm(d[:nx])
            assert new == pytest.approx(math.sqrt(omega * q), rel=1e-12)
            omega = new

    def test_stops_on_its_certificate_alone(self):
        game = sparse_game(32, mu=1e-4).game_spec()
        z0 = JointPoint(game.X.canonical_point(), game.Y.canonical_point())
        sub = build_subproblem(game, z0, math.inf)
        cert = game_certificate(game, QueryLedger())
        with pytest.raises(ValueError, match="certificate alone"):
            solve_apd_bilinear(sub, 100)
        with pytest.raises(ValueError, match="certificate alone"):
            solve_apd_bilinear(sub, 100, stop_check=lambda x, y: None,
                               certificate=cert, target=1e-8)
