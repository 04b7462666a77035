import dataclasses
import itertools
import math

import numpy as np
import pytest

from nzs.games import (BilinearSaddleForm, GameSpec, JointPoint, QueryLedger,
                       grad_g)
from nzs.icl import (SECANT_DEPTH, START_CUT, IclError, IclSchedule,
                     SecantStart, build_subproblem, check_inexactness,
                     game_schedule, schedule_params, solve_icl,
                     solve_monotone)
from nzs.instances import (fee_game, gen_quadratic_known_ne,
                           gen_sparse_experiment, matching_pennies,
                           reformulate_bilinear, stackelberg_example,
                           stackelberg_reference_points)
from nzs.sets import Ball
from nzs.solvers import SolverConfig, solve_eg
from nzs.vecmat import SparseMatrix
from nzs.diagnostics import deviation_gain


def without_structure(game):
    """game with its h_structure dropped: ICL's h_operator oracle route."""
    return dataclasses.replace(game, h_structure=None)


def quad_game(seed=0, **kw):
    args = dict(n_x=5, n_y=4, mu=0.8, nu=1.2, delta=0.4, coupling_norm=0.9)
    args.update(kw)
    return gen_quadratic_known_ne(seed=seed, **args)


def linear_coupling_pair(seed=0, n=4, mu=1.0, nu=1.0, radius=1.0, lin=0.1):
    """A near-zero-sum game with linear coupling, its equivalent zero-sum
    game, and the shared exact equilibrium from the first-order system.

    Kept at unit scale so inexactness gaps stay well above rounding noise.
    """
    rng = np.random.default_rng(seed)
    K = rng.standard_normal((n, n))
    K *= 1.0 / np.linalg.norm(K, 2)
    a1, b1 = rng.standard_normal(n) * lin, rng.standard_normal(n) * lin
    a2, b2 = rng.standard_normal(n) * lin, rng.standard_normal(n) * lin
    X = Ball(np.zeros(n), radius)
    Y = Ball(np.zeros(n), radius)
    L = 1.0 + max(mu, nu) + 0.5

    def hq(x, y):
        return float(0.5 * mu * (x @ x) - 0.5 * nu * (y @ y) + y @ (K @ x))

    # player 1 maximizes <a1, x> + <b1, y> - h, player 2 <a2, x> + <b2, y> + h
    game = GameSpec.from_partials(
        lambda x, y: a1 - (mu * x + K.T @ y),
        lambda x, y: b1 - (-nu * y + K @ x),
        lambda x, y: a2 + (mu * x + K.T @ y),
        lambda x, y: b2 + (-nu * y + K @ x),
        L=L, mu=mu, nu=nu, delta=0.0, X=X, Y=Y,
        u1=lambda x, y: float(a1 @ x + b1 @ y) - hq(x, y),
        u2=lambda x, y: float(a2 @ x + b2 @ y) + hq(x, y),
        h_structure=BilinearSaddleForm(
            K, ax=mu, ay=nu,
            bx=0.5 * (a2 - a1), by=-0.5 * (b2 - b1)),
        monotone_modulus=min(mu, nu))

    # same own-variable terms, strictly competitive cross terms
    zs_game = GameSpec.from_partials(
        lambda x, y: a1 - (mu * x + K.T @ y),
        lambda x, y: -b2 - (-nu * y + K @ x),
        lambda x, y: -a1 + (mu * x + K.T @ y),
        lambda x, y: b2 + (-nu * y + K @ x),
        L=L, mu=mu, nu=nu, delta=0.0, X=X, Y=Y,
        u1=lambda x, y: float(a1 @ x - b2 @ y) - hq(x, y),
        u2=lambda x, y: float(-a1 @ x + b2 @ y) + hq(x, y),
        h_structure=BilinearSaddleForm(K, ax=mu, ay=nu, bx=-a1, by=-b2),
        monotone_modulus=min(mu, nu))

    # interior equilibrium from the first-order system of either game
    J = np.block([[mu * np.eye(n), K.T], [-K, nu * np.eye(n)]])
    z_exact = np.linalg.solve(J, np.concatenate([a1, b2]))
    return game, zs_game, JointPoint(z_exact[:n], z_exact[n:])


class TestSchedule:
    def test_zero_coupling_smoothness(self):
        s = schedule_params(mu=0.2, nu=0.2, delta=0.0, L=1.0, eps=1e-6,
                            D_X=1.0, D_Y=1.0)
        assert s.eta == pytest.approx(5.0)
        assert s.theta == pytest.approx(0.5)

    def test_coupling_dominates(self):
        m, d = 0.1, 0.4
        s = schedule_params(mu=m, nu=0.5, delta=d, L=1.0, eps=1e-6,
                            D_X=1.0, D_Y=1.0)
        assert s.eta == pytest.approx(1.0 / d)
        assert s.theta == pytest.approx(m / (d + m))

    def test_outer_budget_hand_value(self):
        # theta = 1/2, D^2 = 4, eps = 1e-7: ceil(2 ln(8e7)) = 37
        s = schedule_params(mu=0.2, nu=0.2, delta=0.0, L=1.0, eps=1e-7,
                            D_X=np.sqrt(2), D_Y=np.sqrt(2))
        assert s.T == 37

    def test_tolerance_formulas(self):
        s = schedule_params(mu=0.3, nu=0.7, delta=0.1, L=2.0, eps=1e-5,
                            D_X=1.0, D_Y=2.0)
        eta = min(1 / 0.1, 1 / 0.3)
        theta = 0.3 / (1 / eta + 0.3)
        assert s.eps_t == pytest.approx(theta * 1e-5 / (4 * eta))
        assert s.inner_target == pytest.approx(s.eps_t ** 2 / (8 * 4.0 * 5.0))

    @pytest.mark.parametrize("mu,delta",
                             [(0.2, 0.0), (0.3, 0.1), (1e-4, 6e-4)])
    def test_scheduled_tolerances_spend_the_constant_budget(self, mu, delta):
        # sum_t (1 - theta)^(K-1-t) tau_t = eps_t/theta (1 - q^K) with
        # q = (1 - theta) r, r = 2/(2 - theta): the constant eps_t's
        # budget eps_t/theta once q^K is below rounding
        s = schedule_params(mu=mu, nu=1.0, delta=delta, L=2.0, eps=1e-7,
                            D_X=1.0, D_Y=1.0)
        theta, budget = s.theta, s.eps_t / s.theta
        q = 2.0 * (1.0 - theta) / (2.0 - theta)
        for K in (1, 2, 7, s.T, math.ceil(40.0 / -math.log(q))):
            t = np.arange(K)
            weighted = np.sum((1.0 - theta) ** (K - 1 - t)
                              * np.array([s.tolerance(i, K) for i in t]))
            assert weighted <= budget
            assert weighted == pytest.approx(budget * (1.0 - q ** K),
                                             rel=1e-12)
        assert weighted == pytest.approx(budget, rel=1e-12)

    @pytest.mark.parametrize("mu,delta", [(0.2, 0.0), (1e-4, 6e-4)])
    def test_reported_bound_at_the_scheduled_tolerances(self, mu, delta):
        # gaps at the scheduled tolerances are the worst case:
        # B_n = (1 - theta)^n D^2 + sum_t (1 - theta)^(n-t) 2 eta tau_t
        # (the constant eps_t's budget eps/2 is 2 eta eps_t/theta). Every
        # prefix stays within (1 - theta)^n D^2 + (eps/2) r^(K-n), and a
        # full run of the schedule within eps
        eps = 1e-7
        s = schedule_params(mu=mu, nu=1.0, delta=delta, L=2.0, eps=eps,
                            D_X=1.0, D_Y=1.0)
        r, c = 2.0 / (2.0 - s.theta), 1.0 - s.theta
        for K in (1, 5, s.T):
            taus = np.array([s.tolerance(t, K) for t in range(K)])
            for n in range(K + 1):
                bound = s.reported_bound(taus[:n])
                worst = c ** n * s.diameter_sq + np.sum(
                    c ** (n - np.arange(n)) * 2.0 * s.eta * taus[:n])
                assert bound == pytest.approx(worst, rel=1e-12)
                assert bound <= (c ** n * s.diameter_sq
                                 + eps / 2.0 * r ** (K - n))
            assert bound <= c ** K * s.diameter_sq + eps / 2.0
        assert bound <= eps

    def test_tolerance_grows_with_the_steps_left(self):
        s = schedule_params(mu=0.3, nu=0.7, delta=0.1, L=2.0, eps=1e-5,
                            D_X=1.0, D_Y=2.0)
        K = s.T
        taus = [s.tolerance(t, K) for t in range(K)]
        assert all(a > b for a, b in zip(taus, taus[1:]))
        assert taus[-1] == s.eps_t / (2.0 - s.theta)
        # one more step left multiplies the tolerance by r
        assert s.tolerance(0, K + 1) == pytest.approx(
            taus[0] * 2.0 / (2.0 - s.theta), rel=1e-14)

    @pytest.mark.parametrize("mu,delta,eps", [(1e-5, 1.0, 1e-7),
                                              (0.2, 0.0, 1e-300)])
    def test_nothing_overflows_up_to_the_outer_budget(self, mu, delta, eps):
        # theta = 1e-5 makes T about 1.75e6; theta = 1/2 with eps = 1e-300
        # gives r^T its largest factor, about 1e173, in tau_0
        s = schedule_params(mu=mu, nu=1.0, delta=delta, L=2.0, eps=eps,
                            D_X=1.0, D_Y=1.0)
        K = s.T
        assert K > 10 ** 6 or s.theta == 0.5
        for t in (0, K // 2, K - 1):
            assert 0 < s.tolerance(t, K) < math.inf
        assert s.reported_bound([s.tolerance(0, K)]) < math.inf

    def test_rejects_zero_modulus(self):
        with pytest.raises(ValueError, match="solve_monotone"):
            schedule_params(mu=0.0, nu=1.0, delta=0.0, L=1.0, eps=1e-6,
                            D_X=1.0, D_Y=1.0)

    @pytest.mark.parametrize("eps", [0.0, float("nan"), float("inf")])
    def test_rejects_eps_not_positive_and_finite(self, eps):
        with pytest.raises(ValueError, match="positive and finite"):
            schedule_params(mu=0.2, nu=0.2, delta=0.0, L=1.0, eps=eps,
                            D_X=1.0, D_Y=1.0)

    def test_invariants(self):
        with pytest.raises(ValueError):
            IclSchedule(eta=1.0, theta=1.5, eps_t=1e-8, T=10,
                        inner_target=1e-12, diameter_sq=4.0)
        with pytest.raises(ValueError, match="q must"):
            IclSchedule(eta=1.0, theta=0.5, eps_t=1e-8, T=10,
                        inner_target=1e-12, diameter_sq=4.0, q=1.0)


def theta_route(game, eps):
    return schedule_params(game.mu, game.nu, game.delta, game.L, eps,
                           game.X.diameter(), game.Y.diameter())


class TestScheduleRoutes:
    @pytest.fixture()
    def no_cost_model(self, monkeypatch):
        import nzs.icl

        def forbidden(game, eta):
            raise AssertionError("the cost model was evaluated")

        monkeypatch.setattr(nzs.icl, "_inner_rate", forbidden)

    @pytest.fixture(scope="class")
    def desk(self):
        _, meta = gen_sparse_experiment(1000, 1000, 10_000, 0, 1e-4, 1.0)
        return meta

    @pytest.mark.parametrize("rho", [0.0, 0.0003, 0.0018])
    def test_desk_fee_specs_keep_the_theta_route(self, no_cost_model, desk,
                                                rho):
        # run_method's ICL spec: delta' = 0 at rho = 0, else far above
        # min(mu, nu)' = 5e-5 (1.06e-3 at rho = 0.0003)
        game = fee_game(desk["M"], rho, desk["mu"], desk["nu"],
                        (desk["norm"], desk["norm_abs"]))
        spec = reformulate_bilinear(game, game.coupling_norm())
        assert game_schedule(spec, 1e-7) == theta_route(spec, 1e-7)

    @pytest.mark.parametrize("game", [
        # delta = 0
        gen_quadratic_known_ne(6, 5, 0.5, 0.8, 0.0, 1.0, seed=3),
        # delta/min(mu, nu) = 0.5, above sqrt(2) - 1
        quad_game(),
        # item 5's probe (1e-3, 0.1, 1e-3): delta/min(mu, nu) = 1
        gen_quadratic_known_ne(100, 100, 1e-3, 0.1, 1e-3, 1.0, seed=0),
        # just above sqrt(2) - 1
        quad_game(mu=1.0, delta=0.415),
    ])
    def test_games_outside_the_q_route_keep_the_theta_route(
            self, no_cost_model, game):
        for eps in (1e-3, 1e-7):
            assert game_schedule(game, eps) == theta_route(game, eps)

    def test_q_route_up_to_sqrt2_minus_1(self):
        # at delta/m = 0.414 only eta = 1/m is under the cap, where
        # q^2 = 0.49985 beats the theta-route's 1 - theta = 1/2
        game = quad_game(mu=1.0, delta=0.414)
        s, base = game_schedule(game, 1e-7), theta_route(game, 1e-7)
        assert s.q == pytest.approx(0.707) and s.eta == base.eta == 1.0
        assert s.T < base.T

    def test_quad_coupled_picks_the_cheapest_eta(self):
        # the quad-coupled benchmark's game 0 (delta/m = 0.1): T/rate is
        # least at eta = 64/m among 2^k/m up to the cap 80/m, and 58
        # theta-route steps fall to 7
        game = gen_quadratic_known_ne(200, 200, 0.01, 0.01, 0.001, 1.0,
                                      seed=0)
        s = game_schedule(game, 1e-7)
        assert (s.eta, s.T, theta_route(game, 1e-7).T) == (6400.0, 7, 58)
        assert s.q == pytest.approx(7.4 / 65, rel=1e-14)
        assert s.theta == pytest.approx(64 / 65, rel=1e-14)

    def test_tiny_delta_keeps_eta_finite(self):
        # delta = 1e-160 puts the cap m (m - 2 delta)/delta^2 near 1e320,
        # past the largest float 2^k: the search for eta stops at a finite
        # one, where a single step reaches eps
        s = game_schedule(quad_game(mu=1.0, delta=1e-160), 1e-7)
        assert s.q is not None and math.isfinite(s.eta) and s.T == 1

    def test_reported_bound_hand_value(self):
        # mu_sub = 1/(eta (1 - theta)) = 1, D = 2: b_1 = 0.5 * 2 +
        # sqrt(0.25) = 1.5, b_2 = 0.5 * 1.5 + 0 = 0.75
        s = IclSchedule(eta=2.0, theta=0.5, eps_t=1e-8, T=3,
                        inner_target=1e-12, diameter_sq=4.0, q=0.5)
        assert s.reported_bound([]) == 4.0
        assert s.reported_bound([0.25]) == 1.5 ** 2
        assert s.reported_bound([0.25, 0.0]) == 0.75 ** 2
        # the theta-route's: B_1 = 0.5 (4 + 2 * 2 * 0.25) = 2.5,
        # B_2 = 0.5 (2.5 + 0) = 1.25
        s = dataclasses.replace(s, q=None)
        assert s.reported_bound([]) == 4.0
        assert s.reported_bound([0.25]) == 2.5
        assert s.reported_bound([0.25, 0.0]) == 1.25

    @pytest.mark.parametrize("delta", [0.001, 0.01, 0.1])
    def test_scheduled_tolerances_reach_eps(self, delta):
        # gaps at the scheduled tolerances of K steps leave b_K^2 <=
        # (q^K D + sqrt(eps)/2)^2, which is at most eps at K = T
        game = quad_game(mu=1.0, delta=delta)
        eps = 1e-7
        s = game_schedule(game, eps)
        assert s.q is not None
        for K in (1, 2, s.T):
            taus = [s.tolerance(t, K) for t in range(K)]
            assert taus == sorted(taus, reverse=True)
            worst = math.sqrt(s.reported_bound(taus))
            assert worst <= (s.q ** K * math.sqrt(s.diameter_sq)
                             + 0.5 * math.sqrt(eps)) * (1 + 1e-12)
        assert s.reported_bound(taus) <= eps

    @pytest.mark.parametrize("mu,nu", [(0.05, 0.05), (0.02, 0.3)])
    def test_bound_audit(self, mu, nu):
        # every prefix n of every run: |z_n - z*|^2 <= b_n^2, the bound a
        # run stopped there reports; each step keeps
        # d_(t+1) <= q d_t + e_t, e_t = sqrt(gap_t/mu_sub), and the paper's
        # descent inequality (criterion 3's) at the constant eps_t,
        # (1/(2 eta) + m/2) d_(t+1)^2 <= d_t^2/(2 eta) + eps_t, and eta is
        # below the cap (m - 2 delta)/delta^2 where that inequality's room
        # s = 1/eta - mu_sub q^2 reaches 0
        m = min(mu, nu)
        for seed, r in enumerate((0.01, 0.1, 0.2, 0.4)):
            game = gen_quadratic_known_ne(30, 25, mu, nu, r * m, 1.0, seed)
            delta = game.delta
            for eps, max_outer, stop in itertools.product(
                    (1e-3, 1e-6, 1e-9), (None, 2, 6),
                    ("schedule", "certificate")):
                rep = solve_icl(game, eps, keep_trace=True,
                                max_outer=max_outer, stop=stop)
                s = rep.extras["schedule"]
                assert s.q is not None
                assert s.eta < (m - 2.0 * delta) / delta ** 2
                gaps = [gap for _, gap in rep.residual_history]
                d = [z.distance_to(game.known_ne)
                     for z in rep.extras["trace"]]
                for n in range(len(d)):
                    assert d[n] ** 2 <= s.reported_bound(gaps[:n]) + 1e-24
                for t, gap in enumerate(gaps):
                    assert d[t + 1] <= (s.q * d[t]
                                        + math.sqrt(gap / (1 / s.eta + m))
                                        + 1e-12)
                    lhs = (1 / (2 * s.eta) + m / 2) * d[t + 1] ** 2
                    rhs = d[t] ** 2 / (2 * s.eta) + s.eps_t
                    assert lhs <= rhs * (1 + 1e-9) + 1e-18
                assert d[-1] ** 2 <= rep.certified_sq_distance + 1e-24
                if stop == "schedule" and max_outer is None:
                    assert rep.status == "converged"

    @pytest.mark.parametrize("mu,nu", [(0.05, 0.05), (0.02, 0.3)])
    def test_theta_route_bound_audit(self, mu, nu):
        # the theta-route's twin of test_bound_audit, with r >= 1 the
        # delta >= m regime of every fee spec: every prefix n has
        # |z_n - z*|^2 <= B_n, each step keeps the descent inequality
        # d_(t+1)^2 <= (1 - theta)(d_t^2 + 2 eta gap_t), and B_n never
        # exceeds the schedule's worst case after n of K steps,
        # (1 - theta)^n D^2 + (eps/2) (2/(2 - theta))^(K-n)
        m = min(mu, nu)
        for seed, r in enumerate((0.5, 1.0, 2.0)):
            game = gen_quadratic_known_ne(30, 25, mu, nu, r * m, 1.0, seed)
            for eps, max_outer, stop in itertools.product(
                    (1e-3, 1e-6, 1e-9), (None, 2, 6),
                    ("schedule", "certificate")):
                rep = solve_icl(game, eps, keep_trace=True,
                                max_outer=max_outer, stop=stop)
                s = rep.extras["schedule"]
                assert s.q is None
                K = s.T if max_outer is None else min(s.T, max_outer)
                gaps = [gap for _, gap in rep.residual_history]
                d = [z.distance_to(game.known_ne)
                     for z in rep.extras["trace"]]
                for n in range(len(d)):
                    bound = s.reported_bound(gaps[:n])
                    assert d[n] ** 2 <= bound + 1e-24
                    assert bound <= ((1.0 - s.theta) ** n * s.diameter_sq
                                     + eps / 2.0
                                     * (2.0 / (2.0 - s.theta)) ** (K - n))
                for t, gap in enumerate(gaps):
                    assert d[t + 1] ** 2 <= ((1.0 - s.theta)
                                             * (d[t] ** 2 + 2.0 * s.eta * gap)
                                             * (1 + 1e-9) + 1e-24)
                assert d[-1] ** 2 <= rep.certified_sq_distance <= bound
                if stop == "schedule" and max_outer is None:
                    assert rep.status == "converged"

    def test_q_route_wherever_its_guard_holds(self):
        # delta/m = 0.4 at D^2/eps = 2: both routes take eta = 1/m and 3
        # steps, and the q-route, whose q^2 = 0.49 is below the
        # theta-route's 1 - theta = 1/2, is the schedule
        game = quad_game(mu=1.0, delta=0.4)
        eps = (game.X.diameter() ** 2 + game.Y.diameter() ** 2) / 2.0
        s, base = game_schedule(game, eps), theta_route(game, eps)
        assert s.q == pytest.approx(0.7) and s.eta == base.eta == 1.0
        assert s.T == base.T == 3
        rep = solve_icl(game, eps, keep_trace=True)
        assert rep.status == "converged" and rep.iterations == 3
        gaps = [gap for _, gap in rep.residual_history]
        for n, z in enumerate(rep.extras["trace"]):
            assert (z.distance_to(game.known_ne) ** 2
                    <= s.reported_bound(gaps[:n]) + 1e-24)
        assert rep.certified_sq_distance <= eps


class TestBuildSubproblem:
    def test_constant_coupling_gives_zero_linearization(self):
        game, _, _ = linear_coupling_pair(seed=1)
        z = JointPoint(game.X.canonical_point(), game.Y.canonical_point())
        led = QueryLedger()
        sub = build_subproblem(game, z, eta=2.0, ledger=led)
        # linear coupling: the linearization vector is the constant gradient
        g2 = build_subproblem(game, JointPoint(z.x + 0.1, z.y - 0.1), eta=2.0)
        assert np.allclose(sub.c_x, g2.c_x, atol=1e-14)
        assert led.g_queries == 1

    def test_infinite_eta_is_the_game_shifted_by_the_coupling_gradient(self):
        # the identity ICL's delta = 0 step at eta = inf rests on: no
        # proximal term, only the coupling gradient at z added to the
        # linear terms
        rng = np.random.default_rng(5)
        M = SparseMatrix.from_dense(rng.uniform(-1, 1, (4, 3)))
        game = fee_game(M, 0.01, 0.2, 0.7).game_spec()
        z = JointPoint(game.X.project(rng.standard_normal(game.X.dimension)),
                       game.Y.project(rng.standard_normal(game.Y.dimension)))
        got = build_subproblem(game, z, math.inf).phi_form
        cg = grad_g(game, z)
        want = game.h_structure.shifted(d_bx=cg.x, d_by=cg.y)
        assert (got.ax, got.ay) == (want.ax, want.ay)
        assert np.array_equal(got.bx, want.bx)
        assert np.array_equal(got.by, want.by)

    @pytest.mark.parametrize("maker", [
        lambda: quad_game(seed=2),
        lambda: stackelberg_example(),
        lambda: linear_coupling_pair(seed=3)[0],
        lambda: fee_game(SparseMatrix.from_dense(
            np.array([[0.5, -0.2], [0.1, 0.4]])), 0.01, 0.6, 0.9).game_spec(),
    ])
    def test_operator_at_center_equals_game_operator(self, maker):
        # proximal terms vanish at the center, so the subproblem operator
        # must agree with the full-game operator there (this also pins the
        # structured form against the oracle decomposition)
        game = maker()
        rng = np.random.default_rng(4)
        z = JointPoint(game.X.project(rng.standard_normal(game.X.dimension)),
                       game.Y.project(rng.standard_normal(game.Y.dimension)))
        sub = build_subproblem(game, z, eta=1.7)
        gx, gy = sub.operator(z.x, z.y)
        F = JointPoint.split(game.F(z.concat()), game.X.dimension)
        scale = max(1.0, np.max(np.abs(F.x)), np.max(np.abs(F.y)))
        assert np.max(np.abs(gx - F.x)) <= 1e-12 * scale
        assert np.max(np.abs(gy - F.y)) <= 1e-12 * scale

    def test_oracle_route_matches_structured_route(self):
        game = quad_game(seed=5)
        rng = np.random.default_rng(5)
        z = JointPoint(game.X.project(rng.standard_normal(5)),
                       game.Y.project(rng.standard_normal(4)))
        sub = build_subproblem(game, z, eta=0.9)
        w = JointPoint(game.X.project(rng.standard_normal(5)),
                       game.Y.project(rng.standard_normal(4)))
        gx_s, gy_s = sub.operator(w.x, w.y)
        sub.phi_form = None  # force the oracle fallback
        gx_o, gy_o = sub.operator(w.x, w.y)
        assert np.max(np.abs(gx_s - gx_o)) <= 1e-12
        assert np.max(np.abs(gy_s - gy_o)) <= 1e-12

    def test_gradient_matches_finite_differences(self):
        game = quad_game(seed=6)
        rng = np.random.default_rng(6)
        zt = JointPoint(game.X.project(rng.standard_normal(5)),
                        game.Y.project(rng.standard_normal(4)))
        eta = 1.3
        sub = build_subproblem(game, zt, eta)
        w = JointPoint(game.X.project(rng.standard_normal(5)),
                       game.Y.project(rng.standard_normal(4)))

        def phi(x, y):
            return (float(sub.c_x @ x) + float((x - zt.x) @ (x - zt.x)) / (2 * eta)
                    + game.h_value(x, y)
                    - float(sub.c_y @ y) - float((y - zt.y) @ (y - zt.y)) / (2 * eta))

        h = 1e-6
        gx, gy = sub.operator(w.x, w.y)
        for i in range(5):
            e = np.zeros(5)
            e[i] = h
            fd = (phi(w.x + e, w.y) - phi(w.x - e, w.y)) / (2 * h)
            assert fd == pytest.approx(gx[i], rel=1e-5, abs=1e-7)
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd = (phi(w.x, w.y + e) - phi(w.x, w.y - e)) / (2 * h)
            assert fd == pytest.approx(-gy[j], rel=1e-5, abs=1e-7)


class TestCheckInexactness:
    def test_exact_saddle_has_nonpositive_gap(self):
        sub_game, _, _ = linear_coupling_pair(seed=7, n=3)
        z = JointPoint(sub_game.X.canonical_point(),
                       sub_game.Y.canonical_point())
        eta = 2.0
        sub = build_subproblem(sub_game, z, eta)
        f = sub.phi_form
        # interior saddle of phi from its linear system
        J = np.block([[f.ax * np.eye(3), f.W.T], [-f.W, f.ay * np.eye(3)]])
        zsol = np.linalg.solve(J, -np.concatenate([f.bx, f.by]))
        gap = check_inexactness(sub, JointPoint(zsol[:3], zsol[3:]))
        assert gap <= 1e-10

    def test_matches_grid_oracle_on_simplices(self):
        game = fee_game(SparseMatrix.from_dense(
            np.array([[0.8, -0.5], [-0.3, 0.6]])), 0.02, 0.7, 0.9).game_spec()
        z = JointPoint(np.array([0.3, 0.7]), np.array([0.6, 0.4]))
        sub = build_subproblem(game, z, eta=1.1)
        cand = JointPoint(np.array([0.45, 0.55]), np.array([0.2, 0.8]))
        gx, gy = sub.operator(cand.x, cand.y)
        best = -np.inf
        ts = np.linspace(0.0, 1.0, 1001)
        for t in ts:
            x = np.array([t, 1 - t])
            vx = gx @ (cand.x - x)
            best = max(best, vx)
        best_y = -np.inf
        for s in ts:
            y = np.array([s, 1 - s])
            best_y = max(best_y, gy @ (cand.y - y))
        got = check_inexactness(sub, cand)
        assert got == pytest.approx(best + best_y, abs=1e-3)

    def test_translation_covariance_on_simplex(self):
        game = fee_game(SparseMatrix.from_dense(
            np.array([[0.8, -0.5], [-0.3, 0.6]])), 0.0, 0.5, 0.5).game_spec()
        z = JointPoint(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        sub = build_subproblem(game, z, eta=2.0)
        cand = JointPoint(np.array([0.7, 0.3]), np.array([0.1, 0.9]))
        g0 = check_inexactness(sub, cand)
        sub.phi_form = sub.phi_form.shifted(d_bx=3.7 * np.ones(2))
        g1 = check_inexactness(sub, cand)
        assert g1 == pytest.approx(g0, abs=1e-12)


class TestSolveIcl:
    def test_matches_baseline_on_zero_sum_fee_game(self):
        rng = np.random.default_rng(8)
        n = 20
        idx = rng.choice(n * n, 120, replace=False)
        M = SparseMatrix.from_coo(idx // n, idx % n,
                                  rng.uniform(-1, 1, 120), (n, n))
        from nzs.vecmat import spectral_norm
        M = M.scaled(1.0 / spectral_norm(M))
        game = fee_game(M, 0.0, 0.05, 1.0).game_spec()
        rep_icl = solve_icl(game, 1e-13)
        rep_eg = solve_eg(game, SolverConfig(epsilon=1e-13))
        assert rep_icl.point.distance_to(rep_eg.point) <= 1e-6

    def test_stackelberg_equilibrium(self):
        game = stackelberg_example()
        nash, stack = stackelberg_reference_points()
        rep = solve_icl(game, 2.5e-13)
        assert rep.point.distance_to(nash) <= 1e-6
        assert rep.point.distance_to(stack) > 1e-2

    def test_descent_inequality_every_outer_iteration(self):
        # each step descends by the gap its inner solve accepted
        game = quad_game(seed=9, mu=0.5, nu=1.1, delta=0.3, coupling_norm=0.8)
        rep = solve_icl(game, 1e-10, keep_trace=True)
        sched = rep.extras["schedule"]
        zs = game.known_ne
        m = min(game.mu, game.nu)
        trace = rep.extras["trace"]
        for t in range(len(trace) - 1):
            lhs = (1 / (2 * sched.eta) + m / 2) * trace[t + 1].distance_to(zs) ** 2
            rhs = ((1 / (2 * sched.eta)) * trace[t].distance_to(zs) ** 2
                   + rep.residual_history[t][1])
            assert lhs <= rhs * (1 + 1e-9) + 1e-18

    def test_outer_count_within_budget_and_converged(self):
        game = quad_game(seed=10)
        eps = 1e-9
        rep = solve_icl(game, eps)
        sched = rep.extras["schedule"]
        budget = math.ceil((1 / sched.theta)
                           * math.log(2 * sched.diameter_sq / eps))
        assert rep.iterations <= budget
        assert rep.point.distance_to(game.known_ne) ** 2 <= eps
        assert rep.certified_sq_distance <= eps

    def test_gap_at_every_accepted_iterate_is_within_tolerance(self,
                                                               monkeypatch):
        # step t accepts its first gap at most min(tau_t, max(g0/START_CUT,
        # tau_(K-1))), g0 its first poll's; the start-relative cut binds in
        # the later steps
        import nzs.icl

        polls = []
        monkeypatch.setattr(nzs.icl, "build_subproblem",
                            lambda *args: polls.append([])
                            or build_subproblem(*args))
        monkeypatch.setattr(nzs.icl, "check_inexactness",
                            lambda *args: polls[-1].append(
                                check_inexactness(*args)) or polls[-1][-1])
        game = quad_game(seed=11)
        rep = solve_icl(game, 1e-9)
        sched = rep.extras["schedule"]
        K = sched.T
        assert len(polls) == len(rep.residual_history) == K
        cut_binds = 0
        for t, (gaps, (_, accepted)) in enumerate(
                zip(polls, rep.residual_history)):
            tol = min(sched.tolerance(t, K),
                      max(gaps[0] / START_CUT, sched.tolerance(K - 1, K)))
            assert accepted == gaps[-1] <= tol
            assert all(gap > tol for gap in gaps[:-1])
            assert accepted <= sched.tolerance(t, K)
            cut_binds += tol < sched.tolerance(t, K)
        assert 0 < cut_binds < K

    def test_checks_cost_well_below_a_fixed_cadence(self):
        # checks come when the inner rate predicts the gap is near its
        # tolerance, not at a fixed cadence: polling every CHECK_PERIOD = 4
        # steps would cost 2 cert queries per 4 h queries, plus 2 per outer
        # step for the poll at its start
        game = quad_game(seed=1, n_x=20, n_y=20, mu=0.05, nu=0.05,
                         delta=0.01, coupling_norm=1.0)
        rep = solve_icl(game, 1e-7)
        led = rep.ledger
        cadence = 2 * led.h_queries / 4 + 2 * rep.iterations
        assert led.cert_queries <= 0.6 * cadence
        sched = rep.extras["schedule"]
        assert all(gap <= sched.tolerance(t, sched.T)
                   for t, (_, gap) in enumerate(rep.residual_history))

    @pytest.mark.parametrize("inner", ["apd", "eg"])
    def test_inner_solves_stop_on_the_check_alone(self, monkeypatch, inner):
        # each check costs 2 cert queries (extraction and gap) and the
        # final whole-game certificate 2 more: no other cert query is made
        import nzs.icl

        checks = []

        def counted(*args):
            checks.append(None)
            return check_inexactness(*args)

        monkeypatch.setattr(nzs.icl, "check_inexactness", counted)
        game = quad_game(seed=1, n_x=20, n_y=20, mu=0.05, nu=0.05,
                         delta=0.01, coupling_norm=1.0)
        if inner == "eg":
            game = without_structure(game)
        rep = solve_icl(game, 1e-7)
        assert rep.status == "converged"
        assert rep.ledger.cert_queries == 2 * len(checks) + 2

    def test_stalled_inner_solve_raises(self, monkeypatch):
        import nzs.icl

        monkeypatch.setattr(nzs.icl, "_inner_budget", lambda sched, rate: 1)
        with pytest.raises(IclError, match="stalled"):
            solve_icl(quad_game(seed=1), 1e-7)

    def test_stalled_inner_solve_names_the_smallest_gap(self, monkeypatch):
        # the 20x20 golden game, on the q-route: with 60 inner steps its
        # second outer step polls the check three times. The last two
        # residual bounds lie below the tolerance in force,
        # tau_1 = 2.147e-5, but fail the descent guard, so the solve stalls
        import nzs.icl

        polls = []
        monkeypatch.setattr(nzs.icl, "build_subproblem",
                            lambda *args: polls.append([])
                            or build_subproblem(*args))
        monkeypatch.setattr(nzs.icl, "check_inexactness",
                            lambda *args: polls[-1].append(
                                check_inexactness(*args)) or polls[-1][-1])
        budgets = iter([10 ** 6, 60])
        monkeypatch.setattr(nzs.icl, "_inner_budget",
                            lambda sched, rate: next(budgets))
        game = quad_game(seed=1, n_x=20, n_y=20, mu=0.05, nu=0.05,
                         delta=0.01, coupling_norm=1.0)
        with pytest.raises(IclError) as err:
            solve_icl(game, 1e-7)
        s = game_schedule(game, 1e-7)  # the schedule the run used
        assert s.q is not None and len(polls) == 2
        gaps = polls[1]
        tol = min(s.tolerance(1, s.T),
                  max(gaps[0] / START_CUT, s.tolerance(s.T - 1, s.T)))
        assert len(gaps) == 3 and gaps[0] > tol > max(gaps[1:])
        assert str(err.value) == (
            f"inner solve of outer step 1 stalled: residual bound did not "
            f"reach {tol:.3e} under the descent guard within 60 iterations; "
            f"the smallest residual bound checked was {min(gaps):.3e}")
        assert f"{tol:.3e}" == "2.147e-05"

    def test_stalled_inner_solve_names_its_outer_step(self, monkeypatch):
        import nzs.icl

        budgets = iter([10 ** 6] * 3 + [1])
        monkeypatch.setattr(nzs.icl, "_inner_budget",
                            lambda sched, rate: next(budgets))
        with pytest.raises(IclError,
                           match="^inner solve of outer step 3 stalled"):
            solve_icl(quad_game(seed=1), 1e-7)

    @pytest.mark.parametrize("stop", ["schedule", "certificate"])
    def test_a_game_whose_gap_floor_lies_above_eps_t_converges(self, stop):
        # mu = 1e-4 against nu = 1, delta/m = 0.1: the q-route at
        # eta = 3.2e5, T = 7. PDHG's variational gap over the whole ball
        # bottoms out at a rounding floor (1.013e-11) above the tolerance of
        # outer step 4 (3.333e-12), so a gap check never passes there; the
        # residual bound does not scale with the ball's diameter
        game = gen_quadratic_known_ne(100, 100, 1e-4, 1.0, 1e-5, 1.0, seed=0)
        eps = 1e-7
        rep = solve_icl(game, eps, stop=stop)
        s = rep.extras["schedule"]
        assert (s.q, s.eta, s.T) == (pytest.approx(7 / 55), 3.2e5, 7)
        assert rep.status == "converged"
        assert (rep.point.distance_to(game.known_ne) ** 2
                <= rep.certified_sq_distance <= eps)

    def test_ledger_separates_query_kinds(self):
        game = quad_game(seed=12)
        rep = solve_icl(game, 1e-8)
        led = rep.ledger
        assert led.g_queries == rep.iterations
        assert led.f_queries <= 2  # only the final certificate sweep
        assert led.h_queries > 0 and led.cert_queries > 0

    def test_zero_sum_equivalence_with_linear_coupling(self):
        # the equilibrium must match the strictly competitive game built
        # from the own-variable payoff terms
        game, zs_game, z_exact = linear_coupling_pair(seed=13)
        rep = solve_icl(game, 1e-12)
        rep_zs = solve_eg(zs_game, SolverConfig(epsilon=1e-17))
        assert rep.point.distance_to(z_exact) <= 5e-9
        assert rep_zs.point.distance_to(z_exact) <= 5e-9
        assert rep.point.distance_to(rep_zs.point) <= 1e-8

    def test_default_runs_full_schedule(self):
        rep = solve_icl(quad_game(seed=16), 1e-9)
        assert rep.iterations == rep.extras["schedule"].T
        assert rep.ledger.g_queries == rep.iterations

    def test_certificate_stop_ends_early_and_keeps_checks(self):
        game = quad_game(seed=16)
        eps = 1e-9
        rep = solve_icl(game, eps, stop="certificate")
        sched = rep.extras["schedule"]
        assert rep.status == "converged"
        assert rep.certified_sq_distance <= eps
        assert rep.point.distance_to(game.known_ne) ** 2 <= eps
        assert rep.iterations < sched.T
        assert rep.ledger.g_queries == rep.iterations
        assert len(rep.residual_history) == rep.iterations
        # the tolerances of a run that may take all sched.T steps
        for t, (_, gap) in enumerate(rep.residual_history):
            assert gap <= sched.tolerance(t, sched.T)

    def test_zero_coupling_game_takes_one_structured_pass(self):
        rng = np.random.default_rng(17)
        n = 20
        idx = rng.choice(n * n, 120, replace=False)
        M = SparseMatrix.from_coo(idx // n, idx % n,
                                  rng.uniform(-1, 1, 120), (n, n))
        game = fee_game(M, 0.0, 0.05, 1.0).game_spec()
        assert game.delta == 0
        eps = 1e-10
        rep = solve_icl(game, eps, stop="certificate")
        assert rep.ledger.g_queries == 1 and rep.iterations == 1
        assert rep.status == "converged"
        assert rep.certified_sq_distance <= eps
        ref = solve_eg(game, SolverConfig(epsilon=1e-14))
        assert rep.point.distance_to(ref.point) ** 2 <= 4 * eps

    def test_structureless_zero_coupling_game_takes_the_proximal_loop(self):
        # delta = 0 but no h_structure: no structured pass, the proximal
        # iterations on the h_operator oracle certify instead
        game, _, z_exact = linear_coupling_pair(seed=13)
        game = without_structure(game)
        eps = 1e-10
        rep = solve_icl(game, eps, stop="certificate")
        assert rep.status == "converged"
        assert rep.iterations == rep.ledger.g_queries > 1
        assert len(rep.residual_history) == rep.iterations
        assert rep.certified_sq_distance <= eps
        assert rep.point.distance_to(z_exact) ** 2 <= rep.certified_sq_distance

    @pytest.mark.parametrize("stop", ["schedule", "certificate"])
    def test_decoupled_game_converges_within_its_certificate(self, stop):
        # no bilinear term (|W| = 0): PDHG takes plain proximal steps
        game = gen_quadratic_known_ne(6, 5, 0.5, 0.8, delta=0.1,
                                      coupling_norm=0.0, seed=3)
        assert game.h_structure.w_norm() == 0
        rep = solve_icl(game, 1e-9, stop=stop)
        assert rep.status == "converged"
        # known_ne is the equilibrium only up to rounding
        assert (rep.point.distance_to(game.known_ne) ** 2
                <= rep.certified_sq_distance + 1e-24)

    def test_decoupled_zero_coupling_game_takes_four_h_queries(self):
        # the restarted eta = inf pass certifies at its first restart
        game = gen_quadratic_known_ne(6, 5, 0.5, 0.8, delta=0.0,
                                      coupling_norm=0.0, seed=3)
        rep = solve_icl(game, 1e-9, stop="certificate")
        assert rep.status == "converged" and rep.iterations == 1
        assert (rep.ledger.h_queries, rep.ledger.g_queries) == (4, 1)
        assert rep.point.distance_to(game.known_ne) == 0.0

    @pytest.mark.parametrize("stop", ["schedule", "certificate"])
    @pytest.mark.parametrize("max_outer", [None, 2, 6, 20])
    def test_reported_bound_holds(self, stop, max_outer):
        # the report, and the bound of the gaps accepted up to each
        # proximal step of the run, which a run stopped there would report
        for seed, eps in ((20, 1e-3), (21, 1e-6), (22, 1e-9)):
            game = quad_game(seed=seed, delta=0.6)
            rep = solve_icl(game, eps, keep_trace=True, max_outer=max_outer,
                            stop=stop)
            sched = rep.extras["schedule"]
            K = sched.T if max_outer is None else min(sched.T, max_outer)
            trace = rep.extras["trace"]
            gaps = [gap for _, gap in rep.residual_history]
            assert len(trace) == rep.iterations + 1 <= K + 1
            for n, z in enumerate(trace):
                assert (z.distance_to(game.known_ne) ** 2
                        <= sched.reported_bound(gaps[:n]))
            assert (rep.point.distance_to(game.known_ne) ** 2
                    <= rep.certified_sq_distance)
            # a full run stays within the constant eps_t's bound
            full = (1.0 - sched.theta) ** K * sched.diameter_sq + eps / 2.0
            if stop == "schedule":
                assert rep.iterations == K
                assert rep.certified_sq_distance <= full

    def test_certificate_stop_without_a_modulus_runs_the_schedule(
            self, monkeypatch):
        # no whole-game certificate exists at monotone_modulus 0, so
        # stop="certificate" runs the full schedule, as stop="schedule"
        # does, and reports the bound of its accepted gaps; its only cert
        # queries are the two of each inexactness check
        import nzs.icl

        checks = []
        monkeypatch.setattr(nzs.icl, "check_inexactness",
                            lambda *args: checks.append(None)
                            or check_inexactness(*args))
        game = dataclasses.replace(quad_game(seed=12), monotone_modulus=0.0)
        eps = 1e-6
        reps = []
        for stop in ("schedule", "certificate"):
            checks.clear()
            reps.append(solve_icl(game, eps, stop=stop))
            assert reps[-1].ledger.cert_queries == 2 * len(checks)
        sched = reps[1].extras["schedule"]
        for rep in reps:
            assert rep.status == "converged"
            assert rep.iterations == len(rep.residual_history) == sched.T
            gaps = [gap for _, gap in rep.residual_history]
            assert rep.certified_sq_distance == sched.reported_bound(gaps)
            assert rep.certified_sq_distance <= eps
            assert (rep.point.distance_to(game.known_ne) ** 2
                    <= rep.certified_sq_distance)
        assert (reps[0].point.concat().tolist()
                == reps[1].point.concat().tolist())
        assert reps[0].ledger == reps[1].ledger

    def test_truncated_run_is_not_converged(self):
        eps = 1e-9
        for stop in ("schedule", "certificate"):
            rep = solve_icl(quad_game(seed=10), eps, max_outer=1, stop=stop)
            assert rep.iterations == 1
            assert rep.certified_sq_distance > eps
            assert rep.status != "converged"

    @pytest.mark.parametrize("stop", ["schedule", "certificate"])
    @pytest.mark.parametrize("max_outer", [0, -1])
    def test_rejects_max_outer_below_one(self, stop, max_outer):
        # a delta = 0 structured game, whose first outer step would be the
        # one at eta = inf
        game = fee_game(SparseMatrix.from_dense(
            np.array([[0.5, -0.2], [0.1, 0.4]])), 0.0, 0.6, 0.9).game_spec()
        assert game.delta == 0
        with pytest.raises(ValueError, match="max_outer"):
            solve_icl(game, 1e-6, max_outer=max_outer, stop=stop)

    def test_rejects_unknown_stop_rule(self):
        with pytest.raises(ValueError, match="stop"):
            solve_icl(quad_game(), 1e-6, stop="never")

    def test_eg_inner_agrees_with_apd_inner(self):
        game = quad_game(seed=14)
        z_a = solve_icl(game, 1e-10).point
        z_b = solve_icl(without_structure(game), 1e-10).point
        assert z_a.distance_to(z_b) <= 1e-4
        assert z_a.distance_to(game.known_ne) ** 2 <= 1e-10

    @pytest.mark.parametrize("stop", ["schedule", "certificate"])
    def test_single_point_game_returns_its_point(self, stop):
        game = fee_game(SparseMatrix.from_dense(np.array([[1.0]])),
                        0.0, 0.1, 0.1).game_spec()
        rep = solve_icl(game, 1e-7, keep_trace=True, stop=stop)
        assert rep.status == "converged"
        assert rep.certified_sq_distance == 0.0
        assert rep.iterations == 0 and rep.extras["schedule"] is None
        assert rep.point.x.tolist() == [1.0] and rep.point.y.tolist() == [1.0]
        assert len(rep.extras["trace"]) == 1
        assert rep.extras["trace"][0] is rep.point
        ledger = rep.ledger
        assert ledger.h_queries + ledger.g_queries + ledger.cert_queries == 0


def affine_window(a, b, z0, steps):
    """The iterates z_0 .. z_steps of z -> a z + b (a elementwise),
    recorded into a SecantStart."""
    secant = SecantStart(z0.shape[0])
    zs = [z0]
    for _ in range(steps):
        zs.append(a * zs[-1] + b)
        secant.record(zs[-2], zs[-1])
    return secant, zs


class TestSecantStart:
    N_X = 6

    def affine_contraction(self, seed=0):
        rng = np.random.default_rng(seed)
        # SECANT_DEPTH // 2 distinct contraction factors over 12 coordinates
        levels = np.linspace(0.3, 0.9, SECANT_DEPTH // 2)
        a = rng.permutation(np.resize(levels, 2 * self.N_X))
        return a, rng.standard_normal(2 * self.N_X), rng.standard_normal(
            2 * self.N_X)

    def test_predicts_the_next_iterate_of_an_affine_contraction(self):
        a, b, z0 = self.affine_contraction()
        secant, zs = affine_window(a, b, z0, SECANT_DEPTH + 1)
        big = Ball(np.zeros(self.N_X), 1e3)  # no projection is active
        z = JointPoint.split(zs[-1], self.N_X)
        start = secant.predict(z, big, big)
        want = a * zs[-1] + b
        err = np.linalg.norm(start.concat() - want)
        assert err <= 1e-8 * np.linalg.norm(want - zs[-1])

    def test_no_prediction_until_the_window_is_full(self):
        a, b, z0 = self.affine_contraction()
        secant, zs = affine_window(a, b, z0, SECANT_DEPTH)
        big = Ball(np.zeros(self.N_X), 1e3)
        assert secant.predict(JointPoint.split(zs[-1], self.N_X),
                              big, big) is None

    def test_start_lies_in_the_sets(self):
        a, b, z0 = self.affine_contraction(seed=1)
        b += 5.0  # the fixed point lies far outside the balls
        secant, zs = affine_window(a, b, z0, SECANT_DEPTH + 1)
        z = JointPoint.split(zs[-1], self.N_X)
        X = Ball(np.zeros(self.N_X), np.linalg.norm(z.x))
        Y = Ball(np.zeros(self.N_X), np.linalg.norm(z.y))
        start = secant.predict(z, X, Y)
        assert X.contains(start.x) and Y.contains(start.y)
        free = secant.predict(z, Ball(np.zeros(self.N_X), 1e9),
                              Ball(np.zeros(self.N_X), 1e9))
        assert np.linalg.norm(free.x) > X.radius  # the projection acted
        assert np.linalg.norm(free.y) > Y.radius

    def test_singular_gram_gives_no_prediction(self):
        a, b, z0 = self.affine_contraction()
        secant, zs = affine_window(a, b, z0, SECANT_DEPTH)
        secant.record(zs[-1], zs[-1])  # a zero difference, then in U
        big = Ball(np.zeros(self.N_X), 1e3)
        for k in range(SECANT_DEPTH + 1):
            zs.append(a * zs[-1] + b)
            secant.record(zs[-2], zs[-1])
            start = secant.predict(JointPoint.split(zs[-1], self.N_X),
                                   big, big)
            # the zero difference leaves the window at the last record
            assert (start is None) == (k < SECANT_DEPTH)

    def test_singular_window_starts_at_the_center(self):
        # matching pennies' reduced game sits at its equilibrium from the
        # start: every outer difference is 0, so no solve starts elsewhere
        _, _, rep = solve_monotone(matching_pennies(), 1e-3)
        assert rep.iterations > SECANT_DEPTH + 1
        assert rep.extras["secant_starts"] == 0

    def test_every_step_after_a_full_window_starts_at_a_prediction(self):
        game = quad_game(seed=1, n_x=20, n_y=20, mu=0.05, nu=0.05,
                         delta=0.01, coupling_norm=1.0)
        rep = solve_icl(game, 1e-7)
        assert rep.iterations > SECANT_DEPTH + 1
        assert rep.extras["secant_starts"] == rep.iterations - SECANT_DEPTH - 1


class TestSolveMonotone:
    def test_matching_pennies(self):
        game = matching_pennies()
        eps = 1e-3
        point, bound, rep = solve_monotone(game, eps)
        assert bound <= eps
        gain = deviation_gain(game, point)
        assert gain.value + gain.residual <= eps
        # reduction moduli match the curvature-shift formulas exactly
        DX2 = game.X.diameter() ** 2
        DY2 = game.Y.diameter() ** 2
        assert rep.extras["reduced_mu"] == min(eps / (2 * DX2), game.L)
        assert rep.extras["reduced_nu"] == min(eps / (2 * DY2), game.L)

    def test_matching_pennies_without_structure(self):
        game = without_structure(matching_pennies())
        eps = 1e-3
        point, bound, rep = solve_monotone(game, eps)
        assert rep.status == "converged"
        assert bound <= eps
        gain = deviation_gain(game, point)
        assert gain.value + gain.residual <= eps

    def test_player_with_one_strategy(self):
        # the column player's simplex is a single point (diameter 0), so
        # its added curvature is the cap L/2
        game = fee_game(SparseMatrix.from_dense(np.array([[1.0, -1.0]])),
                        0.0, 0.0, 0.0).game_spec()
        assert game.Y.diameter() == 0
        eps = 1e-3
        point, bound, rep = solve_monotone(game, eps)
        assert rep.status == "converged"
        assert bound <= eps
        gain = deviation_gain(game, point)
        assert gain.value + gain.residual <= eps

    def test_single_point_game(self):
        game = fee_game(SparseMatrix.from_dense(np.array([[1.0]])),
                        0.0, 0.0, 0.0).game_spec()
        point, bound, rep = solve_monotone(game, 1e-3)
        assert rep.status == "converged" and bound == 0.0
        assert rep.certified_sq_distance == 0.0
        assert point.x.tolist() == [1.0] and point.y.tolist() == [1.0]

    @pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1e-3])
    def test_rejects_eps_that_is_not_positive_and_finite(self, eps):
        with pytest.raises(ValueError, match="positive and finite"):
            solve_monotone(matching_pennies(), eps)

    def test_already_strongly_monotone_game(self):
        # adding curvature to a game that is already strongly monotone only
        # tightens it; the returned point keeps the approximation guarantee
        game, _, _ = linear_coupling_pair(seed=15)
        eps = 1e-3
        point, bound, _ = solve_monotone(game, eps)
        assert bound <= eps
        gain = deviation_gain(game, point)
        assert gain.value + gain.residual <= eps
