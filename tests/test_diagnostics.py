import numpy as np
import pytest

from nzs.diagnostics import deviation_gain, gap_report, potential_gap
from nzs.games import JointPoint
from nzs.icl import solve_icl
from nzs.instances import (fee_game, gen_quadratic_known_ne, matching_pennies,
                           stackelberg_demo, stackelberg_example,
                           stackelberg_reference_points)
from nzs.vecmat import SparseMatrix


FEE_M = np.array([[0.8, -0.5], [-0.3, 0.6]])


def small_fee_game(rho=0.02, mu=0.6, nu=0.9):
    return fee_game(SparseMatrix.from_dense(FEE_M), rho, mu, nu)


def small_fee_spec(rho=0.02, mu=0.6, nu=0.9):
    return small_fee_game(rho, mu, nu).game_spec()


def grid_potential_gap(mg, z, steps=1000):
    """Independent brute-force maximization of the potential objective on
    2x2 simplices, written directly against the dense payoff matrices."""
    A = mg.A.to_dense()
    B = mg.B.to_dense()
    mu, nu = mg.reg_mu, mg.reg_nu
    x, y = z.x, z.y

    def u1(xx, yy):
        return yy @ A @ xx - mu / 2 * (xx @ xx) + nu / 2 * (yy @ yy)

    def u2(xx, yy):
        return yy @ B @ xx + mu / 2 * (xx @ xx) - nu / 2 * (yy @ yy)

    def g(xx, yy):
        return -0.5 * (u1(xx, yy) + u2(xx, yy))

    def h(xx, yy):
        return 0.5 * (-u1(xx, yy) + u2(xx, yy))

    ts = np.linspace(0.0, 1.0, steps + 1)
    grid = np.stack([ts, 1 - ts], axis=1)
    g_at_z = g(x, y)
    C = 0.5 * (A + B)
    # g(xt, yt) = -yt' C xt (regularizer cancels in the average)
    g_grid = -(grid @ C) @ grid.T            # [s, t] = -yt[s]' C xt[t]
    h_x_fixed = np.array([h(x, b) for b in grid])      # over yt
    h_y_fixed = np.array([h(a, y) for a in grid])      # over xt
    vals = g_at_z - g_grid + h_x_fixed[:, None] - h_y_fixed[None, :]
    return float(vals.max())


class TestPotentialGap:
    def test_vanishes_at_known_equilibrium(self):
        game = gen_quadratic_known_ne(4, 3, 0.8, 1.1, 0.3, 0.7, seed=0)
        est = potential_gap(game, game.known_ne)
        assert est.value + est.residual <= 1e-8

    def test_nonnegative_everywhere(self):
        game = small_fee_spec()
        rng = np.random.default_rng(0)
        for _ in range(200):
            z = JointPoint(game.X.project(rng.standard_normal(2) * 2),
                           game.Y.project(rng.standard_normal(2) * 2))
            est = potential_gap(game, z, inner_budget=50)
            assert est.value >= -1e-9

    def test_matches_grid_oracle(self):
        mg = small_fee_game()
        game = mg.game_spec()
        z = JointPoint(np.array([0.25, 0.75]), np.array([0.6, 0.4]))
        est = potential_gap(game, z, inner_budget=2000)
        ref = grid_potential_gap(mg, z)
        assert est.value == pytest.approx(ref, abs=1e-3)
        assert est.value <= ref + 1e-6  # lower bound up to grid resolution


class TestDeviationGain:
    def test_vanishes_at_known_equilibrium(self):
        game = gen_quadratic_known_ne(4, 3, 0.8, 1.1, 0.3, 0.7, seed=1)
        est = deviation_gain(game, game.known_ne)
        assert est.value + est.residual <= 1e-8

    def test_matching_pennies_center_is_exact_zero(self):
        game = matching_pennies()
        est = deviation_gain(game, game.known_ne)
        assert est.residual == 0.0  # closed-form responses
        assert est.value <= 1e-12

    def test_dominated_by_twice_potential_gap(self):
        game = small_fee_spec()
        rng = np.random.default_rng(2)
        for _ in range(100):
            z = JointPoint(game.X.project(rng.standard_normal(2) * 2),
                           game.Y.project(rng.standard_normal(2) * 2))
            pg = potential_gap(game, z, inner_budget=800)
            dg = deviation_gain(game, z)
            assert 2 * (pg.value + pg.residual) >= dg.value - 1e-6

    def test_positive_off_equilibrium(self):
        game = small_fee_spec()
        z = JointPoint(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        dg = deviation_gain(game, z)
        pg = potential_gap(game, z)
        assert dg.value > 1e-3
        assert pg.value > 1e-4

    def test_gap_report_bundle(self):
        game = small_fee_spec()
        rep = gap_report(game, JointPoint(np.array([0.5, 0.5]),
                                          np.array([0.5, 0.5])))
        assert rep.method == "exact-lmo"
        assert rep.delta_value >= -1e-9
        assert 2 * (rep.delta_value + rep.delta_residual) >= \
            rep.deviation_gain - 1e-6


class TestValueOracleRequirement:
    def test_missing_values_rejected(self):
        game = gen_quadratic_known_ne(3, 3, 1.0, 1.0, 0.2, 0.5, seed=2)
        game.u1 = None
        with pytest.raises(ValueError):
            potential_gap(game, game.known_ne)
        with pytest.raises(ValueError):
            deviation_gain(game, game.known_ne)


class TestBestResponseDemo:
    def test_converges_to_leader_follower_point(self):
        nash, stack = stackelberg_reference_points()
        limit = stackelberg_demo()
        assert limit.distance_to(stack) <= 1e-6

    def test_limit_differs_from_equilibrium(self):
        nash, _ = stackelberg_reference_points()
        limit = stackelberg_demo()
        assert limit.distance_to(nash) >= 1e-2

    def test_simultaneous_solver_finds_equilibrium_instead(self):
        game = stackelberg_example()
        nash, stack = stackelberg_reference_points()
        rep = solve_icl(game, 2.5e-13)
        assert rep.point.distance_to(nash) <= 1e-6
        assert rep.point.distance_to(stack) >= 1e-2
