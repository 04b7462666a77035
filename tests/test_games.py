import dataclasses

import numpy as np
import pytest

from nzs.games import (BilinearSaddleForm, GameSpec, JointPoint, QueryLedger,
                       grad_g, operator_H)
from nzs.instances import (MatrixGame, apply_transaction_fee, fee_game,
                           gen_quadratic_known_ne, reformulate_bilinear,
                           stackelberg_example)
from nzs.sets import Ball
from nzs.solvers import JointProblem
from nzs.vecmat import SparseMatrix


def central_difference(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def fee_example_game(reg_mu=0.0, reg_nu=0.0):
    M = SparseMatrix.from_dense(np.array([[300.0, -200.0], [-100.0, 400.0]]))
    A, B = apply_transaction_fee(M, 0.01)
    return MatrixGame(A, B, reg_mu, reg_nu).game_spec()


def zero_sum_quadratic(seed=0, mu=1.0, nu=1.0):
    return gen_quadratic_known_ne(6, 5, mu, nu, delta=0.0, coupling_norm=1.0,
                                  seed=seed)


class TestDecomposition:
    def test_zero_sum_coupling_gradient_vanishes(self):
        game = zero_sum_quadratic()
        rng = np.random.default_rng(0)
        for _ in range(10):
            z = JointPoint(game.X.project(rng.standard_normal(6)),
                           game.Y.project(rng.standard_normal(5)))
            g = grad_g(game, z)
            assert np.max(np.abs(g.x)) <= 1e-12
            assert np.max(np.abs(g.y)) <= 1e-12

    def test_grad_g_is_one_coupling_gradient_query(self):
        queried = []

        def oracle(z):
            queried.append(z.copy())
            return 2.0 * z

        game = dataclasses.replace(zero_sum_quadratic(), coupling_grad=oracle)
        z = JointPoint(np.arange(6.0), -np.arange(5.0))
        g = grad_g(game, z)
        assert len(queried) == 1
        assert np.array_equal(queried[0], z.concat())
        assert np.array_equal(g.x, 2.0 * z.x)
        assert np.array_equal(g.y, 2.0 * z.y)

    def test_fee_example_hand_values(self):
        game = fee_example_game()
        z = JointPoint(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        g = grad_g(game, z)
        # -(A'+B')y/2 and -(A+B)x/2 for the 2x2 post-fee matrices
        assert np.allclose(g.x, [1.5, 1.0], atol=1e-12)
        assert np.allclose(g.y, [1.5, 0.5], atol=1e-12)

    def test_coupling_gradient_matches_finite_differences(self):
        game = gen_quadratic_known_ne(4, 3, 0.8, 1.2, delta=0.5,
                                      coupling_norm=0.9, seed=3)
        rng = np.random.default_rng(1)
        z = JointPoint(game.X.project(rng.standard_normal(4)),
                       game.Y.project(rng.standard_normal(3)))
        got = grad_g(game, z)

        def g_of_x(x):
            return game.g_value(x, z.y)

        def g_of_y(y):
            return game.g_value(z.x, y)

        ref_x = central_difference(g_of_x, z.x)
        ref_y = central_difference(g_of_y, z.y)
        assert np.max(np.abs(got.x - ref_x)) <= 1e-5 * max(1, np.max(np.abs(ref_x)))
        assert np.max(np.abs(got.y - ref_y)) <= 1e-5 * max(1, np.max(np.abs(ref_y)))

    def test_bilinear_competitive_operator(self):
        # h(x, y) = <K x, y>: operator is (K'y, -Kx)
        K = np.array([[1.0, -2.0], [0.5, 3.0]])
        game = GameSpec.from_partials(
            lambda x, y: -K.T @ y,
            lambda x, y: -K @ x,
            lambda x, y: K.T @ y,
            lambda x, y: K @ x,
            L=4.0, mu=0.0, nu=0.0, delta=0.0,
            X=Ball(np.zeros(2), 3.0), Y=Ball(np.zeros(2), 3.0))
        z = JointPoint(np.array([1.0, 2.0]), np.array([-1.0, 0.5]))
        H = operator_H(game, z)
        assert np.allclose(H.x, K.T @ z.y)
        assert np.allclose(H.y, -K @ z.x)

    def test_operator_equals_sum_of_parts(self):
        game = gen_quadratic_known_ne(5, 4, 0.6, 0.9, delta=0.3,
                                      coupling_norm=0.7, seed=9)
        rng = np.random.default_rng(2)
        for _ in range(100):
            z = JointPoint(game.X.project(rng.standard_normal(5) * 2),
                           game.Y.project(rng.standard_normal(4) * 2))
            F = JointPoint.split(game.F(z.concat()), 5)
            g = grad_g(game, z)
            H = operator_H(game, z)
            assert np.max(np.abs(F.x - g.x - H.x)) <= 1e-12
            assert np.max(np.abs(F.y - g.y - H.y)) <= 1e-12

    def test_zero_sum_game_operator_is_competitive_operator(self):
        game = zero_sum_quadratic(seed=5)
        rng = np.random.default_rng(3)
        z = JointPoint(game.X.project(rng.standard_normal(6)),
                       game.Y.project(rng.standard_normal(5)))
        F = JointPoint.split(game.F(z.concat()), 6)
        H = operator_H(game, z)
        assert np.allclose(F.x, H.x, atol=1e-12)
        assert np.allclose(F.y, H.y, atol=1e-12)

    def test_utility_gradients_recovered_from_parts(self):
        # grad u1 = -grad g - (grad_x h, grad_y h), against central
        # differences of the value oracle u1
        game = gen_quadratic_known_ne(4, 4, 0.5, 0.8, delta=0.4,
                                      coupling_norm=0.6, seed=11)
        rng = np.random.default_rng(4)
        z = JointPoint(game.X.project(rng.standard_normal(4)),
                       game.Y.project(rng.standard_normal(4)))
        g = grad_g(game, z)
        H = operator_H(game, z)  # (grad_x h, -grad_y h)
        u1x = central_difference(lambda x: game.u1(x, z.y), z.x)
        u1y = central_difference(lambda y: game.u1(z.x, y), z.y)
        assert np.max(np.abs(u1x - (-g.x - H.x))) <= 1e-7
        assert np.max(np.abs(u1y - (-g.y + H.y))) <= 1e-7


def partials_game():
    """A from_partials game with linear coupling and h = <K x, y> +
    |x|^2/2 - |y|^2/2."""
    K = np.array([[1.0, -0.5, 0.25], [0.5, 2.0, -1.0]])
    a, b = np.array([0.3, -0.2, 0.1]), np.array([-0.1, 0.4])

    def h(x, y):
        return float(y @ (K @ x) + 0.5 * (x @ x) - 0.5 * (y @ y))

    return GameSpec.from_partials(
        lambda x, y: a - (K.T @ y + x), lambda x, y: b - (K @ x - y),
        lambda x, y: a + K.T @ y + x, lambda x, y: b + K @ x - y,
        L=4.0, mu=1.0, nu=1.0, delta=0.0,
        X=Ball(np.zeros(3), 2.0), Y=Ball(np.zeros(2), 2.0),
        u1=lambda x, y: float(a @ x + b @ y) - h(x, y),
        u2=lambda x, y: float(a @ x + b @ y) + h(x, y))


def split_case(name):
    M = SparseMatrix.from_dense(np.array([[0.6, -0.4, 0.0, 0.3],
                                          [-0.2, 0.0, 0.8, -0.5],
                                          [0.1, 0.7, -0.3, 0.0]]))
    fee = fee_game(M, 0.3, 1.0, 1.2)
    return {"fee": fee.game_spec,
            "bilinear": lambda: reformulate_bilinear(fee, fee.coupling_norm()),
            "quadratic": lambda: gen_quadratic_known_ne(
                5, 4, 0.6, 0.9, delta=0.3, coupling_norm=0.7, seed=9),
            "stackelberg": stackelberg_example,
            "partials": partials_game}[name]()


class TestSplit:
    """The paper's split F = grad g + H on every family, before and after
    a curvature shift: operator_H + grad_g is F to rounding, and
    operator_H is (grad_x h, -grad_y h) of the value oracles."""

    @pytest.mark.parametrize("shift", [False, True])
    @pytest.mark.parametrize("name", ["fee", "bilinear", "quadratic",
                                      "stackelberg", "partials"])
    def test_parts_sum_to_the_operator(self, name, shift):
        game = split_case(name)
        if shift:
            game = game.shift_curvature(u1_x=-0.1, u1_y=0.2, u2_x=0.3,
                                        u2_y=-0.05)
        nx, ny = game.X.dimension, game.Y.dimension
        rng = np.random.default_rng(8)
        for _ in range(5):
            z = JointPoint(game.X.project(rng.standard_normal(nx)),
                           game.Y.project(rng.standard_normal(ny)))
            F = game.F(z.concat())
            g, H = grad_g(game, z), operator_H(game, z)
            scale = max(1.0, np.abs(F).max(), np.abs(g.concat()).max())
            assert np.abs(H.concat() + g.concat() - F).max() <= 1e-12 * scale
            h_x = central_difference(lambda x: game.h_value(x, z.y), z.x)
            h_y = central_difference(lambda y: game.h_value(z.x, y), z.y)
            assert np.abs(H.x - h_x).max() <= 1e-7 * scale
            assert np.abs(H.y + h_y).max() <= 1e-7 * scale


class TestDenseBilinearForm:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (7, 13),
                                       (13, 7), (33, 2), (64, 64),
                                       (200, 199), (200, 200)])
    def test_products_match_matmul(self, shape):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        W = rng.standard_normal(shape)
        form = BilinearSaddleForm(W)
        for _ in range(5):
            x, y = rng.standard_normal(shape[1]), rng.standard_normal(shape[0])
            assert np.array_equal(form.matvec(x), np.matmul(W, x))
            assert np.array_equal(form.rmatvec(y), np.matmul(W.T, y))


class TestLedger:
    def test_counters_increment(self):
        game = zero_sum_quadratic()
        led = QueryLedger()
        z = game.known_ne
        prob = JointProblem(game, led)
        prob.F(z.concat())
        prob.F(z.concat())
        operator_H(game, z, led)
        grad_g(game, z, led)
        assert (led.f_queries, led.h_queries, led.g_queries) == (2, 1, 1)
        assert led.main_queries() == 3

    def test_known_ne_must_be_feasible(self):
        with pytest.raises(ValueError):
            GameSpec.from_partials(
                lambda x, y: x, lambda x, y: y, lambda x, y: x, lambda x, y: y,
                L=1.0, mu=0.5, nu=0.5, delta=0.0,
                X=Ball(np.zeros(2), 1.0), Y=Ball(np.zeros(2), 1.0),
                known_ne=JointPoint(np.array([5.0, 0.0]), np.zeros(2)))


class TestShiftCurvature:
    def test_value_oracles_gain_the_squares(self):
        game = gen_quadratic_known_ne(4, 3, 0.8, 1.2, delta=0.5,
                                      coupling_norm=0.9, seed=3)
        shifted = game.shift_curvature(u1_x=0.1, u2_y=-0.2)
        rng = np.random.default_rng(2)
        for _ in range(5):
            x, y = rng.standard_normal(4), rng.standard_normal(3)
            assert shifted.u1(x, y) == game.u1(x, y) + 0.1 * float(x @ x)
            assert shifted.u2(x, y) == game.u2(x, y) - 0.2 * float(y @ y)
        # a utility with no added term keeps its oracle
        assert game.shift_curvature(u1_x=0.1).u2 is game.u2


class TestProbeStructure:
    """Declared structure constants against the exact values of the
    affine operators' Jacobians (conftest.affine_structure)."""

    def test_strongly_monotone_zero_sum(self, structure):
        game = zero_sum_quadratic(seed=7, mu=1.0, nu=1.0)
        monotonicity, _, _ = structure(game)
        assert monotonicity >= 1.0 - 1e-9

    def test_linear_coupling_has_zero_smoothness_estimate(self, structure):
        # g(x, y) = <a, x> + <b, y> linear, h = (|x|^2 - |y|^2)/2:
        # the coupling gradient is constant, so its Jacobian is zero
        a = np.array([0.3, -0.2])
        b = np.array([-0.1, 0.4])

        game = GameSpec.from_partials(
            lambda x, y: -a - x,
            lambda x, y: -b + y,
            lambda x, y: -a + x,
            lambda x, y: -b - y,
            L=2.0, mu=1.0, nu=1.0, delta=0.0,
            X=Ball(np.zeros(2), 2.0), Y=Ball(np.zeros(2), 2.0))
        _, _, coupling_smoothness = structure(game)
        assert coupling_smoothness <= 1e-12

    def test_generated_instances_match_declared_constants(self, structure):
        for seed in range(5):
            game = gen_quadratic_known_ne(6, 4, 0.4, 1.1, delta=0.6,
                                          coupling_norm=10.0 ** (seed - 3),
                                          seed=seed)
            monotonicity, convexity, smoothness = structure(game)
            assert monotonicity >= min(game.mu, game.nu) - 1e-9
            assert smoothness <= game.delta + 1e-9
            assert convexity >= -1e-9
