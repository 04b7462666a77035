"""Equilibrium diagnostics.

The potential gap of a point z = (x, y) is

    max over (xt, yt) of  g(z) - g(xt, yt) + h(x, yt) - h(xt, y),

a nonnegative quantity that vanishes exactly at equilibria of monotone
games and upper-bounds half the total unilateral deviation gain. Both
quantities are estimated by projected ascent with a linear-minimization
residual certifying the remaining suboptimality; deviation gains use
exact closed forms when the game carries best-response oracles.
"""

from dataclasses import dataclass

import numpy as np

from .games import JointPoint, grad_g
from .instances import stackelberg_example, stackelberg_reference_points


@dataclass
class GapEstimate:
    value: float        # certified lower bound on the maximum
    residual: float     # linear-minimization optimality residual (>= 0)

    def upper(self):
        return self.value + self.residual


@dataclass
class GapReport:
    delta_value: float
    delta_residual: float
    deviation_gain: float
    deviation_residual: float
    method: str


def _ascend(value_fn, grad_fn, S, w0, step, budget):
    """Projected gradient ascent of a concave function over S.

    Returns (best_point, best_value, residual) where residual is the
    final-point linear-maximization gap max_w <grad, w - w_best>.
    """
    w = np.array(w0, dtype=np.float64)
    best_w, best_v = w.copy(), value_fn(w)
    for _ in range(budget):
        g = grad_fn(w)
        w = S.project(w + step * g)
        v = value_fn(w)
        if v > best_v:
            best_v, best_w = v, w.copy()
    g = grad_fn(best_w)
    residual = float(g @ S.lmo(-g) - g @ best_w)
    return best_w, float(best_v), max(residual, 0.0)


def potential_gap(game, z, inner_budget=500):
    """Certified lower bound (plus residual) on the potential gap at z.

    Maximizes the concave objective
    psi(xt, yt) = g(z) - g(xt, yt) + h(x, yt) - h(xt, y) over the joint
    feasible set by projected ascent started at z itself, so the returned
    lower bound is never below zero up to rounding.
    """
    if game.u1 is None or game.u2 is None:
        raise ValueError("potential gap needs value oracles u1 and u2")
    x, y = z.x, z.y
    g_at_z = game.g_value(x, y)
    nx = game.X.dimension
    Z = game.joint_set()

    def psi(w):
        xt, yt = w[:nx], w[nx:]
        return (g_at_z - game.g_value(xt, yt)
                + game.h_value(x, yt) - game.h_value(xt, y))

    def psi_grad(w):
        xt, yt = w[:nx], w[nx:]
        # d/dxt: -grad_x g(xt, yt) - grad_x h(xt, y)
        # d/dyt: -grad_y g(xt, yt) + grad_y h(x, yt)
        g = grad_g(game, JointPoint(xt, yt))
        h_x = 0.5 * (-game.grad_u1_x(xt, y) + game.grad_u2_x(xt, y))
        h_y = 0.5 * (-game.grad_u1_y(x, yt) + game.grad_u2_y(x, yt))
        return np.concatenate([-g.x - h_x, -g.y + h_y])

    step = 1.0 / (2.0 * game.L)
    _, best, residual = _ascend(psi, psi_grad, Z, z.concat(), step,
                                inner_budget)
    return GapEstimate(best, residual)


def _deviation(value, grad, best_response, S, w, other, step, budget):
    """(gain, residual) of the best deviation from w over S of one player
    whose utility in its own strategy is value, the opponent playing
    other."""
    base = value(w)
    if best_response is not None:
        return value(best_response(other)) - base, 0.0
    _, best, residual = _ascend(value, grad, S, w, step, budget)
    return best - base, residual


def deviation_gain(game, z, inner_budget=500):
    """Maximum total unilateral improvement at z.

    Exact (residual zero) when the game carries best-response oracles;
    otherwise estimated by projected ascent with a linear-minimization
    residual.
    """
    if game.u1 is None or game.u2 is None:
        raise ValueError("deviation gain needs value oracles u1 and u2")
    x, y = z.x, z.y
    step = 1.0 / (2.0 * game.L)
    gain_x, res_x = _deviation(
        lambda w: game.u1(w, y), lambda w: game.grad_u1_x(w, y),
        game.best_response_x, game.X, x, y, step, inner_budget)
    gain_y, res_y = _deviation(
        lambda w: game.u2(x, w), lambda w: game.grad_u2_y(x, w),
        game.best_response_y, game.Y, y, x, step, inner_budget)
    return GapEstimate(float(max(gain_x, 0.0) + max(gain_y, 0.0)),
                       res_x + res_y)


def gap_report(game, z, inner_budget=500):
    pg = potential_gap(game, z, inner_budget)
    dg = deviation_gain(game, z, inner_budget)
    method = ("exact-lmo" if (game.best_response_x is not None
                              and game.best_response_y is not None)
              else "projected-ascent")
    return GapReport(pg.value, pg.residual, dg.value, dg.residual, method)


def stackelberg_demo(tol=1e-10, max_iter=200000):
    """Best-response dynamic on the closed-form two-by-one example.

    The second player's best response has the closed form
    y(x) = clip(x2/4 - 1, [-1, 0]); minimizing f(x) = -u1(x, y(x)) by
    projected gradient converges to the leader-follower point, which is
    not the equilibrium of the simultaneous game.
    """
    game = stackelberg_example()
    X = game.X

    def y_of_x(x):
        return np.clip(x[1] / 4.0 - 1.0, -1.0, 0.0)

    def f_grad(x):
        yv = y_of_x(x)
        interior = -1.0 < yv < 0.0
        # f(x) = (x1-1)^2/2 + (x2-1)^2/2 - x1 y(x) / 2
        g1 = (x[0] - 1.0) - 0.5 * yv
        g2 = (x[1] - 1.0)
        if interior:
            g2 += -0.5 * x[0] * 0.25  # chain rule through the follower
        return np.array([g1, g2])

    x = X.canonical_point()
    step = 0.5
    for _ in range(max_iter):
        x_new = X.project(x - step * f_grad(x))
        if np.linalg.norm(x_new - x) <= tol * step:
            x = x_new
            break
        x = x_new
    return JointPoint(x, np.array([y_of_x(x)]))


__all__ = ["GapEstimate", "GapReport", "potential_gap", "deviation_gain",
           "gap_report", "stackelberg_demo", "stackelberg_reference_points"]
