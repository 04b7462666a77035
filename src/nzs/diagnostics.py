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

from .games import JointPoint, grad_g, operator_H
from .sets import ProductSet


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
        w = w + step * g
        S.project(w, w)
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
    Z = ProductSet([game.X, game.Y])

    def psi(w):
        xt, yt = w[:nx], w[nx:]
        return (g_at_z - game.g_value(xt, yt)
                + game.h_value(x, yt) - game.h_value(xt, y))

    def psi_grad(w):
        xt, yt = w[:nx], w[nx:]
        # d/dxt: -grad_x g(xt, yt) - grad_x h(xt, y)
        # d/dyt: -grad_y g(xt, yt) + grad_y h(x, yt)
        # where operator_H is (grad_x h, -grad_y h)
        g = grad_g(game, JointPoint(xt, yt))
        h_x = operator_H(game, JointPoint(xt, y)).x
        h_y = operator_H(game, JointPoint(x, yt)).y
        return np.concatenate([-g.x - h_x, -g.y - h_y])

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
    nx = x.shape[0]
    step = 1.0 / (2.0 * game.L)
    gain_x, res_x = _deviation(
        lambda w: game.u1(w, y),
        lambda w: -game.F(np.concatenate([w, y]))[:nx],  # grad_x u1
        game.best_response_x, game.X, x, y, step, inner_budget)
    gain_y, res_y = _deviation(
        lambda w: game.u2(x, w),
        lambda w: -game.F(np.concatenate([x, w]))[nx:],  # grad_y u2
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


__all__ = ["GapEstimate", "GapReport", "potential_gap", "deviation_gain",
           "gap_report"]
