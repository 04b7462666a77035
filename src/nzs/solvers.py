"""Saddle and variational-inequality solvers.

Whole-game baselines (extragradient and optimistic gradient), the
displacement-based stopping certificate, approximate-equilibrium
extraction, and a primal-dual inner solver for bilinear subproblems with
strongly convex separable parts.

Every solver is a kernel step run by one step-and-poll loop, ``drive``,
and takes its stopping certificate as one callable of the concatenated
iterate z = (x, y); ``game_certificate`` builds the whole-game one.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .games import BilinearSaddleForm, JointPoint, QueryLedger

# the fewest steps between two polls of a solve's stop_check, and of its
# certificate
CHECK_PERIOD = 4
CERTIFICATE_PERIOD = 8
RATE_CONFIRMED = 0.1  # the share of a Pending's rate a measured decay may miss

# PDLP's restart rule and primal weight update (Applegate et al., NeurIPS
# 2021), which restart_pdhg runs: an epoch ends once its residual falls to
# RESTART_SUFFICIENT of its first, or to RESTART_NECESSARY and rises, or
# once it is RESTART_ARTIFICIAL of all steps; the log primal weight then
# moves WEIGHT_SMOOTHING of the way to the log ratio of the epoch's moves
RESTART_SUFFICIENT = 0.2
RESTART_NECESSARY = 0.8
RESTART_ARTIFICIAL = 0.36
WEIGHT_SMOOTHING = 0.5


class StructureError(RuntimeError):
    """Raised when a solver is handed a problem without the structure it
    needs; the message names the generic fallback."""


@dataclass
class SolverConfig:
    """Stop once the certificate is at most epsilon (0 < epsilon < inf);
    polls of it come on drive's schedule, period CERTIFICATE_PERIOD."""

    epsilon: float
    max_iter: int = 5_000_000

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")


@dataclass
class SolveReport:
    point: JointPoint
    ledger: QueryLedger
    iterations: int
    certified_sq_distance: float = None
    residual_history: list = field(default_factory=list)
    status: str = "converged"
    extras: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# the concatenated iterate, the extragradient step and the certificate
# ---------------------------------------------------------------------------

class OperatorProblem:
    """Concatenated-iterate view z = (x, y) over X x Y of a saddle operator
    (x, y, ledger, bucket) -> (gx, gy), such as SaddleSubproblem.operator,
    which does its own ledgering; L is its Lipschitz bound, needed only
    for certificates. A fresh ledger is made when none is given.

    F(z, bucket) returns the operator at z in a fresh array.
    """

    def __init__(self, operator, X, Y, ledger=None, L=None):
        self.operator = operator
        self.X, self.Y = X, Y
        self.ledger = QueryLedger() if ledger is None else ledger
        self.L = L
        self.nx = X.dimension

    def F(self, z, bucket="h"):
        return np.concatenate(self.operator(z[:self.nx], z[self.nx:],
                                            self.ledger, bucket))

    def step(self, z, gamma, d):
        """P(z - gamma d), computed and projected in d's buffer, which is
        returned; d must not escape."""
        d *= gamma
        np.subtract(z, d, out=d)
        x, y = d[:self.nx], d[self.nx:]
        self.X.project(x, x)
        self.Y.project(y, y)
        return d

    def extragradient(self, z, gamma, bucket):
        """P(z - gamma F(P(z - gamma F(z)))), both queries ledgered in
        bucket."""
        zh = self.step(z, gamma, self.F(z, bucket))
        return self.step(z, gamma, self.F(zh, bucket))


class JointProblem(OperatorProblem):
    """The same view of a game's operator game.F, with L = game.L; F
    ledgers the query as f, or as cert for any other bucket."""

    def __init__(self, game, ledger=None):
        super().__init__(None, game.X, game.Y, ledger, game.L)
        self.game = game

    def F(self, z, bucket="f"):
        out = self.game.F(z)
        if bucket == "f":
            self.ledger.f_queries += 1
        else:
            self.ledger.cert_queries += 1
        return out


def certificate_coefficient(mu_min, gamma):
    t = mu_min * gamma
    return 4.0 / t ** 2 - 2.0 / t + 16.0


def displacement_certificate(prob, z, gamma, mu_min):
    """Computable upper bound on |z - z*|^2 when prob's operator is
    mu_min-strongly monotone.

    Takes one extragradient displacement from the concatenated iterate z at
    stepsize gamma <= 1/(2 prob.L), both queries ledgered as cert, and
    returns (4/(mu g)^2 - 2/(mu g) + 16) |z_plus - z|^2.
    """
    if mu_min <= 0:
        raise ValueError("certificate undefined for mu_min = 0")
    if not 0 < gamma <= 1.0 / (2 * prob.L) * (1 + 1e-12):
        raise ValueError("certificate requires 0 < gamma <= 1/(2L)")
    d = prob.extragradient(z, gamma, "cert")
    d -= z
    return certificate_coefficient(mu_min, gamma) * float(d @ d)


def game_certificate(game, ledger):
    """The whole-game certificate as a callable of the concatenated
    iterate: displacement_certificate at stepsize 1/(2 game.L) and modulus
    game.monotone_modulus, queries ledgered as cert; None when that
    modulus is 0."""
    mu_min = game.monotone_modulus
    if mu_min <= 0:
        return None
    prob = JointProblem(game, ledger)
    return lambda z: displacement_certificate(prob, z, 1.0 / (2 * game.L),
                                              mu_min)


class Pending(NamedTuple):
    """A stop_check's "go on": value has yet to reach target and falls by
    a factor of about exp(rate) per step."""
    value: float
    target: float
    rate: float


def decay(polls):  # rate per step between the last two (step, value) polls
    (i0, v0), (i1, v1) = ([(-1, math.inf)] * 2 + polls)[-2:]
    return math.log(v0 / v1) / (i1 - i0) if 0 < v1 < v0 else 0.0


def next_poll(it, pending, floor, measured=0.0):
    """Step of the poll after a failed one at step it: the steps pending
    (or None) predicts are left, all of them once the measured decay rate
    is within RATE_CONFIRMED of pending's, else half; at least floor."""
    value, target, rate = pending or (0.0, 0.0, 0.0)
    wait = 0.0
    if rate > 0 and 0 < target < value < math.inf:
        share = 1.0 if abs(measured - rate) <= RATE_CONFIRMED * rate else 0.5
        wait = share * (math.log(value) - math.log(target)) / rate
    return it + max(floor, int(wait))


def drive(step, point, ledger, max_iter, certificate, target, period,
          stop_check=None):
    """The step-and-poll loop of every solver: up to max_iter calls of
    step(). stop_check(), if given, is polled before the first step; a
    result other than None or a Pending stops the run as
    extras["accepted"], else the next poll is due at next_poll, floor
    CHECK_PERIOD, measured by the decay of the last two Pendings' values.
    certificate(), if given, is polled after step period into
    residual_history as (steps, value); a value at most target stops the
    run, else the next poll is due at next_poll, floor period, at the
    decay rate between the last two polls (inf after a lone one: the next
    is period on), and at most max_iter: a run that uses up max_iter polls
    its last point, so the report's certificate is always of point().
    Returns the SolveReport of point() with the last certificate,
    "converged" if a poll stopped the run, else "max_iter".
    """
    history, pending = [], []
    status, extras = "max_iter", {}
    it, check_at, cert_at = 0, 0, min(period, max_iter)
    while True:
        if certificate is not None and it == cert_at:
            history.append((it, certificate()))
            if history[-1][1] <= target:
                status = "converged"
                break
            cert_at = min(next_poll(it, Pending(history[-1][1], target,
                                                decay(history)), period),
                          max_iter)
        if it >= max_iter:
            break
        if stop_check is not None and it == check_at:
            result = stop_check()
            if result is not None and not isinstance(result, Pending):
                status, extras = "converged", {"accepted": result}
                break
            if result is not None:
                pending.append((it, result.value))
            check_at = next_poll(it, result, CHECK_PERIOD, decay(pending))
        step()
        it += 1
    return SolveReport(point(), ledger, it,
                       history[-1][1] if history else None, history, status,
                       extras)


def extract_approx_ne(game, z_bar, gamma, dist=None, ledger=None):
    """One projected best-response-direction step per player.

    Returns ((x_hat, y_hat), bound) where bound = (2/gamma) D |dist| is a
    unilateral-deviation-gain bound valid when dist >= |z_bar - z*|; bound
    is None when dist is not supplied. Requires gamma <= 1/(sqrt(2) L).
    """
    if not 0 < gamma <= 1.0 / (np.sqrt(2) * game.L) * (1 + 1e-12):
        raise ValueError("extraction requires 0 < gamma <= 1/(sqrt(2) L)")
    prob = JointProblem(game, ledger)
    z = z_bar.concat()
    point = JointPoint.split(prob.step(z, gamma, prob.F(z)), prob.nx)
    bound = None
    if dist is not None:
        bound = (2.0 / gamma) * np.sqrt(game.diameter_sq()) * float(dist)
    return point, bound


# ---------------------------------------------------------------------------
# whole-game baselines
# ---------------------------------------------------------------------------

def _run(prob, z, step, max_iter, certificate, target, stop_check=None):
    """drive z = step(z) on prob's concatenated iterate from z, polling
    certificate(z) when given on drive's schedule, period
    CERTIFICATE_PERIOD, and stop_check(x, y) when given."""
    nx = prob.nx

    def advance():
        nonlocal z
        z = step(z)

    return drive(
        advance, lambda: JointPoint.split(z, nx), prob.ledger, max_iter,
        None if certificate is None else lambda: certificate(z), target,
        CERTIFICATE_PERIOD,
        None if stop_check is None else lambda: stop_check(z[:nx], z[nx:]))


def _baseline_solve(game, config, method):
    prob = JointProblem(game)
    L = game.L
    gamma = 1.0 / (np.sqrt(2) * L) if method == "eg" else 1.0 / (2 * L)
    f_prev = None

    def ogda_step(z):  # optimistic: reuse the previous operator value
        nonlocal f_prev
        f_cur = prob.F(z)
        if f_prev is None:
            f_prev = f_cur
        d = 2.0 * f_cur
        d -= f_prev
        f_prev = f_cur
        return prob.step(z, gamma, d)

    return _run(prob,
                np.concatenate([game.X.canonical_point(),
                                game.Y.canonical_point()]),
                (lambda z: prob.extragradient(z, gamma, "f"))
                if method == "eg" else ogda_step, config.max_iter,
                game_certificate(game, prob.ledger), config.epsilon)


def solve_eg(game, config):
    """Extragradient with displacement-certificate stopping.

    Stepsize 1/(sqrt(2) L); two operator queries per iteration; the
    certificate (stepsize 1/(2L), queries ledgered as cert) is polled on
    drive's schedule, period CERTIFICATE_PERIOD.
    """
    return _baseline_solve(game, config, "eg")


def solve_ogda(game, config):
    """Optimistic (past-iterate) gradient descent ascent.

    Update z+ = P(z - gamma (2 F(z) - F(z_prev))) with stepsize
    gamma = 1/(2L); one new operator query per iteration. The first iteration
    (z_prev = z_0) reduces to a projected gradient step. The certificate
    is polled as in solve_eg.
    """
    return _baseline_solve(game, config, "ogda")


# ---------------------------------------------------------------------------
# regularized zero-sum subproblems
# ---------------------------------------------------------------------------

@dataclass
class SaddleSubproblem:
    """min_x max_y of a proximally regularized competitive part:

        phi(x, y) = <c_x, x> + |x - x_c|^2 / (2 eta) + h(x, y)
                  - <c_y, y> - |y - y_c|^2 / (2 eta)

    phi_form holds the flattened bilinear-plus-quadratic structure of phi
    when h is structured; h_operator, the fallback, returns the JointPoint
    (grad_x h, -grad_y h). The saddle operator is (grad_x phi, -grad_y phi).
    """

    c_x: np.ndarray
    c_y: np.ndarray
    x_center: np.ndarray
    y_center: np.ndarray
    eta: float
    X: object
    Y: object
    L_sub: float
    mu_sub: float
    h_operator: callable = None
    phi_form: BilinearSaddleForm = None

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")

    def operator(self, x, y, ledger=None, bucket="h"):
        if self.phi_form is not None:
            f = self.phi_form
            gx = f.rmatvec(y)
            gx += f.ax * x
            gx += f.bx
            gy = f.ay * y
            gy += f.by
            gy -= f.matvec(x)
        else:
            H = self.h_operator(x, y)
            gx = H.x + self.c_x + (x - self.x_center) / self.eta
            gy = H.y + self.c_y + (y - self.y_center) / self.eta
        if ledger is not None:
            if bucket == "h":
                ledger.h_queries += 1
            else:
                ledger.cert_queries += 1
        return gx, gy


class PdhgKernel:
    """Primal-dual steps for min_x max_y p(x) + <W x, y> - q(y) with
    p, q strongly convex isotropic quadratics plus linear terms over X, Y.

    Stepsizes follow the strongly-convex parameterization: with
    s = min(1, 2 sqrt(ax ay) / |W|), tau = s/(2 ax), sigma = s/(2 ay), and
    extrapolation 1/(1+s), giving linear convergence at roughly
    sqrt(ax ay)/|W| per iteration. Those steps balance the worst-case
    moduli; set_weight rebalances them for a primal weight learned from
    the iterates (restart_pdhg).
    """

    def __init__(self, form, X, Y, x0, y0):
        if form is None or form.ax <= 0 or form.ay <= 0:
            raise StructureError(
                "inner solver needs a bilinear form with strongly convex "
                "parts; solve sub.operator with solve_operator_eg")
        self.form = form
        self.X, self.Y = X, Y
        self.x = np.array(x0, dtype=np.float64)
        self.y = np.array(y0, dtype=np.float64)
        if form.w_norm() <= 1e-14:
            # decoupled: plain proximal iterations with a large step
            self._set_steps(4.0 / form.ax, 4.0 / form.ay, 0.0)
        else:
            s = 2.0 * pdhg_rate(form)
            self._set_steps(s / (2.0 * form.ax), s / (2.0 * form.ay),
                            1.0 / (1.0 + s))

    def _set_steps(self, tau, sigma, theta):
        self.tau, self.sigma, self.theta = tau, sigma, theta
        self._x_scale = 1.0 + tau * self.form.ax
        self._y_scale = 1.0 + sigma * self.form.ay

    def set_weight(self, omega):
        """Steps tau = 1/(omega |W|) and sigma = omega/|W| for primal
        weight omega > 0, with extrapolation
        1/(1 + min(2 ax tau, 2 ay sigma, 1)); at omega = sqrt(ax/ay) these
        are the constructor's steps whenever 2 sqrt(ax ay) < |W|. A
        decoupled form keeps its proximal steps."""
        f = self.form
        lw = f.w_norm()
        if lw <= 1e-14:
            return
        tau, sigma = 1.0 / (omega * lw), omega / lw
        self._set_steps(tau, sigma, 1.0 / (1.0 + min(2.0 * f.ax * tau,
                                                     2.0 * f.ay * sigma,
                                                     1.0)))

    def step(self, ledger):
        # x+ = P((x - tau (W'y + bx)) / (1 + tau ax)) and
        # y+ = P((y + sigma (W x_bar - by)) / (1 + sigma ay)), each built
        # and projected in one fresh buffer; self.x and self.y are rebound,
        # never written into, since stop_check callers and reports hold them
        f = self.form
        t = f.rmatvec(self.y)
        t += f.bx
        t *= self.tau
        np.subtract(self.x, t, out=t)
        t /= self._x_scale
        x_new = self.X.project(t, t)
        x_bar = x_new - self.x
        x_bar *= self.theta
        x_bar += x_new
        t = f.matvec(x_bar)
        t -= f.by
        t *= self.sigma
        t += self.y
        t /= self._y_scale
        self.y = self.Y.project(t, t)
        self.x = x_new
        ledger.h_queries += 1


def pdhg_rate(form):
    """PdhgKernel's contraction rate per step on form: about
    sqrt(ax ay)/|W|, at most 0.5 (also when form is decoupled)."""
    lw = form.w_norm()
    if lw <= 1e-14:
        return 0.5
    return min(0.5, np.sqrt(form.ax * form.ay) / lw)


def primal_weight(omega, dx, dy):
    """PDLP's primal weight after an epoch that moved x by dx and y by dy:
    omega^(1 - WEIGHT_SMOOTHING) (|dy|/|dx|)^WEIGHT_SMOOTHING, or omega
    when either move is 0."""
    nx, ny = math.sqrt(dx @ dx), math.sqrt(dy @ dy)
    if nx == 0 or ny == 0:
        return omega
    return omega ** (1.0 - WEIGHT_SMOOTHING) * (ny / nx) ** WEIGHT_SMOOTHING


def restart_pdhg(kern, ledger, max_iter, certificate, target):
    """Up to max_iter steps of kern, ledgered as h, with PDLP's restarts
    and primal weight omega, first sqrt(ax/ay) (the constructor's steps).

    The restart test runs as drive's stop_check every CHECK_PERIOD steps,
    on the residual r = sqrt(omega |dx|^2 + |dy|^2 / omega) of the last
    step: an epoch ends by the RESTART_* rule against its first r. A
    restart polls certificate(z) of the concatenated iterate and stops the
    solve once the value is at most target; else kern takes the
    primal_weight of the moves since the previous restart. Returns
    drive's report: the value that stopped the solve, which certifies the
    returned point, is its extras["accepted"]; a solve that runs out of
    steps has none.
    """
    omega = math.sqrt(kern.form.ax / kern.form.ay)
    steps = start = 0
    x0, y0 = prev = kern.x, kern.y
    r_first = r_last = None

    def step():
        nonlocal prev, steps
        prev = kern.x, kern.y
        kern.step(ledger)
        steps += 1

    def check():
        nonlocal omega, start, x0, y0, r_first, r_last
        if steps == start:
            return None
        dx, dy = kern.x - prev[0], kern.y - prev[1]
        r = math.sqrt(omega * (dx @ dx) + (dy @ dy) / omega)
        if r_first is None:
            r_first = r_last = r
        due = (r <= RESTART_SUFFICIENT * r_first
               or r_last < r <= RESTART_NECESSARY * r_first
               or steps - start >= RESTART_ARTIFICIAL * steps)
        r_last = r
        if not due:
            return None
        value = certificate(np.concatenate([kern.x, kern.y]))
        if value <= target:
            return value
        omega = primal_weight(omega, kern.x - x0, kern.y - y0)
        kern.set_weight(omega)
        start, x0, y0, r_first = steps, kern.x, kern.y, None
        return None

    return drive(step, lambda: JointPoint(kern.x.copy(), kern.y.copy()),
                 ledger, max_iter, None, None, CHECK_PERIOD, check)


def solve_apd_bilinear(sub, max_iter, ledger=None, stop_check=None,
                       certificate=None, target=None, start=None):
    """Accelerated primal-dual solve of a structured saddle subproblem from
    start, a JointPoint in X x Y (default: the subproblem's center), up to
    max_iter steps ledgered as h.

    An optional stop_check(x, y) callback is polled on drive's schedule; a
    return other than None or a Pending stops the solve and is attached
    to the report extras as "accepted" (ICL's inexactness check). An
    optional certificate(z) of the concatenated iterate is polled on
    drive's schedule too, and stops the solve once it is at most target.

    A subproblem at eta = inf has no proximal term to balance the steps
    (ICL's delta = 0 step, whose subproblem is the whole game): it runs
    restart_pdhg instead, which polls certificate, required, at each
    restart and reports the value that stopped it as extras["accepted"];
    stop_check must be None there.

    Raises StructureError when the subproblem has no bilinear structure;
    use solve_operator_eg on sub.operator in that case.
    """
    if start is None:
        start = JointPoint(sub.x_center, sub.y_center)
    kern = PdhgKernel(sub.phi_form, sub.X, sub.Y, start.x, start.y)
    ledger = QueryLedger() if ledger is None else ledger
    if sub.eta == math.inf:
        if certificate is None or stop_check is not None:
            raise ValueError("a solve at eta = inf stops on its certificate "
                             "alone")
        return restart_pdhg(kern, ledger, max_iter, certificate, target)
    return drive(
        lambda: kern.step(ledger),
        lambda: JointPoint(kern.x.copy(), kern.y.copy()), ledger, max_iter,
        None if certificate is None
        else lambda: certificate(np.concatenate([kern.x, kern.y])),
        target, CERTIFICATE_PERIOD,
        None if stop_check is None else lambda: stop_check(kern.x, kern.y))


def solve_operator_eg(operator, X, Y, x0, y0, gamma, budget, ledger=None,
                      stop_check=None, certificate=None, target=None):
    """Plain extragradient on an arbitrary saddle operator (x, y, ledger,
    bucket) -> (gx, gy), its steps ledgered as h. Generic fallback for
    subproblems without bilinear structure; stop_check and certificate
    are polled as in solve_apd_bilinear.
    """
    prob = OperatorProblem(operator, X, Y, ledger)
    return _run(prob, np.concatenate([x0, y0], dtype=np.float64),
                lambda z: prob.extragradient(z, gamma, "h"), budget,
                certificate, target, stop_check)
