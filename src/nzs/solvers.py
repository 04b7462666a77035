"""Saddle and variational-inequality solvers.

Whole-game baselines (extragradient and optimistic gradient), the
displacement-based stopping certificate, approximate-equilibrium
extraction, and a primal-dual inner solver for bilinear subproblems with
strongly convex separable parts.
"""

from dataclasses import dataclass, field

import numpy as np

from .games import BilinearSaddleForm, JointPoint, QueryLedger


class StructureError(RuntimeError):
    """Raised when a solver is handed a problem without the structure it
    needs; the message names the generic fallback."""


@dataclass
class SolverConfig:
    epsilon: float
    gamma: float = None
    max_iter: int = 5_000_000
    certificate_period: int = 8

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("gamma must be positive")


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
# extragradient primitives and the stopping certificate
# ---------------------------------------------------------------------------

def extragradient_step(F_oracle, z, gamma, Z, ledger=None):
    """One look-ahead projected step: returns (z_hat, z_plus) with
    z_hat = P(z - gamma F(z)) and z_plus = P(z - gamma F(z_hat))."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    f0 = F_oracle(z)
    if ledger is not None:
        ledger.f_queries += 1
    zh = JointPoint.split(Z.project(np.concatenate([z.x - gamma * f0.x,
                                                    z.y - gamma * f0.y])),
                          len(z.x))
    f1 = F_oracle(zh)
    if ledger is not None:
        ledger.f_queries += 1
    zp = JointPoint.split(Z.project(np.concatenate([z.x - gamma * f1.x,
                                                    z.y - gamma * f1.y])),
                          len(z.x))
    return zh, zp


def certificate_coefficient(mu_min, gamma):
    t = mu_min * gamma
    return 4.0 / t ** 2 - 2.0 / t + 16.0


def certify_distance(F_oracle, z_bar, gamma, mu_min, L, Z, ledger=None):
    """Computable upper bound on |z_bar - z*|^2 for strongly monotone games.

    Takes one extragradient displacement at stepsize gamma <= 1/(2L) and
    returns (4/(mu g)^2 - 2/(mu g) + 16) |z_plus - z_bar|^2.
    """
    if mu_min <= 0:
        raise ValueError("certificate undefined for mu_min = 0")
    if not 0 < gamma <= 1.0 / (2 * L) * (1 + 1e-12):
        raise ValueError("certificate requires 0 < gamma <= 1/(2L)")
    _, zp = extragradient_step(F_oracle, z_bar, gamma, Z, ledger)
    dx = zp.x - z_bar.x
    dy = zp.y - z_bar.y
    return certificate_coefficient(mu_min, gamma) * float(dx @ dx + dy @ dy)


def extract_approx_ne(game, z_bar, gamma, dist=None, ledger=None):
    """One projected best-response-direction step per player.

    Returns ((x_hat, y_hat), bound) where bound = (2/gamma) D |dist| is a
    unilateral-deviation-gain bound valid when dist >= |z_bar - z*|; bound
    is None when dist is not supplied. Requires gamma <= 1/(sqrt(2) L).
    """
    if not 0 < gamma <= 1.0 / (np.sqrt(2) * game.L) * (1 + 1e-12):
        raise ValueError("extraction requires 0 < gamma <= 1/(sqrt(2) L)")
    x, y = z_bar.x, z_bar.y
    x_hat = game.X.project(x + gamma * game.grad_u1_x(x, y))
    y_hat = game.Y.project(y + gamma * game.grad_u2_y(x, y))
    if ledger is not None:
        ledger.f_queries += 1
    bound = None
    if dist is not None:
        bound = (2.0 / gamma) * np.sqrt(game.diameter_sq()) * float(dist)
    return JointPoint(x_hat, y_hat), bound


# ---------------------------------------------------------------------------
# internal vectorized operator loop
# ---------------------------------------------------------------------------

class _JointProblem:
    """Concatenated-iterate view of a game for the baseline loops."""

    def __init__(self, game, ledger):
        self.game = game
        self.ledger = ledger
        self.nx = game.X.dimension
        self.X, self.Y = game.X, game.Y

    def F(self, z, bucket="f"):
        x = z[:self.nx]
        y = z[self.nx:]
        out = np.empty(z.shape[0])
        np.negative(self.game.grad_u1_x(x, y), out=out[:self.nx])
        np.negative(self.game.grad_u2_y(x, y), out=out[self.nx:])
        if bucket == "f":
            self.ledger.f_queries += 1
        else:
            self.ledger.cert_queries += 1
        return out

    def project(self, z):
        return np.concatenate([self.X.project(z[:self.nx]),
                               self.Y.project(z[self.nx:])])

    def start(self):
        return np.concatenate([self.X.canonical_point(),
                               self.Y.canonical_point()])

    def step(self, z, gamma, d):
        """P(z - gamma d), computed in d's buffer; d must not escape."""
        d *= gamma
        np.subtract(z, d, out=d)
        return self.project(d)

    def certificate(self, z, gamma_c, mu_min):
        zh = self.step(z, gamma_c, self.F(z, "cert"))
        d = self.step(z, gamma_c, self.F(zh, "cert"))
        d -= z
        return certificate_coefficient(mu_min, gamma_c) * float(d @ d)


def _baseline_solve(game, config, method):
    ledger = QueryLedger()
    prob = _JointProblem(game, ledger)
    L = game.L
    gamma = config.gamma
    if gamma is None:
        gamma = 1.0 / (np.sqrt(2) * L) if method == "eg" else 1.0 / (2 * L)
    gamma_c = 1.0 / (2 * L)
    mu_min = game.monotone_modulus
    certified = mu_min > 0
    eps = config.epsilon
    period = config.certificate_period

    z = prob.start()
    history = []
    best_bound = None
    status = "max_iter"
    it = 0
    f_prev = None
    while it < config.max_iter:
        if method == "eg":
            zh = prob.step(z, gamma, prob.F(z))
            z = prob.step(z, gamma, prob.F(zh))
        else:  # optimistic: reuse the previous operator value
            f_cur = prob.F(z)
            if f_prev is None:
                f_prev = f_cur
            d = 2.0 * f_cur
            d -= f_prev
            z = prob.step(z, gamma, d)
            f_prev = f_cur
        it += 1
        if certified and it % period == 0:
            bound = prob.certificate(z, gamma_c, mu_min)
            history.append((it, bound))
            best_bound = bound if best_bound is None else min(best_bound, bound)
            if bound <= eps:
                status = "converged"
                best_bound = bound
                break
    return SolveReport(
        point=JointPoint.split(z, prob.nx),
        ledger=ledger,
        iterations=it,
        certified_sq_distance=best_bound,
        residual_history=history,
        status=status,
    )


def solve_eg(game, config):
    """Extragradient with displacement-certificate stopping.

    Stepsize defaults to 1/(sqrt(2) L); two operator queries per
    iteration; the certificate is evaluated every certificate_period
    iterations at stepsize 1/(2L) and its queries are ledgered separately.
    """
    return _baseline_solve(game, config, "eg")


def solve_ogda(game, config):
    """Optimistic (past-iterate) gradient descent ascent.

    Update z+ = P(z - gamma (2 F(z) - F(z_prev))) with stepsize defaulting
    to 1/(2L); one new operator query per iteration. The first iteration
    (z_prev = z_0) reduces to a projected gradient step.
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
    when h is structured; h_grad is the oracle fallback. The saddle
    operator is (grad_x phi, -grad_y phi).
    """

    c_x: np.ndarray
    c_y: np.ndarray
    x_center: np.ndarray
    y_center: np.ndarray
    eta: float
    X: object
    Y: object
    L_sub: float
    h_grad: callable = None
    phi_form: BilinearSaddleForm = None
    mu_sub: float = None

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.mu_sub is None:
            self.mu_sub = 1.0 / self.eta

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
            hx, hy = self.h_grad(x, y)
            gx = hx + self.c_x + (x - self.x_center) / self.eta
            gy = -hy + self.c_y + (y - self.y_center) / self.eta
        if ledger is not None:
            if bucket == "h":
                ledger.h_queries += 1
            else:
                ledger.cert_queries += 1
        return gx, gy

    def operator_bounds(self):
        """(smoothness, strong-monotonicity) bounds for the saddle operator."""
        if self.phi_form is not None:
            f = self.phi_form
            return max(f.ax, f.ay) + f.w_norm(), min(f.ax, f.ay)
        return self.L_sub, self.mu_sub

    def certificate(self, x, y, mu_min, ledger=None):
        Lop, _ = self.operator_bounds()
        gamma_c = 1.0 / (2 * Lop)
        gx, gy = self.operator(x, y, ledger, "cert")
        xh = self.X.project(x - gamma_c * gx)
        yh = self.Y.project(y - gamma_c * gy)
        gx, gy = self.operator(xh, yh, ledger, "cert")
        xp = self.X.project(x - gamma_c * gx)
        yp = self.Y.project(y - gamma_c * gy)
        d2 = float((xp - x) @ (xp - x) + (yp - y) @ (yp - y))
        return certificate_coefficient(mu_min, gamma_c) * d2


class PdhgKernel:
    """Primal-dual steps for min_x max_y p(x) + <W x, y> - q(y) with
    p, q strongly convex isotropic quadratics plus linear terms over X, Y.

    Stepsizes follow the strongly-convex parameterization: with
    s = min(1, 2 sqrt(ax ay) / |W|), tau = s/(2 ax), sigma = s/(2 ay), and
    extrapolation 1/(1+s), giving linear convergence at roughly
    sqrt(ax ay)/|W| per iteration.
    """

    def __init__(self, form, X, Y, x0, y0):
        if form.ax <= 0 or form.ay <= 0:
            raise StructureError(
                "inner solver needs strongly convex separable parts; "
                "solve the subproblem with solve_eg or solve_ogda instead")
        self.form = form
        self.X, self.Y = X, Y
        self.x = np.array(x0, dtype=np.float64)
        self.y = np.array(y0, dtype=np.float64)
        lw = form.w_norm()
        if lw <= 1e-14:
            # decoupled: plain proximal iterations with a large step
            self.tau = 4.0 / form.ax
            self.sigma = 4.0 / form.ay
            self.theta = 0.0
        else:
            s = min(1.0, 2.0 * np.sqrt(form.ax * form.ay) / lw)
            self.tau = s / (2.0 * form.ax)
            self.sigma = s / (2.0 * form.ay)
            self.theta = 1.0 / (1.0 + s)
        self._x_scale = 1.0 + self.tau * form.ax
        self._y_scale = 1.0 + self.sigma * form.ay

    def step(self, ledger=None):
        # x+ = P((x - tau (W'y + bx)) / (1 + tau ax)) and
        # y+ = P((y + sigma (W x_bar - by)) / (1 + sigma ay)), each built in
        # one fresh buffer; self.x and self.y are rebound, never written
        # into, since stop_check callers and reports hold them
        f = self.form
        t = f.rmatvec(self.y)
        t += f.bx
        t *= self.tau
        np.subtract(self.x, t, out=t)
        t /= self._x_scale
        x_new = self.X.project(t)
        x_bar = x_new - self.x
        x_bar *= self.theta
        x_bar += x_new
        t = f.matvec(x_bar)
        t -= f.by
        t *= self.sigma
        t += self.y
        t /= self._y_scale
        self.y = self.Y.project(t)
        self.x = x_new
        if ledger is not None:
            ledger.h_queries += 1

    def rate(self):
        f = self.form
        lw = f.w_norm()
        if lw <= 1e-14:
            return 0.5
        return min(0.5, np.sqrt(f.ax * f.ay) / lw)


def solve_apd_bilinear(sub, target_sq_dist, max_iter=None,
                       certificate_period=8, ledger=None, stop_check=None,
                       check_period=4):
    """Accelerated primal-dual solve of a structured saddle subproblem.

    Runs the strongly-convex primal-dual kernel until the displacement
    certificate on the subproblem operator shows a squared distance at
    most target_sq_dist (certificate queries ledgered separately). An
    optional stop_check(x, y) callback is polled every check_period
    iterations; a non-None return stops the solve early and is attached to
    the report extras (this is how the outer loop certifies inexactness
    directly and skips the distance target).

    Raises StructureError when the subproblem has no bilinear structure;
    use solve_eg / solve_ogda on sub.operator in that case.
    """
    if sub.phi_form is None:
        raise StructureError(
            "subproblem has no bilinear structure; fall back to solve_eg or "
            "solve_ogda on the subproblem operator")
    if ledger is None:
        ledger = QueryLedger()
    form = sub.phi_form
    kern = PdhgKernel(form, sub.X, sub.Y, sub.x_center, sub.y_center)
    Lop, mu_min = sub.operator_bounds()
    if max_iter is None:
        d0 = sub.X.diameter() ** 2 + sub.Y.diameter() ** 2
        span = max(np.log(max(d0, 1.0) / target_sq_dist), 1.0) if target_sq_dist \
            else 40.0
        max_iter = int(60.0 * span / kern.rate()) + 200
    history = []
    status = "max_iter"
    bound = None
    accepted = None
    it = 0
    while it < max_iter:
        if stop_check is not None and it % check_period == 0:
            accepted = stop_check(kern.x, kern.y)
            if accepted is not None:
                status = "converged"
                break
        kern.step(ledger)
        it += 1
        if target_sq_dist is not None and it % certificate_period == 0:
            bound = sub.certificate(kern.x, kern.y, mu_min, ledger)
            history.append((it, bound))
            if bound <= target_sq_dist:
                status = "converged"
                break
    return SolveReport(
        point=JointPoint(kern.x.copy(), kern.y.copy()),
        ledger=ledger,
        iterations=it,
        certified_sq_distance=bound,
        residual_history=history,
        status=status,
        extras={} if accepted is None else {"accepted": accepted},
    )


def solve_operator_eg(operator, X, Y, x0, y0, gamma, budget, ledger=None,
                      bucket="h", stop_check=None, check_period=4,
                      target_sq_dist=None, mu_min=None, Lop=None,
                      certificate_period=8):
    """Plain extragradient on an arbitrary saddle operator (x, y) ->
    (gx, gy). Generic fallback for subproblems without bilinear structure.
    """
    if ledger is None:
        ledger = QueryLedger()
    x = np.array(x0, dtype=np.float64)
    y = np.array(y0, dtype=np.float64)
    status = "max_iter"
    accepted = None
    bound = None
    history = []
    it = 0
    while it < budget:
        if stop_check is not None and it % check_period == 0:
            accepted = stop_check(x, y)
            if accepted is not None:
                status = "converged"
                break
        gx, gy = operator(x, y, ledger, bucket)
        xh = X.project(x - gamma * gx)
        yh = Y.project(y - gamma * gy)
        gx, gy = operator(xh, yh, ledger, bucket)
        x = X.project(x - gamma * gx)
        y = Y.project(y - gamma * gy)
        it += 1
        if (target_sq_dist is not None and mu_min and Lop
                and it % certificate_period == 0):
            gamma_c = 1.0 / (2 * Lop)
            g1x, g1y = operator(x, y, ledger, "cert")
            xh = X.project(x - gamma_c * g1x)
            yh = Y.project(y - gamma_c * g1y)
            g2x, g2y = operator(xh, yh, ledger, "cert")
            xp = X.project(x - gamma_c * g2x)
            yp = Y.project(y - gamma_c * g2y)
            d2 = float((xp - x) @ (xp - x) + (yp - y) @ (yp - y))
            bound = certificate_coefficient(mu_min, gamma_c) * d2
            history.append((it, bound))
            if bound <= target_sq_dist:
                status = "converged"
                break
    return SolveReport(
        point=JointPoint(x.copy(), y.copy()),
        ledger=ledger,
        iterations=it,
        certified_sq_distance=bound,
        residual_history=history,
        status=status,
        extras={} if accepted is None else {"accepted": accepted},
    )
