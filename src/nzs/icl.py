"""Iterative coupling linearization (ICL).

The outer loop freezes the coupling gradient at the current iterate,
which turns each step into a proximally regularized zero-sum saddle
subproblem. Each subproblem is solved just accurately enough to pass a
direct variational-inequality check at its step's scheduled tolerance:
loose in the early steps and tightening geometrically to the last, with
errors summable under the outer contraction (inexact proximal point,
Rockafellar 1976), and cut to a fixed fraction of the gap at the
subproblem's own start (Catalyst; Lin, Mairal & Harchaoui 2018).
"""

import copy
import math
from dataclasses import dataclass

import numpy as np

from .games import JointPoint, QueryLedger, grad_g, operator_H
from .solvers import (Pending, SaddleSubproblem, SolveReport, drive,
                      extract_approx_ne, game_certificate, pdhg_rate,
                      solve_apd_bilinear, solve_operator_eg)


# the multi-secant start of the proximal inner solves: the window holds
# SECANT_DEPTH + 1 outer differences, and SECANT_RIDGE regularizes their
# Gram matrix scaled to unit diagonal
SECANT_DEPTH = 8
SECANT_RIDGE = 1e-10

# an inner solve also stops at its first poll's gap over START_CUT (not
# below the last step's tolerance), so each outer step stays useful where
# the schedule is loose. On the 70 criterion-5 desk cells (nu = 1), the
# schedule alone took three cells to 16, 63 and 125 outer steps (from 5,
# 8 and 8); at 100 every cell fell and two took one more outer step; 1000
# took 8% more queries than 100, and 10 took 7% fewer but seven cells
# took one more outer step
START_CUT = 100.0


class IclError(RuntimeError):
    pass


@dataclass
class IclSchedule:
    """Outer-loop schedule.

    eta is the proximal stepsize; theta = m/(1/eta + m), m = min(mu, nu),
    the per-iteration contraction factor of the squared distance; eps_t
    the base inexactness tolerance, which tolerance() spreads over the
    steps of a run; T the outer iteration budget; and inner_target the
    squared distance that provably implies the inexactness condition at
    eps_t after one extragradient extraction, which sizes each inner
    solve's iteration cap (_inner_budget). q is None on the theta-route
    (schedule_params) and on the q-route (game_schedule) the factor
    (1/eta + delta)/(1/eta + m) by which an exact proximal step contracts
    the distance to the equilibrium. Either route's reported_bound folds
    the gaps a run's steps accepted into the bound it reports; on the
    q-route a "gap" is check_inexactness' residual bound mu_sub e^2, and
    a step also keeps it under descent_cap.
    """

    eta: float
    theta: float
    eps_t: float
    T: int
    inner_target: float
    diameter_sq: float
    q: float = None

    def __post_init__(self):
        if not (0 < self.theta < 1):
            raise ValueError("theta must lie in (0, 1)")
        if self.q is not None and not 0 < self.q < 1:
            raise ValueError("q must lie in (0, 1)")
        if self.eps_t <= 0 or self.T < 1:
            raise ValueError("schedule requires eps_t > 0 and T >= 1")

    def tolerance(self, t, K):
        """tau_t of proximal step t (from 0) of at most K. On the
        theta-route eps_t r^(K-1-t)/(2 - theta), r = 2/(2 - theta):
        weighted by (1 - theta)^(K-1-t) they sum to at most eps_t/theta,
        the budget of a constant eps_t. On the q-route eps_t q^-(K-1-t),
        with eps_t = mu_sub eps (1 - sqrt(q))^2/4: the distance errors
        sqrt(tau_t/mu_sub), weighted by q^(K-1-t), sum to at most
        sqrt(eps)/2. At theta <= 1/2, r^T is below r (2 D^2/eps)^0.58,
        and on the q-route (1/q)^T below (4 D^2/eps)^0.5/q, so no step
        count up to T overflows."""
        if self.q is not None:
            return self.eps_t * (1.0 / self.q) ** (K - 1 - t)
        return (self.eps_t * (2.0 / (2.0 - self.theta)) ** (K - 1 - t)
                / (2.0 - self.theta))

    def reported_bound(self, gaps):
        """Squared-distance bound after the proximal steps that accepted
        gaps, from B_0 = D^2. On the theta-route
        B_(t+1) = (1 - theta)(B_t + 2 eta gap_t), the paper's descent
        inequality (1/(2 eta) + m/2) d_(t+1)^2 <= d_t^2/(2 eta) + gap_t.
        On the q-route b^2, with b_0 = D and
        b_(t+1) = q b_t + sqrt(gap_t/mu_sub): the exact step z+ contracts
        the distance by q, and gap_t/mu_sub bounds |z_(t+1) - z+|^2,
        mu_sub = 1/eta + m (check_inexactness)."""
        if self.q is None:
            bound = self.diameter_sq
            for gap in gaps:
                bound = (1.0 - self.theta) * (bound + 2.0 * self.eta * gap)
            return bound
        b = math.sqrt(self.diameter_sq)
        for gap in gaps:  # 1/mu_sub = eta (1 - theta)
            b = self.q * b + math.sqrt(gap * self.eta * (1.0 - self.theta))
        return b * b

    def descent_cap(self, moved):
        """Largest gap mu_sub e^2 (e >= |z_(t+1) - z+|) at which a q-route
        step that moved its iterate by moved = |z_(t+1) - z_t| keeps the
        paper's descent inequality at the constant eps_t,
        mu_sub d_(t+1)^2 <= d_t^2/eta + 2 eps_t, d_t = |z_t - z*|. As
        d_(t+1) <= q d_t + e, either suffices: e <= c d_lo, with
        c = sqrt(1 - theta) - q and d_lo = (moved - e)/(1 + q) <= d_t,
        that is e <= c moved/(1 + q + c); or, whatever d_t,
        gap (1 + mu_sub q^2/s) <= 2 eps_t, s = 1/eta - mu_sub q^2 > 0."""
        mu_sub = 1.0 / (self.eta * (1.0 - self.theta))
        c = math.sqrt(1.0 - self.theta) - self.q
        s = 1.0 / self.eta - mu_sub * self.q ** 2
        return max(mu_sub * (c * moved / (1.0 + self.q + c)) ** 2,
                   2.0 * self.eps_t / (1.0 + mu_sub * self.q ** 2 / s))


def schedule_params(mu, nu, delta, L, eps, D_X, D_Y):
    """Theta-route outer schedule for a strongly monotone near-zero-sum
    game: eta = min(1/delta, 1/m) (1/m at delta = 0), m = min(mu, nu),
    theta = m/(1/eta + m) <= 1/2, eps_t = theta eps/(4 eta) and
    T = ceil(ln(2 D^2/eps)/theta). None when both sets are single points
    (D_X = D_Y = 0): nothing is left to schedule."""
    m = min(mu, nu)
    if m <= 0:
        raise ValueError("min(mu, nu) must be positive; reduce the game "
                         "with solve_monotone instead")
    if not 0 <= delta <= L:
        raise ValueError("delta must lie in [0, L]")
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    eta = 1.0 / m if delta == 0 else min(1.0 / delta, 1.0 / m)
    theta = m / (1.0 / eta + m)
    eps_t = theta * eps / (4.0 * eta)
    D_sq = D_X ** 2 + D_Y ** 2
    if D_sq == 0:
        return None
    T = max(1, math.ceil((1.0 / theta) * math.log(2.0 * D_sq / eps)))
    inner_target = eps_t ** 2 / (8.0 * L ** 2 * D_sq)
    return IclSchedule(eta, theta, eps_t, T, inner_target, D_sq)


def game_schedule(game, eps):
    """The outer schedule solve_icl runs on game.

    It is schedule_params' (the theta-route) unless
    0 < delta < (sqrt(2) - 1) m, m = min(mu, nu), where it is the
    q-route. There an exact
    proximal step z+ has (1/eta + m)|z+ - z*| <= (1/eta + delta)|z_t - z*|
    at any eta (H m-strongly monotone, grad g delta-Lipschitz): the
    distance contracts by q = (1/eta + delta)/(1/eta + m), so
    T = ceil(ln(4 D^2/eps)/(-2 ln q)) steps at the tolerances of
    IclSchedule.tolerance bring IclSchedule.reported_bound to eps. eta is
    the 2^k/m (k >= 0) of least predicted cost T/rate, rate the inner
    solver's per-step rate at eta (_inner_rate): Catalyst's trade of outer
    against inner steps (Lin, Mairal & Harchaoui 2018). 2^k stays below
    (m - 2 delta)/delta^2, the cap where s = 1/eta - (1/eta + m) q^2
    reaches 0: IclSchedule.descent_cap needs s > 0 to keep the paper's
    descent inequality at theta = m/(1/eta + m). At k = 0 it has the
    theta-route's eta = 1/m, and q^2 < 1 - theta.
    """
    sched = schedule_params(game.mu, game.nu, game.delta, game.L, eps,
                            game.X.diameter(), game.Y.diameter())
    m, delta = min(game.mu, game.nu), game.delta
    if sched is None or delta ** 2 == 0:
        return sched
    D_sq = sched.diameter_sq
    routes = []
    for k in range(1023):  # 2^k stays finite
        eta = 2.0 ** k / m
        q = (1.0 / eta + delta) / (1.0 / eta + m)
        if 1.0 / eta <= (1.0 / eta + m) * q ** 2:  # s <= 0: at the cap
            break  # at once where delta >= (sqrt(2) - 1) m
        T = max(1, math.ceil(math.log(4.0 * D_sq / eps)
                             / (-2.0 * math.log(q))))
        routes.append((T / _inner_rate(game, eta), eta, q, T))
    if not routes:
        return sched
    _, eta, q, T = min(routes)
    mu_sub = 1.0 / eta + m
    eps_t = mu_sub * eps * (1.0 - math.sqrt(q)) ** 2 / 4.0
    return IclSchedule(eta, m / mu_sub, eps_t, T,
                       eps_t ** 2 / (8.0 * game.L ** 2 * D_sq), D_sq, q)


def _inner_rate(game, eta):
    """Per-step contraction rate of the inner solver on a subproblem at
    eta: pdhg_rate of the shifted h_structure, else the operator
    extragradient's mu_sub/(sqrt(2) L_sub), at least 1e-8."""
    hs = game.h_structure
    if hs is not None:
        hs.w_norm()  # prime the cache so shifted copies do not recompute it
        return pdhg_rate(hs.shifted(d_ax=1.0 / eta, d_ay=1.0 / eta))
    return max((1.0 / eta + min(game.mu, game.nu))
               / (np.sqrt(2.0) * (game.L + 1.0 / eta)), 1e-8)


def build_subproblem(game, z_t, eta, ledger=None):
    """Linearize the coupling part at z_t (one coupling-gradient query);
    eta = inf adds no proximal term."""
    cg = grad_g(game, z_t, ledger)
    phi_form = None
    if game.h_structure is not None:
        hs = game.h_structure
        hs.w_norm()  # prime the cache so shifted copies do not recompute it
        phi_form = hs.shifted(
            d_ax=1.0 / eta, d_ay=1.0 / eta,
            d_bx=cg.x - z_t.x / eta,
            d_by=cg.y - z_t.y / eta)

    return SaddleSubproblem(
        c_x=cg.x, c_y=cg.y,
        x_center=z_t.x.copy(), y_center=z_t.y.copy(),
        eta=eta, X=game.X, Y=game.Y,
        L_sub=game.L + 1.0 / eta,
        h_operator=lambda x, y: operator_H(game, JointPoint(x, y)),
        phi_form=phi_form,
        mu_sub=1.0 / eta + min(game.mu, game.nu),
    )


def check_inexactness(sub, candidate, ledger=None, step=None):
    """Inexactness of a candidate z~ = (x_c, y_c) for the subproblem,
    whose solution is z+, with one operator query at z~; either value
    bounds |z~ - z+|^2 by value/mu_sub.

    Without step, the exact variational gap: the maximum over feasible
    (x, y) of <grad_x phi(z~), x_c - x> - <grad_y phi(z~), y_c - y>, with
    one linear-minimization oracle per player. It scales with the sets'
    diameter, not with |z~ - z+|.

    With step = (x, y, gx, gy, gamma), z~ = P(z - gamma g) for
    z = (x, y) and g = (gx, gy) = F_sub(z), the subproblem's operator:
    v = (z - z~)/gamma - g + F_sub(z~) lies in F_sub(z~) + N_Z(z~), so
    |z~ - z+| <= e = |v|/mu_sub at any gamma > 0 (hybrid proximal
    extragradient's residual; Solodov & Svaiter 1999), and the value is
    mu_sub e^2.
    """
    gx, gy = sub.operator(candidate.x, candidate.y, ledger, "cert")
    if step is None:
        gap_x = float(gx @ candidate.x - gx @ sub.X.lmo(gx))
        gap_y = float(gy @ candidate.y - gy @ sub.Y.lmo(gy))
        return gap_x + gap_y
    x, y, g_x, g_y, gamma = step
    vx = (x - candidate.x) / gamma - g_x + gx
    vy = (y - candidate.y) / gamma - g_y + gy
    return float(vx @ vx + vy @ vy) / sub.mu_sub


def _inner_budget(sched, per_iter):
    """Iteration cap for one inner solve that contracts at rate per_iter."""
    span = max(np.log(max(sched.diameter_sq, 2.0) / sched.inner_target), 1.0)
    return int(80.0 * span / per_iter) + 400


class SecantStart:
    """Multi-secant (Anderson type-II) prediction of the next proximal
    outer iterate (Walker & Ni, SIAM J. Numer. Anal. 2011).

    record(z_prev, z_next) keeps the last SECANT_DEPTH + 1 differences
    z_{i+1} - z_i of concatenated iterates in one preallocated ring. Once
    it is full, predict(z, X, Y) returns P_{X x Y}(z + V c), where c
    minimizes |U c - d| for d the newest difference, U the window's older
    SECANT_DEPTH differences and V its newer SECANT_DEPTH. c is solved
    through U's Gram matrix, scaled to unit diagonal plus SECANT_RIDGE, by
    Cholesky. If the outer map is z -> A z + b with A having at most
    SECANT_DEPTH distinct eigenvalues on the differences, z + V c is the
    next iterate. predict returns None while the ring is not full, and
    when that Gram matrix is singular: a zero difference, or a failed
    Cholesky.
    """

    def __init__(self, size):
        self.diffs = np.empty((SECANT_DEPTH + 1, size))
        self.recorded = 0

    def record(self, z_prev, z_next):
        np.subtract(z_next, z_prev,
                    out=self.diffs[self.recorded % (SECANT_DEPTH + 1)])
        self.recorded += 1

    def predict(self, z, X, Y):
        m = SECANT_DEPTH
        if self.recorded <= m:
            return None
        order = (np.arange(m + 1) + self.recorded) % (m + 1)  # oldest first
        gram = self.diffs @ self.diffs.T
        older = order[:-1]
        diag = gram[older, older]
        if not np.all(diag > 0) or not np.all(np.isfinite(gram)):
            return None
        s = 1.0 / np.sqrt(diag)
        a = gram[np.ix_(older, older)] * np.outer(s, s)
        a[np.diag_indices(m)] += SECANT_RIDGE
        try:
            low = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            return None
        c = s * gram[older, order[-1]]
        for i in range(m):  # forward, then back substitution
            c[i] = (c[i] - low[i, :i] @ c[:i]) / low[i, i]
        for i in reversed(range(m)):
            c[i] = (c[i] - low[i + 1:, i] @ c[i + 1:]) / low[i, i]
        weights = np.zeros(m + 1)  # c on V's rows of the ring, no copy
        weights[order[1:]] = s * c
        step = weights @ self.diffs
        nx = X.dimension
        x, y = z.x + step[:nx], z.y + step[nx:]
        return JointPoint(X.project(x, x), Y.project(y, y))


def solve_icl(game, eps, keep_trace=False, max_outer=None, stop="schedule"):
    """Outer loop of iterative coupling linearization.

    The schedule is game_schedule(game, eps), extras["schedule"]. The
    game picks the inner solver: solve_apd_bilinear on the flattened
    subproblem when game.h_structure is set, else solve_operator_eg on its
    h_operator oracle. Every subproblem is solved until an extracted candidate
    passes the inexactness check, its one stop rule, polled on drive's
    schedule at the inner solver's contraction rate. Proximal step t (from
    0) of a run that may take K of them (sched.T capped by max_outer, less
    the step at eta = inf if one ran) accepts a gap of at most
    min(tau_t, max(g0/START_CUT, tau_(K-1))), with tau_t =
    sched.tolerance(t, K) and g0 the gap of the solve's first poll, at
    its start. The check is check_inexactness: the variational gap on the
    theta-route; on the q-route the residual bound of the extraction step,
    which a step also keeps at most sched.descent_cap of its move. An
    inner solve that exhausts _inner_budget without passing raises
    IclError, whose message names the check, the outer step, that
    tolerance, the steps run and the smallest value checked. It starts at
    the subproblem's center z_t until SECANT_DEPTH + 1 proximal outer
    steps are done, and from then on at SecantStart's prediction of its
    prox point (at z_t again when the prediction fails). Only the start
    moves: the subproblem, the tolerance and the check are the same.
    extras["secant_starts"] counts the outer steps that started at a
    prediction.

    stop selects when the outer loop ends:

    - "schedule" runs the full worst-case schedule (sched.T iterations,
      capped by max_outer), at whose tolerances sched.reported_bound
      alone reaches eps uncapped: on the theta-route it is at most
      (1 - theta)^K D^2 + eps/2;
    - "certificate" evaluates the whole-game displacement certificate
      (stepsize 1/(2L), modulus game.monotone_modulus, the one the
      baselines stop on) on drive's schedule, at least one outer
      iteration apart, and stops once it is at most eps. A structured
      game with delta = 0 then takes one outer step at eta = inf: its
      subproblem is the game itself, and solve_apd_bilinear runs PDHG on
      it with PDLP's restarts and primal weight (solvers.restart_pdhg),
      polling the same certificate at each restart, until it is at most
      eps. Proximal iterations follow only if it is not. A game whose
      monotone_modulus is 0 has no such certificate: it runs the full
      schedule, as "schedule" does.

    A game whose two sets are single points is solved by its one point:
    no query, certified_sq_distance 0 and schedule None.

    max_outer (at least 1) caps the outer iterations, and so K. The
    reported certified_sq_distance is the smaller of
    sched.reported_bound of the gaps the proximal iterations accepted and
    the whole-game certificate of the returned point, which drive polls
    last (none when the modulus is 0); status is "converged" only when
    it is at most eps, else "max_iter". iterations counts the outer
    iterations run, the step at eta = inf included.
    """
    if stop not in ("schedule", "certificate"):
        raise ValueError("stop must be 'schedule' or 'certificate'")
    if max_outer is not None and max_outer < 1:
        raise ValueError("max_outer must be at least 1")
    sched = game_schedule(game, eps)
    ledger = QueryLedger()
    z = JointPoint(game.X.canonical_point(), game.Y.canonical_point())
    if sched is None:  # the one feasible point is the equilibrium
        return SolveReport(
            point=z, ledger=ledger, iterations=0, certified_sq_distance=0.0,
            extras={"schedule": None, "trace": [z] if keep_trace else None})
    L_sub = 2.0 * game.L
    gamma_ex = 1.0 / (np.sqrt(2.0) * L_sub)
    T = sched.T if max_outer is None else min(sched.T, max_outer)

    certificate = game_certificate(game, ledger)
    by_certificate = stop == "certificate" and certificate is not None
    history = []
    trace = [z] if keep_trace else None
    bound = None
    outer = 0
    if by_certificate and game.delta == 0 and game.h_structure is not None:
        # delta = 0 makes the linearization exact, so one outer step at
        # eta = inf, stopped by the whole-game certificate, solves the game
        sub = build_subproblem(game, z, math.inf, ledger)
        rep = solve_apd_bilinear(
            sub, _inner_budget(sched, pdhg_rate(sub.phi_form)), ledger,
            certificate=certificate, target=eps)
        z, outer = rep.point, 1
        bound = rep.extras.get("accepted")
        if keep_trace:
            trace.append(z)

    secant = SecantStart(game.X.dimension + game.Y.dimension)
    secant_starts = 0
    # candidates keep their own sets, so a Simplex's hint is from one family
    cand_X, cand_Y = copy.copy(game.X), copy.copy(game.Y)

    def outer_step():
        nonlocal z, secant_starts
        t = len(history)
        sub = build_subproblem(game, z, sched.eta, ledger)
        start = secant.predict(z, sub.X, sub.Y)
        if start is None:
            start = z
        else:
            secant_starts += 1

        least_gap, tol = math.inf, None

        def stop_check(x, y):
            """The inner solve's one stop rule: extract a candidate by one
            projected step; (candidate, gap) if its gap is at most tol,
            else a Pending at the inner solver's rate (_inner_rate). The
            first poll, at the start, sets tol from its own gap."""
            nonlocal least_gap, tol
            gx, gy = sub.operator(x, y, ledger, "cert")
            cx, cy = x - gamma_ex * gx, y - gamma_ex * gy
            cand = JointPoint(cand_X.project(cx, cx), cand_Y.project(cy, cy))
            step = None if sched.q is None else (x, y, gx, gy, gamma_ex)
            gap = check_inexactness(sub, cand, ledger, step)
            if tol is None:
                tol = min(sched.tolerance(t, K),
                          max(gap / START_CUT, tau_last))
            least_gap = min(least_gap, gap)
            if gap <= tol and (step is None or gap <= sched.descent_cap(
                    cand.distance_to(z))):
                return cand, gap
            return Pending(gap, tol, rate)

        if sub.phi_form is not None:
            rep = solve_apd_bilinear(sub, _inner_budget(sched, rate), ledger,
                                     stop_check=stop_check, start=start)
        else:
            rep = solve_operator_eg(
                sub.operator, sub.X, sub.Y, start.x, start.y,
                gamma=gamma_ex, budget=_inner_budget(sched, rate),
                ledger=ledger, stop_check=stop_check)

        if "accepted" not in rep.extras:
            check, guard = (("gap", "") if sched.q is None else
                            ("residual bound", " under the descent guard"))
            raise IclError(
                f"inner solve of outer step {t} stalled: {check} did not "
                f"reach {tol:.3e}{guard} within {rep.iterations} iterations; "
                f"the smallest {check} checked was {least_gap:.3e}")
        z_next, gap = rep.extras["accepted"]
        secant.record(z.concat(), z_next.concat())
        z = z_next
        history.append((rep.iterations, gap))
        if keep_trace:
            trace.append(z)

    K = T - outer  # the proximal steps this run may take
    tau_last = sched.tolerance(K - 1, K)
    if bound is None:
        rate = _inner_rate(game, sched.eta)
        # under stop="schedule" the one poll is drive's final one
        run = drive(outer_step, lambda: z, ledger, K,
                    None if certificate is None
                    else lambda: certificate(z.concat()),
                    eps, 1 if by_certificate else math.inf)
        outer += run.iterations
        bound = run.certified_sq_distance

    # the gaps' bound covers the proximal iterations only
    certified = sched.reported_bound([gap for _, gap in history])
    if bound is not None:
        certified = min(certified, bound)

    return SolveReport(
        point=z, ledger=ledger, iterations=outer,
        certified_sq_distance=certified,
        residual_history=history,
        status="converged" if certified <= eps else "max_iter",
        extras={"schedule": sched, "trace": trace,
                "secant_starts": secant_starts},
    )


def solve_monotone(game, eps):
    """Approximate equilibrium for a merely monotone game (mu or nu zero).

    Adds the curvature min(eps/(4 D_X^2), L/2) to the first player and
    min(eps/(4 D_Y^2), L/2) to the second (L/2 when a diameter is 0),
    moved between the players so the coupling part is unchanged, solves
    the reduced strongly monotone game to squared-distance accuracy
    eps^2/(32 L^2 D^2), and converts via one extraction step. The
    returned gap bound is a valid unilateral-deviation-gain bound of at
    most eps. The reduced game keeps game's h_structure, so solve_icl
    picks the same inner solver for it.

    Returns (point, gap_bound, report).
    """
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    DX2 = game.X.diameter() ** 2
    DY2 = game.Y.diameter() ** 2
    a_x = min(eps / (4.0 * DX2), game.L / 2.0) if DX2 > 0 else game.L / 2.0
    a_y = min(eps / (4.0 * DY2), game.L / 2.0) if DY2 > 0 else game.L / 2.0

    reduced = game.shift_curvature(u1_x=-a_x, u1_y=a_y, u2_x=a_x, u2_y=-a_y)

    D_sq = DX2 + DY2
    # on a single point solve_icl returns it at once and the bound is 0
    eps_acc = eps ** 2 / (32.0 * game.L ** 2 * D_sq) if D_sq > 0 else eps
    report = solve_icl(reduced, eps_acc)
    gamma = 1.0 / (np.sqrt(2.0) * reduced.L)
    point, bound = extract_approx_ne(reduced, report.point, gamma,
                                     dist=np.sqrt(eps_acc),
                                     ledger=report.ledger)
    report.extras.update(reduced_mu=reduced.mu, reduced_nu=reduced.nu,
                         gap_bound=bound)
    report.point = point
    return point, bound, report
