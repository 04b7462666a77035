"""Problem-family constructors.

Families: regularized matrix games with transaction fees, convex
reformulations (bilinear and general coupling, each returning a
curvature-shifted GameSpec), seeded sparse benchmark instances,
synthetic quadratic games with a known equilibrium, a tiny
leader-follower example with closed-form solutions and the best-response
dynamic that misses its equilibrium, and matching pennies.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .vecmat import (SparseMatrix, fee_operator, spmv, spmv_transpose,
                     spectral_norm)
from .sets import Simplex, Ball, Box
from .games import BilinearSaddleForm, GameSpec, JointPoint


# ---------------------------------------------------------------------------
# matrix games with a concave-convex quadratic regularizer
# ---------------------------------------------------------------------------

@dataclass
class MatrixGame:
    """u1 = <A x, y> + R,  u2 = <B x, y> - R  on simplex strategy sets,

    with R(x, y) = -(reg_mu/2)|x|^2 + (reg_nu/2)|y|^2.

    _norms caches L, |C| and |K| as "L", "beta" and "K": fee_game sets
    them from an instance's two norms, else each is a power iteration.
    """

    A: SparseMatrix
    B: SparseMatrix
    reg_mu: float = 0.0
    reg_nu: float = 0.0
    _norms: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.A.shape != self.B.shape:
            raise ValueError("payoff matrices must have equal shape")
        if self.reg_mu < 0 or self.reg_nu < 0:
            raise ValueError("regularizer curvatures must be >= 0")

    def coupling_matrix(self):
        """(A + B)/2, the common-loss payoff component."""
        return self.A.with_values(0.5 * (self.A.values + self.B.values))

    def competitive_matrix(self):
        """(A - B)/2, the strictly competitive payoff component."""
        return self.A.with_values(0.5 * (self.A.values - self.B.values))

    def coupling_norm(self):
        if "beta" not in self._norms:
            self._norms["beta"] = spectral_norm(self.coupling_matrix())
        return self._norms["beta"]

    def smoothness(self):
        if "L" not in self._norms:
            top = max(spectral_norm(self.A), spectral_norm(self.B))
            self._norms["L"] = top + max(self.reg_mu, self.reg_nu)
        return self._norms["L"]

    def game_spec(self, monotone_modulus=None):
        """GameSpec view of the raw (unreformulated) game.

        The competitive part h = -<K x, y> - R is mu-strongly convex and
        nu-strongly concave, but the coupling part -<C x, y> is bilinear,
        not jointly convex, so delta here is only its smoothness bound and
        monotone_modulus defaults to min(mu, nu)/2, which is certified
        whenever |C| <= sqrt(mu nu)/2. Beyond that range it defaults to 0:
        no certificate.
        """
        return self._spec(self.coupling_norm(), monotone_modulus)

    def _spec(self, beta, monotone_modulus=None):
        """game_spec with coupling norm beta, as reformulate_bilinear has."""
        A, B, mu, nu, n = self.A, self.B, self.reg_mu, self.reg_nu, self.A.n_cols
        L = self.smoothness()
        if monotone_modulus is None:
            monotone_modulus = min(mu, nu) if beta == 0 else (
                min(mu, nu) / 2 if _certifiably_monotone(beta, mu, nu) else 0.0)

        def u1(x, y):
            return float(y @ spmv(A, x) - 0.5 * mu * (x @ x) + 0.5 * nu * (y @ y))

        def u2(x, y):
            return float(y @ spmv(B, x) + 0.5 * mu * (x @ x) - 0.5 * nu * (y @ y))

        C = []  # coupling_matrix(), made on the first coupling_grad query

        def coupling_grad(z):  # -(C' y, C x)
            if not C:
                C.append(self.coupling_matrix())
            out = np.concatenate([spmv_transpose(C[0], z[n:]),
                                  spmv(C[0], z[:n])])
            return np.negative(out, out=out)

        X, Y = Simplex(n), Simplex(self.A.n_rows)
        return GameSpec(
            F=fee_operator(A, B, mu, nu), coupling_grad=coupling_grad,
            L=L, mu=mu, nu=nu, delta=min(beta, L),
            X=X, Y=Y, u1=u1, u2=u2,
            h_structure=BilinearSaddleForm(  # W = -K
                self.competitive_matrix().scaled(-1.0), ax=mu, ay=nu,
                _w_norm_cache=self._norms.get("K")),
            best_response_x=_quad_best_response(lambda y: spmv_transpose(A, y), mu, X),
            best_response_y=_quad_best_response(lambda x: spmv(B, x), nu, Y),
            monotone_modulus=monotone_modulus,
        )


def _quad_best_response(linear_term, curvature, S):
    """Exact maximizer of <c, w> - (curvature/2)|w|^2 over S.

    For positive curvature this is a scaled projection; for zero it is
    the linear-minimization oracle at -c.
    """
    if curvature > 0:
        def br(other):
            return S.project(linear_term(other) / curvature)
    else:
        def br(other):
            return S.lmo(-linear_term(other))
    return br


# ---------------------------------------------------------------------------
# transaction fees
# ---------------------------------------------------------------------------

def split_pos_neg(M):
    """(M_plus, M_minus) with M = M_plus - M_minus and both nonnegative."""
    v = M.values
    return M.with_values(np.where(v > 0, v, 0.0)), \
        M.with_values(np.where(v < 0, -v, 0.0))


def apply_transaction_fee(M, rho):
    """Post-fee payoff matrices (A, B) for a haircut rho on every payment.

    A = (1-rho) M_plus - M_minus and B = -M_plus + (1-rho) M_minus,
    evaluated as v - rho*v per entry so that exact cases (for example
    integer payoffs with rho*|v| integral) stay exact.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    v = M.values
    fee = rho * v
    A = M.with_values(np.where(v > 0, v - fee, v))
    B = M.with_values(np.where(v > 0, -v, -(v - fee)))
    return A, B


def fee_game(M, rho, reg_mu, reg_nu, norms=None):
    """MatrixGame for payoff matrix M after applying transaction fee rho.

    norms = (|M|, || |M| ||), an instance's two norms, set its constants
    once _check_norms passes them: as A - B = (2 - rho) M and
    A + B = -rho |M|, |K| = (1 - rho/2)|M|, |C| = rho || |M| ||/2, and
    L = |M| + rho || |M| || + max(mu, nu) bounds |A|, |B| smoothly in rho.
    """
    game = MatrixGame(*apply_transaction_fee(M, rho), reg_mu, reg_nu)
    if norms is not None:
        norm, norm_abs = _check_norms(M, *norms)
        game._norms.update(L=norm + rho * norm_abs + max(reg_mu, reg_nu),
                           beta=0.5 * rho * norm_abs, K=(1 - 0.5 * rho) * norm)
    return game


def _check_norms(M, norm, norm_abs):
    """(norm, norm_abs) if max|M_ij| <= norm <= norm_abs <= sqrt(|M|_1
    |M|_inf), bounds the true norms obey, with 1e-6 relative slack each."""
    a = np.abs(M.values)
    rows = np.repeat(np.arange(M.n_rows), np.diff(M.row_offsets))
    chain = [("max|M_ij|", a.max(initial=0.0)), ("'norm'", norm),
             ("'norm_abs'", norm_abs), ("sqrt(|M|_1 |M|_inf)", np.sqrt(
                 np.bincount(rows, a, M.n_rows).max()
                 * np.bincount(M.col_indices, a, M.n_cols).max()))]
    for (low, v), (high, w) in zip(chain, chain[1:]):
        if not v <= w * (1 + 1e-6):
            raise ValueError(f"{low} = {v:.9g} exceeds {high} = {w:.9g}")
    return norm, norm_abs


# ---------------------------------------------------------------------------
# convex reformulations
# ---------------------------------------------------------------------------

def _certifiably_monotone(beta, mu, nu):
    """beta <= sqrt(mu nu)/2, the bound under which a fee game is
    certifiably monotone (and its bilinear reformulation jointly convex)."""
    return beta <= 0.5 * np.sqrt(mu * nu) * (1 + 1e-12)


def require_monotone_coupling(beta, mu, nu):
    """Raise ValueError unless the coupling norm beta is in the certified
    range of ``_certifiably_monotone``."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if not _certifiably_monotone(beta, mu, nu):
        raise ValueError(
            f"coupling norm {beta:.3e} exceeds sqrt(mu*nu)/2 = "
            f"{0.5 * np.sqrt(mu * nu):.3e}; the game is not certifiably "
            "monotone under this reformulation")


def _curvature_split(beta, mu, nu):
    """(beta1, beta2) with beta1*beta2 = beta^2, beta1 <= mu/2 and
    beta2 <= nu/2, from 2*beta vs mu, nu. Requires beta <= sqrt(mu nu)/2.

    Case rules: both 2*beta <= mu and <= nu: beta1 = beta2 = beta;
    mu <= 2*beta <= nu: beta1 = mu/2, beta2 = 2*beta^2/mu;
    nu <= 2*beta <= mu: symmetric.
    """
    require_monotone_coupling(beta, mu, nu)
    if 2 * beta <= mu and 2 * beta <= nu:
        return beta, beta
    if mu <= 2 * beta <= nu:
        return mu / 2, 2 * beta ** 2 / mu
    if nu <= 2 * beta <= mu:
        return 2 * beta ** 2 / nu, nu / 2
    raise ValueError("inconsistent curvature case")  # pragma: no cover


def reformulate_bilinear(game, beta):
    """GameSpec of a MatrixGame with curvature moved between the players.

    Player 1 maximizes u1 - beta2 |y|^2 and player 2 maximizes
    u2 - beta1 |x|^2, with (beta1, beta2) from ``_curvature_split``. The
    equilibrium is unchanged, and the new coupling part
    -<C x, y> + (beta1/2)|x|^2 + (beta2/2)|y|^2 is jointly convex because
    beta1*beta2 = beta^2, beta = |C| = |(A+B)/2|. With L the base game's
    smoothness(), the spec's L is L + 2*max(beta1, beta2), its delta
    beta + max(beta1, beta2), and its moduli are stated as mu/2, nu/2.
    """
    mu, nu = game.reg_mu, game.reg_nu
    b1, b2 = _curvature_split(beta, mu, nu)
    return game._spec(beta).shift_curvature(
        u1_y=-b2, u2_x=-b1, mu=mu / 2, nu=nu / 2)


def reformulate_general(game, beta):
    """Curvature-shift reformulation for a general beta-smooth coupling part.

    Player 1 maximizes u1 - beta |y|^2 and player 2 maximizes
    u2 - beta |x|^2. The new coupling part g + (beta/2)(|x|^2 + |y|^2) is
    jointly convex and 2*beta-smooth; the competitive moduli drop to
    mu - beta and nu - beta. Requires beta <= min(mu, nu)/2.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if beta > 0.5 * min(game.mu, game.nu) * (1 + 1e-12):
        raise ValueError("beta must be at most min(mu, nu)/2")
    if beta == 0.0:
        return game
    return game.shift_curvature(u1_y=-beta, u2_x=-beta, delta=2 * beta)


# ---------------------------------------------------------------------------
# seeded sparse benchmark instances
# ---------------------------------------------------------------------------

def _sample_without_replacement(rng, total, count):
    """Seeded partial Fisher-Yates over a virtual index space [0, total)."""
    state = {}
    out = np.empty(count, dtype=np.int64)
    # one call draws the same stream as rng.integers(i, total) for each i
    for i, j in enumerate(rng.integers(np.arange(count), total).tolist()):
        out[i] = state.get(j, j)
        state[j] = state.get(i, i)
    return out


def gen_sparse_experiment(n, m, nnz, seed, mu, nu, normalize=True):
    """Random sparse payoff instance: nnz coordinates chosen uniformly
    without replacement, values uniform on [-1, 1], optional rescaling so
    the spectral norm is 1, plus the standard regularizer curvatures.

    Returns (MatrixGame at fee rho=0 i.e. (M, -M), metadata dict). The raw
    matrix M is available in the metadata for fee sweeps.
    """
    if nnz > n * m:
        raise ValueError("nnz exceeds the number of matrix entries")
    rng = np.random.default_rng(seed)
    flat = _sample_without_replacement(rng, n * m, nnz)
    rows = flat // n
    cols = flat % n
    values = rng.uniform(-1.0, 1.0, nnz)
    M = SparseMatrix.from_coo(rows, cols, values, (m, n))
    norm_raw = spectral_norm(M) if nnz else 0.0
    if normalize and norm_raw > 0:
        M = M.scaled(1.0 / norm_raw)
    norm_abs = spectral_norm(M.with_values(np.abs(M.values))) if nnz else 0.0
    meta = {
        "n": n, "m": m, "nnz": int(nnz), "seed": int(seed),
        "mu": float(mu), "nu": float(nu),
        "normalize": bool(normalize),
        "norm_raw": float(norm_raw),
        "norm": 1.0 if (normalize and norm_raw > 0) else float(norm_raw),
        "norm_abs": float(norm_abs),
        "sets": {"x": {"kind": "simplex", "dim": n},
                 "y": {"kind": "simplex", "dim": m}},
    }
    return fee_game(M, 0.0, mu, nu), {"M": M, **meta}


# ---------------------------------------------------------------------------
# synthetic quadratics with a known equilibrium
# ---------------------------------------------------------------------------

def gen_quadratic_known_ne(n_x, n_y, mu, nu, delta, coupling_norm, seed):
    """Quadratic game with an interior equilibrium placed by construction.

    h(x, y) = (mu/2)|x|^2 - (nu/2)|y|^2 + <K x, y> + <kx, x> + <ky, y>
    and g(z) = z' G z / 2 + <c, z> with G positive semidefinite of norm
    delta. The linear terms are chosen so the game operator vanishes at a
    random interior target, which becomes known_ne. Ball feasible sets are
    sized at ten times the equilibrium norm so the target stays interior.

    Each query is one dense product: F(z) = J z + b, with the operator's
    Jacobian J = G + [[mu I, K'], [-K, nu I]] and b = c + (kx, -ky) built
    once, and coupling_grad(z) = G z + c.
    """
    if min(mu, nu) < 0 or delta < 0 or coupling_norm < 0:
        raise ValueError("moduli must be nonnegative")
    rng = np.random.default_rng(seed)
    n = n_x + n_y

    if delta > 0:
        R = rng.standard_normal((n, n))
        G = R @ R.T
        del R
        G *= delta / np.linalg.norm(G, 2)
    else:
        G = np.zeros((n, n))
    c = rng.standard_normal(n) * 0.1 if delta > 0 else np.zeros(n)

    if coupling_norm > 0:
        K = rng.standard_normal((n_y, n_x))
        K *= coupling_norm / np.linalg.norm(K, 2)
    else:
        K = np.zeros((n_y, n_x))

    x_star = rng.standard_normal(n_x) if (delta > 0 or coupling_norm > 0) \
        else np.zeros(n_x)
    y_star = rng.standard_normal(n_y) if (delta > 0 or coupling_norm > 0) \
        else np.zeros(n_y)
    z_star = np.concatenate([x_star, y_star])

    gz = G @ z_star + c
    kx = -(gz[:n_x] + mu * x_star + K.T @ y_star)
    ky = gz[n_x:] + nu * y_star - K @ x_star
    # with these linear terms: F(z*) = grad g(z*) + H(z*) = 0, where
    # H = (mu x + K' y + kx, nu y - K x - ky)

    rx = max(10.0 * np.linalg.norm(x_star), 1.0)
    ry = max(10.0 * np.linalg.norm(y_star), 1.0)
    X = Ball(np.zeros(n_x), rx)
    Y = Ball(np.zeros(n_y), ry)

    Hu1 = -np.block([[mu * np.eye(n_x), K.T], [K, -nu * np.eye(n_y)]])
    # u1 = -g - h, u2 = -g + h
    L = max(np.linalg.norm(-G - Hu1, 2), np.linalg.norm(-G + Hu1, 2)) * (1 + 1e-9)
    L = max(L, mu, nu, delta)

    def g_val(x, y):
        z = np.concatenate([x, y])
        return float(0.5 * z @ np.dot(G, z) + c @ z)

    def h_val(x, y):
        return float(0.5 * mu * (x @ x) - 0.5 * nu * (y @ y)
                     + y @ np.dot(K, x) + kx @ x + ky @ y)

    # F's Jacobian G + [[mu I, K'], [-K, nu I]], built in place, and R
    # freed above: the set-up's peak memory counts each n x n array alive
    J = G.copy()
    J[:n_x, n_x:] += K.T
    J[n_x:, :n_x] -= K
    J.flat[::n + 1] += np.repeat([mu, nu], [n_x, n_y])
    b = c + np.concatenate([kx, -ky])

    def affine(M, v):  # z -> M z + v in a fresh array
        def apply(z):
            out = np.dot(M, z)
            out += v
            return out
        return apply

    return GameSpec(
        F=affine(J, b), coupling_grad=affine(G, c),
        L=float(L), mu=mu, nu=nu, delta=delta,
        X=X, Y=Y,
        known_ne=JointPoint(x_star, y_star),
        u1=lambda x, y: -g_val(x, y) - h_val(x, y),
        u2=lambda x, y: -g_val(x, y) + h_val(x, y),
        h_structure=BilinearSaddleForm(K, ax=mu, ay=nu, bx=kx, by=-ky),
        monotone_modulus=min(mu, nu),
    )


# ---------------------------------------------------------------------------
# small closed-form examples
# ---------------------------------------------------------------------------

def stackelberg_example():
    """Two-versus-one dimensional game whose Nash point (5/8, 1, -3/4)
    differs from the leader-follower limit (40/63, 68/63, -46/63).

    u1(x, y) = -(x1-1)^2/2 - (x2-1)^2/2 + x1 y / 2
    u2(x, y) = x2 y / 2 - (y+1)^2
    on X = [0,1] x [1,2] and Y = [-1, 0].
    """
    X = Box([0.0, 1.0], [1.0, 2.0])
    Y = Box([-1.0], [0.0])

    def u1(x, y):
        return float(-0.5 * (x[0] - 1) ** 2 - 0.5 * (x[1] - 1) ** 2
                     + 0.5 * x[0] * y[0])

    def u2(x, y):
        return float(0.5 * x[1] * y[0] - (y[0] + 1) ** 2)

    # decomposition: h = (x1-1)^2/4 + (x2-1)^2/4 + (x2-x1) y/4 - (y+1)^2/2
    W = np.array([[-0.25, 0.25]])
    h_form = BilinearSaddleForm(W, ax=0.5, ay=1.0,
                                bx=np.array([-0.5, -0.5]),
                                by=np.array([1.0]))
    Hg = np.array([[0.5, 0.0, -0.25],
                   [0.0, 0.5, -0.25],
                   [-0.25, -0.25, 1.0]])
    delta = float(np.linalg.norm(Hg, 2))
    Hu1 = np.array([[-1.0, 0.0, 0.5], [0.0, -1.0, 0.0], [0.5, 0.0, 0.0]])
    Hu2 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.5, -2.0]])
    L = float(max(np.linalg.norm(Hu1, 2), np.linalg.norm(Hu2, 2))) * (1 + 1e-9)

    return GameSpec.from_partials(
        lambda x, y: np.array([-(x[0] - 1) + 0.5 * y[0], -(x[1] - 1)]),
        lambda x, y: np.array([0.5 * x[0]]),
        lambda x, y: np.array([0.0, 0.5 * y[0]]),
        lambda x, y: np.array([0.5 * x[1] - 2 * (y[0] + 1)]),
        L=L, mu=0.5, nu=1.0, delta=delta,
        X=X, Y=Y,
        known_ne=JointPoint(np.array([5 / 8, 1.0]), np.array([-3 / 4])),
        u1=u1, u2=u2,
        h_structure=h_form,
        monotone_modulus=0.5,
    )


def stackelberg_reference_points():
    """(nash, leader_follower_limit) for the closed-form example."""
    nash = JointPoint(np.array([5 / 8, 1.0]), np.array([-3 / 4]))
    stack = JointPoint(np.array([40 / 63, 68 / 63]), np.array([-46 / 63]))
    return nash, stack


def stackelberg_demo():
    """Best-response dynamic on the closed-form two-by-one example.

    The second player's best response has the closed form
    y(x) = clip(x2/4 - 1, [-1, 0]); minimizing f(x) = -u1(x, y(x)) by
    projected gradient converges to the leader-follower point, which is
    not the equilibrium of the simultaneous game. It stops at a step that
    moves x by at most 1e-12 times the stepsize, or after 200,000 steps.
    """
    X = stackelberg_example().X

    def y_of_x(x):
        return np.clip(x[1] / 4.0 - 1.0, -1.0, 0.0)

    def f_grad(x):
        yv = y_of_x(x)
        # f(x) = (x1-1)^2/2 + (x2-1)^2/2 - x1 y(x) / 2
        g1 = (x[0] - 1.0) - 0.5 * yv
        g2 = (x[1] - 1.0)
        if -1.0 < yv < 0.0:
            g2 += -0.5 * x[0] * 0.25  # chain rule through the follower
        return np.array([g1, g2])

    x = X.canonical_point()
    step = 0.5
    for _ in range(200000):
        x, x_old = X.project(x - step * f_grad(x)), x
        if np.linalg.norm(x - x_old) <= 1e-12 * step:
            break
    return JointPoint(x, np.array([y_of_x(x)]))


def matching_pennies():
    """Zero-sum 2x2 game with the uniform mixed equilibrium, mu = nu = 0."""
    M = SparseMatrix.from_dense(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    game = fee_game(M, 0.0, 0.0, 0.0)
    return dataclasses.replace(
        game.game_spec(),
        known_ne=JointPoint(np.array([0.5, 0.5]), np.array([0.5, 0.5])))
