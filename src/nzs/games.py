"""Game specification and utility decomposition.

A two-player game is given by two whole-game oracles at z = (x, y): the
game operator F = -(grad_x u1, grad_y u2) and the coupling part's
gradient grad g, with

    g = -(u1 + u2)/2      (common-loss coupling part)
    h = (-u1 + u2)/2      (strictly competitive part)
    H = (grad_x h, -grad_y h) = F - grad g

so H, the paper's strictly competitive operator, is read off the two
oracles. A game given by the four partial gradients of u1 and u2 is built
with ``GameSpec.from_partials``.
"""

import dataclasses
import functools
from dataclasses import dataclass, field

import numpy as np

from .vecmat import SparseMatrix, spmv, spmv_transpose, spectral_norm


@dataclass
class QueryLedger:
    """Oracle-call counters for one solver run.

    f_queries counts whole-game operator evaluations, h_queries counts
    competitive-part (subproblem) operator evaluations, g_queries counts
    coupling-gradient evaluations, and cert_queries counts evaluations
    spent on stopping certificates and inexactness checks, kept separate
    so reported totals can include or exclude certification cost.
    """

    f_queries: int = 0
    h_queries: int = 0
    g_queries: int = 0
    cert_queries: int = 0

    def main_queries(self):
        """Operator queries of the running algorithm itself."""
        return self.f_queries + self.h_queries


@dataclass(frozen=True)
class JointPoint:
    """A strategy pair (x, y)."""

    x: np.ndarray
    y: np.ndarray

    def concat(self):
        return np.concatenate([self.x, self.y])

    @classmethod
    def split(cls, z, n_x):
        z = np.asarray(z, dtype=np.float64)
        return cls(z[:n_x].copy(), z[n_x:].copy())

    def distance_to(self, other):
        dx = self.x - other.x
        dy = self.y - other.y
        return float(np.sqrt(dx @ dx + dy @ dy))


@dataclass
class BilinearSaddleForm:
    """Structured competitive part

        h(x, y) = <W x, y> + (ax/2)|x|^2 + <bx, x>
                           - (ay/2)|y|^2 - <by, y> + const

    with isotropic quadratics (the constant is not stored), which is all
    the inner solver needs for proximal maps realized as shifted
    projections. matvec(x) = W x and
    rmatvec(y) = W' y are bound once, when the form is built.
    """

    W: object                 # SparseMatrix or dense ndarray
    ax: float = 0.0
    ay: float = 0.0
    bx: np.ndarray = None
    by: np.ndarray = None
    _w_norm_cache: float = field(default=None, repr=False)
    matvec: callable = field(init=False, repr=False, compare=False)
    rmatvec: callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n_y, n_x = self.W.shape
        if self.bx is None:
            self.bx = np.zeros(n_x)
        if self.by is None:
            self.by = np.zeros(n_y)
        if isinstance(self.W, SparseMatrix):
            self.matvec = functools.partial(spmv, self.W)
            self.rmatvec = functools.partial(spmv_transpose, self.W)
        else:
            self.matvec = functools.partial(np.dot, self.W)
            self.rmatvec = functools.partial(np.dot, self.W.T)

    def w_norm(self):
        if self._w_norm_cache is None:  # power iteration on a sparse W
            self._w_norm_cache = spectral_norm(self.W) if isinstance(
                self.W, SparseMatrix) else float(np.linalg.norm(self.W, 2))
        return self._w_norm_cache

    def shifted(self, d_ax=0.0, d_ay=0.0, d_bx=None, d_by=None):
        return BilinearSaddleForm(
            self.W, self.ax + d_ax, self.ay + d_ay,
            self.bx if d_bx is None else self.bx + d_bx,
            self.by if d_by is None else self.by + d_by,
            self._w_norm_cache)


@dataclass
class GameSpec:
    """Oracle bundle and constants for one game.

    F(z) is the game operator -(grad_x u1, grad_y u2) at z = (x, y) and
    coupling_grad(z) the coupling part's gradient -(grad u1 + grad u2)/2,
    each in a fresh array. L is a smoothness bound for both utilities; mu
    and nu are the strong convexity/concavity moduli of the competitive
    part; delta bounds the coupling part's smoothness.
    monotone_modulus is a certified lower bound on the strong monotonicity
    of the game operator (defaults to min(mu, nu), which is valid whenever
    the coupling part is jointly convex).
    """

    F: callable
    coupling_grad: callable
    L: float
    mu: float
    nu: float
    delta: float
    X: object
    Y: object
    known_ne: JointPoint = None
    u1: callable = None
    u2: callable = None
    h_structure: BilinearSaddleForm = None
    best_response_x: callable = None
    best_response_y: callable = None
    monotone_modulus: float = None

    def __post_init__(self):
        if not (0 <= self.mu <= self.L and 0 <= self.nu <= self.L):
            raise ValueError("moduli must satisfy 0 <= mu, nu <= L")
        if not (0 <= self.delta <= self.L):
            raise ValueError("delta must lie in [0, L]")
        if self.monotone_modulus is None:
            self.monotone_modulus = min(self.mu, self.nu)
        if self.known_ne is not None:
            if not (self.X.contains(self.known_ne.x, 1e-8)
                    and self.Y.contains(self.known_ne.y, 1e-8)):
                raise ValueError("known_ne must be feasible")

    @classmethod
    def from_partials(cls, g1x, g1y, g2x, g2y, **fields):
        """The game whose utilities have the partial gradients
        g1x = grad_x u1, g1y = grad_y u1, g2x = grad_x u2, g2y = grad_y u2,
        each a callable of (x, y): F = -(g1x, g2y) and
        coupling_grad = -(g1x + g2x, g1y + g2y)/2, stacked into fresh
        arrays. fields are the other GameSpec fields."""
        nx = fields["X"].dimension

        def F(z):
            x, y = z[:nx], z[nx:]
            out = np.empty(z.shape[0])
            np.negative(g1x(x, y), out=out[:nx])
            np.negative(g2y(x, y), out=out[nx:])
            return out

        def coupling_grad(z):
            x, y = z[:nx], z[nx:]
            return -0.5 * np.concatenate([g1x(x, y) + g2x(x, y),
                                          g1y(x, y) + g2y(x, y)])

        return cls(F=F, coupling_grad=coupling_grad, **fields)

    # value helpers (require value oracles)

    def g_value(self, x, y):
        return -0.5 * (self.u1(x, y) + self.u2(x, y))

    def h_value(self, x, y):
        return 0.5 * (-self.u1(x, y) + self.u2(x, y))

    def diameter_sq(self):
        return self.X.diameter() ** 2 + self.Y.diameter() ** 2

    def shift_curvature(self, u1_x=0.0, u1_y=0.0, u2_x=0.0, u2_y=0.0,
                        **constants):
        """This game with u1 + u1_x |x|^2 + u1_y |y|^2 and
        u2 + u2_x |x|^2 + u2_y |y|^2. F moves by -2 (u1_x x, u2_y y) and
        coupling_grad by -((u1_x + u2_x) x, (u1_y + u2_y) y); oracles and
        values whose added coefficients are zero stay as they are.

        h_structure, mu and nu gain the competitive part's added curvature,
        u2_x - u1_x in x and u1_y - u2_y in y. L grows by twice the largest
        coefficient, delta by the largest curvature added to the coupling
        part, and monotone_modulus resets to min(mu, nu); constants
        override any field. Best responses and known_ne are kept only
        while no player's curvature in its own strategy moves.
        """
        d_ax, d_ay = u2_x - u1_x, u1_y - u2_y
        coupling = max(abs(u1_x + u2_x), abs(u1_y + u2_y))
        hs, nx = self.h_structure, self.X.dimension
        fields = dict(
            F=_minus_scaled(self.F, 2 * u1_x, 2 * u2_y, nx),
            coupling_grad=_minus_scaled(self.coupling_grad, u1_x + u2_x,
                                        u1_y + u2_y, nx),
            u1=_plus_squares(self.u1, u1_x, u1_y),
            u2=_plus_squares(self.u2, u2_x, u2_y),
            L=self.L + 2 * max(abs(u1_x), abs(u1_y), abs(u2_x), abs(u2_y)),
            mu=self.mu + d_ax, nu=self.nu + d_ay,
            delta=self.delta + coupling if coupling else self.delta,
            h_structure=None if hs is None else hs.shifted(d_ax, d_ay),
            monotone_modulus=None)
        if u1_x or u2_y:
            fields.update(known_ne=None, best_response_x=None,
                          best_response_y=None)
        return dataclasses.replace(self, **{**fields, **constants})


def _minus_scaled(oracle, kx, ky, nx):
    """z -> oracle(z) - (kx x, ky y) at z = (x, y), x of length nx; oracle
    itself when kx = ky = 0."""
    if not (kx or ky):
        return oracle

    def shifted(z):
        out = oracle(z)
        out[:nx] -= kx * z[:nx]
        out[nx:] -= ky * z[nx:]
        return out
    return shifted


def _plus_squares(u, cx, cy):
    """u(x, y) + cx |x|^2 + cy |y|^2 without its zero terms."""
    if u is None or not (cx or cy):
        return u

    def shifted(x, y):
        v = u(x, y)
        if cx:
            v += cx * float(x @ x)
        if cy:
            v += cy * float(y @ y)
        return v
    return shifted


def grad_g(game, z, ledger=None):
    """Coupling-part gradient -(grad u1 + grad u2)/2, as a JointPoint:
    one game.coupling_grad query on the concatenated point."""
    g = game.coupling_grad(np.concatenate([z.x, z.y]))
    if ledger is not None:
        ledger.g_queries += 1
    nx = z.x.shape[0]
    return JointPoint(g[:nx], g[nx:])


def operator_H(game, z, ledger=None):
    """Competitive-part operator (grad_x h, -grad_y h) = F - grad g: a
    query of each whole-game oracle, counted as one h query."""
    w = np.concatenate([z.x, z.y])
    H = game.F(w)
    H -= game.coupling_grad(w)
    if ledger is not None:
        ledger.h_queries += 1
    nx = z.x.shape[0]
    return JointPoint(H[:nx], H[nx:])
