"""Output checks made apart from the program, with numpy and scipy only.

Each check raises CheckFailed with a reason when an output is wrong. The
benchmark counts a solve whose output fails a check as a failed solve.
Nothing here imports nzs: the fee-game operator, the simplex projection,
the spectral norms and the displacement certificate are recomputed from
the raw CSR arrays of the payoff matrix, the fee rho and the curvatures
mu and nu.
"""

import json
import math
import struct

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import svds

# Relative slack for the recomputed certificate against eps. The recomputed
# value differs from the program's own only by rounding and by the
# power-iteration error of the program's norm estimates (about 1e-8).
CERT_SLACK = 1e-6
# Absolute slack on feasibility (simplex mass, signs, ball radius).
FEAS_TOL = 1e-9


class CheckFailed(Exception):
    """An output of the program is wrong."""


def as_point(values):
    return np.asarray(values, dtype=np.float64)


def concat(x, y):
    return np.concatenate([as_point(x), as_point(y)])


def read_instance_arrays(path):
    """Raw arrays and header of an nzs instance file: 8-byte tag, 8-byte
    little-endian header length, JSON header, then the arrays it lists."""
    dtypes = {"int64": "<i8", "float64": "<f8"}
    with open(path, "rb") as fh:
        fh.read(8)
        (length,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(length))
        arrays = {a["name"]: np.frombuffer(fh.read(8 * a["length"]),
                                           dtype=dtypes[a["dtype"]])
                  for a in header["arrays"]}
    return arrays, header


def project_simplex(v):
    """Euclidean projection onto the probability simplex (sort rule)."""
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v)[::-1]
    excess = np.cumsum(u) - 1.0
    ranks = np.arange(1, v.size + 1)
    r = int(np.nonzero(u - excess / ranks > 0)[0][-1]) + 1
    return np.maximum(v - excess[r - 1] / r, 0.0)


def check_simplex_point(p, dim, what="point"):
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (dim,):
        raise CheckFailed(f"{what} has shape {p.shape}, expected ({dim},)")
    if not np.all(np.isfinite(p)):
        raise CheckFailed(f"{what} has non-finite entries")
    if p.min() < -FEAS_TOL or abs(p.sum() - 1.0) > FEAS_TOL:
        raise CheckFailed(f"{what} is off the simplex (min {p.min():.3e}, "
                          f"sum - 1 = {p.sum() - 1.0:.3e})")


def check_ball_point(p, center, radius, what="point"):
    p = np.asarray(p, dtype=np.float64)
    if p.shape != np.shape(center) or not np.all(np.isfinite(p)):
        raise CheckFailed(f"{what} has the wrong shape or non-finite entries")
    dist = float(np.linalg.norm(p - center))
    if dist > radius * (1.0 + FEAS_TOL):
        raise CheckFailed(f"{what} lies outside its ball "
                          f"({dist:.6g} > {radius:.6g})")


def spectral_norm(csr):
    """Largest singular value by ARPACK, from a fixed start vector."""
    v0 = np.ones(min(csr.shape))
    return float(svds(csr, k=1, v0=v0, return_singular_vectors=False)[0])


class FeeGameReference:
    """The fee game of payoff matrix M (m x n, raw CSR arrays), rebuilt
    without the program.

    A = (1-rho) M+ - M- and B = -M+ + (1-rho) M-; player 1 plays x on the
    n-simplex with u1 = <A x, y> - mu|x|^2/2 + nu|y|^2/2 and player 2 plays
    y on the m-simplex with u2 = <B x, y> + mu|x|^2/2 - nu|y|^2/2. The game
    operator is F(x, y) = (mu x - A'y, nu y - B x).
    """

    def __init__(self, indptr, indices, data, shape, mu, nu):
        self.M = sp.csr_matrix((np.asarray(data, dtype=np.float64),
                                np.asarray(indices), np.asarray(indptr)),
                               shape=tuple(shape))
        self.mu, self.nu = float(mu), float(nu)
        self.m, self.n = self.M.shape
        data = self.M.data
        self.pos = self.M.copy()
        self.pos.data = np.where(data > 0, data, 0.0)
        self.neg = self.M.copy()
        self.neg.data = np.where(data < 0, -data, 0.0)
        self.norm = spectral_norm(self.M)
        self.norm_abs = spectral_norm(abs(self.M))

    def smoothness(self, rho):
        """L = |M| + rho |abs(M)| + max(mu, nu). It bounds both |A| and |B|
        from above, since A = M - rho M+ and B = -M + rho M-, and M+ and M-
        are entrywise dominated by abs(M)."""
        return self.norm + rho * self.norm_abs + max(self.mu, self.nu)

    def icl_smoothness(self, rho):
        """L of the convex reformulation ICL solves. It moves curvature
        b1|x|^2 and b2|y|^2 between the players with b1 b2 = beta^2,
        beta = rho |abs(M)| / 2 and b1 <= mu/2, b2 <= nu/2; the game
        operator is unchanged and L grows by 2 max(b1, b2)."""
        beta = 0.5 * rho * self.norm_abs
        mu, nu = self.mu, self.nu
        if 2 * beta <= min(mu, nu):
            shift = beta
        elif mu <= 2 * beta <= nu:
            shift = max(mu / 2, 2 * beta ** 2 / mu)
        elif nu <= 2 * beta <= mu:
            shift = max(nu / 2, 2 * beta ** 2 / nu)
        else:
            raise CheckFailed(f"rho = {rho} leaves the certifiably monotone "
                              "range")
        return self.smoothness(rho) + 2 * shift

    def certificate(self, rho, x, y, L):
        """Displacement certificate at (x, y): an upper bound on the squared
        distance to the equilibrium, with stepsize 1/(2L) and strong
        monotonicity modulus min(mu, nu)/2."""
        A = (1.0 - rho) * self.pos - self.neg
        B = (1.0 - rho) * self.neg - self.pos
        gamma = 1.0 / (2.0 * L)
        mod = min(self.mu, self.nu) / 2.0

        def step(px, py, gx, gy):
            return (project_simplex(px - gamma * gx),
                    project_simplex(py - gamma * gy))

        def F(px, py):
            return self.mu * px - A.T @ py, self.nu * py - B @ px

        xh, yh = step(x, y, *F(x, y))
        xp, yp = step(x, y, *F(xh, yh))
        t = mod * gamma
        coef = 4.0 / t ** 2 - 2.0 / t + 16.0
        return coef * float((xp - x) @ (xp - x) + (yp - y) @ (yp - y))

    def check_point(self, rho, x, y, eps, what="point", icl=False):
        """Feasibility and the recomputed certificate, at the stepsize of
        the game the method certified: the fee game for the baselines, its
        reformulation for ICL."""
        check_simplex_point(x, self.n, what + " x")
        check_simplex_point(y, self.m, what + " y")
        L = self.icl_smoothness(rho) if icl else self.smoothness(rho)
        cert = self.certificate(rho, x, y, L)
        if not cert <= eps * (1.0 + CERT_SLACK):
            raise CheckFailed(f"{what}: recomputed certificate {cert:.4e} "
                              f"exceeds eps = {eps:.1e}")
        return cert


def check_report(status, certified, eps, what="solve"):
    if status != "converged":
        raise CheckFailed(f"{what} reports status {status!r}")
    if certified is None or not certified <= eps:
        raise CheckFailed(f"{what} reports certified squared distance "
                          f"{certified!r} above eps = {eps:.1e}")


def check_known_ne(z, z_star, certified, what="point"):
    """The squared distance to the constructed equilibrium must not exceed
    the certificate the solver reported."""
    d2 = float(np.sum((np.asarray(z) - np.asarray(z_star)) ** 2))
    if not d2 <= certified:
        raise CheckFailed(f"{what}: squared distance {d2:.4e} to known_ne "
                          f"exceeds its certificate {certified:.4e}")
    return d2


def check_pairwise(points, eps):
    """Points certified within sqrt(eps) of one equilibrium lie within
    2 sqrt(eps) of each other. Returns the names of the methods in a pair
    that is too far apart."""
    limit = 2.0 * math.sqrt(eps)
    names = sorted(points)
    bad = set()
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if np.linalg.norm(points[a] - points[b]) > limit:
                bad.update((a, b))
    return bad


def check_sweep_rows(rows, methods, rhos, seeds, eps):
    """Rows of an `nzs bench` CSV. Returns {(method, rho, seed): reason}
    for every cell that is missing or wrong."""
    bad = {}
    found = {}
    for r in rows:
        found[(r["method"], float(r["rho"]), int(r["seed"]))] = r
    for method in methods:
        for rho in rhos:
            for seed in seeds:
                key = (method, float(rho), int(seed))
                r = found.get(key)
                if r is None:
                    bad[key] = "row missing"
                    continue
                try:
                    cert = float(r["certified_sq_distance"])
                    h = int(r["queries_h"])
                    iters = int(r["iterations"])
                except (TypeError, ValueError):
                    bad[key] = "row has no result"
                    continue
                if not cert <= eps:
                    bad[key] = f"certified {cert:.3e} above eps"
                elif method == "ogda" and h != iters:
                    bad[key] = f"ogda spent {h} h queries in {iters} iterations"
                elif method == "eg" and h != 2 * iters:
                    bad[key] = f"eg spent {h} h queries in {iters} iterations"
    return bad
