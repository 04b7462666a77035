"""Feasible sets: projection, linear minimization, diameter.

Supported sets are probability simplices, Euclidean balls, boxes, and
products of those. All projections and linear-minimization oracles are
exact (up to rounding); simplex projection uses the sort-and-threshold
rule.
"""

import math

import numpy as np


def project_simplex(v, ranks=None):
    """Euclidean projection of v onto the probability simplex.

    Points already feasible within 1e-12 mass slack are returned
    unchanged, which makes the projection exactly idempotent. ``ranks``
    is the vector 1.0, ..., n; Simplex passes a cached copy.

    Sort-and-threshold rule (Duchi et al. 2008): u is v sorted in
    descending order, cs[j] = u[0] + ... + u[j] - 1 summed left to right,
    k + 1 counts the j with u[j] (j + 1) > cs[j], and the result is
    max(v - cs[k]/(k + 1), 0). Solver iterates, and so query counts, are
    pinned bit for bit, so this operation order must not change.
    """
    n = v.shape[0]
    if n == 1:
        return np.ones(1)
    u = np.negative(v)
    u.sort()
    np.negative(u, out=u)  # v in descending order
    if u[-1] >= 0.0 and abs(v.sum() - 1.0) <= 1e-12:
        return v.copy()
    if ranks is None:
        ranks = np.arange(1.0, n + 1)
    cs = np.add.accumulate(u)
    cs -= 1.0
    u *= ranks
    k = np.count_nonzero(u > cs) - 1
    if k < 0:
        # at |v| beyond 2**53 even u[0] > u[0] - 1 fails; shifting v along
        # the ones vector leaves its projection unchanged
        if not np.all(np.isfinite(v)):
            raise ValueError("cannot project a vector with a non-finite "
                             "entry onto the simplex")
        return project_simplex(v - v.max(), ranks)
    tau = cs[k] / (k + 1)
    w = v - tau
    np.maximum(w, 0.0, out=w)
    return w


class FeasibleSet:
    """Interface: project, lmo, diameter, canonical_point, contains."""

    dimension = 0

    def project(self, v):
        raise NotImplementedError

    def lmo(self, c):
        """argmin over the set of <c, w>, ties broken toward lowest index."""
        raise NotImplementedError

    def diameter(self):
        raise NotImplementedError

    def canonical_point(self):
        """A cheap strictly feasible starting point."""
        raise NotImplementedError

    def contains(self, v, tol=1e-10):
        v = np.asarray(v, dtype=np.float64)
        return np.linalg.norm(self.project(v) - v) <= tol

    def _check_dim(self, v):
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dimension,):
            raise ValueError(f"dimension mismatch: set has dimension "
                             f"{self.dimension}, vector has shape {v.shape}")
        return v


class Simplex(FeasibleSet):
    def __init__(self, n):
        if n < 1:
            raise ValueError("simplex dimension must be >= 1")
        self.dimension = int(n)
        self._ranks = np.arange(1.0, self.dimension + 1)

    def project(self, v):
        return project_simplex(self._check_dim(v), self._ranks)

    def lmo(self, c):
        c = self._check_dim(c)
        out = np.zeros(self.dimension)
        out[int(np.argmin(c))] = 1.0  # argmin returns the lowest tied index
        return out

    def diameter(self):
        return np.sqrt(2.0) if self.dimension >= 2 else 0.0

    def canonical_point(self):
        return np.full(self.dimension, 1.0 / self.dimension)

    def __repr__(self):
        return f"Simplex({self.dimension})"


class Ball(FeasibleSet):
    def __init__(self, center, radius):
        self.center = np.asarray(center, dtype=np.float64)
        self.radius = float(radius)
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        self.dimension = self.center.shape[0]

    def project(self, v):
        v = self._check_dim(v)
        d = v - self.center
        nd = math.sqrt(d @ d)  # np.linalg.norm(d), without its wrapper
        # the slack absorbs rescaling roundoff so projecting twice is exact
        if nd <= self.radius * (1.0 + 1e-12):
            return v.copy()
        return self.center + d * (self.radius / nd)

    def lmo(self, c):
        c = self._check_dim(c)
        nc = math.sqrt(c @ c)
        if nc == 0.0:
            return self.center.copy()
        return self.center - c * (self.radius / nc)

    def diameter(self):
        return 2.0 * self.radius

    def canonical_point(self):
        return self.center.copy()

    def __repr__(self):
        return f"Ball(dim={self.dimension}, r={self.radius})"


class Box(FeasibleSet):
    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=np.float64)
        self.hi = np.asarray(hi, dtype=np.float64)
        if self.lo.shape != self.hi.shape or np.any(self.lo > self.hi):
            raise ValueError("box requires lo <= hi coordinatewise")
        self.dimension = self.lo.shape[0]

    def project(self, v):
        return np.clip(self._check_dim(v), self.lo, self.hi)

    def lmo(self, c):
        c = self._check_dim(c)
        # hi where the cost is negative, lo elsewhere (ties go to lo)
        return np.where(c < 0, self.hi, self.lo)

    def diameter(self):
        return float(np.linalg.norm(self.hi - self.lo))

    def canonical_point(self):
        return 0.5 * (self.lo + self.hi)

    def __repr__(self):
        return f"Box(dim={self.dimension})"


class ProductSet(FeasibleSet):
    """Cartesian product acting on concatenated coordinates."""

    def __init__(self, parts):
        self.parts = list(parts)
        if not self.parts:
            raise ValueError("product of zero sets")
        dims = [p.dimension for p in self.parts]
        self.offsets = np.concatenate([[0], np.cumsum(dims)])
        self.dimension = int(self.offsets[-1])

    def _split(self, v):
        return [v[self.offsets[i]:self.offsets[i + 1]]
                for i in range(len(self.parts))]

    def project(self, v):
        v = self._check_dim(v)
        return np.concatenate([p.project(s)
                               for p, s in zip(self.parts, self._split(v))])

    def lmo(self, c):
        c = self._check_dim(c)
        return np.concatenate([p.lmo(s)
                               for p, s in zip(self.parts, self._split(c))])

    def diameter(self):
        return float(np.sqrt(sum(p.diameter() ** 2 for p in self.parts)))

    def canonical_point(self):
        return np.concatenate([p.canonical_point() for p in self.parts])

    def __repr__(self):
        return f"ProductSet({self.parts!r})"

