"""Feasible sets: projection, linear minimization, diameter.

Supported sets are probability simplices, Euclidean balls, boxes, and
products of those. All projections and linear-minimization oracles are
exact (up to rounding). Simplex projection finds its threshold by
Newton's method without sorting, and a Simplex starts each projection at
the threshold of its last one. A projection writes into the array out
when given, which may be its input itself, with the bits of the fresh
result; the solvers' steps project each vector they have just built in
place.
"""

import math

import numpy as np

_NON_FINITE = "cannot project a vector with a non-finite entry onto the simplex"


def project_simplex(v, hint=None):
    """Euclidean projection of v onto the probability simplex.

    Points already feasible within 1e-12 mass slack are returned
    unchanged, which makes the projection exactly idempotent. Otherwise
    the result is max(v - tau, 0) at the root tau of the convex,
    decreasing f(t) = sum(max(v - t, 0)) - 1, found by Newton's method
    without sorting (Michelot 1986; Condat 2016). Each pass sets
    tau = (v . 1{v > t} - 1)/|{v > t}|, the sum a BLAS dot. From below
    the root the active set only shrinks; from above, one pass lands
    below it. The passes use t = tau - 2**-30 (1 + |tau|), a shift wider
    than tau's rounding, until the active count repeats, then t = tau
    until the count stops falling. The shifted passes end on one set from
    any start, so the result has the same bits whether they start at
    ``hint`` (a Simplex passes its last threshold: about three passes per
    solver step) or at the mean excess (sum(v) - 1)/n, which is at or
    below the root and is used without a hint or for one at or above
    max(v). Entries within rounding of the root may fall either side, so
    this rule and the sort-and-threshold rule it replaced (Duchi et al.
    2008) can differ in the last bits. Where max(v - tau, 0) rounds too
    coarsely at the scale of |tau| for the mass slack, its active part is
    projected once more.
    """
    return _project_simplex(v, None, hint)[0]


def _project_simplex(v, out, hint):
    """(projection, threshold); the threshold is None where v is returned.
    The projection is written into out, which may be v; None makes a fresh
    array."""
    n = v.shape[0]
    if out is None:
        out = np.empty(n)
    if n == 1:
        out[0] = 1.0
        return out, None
    low = v.min()
    if low >= 0.0 and abs(v.sum() - 1.0) <= 1e-12:
        np.copyto(out, v)
        return out, None
    if not math.isfinite(low):  # a NaN or -inf; +inf ends with no entry active
        raise ValueError(_NON_FINITE)
    tau = float(v.sum() - 1.0) / n if hint is None else hint
    last, slack = -1, 2.0 ** -30
    for _ in range(2 * n + 3):  # n + 1 passes a phase, one from above
        active = v > tau - slack * (1.0 + abs(tau))
        count = int(np.count_nonzero(active))
        if count == last or (count > last and not slack):
            if not slack:  # at t = tau the count stopped falling
                break
            slack = 0.0  # the shifted passes settled: go on at t = tau
            continue
        if count == 0:
            if not np.all(np.isfinite(v)):
                raise ValueError(_NON_FINITE)
            if last < 0 and hint is not None:  # a hint at or above max(v)
                return _project_simplex(v, out, None)
            # at |v| beyond 2**53 even max(v) > max(v) - 1 fails; shifting
            # v along the ones vector leaves its projection unchanged
            top = float(v.max())
            out, tau = _project_simplex(v - top, out, None)
            return out, tau + top
        last = count
        tau = float(np.dot(v, active) - 1.0) / count
    np.subtract(v, tau, out=out)
    np.maximum(out, 0.0, out=out)
    if count * abs(tau) > 256.0:
        # out rounds at the scale of tau, so its mass may miss 1 by more
        # than the 1e-12 slack; its active part projects at the scale of 1
        out[active] = _project_simplex(out[active], None, None)[0]
    return out, tau


class FeasibleSet:
    """Interface: project, lmo, diameter, canonical_point, contains."""

    dimension = 0

    def project(self, v, out=None):
        """The Euclidean projection of v onto the set, in a fresh array
        with v untouched. With out, an array of the set's shape that may
        be v itself, the projection is written into out and out returned,
        with the same bits; v must then be an array of that shape too."""
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

    def _operands(self, v, out):
        """(v, out) of a projection: _check_dim's v and a fresh out when
        out is None, else the two arrays after their shapes are compared,
        since the solvers' steps pass arrays they have just built."""
        if out is None:
            return self._check_dim(v), np.empty(self.dimension)
        if out.shape != v.shape or v.shape != (self.dimension,):
            raise ValueError(f"dimension mismatch: set has dimension "
                             f"{self.dimension}, vector has shape {v.shape}, "
                             f"out has shape {out.shape}")
        return v, out


class Simplex(FeasibleSet):
    def __init__(self, n):
        if n < 1:
            raise ValueError("simplex dimension must be >= 1")
        self.dimension = int(n)
        self._tau = None  # the last threshold, the next projection's hint

    def project(self, v, out=None):
        w, tau = _project_simplex(*self._operands(v, out), self._tau)
        if tau is not None:
            self._tau = tau
        return w

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
        if not self.radius > 0:  # also a NaN radius
            raise ValueError("radius must be positive")
        if not np.all(np.isfinite(self.center)):
            raise ValueError("center must be finite")
        self.dimension = self.center.shape[0]
        # v - 0.0 is v, -0.0 included, so v - center is skipped at the
        # origin; a -0.0 entry of the center would turn -0.0 into +0.0
        self._at_origin = not (np.any(self.center)
                               or np.any(np.signbit(self.center)))

    def project(self, v, out=None):
        v, out = self._operands(v, out)
        d = v if self._at_origin else v - self.center
        nd = math.sqrt(d.dot(d))  # np.linalg.norm(d), without its wrapper
        # the slack absorbs rescaling roundoff so projecting twice is exact
        if nd <= self.radius * (1.0 + 1e-12):
            if out is not v:
                np.copyto(out, v)
        else:  # center + d r/nd, also at the origin: + 0.0 makes -0.0 +0.0
            np.multiply(d, self.radius / nd, out=out)
            out += self.center
        return out

    def lmo(self, c):
        c = self._check_dim(c)
        nc = math.sqrt(c.dot(c))
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
        # a NaN bound fails lo <= hi; infinite bounds are allowed
        if self.lo.shape != self.hi.shape or not np.all(self.lo <= self.hi):
            raise ValueError("box requires lo <= hi coordinatewise")
        self.dimension = self.lo.shape[0]

    def project(self, v, out=None):
        v, out = self._operands(v, out)
        return np.clip(v, self.lo, self.hi, out=out)

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

    def project(self, v, out=None):
        v, out = self._operands(v, out)
        for p, s, o in zip(self.parts, self._split(v), self._split(out)):
            p.project(s, o)
        return out

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

