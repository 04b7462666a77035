"""Compressed-sparse-row matrix kernels.

Every oracle in the library reduces to the kernels here: CSR
matrix-vector products (forward, transposed, and the joint product of a
fee game's operator) and a power-iteration spectral norm.
Each row of a product is summed by one thread, so runs are bitwise
reproducible.

Each sparsity pattern has one ``_Layout``, shared by every matrix made
from it with ``with_values`` or ``scaled``. Per direction, built on first
use, it holds the pattern's int32 index arrays with the rows (for the
transpose: the columns) stably sorted by length, the sigma-sorting step
of SELL-C-sigma (Kreutzer et al. 2014): rows of one length run back to
back, so the branch that ends each row's loop is predicted and the reads
of x overlap. A matrix caches only its values in those two orders.

The products call scipy's compiled CSR kernel (``csr_matvec``, the
routine that ``csr_matrix @ x`` ends in) on the grouped arrays into a
zeroed buffer and put the rows back in order with one ``take``. Each row
is still summed left to right from 0.0 in ascending column order
(ascending row order for the transpose), as ``csr_matrix @ x`` sums it;
only the order in which rows are visited changes. So every product is
bitwise equal to ``csr_matrix @ x``; ``tests/test_vecmat.py`` holds
that, since ``_sparsetools`` is private to scipy.

The kernel releases the interpreter lock, so a product of ``SPLIT_NNZ``
entries or more, in a process allowed two CPUs or more, is split at the
row where half its entries have passed (Williams et al. 2007). The
caller sums the rows before it and one daemon worker thread the rest,
each into its own slice of the output. The worker's rows are the longer
ones, which cost less per entry, so it ends about when the caller does
although it wakes later. Each row is still summed by one thread.

A fee game's operator is one such product, negated, with the
(n + m) x (n + m) matrix [[A', -mu I], [B, -nu I]] (``fee_operator``).
Each row holds A' or B's row in the order spmv_transpose or spmv sums
it, then its curvature entry last: s + (-mu) x_i is s - mu x_i in IEEE
arithmetic, signed zeros included, so the partials' bits hold.
"""

import os
import queue
import threading

import numpy as np
import scipy.sparse as _sp
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec


class SpectralNormError(RuntimeError):
    """Power iteration failed to converge; carries the last estimate."""

    def __init__(self, message, estimate):
        super().__init__(message)
        self.estimate = estimate


def _coo_indices(idx, n, name):
    """idx as int64, checked to hold integers in [0, n) only."""
    idx = np.asarray(idx)
    if idx.dtype.kind not in "iu" and (
            idx.dtype.kind != "f" or not np.all(np.isfinite(idx))
            or np.any(idx != np.floor(idx))):
        raise ValueError(f"{name} indices must be integers")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"{name} index out of range")
    return idx.astype(np.int64, copy=False)


class SparseMatrix:
    """CSR matrix with validated structure.

    Invariants checked at construction: row offsets monotone nondecreasing
    with length n_rows + 1, column indices strictly increasing within each
    row, and finite values.
    """

    __slots__ = ("n_rows", "n_cols", "row_offsets", "col_indices", "values",
                 "_layout", "_grouped")

    def __init__(self, n_rows, n_cols, row_offsets, col_indices, values,
                 validate=True):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.row_offsets = np.asarray(row_offsets, dtype=np.int64)
        self.col_indices = np.asarray(col_indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        self._layout = _Layout(self.n_rows, self.n_cols, self.row_offsets,
                               self.col_indices)
        self._grouped = [None, None]
        if validate:
            self._validate()

    def _validate(self):
        if self.n_rows <= 0 or self.n_cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        off = self.row_offsets
        if off.shape != (self.n_rows + 1,):
            raise ValueError("row_offsets must have length n_rows + 1")
        if off[0] != 0 or off[-1] != len(self.values):
            raise ValueError("row_offsets must start at 0 and end at nnz")
        if np.any(np.diff(off) < 0):
            raise ValueError("row_offsets must be nondecreasing")
        if len(self.col_indices) != len(self.values):
            raise ValueError("col_indices and values must have equal length")
        if len(self.col_indices):
            if self.col_indices.min() < 0 or self.col_indices.max() >= self.n_cols:
                raise ValueError("column index out of range")
            # strictly increasing inside each row: diffs may only be <= 0 at
            # row boundaries
            d = np.diff(self.col_indices)
            starts = off[1:-1] - 1  # positions of last element of each row
            bad = d <= 0
            bad[starts[(starts >= 0) & (starts < len(d))]] = False
            if np.any(bad):
                raise ValueError("col_indices must be strictly increasing per row")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("matrix values must be finite")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coo(cls, rows, cols, values, shape):
        """Build from coordinate triplets. Duplicate coordinates, and
        indices that are out of range or not integers, are an error."""
        n_rows, n_cols = shape
        rows = _coo_indices(rows, n_rows, "row")
        cols = _coo_indices(cols, n_cols, "column")
        values = np.asarray(values, dtype=np.float64)
        order = np.lexsort((cols, rows))
        rows, cols, values = rows[order], cols[order], values[order]
        if len(rows) > 1:
            same = (np.diff(rows) == 0) & (np.diff(cols) == 0)
            if np.any(same):
                raise ValueError("duplicate coordinates in COO input")
        offsets = np.concatenate(([0], np.cumsum(np.bincount(
            rows, minlength=n_rows))))
        return cls(n_rows, n_cols, offsets, cols, values)

    @classmethod
    def from_dense(cls, array):
        """Build from a dense 2-D array, dropping zeros."""
        a = np.asarray(array, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError("expected a 2-D array")
        rows, cols = np.nonzero(a)
        return cls.from_coo(rows, cols, a[rows, cols], a.shape)

    # -- basic views -------------------------------------------------------

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self):
        return len(self.values)

    def to_dense(self):
        out = np.zeros((self.n_rows, self.n_cols))
        rows = np.repeat(np.arange(self.n_rows), np.diff(self.row_offsets))
        out[rows, self.col_indices] = self.values
        return out

    def with_values(self, values):
        """Same pattern, new values (no revalidation of structure)."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != self.values.shape:
            raise ValueError("value array must match the sparsity pattern")
        if not np.all(np.isfinite(values)):
            raise ValueError("matrix values must be finite")
        out = SparseMatrix(self.n_rows, self.n_cols, self.row_offsets,
                           self.col_indices, values, validate=False)
        out._layout = self._layout
        return out

    def scaled(self, c):
        return self.with_values(self.values * float(c))


def _midpoint(indptr):
    """(nnz, the first row with nnz // 2 entries or more before it)."""
    nnz = int(indptr[-1])
    return nnz, int(np.searchsorted(indptr, nnz // 2))


class _GroupedRows:
    """One direction of a pattern in CSR form, rows stably sorted by length.

    Grouped row i is row ``perm[i]`` of the directed matrix, where
    ``inv[perm[i]] == i``; ``src`` maps each grouped entry to its position
    in the pattern's ``values``. Index arrays are int32 where they fit.
    """

    __slots__ = ("n_rows", "n_cols", "indptr", "indices", "inv", "nnz",
                 "mid", "src")

    def __init__(self, n_rows, n_cols, offsets, indices, src):
        idx = src.dtype
        lengths = np.diff(offsets)
        perm = np.argsort(lengths, kind="stable")
        lengths = lengths[perm]
        self.n_rows, self.n_cols = n_rows, n_cols
        self.indptr = np.zeros(n_rows + 1, dtype=idx)
        np.cumsum(lengths, out=self.indptr[1:])
        # pos[j]: where grouped entry j sits in the directed arrays
        pos = np.repeat((offsets[:-1][perm] - self.indptr[:-1]).astype(idx),
                        lengths)
        pos += np.arange(len(pos), dtype=idx)
        self.indices = indices.astype(idx, copy=False)[pos]
        self.src = src[pos]
        self.inv = np.empty(n_rows, dtype=np.intp)
        self.inv[perm] = np.arange(n_rows)
        self.nnz, self.mid = _midpoint(self.indptr)


class _JointRows:
    """The rows of [[P', D], [Q, D]] for m x n patterns P, Q and D
    diagonal: P's side 1 (its columns, shifted by n), then Q's side 0,
    each row in its side's grouped place and followed by its diagonal
    entry. When P and Q hold equally many entries and n == m, as at
    the paper's scale, half the entries lie before row n, so a split
    product gives each player's rows to one thread."""

    __slots__ = _GroupedRows.__slots__[:-1]

    def __init__(self, top, bottom):
        n, m, k = top.n_rows, bottom.n_rows, top.nnz
        idx = np.int32 if n + m + k + bottom.nnz < 2**31 else np.int64
        self.n_rows = self.n_cols = n + m
        ends = top.indptr[1:], bottom.indptr[1:]
        # each row grows by its diagonal entry
        self.indptr = np.arange(n + m + 1, dtype=idx)
        self.indptr[1:] += np.concatenate((ends[0], ends[1] + k))
        self.inv = np.concatenate((top.inv, bottom.inv + n))
        diag = np.empty(n + m, dtype=idx)  # the row each joint row is
        diag[self.inv] = np.arange(n + m)
        self.indices = np.concatenate((
            np.insert(top.indices + n, ends[0], diag[:n]),
            np.insert(bottom.indices, ends[1], diag[n:])), dtype=idx)
        self.nnz, self.mid = _midpoint(self.indptr)


class _Layout:
    """Index arrays of one sparsity pattern, shared by all its matrices.

    Side 0 holds the pattern's rows, side 1 its columns (the rows of the
    transpose, each in ascending row order); each is built on first use.
    """

    __slots__ = ("_pattern", "_sides", "_joint")

    def __init__(self, n_rows, n_cols, row_offsets, col_indices):
        self._pattern = (n_rows, n_cols, row_offsets, col_indices)
        self._sides, self._joint = [None, None], None

    def side(self, transposed):
        s = self._sides[transposed]
        if s is None:
            n_rows, n_cols, offsets, cols = self._pattern
            nnz = len(cols)
            src = np.arange(nnz, dtype=np.int32 if max(n_rows, n_cols, nnz)
                            < 2**31 else np.int64)
            if transposed:
                # the transpose in CSR form, each entry carrying its
                # position as its value; rows ascend within each column
                t = _sp.csr_matrix((src, cols, offsets),
                                   shape=(n_rows, n_cols)).tocsc()
                s = _GroupedRows(n_cols, n_rows, t.indptr, t.indices, t.data)
            else:
                s = _GroupedRows(n_rows, n_cols, offsets, cols, src)
            self._sides[transposed] = s
        return s

    def joint(self, other):
        """_JointRows of this pattern and other's; the last is kept."""
        key = None if other is self else other  # no cycle through self
        if self._joint is None or self._joint[0] is not key:
            self._joint = key, _JointRows(self.side(1), other.side(0))
        return self._joint[1]


# entries at and above which a product is split between two threads:
# the break-even of a ladder of products of 2^15 to 2^18 entries on a
# 2-core x86-64 machine, where the split slowed one of 85,726 entries and
# sped up one of 92,681 (the ladder is in CHANGES.md)
SPLIT_NNZ = 90_000

# CPUs this process may run on; keep_serial sets it to 1
_cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)


def keep_serial():
    """Run every product of this process on the calling thread, as the
    processes of a pool should, which already fill the cores."""
    global _cpus
    _cpus = 1


class _Job:
    """One half product handed to the worker, with its own completion, so
    that callers on several threads never take each other's."""

    __slots__ = ("args", "done", "error")

    def __init__(self, args):
        self.args, self.error = args, None
        self.done = threading.Lock()
        self.done.acquire()

    def wait(self):
        """Wait for the worker to finish the job; raise what it raised."""
        self.done.acquire()
        if self.error is not None:
            raise self.error


def _serve(jobs):
    while True:
        job = jobs.get()
        try:
            _csr_matvec(*job.args)
        except BaseException as exc:  # raised again in the caller
            job.error = exc
        job.done.release()
        del job  # keep no product's arrays alive between jobs


_jobs = None  # the worker thread's queue, made by the first split product
_start = threading.Lock()


def _submit(*args):
    """A _Job running _csr_matvec(*args) on the worker thread."""
    global _jobs
    with _start:
        if _jobs is None:
            _jobs = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(_jobs,), name="nzs-vecmat",
                             daemon=True).start()
        job = _Job(args)
        _jobs.put(job)
    return job


def _forget_worker():
    """In a forked child, which has no worker thread and may have copied
    _start held: start afresh."""
    global _jobs, _start
    _jobs, _start = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _run(rows, values, v):
    """rows' product with values and v, put back in row order."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (rows.n_cols,):
        raise ValueError(f"dimension mismatch: the product takes length "
                         f"{rows.n_cols}, the vector has shape {v.shape}")
    v = np.ascontiguousarray(v)
    out = np.zeros(rows.n_rows)
    if rows.nnz < SPLIT_NNZ or _cpus < 2:
        _csr_matvec(rows.n_rows, rows.n_cols, rows.indptr, rows.indices,
                    values, v, out)
    else:
        mid = rows.mid
        job = _submit(rows.n_rows - mid, rows.n_cols, rows.indptr[mid:],
                      rows.indices, values, v, out[mid:])
        try:
            _csr_matvec(mid, rows.n_cols, rows.indptr, rows.indices, values,
                        v, out)
        finally:
            job.wait()
    return out.take(rows.inv)


def _product(A, transposed, v):
    """A @ v (A.T @ v if transposed), A's values kept in grouped order."""
    rows = A._layout.side(transposed)
    if A._grouped[transposed] is None:
        A._grouped[transposed] = A.values[rows.src]
    return _run(rows, A._grouped[transposed], v)


def spmv(A, x):
    """A @ x, each row summed left to right by one thread, so repeated
    calls are bitwise identical."""
    return _product(A, 0, x)


def spmv_transpose(A, y):
    """A.T @ y, each column summed in row order by one thread."""
    return _product(A, 1, y)


def _gather(side, values, diag, out):
    """out = side's rows of values, each followed by diag: one half of a
    _JointRows' values. Rows of one length fill one block of out, so no
    copy of the whole side is made."""
    ptr = side.indptr
    lengths = np.diff(ptr)
    firsts = np.flatnonzero(np.diff(lengths, prepend=-1))
    for a, b in zip(firsts, [*firsts[1:], side.n_rows]):
        k = int(lengths[a])
        block = out[ptr[a] + a:ptr[b] + b].reshape(b - a, k + 1)
        block[:, :k] = values[side.src[ptr[a]:ptr[b]]].reshape(b - a, k)
        block[:, k] = diag


def fee_operator(A, B, mu, nu):
    """z -> -([[A.T, -mu I], [B, -nu I]] @ z), the operator of a fee game;
    at z = (x, y) bitwise equal to -(spmv_transpose(A, y) - mu x) and
    -(spmv(B, x) - nu y). Its layout (_Layout.joint) and values are
    gathered on the first call."""
    state = []

    def F(z):
        if not state:
            rows = A._layout.joint(B._layout)
            values = np.empty(rows.nnz)
            top = int(rows.indptr[A.n_cols])
            _gather(A._layout.side(1), A.values, -mu, values[:top])
            _gather(B._layout.side(0), B.values, -nu, values[top:])
            state[:] = rows, values
        out = _run(*state, z)
        return np.negative(out, out=out)

    return F


def spectral_norm(A, tol=1e-8, max_iter=10000, seed=0):
    """Largest singular value by power iteration on A.T A.

    Returns sigma with |sigma - ||A||_2| <= tol * ||A||_2 for generic
    matrices (relative-change test must hold on three consecutive sweeps).

    Raises SpectralNormError (carrying the last estimate) if max_iter is
    exhausted first.

    Iterates on 2**-e A, whose largest |entry| lies in [0.5, 1), so that
    squared norms neither overflow nor underflow; scaling by a power of
    two is exact, so the result is that of the iteration on A itself.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    amax = np.max(np.abs(A.values), initial=0.0)
    if amax == 0.0:  # no entries, or only stored zeros
        return 0.0
    e = int(np.frexp(amax)[1])
    A = A.with_values(np.ldexp(A.values, -e))
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(A.n_cols)  # zero with probability 0
    v /= np.linalg.norm(v)
    lam_prev = 0.0
    streak = 0
    for _ in range(max_iter):
        w = spmv(A, v)
        lam = float(w @ w)  # Rayleigh quotient of A.T A at unit v
        if lam == 0.0:
            v = rng.standard_normal(A.n_cols)
            v /= np.linalg.norm(v)
            continue
        v = spmv_transpose(A, w)
        v /= np.linalg.norm(v)
        if abs(lam - lam_prev) <= tol * lam:
            streak += 1
            if streak >= 3:
                return float(np.ldexp(np.sqrt(lam), e))
        else:
            streak = 0
        lam_prev = lam
    raise SpectralNormError(
        f"power iteration did not converge in {max_iter} sweeps",
        estimate=float(np.ldexp(np.sqrt(lam_prev), e)))
