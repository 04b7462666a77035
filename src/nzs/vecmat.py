"""Compressed-sparse-row matrix kernels.

Every oracle in the library reduces to the kernels here: CSR
matrix-vector products (forward, transposed, and the stacked pair
[A.T y, B x] of a fee game's whole-game query) and a power-iteration
spectral norm. Products run row-sequentially so serial runs are
bitwise reproducible.

Each sparsity pattern has one ``_Layout``, shared by every matrix made
from it with ``with_values`` or ``scaled``. Per direction, built on first
use, it holds the pattern's int32 index arrays with the rows (for the
transpose: the columns) stably sorted by length, the sigma-sorting step
of SELL-C-sigma (Kreutzer et al. 2014): rows of one length run back to
back, so the branch that ends each row's loop is predicted and the reads
of x overlap. A matrix caches only its values in those two orders.

The products call scipy's compiled CSR kernel (``csr_matvec``, the
routine that ``csr_matrix @ x`` ends in) on the grouped arrays into a
zeroed buffer and put the rows back in order with one ``take``; the
stacked pair runs both products into one buffer. Each row
is still summed left to right from 0.0 in ascending column order
(ascending row order for the transpose), as ``csr_matrix @ x`` sums it;
only the order in which rows are visited changes. So every product is
bitwise equal to ``csr_matrix @ x``; ``tests/test_vecmat.py`` holds
that, since ``_sparsetools`` is private to scipy.
"""

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
        offsets = np.zeros(n_rows + 1, dtype=np.int64)
        np.add.at(offsets, rows + 1, 1)
        np.cumsum(offsets, out=offsets)
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


class _GroupedRows:
    """One direction of a pattern in CSR form, rows stably sorted by length.

    Grouped row i is row ``perm[i]`` of the directed matrix, where
    ``inv[perm[i]] == i``; ``src`` maps each grouped entry to its position
    in the pattern's ``values``. Index arrays are int32 where they fit.
    """

    __slots__ = ("n_rows", "n_cols", "indptr", "indices", "src", "inv")

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


class _Layout:
    """Index arrays of one sparsity pattern, shared by all its matrices.

    Side 0 holds the pattern's rows, side 1 its columns (the rows of the
    transpose, each in ascending row order); each is built on first use.
    """

    __slots__ = ("_pattern", "_sides")

    def __init__(self, n_rows, n_cols, row_offsets, col_indices):
        self._pattern = (n_rows, n_cols, row_offsets, col_indices)
        self._sides = [None, None]

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


def _grouped_product(A, transposed, v, out):
    """A @ v (A.T @ v if transposed) into the zeroed out, rows grouped."""
    rows = A._layout.side(transposed)
    values = A._grouped[transposed]
    if values is None:
        values = A._grouped[transposed] = A.values[rows.src]
    _csr_matvec(rows.n_rows, rows.n_cols, rows.indptr, rows.indices, values,
                np.ascontiguousarray(v), out)
    return rows


def _product(A, transposed, v):
    out = np.zeros(A.n_cols if transposed else A.n_rows)
    return out.take(_grouped_product(A, transposed, v, out).inv)


def spmv(A, x):
    """Row-sequential product A @ x.

    Summation runs left to right within each row, so repeated serial calls
    are bitwise identical.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.n_cols,):
        raise ValueError(f"dimension mismatch: matrix is {A.shape}, vector has "
                         f"length {x.shape}")
    return _product(A, 0, x)


def spmv_transpose(A, y):
    """Row-sequential product A.T @ y, each column summed in row order."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (A.n_rows,):
        raise ValueError(f"dimension mismatch: matrix is {A.shape}, vector has "
                         f"length {y.shape}")
    return _product(A, 1, y)


def spmv_stacked(A, y, B, x):
    """[A.T @ y, B @ x] in one fresh array, bitwise equal to
    spmv_transpose(A, y) and spmv(B, x) concatenated: both grouped
    products run into one zeroed buffer, whose halves are put in row
    order straight into the result.
    """
    y, x = np.asarray(y, dtype=np.float64), np.asarray(x, dtype=np.float64)
    if y.shape != (A.n_rows,) or x.shape != (B.n_cols,):
        raise ValueError(f"dimension mismatch: matrices {A.shape}, {B.shape}"
                         f" and vectors {y.shape}, {x.shape}")
    n = A.n_cols
    grouped, out = np.zeros(n + B.n_rows), np.empty(n + B.n_rows)
    top, bottom = grouped[:n], grouped[n:]
    # mode="clip" takes straight into out; "raise" would buffer
    top.take(_grouped_product(A, 1, y, top).inv, out=out[:n], mode="clip")
    bottom.take(_grouped_product(B, 0, x, bottom).inv, out=out[n:],
                mode="clip")
    return out


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
    v = rng.standard_normal(A.n_cols)
    for _ in range(4):
        nv = np.linalg.norm(v)
        if nv > 0:
            break
        v = rng.standard_normal(A.n_cols)
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
