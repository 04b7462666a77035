import os
import pickle
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp

from nzs import vecmat
from nzs.vecmat import (SparseMatrix, SpectralNormError, fee_operator,
                        spectral_norm, spmv, spmv_transpose)


def dense_row_reference(A, x):
    """Row-by-row left-to-right reference product, independent of the kernel."""
    out = np.zeros(A.n_rows)
    for i in range(A.n_rows):
        acc = 0.0
        for k in range(A.row_offsets[i], A.row_offsets[i + 1]):
            acc += A.values[k] * x[A.col_indices[k]]
        out[i] = acc
    return out


def identity(n):
    idx = np.arange(n, dtype=np.int64)
    return SparseMatrix(n, n, np.arange(n + 1, dtype=np.int64), idx,
                        np.ones(n))


def transpose(A):
    """A.T as a SparseMatrix in canonical CSR form, built by scipy."""
    t = sp.csr_matrix((A.values, A.col_indices, A.row_offsets),
                      shape=A.shape).T.tocsr()
    return SparseMatrix(A.n_cols, A.n_rows, t.indptr.astype(np.int64),
                        t.indices.astype(np.int64), t.data, validate=False)


def random_csr(rng, m, n, nnz):
    idx = rng.choice(m * n, size=nnz, replace=False)
    return SparseMatrix.from_coo(idx // n, idx % n,
                                 rng.uniform(-1, 1, nnz), (m, n))


FEE_A = np.array([[297.0, -200.0], [-100.0, 396.0]])


class TestStructureValidation:
    def test_bad_offsets(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, [0, 2, 1], [0, 1], [1.0, 2.0])

    def test_unsorted_columns_in_row(self):
        with pytest.raises(ValueError):
            SparseMatrix(1, 3, [0, 2], [2, 0], [1.0, 2.0])

    def test_duplicate_column_in_row(self):
        with pytest.raises(ValueError):
            SparseMatrix(1, 3, [0, 2], [1, 1], [1.0, 2.0])

    def test_nonfinite_values(self):
        with pytest.raises(ValueError):
            SparseMatrix(1, 2, [0, 1], [0], [np.nan])

    def test_duplicate_coo(self):
        with pytest.raises(ValueError):
            SparseMatrix.from_coo([0, 0], [1, 1], [1.0, 2.0], (2, 2))

    @pytest.mark.parametrize("index", [-2, 3])
    @pytest.mark.parametrize("axis", ["row", "column"])
    def test_coo_index_out_of_range(self, axis, index):
        rows, cols = ([index], [0]) if axis == "row" else ([0], [index])
        with pytest.raises(ValueError, match=f"{axis} index out of range"):
            SparseMatrix.from_coo(rows, cols, [1.0], (3, 3))

    @pytest.mark.parametrize("index", [0.5, np.nan, np.inf])
    @pytest.mark.parametrize("axis", ["row", "column"])
    def test_coo_index_not_an_integer(self, axis, index):
        rows, cols = ([index], [0]) if axis == "row" else ([0], [index])
        with pytest.raises(ValueError, match=f"{axis} indices must be integers"):
            SparseMatrix.from_coo(rows, cols, [1.0], (3, 3))

    def test_coo_integral_float_indices(self):
        A = SparseMatrix.from_coo([2.0, 0.0], [1.0, 2.0], [1.0, 2.0], (3, 3))
        assert np.array_equal(A.to_dense(), [[0, 0, 2], [0, 0, 0], [0, 1, 0]])

    def test_empty_rows_allowed(self):
        A = SparseMatrix(3, 2, [0, 0, 1, 1], [1], [5.0])
        assert A.to_dense().tolist() == [[0, 0], [0, 5.0], [0, 0]]


class TestSpmv:
    def test_identity(self):
        I2 = identity(2)
        assert spmv(I2, np.array([3.0, -1.0])).tolist() == [3.0, -1.0]

    def test_fee_matrix_hand_product(self):
        # hand multiply: (297 - 200)/2 = 48.5, (-100 + 396)/2 = 148
        A = SparseMatrix.from_dense(FEE_A)
        assert spmv(A, np.array([0.5, 0.5])).tolist() == [48.5, 148.0]

    def test_matches_row_reference_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            A = random_csr(rng, 23, 17, 60)
            x = rng.standard_normal(17)
            got = spmv(A, x)
            ref = dense_row_reference(A, x)
            assert np.array_equal(got, ref)

    def test_matches_dense_blas_within_tolerance(self):
        rng = np.random.default_rng(8)
        A = random_csr(rng, 40, 40, 300)
        x = rng.standard_normal(40)
        ref = A.to_dense() @ x
        err = np.max(np.abs(spmv(A, x) - ref))
        assert err <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_dimension_mismatch(self):
        A = identity(3)
        with pytest.raises(ValueError):
            spmv(A, np.zeros(4))

    def test_bitwise_repeatable(self):
        rng = np.random.default_rng(9)
        A = random_csr(rng, 100, 80, 400)
        x = rng.standard_normal(80)
        assert np.array_equal(spmv(A, x), spmv(A, x))


class TestScipyBitwise:
    """The products call scipy's private CSR kernel directly; they must
    stay bitwise equal to scipy's public csr_matrix @ x."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(11)
        # rows 0, 3 and 4 and columns 1 and 5 are empty
        gappy = SparseMatrix.from_coo([1, 1, 2, 2, 5], [0, 4, 2, 3, 0],
                                      rng.standard_normal(5), (6, 6))
        # every row holds 7 entries, so grouping by length moves no row
        even = SparseMatrix.from_coo(
            np.repeat(np.arange(40), 7),
            np.concatenate([rng.choice(35, 7, replace=False)
                            for _ in range(40)]),
            rng.standard_normal(280), (40, 35))
        # rows and columns of 0 to about 25 entries, grouped out of order
        big = random_csr(rng, 3000, 2500, 30_000)
        return [gappy, random_csr(rng, 60, 45, 500), even, big,
                random_csr(rng, 1, 30, 12), random_csr(rng, 30, 1, 9)]

    def test_spmv(self):
        rng = np.random.default_rng(12)
        for A in self.cases():
            ref = sp.csr_matrix((A.values, A.col_indices, A.row_offsets),
                                shape=A.shape)
            x = rng.standard_normal(A.n_cols) * 1e3
            assert np.array_equal(spmv(A, x), ref @ x)

    def test_spmv_transpose(self):
        rng = np.random.default_rng(13)
        for A in self.cases():
            ref = sp.csr_matrix((A.values, A.col_indices, A.row_offsets),
                                shape=A.shape)
            y = rng.standard_normal(A.n_rows) * 1e3
            assert np.array_equal(spmv_transpose(A, y),
                                  sp.csr_matrix(ref.T) @ y)

    def test_non_contiguous_and_integer_inputs(self):
        rng = np.random.default_rng(14)
        A = random_csr(rng, 20, 15, 90)
        ref = sp.csr_matrix((A.values, A.col_indices, A.row_offsets),
                            shape=A.shape)
        x = rng.standard_normal(30)[::2]
        y = rng.standard_normal(60)[::3]
        assert not x.flags.c_contiguous and not y.flags.c_contiguous
        assert np.array_equal(spmv(A, x), ref @ x)
        assert np.array_equal(spmv_transpose(A, y), sp.csr_matrix(ref.T) @ y)
        k = np.arange(15)
        assert np.array_equal(spmv(A, k), ref @ k.astype(np.float64))

    def test_scalar_rejected(self):
        with pytest.raises(ValueError):
            spmv(identity(1), np.float64(2.0))


class TestLayout:
    """One grouped layout per sparsity pattern; values per matrix."""

    def test_derived_matrices_share_the_layout(self):
        rng = np.random.default_rng(15)
        A = random_csr(rng, 80, 70, 600)
        x, y = rng.standard_normal(70), rng.standard_normal(80)
        spmv(A, x)
        spmv_transpose(A, y)  # both sides built before deriving
        derived = [A.with_values(rng.standard_normal(600)), A.scaled(-2.5)]
        derived.append(derived[0].scaled(0.5))
        for B in derived:
            assert B._layout is A._layout
            ref = sp.csr_matrix((B.values, B.col_indices, B.row_offsets),
                                shape=B.shape)
            assert np.array_equal(spmv(B, x), ref @ x)
            assert np.array_equal(spmv_transpose(B, y),
                                  sp.csr_matrix(ref.T) @ y)
        assert not np.array_equal(spmv(derived[1], x), spmv(A, x))

    def test_pickle_round_trip(self):
        rng = np.random.default_rng(16)
        A = random_csr(rng, 90, 60, 700)
        B = A.scaled(3.0)
        x, y = rng.standard_normal(60), rng.standard_normal(90)
        spmv(A, x)
        A2, B2 = pickle.loads(pickle.dumps((A, B)))
        assert A2._layout is B2._layout
        for M, M2 in ((A, A2), (B, B2)):
            assert np.array_equal(spmv(M2, x), spmv(M, x))
            assert np.array_equal(spmv_transpose(M2, y), spmv_transpose(M, y))

    def test_transpose_is_canonical_csr(self):
        rng = np.random.default_rng(17)
        A = random_csr(rng, 300, 250, 3000)
        spmv_transpose(A, rng.standard_normal(300))
        T = transpose(A)
        ref = sp.csr_matrix(sp.csr_matrix(
            (A.values, A.col_indices, A.row_offsets), shape=A.shape).T)
        assert T.shape == (250, 300)
        assert T.row_offsets.dtype == T.col_indices.dtype == np.int64
        assert np.array_equal(T.row_offsets, ref.indptr)
        assert np.array_equal(T.col_indices, ref.indices)
        assert np.array_equal(T.values, ref.data)
        SparseMatrix(*T.shape, T.row_offsets, T.col_indices, T.values)
        assert np.array_equal(T.to_dense(), A.to_dense().T)


class TestSpmvTranspose:
    def test_identity(self):
        I2 = identity(2)
        assert spmv_transpose(I2, np.array([3.0, -1.0])).tolist() == [3.0, -1.0]

    def test_first_row_readoff(self):
        A = SparseMatrix.from_dense(FEE_A)
        assert spmv_transpose(A, np.array([1.0, 0.0])).tolist() == [297.0, -200.0]

    def test_matches_transposed_reference(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            A = random_csr(rng, 19, 31, 80)
            y = rng.standard_normal(19)
            ref = dense_row_reference(transpose(A), y)
            assert np.array_equal(spmv_transpose(A, y), ref)

    def test_dimension_mismatch(self):
        A = random_csr(np.random.default_rng(0), 5, 7, 10)
        with pytest.raises(ValueError):
            spmv_transpose(A, np.zeros(7))


class TestJointProduct:
    """fee_operator's -[[A', -mu I], [B, -nu I]] z with the bits of the two
    products, two subtractions and negation, signed zeros included."""

    @staticmethod
    def want(A, B, mu, nu, z):
        x, y = z[:A.n_cols], z[A.n_cols:]
        return -np.concatenate([spmv_transpose(A, y) - mu * x,
                                spmv(B, x) - nu * y])

    @pytest.mark.parametrize("shape", [(23, 17), (30, 30), (1, 9), (9, 1)])
    def test_bitwise_equal_to_the_products(self, shape):
        m, n = shape
        rng = np.random.default_rng(m * 100 + n)
        A = random_csr(rng, m, n, min(m * n, 3 * max(m, n)))
        B = A.with_values(rng.standard_normal(A.nnz))  # A's pattern
        C = random_csr(rng, m, n, min(m * n, 2 * max(m, n)))  # another one
        for mu, nu in ((0.0, 0.0), (1e-4, 1.0), (rng.random(), 0.0)):
            for other in (B, A, C, B):  # the last rebuilds A's joint rows
                product = fee_operator(A, other, mu, nu)
                for _ in range(3):
                    z = rng.standard_normal(n + m)
                    got = product(z)
                    assert got.tobytes() == self.want(A, other, mu, nu,
                                                      z).tobytes()

    def test_empty_rows_columns_and_signed_zeros(self):
        rng = np.random.default_rng(18)
        # rows 0, 3 and 4 and columns 1 and 5 are empty
        A = SparseMatrix.from_coo([1, 1, 2, 2, 5], [0, 4, 2, 3, 0],
                                  rng.standard_normal(5), (6, 7))
        B = SparseMatrix.from_coo([0, 3, 3], [6, 1, 5], [-1.0, 0.0, 2.0],
                                  (6, 7))
        empty = SparseMatrix(6, 7, np.zeros(7, dtype=np.int64), [], [])
        z = rng.standard_normal(13)
        z[::3] = -0.0
        z[1::4] = 0.0
        for P, Q in ((A, B), (B, A), (A, empty), (empty, B), (empty, empty)):
            for mu, nu in ((0.0, 0.0), (0.5, 0.0), (0.0, 2.0)):
                for v in (z, -z):
                    got = fee_operator(P, Q, mu, nu)(v)
                    assert got.tobytes() == self.want(P, Q, mu, nu,
                                                      v).tobytes()

    def test_non_contiguous_and_integer_inputs(self):
        rng = np.random.default_rng(19)
        A = random_csr(rng, 20, 15, 90)
        product = fee_operator(A, A.scaled(-1.0), 0.25, 0.5)
        z = rng.standard_normal(70)[::2]
        assert not z.flags.c_contiguous
        assert np.array_equal(product(z), self.want(A, A.scaled(-1.0), 0.25,
                                                    0.5, z.copy()))
        k = np.arange(35)
        assert np.array_equal(product(k), product(k.astype(np.float64)))

    def test_dimension_mismatch(self):
        A = random_csr(np.random.default_rng(1), 5, 7, 10)
        product = fee_operator(A, A, 0.0, 0.0)
        for size in (7, 5, 13):
            with pytest.raises(ValueError):
                product(np.zeros(size))


def scipy_products(A):
    """(x -> A @ x, y -> A.T @ y) by scipy's public csr_matrix."""
    ref = sp.csr_matrix((A.values, A.col_indices, A.row_offsets),
                        shape=A.shape)
    return (lambda x: ref @ x), (lambda y: sp.csr_matrix(ref.T) @ y)


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.fixture
def split(monkeypatch):
    """Every product is split, as on a 2-CPU machine; yields the list of
    jobs handed to the worker."""
    jobs = []
    submit = vecmat._submit

    def counting(*args):
        jobs.append(args)
        return submit(*args)

    monkeypatch.setattr(vecmat, "SPLIT_NNZ", 0)
    monkeypatch.setattr(vecmat, "_cpus", 2)
    monkeypatch.setattr(vecmat, "_submit", counting)
    return jobs


class TestSplitProducts:
    """Products split between the caller and the worker thread keep the
    bits of the serial product and of csr_matrix @ x."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(20)
        # rows 0, 3 and 4 and columns 1 and 5 are empty
        gappy = SparseMatrix.from_coo([1, 1, 2, 2, 5], [0, 4, 2, 3, 0],
                                      rng.standard_normal(5), (6, 6))
        # row 7 holds every column, so it alone is more than half
        long_row = SparseMatrix.from_coo(
            np.r_[np.full(40, 7), 0, 3], np.r_[np.arange(40), 5, 9],
            rng.standard_normal(42), (9, 40))
        # stored zeros of both signs and an odd number of entries
        zeros = random_csr(rng, 15, 11, 41)
        zeros.values[::4] = 0.0
        zeros.values[1::4] = -0.0
        empty = SparseMatrix(5, 4, np.zeros(6, dtype=np.int64), [], [])
        return [gappy, long_row, zeros, empty, random_csr(rng, 23, 17, 61),
                random_csr(rng, 300, 250, 3000), random_csr(rng, 1, 9, 5),
                random_csr(rng, 9, 1, 4)]

    @staticmethod
    def vector(rng, n):
        v = rng.standard_normal(n)
        v[::3] = -0.0
        v[1::5] = 0.0
        return v

    def test_spmv_and_spmv_transpose(self, split):
        rng = np.random.default_rng(21)
        mids = set()
        for A in self.cases():
            ref, ref_t = scipy_products(A)
            for _ in range(2):
                x, y = self.vector(rng, A.n_cols), self.vector(rng, A.n_rows)
                for v in (x, -x):
                    assert_same_bits(spmv(A, v), ref(v))
                for v in (y, -y):
                    assert_same_bits(spmv_transpose(A, v), ref_t(v))
            mids |= {(s.mid, s.n_rows) for s in A._layout._sides}
        # the caller ran no row, the worker no row, and a split row was odd
        assert any(mid == 0 for mid, n in mids)
        assert any(mid == n for mid, n in mids)
        assert any(mid % 2 and 0 < mid < n for mid, n in mids)
        assert len(split) == 4 * 2 * len(self.cases())

    def test_products_below_the_threshold_run_serially(self, split,
                                                      monkeypatch):
        A = self.cases()[4]
        monkeypatch.setattr(vecmat, "SPLIT_NNZ", A.nnz + 1)
        x = self.vector(np.random.default_rng(29), A.n_cols)
        assert_same_bits(spmv(A, x), scipy_products(A)[0](x))
        assert not split
        monkeypatch.setattr(vecmat, "SPLIT_NNZ", A.nnz)
        assert_same_bits(spmv(A, x), scipy_products(A)[0](x))
        assert len(split) == 1

    def test_fee_operator(self, split):
        rng = np.random.default_rng(22)
        cases = self.cases()
        for P in cases:
            Q = P.with_values(rng.standard_normal(P.nnz))  # P's pattern
            R = random_csr(rng, *P.shape, max(1, P.nnz // 2))  # another
            for other in (Q, R):
                for mu, nu in ((0.0, 0.0), (1e-4, 1.0)):
                    z = self.vector(rng, P.n_cols + P.n_rows)
                    got = fee_operator(P, other, mu, nu)(z)
                    assert_same_bits(got, TestJointProduct.want(
                        P, other, mu, nu, z))
        # a square pattern's joint rows split at the player boundary
        A = random_csr(rng, 40, 40, 300)
        fee_operator(A, A.scaled(2.0), 0.5, 1.0)(np.ones(80))
        rows = A._layout.joint(A._layout)
        assert rows.mid == 40 and not hasattr(rows, "src")
        assert split

    def test_two_threads_never_take_each_others_results(self, split):
        rng = np.random.default_rng(23)
        mats = [random_csr(rng, 200, 150, 2000) for _ in range(2)]
        vecs = [[rng.standard_normal(150) for _ in range(5)] for _ in mats]
        want = [[scipy_products(A)[0](x) for x in xs]
                for A, xs in zip(mats, vecs)]
        bad = []

        def run(k):
            for i in range(200):
                if not np.array_equal(spmv(mats[k], vecs[k][i % 5]),
                                      want[k][i % 5]):
                    bad.append((k, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,), daemon=True)
                       for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not bad
        assert len(split) == 400

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_caller_error_waits_for_the_worker(self, split, monkeypatch,
                                              error):
        rng = np.random.default_rng(24)
        A = random_csr(rng, 60, 50, 500)
        x = rng.standard_normal(50)
        kernel, caller = vecmat._csr_matvec, threading.get_ident()
        finished = []

        def failing(*args):
            if threading.get_ident() == caller:
                raise error("caller's half")
            time.sleep(0.05)
            kernel(*args)
            finished.append(True)

        monkeypatch.setattr(vecmat, "_csr_matvec", failing)
        with pytest.raises(error):
            spmv(A, x)
        assert finished  # the worker's half ended before the error rose
        monkeypatch.setattr(vecmat, "_csr_matvec", kernel)
        assert_same_bits(spmv(A, x), scipy_products(A)[0](x))

    def test_worker_error_is_raised_in_the_caller(self, split, monkeypatch):
        rng = np.random.default_rng(25)
        A = random_csr(rng, 60, 50, 500)
        x = rng.standard_normal(50)
        kernel, caller = vecmat._csr_matvec, threading.get_ident()

        def failing(*args):
            if threading.get_ident() != caller:
                raise RuntimeError("worker's half")
            kernel(*args)

        monkeypatch.setattr(vecmat, "_csr_matvec", failing)
        with pytest.raises(RuntimeError, match="worker's half"):
            spmv(A, x)
        monkeypatch.setattr(vecmat, "_csr_matvec", kernel)
        assert_same_bits(spmv(A, x), scipy_products(A)[0](x))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_its_own_worker(self, tmp_path):
        # a child forked after a split product has no worker thread; without
        # a new one its next split product would wait forever
        script = tmp_path / "fork.py"
        script.write_text(textwrap.dedent("""
            import os
            import signal
            import numpy as np
            from nzs import vecmat
            vecmat.SPLIT_NNZ, vecmat._cpus = 0, 2
            rng = np.random.default_rng(26)
            A = vecmat.SparseMatrix.from_dense(rng.standard_normal((40, 30)))
            x = rng.standard_normal(30)
            want = vecmat.spmv(A, x)
            assert vecmat._jobs is not None
            pid = os.fork()
            if pid == 0:
                signal.alarm(20)  # a child that waits forever is killed
                os._exit(0 if np.array_equal(vecmat.spmv(A, x), want) else 3)
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            print("ok")
            """))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [os.path.dirname(os.path.dirname(vecmat.__file__)),
             os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, str(script)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ok"

    def test_one_cpu_starts_no_worker(self, split, monkeypatch):
        monkeypatch.setattr(vecmat, "_cpus", 1)
        monkeypatch.setattr(vecmat, "_jobs", None)
        rng = np.random.default_rng(27)
        A = random_csr(rng, 60, 50, 500)
        x, z = rng.standard_normal(50), rng.standard_normal(110)
        assert_same_bits(spmv(A, x), scipy_products(A)[0](x))
        fee_operator(A, A, 0.5, 0.5)(z)
        assert vecmat._jobs is None and not split

    def test_keep_serial(self, split, monkeypatch):
        monkeypatch.setattr(vecmat, "_cpus", 2)
        vecmat.keep_serial()
        assert vecmat._cpus == 1
        A = random_csr(np.random.default_rng(28), 60, 50, 500)
        spmv(A, np.ones(50))
        assert not split


class TestSpectralNorm:
    def test_diagonal(self):
        A = SparseMatrix.from_dense(np.diag([3.0, 4.0]))
        assert spectral_norm(A, tol=1e-10) == pytest.approx(4.0, rel=1e-8)

    def test_identity(self):
        assert spectral_norm(identity(6)) == pytest.approx(1.0, rel=1e-8)

    def test_zero(self):
        A = SparseMatrix(3, 3, [0, 0, 0, 0], [], [])
        assert spectral_norm(A) == 0.0
        assert spectral_norm(identity(3).scaled(0.0)) == 0.0

    def test_against_svd(self):
        rng = np.random.default_rng(11)
        A = random_csr(rng, 50, 50, 600)
        ref = np.linalg.svd(A.to_dense(), compute_uv=False)[0]
        got = spectral_norm(A, tol=1e-10)
        assert abs(got - ref) <= 1e-6 * ref

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(12)
        A = random_csr(rng, 30, 30, 200)
        tol = 1e-8
        base = spectral_norm(A, tol=tol)
        for c in (-3.7, 0.25, 11.0):
            got = spectral_norm(A.scaled(c), tol=tol)
            assert abs(got - abs(c) * base) <= 2 * tol * abs(c) * base

    def test_extreme_scales(self):
        # squared norms overflow or underflow at these scales unless the
        # iteration runs on a rescaled copy
        rng = np.random.default_rng(12)
        A = random_csr(rng, 30, 30, 200)
        tol = 1e-8
        base = spectral_norm(A, tol=tol)
        for c in (1e200, 1e-200, 1e300):
            got = spectral_norm(A.scaled(c), tol=tol)
            assert abs(got - c * base) <= 2 * tol * c * base

    def test_nonconvergence_carries_estimate(self):
        rng = np.random.default_rng(13)
        A = random_csr(rng, 20, 20, 100)
        with pytest.raises(SpectralNormError) as exc:
            spectral_norm(A, tol=1e-16, max_iter=2)
        assert exc.value.estimate >= 0.0

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            spectral_norm(identity(2), tol=0.0)
