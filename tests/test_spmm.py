"""SpMM: the compiled kernel vs the reference kernel and dense products."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse.csr import CSRMatrix
from repro.sparse.spmm import spmm, spmm_flops, spmm_numpy


def random_csr(m, n, density, seed):
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((m, n))
    d[rng.random((m, n)) > density] = 0.0
    return CSRMatrix.from_dense(d), d


def product(kernel, a, b):
    """``a @ b`` by one of the former backend names: ``numpy`` is the
    reference kernel, ``scipy`` is ``spmm`` on a block whose compiled
    wrapper is already cached, ``auto`` is ``spmm`` on a cold block (the
    case the old size heuristic sent to numpy)."""
    if kernel == "numpy":
        return spmm_numpy(a, b)
    if kernel == "scipy":
        a.to_scipy()
    else:
        assert a._scipy_cache is None
    return spmm(a, b)


class TestCorrectness:
    @pytest.mark.parametrize("kernel", ["numpy", "scipy", "auto"])
    def test_matches_dense(self, kernel):
        a, d = random_csr(12, 9, 0.4, 0)
        b = np.random.default_rng(1).standard_normal((9, 5))
        np.testing.assert_allclose(
            product(kernel, a, b), d @ b, rtol=1e-12, atol=1e-12
        )

    def test_backends_agree(self):
        a, _ = random_csr(40, 30, 0.2, 2)
        b = np.random.default_rng(3).standard_normal((30, 7))
        np.testing.assert_allclose(
            spmm_numpy(a, b), spmm(a, b), rtol=1e-12, atol=1e-12
        )

    def test_empty_matrix(self):
        a = CSRMatrix.zeros((4, 6))
        b = np.ones((6, 3))
        np.testing.assert_array_equal(spmm_numpy(a, b), np.zeros((4, 3)))
        np.testing.assert_array_equal(spmm(a, b), np.zeros((4, 3)))

    def test_empty_rows_handled(self):
        # Rows 0 and 3 empty; also a trailing empty row (the reduceat trap).
        d = np.zeros((4, 4))
        d[1, 2] = 3.0
        d[2, 0] = -1.0
        a = CSRMatrix.from_dense(d)
        b = np.eye(4)
        np.testing.assert_array_equal(spmm_numpy(a, b), d)
        np.testing.assert_array_equal(spmm(a, b), d)

    def test_single_column_dense(self):
        a, d = random_csr(10, 10, 0.3, 4)
        b = np.random.default_rng(5).standard_normal((10, 1))
        np.testing.assert_allclose(spmm_numpy(a, b), d @ b, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        a, _ = random_csr(4, 5, 0.5, 6)
        with pytest.raises(ValueError, match="incompatible"):
            spmm_numpy(a, np.ones((4, 2)))
        with pytest.raises(ValueError, match="incompatible"):
            spmm(a, np.ones((6, 2)))
        with pytest.raises(ValueError, match="out shape"):
            spmm(a, np.ones((5, 2)), out=np.empty((4, 3)))


class TestOut:
    """``out=`` overwrites a kept buffer with the bits a fresh call
    returns, whatever the buffer held and however the operand is laid
    out."""

    @pytest.mark.parametrize("contiguous", [True, False], ids=["c", "strided"])
    def test_out_is_the_fresh_product(self, contiguous):
        a, _ = random_csr(30, 20, 0.3, 10)
        b = np.random.default_rng(11).standard_normal((20, 12))
        if not contiguous:
            b = b[:, ::2]
        buf = np.full((30, b.shape[1]), np.nan)
        got = spmm(a, b, out=buf)
        assert got is buf
        np.testing.assert_array_equal(got, spmm(a, b))

    def test_the_first_multiply_of_a_block_takes_the_same_kernel(self):
        """A block whose wrapper is not cached yet -- a fresh receipt, a
        narrow piece -- gets the warm block's bits: the kernel never
        depends on cache state."""
        a, _ = random_csr(16, 16, 0.2, 12)
        b = np.random.default_rng(13).standard_normal((16, 2))
        cold = CSRMatrix(a.indptr, a.indices, a.data, a.shape)
        assert cold._scipy_cache is None and a.nnz * 2 < 2048
        first = spmm(cold, b)
        a.to_scipy()
        np.testing.assert_array_equal(first, spmm(a, b))


class TestFlops:
    def test_flop_count(self):
        a, _ = random_csr(10, 10, 0.5, 8)
        assert spmm_flops(a, 16) == 2 * a.nnz * 16

    def test_zero_columns(self):
        a, _ = random_csr(5, 5, 0.5, 9)
        assert spmm_flops(a, 0) == 0


class TestProperties:
    @given(
        seed=st.integers(0, 1000),
        m=st.integers(1, 20),
        n=st.integers(1, 20),
        f=st.integers(1, 8),
        density=st.floats(0.0, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_spmm_matches_dense_reference(self, seed, m, n, f, density):
        a, d = random_csr(m, n, density, seed)
        b = np.random.default_rng(seed + 1).standard_normal((n, f))
        np.testing.assert_allclose(spmm_numpy(a, b), d @ b, rtol=1e-9,
                                   atol=1e-9)
        np.testing.assert_allclose(spmm(a, b), d @ b, rtol=1e-9, atol=1e-9)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, seed):
        a, _ = random_csr(8, 8, 0.4, seed)
        rng = np.random.default_rng(seed)
        b1 = rng.standard_normal((8, 3))
        b2 = rng.standard_normal((8, 3))
        lhs = spmm_numpy(a, b1 + b2)
        rhs = spmm_numpy(a, b1) + spmm_numpy(a, b2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_identity_is_noop(self, seed):
        b = np.random.default_rng(seed).standard_normal((10, 4))
        eye = CSRMatrix.eye(10)
        np.testing.assert_allclose(spmm_numpy(eye, b), b, atol=1e-12)
        np.testing.assert_array_equal(spmm(eye, b), b)
