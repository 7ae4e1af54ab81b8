"""From-scratch CSR matrix: construction, structure ops, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse.csr import CSRMatrix, coo_to_csr_arrays


def random_dense(shape, density, seed):
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(shape)
    d[rng.random(shape) > density] = 0.0
    return d


@st.composite
def coo_matrices(draw):
    m = draw(st.integers(min_value=1, max_value=12))
    n = draw(st.integers(min_value=1, max_value=12))
    nnz = draw(st.integers(min_value=0, max_value=30))
    rows = draw(
        st.lists(st.integers(0, m - 1), min_size=nnz, max_size=nnz)
    )
    cols = draw(
        st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz)
    )
    vals = draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False), min_size=nnz, max_size=nnz
        )
    )
    return np.array(rows), np.array(cols), np.array(vals), (m, n)


class TestConstruction:
    def test_from_coo_simple(self):
        m = CSRMatrix.from_coo([0, 1, 2], [1, 0, 2], [1.0, 2.0, 3.0], (3, 3))
        dense = m.to_dense()
        expected = np.array([[0, 1, 0], [2, 0, 0], [0, 0, 3.0]])
        np.testing.assert_array_equal(dense, expected)

    def test_duplicates_summed(self):
        m = CSRMatrix.from_coo([0, 0], [1, 1], [2.0, 3.0], (2, 2))
        assert m.nnz == 1
        assert m.to_dense()[0, 1] == 5.0

    def test_duplicates_rejected_when_disallowed(self):
        with pytest.raises(ValueError, match="duplicate"):
            CSRMatrix.from_coo(
                [0, 0], [1, 1], [2.0, 3.0], (2, 2), sum_duplicates=False
            )

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(ValueError, match="row index"):
            coo_to_csr_arrays(
                np.array([5]), np.array([0]), np.array([1.0]), (3, 3)
            )
        with pytest.raises(ValueError, match="col index"):
            coo_to_csr_arrays(
                np.array([0]), np.array([9]), np.array([1.0]), (3, 3)
            )

    def test_from_dense_roundtrip(self):
        d = random_dense((7, 5), 0.4, 0)
        m = CSRMatrix.from_dense(d)
        np.testing.assert_array_equal(m.to_dense(), d)

    def test_eye(self):
        m = CSRMatrix.eye(4, value=2.0)
        np.testing.assert_array_equal(m.to_dense(), 2.0 * np.eye(4))

    def test_zeros(self):
        m = CSRMatrix.zeros((3, 5))
        assert m.nnz == 0
        assert m.shape == (3, 5)

    def test_validation_catches_bad_indptr(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            CSRMatrix(
                np.array([0, 2, 1]), np.array([0, 0]), np.array([1.0, 1.0]),
                (2, 2),
            )

    def test_validation_catches_bad_lengths(self):
        with pytest.raises(ValueError, match="length mismatch"):
            CSRMatrix(
                np.array([0, 1, 2]), np.array([0]), np.array([1.0]), (2, 2)
            )

    def test_validate_false_adopts_arrays_verbatim(self):
        # The trusted fast path for internally-constructed blocks: no
        # dtype coercion, no invariant checks, arrays adopted as-is.
        indptr = np.array([0, 1, 2], dtype=np.int64)
        indices = np.array([0, 1], dtype=np.int64)
        data = np.array([1.0, 2.0])
        m = CSRMatrix(indptr, indices, data, (2, 2), validate=False)
        assert m.indptr is indptr and m.indices is indices and m.data is data
        np.testing.assert_array_equal(m.to_dense(), np.diag([1.0, 2.0]))

    def test_validate_false_skips_checks_validate_true_enforces(self):
        bad = (np.array([0, 2, 1]), np.array([0, 0]),
               np.array([1.0, 1.0]))
        # Trusted path: no error (caller vouches for the arrays).
        CSRMatrix(*bad, (2, 2), validate=False)
        # Explicit validate=True enforces even when check=False.
        with pytest.raises(ValueError, match="nondecreasing"):
            CSRMatrix(*bad, (2, 2), check=False, validate=True)

    def test_check_false_still_coerces_dtypes(self):
        # Historical middle tier: dtype coercion without invariant checks.
        m = CSRMatrix(
            np.array([0, 1], dtype=np.int32), np.array([0], dtype=np.int32),
            np.array([1], dtype=np.int32), (1, 1), check=False,
        )
        assert m.indptr.dtype == np.int64
        assert m.data.dtype == np.float64

    def test_internal_blocks_equal_validated_blocks(self):
        # The fast-path extraction produces the same matrices the
        # validating constructor would accept.
        d = random_dense((9, 9), 0.5, 3)
        m = CSRMatrix.from_dense(d)
        blk = m.block(2, 7, 1, 8)
        revalidated = CSRMatrix(blk.indptr, blk.indices, blk.data,
                                blk.shape, validate=True)
        np.testing.assert_array_equal(revalidated.to_dense(),
                                      d[2:7, 1:8])


class TestProperties:
    def test_degrees(self):
        m = CSRMatrix.from_dense(
            np.array([[1.0, 1, 0], [0, 0, 0], [1, 1, 1]])
        )
        np.testing.assert_array_equal(m.row_degrees(), [2, 0, 3])
        np.testing.assert_array_equal(m.col_degrees(), [2, 2, 1])
        assert m.average_degree() == pytest.approx(5 / 3)
        assert m.empty_row_count() == 1

    def test_density(self):
        m = CSRMatrix.eye(4)
        assert m.density == pytest.approx(0.25)

    def test_wire_bytes(self):
        m = CSRMatrix.eye(10)
        # 10 fp64 values + 10 int32 indices + 11 int32 indptr entries.
        assert m.nbytes_on_wire == 10 * 8 + 10 * 4 + 11 * 4

    def test_to_coo_roundtrip(self):
        d = random_dense((6, 6), 0.5, 3)
        m = CSRMatrix.from_dense(d)
        r, c, v = m.to_coo()
        m2 = CSRMatrix.from_coo(r, c, v, m.shape)
        assert m.allclose(m2)


class TestTranspose:
    def test_transpose_matches_dense(self):
        d = random_dense((5, 8), 0.4, 1)
        m = CSRMatrix.from_dense(d)
        np.testing.assert_array_equal(m.transpose().to_dense(), d.T)

    def test_transpose_involution(self):
        d = random_dense((6, 4), 0.5, 2)
        m = CSRMatrix.from_dense(d)
        assert m.transpose().transpose().allclose(m)

    def test_empty_transpose(self):
        m = CSRMatrix.zeros((3, 5))
        t = m.transpose()
        assert t.shape == (5, 3)
        assert t.nnz == 0

    @given(coo_matrices())
    @settings(max_examples=40, deadline=None)
    def test_transpose_property(self, coo):
        rows, cols, vals, shape = coo
        m = CSRMatrix.from_coo(rows, cols, vals, shape)
        np.testing.assert_allclose(
            m.transpose().to_dense(), m.to_dense().T, atol=1e-12
        )


class TestSlicing:
    def test_row_slice(self):
        d = random_dense((8, 5), 0.5, 4)
        m = CSRMatrix.from_dense(d)
        np.testing.assert_array_equal(m.row_slice(2, 6).to_dense(), d[2:6])

    def test_row_slice_bounds(self):
        m = CSRMatrix.eye(4)
        with pytest.raises(IndexError):
            m.row_slice(2, 6)

    def test_block_extraction(self):
        d = random_dense((8, 8), 0.6, 5)
        m = CSRMatrix.from_dense(d)
        np.testing.assert_array_equal(
            m.block(1, 5, 2, 7).to_dense(), d[1:5, 2:7]
        )

    def test_block_full_matrix(self):
        d = random_dense((4, 4), 0.8, 6)
        m = CSRMatrix.from_dense(d)
        np.testing.assert_array_equal(m.block(0, 4, 0, 4).to_dense(), d)

    def test_empty_block(self):
        m = CSRMatrix.eye(4)
        b = m.block(1, 1, 0, 4)
        assert b.shape == (0, 4)
        assert b.nnz == 0

    @given(coo_matrices(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_block_property(self, coo, data):
        rows, cols, vals, shape = coo
        m = CSRMatrix.from_coo(rows, cols, vals, shape)
        r0 = data.draw(st.integers(0, shape[0]))
        r1 = data.draw(st.integers(r0, shape[0]))
        c0 = data.draw(st.integers(0, shape[1]))
        c1 = data.draw(st.integers(c0, shape[1]))
        np.testing.assert_allclose(
            m.block(r0, r1, c0, c1).to_dense(),
            m.to_dense()[r0:r1, c0:c1],
            atol=1e-12,
        )


class TestScaling:
    def test_scale_rows(self):
        d = random_dense((4, 4), 0.7, 7)
        m = CSRMatrix.from_dense(d)
        s = np.array([1.0, 2.0, 0.5, 0.0])
        np.testing.assert_allclose(
            m.scale_rows(s).to_dense(), np.diag(s) @ d
        )

    def test_scale_cols(self):
        d = random_dense((4, 4), 0.7, 8)
        m = CSRMatrix.from_dense(d)
        s = np.array([1.0, 2.0, 0.5, 3.0])
        np.testing.assert_allclose(
            m.scale_cols(s).to_dense(), d @ np.diag(s)
        )

    def test_scale_shape_mismatch(self):
        m = CSRMatrix.eye(4)
        with pytest.raises(ValueError):
            m.scale_rows(np.ones(3))
        with pytest.raises(ValueError):
            m.scale_cols(np.ones(5))


class TestPermutation:
    def test_symmetric_permutation(self):
        d = random_dense((5, 5), 0.5, 9)
        m = CSRMatrix.from_dense(d)
        perm = np.array([2, 0, 4, 1, 3])
        permuted = m.permute(perm).to_dense()
        expected = np.zeros_like(d)
        for i in range(5):
            for j in range(5):
                expected[perm[i], perm[j]] = d[i, j]
        np.testing.assert_allclose(permuted, expected)

    def test_identity_permutation_is_noop(self):
        d = random_dense((6, 6), 0.5, 10)
        m = CSRMatrix.from_dense(d)
        assert m.permute(np.arange(6)).allclose(m)

    def test_invalid_permutation_rejected(self):
        m = CSRMatrix.eye(3)
        with pytest.raises(ValueError, match="not a permutation"):
            m.permute(np.array([0, 0, 1]))

    def test_nonsquare_rejected(self):
        m = CSRMatrix.zeros((2, 3))
        with pytest.raises(ValueError, match="square"):
            m.permute(np.array([0, 1]))

    def test_permutation_preserves_degree_multiset(self):
        d = random_dense((8, 8), 0.4, 11)
        m = CSRMatrix.from_dense(d)
        perm = np.random.default_rng(0).permutation(8)
        p = m.permute(perm)
        assert sorted(m.row_degrees()) == sorted(p.row_degrees())


# ---------------------------------------------------------------------- #
# Bit-identity of the radix / bincount kernels with the lexsort / add.at
# implementations they replaced (kept here, verbatim, as the reference).
# ---------------------------------------------------------------------- #
def reference_coo_to_csr_arrays(rows, cols, vals, shape, sum_duplicates=True):
    m, n = shape
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if rows.size:
        dup = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
        if dup.any():
            if not sum_duplicates:
                raise ValueError("duplicate (row, col) entries present")
            first = np.concatenate(([True], ~dup))
            seg = np.cumsum(first) - 1
            summed = np.zeros(int(seg[-1]) + 1, dtype=np.float64)
            np.add.at(summed, seg, vals)
            keep = np.flatnonzero(first)
            rows, cols, vals = rows[keep], cols[keep], summed
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, cols.astype(np.int64), vals


def reference_transpose(a):
    m, n = a.shape
    col_counts = np.zeros(n + 1, dtype=np.int64)
    np.add.at(col_counts, a.indices + 1, 1)
    row_ids = np.repeat(np.arange(m, dtype=np.int64), np.diff(a.indptr))
    order = np.argsort(a.indices, kind="stable")
    return np.cumsum(col_counts), row_ids[order], a.data[order]


def reference_block(a, r0, r1, c0, c1):
    rows = a.row_slice(r0, r1)
    keep = (rows.indices >= c0) & (rows.indices < c1)
    row_ids = np.repeat(
        np.arange(rows.nrows, dtype=np.int64), np.diff(rows.indptr)
    )[keep]
    counts = np.zeros(rows.nrows + 1, dtype=np.int64)
    np.add.at(counts, row_ids + 1, 1)
    return np.cumsum(counts), rows.indices[keep] - c0, rows.data[keep]


def reference_gcn_normalize_data(a):
    """``gcn_normalize(a, add_loops=False).data`` with add.at row sums."""
    row_ids = np.repeat(np.arange(a.nrows, dtype=np.int64), np.diff(a.indptr))
    row_sums = np.zeros(a.nrows, dtype=np.float64)
    np.add.at(row_sums, row_ids, a.data)
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(row_sums > 0, 1.0 / np.sqrt(row_sums), 0.0)
    return a.data * inv_sqrt[row_ids] * inv_sqrt[a.indices]


def assert_same_arrays(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


@st.composite
def kernel_inputs(draw):
    """COO triples built to stress the sort and the duplicate sum: empty
    and rectangular shapes (one side up to 70 000, so row or column keys
    need a second 16-bit digit), empty rows, duplicate runs longer than
    two with values of mixed magnitude (float addition is not
    associative: only the reference's summation *order* reproduces its
    bits), and pre-sorted as well as shuffled entry order."""
    m = draw(st.sampled_from([0, 1, 2, 5, 17, 70_000]))
    n = draw(st.sampled_from([0, 1, 3, 8, 31, 70_000]))
    nnz = draw(st.integers(0, 60)) if m and n else 0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, max(m, 1), nnz)
    cols = rng.integers(0, max(n, 1), nnz)
    if nnz and draw(st.booleans()):
        run = draw(st.integers(3, 9))
        rows[:run], cols[:run] = rows[0], cols[0]
        idx = rng.permutation(nnz)
        rows, cols = rows[idx], cols[idx]
    vals = rng.standard_normal(nnz) * 10.0 ** rng.integers(-9, 9, nnz)
    if draw(st.booleans()):
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
    return rows, cols, vals, (m, n)


class TestKernelBitIdentity:
    @given(kernel_inputs())
    @settings(max_examples=300, deadline=None)
    def test_coo_to_csr_arrays(self, triple):
        rows, cols, vals, shape = triple
        assert_same_arrays(
            coo_to_csr_arrays(rows, cols, vals, shape),
            reference_coo_to_csr_arrays(rows, cols, vals, shape),
        )

    @given(kernel_inputs())
    @settings(max_examples=100, deadline=None)
    def test_sum_duplicates_false_raises_like_the_reference(self, triple):
        rows, cols, vals, shape = triple
        try:
            want = reference_coo_to_csr_arrays(rows, cols, vals, shape,
                                               sum_duplicates=False)
        except ValueError:
            with pytest.raises(ValueError, match="duplicate"):
                coo_to_csr_arrays(rows, cols, vals, shape,
                                  sum_duplicates=False)
        else:
            assert_same_arrays(
                coo_to_csr_arrays(rows, cols, vals, shape,
                                  sum_duplicates=False), want)

    @given(kernel_inputs())
    @settings(max_examples=100, deadline=None)
    def test_transpose_block_col_degrees(self, triple):
        rows, cols, vals, shape = triple
        a = CSRMatrix.from_coo(rows, cols, vals, shape)
        t = a.transpose()
        if a.nnz:
            assert_same_arrays((t.indptr, t.indices, t.data),
                               reference_transpose(a))
        assert t.shape == (shape[1], shape[0])
        assert np.array_equal(a.col_degrees(), t.row_degrees())
        m, n = shape
        r0, r1, c0, c1 = m // 4, m - m // 3, n // 3, n - n // 4
        b = a.block(r0, r1, c0, c1)
        assert_same_arrays((b.indptr, b.indices, b.data),
                           reference_block(a, r0, r1, c0, c1))

    @given(kernel_inputs())
    @settings(max_examples=100, deadline=None)
    def test_gcn_normalize_row_sums(self, triple):
        from repro.graph.normalize import gcn_normalize

        rows, cols, vals, (m, n) = triple
        k = min(m, n)
        inside = (rows < k) & (cols < k)
        a = CSRMatrix.from_coo(rows[inside], cols[inside],
                               np.abs(vals[inside]), (k, k))
        got = gcn_normalize(a, add_loops=False)
        assert np.array_equal(got.data, reference_gcn_normalize_data(a))
