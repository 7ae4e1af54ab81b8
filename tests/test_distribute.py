"""Block distributions: 1D / 2D / 3D splits reassemble exactly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.mesh import Mesh2D, Mesh3D
from repro.sparse.csr import CSRMatrix
from repro.sparse.distribute import (
    block_ranges,
    distribute_dense_1d_rows,
    distribute_dense_2d,
    distribute_dense_3d,
    distribute_sparse_1d_cols,
    distribute_sparse_1d_rows,
    distribute_sparse_2d,
    distribute_sparse_3d,
    gather_dense_1d_rows,
    gather_dense_2d,
    gather_dense_3d,
    range_of,
)


class TestBlockRanges:
    def test_even_split(self):
        assert block_ranges(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_remainder_goes_to_first_parts(self):
        assert block_ranges(7, 3) == [(0, 3), (3, 5), (5, 7)]

    def test_more_parts_than_items(self):
        ranges = block_ranges(2, 4)
        assert ranges == [(0, 1), (1, 2), (2, 2), (2, 2)]

    def test_zero_length(self):
        assert block_ranges(0, 3) == [(0, 0), (0, 0), (0, 0)]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            block_ranges(5, 0)
        with pytest.raises(ValueError):
            block_ranges(-1, 2)

    def test_matches_array_split(self):
        for n in (5, 16, 33):
            for p in (1, 2, 3, 7):
                sizes = [hi - lo for lo, hi in block_ranges(n, p)]
                np_sizes = [len(c) for c in np.array_split(np.arange(n), p)]
                assert sizes == np_sizes

    @given(
        n=st.integers(0, 500),
        p=st.integers(1, 32),
    )
    @settings(max_examples=60, deadline=None)
    def test_ranges_partition_and_balance(self, n, p):
        ranges = block_ranges(n, p)
        assert len(ranges) == p
        assert ranges[0][0] == 0 and ranges[-1][1] == n
        sizes = [hi - lo for lo, hi in ranges]
        for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
            assert a1 == b0  # contiguous
        assert max(sizes) - min(sizes) <= 1  # near-equal

    @given(n=st.integers(1, 300), p=st.integers(1, 16))
    @settings(max_examples=40, deadline=None)
    def test_range_of_agrees(self, n, p):
        ranges = block_ranges(n, p)
        for i in range(p):
            assert range_of(n, p, i) == ranges[i]

    def test_range_of_bounds(self):
        with pytest.raises(IndexError):
            range_of(10, 4, 4)


def random_csr(n, m, seed, density=0.3):
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((n, m))
    d[rng.random((n, m)) > density] = 0.0
    return CSRMatrix.from_dense(d), d


class Test1D:
    def test_row_blocks_reassemble(self):
        a, d = random_csr(13, 9, 0)
        blocks = distribute_sparse_1d_rows(a, 4)
        stacked = np.concatenate(
            [blocks[i].to_dense() for i in range(4)], axis=0
        )
        np.testing.assert_array_equal(stacked, d)

    def test_col_blocks_reassemble(self):
        a, d = random_csr(9, 13, 1)
        blocks = distribute_sparse_1d_cols(a, 4)
        stacked = np.concatenate(
            [blocks[j].to_dense() for j in range(4)], axis=1
        )
        np.testing.assert_array_equal(stacked, d)

    def test_dense_rows_roundtrip(self):
        h = np.random.default_rng(2).standard_normal((11, 5))
        blocks = distribute_dense_1d_rows(h, 3)
        np.testing.assert_array_equal(gather_dense_1d_rows(blocks, 3), h)

    def test_nnz_conserved(self):
        a, _ = random_csr(20, 20, 3)
        blocks = distribute_sparse_1d_rows(a, 6)
        assert sum(b.nnz for b in blocks.values()) == a.nnz


class Test2D:
    def test_sparse_blocks_reassemble(self):
        a, d = random_csr(10, 10, 4)
        mesh = Mesh2D.rectangular(2, 3)
        blocks = distribute_sparse_2d(a, mesh)
        rows = []
        for i in range(2):
            rows.append(
                np.concatenate(
                    [blocks[mesh.rank_of(i, j)].to_dense() for j in range(3)],
                    axis=1,
                )
            )
        np.testing.assert_array_equal(np.concatenate(rows, axis=0), d)

    def test_dense_roundtrip(self):
        h = np.random.default_rng(5).standard_normal((9, 7))
        mesh = Mesh2D.square(4)
        blocks = distribute_dense_2d(h, mesh)
        np.testing.assert_array_equal(gather_dense_2d(blocks, mesh), h)

    def test_block_shapes_match_paper(self):
        # n x m matrix on Pr x Pc grid: ~n/Pr x m/Pc per process.
        a, _ = random_csr(12, 12, 6)
        mesh = Mesh2D.square(9)
        blocks = distribute_sparse_2d(a, mesh)
        for rank, b in blocks.items():
            assert b.nrows in (4,)
            assert b.ncols in (4,)

    def test_nnz_conserved(self):
        a, _ = random_csr(15, 15, 7)
        mesh = Mesh2D.square(9)
        blocks = distribute_sparse_2d(a, mesh)
        assert sum(b.nnz for b in blocks.values()) == a.nnz


class Test3D:
    def test_sparse_block_shapes(self):
        """Cubic mesh side p: A blocks are n/p x n/p^2 (Section IV-D)."""
        a, _ = random_csr(8, 8, 8, density=0.6)
        mesh = Mesh3D.cubic(8)
        blocks = distribute_sparse_3d(a, mesh)
        for key, b in blocks.items():
            assert b.nrows == 4   # n/p = 8/2
            assert b.ncols == 2   # n/p^2 = 8/4

    def test_dense_block_shapes(self):
        """H blocks are n/p^2 x f/p."""
        h = np.zeros((8, 6))
        mesh = Mesh3D.cubic(8)
        blocks = distribute_dense_3d(h, mesh)
        for b in blocks.values():
            assert b.shape == (2, 3)

    def test_dense_roundtrip(self):
        h = np.random.default_rng(9).standard_normal((17, 10))
        mesh = Mesh3D.cubic(8)
        blocks = distribute_dense_3d(h, mesh)
        np.testing.assert_array_equal(gather_dense_3d(blocks, mesh), h)

    def test_sparse_nnz_conserved(self):
        a, _ = random_csr(27, 27, 10)
        mesh = Mesh3D.cubic(27)
        blocks = distribute_sparse_3d(a, mesh)
        assert sum(b.nnz for b in blocks.values()) == a.nnz

    def test_sparse_blocks_reassemble(self):
        a, d = random_csr(12, 12, 11, density=0.5)
        mesh = Mesh3D.cubic(8)
        blocks = distribute_sparse_3d(a, mesh)
        # Reassemble: rows by i, then columns by (block j, layer k's
        # sub-split of it) -- layer k holds the k-th sub-slice of every
        # column block.
        from repro.sparse.distribute import block_ranges as br

        out = np.zeros((12, 12))
        row_ranges = br(12, 2)
        col_ranges = br(12, 2)
        for i, (r0, r1) in enumerate(row_ranges):
            for j, (c0, c1) in enumerate(col_ranges):
                subs = br(c1 - c0, 2)
                for k, (s0, s1) in enumerate(subs):
                    rank = mesh.rank_of(i, j, k)
                    out[r0:r1, c0 + s0 : c0 + s1] = blocks[rank].to_dense()
        np.testing.assert_array_equal(out, d)
