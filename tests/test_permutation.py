"""Random vertex permutation: consistency and load-balance effect."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import Category
from repro.comm.mesh import Mesh2D
from repro.dist import make_algorithm
from repro.graph import make_synthetic
from repro.graph.datasets import Dataset
from repro.graph.generators import rmat, star_graph
from repro.graph.normalize import gcn_normalize
from repro.graph.permutation import (
    apply_random_permutation,
    block_nnz_imbalance,
    identity_permutation,
    invert_permutation,
    random_permutation,
)
from repro.sparse.distribute import (
    distribute_sparse_1d_rows,
    distribute_sparse_2d,
)


class TestPermutations:
    def test_random_permutation_is_permutation(self):
        p = random_permutation(50, seed=0)
        assert sorted(p) == list(range(50))

    def test_deterministic(self):
        np.testing.assert_array_equal(
            random_permutation(20, seed=5), random_permutation(20, seed=5)
        )

    @given(n=st.integers(1, 200), seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_inverse_property(self, n, seed):
        p = random_permutation(n, seed)
        inv = invert_permutation(p)
        np.testing.assert_array_equal(p[inv], np.arange(n))
        np.testing.assert_array_equal(inv[p], np.arange(n))

    def test_identity(self):
        np.testing.assert_array_equal(identity_permutation(4), [0, 1, 2, 3])


class TestDatasetPermutation:
    def test_features_follow_vertices(self):
        a = gcn_normalize(rmat(scale=6, edge_factor=4, seed=0))
        n = a.nrows
        feats = np.arange(n, dtype=np.float64)[:, None] * np.ones((1, 3))
        labels = np.arange(n) % 5
        a2, f2, y2, perm = apply_random_permutation(a, feats, labels, seed=1)
        # New vertex perm[i] must carry old vertex i's feature row.
        for i in (0, n // 2, n - 1):
            np.testing.assert_array_equal(f2[perm[i]], feats[i])
            assert y2[perm[i]] == labels[i]

    def test_adjacency_conjugated(self):
        a = gcn_normalize(rmat(scale=5, edge_factor=3, seed=2))
        n = a.nrows
        feats = np.zeros((n, 2))
        labels = np.zeros(n, dtype=np.int64)
        a2, _, _, perm = apply_random_permutation(a, feats, labels, seed=3)
        d, d2 = a.to_dense(), a2.to_dense()
        for i in range(0, n, 7):
            for j in range(0, n, 5):
                assert d2[perm[i], perm[j]] == pytest.approx(d[i, j])

    def test_shape_mismatch_rejected(self):
        a = gcn_normalize(rmat(scale=4, edge_factor=3, seed=0))
        with pytest.raises(ValueError):
            apply_random_permutation(
                a, np.zeros((3, 2)), np.zeros(a.nrows), seed=0
            )


class TestLoadBalance:
    def test_permutation_fixes_star_imbalance(self):
        """A sorted star graph concentrates nnz in the first block; the
        random permutation spreads it (Section I's load-balance claim).

        The hub's adjacencies land in one block row either way (1D cannot
        split a single row), but contiguous hub+early-leaves pile-up is
        broken up: imbalance must drop.
        """
        # Adversarial graph: many stars with hubs packed at the front.
        import numpy as np
        from repro.sparse.csr import CSRMatrix

        n, hubs = 400, 8
        rng = np.random.default_rng(0)
        rows, cols = [], []
        for h in range(hubs):
            leaves = np.arange(hubs + h * 40, hubs + (h + 1) * 40)
            rows += [h] * len(leaves)
            cols += list(leaves)
        a = CSRMatrix.from_coo(
            np.array(rows + cols), np.array(cols + rows),
            np.ones(2 * len(rows)), (n, n),
        )
        before = block_nnz_imbalance(distribute_sparse_1d_rows(a, 8))
        perm = random_permutation(n, seed=4)
        after = block_nnz_imbalance(
            distribute_sparse_1d_rows(a.permute(perm), 8)
        )
        assert after < before

    def test_permutation_balances_rmat_2d_blocks(self):
        """Section I: random vertex permutation balances the 2D blocks of
        a scale-free graph whose hubs sit at low ids, and the epoch's
        modeled SpMM time (paced by the heaviest block) does not grow by
        more than 5 %."""
        ds = make_synthetic(n=1024, avg_degree=16, f=16, n_classes=4, seed=0)
        permuted = apply_random_permutation(
            ds.adjacency, ds.features, ds.labels, seed=1)[:3]
        mesh = Mesh2D.square(16)
        imbalance, spmm = [], []
        for adj, feats, labels in ((ds.adjacency, ds.features, ds.labels),
                                   permuted):
            imbalance.append(
                block_nnz_imbalance(distribute_sparse_2d(adj, mesh)))
            algo = make_algorithm("2d", 16, Dataset(
                name="x", adjacency=adj, features=feats, labels=labels,
                num_classes=ds.num_classes, train_mask=ds.train_mask,
            ), hidden=16, seed=0)
            algo.setup(feats, labels)
            spmm.append(algo.train_epoch(0).seconds_by_category[
                Category.SPMM])
        assert imbalance[1] < imbalance[0]
        assert spmm[1] <= spmm[0] * 1.05

    def test_imbalance_of_uniform_is_one(self):
        from repro.graph.generators import ring_graph

        blocks = distribute_sparse_1d_rows(ring_graph(64), 8)
        assert block_nnz_imbalance(blocks) == pytest.approx(1.0)

    def test_empty_blocks_imbalance(self):
        from repro.sparse.csr import CSRMatrix

        blocks = {0: CSRMatrix.zeros((2, 2)), 1: CSRMatrix.zeros((2, 2))}
        assert block_nnz_imbalance(blocks) == 1.0
