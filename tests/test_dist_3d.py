"""The Split-3D-SpMM algorithm (Section IV-D)."""

import numpy as np
import pytest

from repro.comm import Category, VirtualRuntime
from repro.dist.algo_3d import DistGCN3D
from repro.graph import make_synthetic


@pytest.fixture(scope="module")
def ds():
    return make_synthetic(n=108, avg_degree=5, f=12, n_classes=4, seed=29)


WIDTHS = (12, 8, 4)


class TestVerification:
    @pytest.mark.parametrize("p", [1, 8, 27])
    def test_matches_serial(self, ds, p):
        rt = VirtualRuntime.make_3d(p)
        algo = DistGCN3D(rt, ds.adjacency, WIDTHS, seed=1)
        diff = algo.verify_against_serial(ds.features, ds.labels, epochs=3, seed=1)
        assert diff < 1e-10

    def test_uneven_sizes(self):
        """n and f not divisible by p or p^2."""
        ds2 = make_synthetic(n=101, avg_degree=4, f=11, n_classes=3, seed=2)
        rt = VirtualRuntime.make_3d(8)
        algo = DistGCN3D(rt, ds2.adjacency, (11, 7, 3), seed=0)
        diff = algo.verify_against_serial(ds2.features, ds2.labels, epochs=2, seed=0)
        assert diff < 1e-10

    def test_narrow_features(self):
        """f < p^(1/3) splits: empty feature blocks must be harmless."""
        ds2 = make_synthetic(n=64, avg_degree=4, f=2, n_classes=2, seed=3)
        rt = VirtualRuntime.make_3d(27)
        algo = DistGCN3D(rt, ds2.adjacency, (2, 4, 2), seed=3)
        diff = algo.verify_against_serial(ds2.features, ds2.labels, epochs=2, seed=3)
        assert diff < 1e-10

    def test_directed_adjacency(self):
        from repro.graph.generators import erdos_renyi
        from repro.graph.normalize import add_self_loops, row_normalize

        directed = row_normalize(
            add_self_loops(erdos_renyi(60, 4.0, seed=4, directed=True))
        )
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((60, 8))
        labels = rng.integers(0, 3, 60)
        rt = VirtualRuntime.make_3d(8)
        algo = DistGCN3D(rt, directed, (8, 6, 3), seed=5)
        diff = algo.verify_against_serial(feats, labels, epochs=2, seed=5)
        assert diff < 1e-10

    def test_wrong_mesh_rejected(self, ds):
        rt = VirtualRuntime.make_2d(4)
        with pytest.raises(TypeError, match="3D mesh"):
            DistGCN3D(rt, ds.adjacency, WIDTHS)


class TestCommunicationAccounting:
    def _epoch(self, dataset, p, widths=WIDTHS):
        rt = VirtualRuntime.make_3d(p)
        algo = DistGCN3D(rt, dataset.adjacency, widths, seed=0)
        algo.setup(dataset.features, dataset.labels)
        return algo.train_epoch(0)

    def test_sparse_and_dense_traffic_present(self, ds):
        """The set-up moves both; the sparse pieces move only there, so
        an epoch moves dense blocks alone."""
        algo = DistGCN3D(VirtualRuntime.make_3d(8), ds.adjacency, WIDTHS,
                         seed=0)
        hist = algo.fit(ds.features, ds.labels, epochs=1)
        assert hist.setup.scomm_bytes > 0
        assert hist.setup.dcomm_bytes > 0
        assert hist.epochs[0].scomm_bytes == 0
        assert hist.epochs[0].dcomm_bytes > 0

    def test_symmetric_input_needs_no_transpose(self, ds):
        """For A == A^T the Split-3D A-grid equals the A^T-grid block for
        block, so no transpose exchange is charged."""
        st = self._epoch(ds, 8)
        assert st.bytes_by_category[Category.TRPOSE] == 0

    def test_directed_input_charges_transpose(self):
        from repro.graph.generators import erdos_renyi
        from repro.graph.normalize import add_self_loops, row_normalize

        directed = row_normalize(
            add_self_loops(erdos_renyi(64, 4.0, seed=6, directed=True))
        )
        rng = np.random.default_rng(2)
        feats = rng.standard_normal((64, 8))
        labels = rng.integers(0, 3, 64)
        rt = VirtualRuntime.make_3d(8)
        algo = DistGCN3D(rt, directed, (8, 6, 3), seed=0)
        hist = algo.fit(feats, labels, epochs=2)
        # once, at set-up: each rank's block of the A grid
        assert hist.setup.bytes_by_category[Category.TRPOSE] == sum(
            algo.a_blocks[r].nbytes_on_wire for r in range(rt.size)) > 0
        assert [e.bytes_by_category[Category.TRPOSE]
                for e in hist.epochs] == [0, 0]

    def test_per_rank_comm_shrinks_faster_than_2d(self):
        """Section IV-D: 3D reduces per-process words by P^(2/3) versus
        2D's P^(1/2).  Compare the same P=64 on both algorithms."""
        from repro.dist.algo_2d import DistGCN2D

        big = make_synthetic(n=512, avg_degree=6, f=32, n_classes=4, seed=7)
        w = (32, 16, 4)
        rt2 = VirtualRuntime.make_2d(64)
        algo2 = DistGCN2D(rt2, big.adjacency, w, seed=0)
        algo2.setup(big.features, big.labels)
        st2 = algo2.train_epoch(0)
        rt3 = VirtualRuntime.make_3d(64)
        algo3 = DistGCN3D(rt3, big.adjacency, w, seed=0)
        algo3.setup(big.features, big.labels)
        st3 = algo3.train_epoch(0)
        # 3D's dense per-rank traffic beats 2D's at equal P (the paper's
        # asymptotic claim; constants favour 3D by P^(1/6) = 2 here).
        assert (
            st3.max_rank_comm_bytes < st2.max_rank_comm_bytes
        )

    def test_executed_order_at_p64_is_3d_2d_1d(self):
        """Section IV's headline ordering on executed runs at P = 64:
        3D moves fewer per-rank bytes than 2D, and 2D fewer than 1D."""
        from repro.dist import make_algorithm

        big = make_synthetic(n=640, avg_degree=8, f=32, n_classes=4, seed=0)
        per_rank = {}
        for name in ("1d", "2d", "3d"):
            algo = make_algorithm(name, 64, big, hidden=16, seed=0)
            algo.setup(big.features, big.labels)
            per_rank[name] = algo.train_epoch(0).max_rank_comm_bytes
        assert per_rank["3d"] < per_rank["2d"] < per_rank["1d"]


class TestTrainingBehaviour:
    def test_loss_decreases(self, ds):
        rt = VirtualRuntime.make_3d(8)
        algo = DistGCN3D(rt, ds.adjacency, WIDTHS, seed=9)
        hist = algo.fit(ds.features, ds.labels, epochs=15)
        assert hist.final_loss < hist.losses[0]

    def test_gather_log_probs_is_valid_distribution(self, ds):
        rt = VirtualRuntime.make_3d(8)
        algo = DistGCN3D(rt, ds.adjacency, WIDTHS, seed=10)
        algo.fit(ds.features, ds.labels, epochs=1)
        lp = algo.gather_log_probs()
        assert lp.shape == (ds.num_vertices, WIDTHS[-1])
        np.testing.assert_allclose(np.exp(lp).sum(axis=1), 1.0, atol=1e-9)
