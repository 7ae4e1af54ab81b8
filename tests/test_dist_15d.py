"""The 1.5D block-row algorithm: replication-for-bandwidth trade."""

import numpy as np
import pytest

from repro.comm import VirtualRuntime
from repro.dist.algo_15d import DistGCN15D
from repro.graph import make_synthetic


@pytest.fixture(scope="module")
def ds():
    return make_synthetic(n=96, avg_degree=5, f=10, n_classes=4, seed=17)


WIDTHS = (10, 8, 4)


class TestVerification:
    @pytest.mark.parametrize("p,c", [(4, 1), (4, 2), (4, 4), (8, 2), (9, 3)])
    def test_matches_serial(self, ds, p, c):
        rt = VirtualRuntime.make_1d(p)
        algo = DistGCN15D(rt, ds.adjacency, WIDTHS, replication=c, seed=1)
        diff = algo.verify_against_serial(ds.features, ds.labels, epochs=3, seed=1)
        assert diff < 1e-10

    def test_uneven_groups(self):
        ds2 = make_synthetic(n=101, avg_degree=4, f=6, n_classes=3, seed=2)
        rt = VirtualRuntime.make_1d(6)
        algo = DistGCN15D(rt, ds2.adjacency, (6, 5, 3), replication=2, seed=0)
        diff = algo.verify_against_serial(ds2.features, ds2.labels, epochs=2, seed=0)
        assert diff < 1e-10

    def test_replication_must_divide_p(self, ds):
        rt = VirtualRuntime.make_1d(6)
        with pytest.raises(ValueError, match="divide"):
            DistGCN15D(rt, ds.adjacency, WIDTHS, replication=4)

    def test_requires_symmetric(self):
        from repro.graph.generators import erdos_renyi
        from repro.graph.normalize import add_self_loops, row_normalize

        directed = row_normalize(
            add_self_loops(erdos_renyi(40, 4.0, seed=3, directed=True))
        )
        rt = VirtualRuntime.make_1d(4)
        with pytest.raises(ValueError, match="symmetric"):
            DistGCN15D(rt, directed, (8, 4, 2), replication=2)


class TestReplicationTrade:
    def _broadcast_bytes(self, ds, p, c):
        rt = VirtualRuntime.make_1d(p)
        algo = DistGCN15D(rt, ds.adjacency, WIDTHS, replication=c, seed=0)
        algo.setup(ds.features, ds.labels)
        st = algo.train_epoch(0)
        return st, algo

    def test_higher_c_cuts_per_rank_volume_up_to_optimum(self):
        """The c-fold bandwidth reduction: per-rank words follow
        ``2nf/c + 4nfc/P``, optimal at ``c* = sqrt(P/2)``.  At P = 32 the
        curve is strictly decreasing through c = 1, 2, 4 and c* = 4 is the
        executed minimum."""
        big = make_synthetic(n=320, avg_degree=5, f=16, n_classes=4, seed=4)
        w = (16, 8, 4)
        per_rank = {}
        for c in (1, 2, 4, 8, 16):
            rt = VirtualRuntime.make_1d(32)
            algo = DistGCN15D(rt, big.adjacency, w, replication=c, seed=0)
            algo.setup(big.features, big.labels)
            st = algo.train_epoch(0)
            per_rank[c] = st.max_rank_comm_bytes
        assert per_rank[2] < per_rank[1]
        assert per_rank[4] < per_rank[2]
        assert min(per_rank, key=per_rank.get) == 4

    def test_past_optimum_c_hurts(self):
        """Beyond c* = sqrt(P/2) the fiber all-reduce term dominates and
        more replication makes communication WORSE (P = 8, c* = 2)."""
        big = make_synthetic(n=320, avg_degree=5, f=16, n_classes=4, seed=4)
        w = (16, 8, 4)
        per_rank = {}
        for c in (2, 8):
            rt = VirtualRuntime.make_1d(8)
            algo = DistGCN15D(rt, big.adjacency, w, replication=c, seed=0)
            algo.setup(big.features, big.labels)
            st = algo.train_epoch(0)
            per_rank[c] = st.max_rank_comm_bytes
        assert per_rank[8] > per_rank[2]

    def test_memory_grows_with_c(self, ds):
        """Section IV-B's cost: dense replication factor c."""
        mems = {}
        for c in (1, 2, 4):
            st, algo = self._broadcast_bytes(ds, 4, c)
            # groups q = P/c shrink, so each group's (replicated) dense
            # stack grows ~ c-fold per rank.
            mems[c] = algo.dense_memory_words_per_rank()
        assert mems[2] > mems[1]
        assert mems[4] > mems[2]

    def test_c1_equals_1d_symmetric_losses(self, ds):
        """c = 1 degenerates to the 1D algorithm exactly."""
        from repro.dist.algo_1d import DistGCN1D

        rt1 = VirtualRuntime.make_1d(4)
        one_d = DistGCN1D(rt1, ds.adjacency, WIDTHS, seed=3, variant="symmetric")
        h1 = one_d.fit(ds.features, ds.labels, epochs=4)
        rt2 = VirtualRuntime.make_1d(4)
        c1 = DistGCN15D(rt2, ds.adjacency, WIDTHS, replication=1, seed=3)
        h2 = c1.fit(ds.features, ds.labels, epochs=4)
        np.testing.assert_allclose(h1.losses, h2.losses, rtol=1e-12)

    def test_loss_decreases(self, ds):
        rt = VirtualRuntime.make_1d(8)
        algo = DistGCN15D(rt, ds.adjacency, WIDTHS, replication=4, seed=5)
        hist = algo.fit(ds.features, ds.labels, epochs=15)
        assert hist.final_loss < hist.losses[0]
