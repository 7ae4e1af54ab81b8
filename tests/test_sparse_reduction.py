"""The sparse outer-product reduction variant (Section IV-A.3).

"The theoretical sparsity analysis ... makes a case for taking advantage
of sparsity for intermediate low-rank products for large P" -- the
``outer_sparse`` 1D variant implements that SparCML-style reduction.
"""

import numpy as np
import pytest

from repro.comm import VirtualRuntime
from repro.dist.algo_1d import DistGCN1D
from repro.graph import make_synthetic


@pytest.fixture(scope="module")
def sparse_ds():
    """Low degree, so P > d is reachable with few ranks."""
    return make_synthetic(
        n=220, avg_degree=3, f=12, n_classes=3, seed=53,
        generator="erdos_renyi",
    )


WIDTHS = (12, 8, 3)


class TestCorrectness:
    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_matches_serial(self, sparse_ds, p):
        rt = VirtualRuntime.make_1d(p)
        algo = DistGCN1D(
            rt, sparse_ds.adjacency, WIDTHS, seed=1, variant="outer_sparse"
        )
        diff = algo.verify_against_serial(
            sparse_ds.features, sparse_ds.labels, epochs=3, seed=1
        )
        assert diff < 1e-10

    def test_identical_losses_to_dense_outer(self, sparse_ds):
        """Sparse routing changes bytes, never numerics."""
        losses = {}
        for variant in ("outer", "outer_sparse"):
            rt = VirtualRuntime.make_1d(4)
            algo = DistGCN1D(
                rt, sparse_ds.adjacency, WIDTHS, seed=2, variant=variant
            )
            hist = algo.fit(sparse_ds.features, sparse_ds.labels, epochs=4)
            losses[variant] = hist.losses
        np.testing.assert_allclose(
            losses["outer"], losses["outer_sparse"], rtol=1e-12
        )

    def test_directed_graph(self):
        from repro.graph.generators import erdos_renyi
        from repro.graph.normalize import add_self_loops, row_normalize

        directed = row_normalize(
            add_self_loops(erdos_renyi(60, 3.0, seed=3, directed=True))
        )
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((60, 8))
        labels = rng.integers(0, 3, 60)
        rt = VirtualRuntime.make_1d(6)
        algo = DistGCN1D(rt, directed, (8, 6, 3), seed=4,
                         variant="outer_sparse")
        diff = algo.verify_against_serial(feats, labels, epochs=2, seed=4)
        assert diff < 1e-10


class TestBandwidth:
    def _dcomm(self, ds, variant, p):
        rt = VirtualRuntime.make_1d(p)
        algo = DistGCN1D(rt, ds.adjacency, WIDTHS, seed=0, variant=variant)
        algo.setup(ds.features, ds.labels)
        return algo.train_epoch(0).dcomm_bytes

    def test_sparse_wins_when_p_exceeds_degree(self, sparse_ds):
        """d ~ 4 (with self loops), P = 16 > d: sparse reduction must ship
        fewer dense bytes."""
        dense = self._dcomm(sparse_ds, "outer", 16)
        sparse = self._dcomm(sparse_ds, "outer_sparse", 16)
        assert sparse < dense

    def test_savings_grow_with_p(self, sparse_ds):
        """The expected nonempty fraction 1 - e^{-d/P} falls with P, so
        the sparse variant's relative saving grows."""
        saving = {}
        for p in (4, 16):
            dense = self._dcomm(sparse_ds, "outer", p)
            sparse = self._dcomm(sparse_ds, "outer_sparse", p)
            saving[p] = 1 - sparse / dense
        assert saving[16] > saving[4]


class TestWireFromStructure:
    """The sparse wire is sized by which rows the structure can fill,
    never by the values: ledger == simulator whatever ``G`` holds."""

    def test_an_all_zero_row_ships_like_a_dense_one(self):
        world = (0, 1, 2, 3)
        rng = np.random.default_rng(0)
        dense = {r: rng.standard_normal((6, 3)) for r in world}
        holed = {r: v.copy() for r, v in dense.items()}
        for v in holed.values():
            v[2] = 0.0                       # ReLU zeroed a whole row
        holed[3][:] = 0.0                    # ... or all of them
        charged = []
        for values in (dense, holed):
            rt = VirtualRuntime.make_1d(4)
            rt.coll.sparse_reduce_scatter(world, values, nz_rows=(6, 4, 5, 6))
            charged.append((rt.tracker.total_bytes(),
                            rt.tracker.total_messages()))
        assert charged[0] == charged[1]
        assert charged[0][0] > 0

    def test_nz_rows_names_every_member(self):
        rt = VirtualRuntime.make_1d(2)
        with pytest.raises(ValueError, match="1 nonzero-row counts"):
            rt.coll.sparse_reduce_scatter(
                (0, 1), {0: np.ones((2, 2)), 1: np.ones((2, 2))}, nz_rows=(2,))

    def test_single_class_epoch_matches_the_schedule(self, sparse_ds):
        """With one class ``G^L`` is identically zero, so every partial
        ``A[:, rows_i] G_i`` is too -- the wire still carries the
        structural rows the simulator counts."""
        from test_simulate import assert_sections_exact

        from repro.simulate.schedule import GraphModel

        widths = (12, 8, 1)
        rt = VirtualRuntime.make_1d(8)
        algo = DistGCN1D(rt, sparse_ds.adjacency, widths, seed=0,
                         variant="outer_sparse")
        schedule = DistGCN1D.emit_comm_schedule(
            GraphModel.from_dataset(sparse_ds), widths, 8,
            variant="outer_sparse")
        labels = np.zeros(sparse_ds.num_vertices, dtype=np.int64)
        assert_sections_exact(algo, sparse_ds.features, labels, schedule,
                              rt.profile)
