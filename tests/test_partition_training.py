"""Partition-aware training: Distribution, the 1D ghost variant, and the
ledger/oracle equalities of ISSUE 5.

The load-bearing contracts:

* the partition machinery is *only* a relabelling -- training through a
  ``Distribution`` is bit-identical to training on externally permuted
  data (``apply_random_permutation`` with the induced permutation), for
  all four algorithm families;
* the ghost variant's numerics are bitwise the dense all-gather path's
  (the compact operand holds exactly the referenced rows, monotonically
  remapped);
* the ghost exchange's ledger bytes equal
  ``ghost_rows_per_part(A, assignment, P) * f * itemsize`` exactly, the
  schedule oracle predicts the executed epoch byte for byte, and the
  multiprocess backend reproduces both -- which is what finally makes
  partition quality (Section IV-A.8) visible in the executed ledger.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.cost_model import gather_rows_cost
from repro.comm.runtime import VirtualRuntime
from repro.comm.tracker import Category
from repro.config import SUMMIT
from repro.dist import (
    ALGORITHMS,
    Distribution,
    ghost_structure,
    make_algorithm,
    make_distribution,
)
from repro.dist.algo_1d import DistGCN1D, resolve_1d_variant
from repro.graph import make_synthetic
from repro.nn.layers import sweep_widths
from repro.graph.permutation import apply_random_permutation
from repro.partition import ghost_rows_per_part
from repro.simulate.schedule import (
    GatherRowsPhase,
    GraphModel,
    evaluate_schedule,
)

WB = 8  # fp64 bytes


@pytest.fixture(scope="module")
def ds():
    return make_synthetic(n=120, avg_degree=6, f=10, n_classes=4, seed=3)


WIDTHS = (10, 8, 4)


def expansion_bytes(ghosts_total: int, widths) -> int:
    """Per-epoch ghost-exchange bytes: ``L - 1`` exchanges each way,
    each at the narrow side of its layer (``A^T H^0`` is aggregated
    once, at set-up: :func:`setup_expansion_bytes`; layer 1 forms no
    ``A G``)."""
    forward, backward = sweep_widths(widths)
    return sum(ghosts_total * f * WB for f in forward + backward)


def setup_expansion_bytes(ghosts_total: int, widths) -> int:
    """The one-time aggregation's ghost exchange, at width ``f^0``."""
    return ghosts_total * widths[0] * WB


class TestDistribution:
    def test_block_is_identity(self):
        d = Distribution.block(10, 3)
        assert d.is_identity
        assert d.row_ranges == ((0, 4), (4, 7), (7, 10))
        x = np.arange(10.0)
        np.testing.assert_array_equal(d.permute_rows(x), x)

    def test_from_assignment_part_major(self):
        d = Distribution.from_assignment(
            np.array([1, 0, 1, 0, 2]), 3, kind="custom"
        )
        # Stable part-major: vertices 1,3 -> part 0; 0,2 -> part 1; 4 -> 2.
        np.testing.assert_array_equal(d.inv, [1, 3, 0, 2, 4])
        assert d.row_ranges == ((0, 2), (2, 4), (4, 5))
        x = np.arange(5.0) * 10
        y = d.permute_rows(x)
        np.testing.assert_array_equal(y, [10, 30, 0, 20, 40])
        np.testing.assert_array_equal(d.unpermute_rows(y), x)

    def test_empty_parts_yield_empty_ranges(self):
        d = Distribution.from_assignment(np.array([0, 0, 3]), 5)
        assert d.row_ranges == ((0, 2), (2, 2), (2, 2), (2, 3), (3, 3))
        np.testing.assert_array_equal(d.part_sizes, [2, 0, 0, 1, 0])

    def test_build_kinds(self, ds):
        for kind in ("block", "random", "multilevel"):
            d = Distribution.build(kind, ds.adjacency, 4, seed=0)
            assert d.kind == kind
            assert d.nparts == 4
            assert int(d.part_sizes.sum()) == ds.adjacency.nrows
        with pytest.raises(ValueError, match="unknown partition"):
            Distribution.build("metis", ds.adjacency, 4)

    def test_validation(self):
        with pytest.raises(ValueError, match="nparts"):
            Distribution.from_assignment(np.array([0]), 0)
        with pytest.raises(ValueError, match="part ids"):
            Distribution.from_assignment(np.array([5]), 2)

    def test_make_distribution_passthrough(self, ds):
        d = Distribution.block(ds.adjacency.nrows, 4)
        assert make_distribution(d, ds.adjacency, 4) is d
        assert make_distribution(None, ds.adjacency, 4) is None
        with pytest.raises(ValueError, match="unknown partition"):
            make_distribution("metis", ds.adjacency, 4)


class TestGhostVariantResolution:
    def test_ghost_rejects_directed_like_symmetric(self):
        """Satellite: directed operands fail at resolution, with the
        symmetric check's exception type and message shape."""
        for variant in ("symmetric", "ghost"):
            with pytest.raises(ValueError, match=(
                f"the {variant} variant requires a symmetric operand"
            )):
                resolve_1d_variant(variant, symmetric=False)

    def test_ghost_rejects_directed_at_construction(self):
        from repro.graph.generators import erdos_renyi
        from repro.graph.normalize import add_self_loops, row_normalize

        directed = row_normalize(
            add_self_loops(erdos_renyi(40, 4.0, seed=1, directed=True))
        )
        rt = VirtualRuntime.make_1d(4)
        with pytest.raises(ValueError, match="symmetric operand"):
            DistGCN1D(rt, directed, (8, 4, 2), variant="ghost")

    def test_emit_rejects_directed(self):
        from repro.graph.generators import erdos_renyi
        from repro.graph.normalize import add_self_loops, row_normalize

        directed = row_normalize(
            add_self_loops(erdos_renyi(40, 4.0, seed=1, directed=True))
        )
        with pytest.raises(ValueError, match="symmetric operand"):
            DistGCN1D.emit_comm_schedule(
                GraphModel.from_csr(directed), (8, 4, 2), 4,
                variant="ghost",
            )


class TestGhostNumerics:
    def test_ghost_bitwise_equals_symmetric(self, ds):
        """The compact operand is an exact row subset, so SpMM results
        (hence losses and predictions) are bitwise the dense path's."""
        rt_s = VirtualRuntime.make_1d(4)
        rt_g = VirtualRuntime.make_1d(4)
        sym = DistGCN1D(rt_s, ds.adjacency, WIDTHS, seed=1,
                        variant="symmetric")
        gho = DistGCN1D(rt_g, ds.adjacency, WIDTHS, seed=1,
                        variant="ghost")
        h_s = sym.fit(ds.features, ds.labels, epochs=3)
        h_g = gho.fit(ds.features, ds.labels, epochs=3)
        assert h_s.losses == h_g.losses
        np.testing.assert_array_equal(sym.predict(), gho.predict())

    @pytest.mark.parametrize("kind", ["block", "random", "multilevel"])
    def test_ghost_matches_serial_under_partition(self, ds, kind):
        d = Distribution.build(kind, ds.adjacency, 4, seed=0)
        rt = VirtualRuntime.make_1d(4)
        algo = DistGCN1D(rt, ds.adjacency, WIDTHS, seed=1,
                         variant="ghost", distribution=d)
        diff = algo.verify_against_serial(ds.features, ds.labels,
                                          epochs=3, seed=1)
        assert diff < 1e-10

    def test_outer_variant_with_uneven_partition(self, ds):
        """The reduce-scatter shards at the distribution's (uneven) row
        ranges -- the custom-bounds path."""
        d = Distribution.build("multilevel", ds.adjacency, 4, seed=0)
        assert len(set(map(int, d.part_sizes))) > 1  # genuinely uneven
        rt = VirtualRuntime.make_1d(4)
        algo = DistGCN1D(rt, ds.adjacency, WIDTHS, seed=1,
                         variant="outer", distribution=d)
        diff = algo.verify_against_serial(ds.features, ds.labels,
                                          epochs=3, seed=1)
        assert diff < 1e-10

    def test_p1_degenerate(self, ds):
        rt = VirtualRuntime.make_1d(1)
        algo = DistGCN1D(rt, ds.adjacency, WIDTHS, seed=2, variant="ghost")
        assert algo.verify_against_serial(ds.features, ds.labels,
                                          epochs=2, seed=2) < 1e-12


class TestPermutationInvarianceOracle:
    """Training through a Distribution == training on externally
    permuted data, bit for bit, for all four algorithm families."""

    CONFIGS = [
        ("1d", 4, {}),
        ("1d", 4, {"variant": "ghost"}),
        ("1.5d", 4, {"replication": 2}),
        ("2d", 4, {}),
        ("3d", 8, {}),
    ]

    @pytest.mark.parametrize("name,p,kw", CONFIGS)
    def test_distribution_equals_external_permutation(self, ds, name, p, kw):
        d = Distribution.build("random", ds.adjacency, p, seed=5)
        assert not d.is_identity
        a2, f2, l2, perm = apply_random_permutation(
            ds.adjacency, ds.features, ds.labels, perm=d.perm
        )
        np.testing.assert_array_equal(perm, d.perm)

        from repro.dist.registry import make_runtime_for

        rt_d = make_runtime_for(name, p)
        algo_d = ALGORITHMS[name](rt_d, ds.adjacency, WIDTHS, seed=1,
                                  distribution=d, **kw)
        hist_d = algo_d.fit(ds.features, ds.labels, epochs=3)

        rt_e = make_runtime_for(name, p)
        algo_e = ALGORITHMS[name](rt_e, a2, WIDTHS, seed=1, **kw)
        hist_e = algo_e.fit(f2, l2, epochs=3)

        assert hist_d.losses == hist_e.losses  # bit-identical
        # Predictions agree modulo the vertex relabelling (the
        # distribution run already maps back to the original order).
        np.testing.assert_array_equal(
            algo_d.predict(), algo_e.predict()[d.perm]
        )
        # And the ledgers agree byte for byte: same collectives, same
        # payload shapes -- the relabelling moves no extra data.
        st_d, st_e = hist_d.epochs[-1], hist_e.epochs[-1]
        assert st_d.bytes_by_category == st_e.bytes_by_category

    def test_evaluate_uses_original_vertex_order(self, ds):
        d = Distribution.build("random", ds.adjacency, 4, seed=5)
        rt = VirtualRuntime.make_1d(4)
        algo = DistGCN1D(rt, ds.adjacency, WIDTHS, seed=1,
                         variant="ghost", distribution=d)
        algo.fit(ds.features, ds.labels, epochs=2)
        loss, acc = algo.evaluate(ds.labels)
        assert np.isfinite(loss) and 0.0 <= acc <= 1.0


class TestGhostLedgerOracle:
    """Acceptance: at P=8 on an R-MAT stand-in, ghost expansion bytes
    match ``ghost_rows_per_part * f * itemsize`` exactly, the simulate
    oracle predicts the executed ledger byte for byte, and multilevel
    beats block strictly."""

    P = 8

    @pytest.fixture(scope="class")
    def rmat_ds(self):
        return make_synthetic(n=256, avg_degree=8, f=12, n_classes=4,
                              seed=7)

    def _epoch(self, rmat_ds, dist):
        rt = VirtualRuntime.make_1d(self.P)
        algo = DistGCN1D(rt, rmat_ds.adjacency, (12, 8, 4), seed=0,
                         variant="ghost", distribution=dist)
        algo.setup(rmat_ds.features, rmat_ds.labels)
        self.setup_dcomm = algo.rt.tracker.total_bytes("dcomm")
        algo.rt.reset_stats()    # epoch seconds exact, not a subtraction
        return algo, algo.train_epoch(0)

    @pytest.mark.parametrize("kind", ["block", "multilevel"])
    def test_ledger_matches_ghost_rows_prediction(self, rmat_ds, kind):
        dist = Distribution.build(kind, rmat_ds.adjacency, self.P, seed=0)
        algo, stats = self._epoch(rmat_ds, dist)
        ghosts = ghost_rows_per_part(rmat_ds.adjacency, dist.assignment,
                                     self.P)
        # The executed plan's per-rank ghost counts ARE the edge-cut
        # metric's r_i vector (relabelling is a neighbour-set bijection).
        np.testing.assert_array_equal(ghosts, algo._ghost.ghost_rows)
        # Schedule oracle: gather phases carry exactly r_i * f * WB ...
        sched = DistGCN1D.emit_comm_schedule(
            GraphModel.from_dataset(rmat_ds), (12, 8, 4), self.P,
            variant="ghost", distribution=dist,
        )
        gather_bytes = sum(
            int(ph.nbytes.sum()) for ph in sched.phases
            if isinstance(ph, GatherRowsPhase)
        )
        assert gather_bytes == expansion_bytes(int(ghosts.sum()), (12, 8, 4))
        (once,) = sched.setup.phases[:1]
        assert isinstance(once, GatherRowsPhase)
        assert int(once.nbytes.sum()) == self.setup_dcomm \
            == setup_expansion_bytes(int(ghosts.sum()), (12, 8, 4))
        # ... and the priced schedule reproduces the executed epoch's
        # dcomm ledger byte for byte (seconds to the float).
        res = evaluate_schedule(sched, algo.rt.profile)
        assert res.bytes_by_category["dcomm"] == stats.dcomm_bytes
        assert (res.seconds_by_category["dcomm"]
                == stats.seconds_by_category["dcomm"])

    def test_multilevel_strictly_beats_block(self, rmat_ds):
        per_kind = {}
        for kind in ("block", "multilevel"):
            dist = Distribution.build(kind, rmat_ds.adjacency, self.P,
                                      seed=0)
            ghosts = ghost_rows_per_part(rmat_ds.adjacency,
                                         dist.assignment, self.P)
            _, stats = self._epoch(rmat_ds, dist)
            per_kind[kind] = (int(ghosts.sum()), stats.dcomm_bytes)
        # Fewer total ghost rows, hence strictly fewer expansion bytes;
        # the non-expansion dcomm terms (loss/weight all-reduces) are
        # partition-independent, so whole-epoch dcomm drops too.
        assert per_kind["multilevel"][0] < per_kind["block"][0]
        assert per_kind["multilevel"][1] < per_kind["block"][1]
        diff_bytes = per_kind["block"][1] - per_kind["multilevel"][1]
        diff_ghosts = per_kind["block"][0] - per_kind["multilevel"][0]
        assert diff_bytes == expansion_bytes(diff_ghosts, (12, 8, 4))

    def test_uniform_oracle_has_partition_term(self):
        """Shape-only graphs still price a ghost phase (the expected
        -occupancy estimate), so sweeps can include the variant."""
        g = GraphModel.uniform(4096, 4096 * 16, features=32, n_classes=4)
        sched = DistGCN1D.emit_comm_schedule(g, (32, 16, 4), 8,
                                             variant="ghost")
        gather = [ph for ph in sched.phases
                  if isinstance(ph, GatherRowsPhase)]
        assert len(gather) == 2  # L - 1 = 1 forward + 1 backward sweep
        assert all(ph.nbytes.sum() > 0 for ph in gather)
        (once, _spmm) = sched.setup.phases  # ... and one at set-up
        assert isinstance(once, GatherRowsPhase) and once.nbytes.sum() > 0


class TestGatherRowsPrimitive:
    def test_charged_bytes_and_data(self):
        rt = VirtualRuntime.make_1d(3)
        blocks = {
            0: np.arange(8.0).reshape(4, 2),
            1: np.arange(8.0, 14.0).reshape(3, 2),
            2: np.arange(14.0, 20.0).reshape(3, 2),
        }
        pairs = [
            (0, 1, np.array([1, 3])),   # rank 1 pulls 2 rows from 0
            (2, 1, np.array([0])),      # and 1 row from 2
            (1, 2, np.array([2])),      # rank 2 pulls 1 row from 1
        ]
        before = rt.tracker.total_bytes(Category.DCOMM)
        out = rt.coll.gather_rows(pairs, blocks, row_nbytes=16)
        np.testing.assert_array_equal(out[0], [[2.0, 3.0], [6.0, 7.0]])
        np.testing.assert_array_equal(out[1], [[14.0, 15.0]])
        np.testing.assert_array_equal(out[2], [[12.0, 13.0]])
        assert not out[0].flags.writeable
        # Receive-side exact bytes: rank 1 gets 3 rows, rank 2 gets 1.
        assert rt.tracker.total_bytes(Category.DCOMM) - before == 4 * 16
        assert rt.tracker.rank_totals(1)[Category.DCOMM].bytes == 3 * 16
        assert rt.tracker.rank_totals(1)[Category.DCOMM].messages == 2

    def test_self_send_rejected(self):
        rt = VirtualRuntime.make_1d(2)
        with pytest.raises(ValueError, match="self-send"):
            rt.coll.gather_rows(
                [(0, 0, np.array([0]))], {0: np.zeros((1, 1))},
                row_nbytes=8,
            )

    def test_pair_that_names_no_row_rejected(self):
        """Like a self-send: a receiver that reads no row is left out of
        the pair list, so it is charged no message.  The rule agrees --
        zero bytes is free, whatever the source count says."""
        rt = VirtualRuntime.make_1d(2)
        with pytest.raises(ValueError, match="names no row"):
            rt.coll.gather_rows(
                [(0, 1, np.array([], dtype=np.int64))],
                {0: np.zeros((1, 1))}, row_nbytes=8,
            )
        for sources in (0, 1, 3):
            cost = gather_rows_cost(SUMMIT, 0, sources, span=4)
            assert (cost.seconds, cost.bytes_critical, cost.messages) == \
                (0.0, 0, 0)

    def test_routed_post_checks_its_pairs(self):
        """The split-phase post the stage loops move their rows through
        refuses the same pairs as the charged form, before anything
        moves."""
        rt = VirtualRuntime.make_1d(2)
        blocks = {0: np.zeros((2, 1)), 1: np.zeros((2, 1))}
        for pair, match in (((1, 1, np.array([0])), "self-send"),
                            ((0, 1, np.array([], dtype=np.int64)),
                             "names no row")):
            with pytest.raises(ValueError, match=match):
                rt.coll.post("gather_rows", [(0, 1, np.array([1])), pair],
                             blocks)

    def test_ghost_structure_matches_edgecut(self, ds):
        d = Distribution.build("multilevel", ds.adjacency, 4, seed=1)
        g = ghost_structure(d.permute_matrix(ds.adjacency), d.row_ranges)
        np.testing.assert_array_equal(
            ghost_rows_per_part(ds.adjacency, d.assignment, 4),
            g.ghost_rows,
        )
        # Every pair's rows land in its slot: widths are consistent.
        for r in range(4):
            slots = sum(hi - lo for (s, dst, _), (lo, hi)
                        in zip(g.pairs, g.pair_slots) if dst == r)
            assert slots == g.ghost_rows[r]
            assert g.own_pos[r].size + g.ghost_rows[r] == g.width[r]
            # The operand has a full diagonal (A + I), so every own row
            # is referenced and the own slots are the block, in order.
            a, b = g.own_slice[r]
            np.testing.assert_array_equal(g.own_pos[r], np.arange(a, b))
            np.testing.assert_array_equal(
                g.own_idx[r], np.arange(d.row_ranges[r][1]
                                        - d.row_ranges[r][0]))

    def test_own_rows_without_a_full_diagonal(self):
        """No self loops: a rank references only those of its own rows
        that have a neighbour inside the block.  On a star only the
        hub's block does; the others have no own slice and take the
        gather/scatter placement -- same numerics."""
        from repro.graph.generators import star_graph

        a_t = star_graph(12)
        g = ghost_structure(a_t, Distribution.block(12, 4).row_ranges)
        assert g.own_slice == ((0, 3), None, None, None)
        empty = ghost_structure(a_t, ((0, 12), (12, 12)))
        assert empty.own_slice == ((0, 12), (0, 0))
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((12, 6)), rng.integers(0, 3, 12)
        losses = {
            variant: DistGCN1D(VirtualRuntime.make_1d(4), a_t, (6, 5, 3),
                               variant=variant).fit(x, y, epochs=3).losses
            for variant in ("ghost", "symmetric")
        }
        assert losses["ghost"] == losses["symmetric"]


class TestConstructionValidation:
    def test_distribution_size_mismatch(self, ds):
        rt = VirtualRuntime.make_1d(4)
        with pytest.raises(ValueError, match="covers"):
            DistGCN1D(rt, ds.adjacency, WIDTHS,
                      distribution=Distribution.block(7, 4))

    def test_distribution_part_count_mismatch(self, ds):
        rt = VirtualRuntime.make_1d(4)
        with pytest.raises(ValueError, match="parts"):
            DistGCN1D(rt, ds.adjacency, WIDTHS,
                      distribution=Distribution.block(ds.adjacency.nrows, 3))

    def test_emit_part_count_mismatch(self, ds):
        with pytest.raises(ValueError, match="parts"):
            DistGCN1D.emit_comm_schedule(
                GraphModel.from_dataset(ds), WIDTHS, 4, variant="ghost",
                distribution=Distribution.block(ds.adjacency.nrows, 3),
            )


class TestProcessBackendGhost:
    def test_ghost_ledger_and_losses_match_virtual(self, ds):
        """The acceptance criterion's 'on virtual AND process backends':
        the ghost exchange really crosses process boundaries and the
        ledger (hence the ghost_rows prediction) is byte-identical."""
        d = Distribution.build("multilevel", ds.adjacency, 4, seed=0)
        kw = dict(hidden=8, seed=0, variant="ghost", partition=d)
        v = make_algorithm("1d", 4, ds, **kw)
        hv = v.fit(ds.features, ds.labels, epochs=3)
        p = make_algorithm("1d", 4, ds, backend="process", workers=2, **kw)
        try:
            hp = p.fit(ds.features, ds.labels, epochs=3)
            lp_v, lp_p = v.predict(), p.predict()
        finally:
            p.rt.close()
        assert hv.losses == hp.losses
        for ev, ep in zip(hv.epochs, hp.epochs):
            assert ev.bytes_by_category == ep.bytes_by_category
            assert ev.seconds_by_category == ep.seconds_by_category
        np.testing.assert_array_equal(lp_v, lp_p)

    def test_verify_against_serial_with_distribution(self, ds):
        """The driver-side serial reference relabels its inputs the same
        way the workers' operand is relabelled."""
        algo = make_algorithm("1d", 4, ds, hidden=8, seed=0,
                              variant="ghost", partition="multilevel",
                              backend="process", workers=2)
        try:
            diff = algo.verify_against_serial(ds.features, ds.labels,
                                              epochs=2)
        finally:
            algo.rt.close()
        assert diff < 1e-10
