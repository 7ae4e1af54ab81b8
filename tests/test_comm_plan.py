"""Comm plans, fast-path collectives, and the pre-optimization oracle.

Three layers of insurance around the executed-runtime fast path
(copy-on-write collectives + :class:`repro.comm.plan.CommPlan` + cached
charge replay + workspace reuse):

1. **CommPlan semantics** -- group interning still validates, splits
   match ``numpy.array_split``, workspaces are stable, and steady-state
   epochs are pure cache hits;
2. **ledger identity** -- per-epoch bytes per category, the max-per-rank
   bytes, and the modeled seconds are *byte-for-byte identical* to
   constants captured from the pre-optimization tree (commit 3245033)
   for all four algorithms at P in {4, 8, 16} (3D: its cubic 8/27), and
   still match the PR 2 schedule oracle;
3. **numerics** -- the executed losses equal the pre-optimization losses
   exactly under frozen seeds, and every algorithm still verifies
   against the serial reference.
"""

import numpy as np
import pytest

from repro.comm import VirtualRuntime
from repro.comm.plan import CommPlan
from repro.comm.tracker import Category, CommTracker
from repro.dist import make_algorithm
from repro.graph import make_synthetic
from repro.sparse.distribute import block_ranges

# ---------------------------------------------------------------------- #
# The frozen workload every oracle assertion runs against.
# ---------------------------------------------------------------------- #
GRAPH = dict(n=192, avg_degree=8, f=12, n_classes=4, seed=7)
HIDDEN = 8
SEED = 3

#: (algorithm, P, kwargs) configurations covering every family at
#: P in {4, 8, 16} (3D at its feasible cubes 8 and 27).
CONFIGS = [
    ("1d", 4, {}),
    ("1d", 8, {}),
    ("1d", 16, {}),
    ("1.5d", 4, {"replication": 2}),
    ("1.5d", 8, {"replication": 4}),
    ("1.5d", 16, {"replication": 4}),
    ("2d", 4, {}),
    ("2d", 8, {"grid": (4, 2)}),
    ("2d", 16, {}),
    ("3d", 8, {}),
    ("3d", 27, {}),
]

#: Per-epoch ledger deltas and losses of THIS workload.  The eleven
#: ``loss1`` values were recorded on the pre-optimization tree (commit
#: 3245033, before copy-on-write collectives / comm plans / workspace
#: reuse existed) and changed only once, in the last bit of the two 3D
#: rows when the Split-3D layer slices were interleaved (below): the fast
#: path must reproduce every one exactly.  ``dcomm`` / ``scomm`` / ``max_rank`` / ``seconds``
#: were re-recorded once, at ISSUE 22, when two SpMM sweeps left the
#: epoch -- the layer-1 ``A^T H^0`` (aggregated at set-up instead) and
#: the layer-1 ``A G^1`` (never read).  With widths (12, 8, 8, 4) that
#: is 12 + 8 of the 48 dense column-units an epoch's sweeps moved: 1D
#: P = 4 ``dcomm`` 230496 -> 138336 = 20 units x (P - 1) n x 8 bytes.
#: And once more at ISSUE 24, when every sweep moved to the narrow side
#: of its layer: the last layer (8 -> 4) now sweeps at 4 forward instead
#: of 8, so 28 -> 24 units, 1D P = 4 ``dcomm`` 138336 -> 119904; the
#: equal-width middle layer keeps its order, and the eleven ``loss1``
#: values came out bit-identical (the reassociated last layer differs
#: from the old order below the last digit here).  And once more for the
#: five grid rows only, when layer 1's two replicated-``W`` stage loops
#: stopped re-broadcasting the epoch-invariant ``T^0`` (it is gathered
#: along the row groups once, at set-up): two loops left the epoch, each
#: charging every group member its group's rows x f^0 x 8 bytes -- 2D
#: P = 4 ``dcomm`` 298080 -> 224352 (2 x Pc x n x 12 x 8 less), 3D P = 27
#: 615111 -> 504519 (2 x 3 x n x 12 x 8 less); ``scomm`` / ``trpose`` and
#: the eleven ``loss1`` values did not move.  And once more for the five
#: grid rows, when the replicated-``W`` funnels above layer 1 went to the
#: narrow width: the last layer (8 -> 4) reduce-scatters its forward
#: product and all-gathers ``A G`` once for both backward funnels, each
#: charging the world (Pc - 1) x n x 4 x 8 bytes, where its three stage
#: loops had charged Pc x n x (8 + 8 + 4) x 8 -- 2D P = 4 ``dcomm`` 224352
#: -> 175200; ``scomm`` / ``trpose`` and the eleven ``loss1`` values did
#: not move.  And once more for the five grid rows, when the equal-width
#: middle layer's weight gradient began to read the ``T^2`` stages its
#: forward product received instead of broadcasting them again: one stage
#: loop left the epoch, Pc x n x 8 x 8 bytes -- 2D P = 4 ``dcomm`` 175200
#: -> 150624, 3D P = 27 436929 -> 400065; ``scomm`` / ``trpose`` and the
#: eleven ``loss1`` values did not move.  And once more for the five grid
#: rows, when the two row-group operands the epoch still moved by ``Pc``
#: stage broadcasts -- the middle layer's forward ``T^2`` and its backward
#: ``A G^2`` -- became one all-gather each: a broadcast charges every
#: member the root's block, an all-gather only the ``Pc - 1`` blocks it
#: receives, so each operand charges n x 8 x 8 bytes less -- 2D P = 4
#: ``dcomm`` 150624 -> 126048 (and ``max_rank`` 93492 -> 87348, modeled
#: seconds and messages down with it: ``ceil(lg Pc)`` latencies per
#: member, not ``Pc``), 3D P = 27 400065 -> 375477 (its ``(Pc - 1) /
#: Pc`` share of a group's bytes rounds down per member); ``scomm`` /
#: ``trpose`` and the eleven ``loss1`` values did not move.  And once
#: more, for the modeled seconds of all eleven rows, when the loss pair
#: and the three weight gradients began to reduce in one bucket, one
#: replicated all-reduce an epoch instead of four: three all-reduces'
#: latency terms left every epoch (1D P = 4 0.00019552624206766914 ->
#: 0.00018952624206766913, 3D P = 27 0.0005683429103081374 ->
#: 0.0005083429103081374).  Bytes moved only at 3D P = 27, by the
#: all-reduce's ``(P - 1) / P = 26 / 27`` share rounding down once per
#: half instead of once per half and piece: ``dcomm`` 375477 -> 375531,
#: ``max_rank`` 38177 -> 38179; ``scomm`` / ``trpose`` and the eleven
#: ``loss1`` values did not move.  And once more for the two 3D rows,
#: when layer ``k`` came to own the ``k``-th sub-slice of every row block
#: instead of one contiguous slice: the fiber reduce-scatter's shards are
#: then the input layout, and every sweep's fiber-plane point-to-point
#: exchange left the epoch -- P = 8 ``dcomm`` 193760 -> 175328,
#: ``max_rank`` 58716 -> 54108, seconds 0.0003681692355933311 ->
#: 0.00035144750640078454; P = 27 ``dcomm`` 375531 -> 350955,
#: ``max_rank`` 38179 -> 38579 (each layer's slice now spans every row
#: block, which moves the busiest rank), seconds 0.0005083429103081374
#: -> 0.0004922167363950941.  Each output element's inner sum is
#: regrouped by layer, so both 3D ``loss1`` values moved in the last bit
#: (...768 -> ...766); ``scomm`` / ``trpose`` and the nine other rows did
#: not move.  And once more for the two rows whose SUMMA stages have one
#: receiver per column (2D P = 4 on 2 x 2, 3D P = 8), when such a stage
#: began to send that receiver only the dense rows its sparse piece
#: reads instead of broadcasting the whole stage block: the receiver
#: and the root are each charged those rows -- 2D P = 4 ``dcomm`` 126048
#: -> 96096, ``max_rank`` 87348 -> 79860, seconds 0.0003036257886678656
#: -> 0.0003035087886678656; 3D P = 8 175328 -> 145376, 54108 -> 51036,
#: 0.00035144750640078454 -> 0.0003513139411833933.  The compacted
#: pieces keep their ``nnz`` and rows, so ``scomm`` did not move, and
#: each output row sums in the same order, so no ``loss1`` did either.
#: And once more for the three rows whose stages have two receivers per
#: column or more (2D P = 8 on 4 x 2, 2D P = 16, 3D P = 27), when every
#: stage began to relay its rows down the column, each hop carrying only
#: the rows the members after it read, instead of broadcasting the
#: block: 2D P = 8 ``dcomm`` 212192 -> 152288, ``max_rank`` 65400 ->
#: 59160, seconds 0.0004579610914939523 -> 0.00045770648279830014; 2D
#: P = 16 323040 -> 263136, 57458 -> 54338, 0.0005906383339130434 ->
#: 0.0005905110295652173; 3D P = 27 350955 -> 308139, 38579 -> 37779,
#: 0.0004922167363950941 -> 0.000492185432047268.  ``scomm`` and every
#: ``loss1`` did not move, and the one-receiver rows (2D P = 4, 3D P = 8)
#: did not move at all: there the relay is the gather.  And once more for
#: the three 2D rows, when 2D stopped charging a symmetric operand's
#: per-epoch grid transpose (its ``A`` grid is the ``A^T`` grid, shared
#: block for block, so no data moves; Split-3D never charged it): 2D P =
#: 4 ``trpose`` 17032 -> 0, ``max_rank`` 79860 -> 71048, seconds
#: 0.0003035087886678656 -> 0.0003011256582330829; 2D P = 8 17048 -> 0,
#: 59160 -> 53372, 0.00045770648279830014 -> 0.0004554548306243871; 2D
#: P = 16 18616 -> 0, 54338 -> 50158, 0.0005905110295652173 ->
#: 0.0005883292904347825.  ``dcomm``, ``scomm`` and every ``loss1`` did
#: not move.  And once more for the five 2D and 3D rows, when the SUMMA
#: stages' sparse pieces began to move once, at set-up, each rank keeping
#: its row group's pieces, instead of in every sweep of every epoch:
#: ``scomm`` 2D P = 4 136256 -> 0, P = 8 148928 -> 0, P = 16 297856 -> 0,
#: 3D P = 8 148672 -> 0, P = 27 270000 -> 0; ``max_rank`` 71048 -> 24024,
#: 53372 -> 20284, 50158 -> 17070, 51036 -> 18844, 37779 -> 14163;
#: seconds 0.0003011256582330829 -> 0.0002963909082330829,
#: 0.0004554548306243871 -> 0.00042201622192873493,
#: 0.0005883292904347825 -> 0.0005548906817391304,
#: 0.0003513139411833933 -> 0.00033391428900948024,
#: 0.000492185432047268 -> 0.0004671586494385723.  ``dcomm``, ``trpose``
#: and every ``loss1`` did not move.  And once more for the five 2D and
#: 3D rows, when the gradient bucket stopped being all-reduced over the
#: world: each column group all-reduces its band, each row group
#: all-gathers the bands (``GridAlgorithm._reduce_bucket``): ``dcomm``
#: 96096 -> 93056, 152288 -> 146240, 263136 -> 245376, 145376 -> 139328,
#: 308139 -> 281301; ``max_rank`` 24024 -> 23264, 20284 -> 19528, 17070
#: -> 15960, 18844 -> 18088, 14163 -> 13283; seconds
#: 0.0002963909082330829 -> 0.00029587903323308293,
#: 0.00042201622192873493 -> 0.0004199833523635175,
#: 0.0005548906817391304 -> 0.0005508424208695651,
#: 0.00033391428900948024 -> 0.00033188141944426287,
#: 0.0004671586494385723 -> 0.0004671203628041118.  Every ``loss1`` did
#: not move: each gradient entry folds the same terms in the same order.
#: And once more for the five, when ``log_softmax`` began to move a
#: per-row statistic and work on each rank's own columns: the bytes did
#: not move (with 4 classes each member ships its 2 or 1 columns, as
#: many words as its pair, or fewer), the output layer's elementwise
#: charges became band-wide, seconds 0.00029587903323308293 ->
#: 0.0002958694332330829, 0.0004199833523635175 ->
#: 0.00041997855236351755, 0.0005508424208695651 -> 0.000550835220869565,
#: 0.00033188141944426287 -> 0.00033187661944426286,
#: 0.0004671203628041118 -> 0.0004671181628041118, and ``loss1`` moved in
#: the last bit: ...768 -> ...766 (2D P = 4), ...766 -> ...768 (the
#: other four).  And once more for the six block-row rows, when the 1D
#: all-gathers and the 1.5D slab broadcasts began to ship only the rows
#: another block reads: of the 192 rows, 131 / 138 / 139 are read across
#: the 4 / 8 / 16 1D blocks, 114 / 114 / 131 across the 1.5D groups (q =
#: 2 / 2 / 4); dcomm, max_rank and seconds moved, no ``loss1`` did.
PRE_OPT_ORACLE = {
    ("1d", 4): dict(dcomm=84768, scomm=0, trpose=0, max_rank=21192,
                    seconds=0.00018938899206766914,
                    loss1=1.4010554851746766),
    ("1d", 8): dict(dcomm=207200, scomm=0, trpose=0, max_rank=25900,
                    seconds=0.00021885022049035629,
                    loss1=1.4010554851746768),
    ("1d", 16): dict(dcomm=446880, scomm=0, trpose=0, max_rank=27930,
                     seconds=0.00023021561459300431,
                     loss1=1.4010554851746768),
    ("1.5d", 4): dict(dcomm=123712, scomm=0, trpose=0, max_rank=31888,
                      seconds=0.0001927403841353384,
                      loss1=1.4010554851746768),
    ("1.5d", 8): dict(dcomm=277376, scomm=0, trpose=0, max_rank=41104,
                      seconds=0.00023102926457012097,
                      loss1=1.4010554851746768),
    ("1.5d", 16): dict(dcomm=359040, scomm=0, trpose=0, max_rank=23832,
                       seconds=0.0002396268409807126,
                       loss1=1.4010554851746766),
    ("2d", 4): dict(dcomm=93056, scomm=0, trpose=0,
                    max_rank=23264, seconds=0.0002958694332330829,
                    loss1=1.4010554851746766),
    ("2d", 8): dict(dcomm=146240, scomm=0, trpose=0,
                    max_rank=19528, seconds=0.00041997855236351755,
                    loss1=1.4010554851746768),
    ("2d", 16): dict(dcomm=245376, scomm=0, trpose=0,
                     max_rank=15960, seconds=0.000550835220869565,
                     loss1=1.4010554851746768),
    ("3d", 8): dict(dcomm=139328, scomm=0, trpose=0,
                    max_rank=18088, seconds=0.00033187661944426286,
                    loss1=1.4010554851746768),
    ("3d", 27): dict(dcomm=281301, scomm=0, trpose=0,
                     max_rank=13283, seconds=0.0004671181628041118,
                     loss1=1.4010554851746768),
}


def build(name, p, kw):
    ds = make_synthetic(**GRAPH)
    algo = make_algorithm(name, p, ds, hidden=HIDDEN, seed=SEED, **kw)
    algo.setup(ds.features, ds.labels)
    return ds, algo


# ---------------------------------------------------------------------- #
# CommPlan unit behaviour
# ---------------------------------------------------------------------- #
class TestCommPlan:
    def test_group_interns_and_validates(self):
        plan = CommPlan(8)
        g1 = plan.group(range(4))
        g2 = plan.group((0, 1, 2, 3))
        assert g1 is g2  # interned: same tuple object on the hit
        assert plan.hits == 1 and plan.misses == 1

    def test_group_still_rejects_bad_members(self):
        plan = CommPlan(4)
        with pytest.raises(IndexError):
            plan.group((0, 7))
        with pytest.raises(ValueError):
            plan.group((1, 1))
        with pytest.raises(ValueError):
            plan.group(())

    def test_split_matches_array_split(self):
        plan = CommPlan(4)
        for n, parts in ((7, 3), (16, 4), (5, 8), (0, 2)):
            expected = tuple(block_ranges(n, parts))
            assert plan.split(n, parts) == expected
            sizes = [hi - lo for lo, hi in plan.split(n, parts)]
            np_sizes = [len(c) for c in np.array_split(np.arange(n), parts)]
            assert sizes == np_sizes

    def test_clear_resets(self):
        plan = CommPlan(2)
        plan.group((0, 1))
        plan.clear()
        assert plan.cached_entries == 0
        assert plan.hits == 0 and plan.misses == 0


# ---------------------------------------------------------------------- #
# Steady-state epochs are pure cache hits
# ---------------------------------------------------------------------- #
class TestPlanCacheHits:
    @pytest.mark.parametrize("name,p,kw", [
        ("1d", 4, {}),
        ("1.5d", 8, {"replication": 4}),
        ("2d", 4, {}),
        ("3d", 8, {}),
    ])
    def test_no_new_cache_entries_after_warmup(self, name, p, kw):
        _, algo = build(name, p, kw)
        plan = algo.rt.plan
        algo.train_epoch(0)  # warm-up fills every cache
        entries = plan.cached_entries
        misses = plan.misses
        charge_keys = set(algo._cache)
        ws_keys = set(algo.workspace)
        algo.train_epoch(1)
        algo.train_epoch(2)
        assert plan.cached_entries == entries  # no new plan entries
        assert plan.misses == misses           # pure hits
        assert set(algo._cache) == charge_keys  # charge lists replayed
        assert set(algo.workspace) == ws_keys   # workspaces reused
        assert plan.hits > 0

    def test_workspace_buffers_are_stable_objects(self):
        _, algo = build("2d", 4, {})
        algo.train_epoch(0)
        ids_before = {k: id(v) for k, v in algo.workspace.items()}
        algo.train_epoch(1)
        ids_after = {k: id(v) for k, v in algo.workspace.items()}
        assert ids_before == ids_after  # zero reallocations in steady state


# ---------------------------------------------------------------------- #
# Ledger identity with the pre-optimization tree
# ---------------------------------------------------------------------- #
class TestLedgerOracle:
    @pytest.mark.parametrize("name,p,kw", CONFIGS)
    def test_epoch_ledger_matches_pre_opt_constants(self, name, p, kw):
        _, algo = build(name, p, kw)
        e0 = algo.train_epoch(0)
        e1 = algo.train_epoch(1)
        ref = PRE_OPT_ORACLE[(name, p)]
        for stats in (e0, e1):  # every epoch has the same structure
            assert stats.bytes_by_category[Category.DCOMM] == ref["dcomm"]
            assert stats.bytes_by_category[Category.SCOMM] == ref["scomm"]
            assert stats.bytes_by_category[Category.TRPOSE] == ref["trpose"]
            assert stats.max_rank_comm_bytes == ref["max_rank"]
        # Modeled seconds: identical arithmetic, identical result.  (The
        # constant was captured from epoch 1; another epoch's *delta*
        # can differ in the last ulp because the cumulative wall clock
        # is subtracted -- that was true pre-optimization too.)
        assert e1.modeled_seconds == ref["seconds"]
        assert e1.loss == ref["loss1"]  # numerics byte-identical too

    @pytest.mark.parametrize("name,p,kw", [
        ("1d", 16, {}),
        ("1.5d", 16, {"replication": 4}),
        ("2d", 16, {}),
        ("3d", 8, {}),
    ])
    def test_epoch_ledger_matches_schedule_oracle(self, name, p, kw):
        """Executed bytes == PR 2's symbolic schedule, byte for byte."""
        from repro.simulate import predict_epoch
        from repro.simulate.schedule import GraphModel

        ds, algo = build(name, p, kw)
        stats = algo.train_epoch(0)
        sim_kw = {k: v for k, v in kw.items() if k != "grid"}
        point = predict_epoch(
            name, GraphModel.from_dataset(ds), p, hidden=HIDDEN,
            grid=kw.get("grid"), **sim_kw,
        )
        for cat in Category.COMM:
            assert stats.bytes_by_category[cat] == \
                point.bytes_by_category[cat], cat
        assert point.seconds == pytest.approx(stats.modeled_seconds,
                                              rel=1e-9)


# ---------------------------------------------------------------------- #
# Numerical equality with the serial reference (frozen seeds)
# ---------------------------------------------------------------------- #
class TestSerialEquality:
    @pytest.mark.parametrize("name,p,kw", [
        ("1d", 8, {}),
        ("1.5d", 8, {"replication": 4}),
        ("2d", 4, {}),
        ("3d", 8, {}),
    ])
    def test_verify_against_serial(self, name, p, kw):
        ds = make_synthetic(**GRAPH)
        algo = make_algorithm(name, p, ds, hidden=HIDDEN, seed=SEED, **kw)
        diff = algo.verify_against_serial(
            ds.features, ds.labels, epochs=3
        )
        assert diff < 1e-9

    def test_predict_after_fit_unchanged(self):
        ds, algo = build("2d", 4, {})
        algo.train_epoch(0)
        lp = algo.predict()
        assert lp.shape == (GRAPH["n"], GRAPH["n_classes"])
        # log-probabilities: rows sum to 1 after exp
        np.testing.assert_allclose(np.exp(lp).sum(axis=1), 1.0, rtol=1e-9)


# ---------------------------------------------------------------------- #
# One step (cost rule replayed + data movement) == its per-call equivalents
# ---------------------------------------------------------------------- #
class TestBatchedCollectiveEquivalence:
    def test_broadcast_many_matches_individual_broadcasts(self):
        rt1 = VirtualRuntime.make_1d(6)
        rt2 = VirtualRuntime.make_1d(6)
        items = [
            ((0, 1, 2), 1, np.ones((4, 3))),
            ((3, 4, 5), 3, np.ones((2, 7))),
        ]
        rt1.tracker.charge_many(Category.DCOMM, rt1.coll.charges(
            "broadcast", [(g, v.nbytes) for g, _, v in items],
            pipelined=True))
        out = rt1.coll.move("broadcast", [(g, root) for g, root, _ in items],
                            {root: v for _, root, v in items})
        with rt2.tracker.step_scope():
            for group, root, value in items:
                rt2.coll.broadcast(group, root, value,
                                   category=Category.DCOMM, pipelined=True)
        assert len(out) == 2 and not out[0].flags.writeable
        for r in range(6):
            a = rt1.tracker.per_rank[r][Category.DCOMM]
            b = rt2.tracker.per_rank[r][Category.DCOMM]
            assert (a.seconds, a.bytes, a.messages) == (
                b.seconds, b.bytes, b.messages)
        assert rt1.tracker.wall_seconds() == rt2.tracker.wall_seconds()

    def test_broadcast_charges_replay_identical(self):
        rt1 = VirtualRuntime.make_1d(4)
        rt2 = VirtualRuntime.make_1d(4)
        items = [((0, 1), 0, np.ones(8)), ((2, 3), 2, np.ones(16))]
        charges = rt1.coll.charges(
            "broadcast", [(g, v.nbytes) for g, _, v in items],
            pipelined=False)
        rt1.tracker.charge_many(Category.DCOMM, charges)
        for group, root, value in items:
            rt2.coll.broadcast(group, root, value, category=Category.DCOMM)
        for r in range(4):
            a = rt1.tracker.per_rank[r][Category.DCOMM]
            b = rt2.tracker.per_rank[r][Category.DCOMM]
            assert (a.seconds, a.bytes, a.messages) == (
                b.seconds, b.bytes, b.messages)

    def test_charge_many_matches_charge_loop(self):
        t1, t2 = CommTracker(3), CommTracker(3)
        items = [(0, 1.0, 10, 1, 5), (1, 2.0, 20, 2, 0), (2, 0.5, 0, 0, 7)]
        t1.charge_many(Category.SPMM, items)
        with t2.step_scope():
            for r, sec, nb, msg, fl in items:
                t2.charge(r, Category.SPMM, sec, nbytes=nb, messages=msg,
                          flops=fl)
        for r in range(3):
            a, b = t1.per_rank[r][Category.SPMM], t2.per_rank[r][Category.SPMM]
            assert (a.seconds, a.bytes, a.messages, a.flops) == (
                b.seconds, b.bytes, b.messages, b.flops)
        assert t1.wall_seconds() == t2.wall_seconds()
        assert t1.nsteps == t2.nsteps

    def test_donated_allreduce_matches_copying_allreduce(self):
        rt1 = VirtualRuntime.make_1d(3)
        rt2 = VirtualRuntime.make_1d(3)
        vals1 = {r: np.full((4, 2), float(r + 1)) for r in range(3)}
        vals2 = {r: v.copy() for r, v in vals1.items()}
        out1 = rt1.coll.allreduce(range(3), vals1, donate_first=True)
        out2 = rt2.coll.allreduce(range(3), vals2)
        np.testing.assert_array_equal(out1[0], out2[0])
        assert out1[0].base is vals1[0]  # in place: leader donated
        assert rt1.tracker.total_bytes() == rt2.tracker.total_bytes()
