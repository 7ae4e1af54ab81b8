"""Property-based verification of the distributed algorithms.

Hypothesis draws random problem shapes (graph size, degree, widths, rank
counts, variants) and asserts the invariant the whole reproduction rests
on: every parallel algorithm computes exactly the serial full-batch
gradient-descent trajectory.  The generated-shapes half adds the
simulator: on width tuples whose every step shrinks, holds or grows, the
ledger of the set-up and of each epoch equals the emitted schedule's --
and, for Split-3D, every sweep leaves its output in its input's layout.

The placement half holds the process backend to the virtual runtime:
a 2D / 3D run on 2, 3 or 4 shm or tcp workers has its virtual run's
losses and ``predict()`` output, bit for bit.

Two hypothesis profiles (``tests/conftest.py``): tier-1 runs ``tier1``
(few derandomised examples); ``pytest --hypothesis-profile long`` draws
many random ones -- for the placement property, every configuration.
"""

import functools
import hashlib
import itertools
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.comm import VirtualRuntime
from repro.comm.tracker import Category
from repro.dist import (
    ALGORITHMS,
    DistGCN1D,
    DistGCN2D,
    DistGCN15D,
    DistGCN3D,
    make_algorithm,
    make_distribution,
    make_runtime_for,
)
from repro.dist.base import band_nbytes, bucket_bands, bucket_nbytes
from repro.graph import make_synthetic
from repro.nn import GCN, SGD, SerialTrainer
from repro.nn.layers import sweep_widths
from repro.parallel import WorkerRuntime, ledger_digest, owner_map
from repro.simulate.schedule import (CollectivePhase, ElementwisePhase,
                                     GatherRowsPhase, GemmPhase, GraphModel,
                                     SpmmPhase, TransposePhase,
                                     evaluate_schedule)
from repro.sparse.csr import CSRMatrix
from test_simulate import assert_sections_exact


def serial_losses(ds, widths, seed, epochs=2, lr=0.2):
    trainer = SerialTrainer(
        GCN(widths, seed=seed), ds.adjacency, optimizer=SGD(lr=lr)
    )
    hist = trainer.train(ds.features, ds.labels, epochs=epochs)
    return hist.losses


@st.composite
def problems(draw):
    n = draw(st.integers(min_value=24, max_value=120))
    degree = draw(st.floats(min_value=2.0, max_value=8.0))
    f_in = draw(st.integers(min_value=3, max_value=14))
    hidden = draw(st.integers(min_value=2, max_value=10))
    classes = draw(st.integers(min_value=2, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    ds = make_synthetic(
        n=n, avg_degree=min(degree, n / 5), f=f_in,
        n_classes=classes, seed=seed,
    )
    return ds, (f_in, hidden, classes), seed


class TestRandomizedEquivalence:
    @given(problem=problems(), p=st.sampled_from([2, 3, 5, 8]))
    @settings(max_examples=8, deadline=None)
    def test_1d_matches_serial(self, problem, p):
        ds, widths, seed = problem
        expected = serial_losses(ds, widths, seed)
        rt = VirtualRuntime.make_1d(p)
        algo = DistGCN1D(rt, ds.adjacency, widths, seed=seed,
                         optimizer=SGD(lr=0.2))
        hist = algo.fit(ds.features, ds.labels, epochs=2)
        np.testing.assert_allclose(hist.losses, expected, rtol=1e-9)

    @given(problem=problems(), p=st.sampled_from([4, 9]))
    @settings(max_examples=8, deadline=None)
    def test_2d_matches_serial(self, problem, p):
        ds, widths, seed = problem
        expected = serial_losses(ds, widths, seed)
        rt = VirtualRuntime.make_2d(p)
        algo = DistGCN2D(rt, ds.adjacency, widths, seed=seed,
                         optimizer=SGD(lr=0.2))
        hist = algo.fit(ds.features, ds.labels, epochs=2)
        np.testing.assert_allclose(hist.losses, expected, rtol=1e-9)

    @given(problem=problems(), pc=st.sampled_from([(4, 2), (6, 3), (8, 4)]))
    @settings(max_examples=6, deadline=None)
    def test_15d_matches_serial(self, problem, pc):
        ds, widths, seed = problem
        p, c = pc
        expected = serial_losses(ds, widths, seed)
        rt = VirtualRuntime.make_1d(p)
        algo = DistGCN15D(rt, ds.adjacency, widths, replication=c,
                          seed=seed, optimizer=SGD(lr=0.2))
        hist = algo.fit(ds.features, ds.labels, epochs=2)
        np.testing.assert_allclose(hist.losses, expected, rtol=1e-9)

    @given(problem=problems())
    @settings(max_examples=5, deadline=None)
    def test_3d_matches_serial(self, problem):
        ds, widths, seed = problem
        expected = serial_losses(ds, widths, seed)
        rt = VirtualRuntime.make_3d(8)
        algo = DistGCN3D(rt, ds.adjacency, widths, seed=seed,
                         optimizer=SGD(lr=0.2))
        hist = algo.fit(ds.features, ds.labels, epochs=2)
        np.testing.assert_allclose(hist.losses, expected, rtol=1e-9)

    @given(
        problem=problems(),
        variant=st.sampled_from(["outer", "outer_sparse", "transpose"]),
    )
    @settings(max_examples=6, deadline=None)
    def test_1d_variants_match_serial(self, problem, variant):
        ds, widths, seed = problem
        expected = serial_losses(ds, widths, seed)
        rt = VirtualRuntime.make_1d(4)
        algo = DistGCN1D(rt, ds.adjacency, widths, seed=seed,
                         optimizer=SGD(lr=0.2), variant=variant)
        hist = algo.fit(ds.features, ds.labels, epochs=2)
        np.testing.assert_allclose(hist.losses, expected, rtol=1e-9)


class TestRandomizedAccounting:
    @given(problem=problems(), p=st.sampled_from([4, 9, 16]))
    @settings(max_examples=8, deadline=None)
    def test_2d_byte_ledger_invariants(self, problem, p):
        """Structural invariants of the ledger on random problems."""
        ds, widths, seed = problem
        rt = VirtualRuntime.make_2d(p)
        algo = DistGCN2D(rt, ds.adjacency, widths, seed=seed)
        algo.setup(ds.features, ds.labels)
        st_ = algo.train_epoch(0)
        assert st_.dcomm_bytes >= 0 and st_.scomm_bytes >= 0
        if p > 1:
            assert st_.dcomm_bytes > 0
            # Max per-rank traffic cannot exceed the all-rank total.
            assert st_.max_rank_comm_bytes <= st_.comm_bytes
            # ... and must be at least the per-rank average.
            assert st_.max_rank_comm_bytes * p >= st_.comm_bytes


# ---------------------------------------------------------------------- #
# generated shapes: every sweep at the narrow side of its layer
# ---------------------------------------------------------------------- #
#: (family, P, constructor / emitter kwargs, takes a directed operand)
SHAPE_CONFIGS = [
    pytest.param("1d", 4, {"variant": "symmetric"}, False, id="1d-symmetric"),
    pytest.param("1d", 4, {"variant": "outer"}, True, id="1d-outer"),
    pytest.param("1d", 3, {"variant": "outer_sparse"}, True,
                 id="1d-outer_sparse"),
    pytest.param("1d", 4, {"variant": "transpose"}, True, id="1d-transpose"),
    pytest.param("1d", 4, {"variant": "ghost", "partition": "multilevel"},
                 False, id="1d-ghost-multilevel"),
    pytest.param("1.5d", 4, {"replication": 2}, False, id="1.5d-c2"),
    pytest.param("2d", 4, {}, False, id="2d-square"),
    pytest.param("2d", 8, {"grid": (2, 4)}, False, id="2d-2x4"),
    pytest.param("3d", 8, {}, False, id="3d-8"),
]
#: the grid families among them
GRID_CONFIGS = [c for c in SHAPE_CONFIGS if c.values[0] in ("2d", "3d")]
#: every shape on a symmetric operand, and on a directed one where it
#: takes one: ``(family, P, kwargs, directed)``
OPERAND_CONFIGS = [
    pytest.param(*c.values[:3], directed,
                 id=f"{c.id}-{'directed' if directed else 'symmetric'}")
    for c in SHAPE_CONFIGS for directed in (False, True)
    if not directed or c.values[3] or c in GRID_CONFIGS
]
#: the SUMMA sweeps' shapes: square, rectangular and blocked 2D grids,
#: both cubes of Split-3D
STAGE_CONFIGS = [
    pytest.param("2d", 4, {}, id="2d-square"),
    pytest.param("2d", 8, {"grid": (2, 4)}, id="2d-2x4"),
    pytest.param("2d", 8, {"grid": (4, 2)}, id="2d-4x2"),
    pytest.param("2d", 16, {}, id="2d-16"),
    pytest.param("2d", 4, {"summa_block": 5}, id="2d-block5"),
    pytest.param("3d", 8, {}, id="3d-8"),
    pytest.param("3d", 27, {}, id="3d-27"),
]


def stage_groups(algo):
    """Every SUMMA stage's dense column groups, from the mesh alone:
    ``(the stage's inner rows, its root member, rank(i, j) of member i
    in process column j)``.  Member ``i`` multiplies the stage by its
    sparse block's rows ``row_ranges[i]``."""
    mesh = algo.mesh
    if isinstance(algo, DistGCN2D):
        return [((lo, hi), ro, mesh.rank_of) for lo, hi, ro, _ in algo.stages]
    return [(algo.sub_ranges[t][k], t,
             lambda i, j, k=k: mesh.rank_of(i, j, k))
            for t in range(algo.s) for k in range(algo.s)]


def expected_runs(algo, operand):
    """Per stage and layer (:func:`stage_groups`' order): ``(root, rank,
    runs)``, ``runs[i]`` the global rows ``U_p`` the members ``p = i -
    root .. g - 1`` hops down the column read -- the union of the
    nonempty columns of ``operand[row block, stage]`` -- worked out from
    the dense matrix; the root's entry is every row of the stage."""
    dense = operand.to_dense() != 0
    out = []
    for (lo, hi), root, rank in stage_groups(algo):
        reads = [lo + np.flatnonzero(dense[r0:r1, lo:hi].any(axis=0))
                 for r0, r1 in algo.row_ranges]
        g = len(reads)
        runs = {root: np.arange(lo, hi)}
        for p in range(1, g):
            runs[(root + p) % g] = np.unique(np.concatenate(
                [reads[(root + q) % g] for q in range(p, g)]))
        out.append((root, rank, runs))
    return out


def expected_hops(algo, operand):
    """``(rank, rows it books)`` of every relay step: the root ``|U_1|``,
    the member ``p`` hops down ``|U_p|``; nothing where no row moves."""
    hops = []
    for root, rank, runs in expected_runs(algo, operand):
        g = len(runs)
        moved = {i: rows.size for i, rows in runs.items()}
        moved[root] = moved[(root + 1) % g] if g > 1 else 0
        hops.extend((rank(i, j), moved[i])
                    for j in range(len(algo._fsplit(1)))
                    for i in range(g) if moved[i])
    return sorted(hops)


@st.composite
def width_tuples(draw):
    """``(f^0, ..., f^L)``, ``L`` in 2..4, every step drawn shrinking /
    equal / growing, so mixed tuples (12-4-9-9-3) occur.  "equal" comes
    first, so the simplest draw -- one the tier-1 profile always makes --
    has layers of one shape: a buffer two such layers shared would fail
    (i).  Mutation check (run once, in a scratch copy): with the grid
    weight gradients written to a workspace keyed by shape and copied
    into the bucket at the epoch's end, (i) fails on all three grid
    configurations; with "shrink" first it failed on none."""
    widths = [draw(st.integers(min_value=2, max_value=12))]
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        cur = widths[-1]
        step = draw(st.sampled_from(["equal", "shrink", "grow"]))
        if step == "shrink" and cur > 1:
            widths.append(draw(st.integers(min_value=1, max_value=cur - 1)))
        elif step == "grow":
            widths.append(draw(st.integers(min_value=cur + 1,
                                           max_value=cur + 6)))
        else:
            widths.append(cur)
    return tuple(widths)


@st.composite
def shaped_problems(draw, directed_ok, n=None, directed=None):
    """A small graph (directed where the variant takes one, or as
    ``directed`` says), features, labels and a width tuple over them;
    ``n`` vertices when given."""
    widths = draw(width_tuples())
    if n is None:
        n = draw(st.integers(min_value=17, max_value=64))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    if directed is None:
        directed = directed_ok and draw(st.booleans())
    if directed:
        nnz = 5 * n
        a_t = CSRMatrix.from_coo(rng.integers(0, n, nnz),
                                 rng.integers(0, n, nnz), rng.random(nnz),
                                 (n, n))
    else:
        a_t = make_synthetic(n=n, avg_degree=4, f=2, n_classes=2,
                             seed=seed).adjacency
    features = rng.standard_normal((n, widths[0]))
    labels = rng.integers(0, widths[-1], n)
    return a_t, features, labels, widths, seed


def build_shaped(name, p, kw, a_t, widths, seed, profile=None):
    """``(algorithm, emitter kwargs)`` for explicit widths (``make_
    algorithm`` only takes ``hidden=``)."""
    kw = dict(kw)
    partition = kw.pop("partition", None)
    if partition is not None:
        kw["distribution"] = make_distribution(partition, a_t, p, seed=seed)
    rt = make_runtime_for(name, p, grid=kw.pop("grid", None),
                          profile=profile)
    algo = ALGORITHMS[name](rt, a_t, widths, seed=seed, **kw)
    if name == "2d":
        kw["grid"] = (algo.pr, algo.pc)
    return algo, kw


class TestGeneratedShapes:
    """Shrinking, equal, growing and mixed width tuples on every family
    and variant: the trainer follows the serial reference, and the
    simulator the trainer, phase for phase."""

    @pytest.mark.parametrize("name,p,kw,directed_ok", SHAPE_CONFIGS)
    @given(data=st.data())
    def test_serial_and_schedule_agree(self, name, p, kw, directed_ok, data):
        a_t, features, labels, widths, seed = data.draw(
            shaped_problems(directed_ok))
        algo, emit_kw = build_shaped(name, p, kw, a_t, widths, seed)
        schedule = ALGORITHMS[name].emit_comm_schedule(
            GraphModel.from_csr(a_t), widths, p, **emit_kw)
        # (vi) one reduction of the gradient bucket (the loss pair and
        # every Y^l) an epoch, at its end: the block-row families
        # all-reduce it over the group that replicates W; the grid
        # families all-reduce each column band (``bucket_bands``) over
        # the ranks that share it, then all-gather the bands along the
        # row groups.  The only other all-reduces are 1.5D's fiber
        # reductions, one per sweep.  A layer's partial has a slot of its
        # own, so equal-width tuples -- two layers of one shape -- cannot
        # share one: (i) would catch it.
        *rest, last = schedule.phases
        c = kw.get("replication", 1)
        if name in ("2d", "3d"):
            pc = len(algo._row_group_list[0])
            bands = [band_nbytes(band) for band in bucket_bands(widths, pc)]
            *rest, last, gather = schedule.phases
            assert gather.kind == "allgather" and gather.group_size == pc
            assert gather.nbytes.tolist() == [sum(bands)] * (p // pc)
            assert last.group_size == p // pc
            assert last.nbytes.tolist() == bands
        else:
            assert last.group_size == p // c
            assert last.nbytes.tolist() == [bucket_nbytes(widths)] * c
        assert isinstance(last, CollectivePhase) and last.kind == "allreduce"
        fibers = [ph for ph in rest if isinstance(ph, CollectivePhase)
                  and ph.kind == "allreduce"]
        assert len(fibers) == (2 * (len(widths) - 2) if c > 1 else 0)
        assert all(ph.group_size == c for ph in fibers)
        # (ii) set-up, epoch 0, epoch 1: bytes, messages, steps, seconds
        # -- the ledger runs that one all-reduce too
        assert_sections_exact(
            algo, features, labels, schedule, algo.rt.profile)
        # (i) the paper's correctness claim, to reassociation
        assert algo.verify_against_serial(features, labels, epochs=2) <= 1e-12

    @pytest.mark.parametrize("name,p,kw,directed", OPERAND_CONFIGS)
    @given(data=st.data())
    def test_only_a_moving_operand_charges_transpose(self, name, p, kw,
                                                     directed, data):
        """``trpose`` is charged where an ``A`` operand moves.  On a
        symmetric operand only 1D's ``transpose`` variant charges it
        (the variant is that exchange); every other family and variant
        reads ``A^T`` again, and 2D and Split-3D share their ``A^T``
        grid as the ``A`` grid.  On a directed operand 2D and Split-3D
        charge every rank its ``A``-grid block once, at set-up, and
        never in an epoch: the set-up keeps the ``A`` grid's SUMMA
        pieces.  Either way the emitted schedule -- its one transpose
        phase, or none -- equals the ledger, set-up and epoch by epoch.

        Mutation check (run once, in a scratch copy): with the 2D and
        Split-3D emitters pricing a symmetric operand's ``A``-grid
        blocks again, or with ``GridAlgorithm._keep_a_pieces`` charging
        them on a symmetric operand, the three symmetric grid cases fail
        here."""
        a_t, features, labels, widths, seed = data.draw(
            shaped_problems(directed, directed=directed))
        algo, emit_kw = build_shaped(name, p, kw, a_t, widths, seed)
        assert algo.symmetric is not directed
        schedule = ALGORITHMS[name].emit_comm_schedule(
            GraphModel.from_csr(a_t), widths, p, **emit_kw)
        assert_sections_exact(
            algo, features, labels, schedule, algo.rt.profile)
        tracker = algo.rt.tracker
        charged = [tracker.per_rank[r][Category.TRPOSE].bytes
                   for r in range(p)]
        once = [ph.nbytes.tolist() for ph in schedule.setup.phases
                if isinstance(ph, TransposePhase)]
        moves = [ph.nbytes.tolist() for ph in schedule.phases
                 if isinstance(ph, TransposePhase)]
        if directed and name in ("2d", "3d"):
            assert moves == [] and once == [[
                algo.a_blocks[r].nbytes_on_wire for r in range(p)]]
            assert charged == once[0]
        elif kw.get("variant") == "transpose":
            assert once == [] and len(moves) == 1 and sum(moves[0]) > 0
            assert charged == [2 * b for b in moves[0]]  # two epochs
        else:
            assert once == moves == [] and charged == [0] * p

    @pytest.mark.parametrize("backend", ["virtual", "shm", "tcp"])
    @pytest.mark.parametrize("name,p,kw", STAGE_CONFIGS)
    @given(data=st.data())
    def test_summa_stages_relay_exactly_the_rows_read_after_each_hop(
            self, name, p, kw, backend, data):
        """Each stage relays its dense rows down the process columns,
        hop ``p`` carrying ``U_p``, the rows the members ``p .. g - 1``
        hops after the root read: a process's most-upstream member of a
        column gets its ``U_p`` straight from the root, every member fed
        so multiplies exactly its ``U_p`` rows of the root's block, and
        a member whose root rows are local multiplies all of them in
        place (every member, on one process) -- checked by value, for
        both sweeps of
        a directed or undirected operand (the backward sweep reads
        ``A``'s row sets), on the virtual runtime and on worker
        runtimes over shm and tcp (W = 2, or 3 where a process row then
        straddles two workers).  The stages book exactly those rows; the
        workers' ledgers equal the virtual one, the virtual ledger the
        emitted schedule (bytes, messages, steps, seconds), and training
        the serial reference.

        Mutation check (run once, in a scratch copy): with every hop's
        row set dropping its last row (booked and carried alike), this
        property fails on all seven shapes on all three runtimes, and so
        do the next one (its ``rmat`` shapes), the ledger-exactness and
        serial-equivalence tests of every grid shape and the pinned
        ledgers of ``test_comm_plan.py``."""
        a_t, features, labels, widths, seed = data.draw(
            shaped_problems(True))
        algo, emit_kw = build_shaped(name, p, kw, a_t, widths, seed)
        stages = getattr(algo, "_summa", None) or algo._split
        for key, matrix in (("a_t", algo.a_t), ("a", algo.a)):
            hops = [hop for st_ in stages.get(key, stages["a_t"])
                    for hop in st_.hops]
            assert sorted(hops) == expected_hops(algo, matrix)
        if backend == "virtual":
            schedule = ALGORITHMS[name].emit_comm_schedule(
                GraphModel.from_csr(a_t), widths, p, **emit_kw)
            assert_sections_exact(
                algo, features, labels, schedule, algo.rt.profile)
            assert algo.verify_against_serial(
                features, labels, epochs=2) <= 1e-12
        # A 12-wide operand whose every entry is its global row + 1.
        n = a_t.nrows
        x = np.repeat(np.arange(1.0, n + 1.0)[:, None], 12, axis=1)
        with RecordedSpmm() as spmms:
            if backend == "virtual":
                runs = [relay_sweeps(algo, x, spmms)]
                assert runs[0][1] == []  # one process: nothing crosses
            else:
                runs = relay_sweeps_on_workers(
                    name, algo, kw, backend, 2 if p == 4 else 3, x, spmms)
                assert any(receipts for _, receipts, _ in runs) == any(
                    rows for _, rows in expected_hops(algo, algo.a_t))
        digest = ledger_digest(algo.rt.tracker)
        for calls, receipts, worker_digest in runs:
            assert worker_digest == digest
            for rows, ids in calls + receipts:
                assert rows.shape == (ids.size, rows.shape[1])
                assert (rows == ids[:, None] + 1.0).all()

    @pytest.mark.parametrize("name,p,n", [("2d", 16, 3), ("2d", 4, 12),
                                          ("3d", 27, 5), ("3d", 8, 12)])
    @pytest.mark.parametrize("diagonal", [True, False],
                             ids=["diagonal", "rmat"])
    def test_members_that_read_no_row_book_no_hop(self, name, p, n,
                                                  diagonal):
        """``P > n`` leaves ranks with no rows, and a diagonal operand
        leaves every block off the diagonal empty: a relay books no row
        to a member whose run reads none (a diagonal operand's stages
        book nothing at all) -- on both operands, with the ledger still
        the schedule and training still the serial reference."""
        if diagonal:
            a_t = CSRMatrix.eye(n)
        else:
            a_t = make_synthetic(n=n, avg_degree=3, f=2, n_classes=2,
                                 seed=n).adjacency
        rng = np.random.default_rng(n)
        widths = (4, 3, 2)
        features = rng.standard_normal((n, widths[0]))
        labels = rng.integers(0, widths[-1], n)
        algo, emit_kw = build_shaped(name, p, {}, a_t, widths, 0)
        stages = getattr(algo, "_summa", None) or algo._split
        for key, matrix in (("a_t", algo.a_t), ("a", algo.a)):
            hops = [hop for st_ in stages.get(key, stages["a_t"])
                    for hop in st_.hops]
            assert all(rows for _, rows in hops)
            assert sorted(hops) == expected_hops(algo, matrix)
            if diagonal:
                assert hops == []
        schedule = ALGORITHMS[name].emit_comm_schedule(
            GraphModel.from_csr(a_t), widths, p, **emit_kw)
        assert_sections_exact(
            algo, features, labels, schedule, algo.rt.profile)
        assert algo.verify_against_serial(features, labels, epochs=2) <= 1e-12

    @pytest.mark.parametrize("p,n", [(8, 5), (8, 30), (27, 20), (27, 61)])
    @given(data=st.data())
    def test_3d_sweeps_leave_their_input_layout(self, p, n, data):
        """Split-3D's layout is a fixed point of its SpMM: the fiber
        reduce-scatter leaves rank ``r`` the rows ``_rank_rows(r)`` of
        ``A^T X`` (and, backward, of ``A X``) in the feature band it
        held of ``X``, so nothing moves after it.  n = 30 and 61 are no
        multiples of ``s^2`` (4, 9), so sub-splits differ in size; at
        n = 5 and 20, ``P > n`` leaves ranks with no rows.

        Mutation check (run once, in a scratch copy): with
        ``distribute_sparse_3d`` / ``distribute_dense_3d`` alone giving
        layer ``k`` one contiguous slice again, all four shapes fail,
        each two ways: the ledger leaves the schedule (``scomm`` seconds:
        the emitter prices the interleaved sparse blocks), and rank
        ``r``'s input block is not rows ``_rank_rows(r)`` of ``X``.  One
        sweep from that layout still lands on ``_rank_rows`` -- it is
        the next sweep that reads the wrong rows (``verify_against_
        serial`` fails too, once the two checks before it are cut)."""
        a_t, features, labels, widths, seed = data.draw(
            shaped_problems(True, n=n))
        algo, _ = build_shaped("3d", p, {}, a_t, widths, seed)
        schedule = DistGCN3D.emit_comm_schedule(
            GraphModel.from_csr(a_t), widths, p)
        # no point-to-point phase after a multiply: the only one is a
        # SUMMA stage's row gather, right before the stage's SpMM
        assert {type(ph) for ph in schedule.phases} <= {
            CollectivePhase, GatherRowsPhase, TransposePhase, SpmmPhase,
            GemmPhase, ElementwisePhase}
        for ph, after in zip(schedule.phases, schedule.phases[1:]):
            if isinstance(ph, GatherRowsPhase):
                assert isinstance(after, SpmmPhase)
        assert_sections_exact(
            algo, features, labels, schedule, algo.rt.profile)
        f = widths[0]
        split = algo._fsplit(f)
        blocks = algo._setup_data(features)
        for operand, dense in ((algo.a_t_blocks, algo.a_t.to_dense()),
                               (algo.a_blocks, algo.a.to_dense())):
            want = dense @ features
            out = algo._grid_spmm(operand, blocks, f)
            assert sorted(out) == list(range(p))
            for r, block in out.items():
                lo, hi = algo._rank_rows(r)
                c0, c1 = split[algo._out_col(r)]
                np.testing.assert_array_equal(blocks[r],
                                              features[lo:hi, c0:c1])
                np.testing.assert_allclose(block, want[lo:hi, c0:c1],
                                           rtol=1e-12, atol=1e-12)
        assert algo.verify_against_serial(features, labels, epochs=2) <= 1e-12

    @pytest.mark.parametrize("p", [2, 4, 8])
    @given(data=st.data())
    def test_1d_symmetric_dcomm_is_the_narrow_sides(self, p, data):
        """(iii) All-gathers at ``min(f^{l-1}, f^l)`` twice per layer
        above the first, one all-reduce of the gradient bucket (the loss
        pair and each weight gradient) -- nothing else, and nothing at a
        wide side."""
        a_t, features, labels, widths, seed = data.draw(
            shaped_problems(False))
        algo, _ = build_shaped("1d", p, {"variant": "symmetric"}, a_t,
                               widths, seed)
        n = a_t.nrows
        units = sum(2 * min(a, b) for a, b in zip(widths[1:-1], widths[2:]))
        reduced = 16 + sum(8 * a * b for a, b in zip(widths, widths[1:]))
        hist = algo.fit(features, labels, epochs=2)
        assert hist.setup.dcomm_bytes == (p - 1) * n * 8 * widths[0]
        assert [e.dcomm_bytes for e in hist.epochs] == \
            [(p - 1) * n * 8 * units + 2 * (p - 1) * reduced] * 2

    @pytest.mark.parametrize("name,p,kw,directed_ok", GRID_CONFIGS)
    @given(data=st.data())
    def test_grid_funnels_move_the_narrow_sides(self, name, p, kw,
                                                directed_ok, data):
        """(v) Above layer 1 the replicated-``W`` funnels move each
        layer's narrow side along the row groups (``Pc`` members, ``n``
        rows between them), each operand once and by one all-gather or
        reduce-scatter, so every layer pays ``2 (Pc - 1) n min(f^{l-1},
        f^l)`` words -- the 1D property's form with ``Pc`` in place of
        ``P``.  One that shrinks reduce-scatters its forward product and
        gathers ``A G`` once for both backward funnels; one that does not
        gathers ``T^l`` once for its product and ``Y = T^T G``, then
        gathers ``A G`` for ``G W^T`` (equal widths) or, growing,
        reduce-scatters ``G W^T`` at ``f^{l-1}``.  Beyond the sweeps, the
        ``log_softmax`` pairs' gather and the gradient bucket's bands,
        the ledger and the emitted schedule charge exactly that, and the
        set-up exactly its sweep plus one gather of ``T^0``, ``(Pc - 1) n
        f^0`` words.

        Mutation check (run once, in a scratch copy): with the emitter
        alone moving a gathered operand by ``Pc`` pipelined stage
        broadcasts again (``emit_grid_epoch``'s ``gather``), this
        property fails on the schedule side and (ii) on ledger !=
        schedule, on all three configurations."""
        a_t, features, labels, widths, seed = data.draw(
            shaped_problems(directed_ok))
        algo, emit_kw = build_shaped(name, p, kw, a_t, widths, seed)
        schedule = ALGORITHMS[name].emit_comm_schedule(
            GraphModel.from_csr(a_t), widths, p, **emit_kw)
        n, pc = a_t.nrows, len(algo._row_group_list[0])
        units = sum(2 * (pc - 1) * min(a, b)
                    for a, b in zip(widths[1:-1], widths[2:]))
        funnels = n * 8 * units
        hist = algo.fit(features, labels, epochs=1)
        # log_softmax: each rank gets a row's statistic from each other
        # member of its row group, two words or the member's columns
        # where it holds fewer
        words = sum(min(2, hi - lo) for lo, hi in algo._fsplit(widths[-1]))
        others = ((pc - 1) * n * 8 * words + bucket_dcomm(p, pc, widths)
                  + sweeps_dcomm(algo, *sweep_widths(widths)))
        assert hist.epochs[0].dcomm_bytes - others == funnels
        priced = evaluate_schedule(schedule, algo.rt.profile)
        assert priced.bytes_by_category[Category.DCOMM] - others == funnels
        setup = (sweeps_dcomm(algo, (widths[0],))
                 + (pc - 1) * n * 8 * widths[0])
        assert hist.setup.dcomm_bytes == setup
        assert evaluate_schedule(schedule.setup, algo.rt.profile) \
            .bytes_by_category[Category.DCOMM] == setup


def bucket_dcomm(p: int, pc: int, widths) -> int:
    """Dense bytes, over every rank, of a grid epoch's gradient bucket
    (``GridAlgorithm._reduce_bucket``): each of the ``p / pc`` members
    of a column group all-reduces its band, and every rank all-gathers
    the ``pc`` bands of its row group."""
    g = p // pc
    bands = [band_nbytes(band) for band in bucket_bands(widths, pc)]
    return (sum(2 * g * (band * (g - 1) // g) for band in bands)
            + p * (sum(bands) * (pc - 1) // pc))


def sweeps_dcomm(algo, forward, backward=()) -> int:
    """Dense bytes of SpMM sweeps at the ``forward`` / ``backward``
    widths, measured by running each (on zero blocks of its width)
    through the trainer."""
    tracker = algo.rt.tracker
    before = tracker.total_bytes(Category.DCOMM)
    for operand, f in ([(algo.a_t_blocks, f) for f in forward]
                       + [(algo.a_blocks, f) for f in backward]):
        split = algo._fsplit(f)
        blocks = {}
        for r in algo.rt.local_ranks:
            lo, hi = split[algo._out_col(r)]
            blocks[r] = np.zeros((algo._rows_of(r), hi - lo))
        algo._grid_spmm(operand, blocks, f)
    return tracker.total_bytes(Category.DCOMM) - before


class RecordedSpmm:
    """While active, every SpMM of a SUMMA stage
    (``repro.dist.grid.spmm``) records a copy of its dense operand, per
    calling thread -- a worker runtime of a pool runs in a thread."""

    def __enter__(self):
        import repro.dist.grid as grid

        self.grid, self.spmm, self.made = grid, grid.spmm, {}

        def recording(piece, rows):
            self.made.setdefault(threading.get_ident(), []).append(
                np.array(rows))
            return self.spmm(piece, rows)

        grid.spmm = recording
        return self

    def __exit__(self, *exc):
        self.grid.spmm = self.spmm

    def take(self) -> list:
        return self.made.pop(threading.get_ident(), [])


def relay_sweeps(algo, x, spmms):
    """Both sweeps of ``algo`` over ``x`` (every entry its global row +
    1), recorded: ``(calls, receipts, ledger digest)``.  ``calls`` holds,
    per SpMM of a stage (``spmms``, a :class:`RecordedSpmm`), the dense
    rows it multiplied and the global rows it should have -- a row
    group fed by a relay receipt its ``U_p``, any other the root's whole
    stage, read in place (:func:`expected_runs`) -- and ``receipts`` the
    same per relay receipt, against its destination's ``U_p``.  Runs on
    whatever runtime ``algo`` has, so on one worker of a pool too."""
    coll = algo.rt.coll
    post, collect = coll.post, coll.collect
    posted, calls, receipts, relayed = {}, [], [], []

    def recording_post(kind, routes, payloads):
        handle = post(kind, routes, payloads)
        # one relay step a stage (the first sweep over an operand also
        # broadcasts its sparse pieces)
        posted[id(handle)] = (kind, routes, next(steps)
                              if kind == "gather_rows" else None)
        return handle

    def recording_collect(handle):
        kind, routes, t = posted.pop(id(handle))
        got = collect(handle)
        if kind == "gather_rows":
            relayed.extend((t, dst, rows)
                           for (_, dst, _), rows in zip(routes, got))
        return got

    coll.post, coll.collect = recording_post, recording_collect
    try:
        for operand, matrix in ((algo.a_t_blocks, algo.a_t),
                                (algo.a_blocks, algo.a)):
            steps = itertools.count()
            relayed.clear()
            algo._grid_spmm(operand, algo._setup_data(x), 12)
            key = "a_t" if operand is algo.a_t_blocks else "a"
            stages = getattr(algo, "_summa", None) or algo._split
            stages = stages.get(key, stages["a_t"])
            runs = expected_runs(algo, matrix)
            s = len(runs) // len(stages)  # layers per stage
            want = []
            for t, st_ in enumerate(stages):
                g = len(st_.rows[0])
                for gi, *_ in algo._local_group_info:
                    k, i = divmod(gi, g)
                    root, _, runs_ = runs[t * s + k]
                    if st_.sparse[st_.sparse_routes[gi][1]].nnz:
                        want.append(runs_[i if gi in st_.fed else root])
            made = spmms.take()
            assert len(made) == len(want)
            calls.extend(zip(made, want))
            member = {(at // s, rank(i, j)): ids
                      for at, (_, rank, runs_) in enumerate(runs)
                      for j in range(len(algo._fsplit(1)))
                      for i, ids in runs_.items()}
            receipts.extend((got, member[t, dst])
                            for t, dst, got in relayed if got is not None)
    finally:
        coll.post, coll.collect = post, collect
    return calls, receipts, ledger_digest(algo.rt.tracker)


def relay_sweeps_on_workers(name, algo, kw, transport, workers, x, spmms):
    """:func:`relay_sweeps` on ``workers`` worker runtimes (threads)
    over a ``transport`` fabric, for the mesh and operand of ``algo``,
    which then runs the same sweeps itself (so its ledger is the one
    the workers' must equal)."""
    from test_parallel_tickets import Fabric, run_threads

    fabric = Fabric(transport, workers)
    owners = owner_map(algo.rt.size, workers)
    ctor = {k: v for k, v in kw.items() if k != "grid"}
    try:
        got = run_threads({w: (lambda w=w: relay_sweeps(
            ALGORITHMS[name](
                WorkerRuntime(algo.mesh, None, fabric.chans[w], owners),
                algo.a_t, algo.widths, seed=0, **ctor), x, spmms))
            for w in range(workers)})
    finally:
        fabric.close()
    relay_sweeps(algo, x, spmms)
    return [got[w] for w in range(workers)]


class RecordedPieces(RecordedSpmm):
    """:class:`RecordedSpmm`, recording each SpMM's sparse piece."""

    def __enter__(self):
        import repro.dist.grid as grid

        self.grid, self.spmm, self.made = grid, grid.spmm, {}

        def recording(piece, rows):
            self.made.setdefault(threading.get_ident(), []).append(piece)
            return self.spmm(piece, rows)

        grid.spmm = recording
        return self


def fed_multiplies(algo, x, spmms):
    """Two sweeps over ``A^T`` -- the first receives the stages' sparse
    pieces, the second multiplies the kept ones -- recorded (``spmms``,
    a :class:`RecordedPieces`): per SpMM of a row group a relay receipt
    feeds, ``(the piece it multiplied, the piece the set-up broadcast
    delivered to it)``."""
    coll = algo.rt.coll
    post, collect = coll.post, coll.collect
    kinds, receipts = {}, []

    def recording_post(kind, routes, payloads):
        handle = post(kind, routes, payloads)
        kinds[id(handle)] = kind
        return handle

    def recording_collect(handle):
        got = collect(handle)
        if kinds.pop(id(handle)) == "broadcast":
            receipts.append(got)
        return got

    coll.post, coll.collect = recording_post, recording_collect
    try:
        for _ in range(2):
            algo._grid_spmm(algo.a_t_blocks, algo._setup_data(x), 12)
    finally:
        coll.post, coll.collect = post, collect
    stages = algo._summa["a_t"]
    assert len(receipts) == len(stages)  # the first sweep's, only
    made, out = iter(spmms.take()), []
    for _ in range(2):
        for st_, got in zip(stages, receipts):
            fed = {gi for gi, group, members, span in algo._local_group_info
                   if any(st_.feed[r][0] is not None for r in members
                          if r in st_.feed)}
            for gi, *_ in algo._local_group_info:
                if got[gi].nnz:
                    piece = next(made)
                    if gi in fed:
                        out.append((piece, got[gi]))
            assert fed == st_.fed
    assert next(made, None) is None
    return out


@pytest.mark.parametrize("name,p", [("2d", 4), ("3d", 8)])
@pytest.mark.parametrize("workers", [2, 4])
def test_fed_groups_multiply_the_pieces_they_received(name, p, workers):
    """A row group a relay receipt feeds multiplies the sparse piece the
    set-up broadcast delivered to it -- compacted onto its relayed rows,
    which keeps the piece's ``data`` -- in the first sweep and in every
    later one, not a copy built from the sender's block: on worker
    runtimes (threads) over shm."""
    from test_parallel_tickets import Fabric, run_threads

    ds = make_synthetic(n=97, avg_degree=5, f=12, seed=7)
    virtual = make_algorithm(name, p, ds, hidden=8, seed=0)
    fabric = Fabric("shm", workers)
    owners = owner_map(p, workers)
    try:
        with RecordedPieces() as spmms:
            got = run_threads({w: (lambda w=w: fed_multiplies(
                ALGORITHMS[name](
                    WorkerRuntime(virtual.mesh, None, fabric.chans[w],
                                  owners),
                    virtual.a_t, virtual.widths, seed=0),
                ds.features, spmms))
                for w in range(workers)})
    finally:
        fabric.close()
    pairs = [pair for w in range(workers) for pair in got[w]]
    assert pairs  # some row group is fed across workers
    for piece, received in pairs:
        assert np.shares_memory(piece.data, received.data)
        assert piece.nnz == received.nnz


#: (iv) Losses of a 3-epoch fit with widths (10, 6, 6, 6) -- every layer
#: above the first has equal widths, so no sweep is reordered -- recorded
#: on the commit before the rule existed (5efa059): bit-identical after.
#: One re-pin since: 1.5D's second loss moved in the last bit (...954 ->
#: ...956) when every SpMM became the compiled kernel (c0e7749's dispatch
#: ran some first-touch blocks through the numpy kernel).  And one for
#: the grid rows, when ``log_softmax`` began to fold per-row (max, sum
#: exp) pairs and each member to pick its own columns' loss terms: 2D P =
#: 4 ...954 -> ...956 (second loss), 2D P = 8 ...517 -> ...520 (first),
#: 3D P = 8 ...956 -> ...954 (second).
EQUAL_WIDTH_LOSSES = {
    ('1d', 4, 'symmetric'): [1.826012853433352, 1.8234909164189956, 1.8210591931073037],
    ('1d', 4, 'outer'): [1.826012853433352, 1.8234909164189956, 1.8210591931073037],
    ('1d', 3, 'outer_sparse'): [1.8260128534333517, 1.8234909164189954, 1.8210591931073037],
    ('1d', 4, 'transpose'): [1.826012853433352, 1.8234909164189956, 1.8210591931073037],
    ('1d', 4, 'ghost'): [1.8260128534333517, 1.8234909164189956, 1.8210591931073037],
    ('1.5d', 4, None): [1.8260128534333517, 1.8234909164189956, 1.8210591931073037],
    ('2d', 4, None): [1.8260128534333517, 1.8234909164189956, 1.8210591931073037],
    ('2d', 8, None): [1.826012853433352, 1.8234909164189954, 1.8210591931073037],
    ('3d', 8, None): [1.826012853433352, 1.8234909164189954, 1.8210591931073037],
}


@pytest.mark.parametrize("name,p,kw,directed_ok", SHAPE_CONFIGS)
def test_equal_widths_keep_the_parents_bits(name, p, kw, directed_ok):
    ds = make_synthetic(n=61, avg_degree=4, f=10, n_classes=6, seed=11)
    algo, _ = build_shaped(name, p, kw, ds.adjacency, (10, 6, 6, 6), 3)
    hist = algo.fit(ds.features, ds.labels, epochs=3)
    assert hist.losses == EQUAL_WIDTH_LOSSES[name, p, kw.get("variant")]


# ---------------------------------------------------------------------- #
# placement-independent bits: a process run is its virtual run
# ---------------------------------------------------------------------- #
#: 2D P = 4, 2D P = 16, 2D on a 2 x 3 grid and 3D P = 8 at hidden 6 / 4
#: / 8, on 2, 3 or 4 workers: 72 process runs with the two transports.
#: Before every SpMM ran the compiled kernel, 24 of the 36 runs then
#: drawn differed from their virtual run (a narrower column span on a
#: worker, or a freshly received piece, took the numpy kernel); measured
#: since: 0.  Every SUMMA stage of this graph gathers its dense rows.
PLACEMENT_CONFIGS = [("2d", 4, None), ("2d", 16, None), ("2d", 6, (2, 3)),
                     ("3d", 8, None)]


@functools.lru_cache(maxsize=1)
def placement_dataset():
    return make_synthetic(n=97, avg_degree=5, seed=7)


def placement_run(name, p, grid, hidden, **backend):
    """4-epoch losses (``float.hex``) and the ``predict()`` sha1."""
    ds = placement_dataset()
    algo = make_algorithm(name, p, ds, hidden=hidden, seed=0, grid=grid,
                          **backend)
    try:
        hist = algo.fit(ds.features, ds.labels, epochs=4)
        return ([float(x).hex() for x in hist.losses],
                hashlib.sha1(algo.predict().tobytes()).hexdigest())
    finally:
        if backend:
            algo.rt.close()


virtual_placement_run = functools.lru_cache(maxsize=None)(placement_run)


@pytest.mark.parametrize("transport", ["shm", "tcp"])
@given(config=st.sampled_from(PLACEMENT_CONFIGS),
       hidden=st.sampled_from([6, 4, 8]),
       workers=st.sampled_from([2, 3, 4]))
@example(config=("2d", 4, None), hidden=6, workers=4)
@example(config=("2d", 6, (2, 3)), hidden=8, workers=2)
@example(config=("2d", 6, (2, 3)), hidden=4, workers=3)
@example(config=("3d", 8, None), hidden=8, workers=3)
@example(config=("3d", 8, None), hidden=6, workers=2)
def test_process_runs_keep_the_virtual_runs_bits(transport, config, hidden,
                                                 workers):
    name, p, grid = config
    assert placement_run(name, p, grid, hidden, backend="process",
                         workers=workers, transport=transport) == \
        virtual_placement_run(name, p, grid, hidden)


# ---------------------------------------------------------------------- #
# output layers narrower than the row groups
# ---------------------------------------------------------------------- #
#: grid shapes whose output layer leaves some member of every row group
#: without a class column (``f^L < Pc``), or is one column wide:
#: ``(family, P, grid, classes)``
NARROW_OUTPUTS = [
    pytest.param("2d", 8, (2, 4), 3, id="2d-2x4-3classes"),
    pytest.param("3d", 27, None, 2, id="3d-27-2classes"),
    pytest.param("2d", 4, None, 1, id="2d-4-1class"),
    pytest.param("3d", 8, None, 1, id="3d-8-1class"),
]


def narrow_run(name, p, grid, classes, **backend):
    """A 3-epoch fit's losses (``float.hex``), its ``predict()`` and the
    algorithm (closed, on the process backend)."""
    ds = make_synthetic(n=61, avg_degree=4, f=8, n_classes=classes, seed=3)
    algo = make_algorithm(name, p, ds, hidden=6, seed=0, grid=grid,
                          **backend)
    try:
        hist = algo.fit(ds.features, ds.labels, epochs=3)
        return [float(x).hex() for x in hist.losses], algo.predict(), algo
    finally:
        if backend:
            algo.rt.close()


@pytest.mark.parametrize("name,p,grid,classes", NARROW_OUTPUTS)
def test_narrow_outputs_match_serial_and_schedule(name, p, grid, classes):
    """``log_softmax`` folds a member with no class column as ``(-inf,
    0)``: the log-probs stay finite, training follows the serial
    reference, and the ledger the emitted schedule."""
    ds = make_synthetic(n=61, avg_degree=4, f=8, n_classes=classes, seed=3)
    _, log_probs, algo = narrow_run(name, p, grid, classes)
    split = algo._fsplit(classes)
    assert classes == 1 or any(hi == lo for lo, hi in split)
    assert log_probs.shape == (61, classes)
    assert np.isfinite(log_probs).all()
    assert algo.verify_against_serial(ds.features, ds.labels,
                                      epochs=2) <= 1e-12
    algo = make_algorithm(name, p, ds, hidden=6, seed=0, grid=grid)
    schedule = ALGORITHMS[name].emit_comm_schedule(
        GraphModel.from_dataset(ds), algo.widths, p,
        **({"grid": grid} if grid else {}))
    assert_sections_exact(algo, ds.features, ds.labels, schedule,
                          algo.rt.profile)


@pytest.mark.parametrize("transport", ["shm", "tcp"])
@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("name,p,grid,classes", NARROW_OUTPUTS)
def test_narrow_outputs_keep_the_virtual_bits(name, p, grid, classes,
                                              workers, transport):
    losses, log_probs, _ = narrow_run(name, p, grid, classes)
    got_losses, got, _ = narrow_run(name, p, grid, classes,
                                    backend="process", workers=workers,
                                    transport=transport)
    assert got_losses == losses
    assert got.tobytes() == log_probs.tobytes()


# ---------------------------------------------------------------------- #
# the sparse operand moves once: at set-up, on every backend
# ---------------------------------------------------------------------- #
#: every family, on a symmetric operand and on a directed one where it
#: takes one: 1D's ``transpose`` variant (the paper's per-epoch
#: transpose), 1.5D (symmetric operands only), 2D and Split-3D
PIECE_CONFIGS = [
    pytest.param(name, p, kw, directed,
                 id=f"{name}-{'directed' if directed else 'symmetric'}")
    for name, p, kw, directed_ok in [
        ("1d", 4, {"variant": "transpose"}, True),
        ("1.5d", 4, {"replication": 2}, False),
        ("2d", 4, {}, True),
        ("3d", 8, {}, True),
    ]
    for directed in (False, True) if directed_ok or not directed
]


def kept_piece_bytes(algo):
    """Per rank, the wire bytes of every SUMMA piece its row groups
    receive, each once: every stage of every operand role the algorithm
    multiplies (``a_t``; ``a`` too for a directed operand).  None for a
    family without SUMMA stages."""
    got = [0] * algo.rt.size
    for stages in getattr(algo, "_summa", {}).values():
        for st_ in stages:
            for group, root in st_.sparse_routes:
                if len(group) > 1:
                    for r in group:
                        got[r] += st_.sparse[root].nbytes_on_wire
    return got


@pytest.mark.parametrize("backend", ["virtual", "shm", "tcp"])
@pytest.mark.parametrize("name,p,kw,directed", PIECE_CONFIGS)
@given(data=st.data())
def test_sparse_pieces_move_once_at_set_up(name, p, kw, directed, backend,
                                           data):
    """No epoch of any family charges ``scomm``, and no 2D / Split-3D
    epoch charges ``trpose``: the first install moves every SUMMA
    stage's sparse pieces -- each rank is charged each piece its row
    groups receive exactly once -- and every rank keeps them, and a
    directed operand's ``A`` grid is transposed there too, once.  A
    later install (``setup``, ``predict(new_features)``) moves no
    sparse byte.  The emitted set-up, epoch and re-install sections
    equal the virtual ledger, and on 2 workers over shm and tcp the
    same calls leave the same ledger and ``predict`` bits.

    Mutation check (run once, in a scratch copy): with
    ``GridAlgorithm._summa_sweep`` broadcasting a kept stage's pieces
    again in every later sweep, every 2D and Split-3D case fails here,
    on all three backends."""
    a_t, features, labels, widths, seed = data.draw(
        shaped_problems(directed, directed=directed))
    virtual, emit_kw = build_shaped(name, p, kw, a_t, widths, seed)
    assert virtual.symmetric is not directed
    schedule = ALGORITHMS[name].emit_comm_schedule(
        GraphModel.from_csr(a_t), widths, p, **emit_kw)
    grid = name in ("2d", "3d")
    assert not any(getattr(ph, "category", None) == Category.SCOMM
                   for ph in schedule.phases)
    assert not (grid and any(isinstance(ph, TransposePhase)
                             for ph in schedule.phases))
    # set-up, epochs 0 and 1, a second setup() with new features
    assert_sections_exact(
        virtual, features, labels, schedule, virtual.rt.profile)
    tracker = virtual.rt.tracker
    scomm = [tracker.per_rank[r][Category.SCOMM].bytes for r in range(p)]
    trpose = [tracker.per_rank[r][Category.TRPOSE].bytes for r in range(p)]
    assert scomm == kept_piece_bytes(virtual)
    assert (sum(scomm) > 0) is grid
    if grid:
        assert trpose == ([virtual.a_blocks[r].nbytes_on_wire
                           for r in range(p)] if directed else [0] * p)
    new = np.asarray(features) + 2.0
    want = virtual.predict(new)
    assert [tracker.per_rank[r][Category.SCOMM].bytes
            for r in range(p)] == scomm
    assert [tracker.per_rank[r][Category.TRPOSE].bytes
            for r in range(p)] == trpose
    if backend == "virtual":
        return
    rt = make_runtime_for(name, p, grid=kw.get("grid"), backend="process",
                          workers=2, transport=backend)
    rt.start()
    try:
        algo = rt.make_algorithm(
            name, a_t, widths, seed=seed,
            **{k: v for k, v in kw.items() if k != "grid"})
        algo.setup(features, labels)
        for epoch in range(2):
            algo.train_epoch(epoch)
        algo.setup(np.asarray(features) + 1.0, labels)
        got = algo.predict(new)
        assert ledger_digest(rt.tracker) == ledger_digest(tracker)
        np.testing.assert_array_equal(got, want)
    finally:
        rt.close()
