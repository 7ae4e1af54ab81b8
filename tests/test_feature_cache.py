"""The kept ``A^T H^0``: lifetime, accounting, and worker agreement.

``H^0`` is the dataset, so ``T^0 = A^T H^0`` is aggregated once per
feature matrix (``DistAlgorithm._install_features``) and every epoch and
every ``predict()`` starts from it.  These tests pin what that promises:

* one door -- ``setup`` and ``predict(features)`` install features the
  same way; the decision "is this matrix new?" is taken on content, on a
  private copy, so an in-place edit is picked up exactly when the array
  is installed again and an unchanged matrix costs nothing;
* an epoch is ``L - 1`` SpMM sweeps each way on every family, the
  set-up one sweep at ``f^0`` -- counted from the widths;
* on the process backend every worker reaches the same verdict, also
  when only one worker's rows changed, and also across a kill-and-recover
  fit, with losses and the ledger digest (set-up charge included) equal
  to the virtual run's; a matrix bit-equal to the one the pool installed
  last is not shipped again (the driver sends a marker, each worker
  keeps what it aggregated), but one a respawned pool needs is;
* in 2D / 3D the set-up also all-gathers ``T^0`` along the row groups,
  once: each local row group keeps the pieces, every epoch's layer-1
  replicated-``W`` products run from them, and only a new matrix pays
  the gather again -- also where a row group spans workers.
"""

from __future__ import annotations

import gc
import os
import time
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from test_simulate import assert_sections_exact

from repro.comm import cost_model as cm
from repro.comm.tracker import Category
from repro.dist import ALGORITHMS, make_algorithm, make_runtime_for
from repro.graph import make_synthetic
from repro.nn.layers import funnel_reduces, sweep_widths
from repro.parallel import ledger_digest
from repro.parallel.runtime import HELD_FEATURES
from repro.simulate.schedule import GraphModel

HIDDEN = 8
K = 3

#: every family; 1D in each of its backward variants
FAMILIES = [
    pytest.param("1d", 4, {"variant": "symmetric"}, id="1d-symmetric"),
    pytest.param("1d", 4, {"variant": "outer"}, id="1d-outer"),
    pytest.param("1d", 4, {"variant": "outer_sparse"}, id="1d-outer_sparse"),
    pytest.param("1d", 4, {"variant": "transpose"}, id="1d-transpose"),
    pytest.param("1d", 4, {"variant": "ghost", "partition": "multilevel"},
                 id="1d-ghost"),
    pytest.param("1.5d", 8, {"replication": 2}, id="1.5d-c2"),
    pytest.param("2d", 6, {"grid": (2, 3)}, id="2d-2x3"),
    pytest.param("3d", 8, {}, id="3d-8"),
]


@pytest.fixture(scope="module")
def ds():
    return make_synthetic(n=61, avg_degree=4, f=10, n_classes=3, seed=11)


def make(ds, name, p, kw, **extra):
    return make_algorithm(name, p, ds, hidden=HIDDEN, seed=0, **kw, **extra)


def edited(features, rows=slice(None)):
    out = features.copy()
    out[rows] = out[rows] * 0.5 + 1.0
    return out


def clone_trained(ds, name, p, kw, src):
    """A fresh algorithm holding ``src``'s weights (plain SGD carries no
    other training state)."""
    algo = make(ds, name, p, kw)
    algo.model.set_weights([w.copy() for w in src.model.weights])
    return algo


# --------------------------------------------------------------------- #
# one door for features
# --------------------------------------------------------------------- #
class TestOneDoor:
    @pytest.mark.parametrize("name,p,kw", FAMILIES)
    def test_in_place_edit_between_fits_is_picked_up(self, ds, name, p, kw):
        x = ds.features.copy()
        algo = make(ds, name, p, kw)
        algo.fit(x, ds.labels, epochs=2)
        fresh = clone_trained(ds, name, p, kw, algo)
        x[:] = edited(x)                        # same array, new content
        again = algo.fit(x, ds.labels, epochs=2)
        ref = fresh.fit(x.copy(), ds.labels, epochs=2)
        assert again.losses == ref.losses
        # The new matrix is aggregated and gathered again; the 2D / 3D
        # sparse pieces moved at the first install only.
        assert again.setup.dcomm_bytes == ref.setup.dcomm_bytes > 0
        assert again.setup.comm_bytes == again.setup.dcomm_bytes
        np.testing.assert_array_equal(algo.predict(), fresh.predict())

    @pytest.mark.parametrize("name,p,kw", FAMILIES)
    def test_edit_after_setup_changes_nothing(self, ds, name, p, kw):
        x = ds.features.copy()
        algo, ref = make(ds, name, p, kw), make(ds, name, p, kw)
        algo.setup(x, ds.labels)
        ref.setup(ds.features, ds.labels)
        x[:] = edited(x)                        # no setup() follows
        for epoch in range(2):
            assert algo.train_epoch(epoch).loss == \
                ref.train_epoch(epoch).loss
        np.testing.assert_array_equal(algo.predict(), ref.predict())

    @pytest.mark.parametrize("name,p,kw", FAMILIES)
    def test_predict_new_features_keeps_training_state(self, ds, name, p,
                                                       kw):
        mask = np.arange(ds.num_vertices) % 3 != 0
        algo = make(ds, name, p, kw)
        algo.fit(ds.features, ds.labels, epochs=2, mask=mask)
        labels, kept = algo._labels.copy(), algo._mask.copy()
        new = edited(ds.features)
        fresh = clone_trained(ds, name, p, kw, algo)
        out = algo.predict(new)
        np.testing.assert_array_equal(out, algo.predict())
        np.testing.assert_array_equal(out, fresh.predict(new))
        np.testing.assert_array_equal(algo._labels, labels)
        np.testing.assert_array_equal(algo._mask, kept)
        # ... and training goes on, on the features predict() installed
        fresh.setup(new, ds.labels, mask)
        assert algo.train_epoch(2).loss == fresh.train_epoch(2).loss

    @pytest.mark.parametrize("name,p,kw", FAMILIES)
    def test_unchanged_features_cost_nothing_again(self, ds, name, p, kw):
        algo = make(ds, name, p, kw)
        tracker = algo.rt.tracker
        first = algo.fit(ds.features, ds.labels, epochs=1)
        assert first.setup.comm_bytes > 0
        per_epoch = []
        for k in (K, 1):
            before = tracker.total_messages()
            # a fresh array every call, as the process backend delivers it
            hist = algo.fit(ds.features.copy(), ds.labels, epochs=k)
            per_epoch.append((tracker.total_messages() - before) / k)
            assert hist.setup.comm_bytes == 0
            assert hist.setup.modeled_seconds == 0.0
        assert per_epoch[0] == per_epoch[1] == int(per_epoch[0]) > 0
        before = tracker.total_messages()
        algo.predict(ds.features.copy())
        algo.predict()
        assert tracker.total_messages() - before < 2 * per_epoch[0]

    def test_noncontiguous_and_integer_inputs_are_compared_by_value(self, ds):
        algo = make(ds, "1d", 4, {})
        wide = np.zeros((ds.num_vertices, 2 * ds.feature_width))
        wide[:, ::2] = ds.features
        first = algo.fit(wide[:, ::2], ds.labels, epochs=1)   # a strided view
        assert first.setup.comm_bytes > 0
        assert algo.fit(ds.features, ds.labels, epochs=1).setup.comm_bytes == 0
        ints = np.arange(ds.num_vertices * ds.feature_width).reshape(
            ds.num_vertices, -1) % 7
        assert algo.fit(ints, ds.labels, epochs=1).setup.comm_bytes > 0
        assert algo.fit(ints.astype(np.float64), ds.labels,
                        epochs=1).setup.comm_bytes == 0

    @pytest.mark.parametrize("name,p,kw", FAMILIES)
    def test_t0_is_private_and_setup_scratch_is_released(self, ds, name, p,
                                                         kw):
        x = ds.features.copy()
        algo = make(ds, name, p, kw)
        algo.setup(x, ds.labels)
        assert not algo.workspace          # nothing f^0-wide stays behind
        assert not np.may_share_memory(algo._features, x)
        for block in algo._t0.values():
            assert block.flags.owndata and block.flags.writeable
            assert not np.may_share_memory(block, x)
        # a failed install leaves nothing half-installed
        with pytest.raises(ValueError, match="features shape"):
            algo.setup(x[:, :-1], ds.labels)
        assert algo.fit(x, ds.labels, epochs=1).setup.comm_bytes == 0


# --------------------------------------------------------------------- #
# L - 1 sweeps each way, counted from the widths
# --------------------------------------------------------------------- #
class TestSweepCounts:
    @pytest.mark.parametrize("name,p,kw", FAMILIES)
    def test_spmm_flops_are_l_minus_one_sweeps_each_way(self, ds, name, p,
                                                        kw):
        """Every family's blocks tile the operand, so one sweep at width
        ``f`` is ``2 nnz f`` flops whatever the layout; the widths are
        the narrow side of each layer above the first."""
        algo = make(ds, name, p, kw)
        widths, nnz = algo.widths, ds.adjacency.nnz
        tracker = algo.rt.tracker
        algo.setup(ds.features, ds.labels)
        assert tracker.total_flops(Category.SPMM) == 2 * nnz * widths[0]
        forward, backward = sweep_widths(widths)
        assert forward == backward == tuple(
            min(a, b) for a, b in zip(widths[1:-1], widths[2:]))
        sweeps = forward + backward
        for epoch in range(2):
            before = tracker.total_flops(Category.SPMM)
            algo.train_epoch(epoch)
            assert tracker.total_flops(Category.SPMM) - before == \
                2 * nnz * sum(sweeps)
        before = tracker.total_flops(Category.SPMM)
        algo.predict()
        assert tracker.total_flops(Category.SPMM) - before == \
            2 * nnz * sum(forward)

    @pytest.mark.parametrize("p", [4, 8])
    def test_1d_symmetric_dcomm_from_the_widths(self, ds, p):
        """All-gathers at the sweep widths, one all-reduce of the
        gradient bucket -- the loss pair and each ``f^{l-1} x f^l`` weight
        gradient -- nothing else."""
        algo = make(ds, "1d", p, {"variant": "symmetric"})
        profile, n, w = algo.rt.profile, ds.num_vertices, algo.widths

        def gathered(f):
            return p * cm.allgather_cost(profile, n * f * 8, p).bytes_critical

        def reduced(nbytes):
            return p * cm.allreduce_cost(profile, nbytes, p).bytes_critical

        hist = algo.fit(ds.features, ds.labels, epochs=2)
        assert hist.setup.dcomm_bytes == gathered(w[0])
        forward, backward = sweep_widths(w)
        expected = (sum(gathered(f) for f in forward + backward)
                    + reduced(16 + sum(a * b * 8 for a, b in zip(w, w[1:]))))
        assert [e.dcomm_bytes for e in hist.epochs] == [expected] * 2


# --------------------------------------------------------------------- #
# process backend: every worker reaches the same verdict
# --------------------------------------------------------------------- #
PROCESS_CONFIGS = [
    pytest.param("1d", 4, {}, id="1d"),
    pytest.param("1d", 4, {"variant": "ghost", "partition": "multilevel"},
                 id="1d-ghost"),
    pytest.param("2d", 4, {}, id="2d"),
]
TRANSPORTS = ["shm", "tcp"]
WORKERS = 2
#: the backend's own watchdog while these tests run, and how much of it a
#: fit may use: a worker that skipped the collective would hang its peer
#: until the watchdog fired
TIMEOUT = 30.0
WELL_INSIDE = 10.0


@pytest.fixture
def watchdog():
    old = os.environ.get("REPRO_PARALLEL_TIMEOUT")
    os.environ["REPRO_PARALLEL_TIMEOUT"] = str(TIMEOUT)
    yield
    if old is None:
        os.environ.pop("REPRO_PARALLEL_TIMEOUT", None)
    else:
        os.environ["REPRO_PARALLEL_TIMEOUT"] = old


def worker1_rows_changed(ds):
    """Only rows of the second half change: with no relabelling those
    belong to worker 1's ranks alone (block ownership, W = 2)."""
    n = ds.num_vertices
    return edited(ds.features, slice(n - n // 4, n))


class TwoFits(NamedTuple):
    losses: list
    first_setup: object
    second_setup: object
    digest: str
    second_fit_seconds: float


def two_fits(algo, ds, second, **fit_kw) -> TwoFits:
    """fit, fit again on ``second``; returns what the oracles compare."""
    first = algo.fit(ds.features, ds.labels, epochs=1)
    t0 = time.perf_counter()
    again = algo.fit(second, ds.labels, epochs=K, **fit_kw)
    seconds = time.perf_counter() - t0
    return TwoFits(first.losses + again.losses, first.setup, again.setup,
                   ledger_digest(algo.rt.tracker), seconds)


class TestWorkersDecideAlike:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("name,p,kw", PROCESS_CONFIGS)
    def test_one_workers_rows_change(self, ds, watchdog, name, p, kw,
                                     transport):
        second = worker1_rows_changed(ds)
        want = two_fits(make(ds, name, p, kw), ds, second)
        algo = make(ds, name, p, kw, backend="process", workers=WORKERS,
                    transport=transport)
        try:
            got = two_fits(algo, ds, second)
            # ... and the unchanged matrix costs no worker anything
            before = algo.rt.tracker.total_messages()
            quiet = algo.fit(second.copy(), ds.labels, epochs=1)
            moved = algo.rt.tracker.total_messages() - before
        finally:
            algo.rt.close()
        assert got[:4] == want[:4]       # losses, both set-ups, digest
        assert got.second_setup.comm_bytes > 0      # it re-aggregated
        assert got.second_fit_seconds < WELL_INSIDE
        assert quiet.setup.comm_bytes == 0
        assert moved * K == want_messages(ds, name, p, kw, second)

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_kill_and_recover_reaggregates(self, ds, watchdog, tmp_path,
                                           transport):
        """The respawned pool holds no ``T^0``: it aggregates again, the
        checkpoint's ledger overwrites that charge, and the final digest
        is the fault-free run's."""
        name, p, kw = "1d", 4, {"variant": "ghost",
                                "partition": "multilevel"}
        second = worker1_rows_changed(ds)
        want = two_fits(make(ds, name, p, kw), ds, second)
        # the first fit never reaches epoch 1: the kill lands in the second
        algo = make(ds, name, p, kw, backend="process", workers=WORKERS,
                    transport=transport, max_restarts=3,
                    faults="kill:worker=1,epoch=1,attempt=1")
        try:
            got = two_fits(algo, ds, second,
                           checkpoint_path=str(tmp_path / "ck.npz"),
                           checkpoint_every=1)
            stats = algo.rt.backend_stats(workers=False)
        finally:
            algo.rt.close()
        # (the respawned pool measures its set-up from an empty ledger,
        # the fault-free run as a difference: equal in bytes, not to the
        # last bit in seconds -- the digest is the oracle for those)
        assert got.losses == want.losses and got.digest == want.digest
        assert got.second_setup.bytes_by_category == \
            want.second_setup.bytes_by_category
        assert got.second_setup.comm_bytes > 0
        assert stats["restarts"] == 1

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_only_a_changed_matrix_is_shipped(self, ds, watchdog,
                                              transport):
        """The driver decides on its own copy of the matrix the pool
        installed last: the same matrix again, as a fresh array, ships
        as the held marker; the caller's array edited in place ships
        whole.  The losses are the virtual run's either way."""
        x = ds.features.copy()
        virtual = make(ds, "1d", 4, {})
        algo = make(ds, "1d", 4, {}, backend="process", workers=WORKERS,
                    transport=transport)
        fits, want, held = [], [], []
        try:
            backend = algo.rt._backend
            backend.cmd_queues = [_FitTap(q, held)
                                  for q in backend.cmd_queues]
            for features in (x, x.copy(), None):
                if features is None:
                    x[:] = edited(x)          # same array, new content
                    features = x
                fits.append(algo.fit(features, ds.labels, epochs=1))
                want.append(virtual.fit(features.copy(), ds.labels,
                                        epochs=1))
        finally:
            algo.rt.close()
        assert held == [False] * WORKERS + [True] * WORKERS + [False] * WORKERS
        assert [f.losses for f in fits] == [w.losses for w in want]
        assert [f.setup.comm_bytes > 0 for f in fits] == [True, False, True]

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_kill_and_recover_on_held_features(self, ds, watchdog,
                                               tmp_path, transport):
        """The second fit ships only the held marker; the kill respawns
        the pool, which holds no matrix, so the recovery re-dispatch
        ships the matrix itself -- and trains on it."""
        name, p, kw = "1d", 4, {}
        want = two_fits(make(ds, name, p, kw), ds, ds.features)
        algo = make(ds, name, p, kw, backend="process", workers=WORKERS,
                    transport=transport, max_restarts=3,
                    faults="kill:worker=1,epoch=1,attempt=1")
        try:
            got = two_fits(algo, ds, ds.features.copy(),
                           checkpoint_path=str(tmp_path / "ck.npz"),
                           checkpoint_every=1)
            stats = algo.rt.backend_stats(workers=False)
        finally:
            algo.rt.close()
        assert got.losses == want.losses and got.digest == want.digest
        assert stats["restarts"] == 1


class _FitTap:
    """Stands in for a worker's command queue: records whether each
    ``fit`` shipped the held-features marker, then forwards."""

    def __init__(self, q, held):
        self._q, self._held = q, held

    def put(self, msg):
        if msg[0] == "fit":
            self._held.append(isinstance(msg[1][0], str)
                              and msg[1][0] == HELD_FEATURES)
        self._q.put(msg)

    def __getattr__(self, name):
        return getattr(self._q, name)


def want_messages(ds, name, p, kw, features):
    """Messages of a ``K``-epoch fit on already-installed features."""
    algo = make(ds, name, p, kw)
    algo.fit(features, ds.labels, epochs=1)
    before = algo.rt.tracker.total_messages()
    algo.fit(features, ds.labels, epochs=K)
    return algo.rt.tracker.total_messages() - before


# --------------------------------------------------------------------- #
# 2D / 3D: T^0 gathered along the row groups once, at set-up
# --------------------------------------------------------------------- #
GRIDS = [
    pytest.param("2d", 4, {}, id="2d-square"),
    pytest.param("2d", 8, {"grid": (2, 4)}, id="2d-2x4"),
    pytest.param("2d", 4, {"summa_block": 5}, id="2d-summa_block"),
    pytest.param("3d", 8, {}, id="3d-8"),
    pytest.param("3d", 27, {}, id="3d-27"),
]


def gather_dcomm(algo) -> int:
    """One all-gather of ``T^0`` along the row groups: every member of a
    group is charged the ``(|group| - 1) / |group|`` of the group's rows
    x ``f^0`` it receives (rounded down), so the world pays ``(|group| -
    1) n f^0`` words, less the rounding."""
    return sum(
        len(group) * cm.allgather_cost(
            algo.rt.profile, algo._grows(group) * algo.widths[0] * algo.WB,
            len(group)).bytes_critical
        for group in algo._row_group_list)


def dcomm_of(algo, fn) -> int:
    tracker = algo.rt.tracker
    before = tracker.total_bytes(Category.DCOMM)
    fn()
    return tracker.total_bytes(Category.DCOMM) - before


class TestGatheredOnce:
    @pytest.mark.parametrize("name,p,kw", GRIDS)
    def test_setup_and_epochs_match_the_schedule(self, ds, name, p, kw):
        """The gather is the schedule's one-time section's, layer 1's
        funnels are GEMMs only: ledger == simulator on every section."""
        algo = make(ds, name, p, kw)
        schedule = ALGORITHMS[name].emit_comm_schedule(
            GraphModel.from_dataset(ds), algo.widths, p, **kw)
        assert_sections_exact(algo, ds.features, ds.labels, schedule,
                              algo.rt.profile)

    @pytest.mark.parametrize("name,p,kw", GRIDS)
    def test_only_a_new_matrix_is_gathered_again(self, ds, name, p, kw):
        algo = make(ds, name, p, kw)
        algo.fit(ds.features, ds.labels, epochs=1)
        forward = dcomm_of(algo, algo.predict)
        # the same matrix (a fresh array) moves nothing beyond the pass
        assert dcomm_of(algo, lambda: algo.predict(ds.features.copy())) \
            == forward
        x = edited(ds.features)
        installed = dcomm_of(algo, lambda: algo.predict(x)) - forward
        # a new one: the aggregation sweep and exactly one gather
        sweep = dcomm_of(algo, lambda: algo._grid_spmm(
            algo.a_t_blocks, algo._t0, algo.widths[0]))
        assert installed == sweep + gather_dcomm(algo)
        out = algo.predict()
        x[:] = edited(x)               # the caller edits its array in place
        assert dcomm_of(algo, algo.predict) == forward
        np.testing.assert_array_equal(algo.predict(), out)
        assert dcomm_of(algo, lambda: algo.predict(x)) == forward + installed

    @pytest.mark.parametrize("name,p,kw", GRIDS)
    def test_each_ranks_block_is_its_own_stage(self, ds, name, p, kw):
        """A row group keeps ``f^0`` columns of its rows, once: every
        local rank's ``T^0`` block is a view of its stage block, and the
        memory count is what is held."""
        algo = make(ds, name, p, kw)
        algo.setup(ds.features, ds.labels)
        held = []
        for gi, group, members, span in algo._local_group_info:
            kept = {t: recv[gi] for t, _, _, recv in algo._t0_stages}
            assert sum(b.shape[1] for b in kept.values()) == algo.widths[0]
            held.append(sum(b.size for b in kept.values()))
            for r in members:
                assert np.shares_memory(algo._t0[r], kept[algo._out_col(r)])
        assert max(held) == algo._stored_dense_rows() * algo.widths[0]
        assert algo._kept_x_width(0) == algo.widths[0]

    @pytest.mark.parametrize("name,p,kw", GRIDS)
    def test_weight_gradient_reads_the_forward_stages(self, ds, name, p,
                                                      kw):
        """A forward keeps, per layer whose product loops over gathered
        stages, those stages -- the row group's full ``f^{l-1}`` columns,
        each local rank's piece a read-only view of its own block of
        ``T^l``, not a copy -- and the memory count says so; a shrinking
        layer keeps none."""
        algo = make(ds, name, p, kw)
        algo.setup(ds.features, ds.labels)
        _, caches = algo._forward_layers()
        for l, cache in enumerate(caches):
            f_in = algo.widths[l]
            if funnel_reduces(f_in, algo.widths[l + 1], l == 0):
                assert cache["x_stages"] is None
                assert algo._kept_x_width(l) == \
                    algo._stored_dense_width(f_in)
                continue
            assert algo._kept_x_width(l) == f_in
            if l == 0:
                assert cache["x_stages"] is algo._t0_stages
            for gi, group, members, span in algo._local_group_info:
                kept = [recv[gi] for *_, recv in cache["x_stages"]]
                assert sum(b.shape[1] for b in kept) == f_in
                for r in members:
                    block = kept[algo._out_col(r)]
                    np.testing.assert_array_equal(cache["x"][r], block)
                    assert np.shares_memory(cache["x"][r], block)
                    assert not block.flags.writeable
        assert [c["x_stages"] is not None for c in caches] == [True, True,
                                                               False]


#: tracemalloc bytes held by the trained virtual 2D algorithm below on
#: the commit before the gather was kept (Python 3.11 / NumPy 2)
PARENT_2D_HELD_BYTES = 12_721_612


def test_trained_2d_holds_no_more_than_before_the_gather():
    widths = (128, 64, 64, 16)
    data = make_synthetic(n=2048, avg_degree=8, f=widths[0],
                          n_classes=widths[-1], seed=0)
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        algo = ALGORITHMS["2d"](make_runtime_for("2d", 4), data.adjacency,
                                widths, seed=0)
        algo.fit(data.features, data.labels, epochs=2)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held <= PARENT_2D_HELD_BYTES * 1.01
    blocks = [recv for *_, recv in algo._t0_stages]
    for r, block in algo._t0.items():
        gi = next(i for i, g in enumerate(algo._row_group_list) if r in g)
        assert np.shares_memory(block, blocks[algo._out_col(r)][gi])


#: At W = 4 a 2D P = 4 rank, and a pair of 3D P = 8 ranks, have a worker
#: each, so every row group spans workers and the set-up gather, like the
#: replicated-``W`` funnels' gathers and reduce-scatters, crosses the wire
#: (at W = 2 the groups stay inside one worker).
SPANNING = [
    pytest.param("2d", 4, "tcp", id="2d-w4-tcp"),
    pytest.param("3d", 8, "shm", id="3d-w4-shm"),
]
SPANNING_WORKERS = 4
#: (hidden, classes): widths 10-6-6-3, whose last layer shrinks (its
#: forward product reduce-scatters, its backward gathers ``A G`` once for
#: both funnels), and 10-4-4-7, whose last layer grows (its backward
#: ``G W^T`` reduce-scatters) -- across workers, every funnel's
#: collective crosses the wire.
SPANNING_SHAPES = [pytest.param(6, 3, id="shrinking"),
                   pytest.param(4, 7, id="growing")]


def shaped(name, p, hidden, classes, **extra):
    """``(dataset, algorithm)`` with widths ``10-hidden-hidden-classes``."""
    data = make_synthetic(n=61, avg_degree=4, f=10, n_classes=classes,
                          seed=11)
    return data, make_algorithm(name, p, data, hidden=hidden, seed=0,
                                **extra)


class TestRowGroupsAcrossWorkers:
    @pytest.mark.parametrize("hidden,classes", SPANNING_SHAPES)
    @pytest.mark.parametrize("name,p,transport", SPANNING)
    def test_bit_equal_to_virtual(self, watchdog, name, p, transport,
                                  hidden, classes):
        data, virtual = shaped(name, p, hidden, classes)
        second = edited(data.features)
        want = two_fits(virtual, data, second)
        _, algo = shaped(name, p, hidden, classes, backend="process",
                         workers=SPANNING_WORKERS, transport=transport)
        try:
            got = two_fits(algo, data, second)
        finally:
            algo.rt.close()
        assert got[:4] == want[:4]   # losses, both set-ups, digest
        assert got.second_setup.comm_bytes > 0      # gathered again

    @pytest.mark.parametrize("hidden,classes", SPANNING_SHAPES)
    @pytest.mark.parametrize("name,p,transport", SPANNING)
    def test_kill_and_recover_ends_on_the_fault_free_digest(
            self, watchdog, tmp_path, name, p, transport, hidden, classes):
        """The respawned pool holds no kept stages: it aggregates and
        gathers again, and the checkpoint's ledger overwrites that."""
        data, virtual = shaped(name, p, hidden, classes)
        second = edited(data.features)
        want = two_fits(virtual, data, second)
        _, algo = shaped(name, p, hidden, classes, backend="process",
                         workers=SPANNING_WORKERS, transport=transport,
                         max_restarts=3,
                         faults="kill:worker=1,epoch=1,attempt=1")
        try:
            got = two_fits(algo, data, second,
                           checkpoint_path=str(tmp_path / "ck.npz"),
                           checkpoint_every=1)
            stats = algo.rt.backend_stats(workers=False)
        finally:
            algo.rt.close()
        assert got.losses == want.losses and got.digest == want.digest
        assert stats["restarts"] == 1

    def test_exchanges_per_worker_epoch_tcp(self, ds, watchdog):
        """15 exchanges per worker-epoch at W = 4 (widths 10-8-8-3; each
        worker holds one rank, so each row group collective costs one):
        - the two SpMM sweeps each way, 2 SUMMA stages of a dense relay
          each (the stages' sparse pieces were kept at set-up): 8;
        - the equal-width middle layer (8 -> 8): one all-gather of
          ``T^2`` for its forward product, which its weight gradient
          reads again, and one of ``A G^2`` for ``G W^T``: 2;
        - the shrinking last layer (8 -> 3): its forward product's
          reduce-scatter and one all-gather of ``A G`` for both backward
          funnels: 2;
        - the ``log_softmax`` row all-gather: 1;
        - the gradient bucket: its column bands' all-reduces and the row
          groups' all-gather of the bands: 2.
        That is 14 while the world all-reduced the whole bucket (one
        exchange; at W = 2, where the row groups stay inside a worker,
        the bucket still costs one), 22 while every sweep broadcast its stages' sparse pieces
        again (one more exchange a stage), 25 while the loss and the
        three weight gradients reduced apart (4 all-reduces), 27 while
        ``T^2`` and ``A G^2``
        moved by 2 stage
        broadcasts each (one exchange a stage), 29 while the weight
        gradient broadcast ``T^2`` again, 33 while the last layer's
        three funnels stage-broadcast, 37 while layer 1's two funnels
        re-broadcast ``T^0``.  The set-up is the aggregation sweep's 4
        (each stage's piece broadcast, kept from then on, and its relay)
        and one all-gather of ``T^0`` (2 stage broadcasts before)."""
        first, again = exchanges_per_worker(ds, "2d", 4, "tcp")
        assert again == [K * 15] * SPANNING_WORKERS
        assert first == [4 + 1 + 15] * SPANNING_WORKERS

    def test_exchanges_per_worker_epoch_3d_shm(self, ds, watchdog):
        """15 exchanges per worker-epoch on 3D P = 8 at W = 4.  Each
        worker holds one fiber ``(i, j, :)`` -- one rank of each of two
        row groups -- and a step meets its peers once for all its
        groups, so every row-group collective costs 1:
        - the four Split-3D sweeps, 2 each (2 SUMMA stages of a dense
          relay, the stages' sparse pieces kept at set-up; the fiber
          reduce-scatter stays inside the worker and leaves every rank
          its input rows): 8;
        - the all-gathers of ``T^2`` and ``A G^2``, the last layer's
          reduce-scatter and ``A G`` gather, the ``log_softmax`` rows:
          5;
        - the gradient bucket: its column bands' all-reduces (a column
          group spans two workers) and the row groups' all-gather: 2.
        That is 14 while the world all-reduced the whole bucket, 22
        while every sweep broadcast its stages' sparse pieces again, 27 while a group collective met its peers once per
        group (every row-group collective cost 2), 31 while every
        sweep ended in a fiber-plane exchange
        ``(i, j, k) -> (k, j, i)`` back to a contiguous-layer input
        layout (one more per sweep), 34 while the loss and the three
        weight gradients reduced apart.  A routed stage broadcast met
        the peers once per stage for all groups, so the middle layer's
        two 2-stage operands cost 2 each as broadcasts too: the
        all-gathers left this count where it was (36 while the weight
        gradient broadcast ``T^2`` again).  The set-up's 5 are the
        aggregation sweep's 4 and the ``T^0`` all-gather's 1 (6 while
        it met once per group, 7 with the exchange)."""
        first, again = exchanges_per_worker(ds, "3d", 8, "shm")
        assert again == [K * 15] * SPANNING_WORKERS
        assert first == [5 + 15] * SPANNING_WORKERS


def exchanges_per_worker(ds, name, p, transport):
    """Channel exchanges per worker over a 1-epoch fit (set-up included)
    and over a second, ``K``-epoch fit on the same features."""
    algo = make(ds, name, p, {}, backend="process",
                workers=SPANNING_WORKERS, transport=transport)
    try:
        marks = [algo.rt.backend_stats()]
        for epochs in (1, K):
            algo.fit(ds.features, ds.labels, epochs=epochs)
            marks.append(algo.rt.backend_stats())
    finally:
        algo.rt.close()
    return [[b["exchanges"] - a["exchanges"]
             for a, b in zip(s0["per_worker"], s1["per_worker"])]
            for s0, s1 in zip(marks, marks[1:])]
