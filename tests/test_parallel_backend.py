"""The multiprocess execution backend vs. the virtual-runtime oracle.

The contract under test (ISSUE 4's acceptance criteria): for every
algorithm family, a :class:`ProcessBackend` run under frozen seeds
produces per-epoch losses equal to the :class:`VirtualRuntime` to
<= 1e-12 and a communication ledger that is **byte-for-byte identical**
-- same per-category byte/second totals per epoch, same per-rank rows,
same bulk-synchronous wall clock.  Sharded ownership (fewer workers than
ranks, including uneven splits) and pure SPMD (one rank per worker) are
both exercised.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from repro.comm.tracker import Category
from repro.dist import Distribution, make_algorithm, make_runtime_for
from repro.graph import make_synthetic
from repro.parallel import (
    ParallelRuntime,
    WorkerError,
    ledger_digest,
    owner_map,
)

EPOCHS = 3
HIDDEN = 8


@pytest.fixture(scope="module")
def ds():
    return make_synthetic(n=60, avg_degree=4, f=8, n_classes=3, seed=11)


def run_virtual(ds, name, p, kw):
    algo = make_algorithm(name, p, ds, hidden=HIDDEN, seed=0, **kw)
    hist = algo.fit(ds.features, ds.labels, epochs=EPOCHS)
    lp = algo.predict()
    return algo, hist, lp


def run_process(ds, name, p, workers, kw):
    algo = make_algorithm(name, p, ds, hidden=HIDDEN, seed=0,
                          backend="process", workers=workers, **kw)
    try:
        hist = algo.fit(ds.features, ds.labels, epochs=EPOCHS)
        lp = algo.predict()
        tracker = algo.rt.tracker.snapshot()
    finally:
        algo.rt.close()
    return hist, lp, tracker


# Acceptance matrix: all four algorithms at P in {2, 4} (2D's P=2 via the
# rectangular grid; 3D needs a cubic mesh, covered at P=8), with sharded
# (W < P, even and uneven) and pure-SPMD (W == P) ownership.
MATRIX = [
    ("1d", 2, 2, {}),
    ("1d", 4, 2, {}),
    ("1d", 4, 3, {}),                       # uneven shards (2, 1, 1)
    ("1d", 4, 4, {"variant": "outer"}),
    ("1d", 4, 2, {"variant": "outer_sparse"}),
    # W >= 3 on the coalesced ghost exchange: some workers sit out a
    # routed call that others take part in.
    ("1d", 4, 3, {"variant": "ghost", "partition": "multilevel"}),
    ("1d", 4, 4, {"variant": "ghost", "partition": "multilevel"}),
    ("1.5d", 2, 2, {"replication": 2}),
    ("1.5d", 4, 2, {"replication": 2}),
    ("1.5d", 4, 4, {"replication": 2}),
    ("2d", 2, 2, {"grid": (2, 1)}),
    ("2d", 4, 2, {}),
    ("2d", 4, 4, {}),
    ("3d", 8, 2, {}),
    ("3d", 8, 8, {}),
]


class TestCrossBackendEquality:
    @pytest.mark.parametrize("name,p,workers,kw", MATRIX)
    def test_losses_and_ledger_match_virtual(self, ds, name, p, workers, kw):
        v_algo, v_hist, v_lp = run_virtual(ds, name, p, kw)
        p_hist, p_lp, p_tracker = run_process(ds, name, p, workers, kw)

        # Losses: the acceptance bound is 1e-12; in practice the fixed
        # group-order reduction tree makes them bit-equal.
        for e_v, e_p in zip(v_hist.epochs, p_hist.epochs):
            assert abs(e_v.loss - e_p.loss) <= 1e-12
            assert abs(e_v.train_accuracy - e_p.train_accuracy) <= 1e-12
            # Ledger: byte-for-byte, including modeled wall seconds.
            assert e_v.bytes_by_category == e_p.bytes_by_category
            assert e_v.seconds_by_category == e_p.seconds_by_category
            assert e_v.max_rank_comm_bytes == e_p.max_rank_comm_bytes
        # Full per-rank ledger rows, exact.
        v_tracker = v_algo.rt.tracker
        for r in range(p):
            for c in Category.ALL:
                tv, tp = v_tracker.per_rank[r][c], p_tracker.per_rank[r][c]
                assert (tv.seconds, tv.bytes, tv.messages, tv.flops) == \
                       (tp.seconds, tp.bytes, tp.messages, tp.flops), (r, c)
        assert ledger_digest(v_tracker) == ledger_digest(p_tracker)
        # Inference output (assembled log-probabilities).
        np.testing.assert_allclose(v_lp, p_lp, rtol=0, atol=1e-12)


class TestProxySurface:
    def test_evaluate_and_log_probs(self, ds):
        algo = make_algorithm("1d", 2, ds, hidden=HIDDEN, seed=0,
                              backend="process", workers=2)
        try:
            algo.fit(ds.features, ds.labels, epochs=2)
            loss, acc = algo.evaluate(ds.labels)
            assert np.isfinite(loss) and 0.0 <= acc <= 1.0
            lp = algo.gather_log_probs()
            assert lp.shape == (ds.num_vertices, algo.widths[-1])
            np.testing.assert_allclose(np.exp(lp).sum(axis=1), 1.0,
                                       rtol=1e-9)
        finally:
            algo.rt.close()

    def test_verify_against_serial(self, ds):
        algo = make_algorithm("1d", 2, ds, hidden=HIDDEN, seed=3,
                              backend="process", workers=2)
        try:
            diff = algo.verify_against_serial(
                ds.features, ds.labels, epochs=2
            )
            assert diff < 1e-9
        finally:
            algo.rt.close()

    def test_worker_error_propagates(self, ds):
        algo = make_algorithm("1d", 2, ds, hidden=HIDDEN, seed=0,
                              backend="process", workers=2)
        try:
            with pytest.raises(WorkerError, match="features shape"):
                algo.setup(np.zeros((3, 3)), ds.labels)
        finally:
            algo.rt.close()

    def test_one_algorithm_per_pool(self, ds):
        """A second build on a live pool would hijack the first proxy's
        worker-side model -- it must refuse instead."""
        algo = make_algorithm("1d", 2, ds, hidden=HIDDEN, seed=0,
                              backend="process", workers=2)
        try:
            with pytest.raises(RuntimeError, match="already drives"):
                algo.rt.make_algorithm("1d", ds.adjacency, algo.widths,
                                       seed=7)
        finally:
            algo.rt.close()

    @pytest.mark.parametrize("transport", ["shm", "tcp"])
    @pytest.mark.parametrize("name,p", [("1d", 4), ("2d", 4), ("3d", 8)])
    def test_setup_adopts_the_checked_ledger(self, ds, name, p, transport):
        """``setup()`` is digest-checked like every ledgered command, and
        the driver's ledger after it is the virtual run's."""
        virtual = make_algorithm(name, p, ds, hidden=HIDDEN, seed=0)
        virtual.setup(ds.features, ds.labels)
        algo = make_algorithm(name, p, ds, hidden=HIDDEN, seed=0,
                              backend="process", workers=2,
                              transport=transport)
        try:
            before = algo.rt.backend_stats(workers=False)["digest_checks"]
            algo.setup(ds.features, ds.labels)
            after = algo.rt.backend_stats(workers=False)["digest_checks"]
            assert algo.rt.tracker.state_bytes() == \
                virtual.rt.tracker.state_bytes()
        finally:
            algo.rt.close()
        assert after == before + 1

    def test_sections_exact_on_a_process_proxy(self, ds):
        """The ledger across a process ``setup()``, two epochs and a
        re-install is the emitted schedule's, section by section."""
        from repro.dist import ALGORITHMS
        from repro.simulate import GraphModel, get_machine
        from test_simulate import assert_sections_exact

        profile = get_machine("summit")
        algo = make_algorithm("2d", 4, ds, hidden=HIDDEN, seed=0,
                              profile=profile, backend="process", workers=2)
        try:
            schedule = ALGORITHMS["2d"].emit_comm_schedule(
                GraphModel.from_dataset(ds), algo.widths, 4)
            assert_sections_exact(algo, ds.features, ds.labels, schedule,
                                  profile)
        finally:
            algo.rt.close()

    def test_runtime_describe_and_close_idempotent(self, ds):
        rt = make_runtime_for("2d", 4, backend="process", workers=2)
        assert isinstance(rt, ParallelRuntime)
        assert "2 workers" in rt.describe()
        rt.close()
        rt.close()  # idempotent, never started is fine too


class TestRegistryValidation:
    def test_unknown_backend_rejected(self, ds):
        with pytest.raises(ValueError, match="unknown backend"):
            make_runtime_for("1d", 2, backend="cuda")

    def test_workers_require_process_backend(self):
        with pytest.raises(ValueError, match="workers"):
            make_runtime_for("1d", 2, workers=2)

    def test_owner_map_blocks(self):
        assert owner_map(4, 2) == (0, 0, 1, 1)
        assert owner_map(4, 3) == (0, 0, 1, 2)
        assert owner_map(3, 3) == (0, 1, 2)
        with pytest.raises(ValueError):
            owner_map(2, 3)
        with pytest.raises(ValueError):
            owner_map(2, 0)

    def test_ledger_digest_sensitivity(self):
        from repro.comm.tracker import CommTracker

        a, b = CommTracker(2), CommTracker(2)
        assert ledger_digest(a) == ledger_digest(b)
        a.charge(0, Category.DCOMM, 1.0, nbytes=8)
        assert ledger_digest(a) != ledger_digest(b)
        b.charge(0, Category.DCOMM, 1.0, nbytes=8)
        assert ledger_digest(a) == ledger_digest(b)
        assert ledger_digest(a, 1.5) != ledger_digest(a, 2.5)


class TestResidentDispatch:
    """ISSUE 6's tentpole contract: the hot path is one dispatch per
    ``fit`` -- independent of epochs and collective count -- and the
    remaining driver paths can fuse into single wakeups."""

    def test_fit_is_one_dispatch_regardless_of_epochs(self, ds):
        algo = make_algorithm("1d", 4, ds, hidden=HIDDEN, seed=0,
                              backend="process", workers=2)
        try:
            c0 = algo.rt.backend_stats(workers=False)
            algo.fit(ds.features, ds.labels, epochs=2)
            c1 = algo.rt.backend_stats(workers=False)
            algo.fit(ds.features, ds.labels, epochs=6)
            c2 = algo.rt.backend_stats(workers=False)
        finally:
            algo.rt.close()
        # O(1) in epochs: tripling the epochs adds exactly the same
        # single dispatch (and single digest check).
        assert c1["dispatches"] - c0["dispatches"] == 1
        assert c2["dispatches"] - c1["dispatches"] == 1
        assert c1["fit_dispatches"] - c0["fit_dispatches"] == 1
        assert c2["fit_dispatches"] - c1["fit_dispatches"] == 1
        assert c1["digest_checks"] - c0["digest_checks"] == 1
        assert c2["digest_checks"] - c1["digest_checks"] == 1

    def test_resident_fit_matches_per_epoch_commands(self, ds):
        """The resident loop and the legacy per-epoch command path are
        the same program: identical losses and ledger digests."""
        algo = make_algorithm("1d", 4, ds, hidden=HIDDEN, seed=0,
                              backend="process", workers=2)
        try:
            hist = algo.fit(ds.features, ds.labels, epochs=EPOCHS)
            resident_digest = ledger_digest(algo.rt.tracker)
        finally:
            algo.rt.close()
        algo2 = make_algorithm("1d", 4, ds, hidden=HIDDEN, seed=0,
                               backend="process", workers=2)
        try:
            algo2.setup(ds.features, ds.labels)
            losses = [algo2.train_epoch(e).loss for e in range(EPOCHS)]
            stepped_digest = ledger_digest(algo2.rt.tracker)
        finally:
            algo2.rt.close()
        assert [e.loss for e in hist.epochs] == losses
        assert resident_digest == stepped_digest

    def test_fused_batch_is_one_dispatch(self, ds):
        algo = make_algorithm("1d", 2, ds, hidden=HIDDEN, seed=0,
                              backend="process", workers=2)
        try:
            algo.fit(ds.features, ds.labels, epochs=1)
            c0 = algo.rt.backend_stats(workers=False)
            lp, weights = algo.rt._command_batch(
                [("predict", None), ("weights", None)]
            )
            c1 = algo.rt.backend_stats(workers=False)
            np.testing.assert_allclose(lp, algo.predict(), rtol=0,
                                       atol=0)
            assert len(weights) == len(algo.widths) - 1
        finally:
            algo.rt.close()
        assert c1["dispatches"] - c0["dispatches"] == 1
        assert c1["commands"] - c0["commands"] == 2
        assert c1["fused_batches"] - c0["fused_batches"] == 1
        assert c1["digest_checks"] - c0["digest_checks"] == 1

    def test_stats_surface(self, ds):
        algo = make_algorithm("1d", 4, ds, hidden=HIDDEN, seed=0,
                              backend="process", workers=2)
        try:
            algo.fit(ds.features, ds.labels, epochs=2)
            stats = algo.rt.backend_stats()
        finally:
            algo.rt.close()
        assert stats["transport"] == "shm"
        assert stats["workers"] == 2
        assert stats["channel_bytes"] > 0
        assert stats["exchanges"] > 0
        # per worker: one per epoch and the fit's final one
        assert stats["digests_computed"] == 6
        assert len(stats["per_worker"]) == 2
        # Workers run the same SPMD program: same exchange count.
        assert len({d["exchanges"] for d in stats["per_worker"]}) == 1


GHOST = {"variant": "ghost", "partition": "multilevel"}


class TestExchangeCounts:
    """One rendezvous per routed collective: the per-epoch exchange count
    is a property of the program, not of the host, so it is pinned."""

    @pytest.mark.parametrize("transport", ["shm", "tcp"])
    @pytest.mark.parametrize("name,kw,per_worker_epoch", [
        # L - 1 = 2 sweeps each way (A^T H^0 is aggregated at set-up, the
        # layer-1 A G is never formed): 4 ghost fetches (one exchange
        # each) + the gradient bucket's one reduction (8 while the loss
        # and the three weight gradients reduced apart)
        pytest.param("1d", GHOST, 5, id="1d-ghost"),
        # 4 sweeps x 2 routed SUMMA stage broadcasts + 1 reduction (12
        # before the bucket)
        pytest.param("2d", {}, 9, id="2d"),
    ])
    def test_exchanges_per_epoch(self, ds, name, kw, per_worker_epoch,
                                 transport):
        algo = make_algorithm(name, 4, ds, hidden=HIDDEN, seed=0,
                              backend="process", workers=2,
                              transport=transport, **kw)
        try:
            algo.fit(ds.features, ds.labels, epochs=1)     # setup included
            s0 = algo.rt.backend_stats()
            algo.fit(ds.features, ds.labels, epochs=3)
            s1 = algo.rt.backend_stats()
        finally:
            algo.rt.close()
        per_worker = [b["exchanges"] - a["exchanges"] for a, b in
                      zip(s0["per_worker"], s1["per_worker"])]
        assert per_worker == [3 * per_worker_epoch] * 2
        assert s1["exchanges"] - s0["exchanges"] == 6 * per_worker_epoch


class _QueueTap:
    """Stands in for a command queue: records each posted command's
    pickled size, then forwards it."""

    def __init__(self, q, sizes):
        self._q, self._sizes = q, sizes

    def put(self, msg):
        self._sizes.append((msg[0], len(pickle.dumps(msg))))
        self._q.put(msg)

    def __getattr__(self, name):
        return getattr(self._q, name)


def _shm_segments():
    return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}


class TestBulkDispatch:
    """Bulk command fields ride the driver's dispatch arena, not the
    command pipes."""

    @pytest.fixture(scope="class")
    def big(self):
        # features: 600 x 64 doubles = 300 KiB >> INLINE_MAX
        return make_synthetic(n=600, avg_degree=6, f=64, n_classes=4,
                              seed=5)

    @pytest.mark.parametrize("transport", ["shm", "tcp"])
    def test_fit_dispatch_is_small_and_leaves_no_segment(self, big,
                                                         transport):
        before = _shm_segments()
        v_hist = make_algorithm("1d", 4, big, hidden=HIDDEN, seed=0).fit(
            big.features, big.labels, epochs=2)
        algo = make_algorithm("1d", 4, big, hidden=HIDDEN, seed=0,
                              backend="process", workers=2,
                              transport=transport)
        sizes = []
        try:
            backend = algo.rt._backend
            backend.cmd_queues = [_QueueTap(q, sizes)
                                  for q in backend.cmd_queues]
            hist = algo.fit(big.features, big.labels, epochs=2)
            lp = algo.predict(big.features)
        finally:
            algo.rt.close()
        assert hist.losses == v_hist.losses
        assert lp.shape == (big.num_vertices, big.num_classes)
        assert big.features.nbytes > 256 * 1024
        assert [op for op, _ in sizes] == ["fit"] * 2 + ["predict"] * 2 \
            + ["close"] * 2
        assert max(n for _, n in sizes) < 64 * 1024
        assert _shm_segments() <= before

    def test_payload_beyond_the_arena_spills_and_is_reclaimed(self, big):
        """A dispatch arena smaller than the feature matrix: the payload
        spills to an ephemeral segment, unlinked when the replies are in."""
        before = _shm_segments()
        rt = ParallelRuntime.make_1d(4, workers=2, arena_bytes=64 * 1024)
        try:
            algo = rt.make_algorithm("1d", big.adjacency,
                                     big.layer_widths(hidden=HIDDEN), seed=0)
            hist = algo.fit(big.features, big.labels, epochs=1)
            assert rt._backend.dispatch.spills > 0
            # two worker arenas + the dispatch arena; the spill is gone
            assert len(_shm_segments() - before) == 3
        finally:
            rt.close()
        assert np.isfinite(hist.losses[0])
        assert _shm_segments() <= before

    def test_recovery_redispatch_reencodes_and_leaves_no_segment(
            self, big, tmp_path):
        before = _shm_segments()
        ref = make_algorithm("1d", 4, big, hidden=HIDDEN, seed=0).fit(
            big.features, big.labels, epochs=3)
        algo = make_algorithm("1d", 4, big, hidden=HIDDEN, seed=0,
                              backend="process", workers=2,
                              faults="kill:worker=1,epoch=1,attempt=1",
                              max_restarts=2)
        try:
            hist = algo.fit(big.features, big.labels, epochs=3,
                            checkpoint_path=str(tmp_path / "ck.npz"),
                            checkpoint_every=1)
            stats = algo.rt.backend_stats(workers=False)
        finally:
            algo.rt.close()
        # The re-dispatch went to a fresh pool with a fresh arena: stale
        # descriptors would have failed the resumed fit.
        assert stats["restarts"] == 1
        assert hist.losses == ref.losses
        assert _shm_segments() <= before


class TestCleanShutdown:
    def test_plain_script_exits_with_empty_stderr(self, tmp_path):
        """build -> fit -> close() in a plain script: no resource-tracker
        warning (leaked semaphore / already-unlinked name) on exit, and
        no command-queue feeder thread outlives close()."""
        script = tmp_path / "driver.py"
        script.write_text(textwrap.dedent("""
            import threading
            from repro.dist import make_algorithm
            from repro.graph import make_synthetic

            if __name__ == "__main__":
                ds = make_synthetic(n=4000, avg_degree=4, f=64,
                                    n_classes=3, seed=11)
                algo = make_algorithm("1d", 4, ds, hidden=8, seed=0,
                                      backend="process", workers=2)
                algo.fit(ds.features, ds.labels, epochs=2)
                algo.rt.close()
                feeders = [t.name for t in threading.enumerate()
                           if t.name == "QueueFeederThread"]
                assert not feeders, feeders
        """))
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        for _ in range(2):
            done = subprocess.run([sys.executable, str(script)], env=env,
                                  capture_output=True, text=True,
                                  timeout=120)
            assert done.returncode == 0, done.stderr
            assert done.stderr == ""


def _pool_leftovers(segments_before):
    """What a closed pool must not leave in this process: live worker
    children, ``psm_*`` segments, queue feeder threads."""
    def feeders():
        return [t for t in threading.enumerate()
                if t.name == "QueueFeederThread"]

    # A pool torn down on failure only *tells* its feeders to exit.
    for t in feeders():
        t.join(timeout=5)
    return (
        [p.name for p in multiprocessing.active_children()
         if p.name.startswith("repro-rank-worker")],
        _shm_segments() - segments_before,
        [t.name for t in feeders()],
    )


class TestStartEarly:
    """``make_algorithm(backend="process")`` starts the pool before it
    partitions, so the workers boot while the driver's core is busy."""

    @pytest.fixture
    def runtimes(self, monkeypatch):
        """Every runtime ``make_algorithm`` builds, in order."""
        from repro.dist import registry

        built = []
        real = registry.make_runtime_for

        def recording(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(registry, "make_runtime_for", recording)
        return built

    @pytest.fixture
    def partitioner_calls(self, monkeypatch, runtimes):
        """Spy on the partitioner: at each call, is the newest runtime's
        pool started, and which of its workers are alive?"""
        from repro.partition import multilevel

        calls = []
        real = multilevel.multilevel_partition

        def spy(adj, nparts, seed=0):
            rt = runtimes[-1]
            if isinstance(rt, ParallelRuntime):
                started = rt.backend_stats(workers=False) is not None
                if started:
                    # start() only asks for the forks; whether they
                    # happened is readable once the launcher is done.
                    rt._backend._join_launch()
                alive = [p.is_alive() for p in rt._backend.procs] \
                    if started else []
            else:
                started = bool(multiprocessing.active_children())
                alive = []
            calls.append((started, alive))
            return real(adj, nparts, seed=seed)

        monkeypatch.setattr(multilevel, "multilevel_partition", spy)
        return calls

    def test_pool_is_up_when_the_partitioner_runs(self, ds,
                                                  partitioner_calls):
        kw = {"partition": "multilevel", "variant": "ghost"}
        _, v_hist, _ = run_virtual(ds, "1d", 4, kw)
        assert partitioner_calls == [(False, [])]   # virtual starts nothing
        del partitioner_calls[:]
        algo = make_algorithm("1d", 4, ds, hidden=HIDDEN, seed=0,
                              backend="process", workers=2, **kw)
        try:
            built = algo.rt.backend_stats(workers=False)
            hist = algo.fit(ds.features, ds.labels, epochs=EPOCHS)
            fitted = algo.rt.backend_stats(workers=False)
        finally:
            algo.rt.close()
        assert partitioner_calls == [(True, [True, True])]
        # Starting early changes when the pool spawns, not what is
        # dispatched: one make_algo, then one fit with one digest check.
        assert built["dispatches"] == 1 and built["fit_dispatches"] == 0
        assert fitted["dispatches"] == 2 and fitted["fit_dispatches"] == 1
        assert fitted["digest_checks"] == 1
        assert hist.losses == v_hist.losses

    def test_bare_construction_stays_lazy(self):
        rt = make_runtime_for("1d", 4, backend="process", workers=2)
        assert rt.backend_stats() is None
        rt.start()
        try:
            backend = rt.start()                      # idempotent
            assert rt.backend_stats(workers=False)["dispatches"] == 0
            assert len(backend.procs) == 2
        finally:
            rt.close()

    @pytest.mark.parametrize("name,kw,exc,match", [
        ("1d", {"partition": "metis"}, ValueError, "unknown partition"),
        ("1d", {"partition": Distribution.block(60, 3)}, ValueError,
         "3 parts for P=4"),
        ("2d", {"grid": (3, 2)}, ValueError, "does not tile"),
        ("1d", {"workers": 5}, ValueError, "workers"),
    ])
    def test_cheap_arguments_fail_before_any_spawn(self, ds, monkeypatch,
                                                   name, kw, exc, match):
        started = []
        monkeypatch.setattr(ParallelRuntime, "start",
                            lambda self: started.append(self))
        with pytest.raises(exc, match=match):
            make_algorithm(name, 4, ds, hidden=HIDDEN, seed=0,
                           **{"backend": "process", "workers": 2, **kw})
        assert not started

    @pytest.mark.parametrize("transport", ["shm", "tcp"])
    def test_driver_failure_after_start_closes_the_pool(
            self, ds, monkeypatch, runtimes, transport):
        from repro.partition import multilevel

        before = _shm_segments()

        def boom(adj, nparts, seed=0):
            assert runtimes[-1].backend_stats(workers=False) is not None
            raise RuntimeError("partitioner failed")

        monkeypatch.setattr(multilevel, "multilevel_partition", boom)
        with pytest.raises(RuntimeError, match="partitioner failed"):
            make_algorithm("1d", 4, ds, hidden=HIDDEN, seed=0,
                           backend="process", workers=2,
                           transport=transport, partition="multilevel")
        assert runtimes[-1].backend_stats() is None
        assert _pool_leftovers(before) == ([], set(), [])

    def test_failure_in_make_algo_closes_the_pool(self, ds, runtimes):
        """``variant="ghost"`` on a directed operand is only known once
        the driver has checked symmetry, cutting the workers' shards --
        after the pool has started."""
        from repro.graph.generators import erdos_renyi
        from repro.graph.normalize import add_self_loops, row_normalize

        directed = dataclasses.replace(ds, adjacency=row_normalize(
            add_self_loops(erdos_renyi(60, 4.0, seed=1, directed=True))))
        before = _shm_segments()
        with pytest.raises(ValueError, match="symmetric operand"):
            make_algorithm("1d", 4, directed, hidden=HIDDEN, seed=0,
                           backend="process", workers=2, variant="ghost",
                           partition="block")
        assert runtimes[-1].backend_stats() is None
        assert _pool_leftovers(before) == ([], set(), [])


class TestDigestModes:
    def test_mismatch_names_first_diverging_item(self, ds):
        """Fault injection: skew one worker's ledger, then fit -- the
        per-epoch digests must trip and name the first diverging
        epoch."""
        algo = make_algorithm("1d", 4, ds, hidden=HIDDEN, seed=0,
                              backend="process", workers=2)
        try:
            algo.rt._command("debug_skew", 0)  # worker 0 only
            with pytest.raises(RuntimeError,
                               match=r"diverged.*stream item 0"):
                algo.fit(ds.features, ds.labels, epochs=2)
        finally:
            algo.rt.close()

    def test_a_skew_on_the_last_worker_fails_the_fit(self, ds):
        algo = make_algorithm("1d", 4, ds, hidden=HIDDEN, seed=0,
                              backend="process", workers=2)
        try:
            algo.rt._command("debug_skew", 1)  # worker 1 only
            with pytest.raises(RuntimeError, match="diverged"):
                algo.fit(ds.features, ds.labels, epochs=2)
        finally:
            algo.rt.close()

    def test_computes_per_epoch_digests(self, ds):
        algo = make_algorithm("1d", 2, ds, hidden=HIDDEN, seed=0,
                              backend="process", workers=2)
        try:
            algo.fit(ds.features, ds.labels, epochs=3)
            stats = algo.rt.backend_stats()
        finally:
            algo.rt.close()
        # 3 per-epoch digests + 1 final, per worker.
        assert stats["digests_computed"] == 8

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_mismatch_names_the_diverging_sub_command_of_a_batch(self, ds,
                                                                  at):
        """A batch carries one digest per sub-command: a skew planted
        between two of them is named at the first one it reaches."""
        stream = [("setup", (ds.features, ds.labels, None)),
                  ("train_epoch", 0), ("train_epoch", 1)]
        stream.insert(at, ("debug_skew", 1))
        algo = make_algorithm("1d", 4, ds, hidden=HIDDEN, seed=0,
                              backend="process", workers=2)
        try:
            with pytest.raises(RuntimeError, match=(
                    rf"diverged.*first divergence at stream item {at}\)")):
                algo.rt._command_batch(stream)
        finally:
            algo.rt.close()


class TestLiveness:
    def test_dead_worker_names_worker_and_ranks(self, ds):
        algo = make_algorithm("1d", 4, ds, hidden=HIDDEN, seed=0,
                              backend="process", workers=2)
        try:
            algo.setup(ds.features, ds.labels)
            algo.rt._backend.procs[1].kill()
            with pytest.raises(WorkerError,
                               match=r"died.*worker 1 \(ranks \[2, 3\]\)"):
                algo.train_epoch(0)
        finally:
            algo.rt.close()

    def test_no_progress_timeout_names_stuck_worker(self, ds):
        """A worker that stops touching the heartbeat fails the command
        after the no-progress window, naming the stuck worker."""
        rt = ParallelRuntime.make_1d(4, workers=2, timeout=1.5)
        algo = rt.make_algorithm("1d", ds.adjacency,
                                 ds.layer_widths(hidden=HIDDEN), seed=0)
        try:
            with pytest.raises(WorkerError,
                               match=r"no progress.*worker 1 "
                                     r"\(ranks \[2, 3\]\)"):
                rt._command("debug_hang", 1)
        finally:
            rt.close()

    def test_slow_but_alive_worker_is_not_killed(self, ds):
        """Progress-based semantics: a fit whose wall clock exceeds the
        window survives as long as the heartbeat keeps moving (each
        epoch and each exchange touches it)."""
        rt = ParallelRuntime.make_1d(4, workers=2, timeout=1.5)
        algo = rt.make_algorithm("1d", ds.adjacency,
                                 ds.layer_widths(hidden=HIDDEN), seed=0)
        try:
            # ~60 epochs of real work: comfortably longer than 1.5s on
            # the CI host is not guaranteed, but the point is the
            # command completes regardless of its wall clock.
            hist = algo.fit(ds.features, ds.labels, epochs=60)
            assert len(hist.epochs) == 60
        finally:
            rt.close()
