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

import os
import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.comm.tracker import Category
from repro.dist import make_algorithm, make_runtime_for
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
        assert stats["digests_computed"] >= 2  # one per worker per fit
        assert len(stats["per_worker"]) == 2
        # Workers run the same SPMD program: same exchange count.
        assert len({d["exchanges"] for d in stats["per_worker"]}) == 1


GHOST = {"variant": "ghost", "partition": "multilevel"}


class TestExchangeCounts:
    """One rendezvous per routed collective: the per-epoch exchange count
    is a property of the program, not of the host, so it is pinned."""

    @pytest.mark.parametrize("transport", ["shm", "tcp"])
    @pytest.mark.parametrize("name,kw,per_worker_epoch", [
        # 6 ghost fetches (one exchange each) + 4 reductions
        ("1d", GHOST, 10),
        # 12 routed SUMMA stage broadcasts + 4 reductions
        ("2d", {}, 16),
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


class TestDigestModes:
    def test_paranoid_mismatch_names_first_diverging_item(self, ds,
                                                          monkeypatch):
        """Fault injection: skew one worker's ledger, then fit under
        REPRO_PARALLEL_PARANOID=1 -- the per-epoch digests must trip and
        name the first diverging epoch."""
        monkeypatch.setenv("REPRO_PARALLEL_PARANOID", "1")
        algo = make_algorithm("1d", 4, ds, hidden=HIDDEN, seed=0,
                              backend="process", workers=2)
        try:
            algo.rt._command("debug_skew", 0)  # worker 0 only
            with pytest.raises(RuntimeError,
                               match=r"diverged.*stream item 0"):
                algo.fit(ds.features, ds.labels, epochs=2)
        finally:
            algo.rt.close()

    def test_default_mode_still_catches_divergence(self, ds):
        """Without paranoid mode the check is batched (one digest per
        fit) but a diverged ledger still fails the dispatch."""
        algo = make_algorithm("1d", 4, ds, hidden=HIDDEN, seed=0,
                              backend="process", workers=2)
        try:
            algo.rt._command("debug_skew", 1)  # worker 1 only
            with pytest.raises(RuntimeError, match="diverged"):
                algo.fit(ds.features, ds.labels, epochs=2)
        finally:
            algo.rt.close()

    def test_paranoid_computes_per_epoch_digests(self, ds, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_PARANOID", "1")
        algo = make_algorithm("1d", 2, ds, hidden=HIDDEN, seed=0,
                              backend="process", workers=2)
        try:
            algo.fit(ds.features, ds.labels, epochs=3)
            stats = algo.rt.backend_stats()
        finally:
            algo.rt.close()
        # 3 per-epoch digests + 1 batched final, per worker.
        assert stats["digests_computed"] >= 8


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
