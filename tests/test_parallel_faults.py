"""Elastic fault tolerance: the deterministic chaos matrix.

ISSUE 8's acceptance criteria: a declarative fault plan (kill / hang /
delay / drop / corrupt) injected into the resident worker pool must
trigger heartbeat detection, pool respawn, checkpoint restore, and a
resumed trajectory whose per-epoch losses are **bit-equal** and whose
ledger digest is **byte-identical** to the fault-free run -- on both the
shm and tcp transports, for the 1D ghost variant and the 2D family,
while ``fit`` stays one dispatch (recovery dispatches are counted
separately).  Also covered: the fault-plan grammar, the restart-budget
error path, optimizer/checkpoint round-trips through the virtual
backend, and the failure taxonomy.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.dist import make_algorithm
from repro.graph import make_synthetic
from repro.parallel import (
    RECOVERABLE_ERRORS,
    FaultPlan,
    FaultSpec,
    TransportError,
    WorkerDead,
    WorkerError,
    WorkerStalled,
    ledger_digest,
)
from repro.parallel.faults import parse_plan

EPOCHS = 3
HIDDEN = 8
P = 4
WORKERS = 2

# (label, algorithm, extra make_algorithm kwargs) -- the 1D ghost
# variant exercises the partition-aware exchange, 2D the SUMMA path.
CONFIGS = [
    ("1d-ghost", "1d", {"variant": "ghost", "partition": "multilevel"}),
    ("2d", "2d", {}),
]
TRANSPORTS = ["shm", "tcp"]


@pytest.fixture(scope="module")
def ds():
    return make_synthetic(n=60, avg_degree=4, f=8, n_classes=3, seed=11)


@pytest.fixture(scope="module")
def references(ds):
    """Fault-free process-backend runs, one per (config, transport)."""
    out = {}
    for label, name, kw in CONFIGS:
        for transport in TRANSPORTS:
            algo = make_algorithm(name, P, ds, hidden=HIDDEN, seed=0,
                                  backend="process", workers=WORKERS,
                                  transport=transport, **kw)
            try:
                hist = algo.fit(ds.features, ds.labels, epochs=EPOCHS)
                out[label, transport] = (hist.losses,
                                         ledger_digest(algo.rt.tracker))
            finally:
                algo.rt.close()
    return out


def run_faulted(ds, name, kw, transport, faults, max_restarts, tmp_path,
                checkpoint_every=1, epochs=EPOCHS, timeout=None):
    if timeout is not None:
        os.environ["REPRO_PARALLEL_TIMEOUT"] = str(timeout)
    try:
        algo = make_algorithm(name, P, ds, hidden=HIDDEN, seed=0,
                              backend="process", workers=WORKERS,
                              transport=transport, faults=faults,
                              max_restarts=max_restarts, **kw)
        try:
            fit_kw = {}
            if checkpoint_every:
                fit_kw = dict(
                    checkpoint_path=str(tmp_path / "ck.npz"),
                    checkpoint_every=checkpoint_every,
                )
            hist = algo.fit(ds.features, ds.labels, epochs=epochs, **fit_kw)
            return (hist.losses, ledger_digest(algo.rt.tracker),
                    algo.rt.backend_stats(workers=False))
        finally:
            algo.rt.close()
    finally:
        if timeout is not None:
            os.environ.pop("REPRO_PARALLEL_TIMEOUT", None)


# --------------------------------------------------------------------- #
# the chaos matrix: kill at every epoch boundary, both configs, both
# transports -- recovery must reproduce the fault-free run bit for bit.
# --------------------------------------------------------------------- #
class TestKillRecovery:
    @pytest.mark.parametrize("label,name,kw", CONFIGS,
                             ids=[c[0] for c in CONFIGS])
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("epoch", range(EPOCHS))
    def test_kill_at_epoch(self, ds, references, tmp_path, label, name,
                           kw, transport, epoch):
        losses, digest, stats = run_faulted(
            ds, name, kw, transport,
            faults=f"kill:worker=1,epoch={epoch},attempt=1",
            max_restarts=5, tmp_path=tmp_path)
        ref_losses, ref_digest = references[label, transport]
        assert losses == ref_losses
        assert digest == ref_digest
        assert stats["restarts"] >= 1
        # fit is still ONE regular dispatch; recovery traffic is
        # accounted separately.
        assert stats["fit_dispatches"] == 1
        assert stats["recovery_dispatches"] >= 2  # make_algo + re-fit
        assert stats["detect_seconds"] > 0.0

    def test_kill_without_checkpoint_restarts_from_scratch(
            self, ds, references, tmp_path):
        # No checkpoint file: recovery re-runs the whole deterministic
        # trajectory from epoch 0 and still matches bit for bit.
        losses, digest, stats = run_faulted(
            ds, "1d", {"variant": "ghost", "partition": "multilevel"}, "shm",
            faults="kill:worker=1,epoch=1,attempt=1", max_restarts=3,
            tmp_path=tmp_path, checkpoint_every=0)
        ref_losses, ref_digest = references["1d-ghost", "shm"]
        assert losses == ref_losses
        assert digest == ref_digest
        assert stats["restarts"] == 1

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_recovery_does_not_repartition(self, ds, references, tmp_path,
                                           monkeypatch, transport):
        """The recovery loop re-ships the ``Distribution`` the driver
        already built: the respawned pool costs a boot, not a second
        partitioner run."""
        from repro.partition import multilevel

        calls = []
        real = multilevel.multilevel_partition

        def counting(adj, nparts, seed=0):
            calls.append(nparts)
            return real(adj, nparts, seed=seed)

        monkeypatch.setattr(multilevel, "multilevel_partition", counting)
        losses, digest, stats = run_faulted(
            ds, "1d", {"variant": "ghost", "partition": "multilevel"},
            transport, faults="kill:worker=1,epoch=1,attempt=1",
            max_restarts=3, tmp_path=tmp_path)
        assert calls == [P]
        assert stats["restarts"] == 1
        assert (losses, digest) == references["1d-ghost", transport]


class TestOtherFaults:
    # A 1D ghost worker's exchanges, in order: the set-up's ghost fetch
    # (0); then per epoch two forward fetches, the backward fetches of
    # layers 3 and 2, and the gradient bucket's one all-reduce (the loss
    # pair and every weight gradient) -- 5 an epoch, epoch 0 being
    # exchanges 1..5.  A 2D worker: the set-up sweep's two stage
    # broadcasts (0, 1) -- the set-up's gather of T^0 along the process
    # rows stays inside a worker on this mesh, and layer 1's funnels no
    # longer broadcast at all -- then 9 an epoch, two forward sweeps
    # (2..5), two backward sweeps (6..9) and the bucket's all-reduce
    # (10).  Before the bucket the loss and each weight gradient reduced
    # apart, 8 / 12 an epoch: the pins below moved with it (the hang
    # 6 -> 4, the corrupt frame 6 -> 10, the look-ahead 15 -> 12); the
    # delay and the drop still hit exchange 5, now the bucket's
    # all-reduce, once the first weight gradient's.  Layer 3 (8 -> 3)
    # shrinks, so its sweeps run at 3 columns and its forward GEMM comes
    # before its fetch / sweep -- which moves no exchange: the order of
    # kinds is pinned in ``test_parallel_tickets.py::TestLookAheadOfOne``.

    def test_hang_mid_exchange_trips_heartbeat(self, ds, references,
                                               tmp_path):
        # exchange 4: epoch 0's last ghost fetch (backward, layer 2)
        losses, digest, stats = run_faulted(
            ds, "1d", {"variant": "ghost", "partition": "multilevel"}, "shm",
            faults="hang:worker=1,exchange=4,attempt=1", max_restarts=3,
            tmp_path=tmp_path, timeout=1.5)
        ref_losses, ref_digest = references["1d-ghost", "shm"]
        assert losses == ref_losses
        assert digest == ref_digest
        assert stats["restarts"] == 1

    def test_tcp_frame_delay_is_transient(self, ds, references, tmp_path):
        # A delayed frame slows the exchange but needs no recovery.
        # exchange 5: epoch 0's gradient-bucket all-reduce
        losses, digest, stats = run_faulted(
            ds, "1d", {"variant": "ghost", "partition": "multilevel"}, "tcp",
            faults="delay:worker=1,exchange=5,seconds=0.4",
            max_restarts=3, tmp_path=tmp_path, checkpoint_every=0)
        ref_losses, ref_digest = references["1d-ghost", "tcp"]
        assert losses == ref_losses
        assert digest == ref_digest
        assert stats["restarts"] == 0

    def test_tcp_frame_drop_recovers(self, ds, references, tmp_path):
        losses, digest, stats = run_faulted(
            ds, "1d", {"variant": "ghost", "partition": "multilevel"}, "tcp",
            faults="drop:worker=1,exchange=5,attempt=1", max_restarts=3,
            tmp_path=tmp_path, timeout=1.5)
        ref_losses, ref_digest = references["1d-ghost", "tcp"]
        assert losses == ref_losses
        assert digest == ref_digest
        assert stats["restarts"] >= 1

    def test_tcp_frame_corrupt_recovers(self, ds, references, tmp_path):
        # exchange 10: epoch 0's gradient-bucket all-reduce
        losses, digest, stats = run_faulted(
            ds, "2d", {}, "tcp",
            faults="corrupt:worker=1,exchange=10,attempt=1",
            max_restarts=3, tmp_path=tmp_path, timeout=5)
        ref_losses, ref_digest = references["2d", "tcp"]
        assert losses == ref_losses
        assert digest == ref_digest
        assert stats["restarts"] >= 1


class TestFaultsWithATicketInFlight:
    """The SUMMA stage loops post stage k + 1 before they collect stage
    k, so an exchange-pinned fault can now land *between* the two: a 2D
    P=4/W=2 worker makes 2 exchanges at set-up and 9 per epoch, so
    exchange 12 is the look-ahead post of epoch 1's first sweep, issued
    while exchange 11's ticket is still open
    (``test_parallel_tickets.py`` pins that sequence).  The peer is left holding an uncollected ticket whose
    sender is gone; recovery must still be bit-equal."""

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("action,timeout", [("kill", None),
                                                ("hang", 1.5)])
    def test_recovers_bit_equal(self, ds, references, tmp_path, transport,
                                action, timeout):
        losses, digest, stats = run_faulted(
            ds, "2d", {}, transport,
            faults=f"{action}:worker=1,exchange=12,attempt=1",
            max_restarts=3, tmp_path=tmp_path, timeout=timeout)
        ref_losses, ref_digest = references["2d", transport]
        assert losses == ref_losses
        assert digest == ref_digest
        assert stats["restarts"] == 1
        assert stats["fit_dispatches"] == 1


class TestRestartBudget:
    def test_exhausted_budget_raises(self, ds, tmp_path):
        # The kill re-arms on every attempt (no attempt= key), so one
        # restart is never enough: the budget runs out and the original
        # failure surfaces.
        with pytest.raises(WorkerError, match="died"):
            run_faulted(ds, "1d", {}, "shm",
                        faults="kill:worker=1,epoch=1", max_restarts=1,
                        tmp_path=tmp_path, checkpoint_every=0)

    def test_zero_budget_disables_recovery(self, ds, tmp_path):
        with pytest.raises(WorkerDead):
            run_faulted(ds, "1d", {}, "shm",
                        faults="kill:worker=1,epoch=0,attempt=1",
                        max_restarts=0, tmp_path=tmp_path,
                        checkpoint_every=0)


# --------------------------------------------------------------------- #
# fault-plan grammar
# --------------------------------------------------------------------- #
class TestFaultGrammar:
    def test_parse_plan(self):
        specs = parse_plan("kill:worker=1,epoch=2; "
                           "delay:worker=0,exchange=3,seconds=0.5,attempt=2")
        assert specs == [
            FaultSpec(action="kill", worker=1, epoch=2),
            FaultSpec(action="delay", worker=0, exchange=3, seconds=0.5,
                      attempt=2),
        ]

    @pytest.mark.parametrize("text,match", [
        ("frobnicate:worker=0,epoch=1", "kill/hang/delay/drop/corrupt"),
        ("kill:epoch=1", "worker= is required"),
        ("kill:worker=0", "need epoch= or exchange="),
        ("drop:worker=0,epoch=1", "needs exchange="),
        ("corrupt:worker=0,epoch=1", "needs exchange="),
        ("kill", "expected one of"),
        ("kill:worker=zero,epoch=1", "bad fault spec"),
        (";;", "contains no specs"),
    ])
    def test_parse_rejects(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_plan(text)

    def test_for_worker_filters(self):
        text = "kill:worker=1,epoch=2; hang:worker=0,exchange=3"
        plan = FaultPlan.for_worker(1, text)
        assert [s.action for s in plan.specs] == ["kill"]
        assert FaultPlan.for_worker(2, text) is None
        assert FaultPlan.for_worker(0, None) is None

    def test_attempt_gating_and_fire_once(self):
        plan = FaultPlan.for_worker(0, "delay:worker=0,exchange=1,"
                                       "seconds=0.0,attempt=2")
        plan.attempt = 1
        plan.on_exchange(1)            # wrong attempt: must not fire
        assert not plan._fired
        plan.attempt = 2
        plan.on_exchange(1)
        assert len(plan._fired) == 1   # fired once...
        plan.on_exchange(1)
        assert len(plan._fired) == 1   # ...and never again

    def test_frame_fault_lookup(self):
        plan = FaultPlan.for_worker(0, "drop:worker=0,exchange=4")
        assert plan.frame_fault(3) is None
        spec = plan.frame_fault(4)
        assert spec is not None and spec.action == "drop"
        assert plan.frame_fault(4) is None  # consumed

    def test_env_fallback(self, monkeypatch):
        """The variable is the driver's to read: the backend picks it up
        and ships the text; a worker's plan comes from that text only."""
        from repro.comm.mesh import Mesh1D
        from repro.parallel import ProcessBackend

        monkeypatch.setenv("REPRO_PARALLEL_FAULTS",
                           "hang:worker=0,exchange=9")
        backend = ProcessBackend(Mesh1D(size=2), None, 2, faults=None)
        assert backend.faults == "hang:worker=0,exchange=9"
        plan = FaultPlan.for_worker(0, backend.faults)
        assert plan is not None and plan.specs[0].action == "hang"
        assert FaultPlan.for_worker(0, None) is None


# --------------------------------------------------------------------- #
# taxonomy + virtual-backend checkpoint/resume sanity
# --------------------------------------------------------------------- #
class TestTaxonomy:
    def test_hierarchy(self):
        for cls in (WorkerDead, WorkerStalled, TransportError):
            assert issubclass(cls, WorkerError)
            assert cls in RECOVERABLE_ERRORS
        assert not issubclass(WorkerError, WorkerDead)

    def test_driver_rejects_bad_plan_early(self, ds):
        with pytest.raises(ValueError, match="bad fault spec"):
            make_algorithm("1d", P, ds, hidden=HIDDEN,
                           backend="process", workers=WORKERS,
                           faults="kill:worker=bogus")

    def test_virtual_backend_rejects_faults(self, ds):
        with pytest.raises(ValueError, match="backend='process'"):
            make_algorithm("1d", P, ds, hidden=HIDDEN,
                           faults="kill:worker=0,epoch=0")


class TestVirtualCheckpointResume:
    def test_resume_matches_straight_run(self, ds, tmp_path):
        ck = str(tmp_path / "virt.npz")
        full = make_algorithm("1d", P, ds, hidden=HIDDEN, seed=0)
        ref = full.fit(ds.features, ds.labels, epochs=6)

        first = make_algorithm("1d", P, ds, hidden=HIDDEN, seed=0)
        first.fit(ds.features, ds.labels, epochs=3,
                  checkpoint_path=ck, checkpoint_every=3)
        resumed = make_algorithm("1d", P, ds, hidden=HIDDEN, seed=0)
        hist = resumed.fit(ds.features, ds.labels, epochs=6,
                           checkpoint_path=ck, resume=True)
        assert hist.losses == ref.losses
        assert len(hist.epochs) == 6
        assert (ledger_digest(resumed.rt.tracker)
                == ledger_digest(full.rt.tracker))
