"""Runtime sanitizers: unit semantics and the bit-equality guarantee.

Unit layer: a mutated copy-on-write receipt raises naming the
collective, a charged/moved byte mismatch raises naming the exchange,
and a replayed or reordered ``(group, seq)`` tag raises naming the
worker pair -- each via :class:`repro.analysis.sanitize.SanitizerError`.

Integration layer: a sanitized fit is **bit-equal** (per-epoch losses
and the ledger digest) to an unsanitized one -- on the virtual backend
and on the process backend over both transports (the driver reads
``REPRO_SANITIZE=1`` and tells every worker it launches), with the check
counters -- each worker's own -- proving the sanitizers actually ran.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.analysis.sanitize import Sanitizer, SanitizerError
from repro.dist import make_algorithm
from repro.graph import make_synthetic
from repro.parallel import ledger_digest

EPOCHS = 3
HIDDEN = 8


@pytest.fixture(autouse=True)
def _sanitizer_off_between_tests():
    yield
    sanitize.disable()


@pytest.fixture(scope="module")
def ds():
    return make_synthetic(n=60, avg_degree=4, f=8, n_classes=3, seed=11)


# --------------------------------------------------------------------- #
# unit: copy-on-write receipts
# --------------------------------------------------------------------- #
class TestCowSanitizer:
    def test_mutated_receipt_names_the_collective(self):
        s = Sanitizer()
        arr = np.zeros((3, 2))
        s.register_cow("allreduce", arr)
        arr[0, 0] = 7.0  # a sender writing through the shared buffer
        with pytest.raises(SanitizerError) as exc:
            s.verify_cow("end of epoch 0")
        msg = str(exc.value)
        assert "allreduce" in msg
        assert "(3, 2)" in msg
        assert "end of epoch 0" in msg

    def test_clean_receipts_verify_and_drain(self):
        s = Sanitizer()
        s.register_cow("allgather", np.ones(4))
        s.register_cow("reduce_scatter", np.ones(2))
        s.verify_cow()
        assert s.stats["cow_verified"] == 2
        # receipts are epoch-scoped: the registry drains after verify,
        # so cross-epoch workspace reuse cannot false-positive
        s.verify_cow()
        assert s.stats["cow_verified"] == 2

    def test_registry_drains_even_when_verify_raises(self):
        s = Sanitizer()
        arr = np.zeros(3)
        s.register_cow("allreduce", arr)
        arr[0] = 1.0
        with pytest.raises(SanitizerError):
            s.verify_cow()
        s.verify_cow()  # nothing left to re-raise on

    def test_stage_scoped_receipts_are_not_registered(self):
        # SUMMA broadcasts and ghost rows alias workspaces their
        # senders legally overwrite per stage; only the durable
        # reduction family registers for epoch-end re-hashing.
        s = Sanitizer()
        arr = np.zeros(4)
        s.register_cow("broadcast", arr)
        s.register_cow("gather_rows", arr)
        assert s.stats["cow_registered"] == 0
        arr[0] = 5.0
        s.verify_cow()  # nothing to check

    def test_window_bounds_memory(self):
        s = Sanitizer()
        for i in range(sanitize.COW_WINDOW + 50):
            s.register_cow("allreduce", np.full(2, float(i)))
        assert len(s._cow) == sanitize.COW_WINDOW
        assert s.stats["cow_registered"] == sanitize.COW_WINDOW + 50


# --------------------------------------------------------------------- #
# unit: ledger vs data plane
# --------------------------------------------------------------------- #
class TestLedgerSanitizer:
    def test_match_passes_and_counts(self):
        s = Sanitizer()
        s.check_exchange("gather_rows:f=8", 1024, 1024)
        assert s.stats["exchanges_checked"] == 1

    def test_mismatch_names_the_exchange(self):
        s = Sanitizer()
        with pytest.raises(SanitizerError) as exc:
            s.check_exchange("gather_rows:('gch', 2)", 4096, 4032)
        msg = str(exc.value)
        assert "gather_rows:('gch', 2)" in msg
        assert "4096" in msg and "4032" in msg


# --------------------------------------------------------------------- #
# unit: exchange ordering
# --------------------------------------------------------------------- #
class TestOrderSanitizer:
    def test_increasing_sequences_pass(self):
        s = Sanitizer()
        for seq in (1, 2, 5, 9):
            s.observe_tag(0, src=1, tag=("g", seq))
        assert s.stats["tags_observed"] == 4

    def test_replayed_tag_names_the_worker_pair(self):
        s = Sanitizer()
        s.observe_tag(3, src=1, tag=("g", 4))
        with pytest.raises(SanitizerError) as exc:
            s.observe_tag(3, src=1, tag=("g", 4))
        msg = str(exc.value)
        assert "worker 3" in msg and "peer 1" in msg

    def test_reordered_tag_raises(self):
        s = Sanitizer()
        s.observe_tag(0, src=2, tag=("g", 7))
        with pytest.raises(SanitizerError):
            s.observe_tag(0, src=2, tag=("g", 6))

    def test_streams_are_per_peer_group_and_kind(self):
        s = Sanitizer()
        # the same (group, seq) arrives once as a data post and once as
        # an ack -- two kinds, two streams, no violation
        s.observe_tag(0, src=1, tag=("g", 3), kind="d")
        s.observe_tag(0, src=1, tag=("g", 3), kind="a")
        # distinct peers and groups are independent too
        s.observe_tag(0, src=2, tag=("g", 3), kind="d")
        s.observe_tag(0, src=1, tag=("h", 3), kind="d")

    def test_untagged_messages_are_ignored(self):
        s = Sanitizer()
        s.observe_tag(0, src=1, tag=None)
        s.observe_tag(0, src=1, tag="barrier")
        assert s.stats["tags_observed"] == 0


# --------------------------------------------------------------------- #
# unit: enablement
# --------------------------------------------------------------------- #
class TestEnablement:
    def test_enable_disable_roundtrip(self):
        assert not sanitize.is_enabled()
        s = sanitize.enable()
        assert sanitize.is_enabled() and sanitize.ACTIVE is s
        assert sanitize.enable() is s  # idempotent
        sanitize.disable()
        assert sanitize.ACTIVE is None

    def test_env_flag(self, monkeypatch):
        monkeypatch.delenv(sanitize.ENV_FLAG, raising=False)
        assert sanitize.maybe_enable_from_env() is None
        monkeypatch.setenv(sanitize.ENV_FLAG, "0")
        assert sanitize.maybe_enable_from_env() is None
        monkeypatch.setenv(sanitize.ENV_FLAG, "1")
        assert isinstance(sanitize.maybe_enable_from_env(), Sanitizer)


# --------------------------------------------------------------------- #
# integration: sanitized runs are bit-equal
# --------------------------------------------------------------------- #
def run_virtual(ds, name, kw, p=4):
    algo = make_algorithm(name, p, ds, hidden=HIDDEN, seed=0, **kw)
    hist = algo.fit(ds.features, ds.labels, epochs=EPOCHS)
    losses = [e.loss for e in hist.epochs]
    return losses, ledger_digest(algo.rt.tracker, *losses)


def run_process(ds, transport, kw, workers=2, p=4, name="1d"):
    """``(losses, digest)`` and each worker's sanitizer counters (``None``
    for a worker that ran unsanitized)."""
    algo = make_algorithm(name, p, ds, hidden=HIDDEN, seed=0,
                          backend="process", workers=workers,
                          transport=transport, **kw)
    try:
        hist = algo.fit(ds.features, ds.labels, epochs=EPOCHS)
        losses = [e.loss for e in hist.epochs]
        digest = ledger_digest(algo.rt.tracker, *losses)
        checks = [w["sanitizer"]
                  for w in algo.rt.backend_stats()["per_worker"]]
    finally:
        algo.rt.close()
    return (losses, digest), checks


class TestBitEquality:
    @pytest.mark.parametrize("name,kw", [
        ("1d", {"variant": "ghost", "partition": "multilevel"}),
        ("2d", {}),
    ])
    def test_virtual_backend(self, ds, name, kw):
        plain = run_virtual(ds, name, kw)
        san = sanitize.enable()
        try:
            sanitized = run_virtual(ds, name, kw)
            stats = dict(san.stats)
        finally:
            sanitize.disable()
        assert sanitized == plain
        # the checks actually ran: COW receipts re-hashed every epoch,
        # and (for ghost) the exact-accounting exchange audited
        assert stats["cow_verified"] > 0
        if name == "1d":
            assert stats["exchanges_checked"] > 0

    @pytest.mark.parametrize("transport", ["shm", "tcp"])
    def test_process_backend_both_transports(self, ds, transport,
                                             monkeypatch):
        kw = {"variant": "ghost", "partition": "multilevel"}
        plain, off = run_process(ds, transport, kw)
        # the driver reads the variable and arms every worker it launches
        monkeypatch.setenv(sanitize.ENV_FLAG, "1")
        sanitized, checks = run_process(ds, transport, kw)
        assert sanitized == plain
        assert plain[0] == run_virtual(ds, "1d", kw)[0]
        assert off == [None, None]
        for worker in checks:
            assert worker["cow_verified"] > 0
            assert worker["exchanges_checked"] > 0

    @pytest.mark.parametrize("name,p", [("2d", 4), ("3d", 8)])
    def test_staged_broadcasts_over_tcp(self, ds, name, p, monkeypatch):
        """The SUMMA families keep a stage's frames in flight while they
        multiply: frames arrive before their collect and receipts are
        handed out late.  The order check and the receipt hashing see
        them all the same, and change nothing."""
        plain, off = run_process(ds, "tcp", {}, p=p, name=name)
        monkeypatch.setenv(sanitize.ENV_FLAG, "1")
        sanitized, checks = run_process(ds, "tcp", {}, p=p, name=name)
        assert sanitized == plain
        assert plain == run_virtual(ds, name, {}, p=p)
        assert off == [None, None]
        for worker in checks:
            assert worker["cow_verified"] > 0


class TestTrainSummary:
    """``repro train`` on the process backend prints the workers' check
    counts, summed -- the driver's own are zero by construction -- for
    the flag and for the variable alike."""

    ARGS = ["train", "--algorithm", "1d", "--gpus", "4", "--vertices", "64",
            "--features", "8", "--hidden", "8", "--epochs", "3",
            "--backend", "process", "--workers", "2"]

    @pytest.mark.parametrize("how", ["flag", "variable"])
    def test_worker_summed_counts(self, how, capsys, monkeypatch):
        from repro.cli import main

        args = list(self.ARGS)
        if how == "flag":
            args.append("--sanitize")
        else:
            monkeypatch.setenv(sanitize.ENV_FLAG, "1")
        assert main(args) == 0
        line = re.search(r"sanitizers: (\d+) COW receipts verified.*",
                         capsys.readouterr().out)
        assert line is not None
        assert int(line.group(1)) > 0
        assert "(workers check their own shares)" in line.group(0)
