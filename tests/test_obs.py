"""repro.obs: span recording, trace merging, exports, and neutrality.

The tentpole contract under test (ISSUE 7): tracing is an *observer* --
a fit with span recording enabled produces bit-equal losses and a
byte-identical ledger digest versus an untraced fit, on the virtual
runtime and on the process backend (shm and tcp), while still costing
exactly one driver dispatch.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.dist import make_algorithm
from repro.graph import make_synthetic
from repro.obs import (
    MergedTrace,
    SPAN_CATEGORIES,
    SpanRecorder,
    TraceSpan,
    build_trace_meta,
    drift_report,
    export_chrome_trace,
    format_drift_report,
    merge_worker_obs,
    trace_from_chrome,
    traced_fit,
    validate_chrome_trace,
)
from repro.obs import spans as spans_mod
from repro.parallel.runtime import ledger_digest

EPOCHS = 3
HIDDEN = 8


@pytest.fixture(scope="module")
def ds():
    return make_synthetic(n=80, avg_degree=5, f=10, n_classes=3, seed=7)


# --------------------------------------------------------------------- #
# span recorder
# --------------------------------------------------------------------- #
class TestSpanRecorder:
    def test_record_and_drain(self):
        rec = SpanRecorder(capacity=8)
        rec.record("a", "spmm", 0.0, 1.0)
        rec.record("b", "dcomm", 1.0, 2.0, ("meta",))
        out = rec.drain()
        assert [s[0] for s in out] == ["a", "b"]
        assert out[1][4] == ("meta",)
        assert rec.dropped == 0

    def test_ring_overwrites_oldest(self):
        rec = SpanRecorder(capacity=3)
        for i in range(5):
            rec.record(f"s{i}", "misc", float(i), float(i) + 0.5)
        out = rec.drain()
        # Oldest two were overwritten; survivors stay in record order.
        assert [s[0] for s in out] == ["s2", "s3", "s4"]
        assert rec.dropped == 2

    def test_enable_disable_toggle_active(self):
        assert spans_mod.ACTIVE is None
        rec = spans_mod.enable(16)
        try:
            assert spans_mod.ACTIVE is rec
            assert spans_mod.is_enabled()
        finally:
            spans_mod.disable()
        assert spans_mod.ACTIVE is None
        assert not spans_mod.is_enabled()

    def test_rejects_degenerate_capacity(self):
        with pytest.raises(ValueError):
            SpanRecorder(capacity=0)


# --------------------------------------------------------------------- #
# merging + self-time accounting (synthetic spans, exact arithmetic)
# --------------------------------------------------------------------- #
def _blob(worker, ranks, spans, align=0.0):
    return {"worker": worker, "ranks": list(ranks), "align": align,
            "spans": spans, "dropped": 0}


class TestMergeWorkerObs:
    def test_same_host_offset_not_applied(self):
        # Same-host monotonic clocks share an epoch: the raw offset
        # (dispatch-to-align latency) must NOT shift the spans.
        blob = _blob(0, [0], [("epoch", "epoch", 10.0, 11.0, (0,))],
                     align=10.0)
        tr = merge_worker_obs([blob], t_dispatch=10.0005)
        assert tr.spans[0].t0 == pytest.approx(10.0)

    def test_large_skew_offset_applied(self):
        # A worker whose monotonic epoch differs by +1000s (another host)
        # is realigned onto the driver clock.
        blob = _blob(0, [0], [("epoch", "epoch", 1010.0, 1011.0, (0,))],
                     align=1010.0)
        tr = merge_worker_obs([blob], t_dispatch=10.0)
        assert tr.spans[0].t0 == pytest.approx(10.0)

    def test_pid_tid_and_workers_map(self):
        blobs = [
            _blob(0, [0, 1], [("epoch", "epoch", 0.0, 1.0, (0,))]),
            _blob(1, [2, 3], [("epoch", "epoch", 0.0, 1.2, (0,))]),
            None,
        ]
        tr = merge_worker_obs(blobs)
        assert sorted(tr.workers) == [0, 1]
        assert tr.workers[1]["ranks"] == [2, 3]
        assert sorted({s.pid for s in tr.spans}) == [0, 1]
        assert {s.tid for s in tr.spans} == {0, 2}  # min rank per worker


class TestSelfTimeTree:
    def _trace(self):
        # worker 0: epoch [0,10] containing a dcomm span [1,4] which
        # itself contains an xchg [2,3] (transparent: its time stays in
        # the dcomm span), plus an spmm leaf [5,8].
        spans = [
            TraceSpan("epoch", "epoch", 0.0, 10.0, 0, 0, (0,)),
            TraceSpan("bcast", "dcomm", 1.0, 4.0, 0, 0, None),
            TraceSpan("exchange", "xchg", 2.0, 3.0, 0, 0,
                      ("g", 0.1, 0.6, 0.3, 64)),
            TraceSpan("spmm.fwd", "spmm", 5.0, 8.0, 0, 0, None),
        ]
        return MergedTrace(spans, {0: {"ranks": [0], "dropped": 0}})

    def test_category_self_seconds(self):
        tr = self._trace()
        by_cat = tr.per_worker_breakdown(skip_first=False)[0]
        # epoch self = 10 - (3 dcomm + 3 spmm) = 4 -> misc; xchg is
        # transparent so dcomm keeps its full 3s.
        assert by_cat["dcomm"] == pytest.approx(3.0)
        assert by_cat["spmm"] == pytest.approx(3.0)
        assert by_cat["misc"] == pytest.approx(4.0)
        assert "xchg" not in by_cat

    def test_phase_breakdown_names(self):
        phases = self._trace().phase_breakdown(skip_first=False)
        assert phases["bcast"]["seconds"] == pytest.approx(3.0)
        assert phases["bcast"]["category"] == "dcomm"
        assert phases["spmm.fwd"]["count"] == 1
        assert "epoch" not in phases

    def test_exchange_summary(self):
        xs = self._trace().exchange_summary()
        assert xs["count"] == 1
        assert xs["wait_s"] == pytest.approx(0.6)
        assert xs["bytes_sent"] == 64

    def test_single_recorder_pacesetter_sentinel(self):
        # One recorder has no one to race: pacesetter is the -1
        # sentinel.
        stats = self._trace().epoch_stats()
        assert [e["pacesetter"] for e in stats] == [-1]
        assert self._trace().straggler_counts() == {-1: 1}

    def test_two_worker_pacesetter(self):
        spans = [
            TraceSpan("epoch", "epoch", 0.0, 1.0, 0, 0, (0,)),
            TraceSpan("epoch", "epoch", 0.0, 2.0, 1, 2, (0,)),
        ]
        tr = MergedTrace(spans, {0: {"ranks": [0], "dropped": 0}, 1: {"ranks": [2], "dropped": 0}})
        assert tr.epoch_stats()[0]["pacesetter"] == 1
        assert tr.straggler_counts() == {1: 1}

    def test_skip_first_epoch(self):
        spans = [
            TraceSpan("epoch", "epoch", 0.0, 5.0, 0, 0, (0,)),
            TraceSpan("spmm.x", "spmm", 1.0, 4.0, 0, 0, None),
            TraceSpan("epoch", "epoch", 5.0, 6.0, 0, 0, (1,)),
            TraceSpan("spmm.x", "spmm", 5.2, 5.4, 0, 0, None),
        ]
        tr = MergedTrace(spans, {0: {"ranks": [0], "dropped": 0}})
        warm = tr.measured_epoch_breakdown(skip_first=True)
        assert warm["spmm"] == pytest.approx(0.2)
        cold = tr.measured_epoch_breakdown(skip_first=False)
        assert cold["spmm"] == pytest.approx((3.0 + 0.2) / 2)


# --------------------------------------------------------------------- #
# chrome export / validation round-trip
# --------------------------------------------------------------------- #
class TestChromeTrace:
    def _export(self, ds, tmp_path):
        algo = make_algorithm("1d", 4, ds, hidden=HIDDEN, seed=0)
        hist, tr = traced_fit(algo, ds.features, ds.labels, EPOCHS)
        config = {"algorithm": "1d", "gpus": 4, "hidden": HIDDEN,
                  "epochs": EPOCHS, "seed": 7, "vertices": ds.adjacency.nrows,
                  "degree": 5.0, "features": 10, "classes": 3,
                  "backend": "virtual",
                  "machine": algo.rt.profile.name}
        path = str(tmp_path / "trace.json")
        doc = export_chrome_trace(
            tr, path, extra=build_trace_meta(config, hist, tr, 0.25))
        return path, doc, tr

    def test_export_is_valid_and_loadable(self, ds, tmp_path):
        path, doc, _ = self._export(ds, tmp_path)
        assert validate_chrome_trace(doc) == []
        with open(path) as fh:
            on_disk = json.load(fh)
        assert validate_chrome_trace(on_disk) == []
        assert on_disk["repro"]["schema"] == "repro-run/1"
        cats = {e["cat"] for e in on_disk["traceEvents"] if e["ph"] == "X"}
        assert cats <= set(SPAN_CATEGORIES)
        assert "epoch" in cats

    def test_ts_strictly_increasing_per_track(self, ds, tmp_path):
        _, doc, _ = self._export(ds, tmp_path)
        seen = {}
        for e in doc["traceEvents"]:
            if e.get("ph") != "X":
                continue
            key = (e["pid"], e["tid"])
            assert key not in seen or e["ts"] > seen[key]
            seen[key] = e["ts"]

    def test_tampered_traces_rejected(self, ds, tmp_path):
        _, doc, _ = self._export(ds, tmp_path)
        bad_cat = json.loads(json.dumps(doc))
        next(e for e in bad_cat["traceEvents"]
             if e["ph"] == "X")["cat"] = "gpu"
        assert any("category" in p for p in validate_chrome_trace(bad_cat))

        neg_dur = json.loads(json.dumps(doc))
        next(e for e in neg_dur["traceEvents"]
             if e["ph"] == "X")["dur"] = -1.0
        assert validate_chrome_trace(neg_dur)

        not_obj = {"traceEvents": "nope"}
        assert validate_chrome_trace(not_obj)

    def test_round_trip_preserves_summary(self, ds, tmp_path):
        _, doc, tr = self._export(ds, tmp_path)
        back = trace_from_chrome(doc)
        assert len(back.spans) == len(tr.spans)
        a, b = tr.summary(), back.summary()
        assert b["epochs"] == a["epochs"]
        for cat, sec in a["measured_epoch_breakdown"].items():
            assert b["measured_epoch_breakdown"][cat] == \
                pytest.approx(sec, rel=1e-6)
        assert back.exchange_summary()["count"] == \
            tr.exchange_summary()["count"]


# --------------------------------------------------------------------- #
# traced_fit on the virtual runtime
# --------------------------------------------------------------------- #
class TestTracedFitVirtual:
    @pytest.mark.parametrize("name,p,kw", [
        ("1d", 4, {"variant": "ghost", "partition": "multilevel"}),
        ("2d", 4, {}),
    ])
    def test_neutral_and_complete(self, ds, name, p, kw):
        plain = make_algorithm(name, p, ds, hidden=HIDDEN, seed=0, **kw)
        hist0 = plain.fit(ds.features, ds.labels, EPOCHS)
        digest0 = ledger_digest(plain.rt.tracker)

        algo = make_algorithm(name, p, ds, hidden=HIDDEN, seed=0, **kw)
        hist, tr = traced_fit(algo, ds.features, ds.labels, EPOCHS)

        assert list(hist.losses) == list(hist0.losses)
        assert ledger_digest(algo.rt.tracker) == digest0
        epochs = [s for s in tr.spans if s.cat == "epoch"]
        assert len(epochs) == EPOCHS
        assert [s.meta[0] for s in sorted(epochs, key=lambda s: s.t0)] == \
            list(range(EPOCHS))
        assert spans_mod.ACTIVE is None  # recorder torn down

    def test_disabled_by_default(self, ds):
        algo = make_algorithm("1d", 4, ds, hidden=HIDDEN, seed=0)
        algo.fit(ds.features, ds.labels, 1)
        assert spans_mod.ACTIVE is None


# --------------------------------------------------------------------- #
# trace-neutrality on the process backend (the ISSUE 7 satellite)
# --------------------------------------------------------------------- #
def _run_process(ds, name, p, workers, transport, trace, kw):
    algo = make_algorithm(name, p, ds, hidden=HIDDEN, seed=0,
                          backend="process", workers=workers,
                          transport=transport, **kw)
    try:
        hist = algo.fit(ds.features, ds.labels, EPOCHS,
                        trace=True if trace else None)
        digest = ledger_digest(algo.rt.tracker)
        stats = algo.rt.backend_stats(workers=False)
        return list(hist.losses), digest, algo.last_trace, stats
    finally:
        algo.rt.close()


class TestProcessBackendNeutrality:
    @pytest.mark.parametrize("name,transport,kw", [
        ("1d", "shm", {"variant": "ghost", "partition": "multilevel"}),
        ("2d", "shm", {}),
        ("1d", "tcp", {"variant": "ghost", "partition": "multilevel"}),
        ("2d", "tcp", {}),
    ])
    def test_traced_fit_bit_identical(self, ds, name, transport, kw):
        losses0, digest0, trace0, _ = _run_process(
            ds, name, 4, 2, transport, False, kw)
        losses, digest, tr, stats = _run_process(
            ds, name, 4, 2, transport, True, kw)

        assert trace0 is None
        assert losses == losses0          # bit-equal, not approx
        assert digest == digest0          # byte-identical ledger
        assert stats["fit_dispatches"] == 1

        # Every worker contributed: an epoch span per epoch per worker,
        # and the channel recorded its exchanges.
        assert sorted(tr.workers) == [0, 1]
        for pid in (0, 1):
            eps = [s for s in tr.spans
                   if s.pid == pid and s.cat == "epoch"]
            assert len(eps) == EPOCHS
        assert any(s.cat == "xchg" for s in tr.spans)
        xs = tr.exchange_summary()
        assert xs["count"] > 0 and xs["bytes_sent"] > 0
        # One span per exchange, from the start of its post to the end
        # of its collect: serialize (post half) + wait + copy (collect
        # half) fit inside it -- also for a 2D stage posted ahead,
        # whose span then covers the multiply it travelled under.
        assert sorted(xs) == ["bytes_sent", "copy_s", "count", "seconds",
                              "serialize_s", "wait_s"]
        for s in tr.spans:
            if s.cat == "xchg":
                label, ser, wait, copy, sent = s.meta
                assert min(ser, wait, copy) >= 0.0 and sent >= 0
                assert ser + wait + copy <= s.dur + 1e-9
        if name == "2d":
            # look-ahead: on each worker some exchange spans overlap
            for pid in (0, 1):
                xs_w = sorted((s for s in tr.spans
                               if s.pid == pid and s.cat == "xchg"),
                              key=lambda s: s.t0)
                assert any(b.t0 < a.t1 for a, b in zip(xs_w, xs_w[1:]))


class TestTraceCapacityCheckedOnDriver:
    @pytest.mark.parametrize("transport,capacity", [("shm", 0),
                                                    ("tcp", -1)])
    def test_bad_capacity_leaves_the_pool_up(self, ds, transport, capacity):
        # refused before the dispatch: no worker sees it, so the pool
        # is neither torn down nor respawned
        algo = make_algorithm("1d", 4, ds, hidden=HIDDEN, seed=0,
                              backend="process", workers=2,
                              transport=transport)
        try:
            algo.fit(ds.features, ds.labels, 1)
            with pytest.raises(ValueError, match="span capacity"):
                algo.fit(ds.features, ds.labels, 1, trace=capacity)
            hist = algo.fit(ds.features, ds.labels, 1)
            stats = algo.rt.backend_stats(workers=False)
        finally:
            algo.rt.close()
        assert len(hist.losses) == 1
        assert stats["restarts"] == 0
        assert stats["fit_dispatches"] == 2

    def test_option_dict_is_refused_on_the_driver(self, ds):
        # ``trace`` is a bool or a ring capacity; the old option dict
        # (``{"profile": True}``) is no capacity and never dispatches
        algo = make_algorithm("1d", 4, ds, hidden=HIDDEN, seed=0,
                              backend="process", workers=2, transport="shm")
        try:
            with pytest.raises(TypeError):
                algo.fit(ds.features, ds.labels, 1, trace={"profile": True})
            hist = algo.fit(ds.features, ds.labels, 1)
            stats = algo.rt.backend_stats(workers=False)
        finally:
            algo.rt.close()
        assert len(hist.losses) == 1
        assert stats["restarts"] == 0
        assert stats["fit_dispatches"] == 1

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_virtual_bad_capacity_enables_nothing(self, ds, capacity):
        from repro.obs import profile as profile_mod
        algo = make_algorithm("1d", 4, ds, hidden=HIDDEN, seed=0)
        with pytest.raises(ValueError, match="span capacity"):
            traced_fit(algo, ds.features, ds.labels, 1, capacity=capacity)
        assert spans_mod.ACTIVE is None
        assert profile_mod.ACTIVE is None
        assert len(algo.fit(ds.features, ds.labels, 1).losses) == 1

    def test_small_ring_counts_what_it_dropped(self, ds):
        # a capacity the driver accepts reaches every worker's ring: a
        # ring that wraps keeps its newest spans and reports the rest
        algo = make_algorithm("1d", 4, ds, hidden=HIDDEN, seed=0,
                              backend="process", workers=2, transport="shm")
        try:
            algo.fit(ds.features, ds.labels, EPOCHS, trace=4)
            tr = algo.last_trace
        finally:
            algo.rt.close()
        assert sorted(tr.workers) == [0, 1]
        for info in tr.workers.values():
            assert info["nspans"] == 4
            assert info["dropped"] > 0


# --------------------------------------------------------------------- #
# drift report
# --------------------------------------------------------------------- #
class TestDriftReport:
    def _payload(self, ds, tmp_path):
        algo = make_algorithm("1d", 4, ds, hidden=HIDDEN, seed=0)
        hist, tr = traced_fit(algo, ds.features, ds.labels, EPOCHS)
        config = {"algorithm": "1d", "gpus": 4, "hidden": HIDDEN,
                  "epochs": EPOCHS, "seed": 7, "vertices": ds.adjacency.nrows,
                  "degree": 5.0, "features": 10, "classes": 3,
                  "backend": "virtual",
                  "machine": algo.rt.profile.name}
        return export_chrome_trace(
            tr, str(tmp_path / "t.json"),
            extra=build_trace_meta(config, hist, tr, 0.25))

    def test_report_structure(self, ds, tmp_path):
        rep = drift_report(self._payload(ds, tmp_path))
        assert rep["schema"] == "repro-report/1"
        cats = {r["category"] for r in rep["categories"]}
        assert {"dcomm", "spmm", "misc"} <= cats
        for row in rep["categories"]:
            assert row["modeled_s"] is not None
            if row["modeled_s"] > 0:
                assert row["drift"] == pytest.approx(
                    row["measured_s"] / row["modeled_s"])
        assert rep["totals"]["measured_s"] > 0
        assert rep["phases"]

    def test_report_formats(self, ds, tmp_path):
        text = format_drift_report(drift_report(self._payload(ds, tmp_path)))
        assert "drift" in text
        assert "dcomm" in text
        assert "pacesetter" in text.lower()

    def test_report_without_meta_degrades(self, ds, tmp_path):
        payload = self._payload(ds, tmp_path)
        payload["repro"].pop("config")
        rep = drift_report(payload)
        assert any("config" in n or "model" in n for n in rep["notes"])


# --------------------------------------------------------------------- #
# the run record (schema repro-run/1)
# --------------------------------------------------------------------- #
class TestRunRecord:
    def _fit(self, ds):
        algo = make_algorithm("1d", 4, ds, hidden=HIDDEN, seed=0)
        return traced_fit(algo, ds.features, ds.labels, EPOCHS)

    def test_record_round_trips_through_json(self, ds):
        hist, tr = self._fit(ds)
        rec = build_trace_meta({"algorithm": "1d", "gpus": 4}, hist, tr,
                               0.25)
        assert rec["schema"] == "repro-run/1"
        assert json.loads(json.dumps(rec)) == rec
        assert rec["measured"]["profile"]["kernels"]

    def test_untraced_record_passes_backend_stats_through(self, ds):
        hist, _ = self._fit(ds)
        stats = {"restarts": 0, "fit_dispatches": 1}
        rec = build_trace_meta({}, hist, None, 0.5, backend_stats=stats)
        assert rec["measured"] is None
        assert rec["backend_stats"] == stats
        assert rec["wall_seconds"] == 0.5
        assert rec["losses"] == list(hist.losses)
        assert rec["modeled"]["final_loss"] == hist.losses[-1]

    def test_record_reads_bytes_and_accuracy_from_the_history(self, ds):
        hist, tr = self._fit(ds)
        rec = build_trace_meta({}, hist, tr, 0.25)
        last, setup = hist.epochs[-1], hist.setup
        assert rec["final_accuracy"] == last.train_accuracy
        assert rec["per_epoch_comm_bytes"] == {
            "dcomm": last.dcomm_bytes, "scomm": last.scomm_bytes,
            "max_rank": last.max_rank_comm_bytes}
        assert rec["setup"]["comm_bytes"]["dcomm"] == setup.dcomm_bytes
        assert rec["setup"]["modeled_seconds"] == setup.modeled_seconds
        assert rec["modeled"]["epochs"] == EPOCHS

    def test_empty_config_still_reports(self, ds, tmp_path):
        # the layer harness records no config: the simulated column
        # goes, the modeled and measured ones stay
        hist, tr = self._fit(ds)
        doc = export_chrome_trace(
            tr, str(tmp_path / "t.json"),
            extra=build_trace_meta({}, hist, tr, 0.25))
        rep = drift_report(doc)
        assert any("lacks algorithm/gpus" in n for n in rep["notes"])
        for row in rep["categories"]:
            assert row["simulated_s"] is None
        assert rep["totals"]["measured_s"] > 0
        assert any(row["modeled_s"] for row in rep["categories"])


# --------------------------------------------------------------------- #
# CLI wiring: --trace/--json and `repro report`
# --------------------------------------------------------------------- #
class TestCli:
    def test_train_json_is_the_trace_record(self, tmp_path, capsys):
        from repro.cli import main
        trace_path = str(tmp_path / "t.json")
        rc = main(["train", "--algorithm", "1d", "--gpus", "4",
                   "--epochs", "2", "--hidden", "8",
                   "--vertices", "96", "--degree", "5",
                   "--trace", trace_path, "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-run/1"
        assert len(doc["losses"]) == 2
        assert doc["config"]["trace"] == trace_path
        # the set-up's ledger delta, beside the per-epoch numbers: one
        # all-gather at f^0 = 32 against the epoch's four at the narrow
        # side of 8-8 and 8-4 (8, 4 forward; 4, 8 backward) plus its
        # all-reduces (three weight gradients and the loss pair, each
        # rank moving 2 (P - 1) / P of the buffer)
        once, epoch = doc["setup"]["comm_bytes"], doc["per_epoch_comm_bytes"]
        gathered = 3 * 96 * 8                     # (P - 1) n bytes per column
        assert once["dcomm"] == gathered * 32
        reduced = 2 * 3 * ((32 * 8 + 8 * 8 + 8 * 4) * 8 + 16)
        assert epoch["dcomm"] == gathered * 24 + reduced
        assert doc["setup"]["modeled_seconds"] > 0
        with open(trace_path) as fh:
            payload = json.load(fh)
        assert validate_chrome_trace(payload) == []
        # one record: the file embeds what --json printed, key for key,
        # and adds only the per-worker span table
        meta = payload["repro"]
        assert set(meta) - set(doc) == {"workers"}
        assert {k: meta[k] for k in doc} == doc
        assert doc["measured"]["profile"]["kernels"]

    def test_untraced_json_record(self, capsys):
        from repro.cli import main
        assert main(["train", "--algorithm", "1d", "--gpus", "4",
                     "--epochs", "2", "--hidden", "8",
                     "--vertices", "96", "--degree", "5", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-run/1"
        assert doc["measured"] is None and doc["backend_stats"] is None
        assert doc["modeled"]["epochs"] == 2

    def test_report_command(self, tmp_path, capsys):
        from repro.cli import main
        trace_path = str(tmp_path / "t.json")
        assert main(["train", "--algorithm", "1d", "--gpus", "4",
                     "--epochs", "2", "--hidden", "8",
                     "--vertices", "96", "--degree", "5",
                     "--trace", trace_path,
                     "--json"]) == 0
        capsys.readouterr()
        rep_json = str(tmp_path / "report.json")
        assert main(["report", trace_path, "--json", rep_json]) == 0
        out = capsys.readouterr().out
        assert "drift" in out
        rep = json.load(open(rep_json))
        assert rep["schema"] == "repro-report/1"

    @pytest.mark.parametrize("transport", ["shm", "tcp"])
    def test_process_record_is_the_trace_record(self, tmp_path, capsys,
                                                transport):
        from repro.cli import main
        trace_path = str(tmp_path / "t.json")
        assert main(["train", "--algorithm", "1d", "--gpus", "4",
                     "--epochs", "2", "--hidden", "8",
                     "--vertices", "96", "--degree", "5",
                     "--backend", "process", "--workers", "2",
                     "--transport", transport,
                     "--trace", trace_path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["backend_stats"]["fit_dispatches"] == 1
        assert doc["backend_stats"]["restarts"] == 0
        with open(trace_path) as fh:
            meta = json.load(fh)["repro"]
        assert set(meta) - set(doc) == {"workers"}
        assert {k: meta[k] for k in doc} == doc
        # every worker profiled its kernels, with no flag asked
        assert sorted(meta["workers"]) == ["0", "1"]
        for info in meta["workers"].values():
            assert info["profile"]["kernels"]

    def test_report_shows_compute_without_a_flag(self, tmp_path, capsys):
        from repro.cli import main
        trace_path = str(tmp_path / "t.json")
        assert main(["train", "--algorithm", "1d", "--gpus", "4",
                     "--epochs", "2", "--hidden", "8",
                     "--vertices", "96", "--degree", "5",
                     "--trace", trace_path]) == 0
        capsys.readouterr()
        assert main(["report", trace_path]) == 0
        assert "kernel compute" in capsys.readouterr().out

    @staticmethod
    def _train_options(capsys):
        import re
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        return set(re.findall(r"(?<![\w-])--[a-z][\w-]*",
                              capsys.readouterr().out))

    @pytest.mark.parametrize("flag", ["--metrics", "--profile"])
    def test_train_has_no_removed_output(self, flag, capsys):
        from repro.cli import main
        assert flag not in self._train_options(capsys)
        with pytest.raises(SystemExit) as exc:
            main(["train", flag, "x"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_train_lists_three_outputs(self, capsys):
        options = self._train_options(capsys)
        assert {"--trace", "--events", "--json"} <= options
        assert not {o for o in options if o.startswith("--metrics")}

    def test_report_rejects_invalid(self, tmp_path, capsys):
        from repro.cli import main
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [
            {"ph": "X", "name": "a", "cat": "gpu", "ts": 0, "dur": 1,
             "pid": 0, "tid": 0}]}))
        assert main(["report", str(bad)]) == 1


# --------------------------------------------------------------------- #
# ISSUE 9: hash-chained event log
# --------------------------------------------------------------------- #
class TestEventLog:
    def _write(self, tmp_path, n_epochs=3):
        from repro.obs.events import EventLog
        path = tmp_path / "ev.jsonl"
        with EventLog(path) as log:
            log.emit("run_start", config={"algorithm": "1d"})
            for i in range(n_epochs):
                log.emit("epoch", epoch=i, loss=1.0 / (i + 1))
            log.emit("checkpoint", path="ck.npz", epochs=n_epochs)
            log.emit("run_end", status="ok")
        return path

    def test_round_trip_validates(self, tmp_path):
        from repro.obs.events import read_event_log, validate_event_log
        path = self._write(tmp_path)
        assert validate_event_log(path) == []
        events = read_event_log(path)
        assert [e["type"] for e in events] == \
            ["run_start", "epoch", "epoch", "epoch", "checkpoint",
             "run_end"]
        assert [e["seq"] for e in events] == list(range(6))
        assert [e["data"]["epoch"] for e in events
                if e["type"] == "epoch"] == [0, 1, 2]

    def test_unknown_type_rejected_at_emit(self, tmp_path):
        from repro.obs.events import EventLog
        with EventLog(tmp_path / "ev.jsonl") as log:
            with pytest.raises(ValueError, match="unknown event type"):
                log.emit("gpu_melted")

    def test_edited_line_breaks_chain(self, tmp_path):
        from repro.obs.events import validate_event_log
        path = self._write(tmp_path)
        lines = path.read_text().splitlines()
        # Forge epoch 1's loss in place: the line still parses, its own
        # link is intact, but every *later* link hashes the original
        # bytes, so the chain breaks right after the edit.
        lines[2] = lines[2].replace('"loss":0.5', '"loss":0.1')
        problems = validate_event_log(lines)
        assert any("hash chain broken" in p for p in problems)

    def test_truncated_last_line_rejected(self, tmp_path):
        from repro.obs.events import validate_event_log
        path = self._write(tmp_path)
        raw = path.read_text()
        path.write_text(raw[: len(raw) // 2])  # crash mid-write
        problems = validate_event_log(path)
        assert any("not valid JSON" in p for p in problems)

    def test_deleted_line_breaks_sequence(self, tmp_path):
        from repro.obs.events import validate_event_log
        path = self._write(tmp_path)
        lines = path.read_text().splitlines()
        del lines[2]
        problems = validate_event_log(lines)
        assert any("not contiguous" in p for p in problems)

    def test_empty_log_is_a_problem(self):
        from repro.obs.events import validate_event_log
        assert validate_event_log([]) == ["event log is empty"]

    def test_read_raises_on_tampered(self, tmp_path):
        from repro.obs.events import read_event_log
        path = self._write(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:1] + lines[2:]) + "\n")
        with pytest.raises(ValueError, match="failed event-log"):
            read_event_log(path)

    def test_virtual_fit_emits_epochs_and_checkpoints(self, ds, tmp_path):
        from repro.obs import events as events_mod
        from repro.obs.events import read_event_log
        path = tmp_path / "fit.jsonl"
        events_mod.enable(path)
        try:
            algo = make_algorithm("1d", 4, ds, hidden=HIDDEN, seed=0)
            algo.fit(ds.features, ds.labels, EPOCHS,
                     checkpoint_path=str(tmp_path / "ck.npz"),
                     checkpoint_every=1)
        finally:
            events_mod.disable()
        assert events_mod.ACTIVE is None
        events = read_event_log(path)
        epochs = [e["data"]["epoch"] for e in events
                  if e["type"] == "epoch"]
        assert epochs == list(range(EPOCHS))
        assert sum(1 for e in events if e["type"] == "checkpoint") == EPOCHS


# --------------------------------------------------------------------- #
# ISSUE 9: per-kernel compute/memory profiling
# --------------------------------------------------------------------- #
PROFILED_KERNELS = {"spmm", "gemm.forward", "gemm.wgrad", "gemm.hgrad",
                    "reduce.fold"}


def _run_profiled(ds, name, transport, kw):
    algo = make_algorithm(name, 4, ds, hidden=HIDDEN, seed=0,
                          backend="process", workers=2,
                          transport=transport, **kw)
    try:
        hist = algo.fit(ds.features, ds.labels, EPOCHS, trace=True)
        digest = ledger_digest(algo.rt.tracker)
        stats = algo.rt.backend_stats(workers=False)
        return list(hist.losses), digest, algo.last_trace, stats
    finally:
        algo.rt.close()


class TestKernelProfiling:
    def test_profiler_unit_accumulates(self):
        from repro.obs import profile as profile_mod
        prof = profile_mod.KernelProfiler()
        prof.add("spmm", 0.5, 100.0, 800.0, 10, 4, 8)
        prof.add("spmm", 0.5, 100.0, 800.0, 10, 4, 8)
        snap = prof.snapshot()
        k = snap["kernels"]["spmm"]
        assert k["calls"] == 2
        assert k["flops"] == pytest.approx(200.0)
        assert k["bytes"] == pytest.approx(1600.0)
        assert k["intensity"] == pytest.approx(200.0 / 1600.0)
        assert k["extras"] == [20, 8, 16]
        assert snap["peak_rss_bytes"] >= 0

    def test_virtual_profiled_bit_equal(self, ds):
        from repro.obs import profile as profile_mod
        plain = make_algorithm("1d", 4, ds, hidden=HIDDEN, seed=0)
        hist0 = plain.fit(ds.features, ds.labels, EPOCHS)
        digest0 = ledger_digest(plain.rt.tracker)

        algo = make_algorithm("1d", 4, ds, hidden=HIDDEN, seed=0)
        hist, tr = traced_fit(algo, ds.features, ds.labels, EPOCHS)
        assert profile_mod.ACTIVE is None  # torn down
        assert list(hist.losses) == list(hist0.losses)
        assert ledger_digest(algo.rt.tracker) == digest0
        prof = tr.profile_summary()
        assert prof is not None
        assert PROFILED_KERNELS <= set(prof["kernels"])
        for k in prof["kernels"].values():
            assert k["calls"] > 0 and k["seconds"] >= 0.0
            assert k["flops"] >= 0.0 and k["bytes"] > 0.0

    @pytest.mark.parametrize("transport", ["shm", "tcp"])
    def test_process_profiled_bit_equal(self, ds, transport):
        kw = {"variant": "ghost", "partition": "multilevel"}
        losses0, digest0, _, _ = _run_process(
            ds, "1d", 4, 2, transport, False, kw)
        losses, digest, tr, stats = _run_profiled(ds, "1d", transport, kw)

        assert losses == losses0
        assert digest == digest0
        assert stats["fit_dispatches"] == 1
        prof = tr.profile_summary()
        assert prof is not None and prof["workers"] == 2
        assert PROFILED_KERNELS <= set(prof["kernels"])
        if transport == "shm":
            # shm workers fold their payload-arena gauges in; the tcp
            # channel has no arena, so the key must be absent.
            arena = prof["arena"]
            assert arena["size_bytes"] > 0
            assert 0.0 <= arena["occupancy"] <= 1.0
        else:
            assert "arena" not in prof

    def test_profile_survives_chrome_round_trip(self, ds, tmp_path):
        algo = make_algorithm("1d", 4, ds, hidden=HIDDEN, seed=0)
        hist, tr = traced_fit(algo, ds.features, ds.labels, EPOCHS)
        config = {"algorithm": "1d", "gpus": 4, "hidden": HIDDEN,
                  "epochs": EPOCHS, "seed": 7,
                  "vertices": ds.adjacency.nrows, "degree": 5.0,
                  "features": 10, "classes": 3, "backend": "virtual",
                  "machine": algo.rt.profile.name}
        doc = export_chrome_trace(
            tr, str(tmp_path / "t.json"),
            extra=build_trace_meta(config, hist, tr, 0.25))
        assert validate_chrome_trace(doc) == []
        back = trace_from_chrome(doc)
        a, b = tr.profile_summary(), back.profile_summary()
        assert b is not None
        assert set(b["kernels"]) == set(a["kernels"])
        for name in a["kernels"]:
            assert b["kernels"][name]["calls"] == a["kernels"][name]["calls"]

    def test_virtual_footprint_is_the_driver(self, ds):
        algo = make_algorithm("1d", 4, ds, hidden=HIDDEN, seed=0)
        _, tr = traced_fit(algo, ds.features, ds.labels, EPOCHS)
        prof = tr.profile_summary()
        (name,) = prof["peak_rss_by_process"]
        assert name == "driver"
        assert prof["peak_rss_total_bytes"] == prof["peak_rss_bytes"] > 0

    def test_process_footprint_names_every_process(self, ds, tmp_path):
        """Driver and workers each keep their own peak RSS, and the
        record, the trace file and the drift report all carry it."""
        algo = make_algorithm("1d", 4, ds, hidden=HIDDEN, seed=0,
                              backend="process", workers=2)
        try:
            hist = algo.fit(ds.features, ds.labels, EPOCHS, trace=True)
            tr = algo.last_trace
        finally:
            algo.rt.close()
        prof = tr.profile_summary()
        by_process = prof["peak_rss_by_process"]
        assert list(by_process) == ["driver", "worker 0", "worker 1"]
        assert all(rss > 0 for rss in by_process.values())
        assert prof["peak_rss_total_bytes"] == sum(by_process.values())
        assert prof["peak_rss_bytes"] == max(by_process["worker 0"],
                                             by_process["worker 1"])
        config = {"algorithm": "1d", "gpus": 4, "hidden": HIDDEN,
                  "epochs": EPOCHS, "backend": "process"}
        doc = export_chrome_trace(
            tr, str(tmp_path / "t.json"),
            extra=build_trace_meta(config, hist, tr, 0.25))
        assert trace_from_chrome(doc).profile_summary() == prof
        rep = drift_report(doc)
        assert rep["compute"]["peak_rss_by_process"] == by_process
        text = format_drift_report(rep)
        line = next(ln for ln in text.splitlines()
                    if ln.startswith("peak RSS"))
        assert "driver" in line and "worker 1" in line
        total = prof["peak_rss_total_bytes"] / 1e6
        assert line.endswith(f"all processes {total:.1f} MB")

# --------------------------------------------------------------------- #
# ISSUE 9: drift report's compute column + dropped-span surfacing
# --------------------------------------------------------------------- #
class TestComputeReport:
    def _payload(self, ds, tmp_path):
        algo = make_algorithm("1d", 4, ds, hidden=HIDDEN, seed=0)
        hist, tr = traced_fit(algo, ds.features, ds.labels, EPOCHS)
        config = {"algorithm": "1d", "gpus": 4, "hidden": HIDDEN,
                  "epochs": EPOCHS, "seed": 7,
                  "vertices": ds.adjacency.nrows, "degree": 5.0,
                  "features": 10, "classes": 3, "backend": "virtual",
                  "machine": algo.rt.profile.name}
        return export_chrome_trace(
            tr, str(tmp_path / "t.json"),
            extra=build_trace_meta(config, hist, tr, 0.25))

    def test_compute_section_measured_vs_modeled(self, ds, tmp_path):
        rep = drift_report(self._payload(ds, tmp_path))
        assert rep["dropped_spans"] == 0
        compute = rep["compute"]
        assert compute is not None
        kernels = {row["kernel"] for row in compute["kernels"]}
        assert PROFILED_KERNELS <= kernels
        for row in compute["kernels"]:
            assert row["calls"] > 0
            assert row["measured_s"] >= 0.0
            if row["modeled_s"] and row["measured_s"]:
                assert row["drift"] == pytest.approx(
                    row["measured_s"] / row["modeled_s"])
        assert compute["peak_rss_bytes"] > 0
        text = format_drift_report(rep)
        assert "kernel compute" in text
        assert "peak RSS" in text

    def test_dropped_spans_surfaced_with_warning(self, ds, tmp_path):
        payload = self._payload(ds, tmp_path)
        payload["repro"]["workers"]["0"]["dropped"] = 5
        rep = drift_report(payload)
        assert rep["dropped_spans"] == 5
        assert any("WARNING" in n and "dropped" in n for n in rep["notes"])
        assert "WARNING" in format_drift_report(rep)


# --------------------------------------------------------------------- #
# ISSUE 9: trace diffing + CLI wiring
# --------------------------------------------------------------------- #
class TestTraceDiff:
    def _payload(self, ds, tmp_path, name="t.json"):
        algo = make_algorithm("1d", 4, ds, hidden=HIDDEN, seed=0)
        hist, tr = traced_fit(algo, ds.features, ds.labels, EPOCHS)
        config = {"algorithm": "1d", "gpus": 4, "hidden": HIDDEN,
                  "epochs": EPOCHS, "seed": 7,
                  "vertices": ds.adjacency.nrows, "degree": 5.0,
                  "features": 10, "classes": 3, "backend": "virtual",
                  "machine": algo.rt.profile.name}
        path = tmp_path / name
        export_chrome_trace(
            tr, str(path), extra=build_trace_meta(config, hist, tr, 0.25))
        return path

    @staticmethod
    def _scaled(path, out, factor):
        """A copy of a trace with every timestamp dilated by ``factor``.

        Scaling ts *and* dur preserves nesting/containment exactly, so
        every category's per-epoch seconds grow by the same factor.
        """
        payload = json.load(open(path))
        for ev in payload["traceEvents"]:
            if "ts" in ev:
                ev["ts"] = float(ev["ts"]) * factor
            if "dur" in ev:
                ev["dur"] = float(ev["dur"]) * factor
        out.write_text(json.dumps(payload))
        return out

    def test_identical_traces_zero_drift(self, ds, tmp_path):
        from repro.obs.diff import diff_traces
        payload = json.load(open(self._payload(ds, tmp_path)))
        rep = diff_traces(payload, payload)
        assert rep["verdict"] == "ok"
        assert rep["max_drift"] == 0.0
        assert rep["regressions"] == []

    def test_dilated_trace_flags_regression(self, ds, tmp_path):
        from repro.obs.diff import diff_traces
        a_path = self._payload(ds, tmp_path)
        b_path = self._scaled(a_path, tmp_path / "slow.json", 3.0)
        rep = diff_traces(json.load(open(a_path)), json.load(open(b_path)),
                          min_seconds=0.0)
        assert rep["verdict"] == "regression"
        assert rep["regressions"]
        for row in rep["categories"]:
            if row.get("ratio") is not None:
                assert row["ratio"] == pytest.approx(3.0, rel=1e-6)

    def test_speedup_is_not_a_regression(self, ds, tmp_path):
        from repro.obs.diff import diff_traces
        a_path = self._payload(ds, tmp_path)
        b_path = self._scaled(a_path, tmp_path / "fast.json", 0.25)
        rep = diff_traces(json.load(open(a_path)), json.load(open(b_path)),
                          min_seconds=0.0)
        assert rep["verdict"] == "ok"  # only slowdowns fail the gate

    def test_cli_self_diff_ok(self, ds, tmp_path, capsys):
        from repro.cli import main
        path = str(self._payload(ds, tmp_path))
        out_json = str(tmp_path / "diff.json")
        assert main(["obs", "diff", path, path, "--json", out_json]) == 0
        assert "verdict OK" in capsys.readouterr().out
        doc = json.load(open(out_json))
        assert doc["verdict"] == "ok" and doc["max_drift"] == 0.0

    def test_cli_diff_flags_regression(self, ds, tmp_path, capsys):
        from repro.cli import main
        a = self._payload(ds, tmp_path)
        b = self._scaled(a, tmp_path / "slow.json", 3.0)
        rc = main(["obs", "diff", str(a), str(b), "--min-seconds", "0"])
        assert rc == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_cli_diff_rejects_invalid(self, tmp_path, capsys):
        from repro.cli import main
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": "nope"}))
        assert main(["obs", "diff", str(bad), str(bad)]) == 2


class TestObsEventsCli:
    def test_train_writes_chained_log(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.events import read_event_log
        ev_path = str(tmp_path / "ev.jsonl")
        rc = main(["train", "--algorithm", "1d", "--gpus", "4",
                   "--epochs", "2", "--hidden", "8",
                   "--vertices", "96", "--degree", "5",
                   "--events", ev_path, "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["events"] == ev_path
        events = read_event_log(ev_path)
        types = [e["type"] for e in events]
        assert types[0] == "run_start"
        assert types[-1] == "run_end"
        assert types.count("epoch") == 2
        assert events[-1]["data"]["status"] == "ok"

    def test_validate_events_accepts_then_rejects(self, tmp_path, capsys):
        from repro.cli import main
        ev_path = tmp_path / "ev.jsonl"
        assert main(["train", "--algorithm", "1d", "--gpus", "4",
                     "--epochs", "2", "--hidden", "8",
                     "--vertices", "96", "--degree", "5",
                     "--events", str(ev_path)]) == 0
        capsys.readouterr()
        assert main(["obs", "validate-events", str(ev_path)]) == 0
        assert "chain intact" in capsys.readouterr().out

        lines = ev_path.read_text().splitlines()
        ev_path.write_text("\n".join(lines[:1] + lines[2:]) + "\n")
        assert main(["obs", "validate-events", str(ev_path)]) == 1


# --------------------------------------------------------------------- #
# recovery counters in the run record of a faulted tcp run
# --------------------------------------------------------------------- #
class TestRecoveryRecordTcp:
    def test_faulted_tcp_record_carries_recovery_counters(self, tmp_path,
                                                          capsys):
        from repro.cli import main
        trace_path = str(tmp_path / "t.json")
        rc = main(["train", "--algorithm", "1d", "--gpus", "4",
                   "--epochs", "3", "--hidden", "8",
                   "--vertices", "96", "--degree", "5",
                   "--backend", "process", "--workers", "2",
                   "--transport", "tcp",
                   "--faults", "kill:worker=1,epoch=1,attempt=1",
                   "--max-restarts", "3",
                   "--checkpoint", str(tmp_path / "ck.npz"),
                   "--trace", trace_path, "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        st = doc["backend_stats"]
        assert st["restarts"] >= 1
        assert st["fit_dispatches"] == 1
        assert st["recovery_dispatches"] >= 2
        assert st["detect_seconds"] > 0
        assert st["checkpoints_written"] >= 1
        assert len(doc["losses"]) == 3
        with open(trace_path) as fh:
            assert json.load(fh)["repro"]["backend_stats"] == st
