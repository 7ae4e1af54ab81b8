"""Chrome / Perfetto trace-event export and validation.

A :class:`~repro.obs.tracing.MergedTrace` serialises to the Trace Event
Format (the JSON ``chrome://tracing`` and https://ui.perfetto.dev load):
one ``"X"`` complete event per span with microsecond timestamps relative
to the earliest span, ``pid`` = worker, ``tid`` = lead mesh rank, and
``"M"`` metadata events naming each row.  The exported document also
carries a top-level ``"repro"`` object (ignored by trace viewers) with
the worker table and -- when written by ``repro train`` -- the recorded
run config and modeled ledger breakdown, which is what makes a trace
file self-contained input for ``repro report``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.obs.spans import SPAN_CATEGORIES
from repro.obs.tracing import MergedTrace, TraceSpan

__all__ = [
    "chrome_events",
    "export_chrome_trace",
    "trace_from_chrome",
    "validate_chrome_trace",
]

#: Monotonic stamps can collide at microsecond resolution; the exporter
#: bumps ties by this many microseconds so ``ts`` is strictly increasing
#: per (pid, tid) -- which the validator (and CI) then asserts.
_TS_EPSILON_US = 1e-3


def _span_args(span: TraceSpan) -> Optional[dict]:
    """Human-readable ``args`` for the trace viewer's detail pane."""
    meta = span.meta
    if meta is None:
        return None
    if span.cat == "epoch":
        return {"epoch": int(meta[0])} if meta else None
    if span.cat == "xchg" and len(meta) >= 5:
        return {
            "gkey": str(meta[0]),
            "serialize_ms": round(float(meta[1]) * 1e3, 6),
            "wait_ms": round(float(meta[2]) * 1e3, 6),
            "copy_ms": round(float(meta[3]) * 1e3, 6),
            "bytes": int(meta[4]),
        }
    return {"meta": list(meta)}


def chrome_events(trace: MergedTrace) -> List[dict]:
    """The ``traceEvents`` array: metadata rows + one X event per span."""
    events: List[dict] = []
    for pid, info in sorted(trace.workers.items()):
        ranks = info.get("ranks") or []
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": f"worker {pid} (ranks {ranks})"},
        })
        tid = min(ranks) if ranks else 0
        events.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": f"rank {tid}"},
        })
    base = trace.base
    last_ts: Dict[Tuple[int, int], float] = {}
    for span in trace.spans:  # already sorted by (pid, tid, t0)
        ts = (span.t0 - base) * 1e6
        key = (span.pid, span.tid)
        prev = last_ts.get(key)
        if prev is not None and ts <= prev:
            ts = prev + _TS_EPSILON_US
        last_ts[key] = ts
        event = {
            "name": span.name,
            "cat": span.cat,
            "ph": "X",
            "ts": ts,
            "dur": max(0.0, span.dur * 1e6),
            "pid": span.pid,
            "tid": span.tid,
        }
        args = _span_args(span)
        if args is not None:
            event["args"] = args
        events.append(event)
    return events


def export_chrome_trace(trace: MergedTrace, path: str,
                        extra: Optional[dict] = None) -> dict:
    """Write ``trace`` to ``path`` as trace-event JSON; returns the doc.

    ``extra`` (e.g. :func:`repro.obs.report.build_trace_meta`'s payload)
    is merged into the top-level ``"repro"`` object alongside the worker
    table, making the file sufficient for a later ``repro report``.
    """
    repro_meta = dict(extra or {})
    repro_meta.setdefault("workers", {
        str(pid): dict(info) for pid, info in sorted(trace.workers.items())
    })
    doc = {
        "traceEvents": chrome_events(trace),
        "displayTimeUnit": "ms",
        "repro": repro_meta,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return doc


def validate_chrome_trace(payload: dict) -> List[str]:
    """Schema problems with a trace-event document ([] when valid).

    Checks what CI relies on: ``traceEvents`` is a list, every complete
    event carries the required fields, categories are known, durations
    are non-negative, and ``ts`` strictly increases per (pid, tid).
    """
    problems: List[str] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    last_ts: Dict[Tuple[int, int], float] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        ph = ev.get("ph")
        if ph == "M":
            continue
        if ph != "X":
            problems.append(f"event {i}: unexpected ph {ph!r}")
            continue
        missing = [k for k in ("name", "cat", "ts", "dur", "pid", "tid")
                   if k not in ev]
        if missing:
            problems.append(f"event {i}: missing {missing}")
            continue
        if ev["cat"] not in SPAN_CATEGORIES:
            problems.append(f"event {i}: unknown category {ev['cat']!r}")
        if not isinstance(ev["dur"], (int, float)) or ev["dur"] < 0:
            problems.append(f"event {i}: negative or non-numeric dur")
        ts = ev["ts"]
        if not isinstance(ts, (int, float)):
            problems.append(f"event {i}: non-numeric ts")
            continue
        key = (ev["pid"], ev["tid"])
        prev = last_ts.get(key)
        if prev is not None and ts <= prev:
            problems.append(
                f"event {i}: ts {ts} not strictly increasing on "
                f"pid={key[0]} tid={key[1]} (prev {prev})"
            )
        last_ts[key] = ts
    return problems


def _meta_from_args(cat: str, args: Optional[dict]) -> Optional[tuple]:
    """Invert :func:`_span_args` (lossy only in float rounding)."""
    if not args:
        return None
    if cat == "epoch" and "epoch" in args:
        return (int(args["epoch"]),)
    if cat == "xchg" and "gkey" in args:
        return (args["gkey"],
                float(args.get("serialize_ms", 0.0)) / 1e3,
                float(args.get("wait_ms", 0.0)) / 1e3,
                float(args.get("copy_ms", 0.0)) / 1e3,
                int(args.get("bytes", 0)))
    if "meta" in args:
        return tuple(args["meta"])
    return None


def trace_from_chrome(payload: dict) -> MergedTrace:
    """Rebuild a :class:`MergedTrace` from an exported document.

    This is how ``repro report`` analyses a trace file offline; times
    come back in seconds relative to the original base (absolute bases
    are not preserved, which no analysis needs).
    """
    spans = []
    for ev in payload.get("traceEvents", []):
        if not isinstance(ev, dict) or ev.get("ph") != "X":
            continue
        t0 = float(ev["ts"]) / 1e6
        t1 = t0 + float(ev["dur"]) / 1e6
        spans.append(TraceSpan(
            name=str(ev["name"]), cat=str(ev["cat"]), t0=t0, t1=t1,
            pid=int(ev["pid"]), tid=int(ev["tid"]),
            meta=_meta_from_args(str(ev["cat"]), ev.get("args")),
        ))
    workers: Dict[int, dict] = {}
    meta = payload.get("repro") or {}
    for pid, info in (meta.get("workers") or {}).items():
        try:
            workers[int(pid)] = dict(info)
        except (TypeError, ValueError):
            continue
    # a process run's driver footprint rides in the embedded run record
    measured = meta.get("measured") or {}
    return MergedTrace(spans, workers,
                       measured.get("driver_peak_rss_bytes"))
