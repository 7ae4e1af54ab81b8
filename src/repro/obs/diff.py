"""Trace diffing: per-phase/per-category regressions between two runs.

``repro obs diff a.json b.json`` compares two Chrome-trace files (as
written by ``repro train --trace``) and produces a machine-readable
verdict: for every span category and every phase, the per-epoch seconds
of run B over run A, flagged as a regression when the ratio exceeds a
threshold *and* the absolute growth clears a noise floor.  A run
diffed against itself must report zero drift (the self-check the
observability-smoke job runs).

The comparison is shape-aware, not wall-clock-naive: categories are
compared on ``measured_epoch_breakdown`` (max-over-workers self seconds
per warm epoch), so a diff between runs with different epoch counts is
still apples to apples.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.chrome import trace_from_chrome, validate_chrome_trace

__all__ = ["DIFF_SCHEMA", "diff_traces", "format_trace_diff"]

DIFF_SCHEMA = "repro-diff/1"

#: Ratios below this absolute per-epoch growth are never regressions:
#: micro-benchmark categories jitter by microseconds run to run.
DEFAULT_MIN_SECONDS = 1e-4

DEFAULT_THRESHOLD = 1.25


def _rows(a: Dict[str, float], b: Dict[str, float], threshold: float,
          min_seconds: float, key: str) -> List[dict]:
    rows = []
    for name in sorted(set(a) | set(b)):
        a_s = float(a.get(name, 0.0))
        b_s = float(b.get(name, 0.0))
        ratio = (b_s / a_s) if a_s > 0 else (None if b_s > 0 else 1.0)
        regressed = bool(
            (b_s - a_s) > min_seconds
            and (ratio is None or ratio > threshold)
        )
        rows.append({key: name, "a_s": a_s, "b_s": b_s,
                     "ratio": ratio, "regressed": regressed})
    return rows


def diff_traces(a_payload: dict, b_payload: dict, *,
                threshold: float = DEFAULT_THRESHOLD,
                min_seconds: float = DEFAULT_MIN_SECONDS,
                a_name: str = "a", b_name: str = "b") -> dict:
    """Compare two Chrome-trace payloads; returns a ``repro-diff/1`` doc.

    ``threshold`` is the B/A per-epoch-seconds ratio above which a
    category or phase counts as regressed (with ``min_seconds`` as an
    absolute-growth noise floor).  Both payloads are validated first;
    an invalid trace raises ``ValueError`` rather than producing a
    verdict from garbage.
    """
    for label, payload in ((a_name, a_payload), (b_name, b_payload)):
        problems = validate_chrome_trace(payload)
        if problems:
            raise ValueError(
                f"trace {label!r} failed validation: "
                + "; ".join(problems[:5]))
    ta = trace_from_chrome(a_payload)
    tb = trace_from_chrome(b_payload)
    cat_a = ta.measured_epoch_breakdown(skip_first=True)
    cat_b = tb.measured_epoch_breakdown(skip_first=True)
    ph_a = {name: row["seconds"]
            for name, row in ta.phase_breakdown(skip_first=True).items()}
    ph_b = {name: row["seconds"]
            for name, row in tb.phase_breakdown(skip_first=True).items()}
    categories = _rows(cat_a, cat_b, threshold, min_seconds, "category")
    phases = _rows(ph_a, ph_b, threshold, min_seconds, "phase")

    sa, sb = ta.summary(), tb.summary()
    wall_a = (a_payload.get("repro") or {}).get("wall_seconds")
    wall_b = (b_payload.get("repro") or {}).get("wall_seconds")
    regressions = ([f"category {r['category']}" for r in categories
                    if r["regressed"]]
                   + [f"phase {r['phase']}" for r in phases
                      if r["regressed"]])
    ratios = [r["ratio"] for r in categories + phases
              if r["ratio"] is not None]
    return {
        "schema": DIFF_SCHEMA,
        "a": {"name": a_name, "epochs": sa.get("epochs"),
              "workers": len(ta.workers), "wall_seconds": wall_a},
        "b": {"name": b_name, "epochs": sb.get("epochs"),
              "workers": len(tb.workers), "wall_seconds": wall_b},
        "threshold": threshold,
        "min_seconds": min_seconds,
        "categories": categories,
        "phases": phases,
        "max_drift": max((abs(r - 1.0) for r in ratios), default=0.0),
        "regressions": regressions,
        "verdict": "regression" if regressions else "ok",
    }


def _num(v: Optional[float], unit: str = "") -> str:
    if v is None:
        return "-"
    return f"{v * 1e3:.3f}{unit}" if unit == "ms" else f"{v:.2f}x"


def format_trace_diff(report: dict) -> str:
    """Human-readable rendering of a :func:`diff_traces` document."""
    lines = [
        f"trace diff ({report['a']['name']} -> {report['b']['name']}): "
        f"verdict {report['verdict'].upper()}, "
        f"max drift {report['max_drift'] * 100:.1f}%, "
        f"threshold {report['threshold']:.2f}x",
    ]
    for key, rows in (("category", report["categories"]),
                      ("phase", report["phases"])):
        if not rows:
            continue
        lines.append("")
        header = (key, "a ms/epoch", "b ms/epoch", "ratio", "")
        widths = [max(len(header[0]), *(len(r[key]) for r in rows)),
                  10, 10, 6, 14]
        lines.append("  ".join(str(h).ljust(w)
                               for h, w in zip(header, widths)))
        for r in rows:
            flag = "<- REGRESSION" if r["regressed"] else ""
            lines.append("  ".join([
                r[key].ljust(widths[0]),
                _num(r["a_s"], "ms").rjust(widths[1]),
                _num(r["b_s"], "ms").rjust(widths[2]),
                (_num(r["ratio"]) if r["ratio"] is not None
                 else "new").rjust(widths[3]),
                flag,
            ]).rstrip())
    if report["regressions"]:
        lines.append("")
        lines.append("regressions: " + ", ".join(report["regressions"]))
    return "\n".join(lines)
