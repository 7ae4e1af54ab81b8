"""Merging worker span streams into one driver-clock trace.

Each process records spans against its own ``time.monotonic()``.  On one
host that clock is system-wide, so worker and driver timestamps already
share a base and the merge is a concatenation.  Across hosts (the TCP
transport) each host has its own monotonic base, so the driver aligns
every worker stream by the offset between its fit-dispatch timestamp and
the worker's fit-start timestamp.  That offset includes the command
queue latency (milliseconds), which would *corrupt* same-host traces --
so it is only applied when it exceeds :data:`CLOCK_SKEW_THRESHOLD`
seconds, i.e. when the bases are unmistakably different clocks.

:class:`MergedTrace` is the analysis surface: per-category wall seconds
with correct nesting (an SpMM span's time excludes the broadcast it
contains), per-epoch stats and the pacesetting worker, and the exchange
wait/serialize/copy totals.  ``xchg`` spans are transparent to the
category accounting -- the two halves of a channel exchange (post,
collect) each happen *inside* a comm span and their time already
belongs to that span's ledger category; the exchange's own span runs
from post to collect (across whatever was computed in between when it
was posted ahead) and only carries the phase split, reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import spans as _spans

__all__ = [
    "CLOCK_SKEW_THRESHOLD",
    "MergedTrace",
    "TraceSpan",
    "merge_worker_obs",
    "traced_fit",
]

#: Monotonic bases on one host agree to microseconds; across hosts they
#: differ by uptime (typically hours).  An offset below this many
#: seconds is queue latency, not clock skew, and is not applied.
CLOCK_SKEW_THRESHOLD = 60.0

#: Sub-second slack when deciding whether span B nests inside span A
#: (guards against floating-point equality at shared endpoints).
_EPS = 1e-9


@dataclass(frozen=True)
class TraceSpan:
    """One merged span on the driver's clock.

    ``pid`` is the recording worker (0 for the driver / virtual
    backend); ``tid`` its lead mesh rank, so Chrome/Perfetto rows read
    as "worker pid, ranks from tid".
    """

    name: str
    cat: str
    t0: float
    t1: float
    pid: int
    tid: int
    meta: Optional[tuple] = None

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class MergedTrace:
    """All workers' spans on one clock, plus per-worker metadata."""

    def __init__(self, spans: Iterable[TraceSpan],
                 workers: Optional[Dict[int, dict]] = None,
                 driver_rss_bytes: Optional[int] = None):
        self.spans: List[TraceSpan] = sorted(
            spans, key=lambda s: (s.pid, s.tid, s.t0, -s.t1)
        )
        #: ``{pid: {"ranks": [...], "offset": s, "dropped": n}}``
        self.workers: Dict[int, dict] = dict(workers or {})
        #: the peak RSS of a driver whose workers ran the fit (``None``
        #: when the driver ran it and its own profile is in ``workers``)
        self.driver_rss_bytes = driver_rss_bytes
        self.base = min((s.t0 for s in self.spans), default=0.0)

    # ------------------------------------------------------------------ #
    # nesting analysis
    # ------------------------------------------------------------------ #
    def _annotated(self) -> List[Tuple[TraceSpan, float, Optional[int]]]:
        """``(span, self_seconds, epoch_index)`` for every non-xchg span.

        Self seconds subtract the span's *immediate* children, so a
        category total never double-counts nested work (the SpMM sweep
        minus the broadcasts it performs).  ``epoch_index`` is inherited
        from the nearest enclosing ``epoch`` span (``None`` outside any
        epoch, e.g. a traced predict).
        """
        cached = getattr(self, "_ann", None)
        if cached is not None:
            return cached
        ann: List[Tuple[TraceSpan, float, Optional[int]]] = []
        for _, group in groupby(self.spans, key=lambda s: (s.pid, s.tid)):
            tree = [s for s in group if s.cat != "xchg"]
            child = [0.0] * len(tree)
            epoch_of: List[Optional[int]] = [None] * len(tree)
            stack: List[int] = []
            for i, s in enumerate(tree):
                while stack and tree[stack[-1]].t1 <= s.t0 + _EPS:
                    stack.pop()
                if stack:
                    parent = stack[-1]
                    child[parent] += s.dur
                    epoch_of[i] = epoch_of[parent]
                if s.cat == "epoch" and s.meta:
                    epoch_of[i] = int(s.meta[0])
                stack.append(i)
            for i, s in enumerate(tree):
                ann.append((s, max(0.0, s.dur - child[i]), epoch_of[i]))
        self._ann = ann
        return ann

    def _epoch_indices(self) -> List[int]:
        return sorted({e for _, _, e in self._annotated() if e is not None})

    def _counted_epochs(self, skip_first: bool) -> List[int]:
        """Epoch indices the breakdowns average over (epoch 0 carries
        one-time warm-up -- workspace allocation, arena growth -- so it
        is dropped when there is anything else to average)."""
        eset = self._epoch_indices()
        if skip_first and len(eset) > 1:
            return eset[1:]
        return eset

    # ------------------------------------------------------------------ #
    # breakdowns
    # ------------------------------------------------------------------ #
    def per_worker_breakdown(self, skip_first: bool = True
                             ) -> Dict[int, Dict[str, float]]:
        """``{pid: {category: self wall seconds}}`` over counted epochs.

        The ``epoch`` span's own self time (loss finishing, optimiser
        step, everything not under a finer span) lands in ``misc`` --
        the same residual the ledger's misc category models.
        """
        counted = set(self._counted_epochs(skip_first))
        out: Dict[int, Dict[str, float]] = {}
        for s, self_s, e in self._annotated():
            if e is None or e not in counted:
                continue
            cat = "misc" if s.cat == "epoch" else s.cat
            d = out.setdefault(s.pid, {})
            d[cat] = d.get(cat, 0.0) + self_s
        return out

    def measured_epoch_breakdown(self, skip_first: bool = True
                                 ) -> Dict[str, float]:
        """Mean measured wall seconds per epoch per category.

        Aggregated as the **max over workers** -- the bulk-synchronous
        run is paced by its slowest worker, matching the ledger's
        slowest-rank-per-step convention (Fig. 3).
        """
        counted = self._counted_epochs(skip_first)
        if not counted:
            return {}
        per = self.per_worker_breakdown(skip_first)
        cats = sorted({c for d in per.values() for c in d})
        n = len(counted)
        return {
            c: max((d.get(c, 0.0) for d in per.values()), default=0.0) / n
            for c in cats
        }

    def phase_breakdown(self, skip_first: bool = True) -> Dict[str, dict]:
        """Per span name: count and summed self seconds (all workers).

        Phases are disjoint by construction (self time), so they sum to
        the per-worker totals.
        """
        counted = set(self._counted_epochs(skip_first))
        out: Dict[str, dict] = {}
        for s, self_s, e in self._annotated():
            if s.cat == "epoch" or e is None or e not in counted:
                continue
            d = out.setdefault(
                s.name, {"category": s.cat, "count": 0, "seconds": 0.0}
            )
            d["count"] += 1
            d["seconds"] += self_s
        return out

    # ------------------------------------------------------------------ #
    # epochs, stragglers, exchanges
    # ------------------------------------------------------------------ #
    def epoch_stats(self) -> List[dict]:
        """Per epoch: wall seconds per worker and who set the pace.

        The pacesetter is the worker whose epoch span *ended last* on
        the aligned clock; with a single recorder (virtual backend, one
        worker) there is no one to straggle against and the sentinel
        ``-1`` is reported.
        """
        per: Dict[int, Dict[int, Tuple[float, float]]] = {}
        for s in self.spans:
            if s.cat != "epoch":
                continue
            e = int(s.meta[0]) if s.meta else 0
            per.setdefault(e, {})[s.pid] = (s.dur, s.t1)
        out = []
        for e in sorted(per):
            pids = per[e]
            if len(pids) <= 1:
                pace = -1
            else:
                pace = max(pids, key=lambda p: pids[p][1])
            out.append({
                "epoch": e,
                "seconds": max(d for d, _ in pids.values()),
                "pacesetter": pace,
                "per_worker": {p: d for p, (d, _) in sorted(pids.items())},
            })
        return out

    def straggler_counts(self) -> Dict[int, int]:
        """How many epochs each worker paced (``-1``: nothing to pace)."""
        out: Dict[int, int] = {}
        for rec in self.epoch_stats():
            p = rec["pacesetter"]
            out[p] = out.get(p, 0) + 1
        return out

    def exchange_summary(self) -> dict:
        """Channel-exchange totals: wait vs serialize vs copy seconds."""
        n = 0
        dur = ser = wait = copy = 0.0
        nbytes = 0
        for s in self.spans:
            if s.cat != "xchg":
                continue
            n += 1
            dur += s.dur
            if s.meta and len(s.meta) >= 5:
                ser += float(s.meta[1])
                wait += float(s.meta[2])
                copy += float(s.meta[3])
                nbytes += int(s.meta[4])
        return {"count": n, "seconds": dur, "serialize_s": ser,
                "wait_s": wait, "copy_s": copy, "bytes_sent": nbytes}

    def profile_summary(self) -> Optional[dict]:
        """Run-level kernel-profile summary (``None`` if no worker sent one).

        Folds the per-worker :mod:`repro.obs.profile` snapshots that
        rode back on the fit dispatch (kernel counters sum; memory
        gauges take the worst worker, and every process's peak RSS is
        kept beside their sum).
        """
        blobs = [info.get("profile")
                 for _, info in sorted(self.workers.items())]
        if not any(blobs):
            return None
        from repro.obs.profile import merge_profiles
        return merge_profiles(blobs, self.driver_rss_bytes)

    # ------------------------------------------------------------------ #
    def summary(self) -> dict:
        """A JSON-able digest (the ``--json`` / drift-report input)."""
        epochs = self.epoch_stats()
        out = {
            "spans": len(self.spans),
            "epochs": len(epochs),
            "epoch_seconds": [round(r["seconds"], 9) for r in epochs],
            "measured_epoch_breakdown": self.measured_epoch_breakdown(),
            "stragglers": {str(k): v
                           for k, v in self.straggler_counts().items()},
            "exchange": self.exchange_summary(),
            "workers": {str(pid): dict(info)
                        for pid, info in sorted(self.workers.items())},
            "dropped": sum(int(info.get("dropped", 0))
                           for info in self.workers.values()),
        }
        if self.driver_rss_bytes is not None:
            out["driver_peak_rss_bytes"] = self.driver_rss_bytes
        profile = self.profile_summary()
        if profile is not None:
            out["profile"] = profile
        return out


def merge_worker_obs(blobs: Sequence[Optional[dict]],
                     t_dispatch: Optional[float] = None,
                     skew_threshold: float = CLOCK_SKEW_THRESHOLD,
                     driver_rss_bytes: Optional[int] = None
                     ) -> MergedTrace:
    """Merge per-worker obs blobs (see ``backend._handle``'s fit path).

    ``t_dispatch`` is the driver's monotonic timestamp just before the
    fit dispatch; a worker whose fit-start timestamp differs by more
    than ``skew_threshold`` is on another host's clock and its spans are
    shifted onto the driver's.  Same-host offsets (queue latency) are
    left at zero -- the clocks already agree.  ``driver_rss_bytes`` is
    the dispatching driver's peak RSS, for the run's footprint.
    """
    spans: List[TraceSpan] = []
    workers: Dict[int, dict] = {}
    for blob in blobs:
        if not blob:
            continue
        offset = 0.0
        if t_dispatch is not None:
            raw = t_dispatch - float(blob.get("align", t_dispatch))
            if abs(raw) >= skew_threshold:
                offset = raw
        pid = int(blob.get("worker", 0))
        ranks = list(blob.get("ranks") or [pid])
        tid = min(ranks)
        raw_spans = blob.get("spans") or []
        for name, cat, t0, t1, meta in raw_spans:
            spans.append(TraceSpan(name, cat, t0 + offset, t1 + offset,
                                   pid, tid, meta))
        workers[pid] = {
            "ranks": ranks,
            "offset": offset,
            "dropped": int(blob.get("dropped", 0)),
            "nspans": len(raw_spans),
        }
        if blob.get("profile"):
            workers[pid]["profile"] = blob["profile"]
    return MergedTrace(spans, workers, driver_rss_bytes)


def traced_fit(algo, features, labels, epochs: int, mask=None,
               capacity: int = _spans.DEFAULT_CAPACITY, **fit_kwargs):
    """Run ``algo.fit`` under span tracing; returns ``(history, trace)``.

    Works on both backends: a :class:`~repro.parallel.ParallelAlgorithm`
    piggy-backs worker-recorded spans on its single fit dispatch; any
    other algorithm (virtual runtime) records driver-side spans around
    the same instrumented epoch loop.  Tracing never touches the ledger,
    so the returned history is bit-identical to an untraced fit.

    A traced fit also profiles its kernels (:mod:`repro.obs.profile`);
    the per-worker snapshots land in the trace's worker table and
    ``MergedTrace.profile_summary()``.

    Extra keyword arguments (e.g. ``checkpoint_path`` /
    ``checkpoint_every``) pass straight through to ``algo.fit``.
    """
    try:
        from repro.parallel.runtime import ParallelAlgorithm
    except ImportError:  # pragma: no cover - parallel always importable
        ParallelAlgorithm = None
    if ParallelAlgorithm is not None and isinstance(algo, ParallelAlgorithm):
        history = algo.fit(features, labels, epochs, mask=mask,
                           trace=int(capacity),
                           **fit_kwargs)
        return history, algo.last_trace
    from repro.obs import profile as _profile
    rec = _spans.enable(capacity)
    prof = _profile.enable()
    align = rec.clock()
    try:
        history = algo.fit(features, labels, epochs, mask=mask,
                           **fit_kwargs)
    finally:
        _spans.disable()
        _profile.disable()
    rt = getattr(algo, "rt", None)
    ranks = list(range(rt.size)) if rt is not None else [0]
    blob = {
        "worker": 0,
        "ranks": ranks,
        "align": align,
        "spans": rec.drain(),
        "dropped": rec.dropped,
        "profile": prof.snapshot(process="driver"),
    }
    return history, merge_worker_obs([blob], align)
