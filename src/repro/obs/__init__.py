"""repro.obs -- wall-clock observability for the training runtimes.

A run has one record (schema ``repro-run/1``, built by
:func:`~repro.obs.report.build_trace_meta`): its config, the modeled
ledger side, the measured span side and the backend's counters.
``repro train --json`` prints it and ``--trace`` embeds it in the
Chrome trace under ``"repro"``.  The modules, each usable alone:

* :mod:`repro.obs.spans` -- the in-process span recorder instrumentation
  sites consult (~zero cost when disabled);
* :mod:`repro.obs.tracing` -- merging worker span streams onto the
  driver's clock and analysing them (breakdowns, stragglers, exchanges);
* :mod:`repro.obs.chrome` -- Chrome/Perfetto trace-event export,
  validation, and re-import;
* :mod:`repro.obs.report` -- the run record and the model-vs-measured
  drift report behind ``repro report``;
* :mod:`repro.obs.events` -- the hash-chained JSON-lines event log
  (run lifecycle, epochs, checkpoints, recovery taxonomy);
* :mod:`repro.obs.profile` -- per-kernel flop/byte/second counters and
  memory gauges, on for every traced fit;
* :mod:`repro.obs.diff` -- per-phase/per-category trace diffing with a
  machine-readable verdict (``repro obs diff``).

Everything here is observational: spans never touch the ledger, so
traced runs stay bit-identical to untraced ones in losses and ledger
bytes.
"""

from repro.obs.chrome import (
    chrome_events,
    export_chrome_trace,
    trace_from_chrome,
    validate_chrome_trace,
)
from repro.obs.diff import (
    DIFF_SCHEMA,
    diff_traces,
    format_trace_diff,
)
from repro.obs.events import (
    EVENTS_SCHEMA,
    EVENT_TYPES,
    EventLog,
    read_event_log,
    validate_event_log,
)
from repro.obs.profile import (
    KernelProfiler,
    merge_profiles,
    peak_rss_bytes,
)
from repro.obs.report import (
    build_trace_meta,
    drift_report,
    format_drift_report,
)
from repro.obs.spans import (
    DEFAULT_CAPACITY,
    SPAN_CATEGORIES,
    SpanRecorder,
    disable,
    enable,
    is_enabled,
)
from repro.obs.tracing import (
    MergedTrace,
    TraceSpan,
    merge_worker_obs,
    traced_fit,
)

__all__ = [
    "DEFAULT_CAPACITY",
    "DIFF_SCHEMA",
    "EVENTS_SCHEMA",
    "EVENT_TYPES",
    "EventLog",
    "KernelProfiler",
    "MergedTrace",
    "SPAN_CATEGORIES",
    "SpanRecorder",
    "TraceSpan",
    "build_trace_meta",
    "chrome_events",
    "diff_traces",
    "disable",
    "drift_report",
    "enable",
    "export_chrome_trace",
    "format_drift_report",
    "format_trace_diff",
    "is_enabled",
    "merge_profiles",
    "merge_worker_obs",
    "peak_rss_bytes",
    "read_event_log",
    "trace_from_chrome",
    "traced_fit",
    "validate_chrome_trace",
    "validate_event_log",
]
