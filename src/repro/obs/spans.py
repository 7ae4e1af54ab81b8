"""Low-overhead wall-clock span recording.

The ledger (:mod:`repro.comm.tracker`) answers "what *should* this epoch
cost on the modeled machine"; spans answer "where did the wall clock
*actually* go".  A :class:`SpanRecorder` is a preallocated ring buffer of
``(name, category, t0, t1, meta)`` tuples stamped with
``time.monotonic()`` -- no allocation beyond the tuple itself, no locks
(each process records into its own recorder), and **~zero cost when
disabled**: instrumentation sites read the module global :data:`ACTIVE`
once and skip both clock calls when it is ``None``::

    rec = _spans.ACTIVE
    if rec is None:
        out = do_work()
    else:
        t0 = rec.clock()
        out = do_work()
        rec.record("bcast", Category.DCOMM, t0, rec.clock())

Spans are strictly observational: they never touch the
:class:`~repro.comm.tracker.CommTracker` ledger, so traced and untraced
runs stay bit-identical in losses and ledger bytes (tested).  On the
process backend each worker enables its own recorder for the duration of
a resident ``fit`` and the drained spans ride back on the existing
single fit-result dispatch (:mod:`repro.parallel.backend`).

This module is deliberately stdlib-only so the hot paths
(:mod:`repro.dist.base`, :mod:`repro.parallel.channel`) can import it
without pulling in anything else.
"""

from __future__ import annotations

import time
from typing import Any, List, Optional, Tuple

__all__ = [
    "ACTIVE",
    "DEFAULT_CAPACITY",
    "SPAN_CATEGORIES",
    "SpanRecorder",
    "check_capacity",
    "disable",
    "enable",
    "is_enabled",
]

#: Default ring capacity: at ~5 ledger categories x a few dozen spans per
#: epoch, 64k spans cover hundreds of epochs before the ring wraps.
DEFAULT_CAPACITY = 65536

#: Every category a span may carry: the ledger's Fig. 3 categories
#: (mirroring ``Category.ALL`` without importing it) plus the two
#: obs-only ones -- ``epoch`` (one span per training epoch) and ``xchg``
#: (one span per channel exchange, from its post to its collect).
SPAN_CATEGORIES = ("scomm", "dcomm", "trpose", "spmm", "misc",
                   "epoch", "xchg")

#: A raw span as stored in the ring: ``(name, category, t0, t1, meta)``
#: with monotonic-clock endpoint seconds and an optional small tuple of
#: site-specific detail (epoch index; exchange phase seconds).
RawSpan = Tuple[str, str, float, float, Optional[tuple]]


def check_capacity(capacity: int) -> int:
    """``capacity`` if it is a usable ring size, else ``ValueError``."""
    if capacity < 1:
        raise ValueError(f"span capacity must be >= 1, got {capacity}")
    return capacity


class SpanRecorder:
    """A preallocated ring buffer of wall-clock spans.

    When the ring is full the oldest spans are overwritten (the most
    recent window survives) and :attr:`dropped` counts the casualties --
    a trace must degrade by forgetting the distant past, never by
    stalling the hot path with a growing list.
    """

    __slots__ = ("capacity", "dropped", "clock", "_ring", "_n")

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = check_capacity(capacity)
        #: spans overwritten because the ring wrapped
        self.dropped = 0
        #: the clock spans are stamped with; monotonic so merging across
        #: processes reduces to a per-worker offset (same host: zero)
        self.clock = time.monotonic
        self._ring: List[Optional[RawSpan]] = [None] * capacity
        self._n = 0

    def __len__(self) -> int:
        return min(self._n, self.capacity)

    def record(self, name: str, category: str, t0: float, t1: float,
               meta: Optional[tuple] = None) -> None:
        """Append one completed span (endpoints from :attr:`clock`)."""
        i = self._n
        if i >= self.capacity:
            self.dropped += 1
        self._ring[i % self.capacity] = (name, category, t0, t1, meta)
        self._n = i + 1

    def drain(self) -> List[RawSpan]:
        """All recorded spans in record order; resets the ring.

        :attr:`dropped` is left readable so callers can report how much
        history the ring forgot.
        """
        if self._n <= self.capacity:
            out = [s for s in self._ring[: self._n]]
        else:
            i = self._n % self.capacity
            out = [s for s in self._ring[i:] + self._ring[:i]]
        self._ring = [None] * self.capacity
        self._n = 0
        return out


#: The process-wide recorder instrumentation sites consult.  ``None``
#: means tracing is off and every site skips its clock calls.
ACTIVE: Optional[SpanRecorder] = None


def enable(capacity: int = DEFAULT_CAPACITY) -> SpanRecorder:
    """Install (and return) a fresh recorder as the active one."""
    global ACTIVE
    ACTIVE = SpanRecorder(capacity)
    return ACTIVE


def disable() -> Optional[SpanRecorder]:
    """Deactivate tracing; returns the recorder that was active."""
    global ACTIVE
    rec, ACTIVE = ACTIVE, None
    return rec


def is_enabled() -> bool:
    return ACTIVE is not None
