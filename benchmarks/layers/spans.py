"""The layered benchmark's own span recorder.

Spans are recorded from the harness's files, around the calls into each
``repro`` package (``graph.generate``, ``dist.fit``, ``sparse.spmm_full``
...); nothing under ``src/`` is instrumented by this recorder.  A span is
``(id, name, start, end, parent id, run id)`` on the ``perf_counter``
clock; they are kept in memory and written as one JSON document when the
run ends.

Every timed call in the harness goes through :meth:`Recorder.span`, traced
or not: the context manager always measures (``handle.seconds``) and only
*keeps* the span when the recorder is enabled, so the traced and untraced
passes time the identical code path.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List

__all__ = ["Recorder", "SpanHandle"]


class SpanHandle:
    """What ``with rec.span(...) as h`` yields; ``h.seconds`` is valid
    once the block has exited."""

    __slots__ = ("start", "end")

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store for one benchmark run (one ``run_id``)."""

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[SpanHandle]:
        handle = SpanHandle()
        if not self.enabled:
            try:
                yield handle
            finally:
                handle.end = time.perf_counter()
            return
        entry = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": handle.start,
            "end": None,
        }
        self.spans.append(entry)
        self._stack.append(entry["id"])
        try:
            yield handle
        finally:
            handle.end = time.perf_counter()
            entry["end"] = handle.end
            self._stack.pop()

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name: a span's duration minus the
        part of it its direct children cover (children of one parent
        never overlap -- the harness is single-threaded)."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        out: Dict[str, float] = {}
        for s in self.spans:
            if s["end"] is None:
                continue
            own = (s["end"] - s["start"]) - covered[s["id"]]
            out[s["name"]] = out.get(s["name"], 0.0) + max(0.0, own)
        return out

    def write(self, path: str) -> None:
        doc = {"schema": "layers-spans/1", "run": self.run_id,
               "spans": self.spans, "self_seconds": self.self_seconds()}
        with open(path, "w") as fh:
            json.dump(doc, fh)
