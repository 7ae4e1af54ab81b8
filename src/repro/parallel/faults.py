"""Deterministic fault injection for the process backend.

Chaos testing a distributed trainer only proves something when the
chaos is *reproducible*: the same plan must kill the same worker at the
same epoch on every run, so a recovery bug bisects like any other
regression.  This module parses a declarative fault plan and exposes
the few narrow hooks the transport layers consult at their named
injection points.

Grammar
-------
A plan is a semicolon-separated list of fault specs::

    action:key=value,key=value,...

Actions:

``kill``
    The worker process exits hard (``os._exit``) -- the driver sees a
    dead process via the heartbeat's exitcode sweep.
``hang``
    The worker spins forever without touching its heartbeat slot -- the
    driver sees a no-progress window expire.
``delay``
    The worker sleeps ``seconds`` once, then continues -- exercises the
    heartbeat's progress-extension logic without failing anything.
``drop``
    TCP only: the outbound frame for the matching exchange is never
    posted, so the receiving peer times out (a transport error).
``corrupt``
    TCP only: the outbound frame's payload has its first byte flipped,
    so the receiver's unpickle raises (a transport error).

Keys:

``worker=N``    which worker the spec applies to (required).
``epoch=N``     fire at the end of live epoch ``N`` (kill/hang/delay).
``exchange=N``  fire at the worker's ``N``-th channel exchange.
``seconds=F``   sleep length for ``delay`` (default 1.0).
``attempt=N``   only fire during the driver's ``N``-th pool attempt
                (1-based; omitted means every attempt).

Each spec fires at most once per worker-process lifetime; because a
respawned worker is a fresh process, plans re-arm across restarts --
deliberate, so a kill with no checkpoint path exhausts the restart
budget and exercises that error path too.

Faults activate via ``REPRO_PARALLEL_FAULTS`` or ``repro train
--faults``; parsing is strict so a typo fails fast at the driver, not
silently in a worker.  The variable is read driver-side only
(:class:`~repro.parallel.backend.ProcessBackend`), which ships the plan
text to each worker: a worker is forked from a long-lived template and
must not consult an environment that may predate the plan.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["FaultSpec", "FaultPlan", "FAULT_ACTIONS"]

FAULT_ACTIONS = ("kill", "hang", "delay", "drop", "corrupt")

#: Actions applied to outbound TCP frames rather than executed inline.
FRAME_ACTIONS = ("drop", "corrupt")

_INT_KEYS = ("worker", "epoch", "exchange", "attempt")


@dataclass(frozen=True)
class FaultSpec:
    """One parsed fault: an action plus its trigger coordinates."""

    action: str
    worker: int
    epoch: Optional[int] = None
    exchange: Optional[int] = None
    seconds: float = 1.0
    attempt: Optional[int] = None

    def describe(self) -> str:
        parts = [f"worker={self.worker}"]
        if self.epoch is not None:
            parts.append(f"epoch={self.epoch}")
        if self.exchange is not None:
            parts.append(f"exchange={self.exchange}")
        if self.action == "delay":
            parts.append(f"seconds={self.seconds}")
        if self.attempt is not None:
            parts.append(f"attempt={self.attempt}")
        return f"{self.action}:" + ",".join(parts)


def _parse_spec(text: str) -> FaultSpec:
    action, sep, rest = text.partition(":")
    action = action.strip()
    if not sep or action not in FAULT_ACTIONS:
        raise ValueError(
            f"bad fault spec {text!r}: expected one of "
            f"{'/'.join(FAULT_ACTIONS)} followed by ':key=value,...'"
        )
    kwargs = {}
    for item in rest.split(","):
        item = item.strip()
        if not item:
            continue
        key, eq, value = item.partition("=")
        key = key.strip()
        value = value.strip()
        if not eq or not value:
            raise ValueError(
                f"bad fault spec {text!r}: {item!r} is not key=value")
        if key in _INT_KEYS:
            try:
                kwargs[key] = int(value)
            except ValueError:
                raise ValueError(
                    f"bad fault spec {text!r}: {key} wants an integer, "
                    f"got {value!r}") from None
        elif key == "seconds":
            try:
                kwargs[key] = float(value)
            except ValueError:
                raise ValueError(
                    f"bad fault spec {text!r}: seconds wants a number, "
                    f"got {value!r}") from None
        else:
            raise ValueError(
                f"bad fault spec {text!r}: unknown key {key!r}")
    if "worker" not in kwargs:
        raise ValueError(f"bad fault spec {text!r}: worker= is required")
    if action in FRAME_ACTIONS and kwargs.get("exchange") is None:
        raise ValueError(
            f"bad fault spec {text!r}: {action} needs exchange=")
    if kwargs.get("epoch") is None and kwargs.get("exchange") is None:
        raise ValueError(
            f"bad fault spec {text!r}: need epoch= or exchange=")
    return FaultSpec(action=action, **kwargs)


def parse_plan(text: str) -> List[FaultSpec]:
    """Parse a full fault-plan string into specs (strict)."""
    specs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk:
            specs.append(_parse_spec(chunk))
    if not specs:
        raise ValueError("fault plan is set but contains no specs")
    return specs


@dataclass
class FaultPlan:
    """The specs that apply to one worker, with fire-once bookkeeping.

    ``attempt`` is stamped by the worker per fit dispatch (the driver
    threads the pool-attempt counter through the checkpoint options) so
    ``attempt=``-scoped specs can target e.g. only the first, pre-
    recovery run.
    """

    worker_id: int
    specs: List[FaultSpec]
    attempt: int = 1
    _fired: set = field(default_factory=set)

    @classmethod
    def for_worker(cls, worker_id: int,
                   text: Optional[str]) -> Optional["FaultPlan"]:
        """Build the plan for one worker; None when nothing applies."""
        if not text:
            return None
        mine = [s for s in parse_plan(text) if s.worker == worker_id]
        if not mine:
            return None
        return cls(worker_id=worker_id, specs=mine)

    def _armed(self, spec: FaultSpec) -> bool:
        if id(spec) in self._fired:
            return False
        if spec.attempt is not None and spec.attempt != self.attempt:
            return False
        return True

    def _execute(self, spec: FaultSpec) -> None:
        self._fired.add(id(spec))
        if spec.action == "kill":
            # Hard exit: no atexit/finally cleanup, exactly like a
            # SIGKILLed or OOM-killed process.
            os._exit(13)
        elif spec.action == "hang":
            # Spin without touching the heartbeat slot so the driver's
            # no-progress window expires.
            while True:  # pragma: no cover - killed by the driver
                time.sleep(0.5)
        elif spec.action == "delay":
            time.sleep(spec.seconds)

    def on_epoch(self, epoch: int) -> None:
        """Inline hook at a live epoch boundary (after checkpointing)."""
        for spec in self.specs:
            if (spec.epoch == epoch and spec.exchange is None
                    and spec.action not in FRAME_ACTIONS
                    and self._armed(spec)):
                self._execute(spec)

    def on_exchange(self, index: int) -> None:
        """Inline hook at the start of the worker's ``index``-th exchange."""
        for spec in self.specs:
            if (spec.exchange == index
                    and spec.action not in FRAME_ACTIONS
                    and self._armed(spec)):
                self._execute(spec)

    def frame_fault(self, index: int) -> Optional[FaultSpec]:
        """Drop/corrupt spec for this exchange's outbound frame, if any.

        Consulted by the TCP transport only; shared-memory exchanges
        have no frame to mangle, so these specs no-op there (documented
        in the README's fault-plan grammar).
        """
        for spec in self.specs:
            if (spec.exchange == index
                    and spec.action in FRAME_ACTIONS
                    and self._armed(spec)):
                self._fired.add(id(spec))
                return spec
        return None
