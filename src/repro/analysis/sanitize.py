"""Runtime sanitizers: pay-to-check versions of the repo's invariants.

Three checks, all behind the obs-style zero-cost-off idiom (a module
global read once per hook, one ``is None`` test when disabled):

* **COW sanitizer** -- copy-on-write collective receipts
  (:func:`repro.comm.collectives._readonly` views) are registered with a
  content hash; :meth:`Sanitizer.verify_cow` (called at every epoch end)
  re-hashes the shared buffers and raises a :class:`SanitizerError`
  *naming the collective* when a sender mutated a buffer its peers still
  alias.  The ``writeable=False`` flag already stops receivers; this
  closes the sender-side hole the flag cannot.

* **Ledger sanitizer** -- the exact-accounting exchange (the ghost
  ``gather_rows`` path) charges precisely the bytes that cross the
  wire.  :meth:`check_exchange` recomputes the
  received payload bytes on the data plane and fails, naming the
  exchange, when they drift from the charged bytes.  (Alpha-beta
  collectives charge modeled critical-path volume by design and are out
  of scope.)

* **Exchange-order sanitizer** -- the tagged ``(group_key, sequence)``
  discipline requires that, per peer and per group, sequence numbers
  arrive strictly increasing.  :meth:`observe_tag` records each tag as
  the transports pull frames and fails on a replayed or reordered tag,
  naming the worker pair.

Enable with ``REPRO_SANITIZE=1`` or ``repro train --sanitize``.  Either
arms the driver; the process backend tells every worker it launches to
arm its own (the variable itself never reaches a worker, which is forked
from a template older than the setting), and
``backend_stats()["per_worker"]`` carries each worker's check counters.
Sanitized runs are bit-equal to unsanitized runs: every check only
*reads* training state.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "ACTIVE",
    "SanitizerError",
    "Sanitizer",
    "enable",
    "disable",
    "is_enabled",
    "maybe_enable_from_env",
]

#: Environment switch, read by the driver (``repro train`` and
#: ``ProcessBackend.start``, which forwards it to the pool's workers).
ENV_FLAG = "REPRO_SANITIZE"

#: Bound on remembered COW registrations: old receipts are superseded
#: every epoch, so a small window catches every same-epoch mutation
#: without holding the whole run's views alive.
COW_WINDOW = 256

#: Collective kinds whose receipts are *epoch-lived* (the reduction
#: family: their outputs become weights, gradients, and activation rows
#: that survive to the epoch-end digest) and are therefore sound to
#: re-hash at epoch boundaries.  Stage-scoped receipts (SUMMA
#: broadcasts, ghost rows) alias workspace
#: buffers their senders legally overwrite once the stage's consumers
#: are done; those stay protected receiver-side by ``writeable=False``
#: only.  A receipt's label is its kind on every backend, so workers
#: register exactly what the virtual runtime does.
DURABLE_COW = frozenset({"allgather", "allreduce", "reduce_scatter"})


class SanitizerError(RuntimeError):
    """An invariant the sanitizers police was violated at runtime."""


def _digest(view: np.ndarray) -> bytes:
    buf = view if view.flags.c_contiguous else np.ascontiguousarray(view)
    return hashlib.sha1(buf.tobytes()).digest()


class Sanitizer:
    """Mutable state for one sanitized process (driver or worker)."""

    def __init__(self) -> None:
        #: name -> (view, digest-at-registration); insertion-ordered so
        #: the window evicts oldest-first.
        self._cow: "OrderedDict[Tuple[str, int], Tuple[np.ndarray, bytes]]" \
            = OrderedDict()
        self._cow_n = 0
        #: (peer, group_key) -> last sequence number seen arriving.
        self._last_seq: Dict[Tuple[int, Any], int] = {}
        #: check counters, exposed for tests and the CLI summary.
        self.stats = {"cow_registered": 0, "cow_verified": 0,
                      "exchanges_checked": 0, "tags_observed": 0}

    # ------------------------------------------------------------------ #
    # copy-on-write receipts
    # ------------------------------------------------------------------ #
    def register_cow(self, name: str, view: Any) -> None:
        """Remember a shared read-only receipt and its content hash.

        Only :data:`DURABLE_COW` kinds register: epoch-end
        re-hashing is meaningless for stage-scoped workspace receipts.
        """
        if name not in DURABLE_COW or not isinstance(view, np.ndarray):
            return
        self._cow_n += 1
        self._cow[(name, self._cow_n)] = (view, _digest(view))
        self.stats["cow_registered"] += 1
        while len(self._cow) > COW_WINDOW:
            self._cow.popitem(last=False)

    def verify_cow(self, where: str = "epoch end") -> None:
        """Re-hash every live receipt; a drifted hash means some rank
        wrote through a buffer its peers still share.

        The registry drains afterwards: receipts are epoch-scoped (the
        next epoch legally refills the workspace buffers they alias),
        so each is verified once, at the end of the epoch that handed
        it out.
        """
        try:
            for (name, _), (view, digest) in self._cow.items():
                self.stats["cow_verified"] += 1
                if _digest(view) != digest:
                    raise SanitizerError(
                        f"copy-on-write violation at {where}: the shared "
                        f"receipt of collective '{name}' "
                        f"(shape {view.shape}, dtype {view.dtype}) was "
                        "mutated after it was handed out -- a sender wrote "
                        "through a buffer other ranks still alias"
                    )
        finally:
            self._cow.clear()

    # ------------------------------------------------------------------ #
    # ledger vs data plane
    # ------------------------------------------------------------------ #
    def check_exchange(self, exchange: str, charged_nbytes: int,
                       actual_nbytes: int) -> None:
        """Exact-accounting exchanges: charged bytes == received bytes."""
        self.stats["exchanges_checked"] += 1
        if int(charged_nbytes) != int(actual_nbytes):
            raise SanitizerError(
                f"ledger mismatch in exchange '{exchange}': charged "
                f"{int(charged_nbytes)} bytes but the data plane moved "
                f"{int(actual_nbytes)} bytes to local ranks"
            )

    # ------------------------------------------------------------------ #
    # tagged exchange ordering
    # ------------------------------------------------------------------ #
    def observe_tag(self, wid: int, src: int, tag: Any,
                    kind: str = "d") -> None:
        """Record one arriving ``(group_key, seq)`` tag from ``src``.

        Per ``(src, kind, group_key)`` the sequence must be strictly
        increasing in arrival order: the SPMD program posts tags in
        order over FIFO transports (data posts and acks each follow the
        shared counter), so a regression means a replayed, duplicated,
        or reordered frame.
        """
        if not (isinstance(tag, tuple) and len(tag) == 2):
            return
        gkey, seq = tag
        if not isinstance(seq, int):
            return
        self.stats["tags_observed"] += 1
        key = (src, kind, gkey)
        last = self._last_seq.get(key)
        if last is not None and seq <= last:
            raise SanitizerError(
                f"exchange-order violation on worker {wid}: peer {src} "
                f"delivered {kind!r} seq {seq} for group {gkey!r} after "
                f"seq {last} -- replayed or reordered frame"
            )
        self._last_seq[key] = seq


#: The one process-wide sanitizer; ``None`` means every hook is a single
#: global read + ``is None`` test (the obs zero-cost-off idiom).
ACTIVE: Optional[Sanitizer] = None


def enable() -> Sanitizer:
    """Install (or return) the process-wide sanitizer."""
    global ACTIVE
    if ACTIVE is None:
        ACTIVE = Sanitizer()
    return ACTIVE


def disable() -> None:
    global ACTIVE
    ACTIVE = None


def is_enabled() -> bool:
    return ACTIVE is not None


def maybe_enable_from_env() -> Optional[Sanitizer]:
    """Honour ``REPRO_SANITIZE=1`` in this process; returns the active
    sanitizer either way.  Driver-side only: a pool's workers are armed
    through their ``spec``, not through the environment."""
    if os.environ.get(ENV_FLAG, "") not in ("", "0"):
        return enable()
    return ACTIVE
