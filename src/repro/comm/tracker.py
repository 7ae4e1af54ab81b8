"""Per-rank, per-category accounting of communication and compute.

The paper's Figure 3 breaks epoch time into five categories::

    scomm   communicating sparse matrices (adjacency blocks)
    dcomm   communicating dense matrices (activations, gradients, partials)
    trpose  computing/communicating matrix transposes
    spmm    local sparse x dense multiplies
    misc    everything else (local GEMM, elementwise ops, optimiser)

The tracker records, for every virtual rank, modeled seconds plus exact
byte/message counts in each category.  The distributed algorithms are bulk
synchronous: an epoch is a sequence of *steps* (a collective or a local
kernel applied across ranks) and the epoch's wall-clock is the sum over
steps of the **maximum** per-rank time within that step.  The tracker
supports that reduction via :meth:`CommTracker.step_scope`.
"""

from __future__ import annotations

import struct
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

__all__ = ["Category", "CommTracker", "CategoryTotals"]


class Category:
    """Canonical category names (mirroring Fig. 3's legend)."""

    SCOMM = "scomm"
    DCOMM = "dcomm"
    TRPOSE = "trpose"
    SPMM = "spmm"
    MISC = "misc"

    ALL = (SCOMM, DCOMM, TRPOSE, SPMM, MISC)
    #: Categories that represent network traffic (have byte counts).
    COMM = (SCOMM, DCOMM, TRPOSE)


@dataclass
class CategoryTotals:
    """Aggregated totals for one category."""

    seconds: float = 0.0
    bytes: int = 0
    messages: int = 0
    flops: int = 0

    def add(self, seconds: float = 0.0, nbytes: int = 0, messages: int = 0,
            flops: int = 0) -> None:
        self.seconds += seconds
        self.bytes += nbytes
        self.messages += messages
        self.flops += flops

    def merged(self, other: "CategoryTotals") -> "CategoryTotals":
        return CategoryTotals(
            self.seconds + other.seconds,
            self.bytes + other.bytes,
            self.messages + other.messages,
            self.flops + other.flops,
        )


class _StepScope:
    """Context manager delimiting one bulk-synchronous step.

    Only the outermost scope "owns" the step: nested scopes are no-ops on
    enter and exit, flattening into the owner exactly as the previous
    generator-based implementation did.
    """

    __slots__ = ("_tracker", "_owner")

    def __init__(self, tracker: "CommTracker"):
        self._tracker = tracker
        self._owner = False

    def __enter__(self) -> None:
        tracker = self._tracker
        if tracker._step is None:
            tracker._step = [{} for _ in range(tracker.nranks)]
            self._owner = True

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self._owner:
            return False
        tracker = self._tracker
        step, tracker._step = tracker._step, None
        slowest = None
        worst = 0.0
        for rank_step in step:
            if rank_step:
                total = sum(rank_step.values())
                if total > worst:
                    worst = total
                    slowest = rank_step
        if slowest is not None:
            wall = tracker.wall
            for category, secs in slowest.items():
                wall[category] += secs
        tracker._nsteps += 1
        return False


class CommTracker:
    """Accounting ledger for a virtual distributed run.

    Two views are kept simultaneously:

    * **per-rank totals** -- exact bytes/messages/flops each rank incurred,
      used to validate the paper's per-process bounds and to study load
      balance;
    * **bulk-synchronous wall clock** -- within each step the slowest rank
      sets the pace; ``wall_seconds`` accumulates those maxima, broken down
      by category so Fig. 3 can be regenerated.

    Steps are delimited with :meth:`step_scope`; charges recorded outside a
    scope form an implicit single-charge step (max == the one charge).
    """

    def __init__(self, nranks: int):
        if nranks < 1:
            raise ValueError(f"tracker needs >= 1 rank, got {nranks}")
        self.nranks = nranks
        self.per_rank: List[Dict[str, CategoryTotals]] = [
            defaultdict(CategoryTotals) for _ in range(nranks)
        ]
        #: wall-clock seconds per category under the bulk-synchronous model
        self.wall: Dict[str, float] = defaultdict(float)
        self._step: Optional[List[Dict[str, float]]] = None
        self._nsteps = 0

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def charge(
        self,
        rank: int,
        category: str,
        seconds: float,
        nbytes: int = 0,
        messages: int = 0,
        flops: int = 0,
    ) -> None:
        """Record work done by / traffic through one rank."""
        if not 0 <= rank < self.nranks:
            raise IndexError(f"rank {rank} out of range (nranks={self.nranks})")
        if category not in Category.ALL:
            raise ValueError(f"unknown category {category!r}; use Category.*")
        if seconds < 0 or nbytes < 0:
            raise ValueError("negative charge")
        self.per_rank[rank][category].add(seconds, nbytes, messages, flops)
        if self._step is not None:
            self._step[rank][category] = self._step[rank].get(category, 0.0) + seconds
        else:
            # Standalone charge: it is its own step; only this rank worked,
            # so the step's max time is simply this charge.
            self.wall[category] += seconds
            self._nsteps += 1

    def charge_many(self, category: str, items: Sequence[tuple]) -> None:
        """Batched per-rank charges forming one bulk-synchronous step.

        ``items`` holds ``(rank, seconds, nbytes, messages, flops)``
        tuples -- the shape the distributed algorithms cache for their
        static per-stage kernel charges, so steady-state epochs charge
        straight from the precomputed list.  Semantics match issuing the
        individual :meth:`charge` calls inside one :meth:`step_scope`.
        """
        if category not in Category.ALL:
            raise ValueError(f"unknown category {category!r}; use Category.*")
        if self._step is None:
            with self.step_scope():
                self._charge_many_in_step(category, items)
        else:
            self._charge_many_in_step(category, items)

    def _charge_many_in_step(self, category: str, items) -> None:
        nranks = self.nranks
        per_rank = self.per_rank
        step = self._step
        for rank, seconds, nbytes, messages, flops in items:
            if not 0 <= rank < nranks:
                raise IndexError(
                    f"rank {rank} out of range (nranks={nranks})"
                )
            if seconds < 0 or nbytes < 0:
                raise ValueError("negative charge")
            t = per_rank[rank][category]
            t.seconds += seconds
            t.bytes += nbytes
            t.messages += messages
            t.flops += flops
            d = step[rank]
            d[category] = d.get(category, 0.0) + seconds

    def step_scope(self) -> "_StepScope":
        """Delimit one bulk-synchronous step.

        All charges inside the scope happen "in parallel" across ranks; on
        exit the per-category wall clock advances by the **maximum**
        per-rank time in the step, attributed per category in proportion to
        the slowest rank's own category split.  Nested scopes flatten into
        the outer step, which keeps call sites composable (an algorithm
        step may call a helper that also opens a scope).

        Implemented as a small slotted context-manager class rather than a
        ``contextlib`` generator: scopes delimit every collective and every
        charged kernel sweep, so the generator machinery was measurable
        overhead on the executed hot path.
        """
        return _StepScope(self)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def nsteps(self) -> int:
        """Number of bulk-synchronous steps recorded."""
        return self._nsteps

    def wall_seconds(self, category: Optional[str] = None) -> float:
        """Bulk-synchronous wall clock, total or for one category."""
        if category is None:
            return sum(self.wall.values())
        return self.wall.get(category, 0.0)

    def rank_totals(self, rank: int) -> Mapping[str, CategoryTotals]:
        return self.per_rank[rank]

    def total_bytes(self, category: Optional[str] = None) -> int:
        """Exact bytes over all ranks (total, or for one category)."""
        cats = Category.ALL if category is None else (category,)
        return sum(
            self.per_rank[r][c].bytes for r in range(self.nranks) for c in cats
        )

    def comm_bytes(self) -> int:
        """Total network traffic (scomm + dcomm + trpose)."""
        return sum(self.total_bytes(c) for c in Category.COMM)

    def max_rank_bytes(self, category: Optional[str] = None) -> int:
        """Largest per-rank byte count -- the paper's per-process metric."""
        cats = Category.ALL if category is None else (category,)
        return max(
            sum(self.per_rank[r][c].bytes for c in cats)
            for r in range(self.nranks)
        )

    def total_messages(self, category: Optional[str] = None) -> int:
        cats = Category.ALL if category is None else (category,)
        return sum(
            self.per_rank[r][c].messages for r in range(self.nranks) for c in cats
        )

    def total_flops(self, category: Optional[str] = None) -> int:
        cats = Category.ALL if category is None else (category,)
        return sum(
            self.per_rank[r][c].flops for r in range(self.nranks) for c in cats
        )

    def breakdown(self) -> Dict[str, float]:
        """Wall seconds per category -- one stacked bar of Fig. 3."""
        return {c: self.wall.get(c, 0.0) for c in Category.ALL}

    def state_bytes(self) -> bytes:
        """Canonical byte serialisation of the full ledger state.

        Fixed little-endian layout -- per-rank ``(seconds, bytes,
        messages, flops)`` in :data:`Category.ALL` order, then the wall
        clock per category, then the step count.  Two trackers are
        byte-identical here iff every number in their ledgers is equal,
        which is what the process backend's digest checks hash.
        """
        pack = struct.pack
        parts = []
        for r in range(self.nranks):
            totals = self.per_rank[r]
            for c in Category.ALL:
                t = totals[c]
                parts.append(pack("<dqqq", t.seconds, t.bytes,
                                  t.messages, t.flops))
        for c in Category.ALL:
            parts.append(pack("<d", self.wall.get(c, 0.0)))
        parts.append(pack("<q", self._nsteps))
        return b"".join(parts)

    def restore_state_bytes(self, data: bytes) -> None:
        """Install a ledger serialised by :meth:`state_bytes`.

        The inverse of :meth:`state_bytes` for checkpoint/resume:
        overwrites every total so a resumed run's ledger continues
        byte-for-byte from where the saved run stopped.  The blob's
        length is validated against this tracker's rank count -- a
        checkpoint from a different ``P`` fails loudly here instead of
        silently misattributing ranks.
        """
        ncat = len(Category.ALL)
        expected = self.nranks * ncat * 32 + ncat * 8 + 8
        if len(data) != expected:
            raise ValueError(
                f"ledger state is {len(data)} bytes but a {self.nranks}"
                f"-rank tracker serialises to {expected}; checkpoint "
                f"was written for a different configuration")
        unpack = struct.unpack_from
        off = 0
        per_rank: List[Dict[str, CategoryTotals]] = []
        for _ in range(self.nranks):
            totals: Dict[str, CategoryTotals] = defaultdict(CategoryTotals)
            for c in Category.ALL:
                seconds, nbytes, messages, flops = unpack("<dqqq", data, off)
                off += 32
                totals[c] = CategoryTotals(seconds, nbytes, messages, flops)
            per_rank.append(totals)
        wall: Dict[str, float] = defaultdict(float)
        for c in Category.ALL:
            (wall[c],) = unpack("<d", data, off)
            off += 8
        (nsteps,) = unpack("<q", data, off)
        self.per_rank = per_rank
        self.wall = wall
        self._nsteps = int(nsteps)
        self._step = None

    def snapshot(self) -> "CommTracker":
        """Deep copy of the current ledger (for before/after deltas)."""
        clone = CommTracker(self.nranks)
        for r in range(self.nranks):
            for c, t in self.per_rank[r].items():
                clone.per_rank[r][c] = CategoryTotals(
                    t.seconds, t.bytes, t.messages, t.flops
                )
        clone.wall = defaultdict(float, self.wall)
        clone._nsteps = self._nsteps
        return clone

    def delta_since(self, before: "CommTracker") -> Dict[str, CategoryTotals]:
        """Aggregate category totals accumulated since ``before``."""
        out: Dict[str, CategoryTotals] = {}
        for c in Category.ALL:
            cur = CategoryTotals()
            prev = CategoryTotals()
            for r in range(self.nranks):
                cur = cur.merged(self.per_rank[r][c])
                prev = prev.merged(before.per_rank[r][c])
            out[c] = CategoryTotals(
                cur.seconds - prev.seconds,
                cur.bytes - prev.bytes,
                cur.messages - prev.messages,
                cur.flops - prev.flops,
            )
        return out

    def reset(self) -> None:
        """Clear all accounting (keeps the rank count)."""
        self.__init__(self.nranks)
