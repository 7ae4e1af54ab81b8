"""Communication plans: precomputed groups and splits.

The executed runtime is bulk-synchronous and *static*: every epoch of a
distributed algorithm walks the same collectives over the same groups
with the same payload shapes.  Before this layer existed each collective
call re-validated its group, re-derived ``array_split`` boundaries, and
re-allocated scratch arrays -- pure Python overhead charged to wall clock
that the alpha-beta cost model never sees.  A :class:`CommPlan` caches
those invariants once (typically at ``DistAlgorithm.setup``):

* **groups** -- validated rank tuples, interned so repeat calls are a
  dict hit instead of a per-rank range check;
* **splits** -- near-equal contiguous ``(lo, hi)`` boundaries (the
  ``numpy.array_split`` convention shared by every distribution helper).

Scratch buffers are per algorithm (:meth:`repro.dist.base.DistAlgorithm.
_ws`), not plan-held: two algorithms sharing one runtime would collide
on buffers keyed only by role and shape.

Plans only cache *structure*; they never touch the ledger, so the
charged bytes and modeled seconds are byte-for-byte identical with and
without a plan (asserted in ``tests/test_comm_plan.py`` against the
pre-plan ledger constants and the PR 2 schedule oracle).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.comm.mesh import ProcessMesh, validate_group

__all__ = ["CommPlan"]


class CommPlan:
    """Cache of communication-structure invariants for one runtime.

    Cheap to construct; every cache fills lazily on first use and is
    keyed so that repeated epochs hit the same entries.  ``hits`` /
    ``misses`` counters expose cache effectiveness to tests and
    benchmarks.
    """

    __slots__ = ("world_size", "mesh", "_groups", "_splits", "hits",
                 "misses")

    def __init__(self, world_size: int, mesh: Optional[ProcessMesh] = None):
        if world_size < 1:
            raise ValueError(f"plan needs >= 1 rank, got {world_size}")
        self.world_size = world_size
        self.mesh = mesh
        self._groups: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        self._splits: Dict[Tuple[int, int], Tuple[Tuple[int, int], ...]] = {}
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ #
    # groups
    # ------------------------------------------------------------------ #
    def group(self, ranks: Iterable[int]) -> Tuple[int, ...]:
        """Validated rank tuple, interned across calls.

        First use pays the full :func:`~repro.comm.mesh.validate_group`
        check; every later call with the same membership is a dict hit.
        """
        key = ranks if type(ranks) is tuple else tuple(ranks)
        cached = self._groups.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        validated = validate_group(key, self.world_size)
        self._groups[validated] = validated
        return validated

    # ------------------------------------------------------------------ #
    # splits
    # ------------------------------------------------------------------ #
    def split(self, n: int, parts: int) -> Tuple[Tuple[int, int], ...]:
        """``parts`` near-equal contiguous ``(lo, hi)`` ranges over ``n``.

        Matches ``numpy.array_split`` (the first ``n % parts`` ranges get
        the extra element), computed once per ``(n, parts)``.
        """
        key = (int(n), int(parts))
        cached = self._splits.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        n, parts = key
        if parts < 1:
            raise ValueError(f"need >= 1 part, got {parts}")
        if n < 0:
            raise ValueError(f"negative length {n}")
        base, extra = divmod(n, parts)
        ranges = []
        start = 0
        for i in range(parts):
            stop = start + base + (1 if i < extra else 0)
            ranges.append((start, stop))
            start = stop
        cached = tuple(ranges)
        self._splits[key] = cached
        return cached

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def cached_entries(self) -> int:
        return len(self._groups) + len(self._splits)

    def stats(self) -> Dict[str, int]:
        """Cache effectiveness counters (for tests and benchmarks)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "groups": len(self._groups),
            "splits": len(self._splits),
        }

    def clear(self) -> None:
        """Drop every cached entry (e.g. between unrelated runs)."""
        self._groups.clear()
        self._splits.clear()
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"CommPlan(world_size={self.world_size}, "
                f"entries={self.cached_entries}, hits={self.hits}, "
                f"misses={self.misses})")
