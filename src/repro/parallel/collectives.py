"""The collectives' transport hooks over a worker-to-worker channel.

:class:`repro.comm.collectives.Collectives` defines every collective
once -- its cost rule and its data movement -- against four transport
hooks.  :class:`ProcessCollectives` is those hooks for a rank-local
worker process: contributions cover only the ranks this worker owns,
payloads really cross process boundaries (through
:mod:`repro.parallel.channel`), and results come back for the owned ranks
only -- a reduce-scatter ships each peer only the shards its ranks keep.
Nothing here computes a cost or touches the tracker: the
**charging** side is inherited -- the same alpha-beta rules hit the same
full-world tracker, so every worker keeps a complete, bit-identical copy
of the virtual runtime's ledger (the cross-backend oracle).

Determinism: a group's contributions come back keyed by rank and the
inherited reductions fold them in *group-rank order* (a fixed degenerate
reduction tree), exactly the virtual runtime's left-fold -- which is what
makes per-epoch losses reproduce the virtual backend bit for bit under
frozen seeds.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.comm.collectives import Collectives, _readonly
from repro.comm.plan import CommPlan
from repro.comm.tracker import CommTracker
from repro.config import MachineProfile
from repro.parallel.channel import PeerChannel

__all__ = ["ProcessCollectives"]

#: routed kind -> the channel tag sequence its rendezvous ride on
_TAGS = {"broadcast": ("rb",), "gather_rows": ("gr",)}


class ProcessCollectives(Collectives):
    """Rank-local collectives for one worker of the process backend."""

    def __init__(
        self,
        profile: MachineProfile,
        tracker: CommTracker,
        plan: CommPlan,
        channel: PeerChannel,
        owner_of: Sequence[int],
        local_ranks: Sequence[int],
    ):
        super().__init__(profile, tracker, plan=plan)
        self.channel = channel
        self.owner_of = tuple(owner_of)
        self.wid = channel.wid
        self.local_set = frozenset(local_ranks)
        self._wset_cache: Dict[Tuple[int, ...], Tuple[int, ...]] = {}

    def _workers_of(self, group: Tuple[int, ...]) -> Tuple[int, ...]:
        wset = self._wset_cache.get(group)
        if wset is None:
            wset = tuple(sorted({self.owner_of[r] for r in group}))
            self._wset_cache[group] = wset
        return wset

    def _members(self, group: Tuple[int, ...]) -> Sequence[int]:
        return [r for r in group if r in self.local_set]

    def _contributions(self, group: Tuple[int, ...],
                       values: Mapping[int, Any],
                       keep: Optional[Callable[[Any, Sequence[int]], Any]]
                       = None) -> Mapping[int, Any]:
        """All group contributions, gathered across the member workers
        in one rendezvous (none when one worker owns the whole group).
        With ``keep``, each peer is sent of every local contribution only
        what its own members keep, and what comes back is cut to what
        ours keep."""
        mine = self._members(group)
        missing = [r for r in mine if r not in values]
        if missing:
            raise KeyError(f"missing local contributions from ranks {missing}")
        wset = self._workers_of(group)
        if self.wid not in wset:
            raise RuntimeError(
                f"worker {self.wid} called a collective on group {group} "
                "it has no ranks in"
            )
        others = [w for w in wset if w != self.wid]
        if keep is None:
            if not others:
                return values
            full = dict(values)
            outbox = dict.fromkeys(others, [(r, values[r]) for r in mine])
        else:
            full = {r: keep(values[r], mine) for r in mine}
            outbox = {}
            for w in others:
                theirs = [r for r in group if self.owner_of[r] == w]
                outbox[w] = [(r, keep(values[r], theirs)) for r in mine]
        if not others:
            return full
        got = self.channel.exchange(("cg", group), outbox, others)
        for pairs in got.values():
            full.update(pairs)
        return full

    def _routed_post(self, kind: str,
                     routes: Sequence[Tuple[int, Tuple[int, ...]]],
                     payload_of: Callable[[int], Any]) -> Any:
        """Post a whole routed call as one rendezvous.

        ``routes[i]`` is ``(src_rank, dst_ranks)`` in the call's fixed
        global order and ``payload_of(i)`` produces transfer ``i``'s
        payload (evaluated on the source worker only).  Every worker
        walks the same list once: what it owns goes into a per-peer
        outbox (or straight to its own slot), what it is owed names the
        peers to hear from, and a single channel post puts the lot on
        the wire.  Returns the handle :meth:`_routed_collect` finishes:
        the kind, the per-transfer receipts filled in so far and the
        ticket.
        """
        out: list = [None] * len(routes)
        outbox: Dict[int, list] = {}
        sources: list = []
        for i, (src, dsts) in enumerate(routes):
            ow = self.owner_of[src]
            dst_workers = self._workers_of(dsts)
            if ow != self.wid:
                if self.wid in dst_workers and ow not in sources:
                    sources.append(ow)
                continue
            payload = payload_of(i)
            for w in dst_workers:
                if w == self.wid:
                    out[i] = _readonly(payload, kind)
                else:
                    outbox.setdefault(w, []).append((i, payload))
        return kind, out, self.channel.post(_TAGS[kind], outbox, sources)

    def _routed_collect(self, handle: Any) -> list:
        """Wait for what a :meth:`_routed_post` is owed.  Returns the
        received payload per transfer as a read-only receipt, ``None``
        where this worker is no destination."""
        kind, out, ticket = handle
        for items in self.channel.collect(ticket).values():
            for i, payload in items:
                out[i] = _readonly(payload, kind)
        return out
