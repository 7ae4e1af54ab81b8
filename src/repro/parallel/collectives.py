"""The collectives' transport hooks over a worker-to-worker channel.

:class:`repro.comm.collectives.Collectives` defines every collective
once -- its cost rule and its data movement -- against three transport
hooks: the split-phase ``_routed_post`` / ``_routed_collect`` pair and
``_members``.  :class:`ProcessCollectives` is those hooks for a
rank-local worker process: payloads come only from the ranks this
worker owns, really cross process boundaries (through
:mod:`repro.parallel.channel`), and results come back for the owned
ranks only.  A step of any kind -- a broadcast, a row gather, or every
group of an all-gather, all-reduce or reduce-scatter -- is one
rendezvous on its kind's tag sequence, and a reduce-scatter sends each
peer only the shards its ranks keep.  Nothing here computes a cost or
touches the tracker: the **charging** side is inherited -- the same
alpha-beta rules hit the same full-world tracker, so every worker keeps
a complete, bit-identical copy of the virtual runtime's ledger (the
cross-backend oracle).

Determinism: a group's contributions arrive keyed by route and the
inherited reductions fold them in *group-rank order* (a fixed degenerate
reduction tree), exactly the virtual runtime's left-fold -- which is what
makes per-epoch losses reproduce the virtual backend bit for bit under
frozen seeds.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Sequence, Tuple

from repro.comm.collectives import Collectives
from repro.comm.plan import CommPlan
from repro.comm.tracker import CommTracker
from repro.config import MachineProfile
from repro.parallel.channel import PeerChannel

__all__ = ["ProcessCollectives"]

#: kind -> the channel tag sequence its rendezvous ride on (the last:
#: :meth:`repro.parallel.runtime.WorkerRuntime.gather_blocks`, the
#: uncharged read-out)
_TAGS = {"broadcast": ("rb",), "gather_rows": ("gr",),
         "allgather": ("ag",), "allreduce": ("ar",),
         "reduce_scatter": ("rs",), "gather_blocks": ("gb",)}


class ProcessCollectives(Collectives):
    """Rank-local collectives for one worker of the process backend."""

    def __init__(
        self,
        profile: MachineProfile,
        tracker: CommTracker,
        plan: CommPlan,
        channel: PeerChannel,
        owner_of: Sequence[int],
    ):
        super().__init__(profile, tracker, plan=plan)
        self.channel = channel
        self.owner_of = tuple(owner_of)
        self.wid = channel.wid
        self._dest_cache: Dict[Tuple[int, ...],
                               Dict[int, Tuple[int, ...]]] = {}

    def _dests(self, ranks: Tuple[int, ...]) -> Dict[int, Tuple[int, ...]]:
        """``{worker: its ranks of ranks}``, workers ascending."""
        dests = self._dest_cache.get(ranks)
        if dests is None:
            by: Dict[int, list] = {}
            for r in ranks:
                by.setdefault(self.owner_of[r], []).append(r)
            dests = {w: tuple(by[w]) for w in sorted(by)}
            self._dest_cache[ranks] = dests
        return dests

    def _members(self, group: Tuple[int, ...]) -> Sequence[int]:
        return self._dests(group).get(self.wid, ())

    def _routed_post(self, kind: str,
                     routes: Sequence[Tuple[int, Tuple[int, ...]]],
                     payload_of: Callable[[int, Sequence[int]], Any]) -> Any:
        """Post a whole step as one rendezvous.

        ``routes[i]`` is ``(src_rank, dst_ranks)`` in the step's fixed
        global order; ``payload_of(i, ranks)`` produces what transfer
        ``i`` sends the destination worker holding ``ranks`` (evaluated
        on the source worker only).  Every worker walks the same list
        once: what it owns goes into a per-peer outbox (or straight to
        its own slot), what it is owed names the peers to hear from, and
        a single channel post puts the lot on the wire.  Returns the
        handle :meth:`_routed_collect` finishes: the per-transfer
        payloads filled in so far and the ticket.
        """
        out: list = [None] * len(routes)
        outbox: Dict[int, list] = {}
        sources: list = []
        for i, (src, dsts) in enumerate(routes):
            ow = self.owner_of[src]
            dests = self._dests(dsts)
            if ow != self.wid:
                if self.wid in dests and ow not in sources:
                    sources.append(ow)
                continue
            for w, ranks in dests.items():
                payload = payload_of(i, ranks)
                if w == self.wid:
                    out[i] = payload
                else:
                    outbox.setdefault(w, []).append((i, payload))
        return out, self.channel.post(_TAGS[kind], outbox, sources)

    def _routed_collect(self, handle: Any) -> list:
        """Wait for what a :meth:`_routed_post` is owed.  Returns the
        payload per transfer, ``None`` where this worker is no
        destination."""
        out, ticket = handle
        for items in self.channel.collect(ticket).values():
            for i, payload in items:
                out[i] = payload
        return out
