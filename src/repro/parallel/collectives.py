"""SPMD collectives over shared memory, charging the same ledger.

:class:`ProcessCollectives` implements the :class:`repro.comm.collectives.
Collectives` API for a rank-local worker process: contributions cover
only the ranks this worker owns, payloads really cross process boundaries
(through :mod:`repro.parallel.channel`), and results come back for the
owned ranks only.  The **charging** side is untouched -- the same
alpha-beta cost functions hit the same full-world tracker, so every
worker keeps a complete, bit-identical copy of the virtual runtime's
ledger (the cross-backend oracle).

Determinism: reductions fold contributions in *group-rank order* (a fixed
degenerate reduction tree), exactly matching the virtual runtime's
left-fold in ``Collectives._reduce_arrays`` -- which is what makes
per-epoch losses reproduce the virtual backend bit for bit under frozen
seeds.

Only the operations the SPMD epochs use are implemented; the fancy
god-view-only collectives (``gather``/``scatter``/``alltoall``/
``broadcast_many``/``sendrecv_many``) raise with a pointer to the
virtual backend.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.comm import cost_model as cm
from repro.comm.collectives import (
    Collectives,
    _axis_shards,
    _copy,
    _readonly,
    payload_nbytes,
)
from repro.comm.plan import CommPlan
from repro.comm.tracker import Category, CommTracker
from repro.config import INDEX_BYTES, MachineProfile
from repro.parallel.channel import PeerChannel

__all__ = ["ProcessCollectives"]


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

    # ------------------------------------------------------------------ #
    # membership helpers
    # ------------------------------------------------------------------ #
    def _workers_of(self, group: Tuple[int, ...]) -> Tuple[int, ...]:
        wset = self._wset_cache.get(group)
        if wset is None:
            wset = tuple(sorted({self.owner_of[r] for r in group}))
            self._wset_cache[group] = wset
        return wset

    def _require_member(self, group: Tuple[int, ...]) -> None:
        if self.wid not in self._workers_of(group):
            raise RuntimeError(
                f"worker {self.wid} called a collective on group {group} "
                "it has no ranks in"
            )

    def _check_contributions(self, group, values) -> None:  # type: ignore[override]
        """Contributions must cover the *locally owned* group members."""
        missing = [r for r in group
                   if r in self.local_set and r not in values]
        if missing:
            raise KeyError(f"missing local contributions from ranks {missing}")

    def _exchange_contributions(
        self, group: Tuple[int, ...], values: Mapping[int, Any]
    ) -> Dict[int, Any]:
        """All group contributions, gathered across the member workers."""
        self._check_contributions(group, values)
        wset = self._workers_of(group)
        full = {r: values[r] for r in group if r in values}
        if len(wset) == 1:
            return full
        self._require_member(group)
        mine = [(r, values[r]) for r in group
                if self.owner_of[r] == self.wid]
        others = [w for w in wset if w != self.wid]
        got = self.channel.exchange(("cg", group),
                                    dict.fromkeys(others, mine), others)
        for pairs in got.values():
            full.update(pairs)
        return full

    def _local_members(self, group: Tuple[int, ...]):
        return [r for r in group if r in self.local_set]

    # ------------------------------------------------------------------ #
    # charged collectives (world-group call sites of the epochs)
    # ------------------------------------------------------------------ #
    def allgather(
        self,
        group: Sequence[int],
        values: Mapping[int, Any],
        category: str = Category.DCOMM,
        materialize: bool = False,
    ) -> Dict[int, list]:
        group = self._group(group)
        full = self._exchange_contributions(group, values)
        total = sum(payload_nbytes(full[r]) for r in group)
        cost = self._cost("ag", cm.allgather_cost, total, len(group))
        self._charge_group(group, category, cost)
        if materialize:
            return {
                r: [full[s] if s == r else _copy(full[s]) for s in group]
                for r in self._local_members(group)
            }
        shared = [_readonly(full[s]) for s in group]
        return {r: list(shared) for r in self._local_members(group)}

    def allreduce(
        self,
        group: Sequence[int],
        values: Mapping[int, np.ndarray],
        category: str = Category.DCOMM,
        op: Callable[[np.ndarray, np.ndarray], np.ndarray] = np.add,
        materialize: bool = False,
        donate_first: bool = False,
    ) -> Dict[int, np.ndarray]:
        group = self._group(group)
        full = self._exchange_contributions(group, values)
        acc = self._reduce_arrays(group, full, op, donate_first=donate_first)
        cost = self._cost("ar", cm.allreduce_cost, int(acc.nbytes),
                          len(group))
        self._charge_group(group, category, cost)
        if materialize:
            return {r: acc.copy() for r in self._local_members(group)}
        shared = _readonly(acc)
        return {r: shared for r in self._local_members(group)}

    def reduce_scatter(
        self,
        group: Sequence[int],
        values: Mapping[int, np.ndarray],
        category: str = Category.DCOMM,
        axis: int = 0,
        op: Callable[[np.ndarray, np.ndarray], np.ndarray] = np.add,
        materialize: bool = False,
        bounds: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> Dict[int, np.ndarray]:
        group = self._group(group)
        full = self._exchange_contributions(group, values)
        acc = self._reduce_arrays(group, full, op)
        return self._shard_local(group, acc, int(acc.nbytes), category,
                                 axis, materialize, bounds=bounds)

    def sparse_reduce_scatter(
        self,
        group: Sequence[int],
        values: Mapping[int, np.ndarray],
        category: str = Category.DCOMM,
        axis: int = 0,
        op: Callable[[np.ndarray, np.ndarray], np.ndarray] = np.add,
        materialize: bool = False,
        bounds: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> Dict[int, np.ndarray]:
        group = self._group(group)
        full = self._exchange_contributions(group, values)
        acc = self._reduce_arrays(group, full, op)
        # Same data-dependent wire size as the virtual backend -- the
        # contributions are bit-identical on every backend, so the
        # charged bytes are too.
        wire = 0
        for r in group:
            arr = self._require_dense(full[r], "sparse reduce-scatter")
            nz_rows = int(np.count_nonzero(arr.any(axis=1 - axis)))
            row_bytes = arr.nbytes // max(arr.shape[axis], 1)
            wire = max(wire, nz_rows * (row_bytes + INDEX_BYTES))
        return self._shard_local(group, acc, int(wire), category, axis,
                                 materialize, bounds=bounds)

    def _shard_local(self, group, acc, wire_nbytes, category, axis,
                     materialize, bounds=None):
        """Charge a reduce-scatter and shard ``acc`` for local ranks."""
        cost = self._cost("rs", cm.reduce_scatter_cost, wire_nbytes,
                          len(group))
        self._charge_group(group, category, cost)
        if bounds is None:
            bounds = self.plan.split(acc.shape[axis], len(group))
        shards = _axis_shards(acc, bounds, axis)
        return {
            r: (np.ascontiguousarray(shards[i]) if materialize
                else _readonly(shards[i]))
            for i, r in enumerate(group) if r in self.local_set
        }

    def broadcast(
        self,
        group: Sequence[int],
        root: int,
        value: Any,
        category: str = Category.DCOMM,
        pipelined: bool = False,
        materialize: bool = False,
    ) -> Dict[int, Any]:
        group = self._group(group)
        if root not in group:
            raise ValueError(f"root {root} not in group {group}")
        self._require_member(group)
        recv = self._move_root_payload(("bc", group), group, root, value)
        nbytes = payload_nbytes(recv)
        cost = self._cost("bc", cm.broadcast_cost, nbytes, len(group),
                          pipelined)
        self._charge_group(group, category, cost)
        if materialize:
            return {r: (recv if self.owner_of[root] == self.wid and r == root
                        else (recv.copy() if hasattr(recv, "copy") else recv))
                    for r in self._local_members(group)}
        shared = _readonly(recv)
        return {r: shared for r in self._local_members(group)}

    def barrier(self, group: Sequence[int]) -> None:
        group = self._group(group)
        if len(group) <= 1:
            return
        wset = self._workers_of(group)
        if self.wid in wset and len(wset) > 1:
            others = [w for w in wset if w != self.wid]
            self.channel.exchange(("bar", group), dict.fromkeys(others, ()),
                                  others)
        super().barrier(group)

    # ------------------------------------------------------------------ #
    # data plane (cached-charge call sites of the epochs)
    # ------------------------------------------------------------------ #
    def _move_root_payload(self, gkey, group, root, value) -> Any:
        """Ship ``value`` from ``root``'s worker to the group's other
        member workers; every member worker returns the payload."""
        ow = self.owner_of[root]
        if ow == self.wid:
            others = [w for w in self._workers_of(group) if w != self.wid]
            self.channel.exchange(
                gkey, dict.fromkeys(others, [(root, value)]), [])
            return value
        return self.channel.exchange(gkey, {}, [ow])[ow][0][1]

    def _routed_post(self, kind: str, routes, payload_of) -> tuple:
        """Post a whole routed call as one rendezvous.

        ``routes[i]`` is ``(src_rank, dst_workers)`` in the call's fixed
        global order and ``payload_of(i)`` produces transfer ``i``'s
        payload (evaluated on the source worker only).  Every worker
        walks the same list once: what it owns goes into a per-peer
        outbox (or straight to its own slot), what it is owed names the
        peers to hear from, and a single channel post puts the lot on
        the wire.  Returns the handle :meth:`_routed_collect` finishes:
        the per-transfer receipts filled in so far and the ticket.
        """
        out: list = [None] * len(routes)
        outbox: Dict[int, list] = {}
        sources: list = []
        for i, (src, dst_workers) in enumerate(routes):
            ow = self.owner_of[src]
            if ow != self.wid:
                if self.wid in dst_workers and ow not in sources:
                    sources.append(ow)
                continue
            payload = payload_of(i)
            for w in dst_workers:
                if w == self.wid:
                    out[i] = _readonly(payload)
                else:
                    outbox.setdefault(w, []).append((i, payload))
        return out, self.channel.post((kind,), outbox, sources)

    def _routed_collect(self, posted: tuple) -> list:
        """Wait for what a :meth:`_routed_post` is owed.  Returns the
        received payload per transfer as a read-only receipt, ``None``
        where this worker is no destination."""
        out, ticket = posted
        for items in self.channel.collect(ticket).values():
            for i, payload in items:
                out[i] = _readonly(payload)
        return out

    def _routed_exchange(self, kind: str, routes, payload_of) -> list:
        return self._routed_collect(
            self._routed_post(kind, routes, payload_of))

    def routed_broadcast_post(self, routes, blocks) -> tuple:
        return self._routed_post(
            "rb",
            [(root, self._workers_of(self._group(group)))
             for group, root in routes],
            lambda i: blocks[routes[i][1]],
        )

    def routed_broadcast_collect(self, posted: tuple) -> list:
        return self._routed_collect(posted)

    def routed_sendrecv_data(self, pairs, payloads) -> list:
        out = self._routed_exchange(
            "sr", [(src, (self.owner_of[dst],)) for src, dst in pairs],
            lambda i: payloads[pairs[i][0]],
        )
        for i, (src, dst) in enumerate(pairs):
            if src == dst and out[i] is not None:
                out[i] = payloads[src]   # self-sends pass through as is
        return out

    def allgather_data(self, group, values) -> Dict[int, list]:
        group = self._group(group)
        full = self._exchange_contributions(group, values)
        shared = [_readonly(full[s]) for s in group]
        return {r: list(shared) for r in self._local_members(group)}

    def allreduce_data(
        self,
        group,
        values,
        op: Callable[[np.ndarray, np.ndarray], np.ndarray] = np.add,
        donate_first: bool = False,
    ) -> Dict[int, np.ndarray]:
        group = self._group(group)
        full = self._exchange_contributions(group, values)
        acc = self._reduce_arrays(group, full, op, donate_first=donate_first)
        shared = _readonly(acc)
        return {r: shared for r in self._local_members(group)}

    def reduce_scatter_data(
        self,
        group,
        values,
        axis: int = 0,
        op: Callable[[np.ndarray, np.ndarray], np.ndarray] = np.add,
        bounds: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> Dict[int, np.ndarray]:
        group = self._group(group)
        full = self._exchange_contributions(group, values)
        acc = self._reduce_arrays(group, full, op)
        acc.flags.writeable = False
        if bounds is None:
            bounds = self.plan.split(acc.shape[axis], len(group))
        shards = _axis_shards(acc, bounds, axis)
        return {r: shards[i] for i, r in enumerate(group)
                if r in self.local_set}

    def gather_rows_data(self, pairs, blocks) -> list:
        """Ghost-row transfers really crossing worker boundaries.

        Row selection happens on the *source* worker, so only the
        requested rows travel -- all of a call's transfers between two
        workers in one message.
        """
        return self._routed_exchange(
            "gr",
            [(src, (self.owner_of[dst],)) for src, dst, _ in pairs],
            lambda i: blocks[pairs[i][0]][pairs[i][2]],
        )

    # ------------------------------------------------------------------ #
    # god-view-only operations
    # ------------------------------------------------------------------ #
    def _god_view_only(self, name: str):
        raise NotImplementedError(
            f"Collectives.{name} is not used by the SPMD epochs and is "
            "not implemented on the process backend; run it on a "
            "VirtualRuntime"
        )

    def broadcast_many(self, *a, **kw):
        self._god_view_only("broadcast_many")

    def sendrecv(self, *a, **kw):
        # Charging only the two participating workers would break the
        # all-workers-identical-ledger digest invariant; the epochs use
        # :meth:`routed_sendrecv_data` + globally-replayed charges
        # instead.
        self._god_view_only("sendrecv")

    def sendrecv_many(self, *a, **kw):
        self._god_view_only("sendrecv_many")

    def reduce(self, *a, **kw):
        self._god_view_only("reduce")

    def gather(self, *a, **kw):
        self._god_view_only("gather")

    def scatter(self, *a, **kw):
        self._god_view_only("scatter")

    def alltoall(self, *a, **kw):
        self._god_view_only("alltoall")
