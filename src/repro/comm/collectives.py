"""Simulated collectives: real data movement + alpha-beta cost accounting.

Each collective does two things:

1. **Really moves the data** between virtual ranks (numpy arrays or sparse
   blocks), so the distributed algorithms are bit-exact executable programs
   whose outputs can be compared against the serial reference -- exactly the
   verification the paper performs ("outputs the same embeddings up to
   floating point accumulation errors").
2. **Charges the tracker** with modeled seconds (from
   :mod:`repro.comm.cost_model`) and with the per-process critical-path
   byte counts -- the quantity the paper's ``T_comm`` formulas bound.  Every
   rank participating in a collective is charged the collective's
   critical-path bytes and modeled seconds; this matches the paper's
   convention of quoting *per-process* communication cost.

Data movement is **copy-on-write**: by default every receiving rank gets a
*read-only view* of the transmitted payload (``ndarray.flags.writeable =
False``) -- one buffer stands in for the P identical buffers a real
cluster would hold, so the single-process simulation stops paying P deep
copies per collective, and an in-place write through any *received*
payload raises instead of silently corrupting the peers sharing it.
That protection is one-directional: the sender still holds its original
writable buffer, so a caller that mutates a payload *after* sending it
would change what every receiver sees -- senders must treat transmitted
buffers as frozen (every algorithm in :mod:`repro.dist` does), or pass
``materialize=True`` to recover the historical private-writable-copy
semantics.  Sparse blocks (:class:`CSRMatrix`) are structurally
immutable throughout the codebase and are shared as-is, which also
preserves their cached ``to_scipy()`` wrapper across epochs.  The
charged bytes and modeled seconds are **identical** either way -- the
ledger models the real machine, not the simulation shortcut.

Payloads may be ``numpy.ndarray`` (dense blocks), objects exposing an
``nbytes_on_wire`` attribute (our CSR blocks), or ``None`` (empty
contribution).  Reductions require dense arrays of identical shape.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import sanitize as _sanitize
from repro.comm import cost_model as cm
from repro.comm.plan import CommPlan
from repro.comm.tracker import Category, CommTracker
from repro.config import INDEX_BYTES, MachineProfile
from repro.obs import profile as _profile

__all__ = ["Collectives", "payload_nbytes"]


def payload_nbytes(payload: Any) -> int:
    """Wire size of a payload in bytes.

    Dense arrays report ``.nbytes``; sparse blocks report
    ``.nbytes_on_wire`` (data + indices + indptr); ``None`` is free.
    """
    if payload is None:
        return 0
    wire = getattr(payload, "nbytes_on_wire", None)
    if wire is not None:
        return int(wire)
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    raise TypeError(f"cannot size payload of type {type(payload).__name__}")


def _copy(payload: Any) -> Any:
    """Materialised receipt: a rank gets its own private buffer."""
    if payload is None:
        return None
    copy = getattr(payload, "copy", None)
    if copy is None:
        raise TypeError(f"payload of type {type(payload).__name__} is not copyable")
    return copy()


def _axis_shards(acc: np.ndarray, bounds, axis: int) -> list:
    """Views of ``acc`` split at ``bounds`` (half-open) along ``axis``.

    The one shard-slicing implementation every reduce-scatter path
    (charged or data-plane, virtual or multiprocess) goes through.
    """
    if axis == 0:
        return [acc[lo:hi] for lo, hi in bounds]
    shards = []
    index = [slice(None)] * acc.ndim
    for lo, hi in bounds:
        index[axis] = slice(lo, hi)
        shards.append(acc[tuple(index)])
    return shards


def _readonly(payload: Any, name: str = "collective") -> Any:
    """Copy-on-write receipt: a shared read-only view of the payload.

    Dense arrays come back as views with the writeable flag cleared, so
    an accidental in-place mutation raises instead of corrupting every
    peer that shares the buffer.  Sparse blocks and ``None`` pass through
    unchanged (CSR blocks are structurally immutable by convention --
    every operation returns a new matrix).

    ``name`` labels the collective handing out the receipt: the
    writeable flag cannot stop the *sender* from writing through the
    original buffer, so under ``REPRO_SANITIZE=1`` the view is also
    content-hashed and re-verified at epoch boundaries -- a drift raises
    naming ``name``.
    """
    if isinstance(payload, np.ndarray):
        view = payload.view()
        view.flags.writeable = False
        san = _sanitize.ACTIVE
        if san is not None:
            san.register_cow(name, view)
        return view
    return payload


class Collectives:
    """NCCL/MPI-style collectives over a group of virtual ranks.

    Ranks are addressed by world rank; groups come from
    :class:`repro.comm.mesh.ProcessMesh` group enumerators.  Per-rank data
    is passed as ``{rank: payload}`` mappings and results come back the same
    way, which keeps the SPMD algorithms readable::

        received = coll.broadcast(row_group, root=r, value=block,
                                  category=Category.SCOMM)

    Group validation and reduction scratch go through a
    :class:`~repro.comm.plan.CommPlan`, so steady-state epochs hit caches
    instead of re-deriving the same structure every call.
    """

    def __init__(self, profile: MachineProfile, tracker: CommTracker,
                 plan: Optional[CommPlan] = None):
        self.profile = profile
        self.tracker = tracker
        self.world_size = tracker.nranks
        self.plan = plan if plan is not None else CommPlan(tracker.nranks)
        # Alpha-beta costs are pure functions of (payload bytes, group
        # size, flags) for a fixed profile, and the executed epochs walk
        # the same payload shapes every time -- so each distinct cost is
        # computed once.  Bounded by the number of distinct payload
        # sizes, which is small and static per run.
        self._cost_cache: Dict[tuple, cm.CollectiveCost] = {}

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _group(self, group: Sequence[int]):
        return self.plan.group(group)

    def _cost(self, kind: str, fn, nbytes: int, p: int,
              *flags) -> cm.CollectiveCost:
        key = (kind, nbytes, p) + flags
        cost = self._cost_cache.get(key)
        if cost is None:
            cost = fn(self.profile, nbytes, p, *flags,
                      span=self.world_size)
            self._cost_cache[key] = cost
        return cost

    def _p2p_cost(self, nbytes: int) -> cm.CollectiveCost:
        key = ("p2p", nbytes)
        cost = self._cost_cache.get(key)
        if cost is None:
            cost = cm.p2p_cost(self.profile, nbytes, span=self.world_size)
            self._cost_cache[key] = cost
        return cost

    def _charge_group(
        self, group: Sequence[int], category: str, cost: cm.CollectiveCost
    ) -> None:
        self.tracker.charge_group(
            group,
            category,
            cost.seconds,
            nbytes=cost.bytes_critical,
            messages=cost.messages,
        )

    @staticmethod
    def _require_dense(payload: Any, what: str) -> np.ndarray:
        if not isinstance(payload, np.ndarray):
            raise TypeError(f"{what} requires dense ndarray payloads, "
                            f"got {type(payload).__name__}")
        return payload

    # ------------------------------------------------------------------ #
    # collectives
    # ------------------------------------------------------------------ #
    def broadcast(
        self,
        group: Sequence[int],
        root: int,
        value: Any,
        category: str = Category.DCOMM,
        pipelined: bool = False,
        materialize: bool = False,
    ) -> Dict[int, Any]:
        """Broadcast ``value`` from ``root`` to every rank in ``group``.

        Returns ``{rank: payload}`` where every payload is one shared
        read-only view of ``value`` (``materialize=True``: the root keeps
        the original object and every other rank gets a private writable
        copy).  ``pipelined=True`` models SUMMA's pipelined broadcast,
        dropping the ``lg p`` latency factor (Section IV-C).
        """
        group = self._group(group)
        if root not in group:
            raise ValueError(f"root {root} not in group {group}")
        nbytes = payload_nbytes(value)
        cost = self._cost("bc", cm.broadcast_cost, nbytes, len(group),
                          pipelined)
        self._charge_group(group, category, cost)
        if materialize:
            return {r: (value if r == root else _copy(value)) for r in group}
        shared = _readonly(value, "broadcast")
        return {r: shared for r in group}

    def broadcast_many(
        self,
        items: Sequence[Tuple[Sequence[int], int, Any]],
        category: str = Category.DCOMM,
        pipelined: bool = False,
    ) -> list:
        """Concurrent broadcasts over disjoint groups, charged as one step.

        ``items`` holds ``(group, root, value)`` triples -- the shape of a
        SUMMA stage, where every process row (or column) broadcasts its
        piece at once.  Returns the received payload per item (one shared
        read-only view each; every rank of the item's group receives that
        same buffer).  Exactly equivalent to calling :meth:`broadcast`
        per item inside one ``step_scope``, minus the per-call and
        per-rank dictionary overhead.
        """
        tracker = self.tracker
        out = []
        with tracker.step_scope():
            for group, root, value in items:
                group = self._group(group)
                if root not in group:
                    raise ValueError(f"root {root} not in group {group}")
                nbytes = payload_nbytes(value)
                cost = self._cost("bc", cm.broadcast_cost, nbytes,
                                  len(group), pipelined)
                tracker.charge_group(
                    group, category, cost.seconds,
                    nbytes=cost.bytes_critical, messages=cost.messages,
                )
                out.append(_readonly(value, "broadcast_many"))
        return out

    def sendrecv(
        self,
        src: int,
        dst: int,
        value: Any,
        category: str = Category.DCOMM,
        materialize: bool = False,
    ) -> Any:
        """Point-to-point send; returns what ``dst`` receives (a shared
        read-only view by default, a private copy with ``materialize``)."""
        self._group((src, dst) if src != dst else (src,))
        if src == dst:
            return value
        nbytes = payload_nbytes(value)
        cost = self._p2p_cost(nbytes)
        with self.tracker.step_scope():
            self.tracker.charge(src, category, cost.seconds, nbytes=0,
                                messages=cost.messages)
            self.tracker.charge(dst, category, cost.seconds, nbytes=nbytes,
                                messages=cost.messages)
        return _copy(value) if materialize else _readonly(value, "sendrecv")

    def broadcast_charges(
        self,
        items: Sequence[Tuple[Sequence[int], int, Any]],
        pipelined: bool = False,
    ) -> list:
        """Flattened per-rank charge tuples for a broadcast set.

        The executed epochs broadcast the same payload shapes over the
        same groups every time, so algorithms precompute this list once
        and replay it with :meth:`CommTracker.charge_many` -- identical
        ledger, none of the per-epoch cost/validation work.  Tuples are
        ``(rank, seconds, nbytes, messages, flops)``.
        """
        return self.broadcast_charges_sized(
            [(group, root, payload_nbytes(value))
             for group, root, value in items],
            pipelined,
        )

    def broadcast_charges_sized(
        self,
        items: Sequence[Tuple[Sequence[int], int, int]],
        pipelined: bool = False,
    ) -> list:
        """:meth:`broadcast_charges` from wire sizes instead of payloads.

        ``items`` holds ``(group, root, nbytes)`` triples.  The size-based
        form is what multiprocess workers use: a rank-local process knows
        every payload's *shape* (block structure is global knowledge) but
        holds only its own ranks' buffers.
        """
        flat = []
        for group, root, nbytes in items:
            group = self._group(group)
            if root not in group:
                raise ValueError(f"root {root} not in group {group}")
            cost = self._cost("bc", cm.broadcast_cost,
                              int(nbytes), len(group), pipelined)
            flat.extend(
                (r, cost.seconds, cost.bytes_critical, cost.messages, 0)
                for r in group
            )
        return flat

    def allgather_charges(
        self, items: Sequence[Tuple[Sequence[int], int]]
    ) -> list:
        """Flattened charge tuples for an all-gather set.

        ``items`` holds ``(group, total_nbytes)`` pairs (the sum of all
        contributions, exactly what :meth:`allgather` charges); see
        :meth:`broadcast_charges` for the replay-caching rationale.
        """
        flat = []
        for group, nbytes in items:
            group = self._group(group)
            cost = self._cost("ag", cm.allgather_cost, int(nbytes),
                              len(group))
            flat.extend(
                (r, cost.seconds, cost.bytes_critical, cost.messages, 0)
                for r in group
            )
        return flat

    def allreduce_charges(
        self, items: Sequence[Tuple[Sequence[int], int]]
    ) -> list:
        """Flattened charge tuples for an all-reduce set.

        ``items`` holds ``(group, reduced_nbytes)`` pairs; see
        :meth:`broadcast_charges` for the replay-caching rationale.
        """
        flat = []
        for group, nbytes in items:
            group = self._group(group)
            cost = self._cost("ar", cm.allreduce_cost, int(nbytes),
                              len(group))
            flat.extend(
                (r, cost.seconds, cost.bytes_critical, cost.messages, 0)
                for r in group
            )
        return flat

    def reduce_scatter_charges(
        self, items: Sequence[Tuple[Sequence[int], int]]
    ) -> list:
        """Flattened charge tuples for a reduce-scatter set.

        ``items`` holds ``(group, reduced_nbytes)`` pairs (see
        :meth:`broadcast_charges` for the replay-caching rationale).
        """
        flat = []
        for group, nbytes in items:
            group = self._group(group)
            cost = self._cost("rs", cm.reduce_scatter_cost, int(nbytes),
                              len(group))
            flat.extend(
                (r, cost.seconds, cost.bytes_critical, cost.messages, 0)
                for r in group
            )
        return flat

    def sendrecv_charges(
        self, items: Sequence[Tuple[int, int, Any]]
    ) -> list:
        """Flattened charge tuples for a point-to-point exchange set
        (see :meth:`broadcast_charges`); self-sends charge nothing."""
        return self.sendrecv_charges_sized(
            [(src, dst, payload_nbytes(value)) for src, dst, value in items]
        )

    def sendrecv_charges_sized(
        self, items: Sequence[Tuple[int, int, int]]
    ) -> list:
        """:meth:`sendrecv_charges` from wire sizes instead of payloads
        (``(src, dst, nbytes)`` triples; see
        :meth:`broadcast_charges_sized` for why sizes)."""
        flat = []
        for src, dst, nbytes in items:
            if src == dst:
                self._group((src,))
                continue
            self._group((src, dst))
            nbytes = int(nbytes)
            cost = self._p2p_cost(nbytes)
            flat.append((src, cost.seconds, 0, cost.messages, 0))
            flat.append((dst, cost.seconds, nbytes, cost.messages, 0))
        return flat

    def sendrecv_many(
        self,
        items: Sequence[Tuple[int, int, Any]],
        category: str = Category.DCOMM,
    ) -> list:
        """Concurrent point-to-point exchanges, charged as one step.

        ``items`` holds ``(src, dst, value)`` triples (e.g. the Split-3D
        fiber-plane exchange); returns what each ``dst`` receives, in
        item order.  Equivalent to per-item :meth:`sendrecv` calls inside
        one ``step_scope``; self-sends pass the value through uncharged,
        exactly as :meth:`sendrecv` does.
        """
        tracker = self.tracker
        out = []
        with tracker.step_scope():
            for src, dst, value in items:
                if src == dst:
                    self._group((src,))
                    out.append(value)
                    continue
                self._group((src, dst))
                nbytes = payload_nbytes(value)
                cost = self._p2p_cost(nbytes)
                tracker.charge(src, category, cost.seconds, nbytes=0,
                               messages=cost.messages)
                tracker.charge(dst, category, cost.seconds, nbytes=nbytes,
                               messages=cost.messages)
                out.append(_readonly(value, "sendrecv_many"))
        return out

    def gather_rows_charges_sized(
        self, items: Sequence[Tuple[int, int, int]]
    ) -> list:
        """Flattened charge tuples for one ghost-row exchange.

        ``items`` holds ``(rank, recv_nbytes, nsources)`` triples: the
        exact bytes a rank *receives* (its distinct remote-neighbour
        rows -- the paper's ``r_i`` ghost rows times the dense row size)
        and the number of distinct source ranks it fetches them from.
        Accounting is receive-side, like :meth:`sendrecv`'s destination
        charge: modeled seconds are ``nsources * alpha + beta * nbytes``
        per rank (one message per source, concurrent within the step)
        and only received bytes hit the ledger -- so a ghost exchange's
        dcomm delta is exactly ``sum_i r_i * f * itemsize``, the
        quantity ``edgecut_P(A)`` bounds per process.
        """
        alpha = self.profile.alpha_for_span(self.world_size)
        beta = self.profile.beta_effective(self.world_size)
        flat = []
        for rank, nbytes, nsources in items:
            nbytes = int(nbytes)
            nsources = int(nsources)
            flat.append(
                (rank, nsources * alpha + beta * nbytes, nbytes,
                 nsources, 0)
            )
        return flat

    def gather_rows_data(
        self,
        pairs: Sequence[Tuple[int, int, np.ndarray]],
        blocks: Mapping[int, np.ndarray],
    ) -> list:
        """Data plane of a ghost-row exchange (no charge).

        ``pairs`` holds ``(src, dst, src_local_rows)`` transfers in one
        fixed global order; ``blocks`` maps each locally-held rank to
        its dense block rows.  Returns, per pair, the selected rows of
        ``src``'s block as a read-only array (``None`` for pairs whose
        destination is not local, on the multiprocess backend).
        """
        out = []
        for src, dst, idx in pairs:
            rows = blocks[src][idx]
            rows.flags.writeable = False
            out.append(rows)
        return out

    def gather_rows(
        self,
        pairs: Sequence[Tuple[int, int, np.ndarray]],
        blocks: Mapping[int, np.ndarray],
        row_nbytes: int,
        category: str = Category.DCOMM,
    ) -> list:
        """Charged ghost-row exchange: fetch selected remote rows.

        The variable-size primitive behind the 1D ``ghost`` variant
        (Section IV-A.8's partitioned training): each destination rank
        receives, from each source it names, exactly the rows listed --
        no full all-gather.  ``row_nbytes`` is the wire size of one
        dense row (``f * itemsize``).  Charges per destination are
        derived from the pair list (see
        :meth:`gather_rows_charges_sized`); callers with static
        structure precompute those charges once and replay them with
        ``charge_many`` + :meth:`gather_rows_data` instead.
        """
        totals: Dict[int, Tuple[int, int]] = {}
        for src, dst, idx in pairs:
            if src == dst:
                raise ValueError(
                    f"gather_rows pair ({src}, {dst}) is a self-send; own "
                    "rows are already local"
                )
            nbytes, nsources = totals.get(dst, (0, 0))
            totals[dst] = (nbytes + len(idx) * int(row_nbytes),
                           nsources + 1)
        self.tracker.charge_many(
            category,
            self.gather_rows_charges_sized(
                [(dst, nbytes, nsources)
                 for dst, (nbytes, nsources) in sorted(totals.items())]
            ),
        )
        return self.gather_rows_data(pairs, blocks)

    def allgather(
        self,
        group: Sequence[int],
        values: Mapping[int, Any],
        category: str = Category.DCOMM,
        materialize: bool = False,
    ) -> Dict[int, list]:
        """Every rank receives the list of all group contributions (in
        group order).  Payloads are shared read-only views by default;
        with ``materialize`` each rank gets private copies (except its
        own contribution)."""
        group = self._group(group)
        self._check_contributions(group, values)
        total = sum(payload_nbytes(values[r]) for r in group)
        cost = self._cost("ag", cm.allgather_cost, total, len(group))
        self._charge_group(group, category, cost)
        if materialize:
            return {
                r: [values[s] if s == r else _copy(values[s]) for s in group]
                for r in group
            }
        shared = [_readonly(values[s], "allgather") for s in group]
        return {r: list(shared) for r in group}

    def gather(
        self,
        group: Sequence[int],
        values: Mapping[int, Any],
        root: int,
        category: str = Category.DCOMM,
        materialize: bool = False,
    ) -> list:
        """Root receives the list of all contributions, in group order."""
        group = self._group(group)
        if root not in group:
            raise ValueError(f"root {root} not in group {group}")
        self._check_contributions(group, values)
        total = sum(payload_nbytes(values[r]) for r in group)
        cost = self._cost("ga", cm.gather_cost, total, len(group))
        self._charge_group(group, category, cost)
        if materialize:
            return [values[s] if s == root else _copy(values[s]) for s in group]
        return [_readonly(values[s], "gather") for s in group]

    def scatter(
        self,
        group: Sequence[int],
        shards: Sequence[Any],
        root: int,
        category: str = Category.DCOMM,
        materialize: bool = False,
    ) -> Dict[int, Any]:
        """Root distributes ``shards[i]`` to the i-th rank of ``group``."""
        group = self._group(group)
        if root not in group:
            raise ValueError(f"root {root} not in group {group}")
        if len(shards) != len(group):
            raise ValueError(
                f"got {len(shards)} shards for a group of {len(group)}"
            )
        total = sum(payload_nbytes(s) for s in shards)
        cost = self._cost("sc", cm.scatter_cost, total, len(group))
        self._charge_group(group, category, cost)
        if materialize:
            return {
                r: (shards[i] if r == root else _copy(shards[i]))
                for i, r in enumerate(group)
            }
        return {r: _readonly(shards[i], "scatter") for i, r in enumerate(group)}

    def allreduce(
        self,
        group: Sequence[int],
        values: Mapping[int, np.ndarray],
        category: str = Category.DCOMM,
        op: Callable[[np.ndarray, np.ndarray], np.ndarray] = np.add,
        materialize: bool = False,
        donate_first: bool = False,
    ) -> Dict[int, np.ndarray]:
        """Elementwise reduction of same-shape arrays; all ranks get it.

        The default op is addition -- the semiring-overloadable aggregation
        the paper mentions (Combinatorial BLAS / CTF semiring interface).
        Every rank receives the *same* read-only reduced array (one
        buffer, not P copies); ``materialize=True`` hands each rank a
        private writable copy.  ``donate_first=True`` lets the reduction
        accumulate directly into the leading rank's contribution buffer
        (NCCL-style in-place all-reduce) -- only for callers that own
        that buffer exclusively and discard it afterwards.
        """
        group = self._group(group)
        self._check_contributions(group, values)
        acc = self._reduce_arrays(group, values, op,
                                  donate_first=donate_first)
        nbytes = int(acc.nbytes)
        cost = self._cost("ar", cm.allreduce_cost, nbytes, len(group))
        self._charge_group(group, category, cost)
        if materialize:
            return {r: acc.copy() for r in group}
        shared = _readonly(acc, "allreduce")
        return {r: shared for r in group}

    def reduce(
        self,
        group: Sequence[int],
        values: Mapping[int, np.ndarray],
        root: int,
        category: str = Category.DCOMM,
        op: Callable[[np.ndarray, np.ndarray], np.ndarray] = np.add,
    ) -> np.ndarray:
        """Reduction to a single root rank (root owns the fresh buffer)."""
        group = self._group(group)
        if root not in group:
            raise ValueError(f"root {root} not in group {group}")
        self._check_contributions(group, values)
        acc = self._reduce_arrays(group, values, op)
        cost = self._cost("re", cm.reduce_cost, int(acc.nbytes),
                          len(group))
        self._charge_group(group, category, cost)
        return acc

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
        """Reduce same-shape arrays, then scatter shards along ``axis``.

        The i-th rank of the group receives the i-th block of the reduced
        array split into ``len(group)`` near-equal blocks along ``axis``
        (``bounds`` overrides the split with explicit half-open ranges --
        partition-aware 1D layouts shard at their distribution's row
        ranges).  This is the operation the 1D backward pass uses to turn
        per-rank ``n x f`` outer-product partials into a
        block-row-distributed ``G^{l-1}`` (Section IV-A.3).

        The reduction runs in place over one freshly-owned contiguous
        accumulator and the returned shards are read-only views into it
        (zero shard copies); ``materialize=True`` returns private
        contiguous copies instead.
        """
        group = self._group(group)
        self._check_contributions(group, values)
        acc = self._reduce_arrays(group, values, op)
        return self._reduce_scatter_impl(
            group, acc, int(acc.nbytes), category, axis, materialize,
            bounds=bounds,
        )

    def _reduce_scatter_impl(
        self,
        group: Sequence[int],
        acc: np.ndarray,
        wire_nbytes: int,
        category: str,
        axis: int,
        materialize: bool,
        bounds: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> Dict[int, np.ndarray]:
        """Charge and shard a reduced array (dense/sparse charging paths
        share everything except the wire size).  ``bounds`` never touches
        the charges -- shard placement is layout, not volume."""
        cost = self._cost("rs", cm.reduce_scatter_cost, wire_nbytes,
                          len(group))
        self._charge_group(group, category, cost)
        if bounds is None:
            bounds = self.plan.split(acc.shape[axis], len(group))
        elif len(bounds) != len(group):
            raise ValueError(
                f"got {len(bounds)} shard bounds for a group of "
                f"{len(group)}"
            )
        shards = _axis_shards(acc, bounds, axis)
        if materialize:
            return {
                r: np.ascontiguousarray(shards[i])
                for i, r in enumerate(group)
            }
        return {r: _readonly(shards[i], "reduce_scatter") for i, r in enumerate(group)}

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
        """Reduce-scatter that ships only the nonzero rows of each input.

        The SparCML-style reduction of Section IV-A.3: when ``P`` exceeds
        the average degree, the per-rank outer-product partials
        ``A[:, rows_i] G_i`` are mostly empty rows, so each contribution
        travels as (nonzero rows + row indices) instead of the dense
        ``n x f`` buffer.  Numerics are **identical** to
        :meth:`reduce_scatter` (same accumulation, same shards); only the
        charged wire size changes -- "sparse routing changes bytes, never
        numerics".
        """
        group = self._group(group)
        self._check_contributions(group, values)
        acc = self._reduce_arrays(group, values, op)
        # Critical-path buffer size: the largest sparse contribution
        # (nonzero rows + one index per row) plays the role the uniform
        # dense buffer plays in reduce_scatter_cost.
        wire = 0
        for r in group:
            arr = self._require_dense(values[r], "sparse reduce-scatter")
            nz_rows = int(np.count_nonzero(arr.any(axis=1 - axis)))
            row_bytes = arr.nbytes // max(arr.shape[axis], 1)
            wire = max(wire, nz_rows * (row_bytes + INDEX_BYTES))
        return self._reduce_scatter_impl(
            group, acc, int(wire), category, axis, materialize,
            bounds=bounds,
        )

    def alltoall(
        self,
        group: Sequence[int],
        buckets: Mapping[int, Sequence[Any]],
        category: str = Category.DCOMM,
        materialize: bool = False,
    ) -> Dict[int, list]:
        """Personalised exchange: rank ``group[i]`` sends ``buckets[gi][j]``
        to ``group[j]``; each receiver gets contributions in sender order."""
        group = self._group(group)
        p = len(group)
        for r in group:
            if r not in buckets:
                raise KeyError(f"rank {r} missing from alltoall buckets")
            if len(buckets[r]) != p:
                raise ValueError(
                    f"rank {r} supplied {len(buckets[r])} buckets, expected {p}"
                )
        total = max(
            sum(payload_nbytes(b) for b in buckets[r]) for r in group
        )
        cost = self._cost("aa", cm.alltoall_cost, total, p)
        self._charge_group(group, category, cost)
        out: Dict[int, list] = {}
        for j, dst in enumerate(group):
            if materialize:
                out[dst] = [
                    buckets[src][j] if src == dst else _copy(buckets[src][j])
                    for src in group
                ]
            else:
                out[dst] = [_readonly(buckets[src][j], "alltoall") for src in group]
        return out

    # ------------------------------------------------------------------ #
    # data plane (no charging)
    #
    # The executed epochs split static collectives into a *charge replay*
    # (cached ``*_charges`` lists, identical on every backend) and a
    # *data movement* step.  The methods below are the data step: they
    # move payloads but never touch the ledger.  This base class is the
    # everything-is-local implementation; the multiprocess backend
    # (:mod:`repro.parallel.collectives`) overrides them to really cross
    # process boundaries through shared memory.  Contract: callers pass
    # contributions for the ranks they hold (all of them here) and
    # receive results for those same ranks.
    # ------------------------------------------------------------------ #
    def routed_broadcast_post(
        self, routes: Sequence[Tuple[Sequence[int], int]],
        blocks: Mapping[int, Any],
    ) -> Any:
        """Start the broadcasts along ``(group, root)`` routes, charging
        nothing; :meth:`routed_broadcast_collect` turns the returned
        handle into the received payload per route (one shared
        read-only view each).  Split so a stage loop can start the next
        stage's broadcasts before it waits for this stage's: a backend
        whose payloads travel moves them in between.  Nothing travels
        here, so the handle is the finished list."""
        return [_readonly(blocks[root], "routed_broadcast") for _, root in routes]

    def routed_broadcast_collect(self, posted: Any) -> list:
        """The receipts of a :meth:`routed_broadcast_post`."""
        return posted

    def routed_sendrecv_data(
        self, pairs: Sequence[Tuple[int, int]], payloads: Mapping[int, Any]
    ) -> list:
        """What each ``dst`` receives per ``(src, dst)`` pair (self-sends
        pass through), charging nothing."""
        return [
            payloads[src] if src == dst else _readonly(payloads[src], "routed_sendrecv")
            for src, dst in pairs
        ]

    def allgather_data(
        self, group: Sequence[int], values: Mapping[int, Any]
    ) -> Dict[int, list]:
        """:meth:`allgather`'s data movement only (no charge)."""
        group = self._group(group)
        self._check_contributions(group, values)
        shared = [_readonly(values[s], "allgather_data") for s in group]
        return {r: list(shared) for r in group}

    def allreduce_data(
        self,
        group: Sequence[int],
        values: Mapping[int, np.ndarray],
        op: Callable[[np.ndarray, np.ndarray], np.ndarray] = np.add,
        donate_first: bool = False,
    ) -> Dict[int, np.ndarray]:
        """:meth:`allreduce`'s data movement only (no charge)."""
        group = self._group(group)
        self._check_contributions(group, values)
        acc = self._reduce_arrays(group, values, op,
                                  donate_first=donate_first)
        shared = _readonly(acc, "allreduce_data")
        return {r: shared for r in group}

    def reduce_scatter_data(
        self,
        group: Sequence[int],
        values: Mapping[int, np.ndarray],
        axis: int = 0,
        op: Callable[[np.ndarray, np.ndarray], np.ndarray] = np.add,
        bounds: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> Dict[int, np.ndarray]:
        """:meth:`reduce_scatter`'s data movement only (no charge).

        The fold runs in group order into one freshly-owned accumulator
        and the returned shards are read-only views into it.
        """
        group = self._group(group)
        self._check_contributions(group, values)
        acc = self._reduce_arrays(group, values, op)
        acc.flags.writeable = False
        if bounds is None:
            bounds = self.plan.split(acc.shape[axis], len(group))
        shards = _axis_shards(acc, bounds, axis)
        return {r: shards[i] for i, r in enumerate(group)}

    def barrier(self, group: Sequence[int]) -> None:
        """Synchronise a group; charged as a zero-byte allreduce latency."""
        group = self._group(group)
        if len(group) <= 1:
            return
        alpha = self.profile.alpha_for_span(len(group))
        lat = 2 * alpha * max(1.0, np.log2(len(group)))
        self.tracker.charge_group(group, Category.MISC, lat, messages=1)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _check_contributions(group: Sequence[int], values: Mapping[int, Any]) -> None:
        missing = [r for r in group if r not in values]
        if missing:
            raise KeyError(f"missing contributions from ranks {missing}")

    def _reduce_arrays(
        self,
        group: Sequence[int],
        values: Mapping[int, np.ndarray],
        op: Callable[[np.ndarray, np.ndarray], np.ndarray],
        donate_first: bool = False,
    ) -> np.ndarray:
        """Reduce the group's arrays into one freshly-owned accumulator.

        The accumulator is allocated once and ufunc ops accumulate into
        it in place (``op(acc, arr, out=acc)``) -- the historical
        ``acc = op(acc, arr)`` chain allocated a fresh array per rank.
        The result buffer is fresh (never a shared workspace) because
        reduction results escape the call: gradients from consecutive
        layers may share a shape, and handing both the same scratch
        buffer would corrupt the earlier one.  ``donate_first`` callers
        assert exclusive ownership of the leading contribution, letting
        it serve as the accumulator directly.
        """
        prof = _profile.ACTIVE
        t0 = prof.clock() if prof is not None else 0.0
        first = self._require_dense(values[group[0]], "reduction")
        if donate_first and first.flags.writeable:
            acc = first
        else:
            acc = first.copy()
        in_place = isinstance(op, np.ufunc)
        for r in group[1:]:
            arr = self._require_dense(values[r], "reduction")
            if arr.shape != acc.shape:
                raise ValueError(
                    f"reduction shape mismatch: {arr.shape} vs {acc.shape}"
                )
            if in_place:
                op(acc, arr, out=acc)
            else:
                acc = op(acc, arr)
        if prof is not None:
            folds = max(0, len(group) - 1)
            prof.add("reduce.fold", prof.clock() - t0,
                     folds * acc.size,
                     (folds + 1) * acc.nbytes + acc.nbytes)
        return acc
