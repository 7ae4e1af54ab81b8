"""Simulated collectives: real data movement + alpha-beta cost accounting.

The paper builds its algorithms from five ``torch.distributed``
primitives -- broadcast, all-gather, all-reduce, reduce-scatter and
point-to-point -- to which Section IV-A.8's partitioned training adds a
ghost-row gather.  Each of those six *kinds* is defined here exactly
once, as two halves:

1. **A cost rule** (:meth:`Collectives.charges`): the per-rank ledger
   entries -- modeled seconds from :mod:`repro.comm.cost_model` plus the
   per-process critical-path byte counts, the quantity the paper's
   ``T_comm`` formulas bound.  Every rank participating in a collective
   is charged the collective's critical-path bytes and modeled seconds;
   this matches the paper's convention of quoting *per-process*
   communication cost.  The point-to-point and ghost-row rules are
   receive-side exact: the bytes on the ledger are the bytes that arrive.
2. **A data movement** that really moves the payloads (numpy arrays or
   sparse blocks), so the distributed algorithms are bit-exact
   executable programs whose outputs can be compared against the serial
   reference -- exactly the verification the paper performs ("outputs
   the same embeddings up to floating point accumulation errors").
   :meth:`Collectives.move` is the blocking form; the routed kinds
   (broadcast, point-to-point, ghost rows) also come split-phase as
   :meth:`Collectives.post` / :meth:`Collectives.collect`, and blocking
   is literally ``collect(post(...))``.

The charged methods (:meth:`~Collectives.broadcast`,
:meth:`~Collectives.allreduce`, ...) are the data movement plus the rule
applied to the moved payload's size -- never a second body.  Callers
whose payload sizes are fixed by structure (the epochs of
:mod:`repro.dist`) build the charge list once with
:meth:`~Collectives.charges`, replay it with
:meth:`CommTracker.charge_many` and call the data movement alone.

The data movements are written against four **transport hooks**:
``_contributions(group, values, keep)`` (every member's contribution,
given the local ones -- or, for a reduce-scatter, the part of it this
process's members keep), the split-phase ``_routed_post(kind, routes,
payload_of)`` / ``_routed_collect(handle)``, and ``_members(group)``
(whose results come back).  This class implements them for the virtual
runtime, where every rank is local and nothing travels; the multiprocess
backend (:mod:`repro.parallel.collectives`) overrides only those four, so
every collective works on every backend by construction, with the same
receipt labels, the same argument checks and the same sanitizer
coverage.

Data movement is **copy-on-write**: every receiving rank gets a
*read-only view* of the transmitted payload (``ndarray.flags.writeable =
False``) -- one buffer stands in for the P identical buffers a real
cluster would hold, so the single-process simulation stops paying P deep
copies per collective, and an in-place write through any *received*
payload raises instead of silently corrupting the peers sharing it.
That protection is one-directional: the sender still holds its original
writable buffer, so a caller that mutates a payload *after* sending it
would change what every receiver sees -- senders must treat transmitted
buffers as frozen (every algorithm in :mod:`repro.dist` does).  Sparse
blocks (:class:`CSRMatrix`) are structurally immutable throughout the
codebase and are shared as-is, which also preserves their cached
``to_scipy()`` wrapper across epochs.  The ledger models the real
machine, not the simulation shortcut.

Payloads may be ``numpy.ndarray`` (dense blocks), objects exposing an
``nbytes_on_wire`` attribute (our CSR blocks), or ``None`` (empty
contribution).  Reductions require dense arrays of identical shape and
fold by addition, in group order; a reduce-scatter folds only the shards
its local members keep.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.analysis import sanitize as _sanitize
from repro.comm import cost_model as cm
from repro.comm.plan import CommPlan
from repro.comm.tracker import Category, CommTracker
from repro.config import INDEX_BYTES, MachineProfile
from repro.obs import profile as _profile

__all__ = ["Collectives", "payload_nbytes"]

#: One ledger entry: ``(rank, seconds, nbytes, messages, flops)``, the
#: shape :meth:`CommTracker.charge_many` replays.
Charge = Tuple[int, float, int, int, int]

#: The kinds that travel along routes (``post`` / ``collect``) rather
#: than within groups.
ROUTED = ("broadcast", "sendrecv", "gather_rows")

#: The kinds whose rule is receive-side exact: the charged bytes of a
#: rank are precisely the payload bytes delivered to it (what the
#: sanitizer's byte audit compares).
EXACT = ("sendrecv", "gather_rows")


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


def _axis_shards(acc: np.ndarray, bounds, axis: int) -> list:
    """Views of ``acc`` split at ``bounds`` (half-open) along ``axis``."""
    if axis == 0:
        return [acc[lo:hi] for lo, hi in bounds]
    shards = []
    index = [slice(None)] * acc.ndim
    for lo, hi in bounds:
        index[axis] = slice(lo, hi)
        shards.append(acc[tuple(index)])
    return shards


def _dense(payload: Any) -> np.ndarray:
    if not isinstance(payload, np.ndarray):
        raise TypeError("reduction requires dense ndarray payloads, "
                        f"got {type(payload).__name__}")
    return payload


def _readonly(payload: Any, kind: str) -> Any:
    """Copy-on-write receipt: a shared read-only view of the payload.

    Dense arrays come back as views with the writeable flag cleared, so
    an accidental in-place mutation raises instead of corrupting every
    peer that shares the buffer.  Sparse blocks and ``None`` pass through
    unchanged (CSR blocks are structurally immutable by convention --
    every operation returns a new matrix).

    ``kind`` labels the collective handing out the receipt: the
    writeable flag cannot stop the *sender* from writing through the
    original buffer, so under ``REPRO_SANITIZE=1`` the view is also
    content-hashed and re-verified at epoch boundaries -- a drift raises
    naming ``kind``.
    """
    if isinstance(payload, np.ndarray):
        view = payload.view()
        view.flags.writeable = False
        san = _sanitize.ACTIVE
        if san is not None:
            san.register_cow(kind, view)
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

    Group validation goes through a :class:`~repro.comm.plan.CommPlan`,
    so steady-state epochs hit caches instead of re-deriving the same
    structure every call.
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

    def _group(self, group: Sequence[int]) -> Tuple[int, ...]:
        return self.plan.group(group)

    # ------------------------------------------------------------------ #
    # the cost rule
    # ------------------------------------------------------------------ #
    def _cost(self, fn: Callable[..., cm.CollectiveCost],
              *args: Any) -> cm.CollectiveCost:
        key = (fn,) + args
        cost = self._cost_cache.get(key)
        if cost is None:
            cost = fn(self.profile, *args, span=self.world_size)
            self._cost_cache[key] = cost
        return cost

    def charges(self, kind: str, items: Sequence[tuple],
                pipelined: bool = False) -> List[Charge]:
        """The cost rule: one step's flattened per-rank ledger entries.

        ``items`` describes the step's concurrent collectives of one
        ``kind``, by wire size rather than payload -- a rank-local
        process knows every payload's *shape* (block structure is global
        knowledge) but holds only its own ranks' buffers:

        * group kinds (``broadcast``, ``allgather``, ``allreduce``,
          ``reduce_scatter``, ``sparse_reduce_scatter``) take
          ``(group, nbytes)`` pairs -- the broadcast payload, the sum of
          all gathered contributions, the reduced buffer (for the
          sparse-wire reduce-scatter: the largest contribution's
          structurally nonzero rows plus their indices).  Every member
          is charged the collective's critical-path cost.
          ``pipelined=True`` models SUMMA's pipelined broadcast,
          dropping the ``lg p`` latency factor (Section IV-C);
        * ``sendrecv`` takes ``(src, dst, nbytes)`` triples: both ends
          pay the message's modeled seconds, only ``dst`` the bytes;
          self-sends charge nothing;
        * ``gather_rows`` takes ``(rank, recv_nbytes, nsources)``
          triples: the exact bytes a rank *receives* (its distinct
          remote-neighbour rows -- the paper's ``r_i`` ghost rows times
          the dense row size) and the number of distinct source ranks it
          fetches them from.  Priced by
          :func:`~repro.comm.cost_model.gather_rows_cost` (one message
          per source, concurrent within the step); only received bytes
          hit the ledger -- so a ghost exchange's dcomm delta is exactly
          ``sum_i r_i * f * itemsize``, the quantity ``edgecut_P(A)``
          bounds per process.

        The executed epochs walk the same payload shapes over the same
        groups every time, so algorithms compute this list once and
        replay it with :meth:`CommTracker.charge_many` -- identical
        ledger, none of the per-epoch cost/validation work.
        """
        flat: List[Charge] = []
        if kind == "sendrecv":
            for src, dst, nbytes in items:
                self._group((src, dst) if src != dst else (src,))
                if src == dst:
                    continue
                cost = self._cost(cm.p2p_cost, int(nbytes))
                seconds, messages = cost.seconds, cost.messages
                flat.append((src, seconds, 0, messages, 0))
                flat.append((dst, seconds, int(nbytes), messages, 0))
        elif kind == "gather_rows":
            for rank, nbytes, nsources in items:
                cost = self._cost(cm.gather_rows_cost, int(nbytes),
                                  int(nsources))
                flat.append((rank, cost.seconds, cost.bytes_critical,
                             cost.messages, 0))
        else:
            fn = cm.GROUP_COST[kind]
            flags = (pipelined,) if kind == "broadcast" else ()
            for group, nbytes in items:
                group = self._group(group)
                cost = self._cost(fn, int(nbytes), len(group), *flags)
                flat.extend(
                    (r, cost.seconds, cost.bytes_critical, cost.messages, 0)
                    for r in group
                )
        return flat

    def _charge(self, kind: str, category: str, items: Sequence[tuple],
                pipelined: bool = False) -> None:
        self.tracker.charge_many(category,
                                 self.charges(kind, items, pipelined))

    # ------------------------------------------------------------------ #
    # transport hooks -- the everything-is-local implementations.  A
    # backend whose ranks live in several processes overrides these four
    # and nothing else: callers pass contributions for the ranks they
    # hold (all of them here) and receive results for those same ranks.
    # ------------------------------------------------------------------ #
    def _members(self, group: Tuple[int, ...]) -> Sequence[int]:
        """The ranks of ``group`` whose results this process returns."""
        return group

    def _contributions(self, group: Tuple[int, ...],
                       values: Mapping[int, Any],
                       keep: Optional[Callable[[Any, Sequence[int]], Any]]
                       = None) -> Mapping[int, Any]:
        """Every member's contribution, given the locally held ones.

        ``keep(payload, ranks)``, when given, is the part of a
        contribution that ``ranks`` keep (a reduce-scatter's shards):
        every contribution then comes back cut to what this process's
        members keep, and a backend whose members live elsewhere ships
        each peer only what that peer's members keep.
        """
        missing = [r for r in group if r not in values]
        if missing:
            raise KeyError(f"missing contributions from ranks {missing}")
        if keep is None:
            return values
        return {r: keep(values[r], group) for r in group}

    def _routed_post(self, kind: str,
                     routes: Sequence[Tuple[int, Tuple[int, ...]]],
                     payload_of: Callable[[int], Any]) -> Any:
        """Start transfer ``i`` of ``payload_of(i)`` from rank
        ``routes[i][0]`` to the ranks ``routes[i][1]``, for every ``i``;
        :meth:`_routed_collect` turns the returned handle into the
        received payload per transfer (one shared read-only receipt
        each).  Nothing travels here, so the handle is the finished
        list."""
        return [_readonly(payload_of(i), kind) for i in range(len(routes))]

    def _routed_collect(self, handle: Any) -> list:
        return handle

    # ------------------------------------------------------------------ #
    # data movement (no charging): one definition per kind
    # ------------------------------------------------------------------ #
    def post(self, kind: str, routes: Sequence[tuple],
             payloads: Mapping[int, Any]) -> Any:
        """Start one step of a routed kind, charging nothing.

        ``routes`` lists the step's transfers in one fixed global order
        and ``payloads`` maps each locally-held source rank to what it
        sends:

        * ``broadcast``: ``(group, root)`` routes; ``payloads[root]``
          goes to every rank of ``group``;
        * ``sendrecv``: ``(src, dst)`` pairs; ``payloads[src]`` goes to
          ``dst`` (a self-send passes the payload through as is);
        * ``gather_rows``: ``(src, dst, src_local_rows)`` triples; the
          selected rows of the dense block ``payloads[src]`` go to
          ``dst``.  Selection happens at the source, so only the
          requested rows travel.

        Returns the handle :meth:`collect` finishes.  Split so a stage
        loop can start the next stage's transfers before it waits for
        this stage's: a backend whose payloads travel moves them in
        between.
        """
        if kind == "broadcast":
            for group, root in routes:
                if root not in group:
                    raise ValueError(f"root {root} not in group {group}")
            hops = [(root, group) for group, root in routes]
            pick = lambda i: payloads[routes[i][1]]
        elif kind == "sendrecv":
            hops = [(src, (dst,)) for src, dst in routes]
            pick = lambda i: payloads[routes[i][0]]
        else:
            hops = [(src, (dst,)) for src, dst, _ in routes]
            pick = lambda i: payloads[routes[i][0]][routes[i][2]]
        return kind, routes, payloads, self._routed_post(kind, hops, pick)

    def collect(self, posted: Any) -> list:
        """Finish a :meth:`post`: the received payload per route, in
        route order, as one shared read-only receipt each (``None`` for
        routes with no local destination, on the multiprocess
        backend)."""
        kind, routes, payloads, handle = posted
        out = self._routed_collect(handle)
        if kind == "sendrecv":
            for i, (src, dst) in enumerate(routes):
                if src == dst and out[i] is not None:
                    out[i] = payloads[src]
        return out

    def move(self, kind: str, where: Sequence[Any],
             payloads: Mapping[int, Any], **kw: Any) -> Any:
        """The data movement of one step of ``kind``, charging nothing.

        For a routed kind ``where`` holds the routes and this is
        ``collect(post(kind, where, payloads))``.  For a group kind
        (``allgather``, ``allreduce``, ``reduce_scatter``) ``where``
        holds the step's concurrent groups and ``payloads`` the
        contributions of the locally-held ranks; every group this
        process has a rank in is moved (``kw`` as in the charged method
        of the same name) and the results come back merged into one
        ``{rank: result}`` dict.
        """
        if kind in ROUTED:
            return self.collect(self.post(kind, where, payloads))
        out: Dict[int, Any] = {}
        for group in where:
            mine = {r: payloads[r] for r in group if r in payloads}
            if mine:
                out.update(self._run(kind, group, mine, **kw)[0])
        return out

    def _run(self, kind: str, group: Sequence[int],
             values: Mapping[int, Any], **kw: Any) -> Tuple[dict, int]:
        """One group collective: ``(results for the local members, the
        wire size its cost rule prices)``."""
        return self._GROUP_MOVE[kind](self, self._group(group), values, **kw)

    def _charged(self, kind: str, group: Sequence[int],
                 values: Mapping[int, Any], category: str,
                 **kw: Any) -> dict:
        out, nbytes = self._run(kind, group, values, **kw)
        self._charge(kind, category, [(group, nbytes)])
        return out

    def _allgather(self, group: Tuple[int, ...],
                   values: Mapping[int, Any]) -> Tuple[dict, int]:
        full = self._contributions(group, values)
        shared = [_readonly(full[s], "allgather") for s in group]
        return ({r: list(shared) for r in self._members(group)},
                sum(payload_nbytes(full[s]) for s in group))

    def _allreduce(self, group: Tuple[int, ...], values: Mapping[int, Any],
                   donate_first: bool = False) -> Tuple[dict, int]:
        acc = self._reduce_arrays(group, self._contributions(group, values),
                                  donate_first)
        shared = _readonly(acc, "allreduce")
        return {r: shared for r in self._members(group)}, int(acc.nbytes)

    def _reduce_scatter(
        self, group: Tuple[int, ...], values: Mapping[int, Any],
        axis: int = 0, bounds: Optional[Sequence[Tuple[int, int]]] = None,
        donate_first: bool = False,
    ) -> Tuple[dict, int]:
        """Fold, in group order, only the span of the shards this
        process's members keep -- which is all a peer sends it -- and
        hand each member its shard.  Elementwise, that is the whole
        fold's shard bit for bit."""
        mine = self._members(group)
        ref = next((values[r] for r in mine if r in values), None)
        if ref is None:
            # nothing of ours to fold: the hook names what is missing
            self._contributions(group, values)
        shape = _dense(ref).shape
        if bounds is None:
            bounds = self.plan.split(shape[axis], len(group))
        elif len(bounds) != len(group):
            raise ValueError(
                f"got {len(bounds)} shard bounds for a group of "
                f"{len(group)}"
            )
        where = dict(zip(group, bounds))

        def span(ranks: Sequence[int]) -> Tuple[int, int]:
            return (min(where[r][0] for r in ranks),
                    max(where[r][1] for r in ranks))

        def keep(payload: Any, ranks: Sequence[int]) -> np.ndarray:
            arr = _dense(payload)
            if arr.shape != shape:
                raise ValueError(
                    f"reduction shape mismatch: {arr.shape} vs {shape}")
            return _axis_shards(arr, [span(ranks)], axis)[0]

        acc = self._reduce_arrays(group,
                                  self._contributions(group, values, keep),
                                  donate_first)
        base = span(mine)[0]
        shards = _axis_shards(
            acc, [(where[r][0] - base, where[r][1] - base) for r in mine],
            axis)
        # ``bounds`` never touches the wire size -- shard placement is
        # layout, not volume.
        return ({r: _readonly(shard, "reduce_scatter")
                 for r, shard in zip(mine, shards)}, int(ref.nbytes))

    def _sparse_reduce_scatter(
        self, group: Tuple[int, ...], values: Mapping[int, Any],
        nz_rows: Sequence[int], axis: int = 0,
        bounds: Optional[Sequence[Tuple[int, int]]] = None,
        donate_first: bool = False,
    ) -> Tuple[dict, int]:
        if len(nz_rows) != len(group):
            raise ValueError(
                f"got {len(nz_rows)} nonzero-row counts for a group of "
                f"{len(group)}"
            )
        out, dense_bytes = self._reduce_scatter(group, values, axis, bounds,
                                                donate_first)
        # Critical-path buffer size: the largest sparse contribution
        # (its structurally nonzero rows + one index per row) plays the
        # role the uniform dense buffer plays in reduce_scatter_cost.
        # Sized from structure, never from values: a row the sparsity
        # pattern can fill ships even where it happens to be all zeros.
        rows = next(iter(values.values())).shape[axis]
        row_bytes = dense_bytes // max(rows, 1)
        return out, max(nz_rows) * (row_bytes + INDEX_BYTES)

    _GROUP_MOVE = {
        "allgather": _allgather,
        "allreduce": _allreduce,
        "reduce_scatter": _reduce_scatter,
        "sparse_reduce_scatter": _sparse_reduce_scatter,
    }

    def _reduce_arrays(self, group: Tuple[int, ...],
                       values: Mapping[int, Any],
                       donate_first: bool = False) -> np.ndarray:
        """Sum the group's arrays, in group order, into one
        freshly-owned accumulator.

        The accumulator is allocated once and the fold accumulates into
        it in place.  The result buffer is fresh (never a shared
        workspace) because reduction results escape the call: gradients
        from consecutive layers may share a shape, and handing both the
        same scratch buffer would corrupt the earlier one.
        ``donate_first`` callers assert exclusive ownership of the
        leading contribution, letting it serve as the accumulator
        directly (the block-row epochs donate a per-layer workspace
        nothing else writes that epoch).
        """
        prof = _profile.ACTIVE
        t0 = prof.clock() if prof is not None else 0.0
        first = _dense(values[group[0]])
        acc = first if donate_first and first.flags.writeable \
            else first.copy()
        for r in group[1:]:
            arr = _dense(values[r])
            if arr.shape != acc.shape:
                raise ValueError(
                    f"reduction shape mismatch: {arr.shape} vs {acc.shape}"
                )
            np.add(acc, arr, out=acc)
        if prof is not None:
            folds = max(0, len(group) - 1)
            prof.add("reduce.fold", prof.clock() - t0,
                     folds * acc.size,
                     (folds + 1) * acc.nbytes + acc.nbytes)
        return acc

    # ------------------------------------------------------------------ #
    # charged collectives: the data movement plus the rule
    # ------------------------------------------------------------------ #
    def broadcast(
        self,
        group: Sequence[int],
        root: int,
        value: Any,
        category: str = Category.DCOMM,
        pipelined: bool = False,
    ) -> Dict[int, Any]:
        """Broadcast ``value`` from ``root`` to every rank in ``group``.

        Returns ``{rank: payload}`` where every payload is one shared
        read-only view of ``value``.  ``pipelined=True`` models SUMMA's
        pipelined broadcast, dropping the ``lg p`` latency factor
        (Section IV-C).  Only the process holding ``root`` needs the
        real ``value``; one with no rank in ``group`` sizes the charge
        from the ``value`` it is handed.
        """
        group = self._group(group)
        (got,) = self.move("broadcast", [(group, root)], {root: value})
        self._charge(
            "broadcast", category,
            [(group, payload_nbytes(value if got is None else got))],
            pipelined,
        )
        return {r: got for r in self._members(group)}

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
        no full all-gather.  ``pairs`` holds ``(src, dst,
        src_local_rows)`` transfers in one fixed global order, ``blocks``
        maps each locally-held rank to its dense block rows and
        ``row_nbytes`` is the wire size of one dense row (``f *
        itemsize``).  Returns, per pair, the selected rows of ``src``'s
        block as a read-only array (``None`` for pairs whose destination
        is not local, on the multiprocess backend).  Charges per
        destination are derived from the pair list (see
        :meth:`charges`); callers with static structure precompute those
        charges once and replay them with ``charge_many`` +
        :meth:`move` instead.
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
        self._charge("gather_rows", category,
                     [(dst,) + totals[dst] for dst in sorted(totals)])
        return self.move("gather_rows", pairs, blocks)

    def allgather(
        self,
        group: Sequence[int],
        values: Mapping[int, Any],
        category: str = Category.DCOMM,
    ) -> Dict[int, list]:
        """Every rank receives the list of all group contributions (in
        group order), as shared read-only views."""
        return self._charged("allgather", group, values, category)

    def allreduce(
        self,
        group: Sequence[int],
        values: Mapping[int, np.ndarray],
        category: str = Category.DCOMM,
        donate_first: bool = False,
    ) -> Dict[int, np.ndarray]:
        """Elementwise sum of same-shape arrays; all ranks get it.

        Every rank receives the *same* read-only reduced array (one
        buffer, not P copies).  ``donate_first=True`` lets the reduction
        accumulate directly into the leading rank's contribution buffer
        (NCCL-style in-place all-reduce) -- only for callers that own
        that buffer exclusively and discard it afterwards.
        """
        return self._charged("allreduce", group, values, category,
                             donate_first=donate_first)

    def reduce_scatter(
        self,
        group: Sequence[int],
        values: Mapping[int, np.ndarray],
        category: str = Category.DCOMM,
        axis: int = 0,
        bounds: Optional[Sequence[Tuple[int, int]]] = None,
        donate_first: bool = False,
    ) -> Dict[int, np.ndarray]:
        """Sum same-shape arrays, then scatter shards along ``axis``.

        The i-th rank of the group receives the i-th block of the reduced
        array split into ``len(group)`` near-equal blocks along ``axis``
        (``bounds`` overrides the split with explicit half-open ranges,
        one per member -- partition-aware 1D layouts shard at their
        distribution's row ranges).  This is the operation the 1D
        backward pass uses to turn per-rank ``n x f`` outer-product
        partials into a block-row-distributed ``G^{l-1}`` (Section
        IV-A.3).

        The reduction runs in place over one freshly-owned contiguous
        accumulator and the returned shards are read-only views into it
        (zero shard copies); ``donate_first`` as in :meth:`allreduce`.
        """
        return self._charged("reduce_scatter", group, values, category,
                             axis=axis, bounds=bounds,
                             donate_first=donate_first)

    def sparse_reduce_scatter(
        self,
        group: Sequence[int],
        values: Mapping[int, np.ndarray],
        nz_rows: Sequence[int],
        category: str = Category.DCOMM,
        axis: int = 0,
        bounds: Optional[Sequence[Tuple[int, int]]] = None,
        donate_first: bool = False,
    ) -> Dict[int, np.ndarray]:
        """Reduce-scatter that ships only the nonzero rows of each input.

        The SparCML-style reduction of Section IV-A.3: when ``P`` exceeds
        the average degree, the per-rank outer-product partials
        ``A[:, rows_i] G_i`` are mostly empty rows, so each contribution
        travels as (nonzero rows + row indices) instead of the dense
        ``n x f`` buffer.  ``nz_rows`` gives, per group member, how many
        rows of its contribution the sparsity *structure* can fill (for
        ``A[:, rows_i] G_i``: the rows of ``A[:, rows_i]`` holding a
        nonzero), which sizes the wire -- like a real sparse wire, it
        knows its structure, not its values.  Numerics are **identical**
        to :meth:`reduce_scatter` (same accumulation, same shards); only
        the charged wire size changes -- "sparse routing changes bytes,
        never numerics".
        """
        return self._charged("sparse_reduce_scatter", group, values,
                             category, nz_rows=nz_rows, axis=axis,
                             bounds=bounds, donate_first=donate_first)
