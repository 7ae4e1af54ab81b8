"""Simulated collectives: real data movement + alpha-beta cost accounting.

The paper builds its algorithms from ``torch.distributed`` primitives --
broadcast, all-gather, all-reduce and reduce-scatter -- to which Section
IV-A.8's partitioned training adds a row gather (ghost rows, and the
hops of a sparsity-aware SUMMA stage's relay).  Each of those
*kinds* is defined here exactly once, as two halves:

1. **A cost rule** (:meth:`Collectives.charges`): the per-rank ledger
   entries -- modeled seconds from :mod:`repro.comm.cost_model` plus the
   per-process critical-path byte counts, the quantity the paper's
   ``T_comm`` formulas bound.  Every rank participating in a collective
   is charged the collective's critical-path bytes and modeled seconds;
   this matches the paper's convention of quoting *per-process*
   communication cost.  The row-gather rule is exact: a receiver's
   bytes on the ledger are the bytes that arrive.  A SUMMA stage's
   relay books every column member the rows of its hop (the root the
   first hop's); its data plane sends each process's most-upstream
   member those rows straight from the root, so the bytes that arrive
   there are the bytes that member books.
2. **A data movement** that really moves the payloads (numpy arrays or
   sparse blocks), so the distributed algorithms are bit-exact
   executable programs whose outputs can be compared against the serial
   reference -- exactly the verification the paper performs ("outputs
   the same embeddings up to floating point accumulation errors").
   Every kind comes split-phase as :meth:`Collectives.post` /
   :meth:`Collectives.collect`, and the blocking
   :meth:`Collectives.move` is literally ``collect(post(...))``.

The charged methods (:meth:`~Collectives.broadcast`,
:meth:`~Collectives.allreduce`, ...) are the data movement plus the rule
applied to the moved payload's size -- never a second body.  Callers
whose payload sizes are fixed by structure (the epochs of
:mod:`repro.dist`) build the charge list once with
:meth:`~Collectives.charges`, replay it with
:meth:`CommTracker.charge_many` and call the data movement alone.

The data movements are written against three **transport hooks**:
the split-phase ``_routed_post(kind, routes, payload_of)`` /
``_routed_collect(handle)``, which start and finish one step's transfers
(route ``(src, dst_ranks)``; ``payload_of(i, ranks)`` is what route
``i`` sends the destination's ``ranks``), and ``_members(group)`` (whose
results come back).  Every kind is routes: a broadcast's root sends to
its group, a row gather's source to its destination, and each member of
a group kind sends its contribution to its group -- for a reduce-scatter
cut to the shards the destination's ranks keep -- and folds what its
group sent it locally, in group order.  This class implements the hooks
for the virtual runtime, where every rank is local and nothing travels;
the multiprocess backend (:mod:`repro.parallel.collectives`) overrides
only those three, so every collective works on every backend by
construction, with the same receipts and the same argument checks, and
every step is one rendezvous.

Data movement is **copy-on-write**: every receiving rank gets a
*read-only view* of the transmitted payload (``ndarray.flags.writeable =
False``) -- one buffer stands in for the P identical buffers a real
cluster would hold, so the single-process simulation stops paying P deep
copies per collective, and an in-place write through any *received*
payload raises instead of silently corrupting the peers sharing it.
That protection is one-directional: the sender still holds its original
writable buffer, so a caller that mutates a payload *after* sending it
would change what every receiver sees -- senders must treat transmitted
buffers as frozen (every algorithm in :mod:`repro.dist` does).  Such a
write changes the receivers' arithmetic, which the serial reference
(``verify_against_serial``) and the process runs' bit equality with the
virtual run catch; a write no receiver reads is harmless.  Sparse
blocks (:class:`CSRMatrix`) are structurally immutable throughout the
codebase and are shared as-is, which also preserves their cached
kernel index pair (``CSRMatrix.kernel_index()``) across epochs.  The ledger models the real
machine, not the simulation shortcut.

Payloads may be ``numpy.ndarray`` (dense blocks), objects exposing an
``nbytes_on_wire`` attribute (our CSR blocks), or ``None`` (empty
contribution).  Reductions require dense arrays of identical shape and
fold by addition, in group order; a reduce-scatter folds only the span
of the shards its local members keep.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.comm import cost_model as cm
from repro.comm.plan import CommPlan
from repro.comm.tracker import Category, CommTracker
from repro.config import INDEX_BYTES, MachineProfile
from repro.obs import profile as _profile

__all__ = ["Collectives", "payload_nbytes"]

#: One ledger entry: ``(rank, seconds, nbytes, messages, flops)``, the
#: shape :meth:`CommTracker.charge_many` replays.
Charge = Tuple[int, float, int, int, int]

#: The kinds whose rule is exact: the charged bytes of a receiving rank
#: are precisely the payload bytes delivered to it (what
#: :meth:`repro.dist.base.DistAlgorithm._collective` audits on a step's
#: first call).
EXACT = ("gather_rows",)


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


def _readonly(payload: Any) -> Any:
    """Copy-on-write receipt: a shared read-only view of the payload.

    Dense arrays come back as views with the writeable flag cleared, so
    an accidental in-place mutation raises instead of corrupting every
    peer that shares the buffer.  Sparse blocks and ``None`` pass through
    unchanged (CSR blocks are structurally immutable by convention --
    every operation returns a new matrix).
    """
    if isinstance(payload, np.ndarray):
        view = payload.view()
        view.flags.writeable = False
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
        * ``gather_rows`` takes ``(rank, nbytes, npeers)`` triples: the
          exact bytes a rank moves (the distinct rows read -- the
          paper's ``r_i`` ghost rows, or a SUMMA stage's rows at a
          sparse piece's nonempty columns -- times the dense row size)
          and the number of distinct ranks at the other end.  Priced by
          :func:`~repro.comm.cost_model.gather_rows_cost` (one message
          per peer, concurrent within the step).  A ghost exchange
          lists its receivers -- every rank both sends and receives
          there, and the received bytes are the paper's term, so its
          dcomm delta is exactly ``sum_i r_i * f * itemsize``, the
          quantity ``edgecut_P(A)`` bounds per process; a SUMMA stage's
          relay lists every column member, one peer each, with the rows
          its hop carries (the root: the first hop's).

        The executed epochs walk the same payload shapes over the same
        groups every time, so algorithms compute this list once and
        replay it with :meth:`CommTracker.charge_many` -- identical
        ledger, none of the per-epoch cost/validation work.
        """
        flat: List[Charge] = []
        if kind == "gather_rows":
            # One rule call over the step's ranks: their sizes vary, and
            # an array prices exactly like each size alone.
            if items:
                ranks, nbytes, npeers = zip(*items)
                cost = cm.gather_rows_cost(
                    self.profile, np.array(nbytes, dtype=np.int64),
                    np.array(npeers, dtype=np.int64),
                    span=self.world_size)
                flat.extend(zip(ranks, cost.seconds.tolist(),
                                cost.bytes_critical.tolist(),
                                cost.messages.tolist(), [0] * len(ranks)))
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
    # backend whose ranks live in several processes overrides these three
    # and nothing else: callers pass payloads for the ranks they hold
    # (all of them here) and receive results for those same ranks.
    # ------------------------------------------------------------------ #
    def _members(self, group: Tuple[int, ...]) -> Sequence[int]:
        """The ranks of ``group`` whose results this process returns."""
        return group

    def _routed_post(self, kind: str,
                     routes: Sequence[Tuple[int, Tuple[int, ...]]],
                     payload_of: Callable[[int, Sequence[int]], Any]) -> Any:
        """Start transfer ``i`` from rank ``routes[i][0]`` to the ranks
        ``routes[i][1]``, for every ``i``: a process holding some of
        those ranks is sent ``payload_of(i, its ranks of them)``.
        :meth:`_routed_collect` turns the returned handle into the
        payload per transfer as it arrived here.  Nothing travels here
        and every destination is this process, so the handle is the
        finished list."""
        return [payload_of(i, dsts) for i, (_, dsts) in enumerate(routes)]

    def _routed_collect(self, handle: Any) -> list:
        return handle

    # ------------------------------------------------------------------ #
    # data movement (no charging): one definition per kind
    # ------------------------------------------------------------------ #
    def post(self, kind: str, where: Sequence[Any],
             payloads: Mapping[int, Any], **kw: Any) -> Any:
        """Start one step of ``kind``, charging nothing.

        ``where`` lists the step's transfers or groups in one fixed
        global order and ``payloads`` maps each locally-held source rank
        to what it sends:

        * ``broadcast``: ``(group, root)`` routes; ``payloads[root]``
          goes to every rank of ``group``;
        * ``gather_rows``: ``(src, dst, src_local_rows)`` triples, each
          naming at least one row and a ``src`` other than ``dst`` (own
          rows are already local; a pair with no row would cost a
          message for nothing); the selected rows of the dense block
          ``payloads[src]`` go to ``dst``.  Selection happens at the
          source, so only the requested rows travel;
        * group kinds (``allgather``, ``allreduce``,
          ``reduce_scatter``): concurrent groups, ``kw`` as in the
          charged method of the same name.  Every member's contribution
          is one route to its group -- for a reduce-scatter cut, per
          destination, to the shards that destination's ranks keep.

        The whole step is one rendezvous, also for a process holding
        ranks of several of its groups; a process with no rank in it
        sits it out.  Returns the handle :meth:`collect` finishes.
        Split so a stage loop can start the next stage's transfers
        before it waits for this stage's: a backend whose payloads
        travel moves them in between.
        """
        if kind == "broadcast":
            for group, root in where:
                if root not in group:
                    raise ValueError(f"root {root} not in group {group}")
            hops = [(root, group) for group, root in where]
            pick = lambda i, _: payloads[where[i][1]]
        elif kind == "gather_rows":
            for src, dst, rows in where:
                if src == dst:
                    raise ValueError(
                        f"gather_rows pair ({src}, {dst}) is a self-send; "
                        "own rows are already local")
                # (None: a process that neither sends nor receives the
                # rows of a transfer knows only its ends)
                if rows is not None and not len(rows):
                    raise ValueError(
                        f"gather_rows pair ({src}, {dst}) names no row; "
                        "leave it out")
            hops = [(src, (dst,)) for src, dst, _ in where]
            pick = lambda i, _: payloads[where[i][0]][where[i][2]]
        else:
            hops, pick, fold = self._group_step(kind, where, payloads, **kw)
            return fold, self._routed_post(kind, hops, pick)

        def receipts(got: list) -> list:
            return [_readonly(payload) for payload in got]
        return receipts, self._routed_post(kind, hops, pick)

    def collect(self, posted: Any) -> Any:
        """Finish a :meth:`post`.  A routed kind gives the received
        payload per route, in route order, as one shared read-only
        receipt each (``None`` for routes with no local destination, on
        the multiprocess backend); a group kind gives every local member
        of the step's groups its result, merged into one ``{rank:
        result}`` dict."""
        finish, handle = posted
        return finish(self._routed_collect(handle))

    def move(self, kind: str, where: Sequence[Any],
             payloads: Mapping[int, Any], **kw: Any) -> Any:
        """The blocking data movement of one step of ``kind``:
        ``collect(post(kind, where, payloads, **kw))``."""
        return self.collect(self.post(kind, where, payloads, **kw))

    def _group_step(self, kind: str, groups: Sequence[Sequence[int]],
                    payloads: Mapping[int, Any], **kw: Any
                    ) -> Tuple[list, Callable, Callable]:
        """A group-kind step as routes: ``(routes, payload_of, fold)``.

        Route ``(src, group)`` carries member ``src``'s contribution,
        ``kind``'s cut of it for the destination's ranks.  ``fold``
        turns the received list into every local member's result: per
        group this process has a rank in, the contributions in group
        order go through ``kind``'s fold -- locally, in group order,
        whatever travelled.
        """
        prepare = self._GROUP_MOVE[kind]
        hops: list = []
        cuts: list = []
        folds: list = []
        for group in groups:
            group = self._group(group)
            mine = self._members(group)
            if mine:
                missing = [r for r in mine if r not in payloads]
                if missing:
                    raise KeyError(
                        f"missing contributions from ranks {missing}")
                cut, fold = prepare(self, group, mine, payloads, **kw)
                folds.append((len(hops), len(group), fold))
            else:
                cut = None
            hops.extend((src, group) for src in group)
            cuts.extend([cut] * len(group))

        def payload_of(i: int, ranks: Sequence[int]) -> Any:
            payload = payloads[hops[i][0]]
            return payload if cuts[i] is None else cuts[i](payload, ranks)

        def fold_all(got: list) -> Dict[int, Any]:
            out: Dict[int, Any] = {}
            for at, size, fold in folds:
                out.update(fold(got[at:at + size]))
            return out
        return hops, payload_of, fold_all

    # Per group kind: ``(group, mine, payloads, **kw) -> (cut, fold)``.
    # ``cut(payload, ranks)`` is the part of a contribution ``ranks``
    # receive (``None``: all of it); ``fold(parts)`` maps the group's
    # contributions, in group order, to ``{member in mine: result}``.
    def _allgather(self, group: Tuple[int, ...], mine: Sequence[int],
                   payloads: Mapping[int, Any]) -> Tuple[None, Callable]:
        def fold(parts: list) -> dict:
            shared = [_readonly(part) for part in parts]
            return {r: list(shared) for r in mine}
        return None, fold

    def _allreduce(self, group: Tuple[int, ...], mine: Sequence[int],
                   payloads: Mapping[int, Any], donate_first: bool = False
                   ) -> Tuple[None, Callable]:
        def fold(parts: list) -> dict:
            shared = _readonly(self._reduce_arrays(parts, donate_first))
            return dict.fromkeys(mine, shared)
        return None, fold

    def _reduce_scatter(
        self, group: Tuple[int, ...], mine: Sequence[int],
        payloads: Mapping[int, Any], axis: int = 0,
        bounds: Optional[Sequence[Tuple[int, int]]] = None,
        donate_first: bool = False,
    ) -> Tuple[Callable, Callable]:
        """Each destination is sent, and folds in group order, only the
        span of the shards its members keep, then hands each member its
        shard.  Elementwise, that is the whole fold's shard bit for
        bit."""
        shape = _dense(payloads[mine[0]]).shape
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

        def cut(payload: Any, ranks: Sequence[int]) -> np.ndarray:
            arr = _dense(payload)
            if arr.shape != shape:
                raise ValueError(
                    f"reduction shape mismatch: {arr.shape} vs {shape}")
            return _axis_shards(arr, [span(ranks)], axis)[0]

        def fold(parts: list) -> dict:
            acc = self._reduce_arrays(parts, donate_first)
            base = span(mine)[0]
            shards = _axis_shards(
                acc, [(where[r][0] - base, where[r][1] - base) for r in mine],
                axis)
            return {r: _readonly(shard)
                    for r, shard in zip(mine, shards)}
        return cut, fold

    _GROUP_MOVE = {
        "allgather": _allgather,
        "allreduce": _allreduce,
        "reduce_scatter": _reduce_scatter,
    }

    def _reduce_arrays(self, parts: Sequence[Any],
                       donate_first: bool = False) -> np.ndarray:
        """Sum a group's arrays, given in group order, into one
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
        first = _dense(parts[0])
        acc = first if donate_first and first.flags.writeable \
            else first.copy()
        for part in parts[1:]:
            arr = _dense(part)
            if arr.shape != acc.shape:
                raise ValueError(
                    f"reduction shape mismatch: {arr.shape} vs {acc.shape}"
                )
            np.add(acc, arr, out=acc)
        if prof is not None:
            folds = max(0, len(parts) - 1)
            prof.add("reduce.fold", prof.clock() - t0,
                     folds * acc.size,
                     (folds + 1) * acc.nbytes + acc.nbytes)
        return acc

    def _one(self, kind: str, group: Sequence[int],
             values: Mapping[int, Any], **kw: Any
             ) -> Tuple[Tuple[int, ...], dict, int]:
        """Move one group's ``kind`` collective: ``(the group, the
        results, a local member)`` -- whose payloads size the charge."""
        group = self._group(group)
        out = self.move(kind, [group], values, **kw)
        if not out:
            raise RuntimeError(
                f"no rank of group {group} is local: nothing sizes its "
                "charge")
        return group, out, next(iter(out))

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
        """Charged row gather: fetch selected remote rows.

        The variable-size primitive behind the 1D ``ghost`` variant
        (Section IV-A.8's partitioned training) and the data plane of
        the 2D / Split-3D SUMMA stages' relays: each destination rank
        receives, from each source it names, exactly the rows listed --
        no full all-gather or broadcast.  ``pairs`` holds ``(src, dst,
        src_local_rows)`` transfers in one fixed global order, as
        :meth:`post` takes them; ``blocks``
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
        got = self.move("gather_rows", pairs, blocks)
        totals: Dict[int, Tuple[int, int]] = {}
        for src, dst, idx in pairs:
            nbytes, nsources = totals.get(dst, (0, 0))
            totals[dst] = (nbytes + len(idx) * int(row_nbytes),
                           nsources + 1)
        self._charge("gather_rows", category,
                     [(dst,) + totals[dst] for dst in sorted(totals)])
        return got

    def allgather(
        self,
        group: Sequence[int],
        values: Mapping[int, Any],
        category: str = Category.DCOMM,
    ) -> Dict[int, list]:
        """Every rank receives the list of all group contributions (in
        group order), as shared read-only views."""
        group, out, r = self._one("allgather", group, values)
        self._charge("allgather", category,
                     [(group, sum(map(payload_nbytes, out[r])))])
        return out

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
        group, out, r = self._one("allreduce", group, values,
                                  donate_first=donate_first)
        self._charge("allreduce", category, [(group, int(out[r].nbytes))])
        return out

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
        group, out, r = self._one("reduce_scatter", group, values,
                                  axis=axis, bounds=bounds,
                                  donate_first=donate_first)
        # ``bounds`` never touches the wire size -- shard placement is
        # layout, not volume.
        self._charge("reduce_scatter", category,
                     [(group, int(values[r].nbytes))])
        return out

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
        if len(nz_rows) != len(group):
            raise ValueError(
                f"got {len(nz_rows)} nonzero-row counts for a group of "
                f"{len(group)}"
            )
        group, out, r = self._one("reduce_scatter", group, values,
                                  axis=axis, bounds=bounds,
                                  donate_first=donate_first)
        # Critical-path buffer size: the largest sparse contribution
        # (its structurally nonzero rows + one index per row) plays the
        # role the uniform dense buffer plays in reduce_scatter_cost.
        # Sized from structure, never from values: a row the sparsity
        # pattern can fill ships even where it happens to be all zeros.
        ref = values[r]
        row_bytes = ref.nbytes // max(ref.shape[axis], 1)
        self._charge("sparse_reduce_scatter", category,
                     [(group, max(nz_rows) * (row_bytes + INDEX_BYTES))])
        return out
