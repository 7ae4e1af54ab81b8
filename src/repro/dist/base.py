"""The shared skeleton of every distributed training algorithm.

All four CAGNET algorithm families (1D, 1.5D, 2D SUMMA, Split-3D) differ
only in *how* they lay out the adjacency/activation blocks and *which*
collectives move them; everything else -- the training loop, the weight
replicas and their redundant optimiser step, per-epoch ledger deltas, the
serial-equivalence verification, inference, and held-out evaluation -- is
identical.  :class:`DistAlgorithm` owns that shared machinery so each
``algo_*`` module only implements three hooks:

* ``_setup_data``   -- distribute features/labels onto the mesh;
* ``_run_epoch``    -- one full forward/loss/backward/update sweep,
  charging every data movement through :mod:`repro.comm.collectives` and
  every local kernel through the runtime's charge helpers;
* ``_forward_pass`` -- a forward-only sweep returning the assembled
  ``n x n_classes`` log-probabilities (inference, Section I's "all of our
  algorithms are applicable to GNN inference").

Weights are **replicated**: every virtual rank applies the same optimiser
update to the same gradient ("This step does not require communication",
Section III-D), which the simulation represents with a single canonical
:class:`~repro.nn.model.GCN` whose update each algorithm charges nothing
for.  The local block math reuses the exact serial kernels from
:mod:`repro.nn.layers`, which is what makes the paper's bit-close
verification (`verify_against_serial`) possible.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator,
                    List, Mapping, NamedTuple, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from repro.analysis import sanitize as _sanitize
from repro.comm.collectives import _readonly, payload_nbytes
from repro.comm.plan import CommPlan
from repro.comm.runtime import Runtime, VirtualRuntime
from repro.dist.distribution import Distribution
from repro.comm.tracker import Category, CommTracker
from repro.config import FP64_BYTES
from repro.nn.activations import LogSoftmax, ReLU
from repro.nn.layers import forward_gemm, hidden_gradient, weight_gradient
from repro.nn.loss import accuracy, nll_loss
from repro.nn.model import GCN, SerialTrainer
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn import serialize as _serialize
from repro.obs import events as _events
from repro.obs import spans as _spans
from repro.sparse.csr import CSRMatrix
from repro.sparse.perfmodel import SpmmPerfModel

if TYPE_CHECKING:  # import would cycle: simulate -> dist -> simulate
    from repro.simulate.schedule import CommSchedule

__all__ = [
    "EpochStats",
    "DistTrainHistory",
    "RoutedBroadcast",
    "DistAlgorithm",
    "BlockRowAlgorithm",
    "GridAlgorithm",
    "clone_optimizer",
]


def _emit_epoch_event(stats, replayed: bool = False) -> None:
    """Append one ``epoch`` event to the active event log (no-op when
    no log is enabled -- i.e. always inside SPMD workers, where the
    driver owns the log)."""
    if _events.ACTIVE is None:
        return
    data = {"epoch": int(stats.epoch), "loss": float(stats.loss),
            "train_accuracy": float(stats.train_accuracy)}
    if replayed:
        data["replayed"] = True
    _events.emit("epoch", **data)


class RoutedBroadcast(NamedTuple):
    """One set of concurrent broadcasts of a stage
    (:meth:`DistAlgorithm._broadcast_routed`)."""

    #: charge-cache key (the routes and payload shapes behind it are
    #: fixed at setup)
    key: Tuple
    #: ``(group, root)`` per broadcast
    routes: Sequence[Tuple[Sequence[int], int]]
    #: ``{root: payload}`` for the roots this process holds
    blocks: Mapping[int, Any]
    category: str
    #: SUMMA's pipelined broadcast (no ``lg p`` latency factor)
    pipelined: bool = True
    #: ``nbytes(root)``: a route's wire size from structure alone
    nbytes: Optional[Callable[[int], int]] = None


def clone_optimizer(opt: Optimizer) -> Optimizer:
    """A fresh, state-free optimiser with the same hyper-parameters.

    Verification trains the serial reference and the distributed run from
    identical starting points; a shared (stateful) optimiser instance
    would couple the two trajectories.
    """
    if isinstance(opt, SGD):
        return SGD(lr=opt.lr, momentum=opt.momentum)
    if isinstance(opt, Adam):
        return Adam(lr=opt.lr, beta1=opt.beta1, beta2=opt.beta2, eps=opt.eps)
    raise TypeError(f"cannot clone optimiser of type {type(opt).__name__}")


@dataclass(frozen=True)
class EpochStats:
    """One training epoch's result plus its exact ledger delta.

    ``seconds_by_category`` is the bulk-synchronous **wall clock** the
    epoch added (slowest rank per step, per Fig. 3's convention);
    ``bytes_by_category`` sums exact bytes over all ranks;
    ``max_rank_comm_bytes`` is the paper's per-process metric.
    """

    epoch: int
    loss: float
    train_accuracy: float
    seconds_by_category: Dict[str, float]
    bytes_by_category: Dict[str, int]
    max_rank_comm_bytes: int

    @property
    def modeled_seconds(self) -> float:
        return sum(self.seconds_by_category.values())

    @property
    def dcomm_bytes(self) -> int:
        return self.bytes_by_category[Category.DCOMM]

    @property
    def scomm_bytes(self) -> int:
        return self.bytes_by_category[Category.SCOMM]

    @property
    def comm_bytes(self) -> int:
        """Total network traffic over all ranks (scomm + dcomm + trpose)."""
        return sum(self.bytes_by_category[c] for c in Category.COMM)


@dataclass
class DistTrainHistory:
    """Per-epoch records of one distributed training run."""

    epochs: List[EpochStats] = field(default_factory=list)

    @property
    def losses(self) -> List[float]:
        return [e.loss for e in self.epochs]

    @property
    def final_loss(self) -> float:
        if not self.epochs:
            raise ValueError("no epochs recorded")
        return self.epochs[-1].loss

    def _selected(self, skip_first: bool) -> List[EpochStats]:
        picked = self.epochs[1:] if skip_first and len(self.epochs) > 1 else self.epochs
        if not picked:
            raise ValueError("no epochs recorded")
        return picked

    def mean_breakdown(self, skip_first: bool = False) -> Dict[str, float]:
        """Mean per-epoch wall seconds per category (a Fig. 3 bar).

        ``skip_first=True`` drops epoch 0, which includes one-time
        distribution warm-up in real systems.
        """
        picked = self._selected(skip_first)
        return {
            c: sum(e.seconds_by_category[c] for e in picked) / len(picked)
            for c in Category.ALL
        }

    def mean_epoch_seconds(self, skip_first: bool = False) -> float:
        picked = self._selected(skip_first)
        return sum(e.modeled_seconds for e in picked) / len(picked)


class DistAlgorithm:
    """Base class: runtime + replicated weights + the shared training loop.

    Subclasses receive the forward-pass SpMM operand ``a_t`` (the paper's
    ``A^T``, equal to ``A`` for GCN-normalised undirected graphs) and the
    layer ``widths`` ``(f^0, ..., f^L)``.  The backward operand ``A`` is
    derived once here (transpose for directed inputs), mirroring
    :class:`repro.nn.model.SerialTrainer`'s ``a_t``/``a`` pair.
    """

    #: bytes per dense element; the reproduction executes in fp64.
    WB = FP64_BYTES

    def __init__(
        self,
        rt: Runtime,
        a_t: CSRMatrix,
        widths: Sequence[int],
        seed: int = 0,
        optimizer: Optional[Optimizer] = None,
        distribution: Optional[Distribution] = None,
    ):
        if a_t.nrows != a_t.ncols:
            raise ValueError(f"adjacency must be square, got {a_t.shape}")
        if distribution is not None and distribution.n != a_t.nrows:
            raise ValueError(
                f"distribution covers {distribution.n} vertices, "
                f"graph has {a_t.nrows}"
            )
        # Partition-aware layout: the operand is relabelled part-major
        # once, here; setup() relabels the dense inputs to match and the
        # prediction surface maps back, so callers never see internal
        # ids.  The block-row family additionally adopts the
        # distribution's per-rank row ranges (see DistGCN1D); the grid
        # families use the relabelling alone.
        self.distribution = distribution
        if distribution is not None:
            a_t = distribution.permute_matrix(a_t)
        self.rt = rt
        self.a_t = a_t
        self.n = a_t.nrows
        self.widths = tuple(int(w) for w in widths)
        self.seed = seed
        self.optimizer = optimizer if optimizer is not None else SGD(lr=0.1)
        self.model = GCN(self.widths, seed=seed)
        self.symmetric = self._is_symmetric(a_t)
        self.a = a_t if self.symmetric else a_t.transpose()
        self.perf = SpmmPerfModel.from_profile(rt.profile)
        self._ready = False
        self._labels_provisional = False
        self._features: Optional[np.ndarray] = None
        self._labels: Optional[np.ndarray] = None
        self._mask: Optional[np.ndarray] = None
        self._mask_count = 0
        self._last_log_probs: Optional[np.ndarray] = None
        #: the last epoch's distributed output blocks, assembled lazily:
        #: on the process backend the assembly is a cross-process
        #: shipment, so paying it every epoch just to fill a cache that
        #: is usually never read would tax the scaling path.
        self._last_out_blocks = None
        self.relu = ReLU()
        self.logsm = LogSoftmax()
        #: the world group, interned once (every epoch reuses the tuple).
        self.world_group = self._plan().group(range(rt.size))
        # Backend locality: the data loops touch only `rt.local_ranks`
        # (every rank on the virtual backend; this process's ranks on the
        # multiprocess backend), while the charge paths stay global --
        # charging is pure structure, so every process keeps the complete
        # world ledger and the cross-backend ledger oracle can demand
        # byte-for-byte equality.
        self._local_set = frozenset(rt.local_ranks)
        self._spmd = len(self._local_set) != rt.size
        self._local_seq_cache: Dict[Any, Tuple[int, ...]] = {}
        #: steady-state scratch buffers; see :meth:`_ws`.
        self.workspace: Dict[Any, np.ndarray] = {}
        #: cached non-array epoch invariants (e.g. precomputed kernel
        #: charge lists); structure-dependent only, so never invalidated.
        self._cache: Dict[Any, Any] = {}
        # Per-epoch invariants hoisted out of the epoch loop: masked loss
        # row indices and output-layer one-hot gradients depend only on
        # (labels, mask, row ranges), fixed between setup() calls.
        self._loss_cache: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
        self._grad_cache: Dict[Tuple[int, int, int], np.ndarray] = {}
        #: fault-tolerance accounting, read back through the process
        #: backend's ``stats`` op: checkpoints this instance has written
        #: and the wall seconds they cost.
        self.checkpoints_written = 0
        self.checkpoint_seconds = 0.0

    # ------------------------------------------------------------------ #
    # hooks for subclasses
    # ------------------------------------------------------------------ #
    def _setup_data(self, features: np.ndarray) -> None:
        """Distribute the dense inputs onto the mesh."""
        raise NotImplementedError

    def _run_epoch(self) -> Tuple[float, float]:
        """One charged forward/loss/backward/update; returns (loss, acc)."""
        raise NotImplementedError

    def _forward_pass(self) -> np.ndarray:
        """Charged forward-only sweep; returns full ``n x f^L`` log-probs."""
        raise NotImplementedError

    def _stored_dense_rows(self) -> int:
        """Max dense rows any rank keeps resident (memory accounting)."""
        raise NotImplementedError

    def _stored_dense_width(self, f: int) -> int:
        """Resident columns of an ``f``-wide dense matrix per rank.

        Block-row layouts keep full rows (width ``f``); 2D/3D layouts
        override with their feature-column split.
        """
        return f

    @classmethod
    def emit_comm_schedule(cls, graph: Any, widths: Sequence[int], p: int,
                           **kwargs: Any) -> "CommSchedule":
        """Emit this family's symbolic per-epoch communication schedule.

        The scaling-simulator hook (:mod:`repro.simulate`): subclasses
        replay their epoch loop symbolically -- every collective with its
        group size and payload bytes, every charged local kernel -- into a
        :class:`repro.simulate.schedule.CommSchedule`, without
        instantiating ``p`` virtual ranks.  ``graph`` is anything
        :meth:`repro.simulate.schedule.GraphModel.coerce` accepts; keyword
        arguments mirror the constructor (``variant``, ``replication``,
        ``grid``, ``summa_block``).

        Contract (tested): a schedule emitted from the actual adjacency
        predicts one executed ``train_epoch`` ledger delta byte for byte.
        """
        raise NotImplementedError(
            f"{cls.__name__} does not emit communication schedules"
        )

    # ------------------------------------------------------------------ #
    # fast-path plumbing: comm plan, workspaces, replica dedup
    # ------------------------------------------------------------------ #
    def _plan(self) -> CommPlan:
        """The runtime's communication plan (shared with its collectives).

        Group membership, split boundaries, and SUMMA stage structure are
        interned here once per ``setup()`` instead of re-derived every
        epoch; collectives routed through the same plan hit the caches.
        """
        return self.rt.plan

    def _is_local(self, rank: int) -> bool:
        """Does this process hold ``rank``'s buffers?  (Virtual: always.)"""
        return not self._spmd or rank in self._local_set

    def _local(self, ranks) -> Tuple[int, ...]:
        """Order-preserving restriction of ``ranks`` to the local ranks.

        Interned per input (the epoch loops pass the same group tuples
        every epoch).  The identity on the virtual backend.
        """
        key = ranks if type(ranks) is tuple else tuple(ranks)
        cached = self._local_seq_cache.get(key)
        if cached is None:
            cached = (key if not self._spmd
                      else tuple(r for r in key if r in self._local_set))
            self._local_seq_cache[key] = cached
        return cached

    def _ws(self, key, shape: Tuple[int, ...]) -> np.ndarray:
        """A reusable scratch array owned by this algorithm.

        Steady-state epochs reuse the same buffers (zero fresh
        allocations for gather targets, SUMMA accumulators, slab
        concatenations).  Keys must encode enough context (role, layer,
        group) that no two *live* uses share a buffer; contents are
        whatever the previous epoch left, so callers fully overwrite.

        Deliberately **per-algorithm**, not the runtime-level
        :meth:`CommPlan.workspace`: two algorithm instances sharing one
        runtime would collide on plan-held scratch keyed only by
        (role, shape), silently corrupting each other's live buffers.
        """
        wkey = (key, shape)
        buf = self.workspace.get(wkey)
        if buf is None:
            buf = np.empty(shape)
            self.workspace[wkey] = buf
        return buf

    @staticmethod
    def _obs_call(_obs_name, _obs_cat, _obs_fn, *args, **kwargs):
        """Run ``_obs_fn`` under a wall-clock span when tracing is enabled.

        With tracing off (the default) this is a plain call -- one global
        read and one ``is None`` test of overhead.  The span wraps only
        the *data-plane* call, never the ledger charges, so traced runs
        stay bit-identical.  The positional parameters carry an ``_obs``
        prefix so they cannot collide with keyword arguments forwarded to
        the wrapped call (several collectives take ``category=``).
        """
        rec = _spans.ACTIVE
        if rec is None:
            return _obs_fn(*args, **kwargs)
        t0 = rec.clock()
        out = _obs_fn(*args, **kwargs)
        rec.record(_obs_name, _obs_cat, t0, rec.clock())
        return out

    def _broadcast_routed(
        self, stages: Iterable[Sequence[RoutedBroadcast]],
    ) -> Iterator[List[list]]:
        """The staged routed broadcast every stage loop runs over.

        ``stages`` yields, per stage, the concurrent broadcasts that
        stage needs (:class:`RoutedBroadcast`: ``(group, root)`` routes
        and the operand dict the roots' payloads come from); this yields,
        per stage, the received payload list of each of them (shared
        read-only views, one per route; routes with no local member
        yield ``None`` on the multiprocess backend).

        Look-ahead is one stage: stage ``k + 1`` is drawn from ``stages``
        and its broadcasts are put on the wire *before* stage ``k`` is
        collected and handed to the caller's multiply, so on a backend
        whose payloads travel they do so under that multiply.  Two
        stages are in flight at most, which bounds the extra memory at
        one stage's pieces.  A stage's payloads must therefore not
        depend on an earlier stage's multiply -- every operand a stage
        loop broadcasts is complete before the loop starts.

        The (static) charges are replayed when a stage is *collected*,
        i.e. at the program point the unstaged loop charged them, so the
        ledger is the same entry for entry.  Payload shapes along a
        route are fixed at setup: the per-rank charge list is computed
        once via :meth:`Collectives.broadcast_charges_sized` and
        replayed with ``charge_many`` on later epochs.
        ``RoutedBroadcast.nbytes(root)`` supplies the wire size of a
        route's payload from structure alone; without it the payload
        itself is sized (only valid when every root's payload is
        present, i.e. static operand dicts).
        """
        coll = self.rt.coll

        def collect(stage: Sequence[RoutedBroadcast],
                    posted: list) -> List[list]:
            got = []
            for b, handle in zip(stage, posted):
                charges = self._cache.get(b.key)
                if charges is None:
                    charges = coll.broadcast_charges_sized(
                        [(group, root,
                          b.nbytes(root) if b.nbytes is not None
                          else payload_nbytes(b.blocks[root]))
                         for group, root in b.routes],
                        b.pipelined,
                    )
                    self._cache[b.key] = charges
                self.rt.tracker.charge_many(b.category, charges)
                got.append(self._obs_call(
                    "bcast", b.category, coll.routed_broadcast_collect,
                    handle,
                ))
            return got

        ahead: Optional[Tuple[Sequence[RoutedBroadcast], list]] = None
        for stage in stages:
            posted = [
                self._obs_call("bcast", b.category,
                               coll.routed_broadcast_post, b.routes, b.blocks)
                for b in stage
            ]
            if ahead is not None:
                yield collect(*ahead)
            ahead = (stage, posted)
        if ahead is not None:
            yield collect(*ahead)

    def _sendrecv_routed(self, key, pairs, payloads, category: str,
                         nbytes=None) -> list:
        """Point-to-point exchange along precomputed ``(src, dst)`` pairs
        with cached charge replay; returns what each ``dst`` receives
        (``None`` for non-local destinations on the multiprocess
        backend).  ``nbytes(src, dst)`` supplies structural wire sizes,
        as in :class:`RoutedBroadcast`."""
        charges = self._cache.get(key)
        if charges is None:
            charges = self.rt.coll.sendrecv_charges_sized(
                [(src, dst,
                  nbytes(src, dst) if nbytes is not None
                  else payload_nbytes(payloads[src]))
                 for src, dst in pairs]
            )
            self._cache[key] = charges
        self.rt.tracker.charge_many(category, charges)
        out = self._obs_call(
            "sendrecv", category, self.rt.coll.routed_sendrecv_data,
            pairs, payloads,
        )
        san = _sanitize.ACTIVE
        if san is not None:
            # Point-to-point routes are exact-accounting: the nbytes on
            # the dst charge entries must equal the payload bytes the
            # data plane actually delivered to local ranks (self-sends
            # are uncharged and pass the payload through).
            san.check_exchange(
                f"sendrecv:{key!r}",
                sum(c[2] for c in charges if self._is_local(c[0])),
                sum(payload_nbytes(got)
                    for (src, dst), got in zip(pairs, out)
                    if src != dst and got is not None),
            )
        return out

    @staticmethod
    def _map_blocks(blocks: Dict[int, np.ndarray],
                    fn: Callable[[np.ndarray], np.ndarray]) -> Dict[int, np.ndarray]:
        """Apply ``fn`` once per *distinct* block object.

        Replicated layouts hand several ranks the same buffer (1.5D
        fiber replicas after the copy-on-write all-reduce, grid row
        groups after a row all-gather).  Identical inputs give identical
        outputs, so the redundant replica compute is executed once and
        the result shared -- numerics and per-rank charges unchanged
        (charge helpers still iterate every rank).
        """
        memo: Dict[int, np.ndarray] = {}
        out: Dict[int, np.ndarray] = {}
        for r, block in blocks.items():
            key = id(block)
            res = memo.get(key)
            if res is None:
                res = fn(block)
                memo[key] = res
            out[r] = res
        return out

    @staticmethod
    def _dedup(ranks, key_fn: Callable[[int], Any],
               compute_fn: Callable[[int], np.ndarray]) -> Dict[int, np.ndarray]:
        """Per-rank results computed once per distinct ``key_fn(rank)``."""
        memo: Dict[Any, np.ndarray] = {}
        out: Dict[int, np.ndarray] = {}
        for r in ranks:
            key = key_fn(r)
            res = memo.get(key)
            if res is None:
                res = compute_fn(r)
                memo[key] = res
            out[r] = res
        return out

    # ------------------------------------------------------------------ #
    # distribution relabelling (identity when no distribution is set)
    # ------------------------------------------------------------------ #
    def _to_internal(self, x: np.ndarray) -> np.ndarray:
        """Rows reordered into the internal (part-major) vertex order."""
        if self.distribution is None:
            return x
        return self.distribution.permute_rows(x)

    def _from_internal(self, x: np.ndarray) -> np.ndarray:
        """Rows mapped back to the caller's original vertex order."""
        if self.distribution is None:
            return x
        return self.distribution.unpermute_rows(x)

    # ------------------------------------------------------------------ #
    # static helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _is_symmetric(a: CSRMatrix) -> bool:
        """Exact structural + numerical symmetry check (``A == A^T``)."""
        t = a.transpose()
        return (
            a.shape == t.shape
            and np.array_equal(a.indptr, t.indptr)
            and np.array_equal(a.indices, t.indices)
            and np.array_equal(a.data, t.data)
        )

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def setup(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ) -> None:
        """Validate and distribute the training inputs."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape != (self.n, self.widths[0]):
            raise ValueError(
                f"features shape {features.shape} does not match "
                f"(n={self.n}, f^0={self.widths[0]})"
            )
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (self.n,):
            raise ValueError(f"labels shape {labels.shape} != ({self.n},)")
        if mask is None:
            mask = np.ones(self.n, dtype=bool)
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n,):
            raise ValueError(f"mask shape {mask.shape} != ({self.n},)")
        count = int(mask.sum())
        if count == 0:
            raise ValueError("empty training mask")
        # Internal state lives in the distribution's part-major order.
        features = self._to_internal(features)
        labels = self._to_internal(labels)
        mask = self._to_internal(mask)
        self._features = features
        self._labels = labels
        self._mask = mask
        self._mask_count = count
        # New labels/mask invalidate the hoisted per-epoch invariants.
        self._loss_cache.clear()
        self._grad_cache.clear()
        self._setup_data(features)
        self._ready = True
        self._labels_provisional = False

    def train_epoch(self, epoch: int = 0) -> EpochStats:
        """Run one charged training epoch; returns stats + ledger delta."""
        if not self._ready or self._labels_provisional:
            raise RuntimeError("call setup(features, labels) before training")
        tracker = self.rt.tracker
        # Compact ledger mark: only wall seconds and per-rank byte
        # counters are needed for the epoch delta -- a full
        # ``tracker.snapshot()`` deep copy per epoch was measurable
        # overhead at higher rank counts.
        before_wall = dict(tracker.wall)
        before_bytes = [
            {c: t.bytes for c, t in rank.items()}
            for rank in tracker.per_rank
        ]
        loss, acc = self._run_epoch()
        san = _sanitize.ACTIVE
        if san is not None:
            # Re-hash the copy-on-write receipts handed out this epoch:
            # the writeable flag stops receivers, this catches senders
            # writing through a buffer their peers still alias.
            san.verify_cow(f"end of epoch {epoch}")
        return self._stats_since_marks(
            before_wall, before_bytes, epoch, loss, acc
        )

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        epochs: int,
        mask: Optional[np.ndarray] = None,
        on_epoch: Optional[Callable[["EpochStats"], None]] = None,
        checkpoint_path: Optional[Union[str, "os.PathLike[str]"]] = None,
        checkpoint_every: int = 0,
        resume: bool = False,
        checkpoint_writer: bool = True,
    ) -> DistTrainHistory:
        """Full-batch training for ``epochs`` epochs (sets up first).

        ``on_epoch``, when given, is called with each epoch's
        :class:`EpochStats` as it completes -- the process backend's
        resident workers use it to report liveness (and, under paranoid
        mode, per-epoch ledger digests) from inside the loop.

        With ``checkpoint_path`` and ``checkpoint_every=k``, the full
        training state -- weights, optimizer moments, completed-epoch
        counter, ledger state, and per-epoch history -- is written
        atomically every ``k`` epochs (SPMD pools set
        ``checkpoint_writer`` on exactly one worker so only one process
        writes the shared file).  ``resume=True`` restores that state
        before the loop: the already-completed epochs are replayed from
        the checkpoint's history (``on_epoch`` still fires for them, so
        callbacks see the full epoch stream) and live training
        continues from the next epoch with a ledger that proceeds
        byte-for-byte as if the run had never stopped.
        """
        self.setup(features, labels, mask)
        history = DistTrainHistory()
        start = 0
        if (resume and checkpoint_path is not None
                and os.path.exists(checkpoint_path)):
            start = self._restore_checkpoint(checkpoint_path, history)
            for stats in history.epochs:
                _emit_epoch_event(stats, replayed=True)
                if on_epoch is not None:
                    on_epoch(stats)
        rec = _spans.ACTIVE
        for epoch in range(start, epochs):
            if rec is None:
                stats = self.train_epoch(epoch)
            else:
                t0 = rec.clock()
                stats = self.train_epoch(epoch)
                rec.record("epoch", "epoch", t0, rec.clock(), (epoch,))
            history.epochs.append(stats)
            _emit_epoch_event(stats)
            # Checkpoint before on_epoch so injected faults that fire at
            # the epoch-boundary callback happen strictly after the save
            # -- the state a recovery reloads is exactly this boundary.
            if (checkpoint_writer and checkpoint_every > 0
                    and checkpoint_path is not None
                    and (epoch + 1) % checkpoint_every == 0):
                self._write_checkpoint(checkpoint_path, history)
            if on_epoch is not None:
                on_epoch(stats)
        return history

    def _write_checkpoint(self, path, history: DistTrainHistory) -> None:
        """Atomically persist full training state at an epoch boundary."""
        rec = _spans.ACTIVE
        t0c = rec.clock() if rec is not None else None
        t_start = time.monotonic()
        stats = history.epochs
        ncat = len(Category.ALL)
        hist = {
            "loss": np.asarray([s.loss for s in stats], dtype=np.float64),
            "acc": np.asarray([s.train_accuracy for s in stats],
                              dtype=np.float64),
            "seconds": np.asarray(
                [[s.seconds_by_category[c] for c in Category.ALL]
                 for s in stats], dtype=np.float64
            ).reshape(len(stats), ncat),
            "bytes": np.asarray(
                [[s.bytes_by_category[c] for c in Category.ALL]
                 for s in stats], dtype=np.int64
            ).reshape(len(stats), ncat),
            "maxrank": np.asarray([s.max_rank_comm_bytes for s in stats],
                                  dtype=np.int64),
            "epoch": np.asarray([s.epoch for s in stats], dtype=np.int64),
        }
        _serialize.save_checkpoint(
            path,
            weights=self.model.weights,
            optimizer=self.optimizer,
            epoch=len(stats),
            tracker_state=self.rt.tracker.state_bytes(),
            categories=Category.ALL,
            history=hist,
        )
        self.checkpoints_written += 1
        self.checkpoint_seconds += time.monotonic() - t_start
        _events.emit("checkpoint", path=str(path), epochs=len(stats))
        if rec is not None:
            rec.record("checkpoint", "misc", t0c, rec.clock(),
                       (len(stats),))

    def _restore_checkpoint(self, path,
                            history: DistTrainHistory) -> int:
        """Install a checkpoint's state; returns the epochs completed.

        Runs after :meth:`setup` (which re-charges the distribution
        cost), so the ledger is *overwritten* with the saved state: the
        resumed run's ledger continues from the checkpoint and the
        final digest matches a never-interrupted run's byte for byte.
        """
        state = _serialize.load_checkpoint(path)
        if tuple(state["categories"]) != tuple(Category.ALL):
            raise ValueError(
                f"checkpoint {path} was written with ledger categories "
                f"{state['categories']}, this build uses "
                f"{list(Category.ALL)}")
        self.model.set_weights(
            [np.array(w, copy=True) for w in state["weights"]])
        _serialize.restore_optimizer(
            self.optimizer, state["optimizer"], state["opt_arrays"])
        if state["tracker_state"] is not None:
            self.rt.tracker.restore_state_bytes(state["tracker_state"])
        hist = state["history"]
        for i in range(state["epoch"]):
            seconds = {c: float(hist["seconds"][i, j])
                       for j, c in enumerate(Category.ALL)}
            nbytes = {c: int(hist["bytes"][i, j])
                      for j, c in enumerate(Category.ALL)}
            history.epochs.append(EpochStats(
                epoch=int(hist["epoch"][i]),
                loss=float(hist["loss"][i]),
                train_accuracy=float(hist["acc"][i]),
                seconds_by_category=seconds,
                bytes_by_category=nbytes,
                max_rank_comm_bytes=int(hist["maxrank"][i]),
            ))
        return int(state["epoch"])

    def predict(self, features: Optional[np.ndarray] = None) -> np.ndarray:
        """Distributed inference: log-probabilities for every vertex.

        Pays only the forward pass's communication.  With ``features``
        given, the inputs are (re)distributed first; otherwise the last
        ``setup``/``fit`` inputs are reused.
        """
        if features is not None:
            if self._ready:
                # Redistribute the inputs but keep the training labels
                # and mask intact (inference must not corrupt training).
                features = np.asarray(features, dtype=np.float64)
                if features.shape != (self.n, self.widths[0]):
                    raise ValueError(
                        f"features shape {features.shape} does not match "
                        f"(n={self.n}, f^0={self.widths[0]})"
                    )
                features = self._to_internal(features)
                self._features = features
                self._setup_data(features)
            else:
                # Inference-only setup: placeholder labels, flagged so a
                # later train_epoch() insists on real ones.
                self.setup(features, np.zeros(self.n, dtype=np.int64))
                self._labels_provisional = True
        elif not self._ready:
            raise RuntimeError("call setup(features, labels) or pass features")
        log_probs = self._from_internal(self._forward_pass())
        self._last_log_probs = log_probs
        self._last_out_blocks = None
        return log_probs

    def evaluate(
        self, labels: np.ndarray, mask: Optional[np.ndarray] = None
    ) -> Tuple[float, float]:
        """Held-out (masked) loss and accuracy with the current weights."""
        log_probs = self.predict()
        loss, _ = nll_loss(log_probs, labels, mask)
        return loss, accuracy(log_probs, labels, mask)

    def _set_epoch_output(self, blocks) -> None:
        """Record an epoch's output blocks for lazy assembly.

        On the process backend the lazy read-out is a *collective*
        (``rt.gather_blocks``), so it must run on every worker in the
        same program position -- which the command fan-out guarantees.
        """
        self._last_out_blocks = blocks
        self._last_log_probs = None

    def gather_log_probs(self) -> np.ndarray:
        """The most recent forward pass's full output (verification view).

        Reassembled from the distributed blocks without charging the
        ledger -- the read-out a driver script would do once at the end,
        deferred until someone actually asks.
        """
        if self._last_log_probs is None:
            if self._last_out_blocks is None:
                raise RuntimeError(
                    "no forward pass has run yet; call fit/predict"
                )
            self._last_log_probs = self._from_internal(
                self._assemble(self._last_out_blocks)
            )
        return self._last_log_probs

    def verify_against_serial(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        epochs: int,
        seed: Optional[int] = None,
        mask: Optional[np.ndarray] = None,
    ) -> float:
        """Train serially and distributed from identical weights; return
        the largest divergence observed.

        This is the paper's correctness claim ("outputs the same
        embeddings up to floating point accumulation errors"): the metric
        is the max over per-epoch loss differences, final weight
        differences, and final log-probability differences.
        """
        seed = self.seed if seed is None else seed
        serial = SerialTrainer(
            GCN(self.widths, seed=seed),
            self.a_t,
            a=self.a,
            optimizer=clone_optimizer(self.optimizer),
        )
        # ``self.a_t`` is the internal operand (relabelled when a
        # distribution is set), so the serial reference consumes the
        # internally-ordered inputs and its predictions map back.
        s_features = self._to_internal(
            np.asarray(features, dtype=np.float64)
        )
        s_labels = self._to_internal(np.asarray(labels, dtype=np.int64))
        s_mask = None if mask is None else self._to_internal(
            np.asarray(mask, dtype=bool)
        )
        s_hist = serial.train(s_features, s_labels, epochs, mask=s_mask)
        s_lp = self._from_internal(serial.model.predict(self.a_t, s_features))

        self.model = GCN(self.widths, seed=seed)
        self.optimizer = clone_optimizer(self.optimizer)
        d_hist = self.fit(features, labels, epochs, mask=mask)
        d_lp = self.predict()

        diff = max(
            abs(a - b) for a, b in zip(d_hist.losses, [e.loss for e in s_hist.epochs])
        )
        for w_d, w_s in zip(self.model.weights, serial.model.weights):
            diff = max(diff, float(np.max(np.abs(w_d - w_s))) if w_d.size else 0.0)
        diff = max(diff, float(np.max(np.abs(d_lp - s_lp))))
        return diff

    def dense_memory_words_per_rank(self) -> int:
        """Resident dense words on the most loaded rank (Section V-C).

        Counts the per-layer activation stack (``H``, the cached SpMM
        result ``T``/``Z``, and the gradient working set) at the rank's
        stored row count, plus the replicated weights.
        """
        rows = self._stored_dense_rows()
        acts = sum(
            self._stored_dense_width(self.widths[l])
            + 2 * self._stored_dense_width(self.widths[l + 1])
            for l in range(len(self.widths) - 1)
        )
        weights = sum(
            self.widths[l] * self.widths[l + 1]
            for l in range(len(self.widths) - 1)
        )
        return rows * acts + weights

    # ------------------------------------------------------------------ #
    # shared charging helpers (every charge sits in a step scope so the
    # bulk-synchronous wall clock and the step tracer see it)
    # ------------------------------------------------------------------ #
    def _charge_spmm_step(self, charges: Sequence[Tuple[int, int, int, int]]) -> None:
        """Charge concurrent local SpMM kernels: (rank, nnz, nrows, f)."""
        self.rt.tracker.charge_many(Category.SPMM, [
            (rank, self.perf.seconds(int(nnz), int(nrows), int(f)), 0, 0,
             2 * int(nnz) * int(f))
            for rank, nnz, nrows, f in charges
        ])

    def _charge_spmm_cached(self, key, builder) -> None:
        """Charge a static SpMM sweep from a precomputed charge list.

        ``builder()`` yields the same ``(rank, nnz, nrows, f)`` tuples
        every epoch (block structure is fixed at setup), so the modeled
        seconds and flop counts are computed once and replayed from the
        cache -- identical charges, none of the per-epoch list building.
        """
        items = self._cache.get(key)
        if items is None:
            items = [
                (rank, self.perf.seconds(int(nnz), int(nrows), int(f)),
                 0, 0, 2 * int(nnz) * int(f))
                for rank, nnz, nrows, f in builder()
            ]
            self._cache[key] = items
        self.rt.tracker.charge_many(Category.SPMM, items)

    def _gemm_seconds(self, flops: float) -> float:
        profile = self.rt.profile
        return flops / profile.gemm_flops + profile.kernel_launch_overhead

    def _charge_gemm_step(self, charges: Sequence[Tuple[int, float]]) -> None:
        """Charge concurrent local GEMMs: (rank, flops)."""
        self.rt.tracker.charge_many(Category.MISC, [
            (rank, self._gemm_seconds(flops), 0, 0, int(flops))
            for rank, flops in charges
        ])

    def _charge_gemm_cached(self, key, builder) -> None:
        """Charge a static GEMM sweep from a precomputed charge list."""
        items = self._cache.get(key)
        if items is None:
            items = [
                (rank, self._gemm_seconds(flops), 0, 0, int(flops))
                for rank, flops in builder()
            ]
            self._cache[key] = items
        self.rt.tracker.charge_many(Category.MISC, items)

    def _charge_elementwise_step(self, charges: Sequence[Tuple[int, float]]) -> None:
        """Charge concurrent elementwise kernels: (rank, bytes touched)."""
        profile = self.rt.profile
        bw = profile.memory_bandwidth
        overhead = profile.kernel_launch_overhead
        self.rt.tracker.charge_many(Category.MISC, [
            (rank, int(nbytes) / bw + overhead, 0, 0, 0)
            for rank, nbytes in charges
        ])

    def _charge_transpose_step(self, charges: Sequence[Tuple[int, int]],
                               key=None) -> None:
        """Charge a concurrent pairwise transpose exchange: (rank, bytes).

        The exchange bytes are fixed at setup, so call sites pass a
        ``key`` and the charge list replays from the cache each epoch.
        """
        items = self._cache.get(key) if key is not None else None
        if items is None:
            profile = self.rt.profile
            alpha, beta = profile.alpha, profile.beta
            items = [
                (rank, alpha + beta * int(nbytes), int(nbytes), 1, 0)
                for rank, nbytes in charges
            ]
            if key is not None:
                self._cache[key] = items
        self.rt.tracker.charge_many(Category.TRPOSE, items)

    def _loss_rows(self, rows_lo: int, rows_hi: int) -> Tuple[np.ndarray, np.ndarray]:
        """(masked local row indices, their labels) for a row range, cached.

        Depends only on the fixed labels/mask, so it is derived once per
        ``setup()`` per range instead of once per rank per epoch.
        """
        key = (rows_lo, rows_hi)
        cached = self._loss_cache.get(key)
        if cached is None:
            rows = np.flatnonzero(self._mask[rows_lo:rows_hi])
            cached = (rows, self._labels[rows_lo:rows_hi][rows])
            self._loss_cache[key] = cached
        return cached

    def _masked_loss_terms(
        self, rows_lo: int, rows_hi: int, log_probs_rows: np.ndarray
    ) -> np.ndarray:
        """Local ``[sum_picked, correct]`` contribution for a row range."""
        rows, labels = self._loss_rows(rows_lo, rows_hi)
        if rows.size == 0:
            return np.zeros(2)
        picked = log_probs_rows[rows, labels]
        correct = np.count_nonzero(
            log_probs_rows[rows].argmax(axis=1) == labels
        )
        return np.array([float(picked.sum()), float(correct)])

    def _grad_out_rows(self, rows_lo: int, rows_hi: int, f_out: int) -> np.ndarray:
        """``dL/d log_probs`` for a row range of the output layer.

        The label one-hot is constant across epochs, so it is built once
        per (range, width) and returned read-only (every consumer --
        ``LogSoftmax.backward`` -- is pure).
        """
        key = (rows_lo, rows_hi, f_out)
        grad = self._grad_cache.get(key)
        if grad is None:
            rows, labels = self._loss_rows(rows_lo, rows_hi)
            grad = np.zeros((rows_hi - rows_lo, f_out))
            grad[rows, labels] = -1.0 / self._mask_count
            grad.flags.writeable = False
            self._grad_cache[key] = grad
        return grad

    def _finish_loss(self, totals: np.ndarray) -> Tuple[float, float]:
        """Turn an all-reduced ``[sum_picked, correct]`` into (loss, acc)."""
        loss = -float(totals[0]) / self._mask_count
        acc = float(totals[1]) / self._mask_count
        return loss, acc

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _charge_elementwise_cached(self, key, builder) -> None:
        """Charge a static elementwise sweep from a precomputed list."""
        items = self._cache.get(key)
        if items is None:
            profile = self.rt.profile
            bw = profile.memory_bandwidth
            overhead = profile.kernel_launch_overhead
            items = [
                (rank, int(nbytes) / bw + overhead, 0, 0, 0)
                for rank, nbytes in builder()
            ]
            self._cache[key] = items
        self.rt.tracker.charge_many(Category.MISC, items)

    def _stats_since_marks(
        self,
        before_wall: Dict[str, float],
        before_bytes: List[Dict[str, int]],
        epoch: int,
        loss: float,
        acc: float,
    ) -> EpochStats:
        tracker = self.rt.tracker
        seconds = {
            c: tracker.wall.get(c, 0.0) - before_wall.get(c, 0.0)
            for c in Category.ALL
        }
        nbytes = {c: 0 for c in Category.ALL}
        max_rank = 0
        for r in range(tracker.nranks):
            rank_now = tracker.per_rank[r]
            rank_before = before_bytes[r]
            comm = 0
            for c in Category.ALL:
                delta = rank_now[c].bytes - rank_before.get(c, 0)
                nbytes[c] += delta
                if c in Category.COMM:
                    comm += delta
            if comm > max_rank:
                max_rank = comm
        return EpochStats(
            epoch=epoch,
            loss=loss,
            train_accuracy=acc,
            seconds_by_category=seconds,
            bytes_by_category=nbytes,
            max_rank_comm_bytes=int(max_rank),
        )


class BlockRowAlgorithm(DistAlgorithm):
    """The block-row family's shared epoch (1D and 1.5D).

    Both algorithms keep complete dense rows on every rank, so their
    forward sweep, loss reduction, and backward recursion are the same
    program; they differ only in *which collective* realises the SpMM
    and which group replicates scalars/gradients.  Subclasses provide:

    * ``_block_ranks``           -- the ranks holding dense row blocks;
    * ``_row_range(rank)``       -- the global rows a rank owns;
    * ``_forward_spmm(blocks, f)``  / ``_backward_spmm(blocks, f)``
      -- charged distributed ``A^T X`` / ``A X`` sweeps;
    * ``_replicated_allreduce(values)`` -- the sum that leaves every
      rank with an identical copy (loss terms, weight gradients);
    * ``_assemble(blocks)``      -- uncharged full-matrix read-out;
    * ``_pre_backward()``        -- optional per-epoch charge hook
      (the 1D transpose variant's exchange).
    """

    def _row_range(self, rank: int) -> Tuple[int, int]:
        raise NotImplementedError

    def _rows_of(self, rank: int) -> int:
        """Dense rows ``rank`` holds -- structure, hence backend-global."""
        lo, hi = self._row_range(rank)
        return hi - lo

    @property
    def _local_block_ranks(self) -> Tuple[int, ...]:
        """The locally-held block ranks (all of them on the virtual
        backend) -- the data loops iterate these; charges stay global."""
        return self._local(self._block_ranks)

    def _forward_spmm(self, blocks, f: int):
        raise NotImplementedError

    def _backward_spmm(self, blocks, f: int):
        raise NotImplementedError

    def _replicated_allreduce(self, values):
        raise NotImplementedError

    def _assemble(self, blocks) -> np.ndarray:
        raise NotImplementedError

    def _pre_backward(self) -> None:
        """Per-epoch charges before the backward recursion (default none)."""

    # ------------------------------------------------------------------ #
    def _charge_rows_gemm(self, key, flops_per_row: float) -> None:
        """Charge a GEMM over every block rank at ``rows x flops/row``.

        Built from block structure (``_rows_of``), not from the data
        dicts -- a multiprocess worker holds only its own ranks' blocks
        but must still replay the full world's charges.
        """
        self._charge_gemm_cached(
            key,
            lambda: ((r, self._rows_of(r) * flops_per_row)
                     for r in self._block_ranks),
        )

    def _charge_rows_elementwise(self, key, bytes_per_row: float) -> None:
        """Structural elementwise charge over every block rank."""
        self._charge_elementwise_cached(
            key,
            lambda: ((r, self._rows_of(r) * bytes_per_row)
                     for r in self._block_ranks),
        )

    def _forward_layers(self, h_blocks):
        """Shared forward sweep; returns output blocks + per-layer caches.

        Local kernels run through :meth:`_map_blocks`: replicated layouts
        (1.5D) hand every fiber replica the same buffer, so the identical
        replica compute executes once while every rank is still charged.
        """
        caches = []
        for l, layer in enumerate(self.model.layers):
            f_in, f_out = layer.f_in, layer.f_out
            weight = layer.weight
            t_blocks = self._obs_call(
                "spmm.fwd", "spmm", self._forward_spmm, h_blocks, f_in
            )
            z_blocks = self._map_blocks(
                t_blocks, lambda t: forward_gemm(t, weight)
            )
            self._charge_rows_gemm(("cbg", l), 2.0 * f_in * f_out)
            # Rows are complete locally, so even log_softmax is local.
            h_blocks = self._map_blocks(z_blocks, layer.activation.forward)
            self._charge_rows_elementwise(("cbf", l), 2.0 * f_out * self.WB)
            caches.append({"t": t_blocks, "z": z_blocks})
        return h_blocks, caches

    def _forward_pass(self) -> np.ndarray:
        out_blocks, _ = self._forward_layers(self._h0)
        return self._assemble(out_blocks)

    def _run_epoch(self) -> Tuple[float, float]:
        out_blocks, caches = self._forward_layers(self._h0)
        self._set_epoch_output(out_blocks)
        f_last = self.widths[-1]
        ranks = self._local_block_ranks

        # ---- loss: one scalar-sized replicated all-reduce ----
        terms = self._dedup(
            ranks,
            lambda r: id(out_blocks[r]),
            lambda r: self._masked_loss_terms(*self._row_range(r),
                                              out_blocks[r]),
        )
        totals = self._replicated_allreduce(terms)
        loss, acc = self._finish_loss(next(iter(totals.values())))

        # ---- backward ----
        z_last = caches[-1]["z"]

        def grad_out(r: int) -> np.ndarray:
            lo, hi = self._row_range(r)
            return self.logsm.backward(
                z_last[r], self._grad_out_rows(lo, hi, f_last)
            )

        g_blocks = self._dedup(ranks, lambda r: id(z_last[r]), grad_out)
        self._charge_rows_elementwise(("cbe-out",), 3.0 * f_last * self.WB)
        self._pre_backward()

        grads: List[Optional[np.ndarray]] = [None] * self.model.num_layers
        for l in range(self.model.num_layers - 1, -1, -1):
            layer = self.model.layers[l]
            f_in, f_out = layer.f_in, layer.f_out
            # A G^l is computed (and charged) at every layer, including
            # l = 0 where grad_h is unused -- mirroring the serial layer
            # kernel and the Model1D/Model2D charge patterns, which
            # follow the paper's AG^l-reuse implementation.
            ag_blocks = self._obs_call(
                "spmm.bwd", "spmm", self._backward_spmm, g_blocks, f_out
            )
            # Y^l = sum_i T_i^T G_i, all-reduced so W's update is replicated.
            t_l = caches[l]["t"]
            partials = self._dedup(
                ranks,
                lambda r: (id(t_l[r]), id(g_blocks[r])),
                lambda r: weight_gradient(t_l[r], g_blocks[r]),
            )
            self._charge_rows_gemm(("cbw", l), 2.0 * f_in * f_out)
            y = self._replicated_allreduce(partials)
            grads[l] = next(iter(y.values()))
            if l > 0:
                weight = layer.weight
                gh_blocks = self._map_blocks(
                    ag_blocks, lambda ag: hidden_gradient(ag, weight)
                )
                self._charge_rows_gemm(("cbh", l), 2.0 * f_out * f_in)
                z_prev = caches[l - 1]["z"]
                backward = self.model.layers[l - 1].activation.backward
                g_blocks = self._dedup(
                    ranks,
                    lambda r: (id(z_prev[r]), id(gh_blocks[r])),
                    lambda r: backward(z_prev[r], gh_blocks[r]),
                )
                self._charge_rows_elementwise(("cbb", l), 3.0 * f_in * self.WB)
        self.optimizer.step(self.model.weights, grads)
        return loss, acc


class GridAlgorithm(DistAlgorithm):
    """The 2D-layout family's shared epoch (2D SUMMA and Split-3D).

    Both algorithms split the feature columns of every dense matrix
    across "row groups" of ranks that jointly hold complete rows, so
    the replicated-weight GEMMs, the Equation-3 weight gradient, the
    last-layer row all-gather for log_softmax, the column-0 loss terms,
    and the backward recursion are the same program; they differ only
    in the distributed SpMM itself and in the mesh's group enumeration.
    Subclasses provide:

    * ``_grid_spmm(sparse_blocks, dense_blocks, f)`` -- the charged
      distributed SpMM sweep (SUMMA / Split-3D);
    * ``_row_groups()`` -- rank tuples sharing the same global rows,
      each ordered by feature-column index (so ``group[t]`` owns the
      ``t``-th feature-column block);
    * ``_out_col(rank)`` / ``_rank_rows(rank)`` -- a rank's feature
      -column index and its global row range;
    * ``_fsplit(f)`` -- the feature-column split;
    * ``_charge_epoch_transpose()`` -- the per-epoch ``trpose`` charge
      policy (2D: always; 3D: directed operands only);
    * ``_assemble(out_full)`` -- uncharged full-output read-out;
    * ``a_t_blocks`` / ``a_blocks`` -- the distributed sparse operands.
    """

    def _grid_spmm(self, sparse_blocks, dense_blocks, f: int,
                   ws_key=None):
        raise NotImplementedError

    def _row_groups(self):
        raise NotImplementedError

    @property
    def _row_group_list(self):
        """The row groups, enumerated once and interned in the plan.

        ``_row_groups()`` builds fresh tuples on every call; the grid
        epoch consults the groups once per SUMMA stage, so the list is
        derived once per algorithm instead.
        """
        groups = getattr(self, "_row_group_cache", None)
        if groups is None:
            plan = self._plan()
            groups = tuple(plan.group(g) for g in self._row_groups())
            self._row_group_cache = groups
        return groups

    def _out_col(self, rank: int) -> int:
        raise NotImplementedError

    def _rank_rows(self, rank: int) -> Tuple[int, int]:
        raise NotImplementedError

    def _rows_of(self, rank: int) -> int:
        lo, hi = self._rank_rows(rank)
        return hi - lo

    def _fsplit(self, f: int):
        raise NotImplementedError

    def _charge_epoch_transpose(self) -> None:
        raise NotImplementedError

    def _assemble(self, out_full) -> np.ndarray:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # shared building blocks
    # ------------------------------------------------------------------ #
    @property
    def _local_group_info(self):
        """Per *local* row group: ``(gi, group, members, (c_lo, c_hi))``.

        ``gi`` indexes :attr:`_row_group_list`; ``members`` are the
        locally-held ranks of the group (all of them on the virtual
        backend) and ``(c_lo, c_hi)`` the half-open range of their
        feature-column indices.  Block rank-to-process ownership keeps a
        group's local members contiguous in column order, so one
        contiguous *span* of every group-wide dense matrix covers exactly
        the local blocks -- the group-level kernels below compute once
        per span (the whole width when everything is local, which is
        bitwise the pre-refactor fast path).
        """
        info = getattr(self, "_local_group_info_cache", None)
        if info is None:
            info = []
            for gi, group in enumerate(self._row_group_list):
                members = [r for r in group if self._is_local(r)]
                if not members:
                    continue
                cols = [self._out_col(r) for r in members]
                if cols != list(range(cols[0], cols[-1] + 1)):
                    raise AssertionError(
                        f"non-contiguous local columns {cols} in row group "
                        f"{group}: rank ownership must be block-contiguous"
                    )
                info.append((gi, group, tuple(members),
                             (cols[0], cols[-1] + 1)))
            self._local_group_info_cache = info
        return info

    def _grows(self, group) -> int:
        """Dense rows a row group holds (shared by all its members)."""
        return self._rows_of(group[0])

    @staticmethod
    def _pick_span_key(full: bool, base: Tuple, c_lo: int,
                       c_hi: int) -> Tuple:
        """Workspace key for a span join: the historical full-width key
        when the span covers everything (bitwise the pre-refactor fast
        path), a span-suffixed key otherwise."""
        return base if full else base + (c_lo, c_hi)

    def _join_span(self, parts, rows: int, width: int, key) -> np.ndarray:
        """One dense stage operand from received feature-column pieces:
        the piece itself for a single-column span (no copy), else a
        concatenation into the ``key`` workspace."""
        if len(parts) == 1:
            return parts[0]
        buf = self._ws(key, (rows, width))
        np.concatenate(parts, axis=1, out=buf)
        return buf

    def _span(self, fsplit, c_lo: int, c_hi: int) -> Tuple[int, int]:
        """Feature-column span covered by column indices [c_lo, c_hi)."""
        return fsplit[c_lo][0], fsplit[c_hi - 1][1]

    def _stage_broadcast(self, blocks, f: int):
        """The stage loop of a replicated-W product over ``blocks``:
        in stage ``t`` every row group's ``t``-th member broadcasts its
        feature-column block row-wise.  Yields ``(t, lo, hi, recv)`` per
        non-empty stage of the ``f``-split -- ``recv`` the received
        payloads indexed like :attr:`_row_group_list` (shared by the
        whole group under copy-on-write; ``None`` for non-local groups
        on the multiprocess backend) -- staged through
        :meth:`_broadcast_routed`.  ``f`` also sizes the charges from
        structure (the broadcast block is ``group rows x stage width``).
        """
        fcols = self._fsplit(f)

        def nbytes(root: int) -> int:
            lo, hi = fcols[self._out_col(root)]
            return self._rows_of(root) * (hi - lo) * self.WB

        stages = [(t, lo, hi) for t, (lo, hi) in enumerate(fcols) if hi > lo]
        received = self._broadcast_routed(
            (RoutedBroadcast(
                ("sbch", f, t),
                [(group, group[t]) for group in self._row_group_list],
                blocks, Category.DCOMM, nbytes=nbytes),)
            for t, _, _ in stages
        )
        for (t, lo, hi), (recv,) in zip(stages, received):
            yield t, lo, hi, recv

    def _matmul_w(self, t_blocks, w: np.ndarray, f_in: int, f_out: int,
                  ws_key=None):
        """``T W`` for grid-distributed ``T`` and replicated ``W``.

        Each stage computes one GEMM per *local* row group over the
        group's local feature-column span (the received stage block times
        the matching ``W`` column span) and every local rank's block is a
        view of its group's accumulator -- column blocks of a product are
        independent, so per-rank results are unchanged while the GEMM
        count drops from ``stages x P`` to ``stages x Pr``.  With every
        rank local the span is the whole width, which is bitwise the
        historical full-width fast path; a multiprocess worker computes
        just its own ranks' columns.  Per-rank GEMM charges are global
        and untouched.  ``ws_key`` names a workspace for the group
        accumulators (callers whose result is cached across the epoch
        pass a per-layer key).
        """
        groups_info = self._local_group_info
        fouts = self._fsplit(f_out)
        accs = []
        for gi, group, members, (c_lo, c_hi) in groups_info:
            rows = self._grows(group)
            o_lo, o_hi = self._span(fouts, c_lo, c_hi)
            if ws_key is not None:
                acc = self._ws(("mw", ws_key, gi), (rows, o_hi - o_lo))
                acc.fill(0.0)
            else:
                acc = np.zeros((rows, o_hi - o_lo))
            accs.append((acc, o_lo, o_hi))

        def stage_charges(lo: int, hi: int):
            for group in self._row_group_list:
                rows = self._grows(group)
                for r in group:
                    o0, o1 = fouts[self._out_col(r)]
                    yield r, 2.0 * rows * (hi - lo) * (o1 - o0)

        for t, lo, hi, recv in self._stage_broadcast(t_blocks, f_in):
            w_stage = w[lo:hi, :]
            for idx, (gi, group, members, span) in enumerate(groups_info):
                acc, o_lo, o_hi = accs[idx]
                w_span = (w_stage if o_hi - o_lo == f_out
                          else w_stage[:, o_lo:o_hi])
                acc += forward_gemm(recv[gi], w_span)
            self._charge_gemm_cached(
                ("mwch", f_in, f_out, t),
                lambda lo=lo, hi=hi: stage_charges(lo, hi),
            )
        out = {}
        for idx, (gi, group, members, span) in enumerate(groups_info):
            acc, o_lo, o_hi = accs[idx]
            for r in members:
                o0, o1 = fouts[self._out_col(r)]
                out[r] = acc[:, o0 - o_lo : o1 - o_lo]
        return out

    def _weight_grad(self, t_blocks, g_blocks, f_in: int, f_out: int):
        """``Y^l = T^T G`` (Equation 3): stage broadcasts of T's column
        blocks, partial outer GEMMs, one world all-reduce.

        Like :meth:`_matmul_w`, the outer GEMM runs once per row group
        against the group's full-width ``G`` rows (re-assembled once per
        call) and each rank's zero-padded partial takes its column band
        from the shared product; bands of ``T^T [G_0 | ... ]`` equal the
        per-band GEMMs, and the world all-reduce of the padded partials
        is exactly the historical reduction -- same charges, same result.
        """
        groups_info = self._local_group_info
        fouts = self._fsplit(f_out)
        g_rows = []
        for gi, group, members, (c_lo, c_hi) in groups_info:
            parts = [g_blocks[r] for r in members]
            o_lo, o_hi = self._span(fouts, c_lo, c_hi)
            buf = self._ws(("grows", gi, f_out),
                           (parts[0].shape[0], o_hi - o_lo))
            np.concatenate(parts, axis=1, out=buf)
            g_rows.append((buf, o_lo))
        partials = {}
        for r in t_blocks:
            buf = self._ws(("wgp", r, f_in, f_out), (f_in, f_out))
            buf.fill(0.0)
            partials[r] = buf

        def stage_charges(lo: int, hi: int):
            for group in self._row_group_list:
                rows = self._grows(group)
                for r in group:
                    o0, o1 = fouts[self._out_col(r)]
                    yield r, 2.0 * (hi - lo) * rows * (o1 - o0)

        for t, lo, hi, recv in self._stage_broadcast(t_blocks, f_in):
            for idx, (gi, group, members, span) in enumerate(groups_info):
                buf, o_lo = g_rows[idx]
                band = weight_gradient(recv[gi], buf)  # (hi-lo, local span)
                for r in members:
                    o0, o1 = fouts[self._out_col(r)]
                    partials[r][lo:hi, o0:o1] += band[:, o0 - o_lo : o1 - o_lo]
            self._charge_gemm_cached(
                ("wgch", f_in, f_out, t),
                lambda lo=lo, hi=hi: stage_charges(lo, hi),
            )
        y = self._obs_call(
            "allreduce", Category.DCOMM, self.rt.coll.allreduce,
            self.world_group, partials, category=Category.DCOMM,
        )
        return next(iter(y.values()))

    def _row_allgather(self, blocks, f: int):
        """Full rows on every local rank (concurrent per-row-group
        gathers) -- what the row-wise log_softmax needs.  Every member of
        a row group receives the same contributions, so the concatenation
        happens once per (local) group and the joined rows are shared
        read-only.  Charges are global and replayed from a cached list
        sized from structure (``group rows x f``); the data plane moves
        only the groups this process participates in."""
        key = ("ragch", f)
        charges = self._cache.get(key)
        if charges is None:
            charges = self.rt.coll.allgather_charges([
                (group, self._grows(group) * f * self.WB)
                for group in self._row_group_list
            ])
            self._cache[key] = charges
        self.rt.tracker.charge_many(Category.DCOMM, charges)
        rec = _spans.ACTIVE
        t0 = rec.clock() if rec is not None else 0.0
        full = {}
        for gi, group, members, span in self._local_group_info:
            got = self.rt.coll.allgather_data(
                group, {r: blocks[r] for r in group if r in blocks}
            )
            joined = np.concatenate(next(iter(got.values())), axis=1)
            joined.flags.writeable = False
            for r in got:
                full[r] = joined
        if rec is not None:
            rec.record("row_allgather", Category.DCOMM, t0, rec.clock())
        return full

    # ------------------------------------------------------------------ #
    # the shared epoch
    # ------------------------------------------------------------------ #
    def _charge_band_elementwise(self, key, f: int,
                                 bytes_per_elem: float) -> None:
        """Structural elementwise charge over every rank's ``f``-split
        feature-column block (``rows x band`` elements each)."""
        def builder():
            fcols = self._fsplit(f)
            for group in self._row_group_list:
                rows = self._grows(group)
                for r in group:
                    b0, b1 = fcols[self._out_col(r)]
                    yield r, rows * (b1 - b0) * bytes_per_elem
        self._charge_elementwise_cached(key, builder)

    def _charge_full_elementwise(self, key, f: int,
                                 bytes_per_elem: float) -> None:
        """Structural elementwise charge over every rank's *full-width*
        gathered rows (``rows x f`` elements each)."""
        def builder():
            for group in self._row_group_list:
                rows = self._grows(group)
                for r in group:
                    yield r, rows * f * bytes_per_elem
        self._charge_elementwise_cached(key, builder)

    def _forward_layers(self, h_blocks):
        caches = []
        last = self.model.num_layers - 1
        for l, layer in enumerate(self.model.layers):
            f_in, f_out = layer.f_in, layer.f_out
            t_blocks = self._obs_call(
                "spmm.fwd", "spmm", self._grid_spmm,
                self.a_t_blocks, h_blocks, f_in, ws_key=("t", l),
            )
            z_blocks = self._matmul_w(t_blocks, layer.weight, f_in, f_out,
                                      ws_key=("z", l))
            cache = {"t": t_blocks, "z": z_blocks}
            if l < last:
                h_blocks = {r: layer.activation.forward(z_blocks[r])
                            for r in z_blocks}
                self._charge_band_elementwise(("gef", l), f_out,
                                              2.0 * self.WB)
            else:
                # log_softmax is row-wise: gather full rows first.  The
                # gathered rows are shared per row group, so the forward
                # runs once per group; the per-rank column re-extraction
                # of the final H was dead work (both callers read
                # ``out_full``) and is skipped.
                z_full = self._row_allgather(z_blocks, f_out)
                h_full = self._map_blocks(z_full, layer.activation.forward)
                self._charge_full_elementwise(("gel",), f_out, 2.0 * self.WB)
                h_blocks = {}
                cache["z_full"] = z_full
                cache["out_full"] = h_full
            caches.append(cache)
        return h_blocks, caches

    def _forward_pass(self) -> np.ndarray:
        _, caches = self._forward_layers(self._h0)
        return self._assemble(caches[-1]["out_full"])

    def _run_epoch(self) -> Tuple[float, float]:
        _, caches = self._forward_layers(self._h0)
        self._set_epoch_output(caches[-1]["out_full"])
        f_last = self.widths[-1]
        out_full = caches[-1]["out_full"]

        # ---- loss: feature-column 0 contributes, everyone receives ----
        zeros2 = np.zeros(2)
        terms = self._dedup(
            out_full,
            lambda r: (id(out_full[r])
                       if self._out_col(r) == 0 else "zero"),
            lambda r: (self._masked_loss_terms(*self._rank_rows(r),
                                               out_full[r])
                       if self._out_col(r) == 0 else zeros2),
        )
        totals = self._obs_call(
            "allreduce", Category.DCOMM, self.rt.coll.allreduce,
            self.world_group, terms, category=Category.DCOMM,
        )
        loss, acc = self._finish_loss(next(iter(totals.values())))

        # ---- backward ----
        fcols = self._fsplit(f_last)
        z_full_last = caches[-1]["z_full"]

        def grad_full(r: int) -> np.ndarray:
            lo, hi = self._rank_rows(r)
            return self.logsm.backward(
                z_full_last[r], self._grad_out_rows(lo, hi, f_last)
            )

        g_full = self._dedup(out_full, lambda r: id(z_full_last[r]),
                             grad_full)
        g_blocks = {}
        for r in out_full:
            c0, c1 = fcols[self._out_col(r)]
            g_blocks[r] = g_full[r][:, c0:c1]
        self._charge_full_elementwise(("geg",), f_last, 3.0 * self.WB)
        self._charge_epoch_transpose()

        grads: List[Optional[np.ndarray]] = [None] * self.model.num_layers
        for l in range(self.model.num_layers - 1, -1, -1):
            layer = self.model.layers[l]
            f_in, f_out = layer.f_in, layer.f_out
            # A G^l is charged at every layer (incl. l = 0), mirroring
            # the serial kernel and the analytic models.
            ag_blocks = self._obs_call(
                "spmm.bwd", "spmm", self._grid_spmm,
                self.a_blocks, g_blocks, f_out, ws_key=("ag",),
            )
            grads[l] = self._weight_grad(caches[l]["t"], g_blocks, f_in, f_out)
            if l > 0:
                gh_blocks = self._matmul_w(
                    ag_blocks, layer.weight.T, f_out, f_in
                )
                z_prev = caches[l - 1]["z"]
                g_blocks = {
                    r: self.model.layers[l - 1].activation.backward(
                        z_prev[r], gh_blocks[r]
                    )
                    for r in gh_blocks
                }
                self._charge_band_elementwise(("geb", l), f_in, 3.0 * self.WB)
        self.optimizer.step(self.model.weights, grads)
        return loss, acc
