"""The shared skeleton of every distributed training algorithm.

All four CAGNET algorithm families (1D, 1.5D, 2D SUMMA, Split-3D) differ
only in *how* they lay out the adjacency/activation blocks and *which*
collectives move them; everything else -- the training loop, the weight
replicas and their redundant optimiser step, per-epoch ledger deltas, the
serial-equivalence verification, inference, and held-out evaluation -- is
identical.  :class:`DistAlgorithm` owns that shared machinery so each
``algo_*`` module only implements four hooks:

* ``_setup_data``   -- distribute the features onto the mesh;
* ``_aggregate``    -- the charged ``A^T H^0`` sweep over those blocks,
  run once per feature matrix (:meth:`DistAlgorithm._install_features`);
* ``_run_epoch``    -- one full forward/loss/backward/update sweep,
  naming every collective once (:meth:`DistAlgorithm._collective`, or a
  charged :mod:`repro.comm.collectives` call where the payload sizes the
  charge) and every local kernel sweep once
  (:meth:`DistAlgorithm._charge_kernel`);
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

The two families' shared epochs live beside this module
(:mod:`repro.dist.blockrow`, :mod:`repro.dist.grid`), the per-epoch
records in :mod:`repro.dist.history`.
"""

from __future__ import annotations

import os
import time
from typing import (TYPE_CHECKING, Any, Callable, Dict, FrozenSet, Iterable,
                    Iterator, List, Mapping, NamedTuple, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from repro.comm import cost_model as cm
from repro.comm.collectives import EXACT, payload_nbytes
from repro.comm.mesh import ProcessMesh
from repro.comm.plan import CommPlan
from repro.comm.runtime import Runtime
from repro.comm.tracker import Category
from repro.config import FP64_BYTES
from repro.dist.distribution import Distribution
from repro.dist.history import DistTrainHistory, EpochStats, LedgerDelta
from repro.dist.shard import Shard
from repro.nn.activations import LogSoftmax
from repro.nn.layers import check_widths, funnel_reduces
from repro.nn.loss import accuracy, nll_loss
from repro.nn.model import GCN, SerialTrainer
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn import serialize as _serialize
from repro.obs import events as _events
from repro.obs import spans as _spans
from repro.sparse.csr import CSRMatrix, SparseShape
from repro.sparse.distribute import block_ranges
from repro.sparse.perfmodel import SpmmPerfModel

if TYPE_CHECKING:  # import would cycle: simulate -> dist -> simulate
    from repro.simulate.schedule import CommSchedule

__all__ = ["RoutedStep", "DistAlgorithm", "HELD_FEATURES", "clone_optimizer",
           "serial_divergence", "bucket_bounds", "bucket_nbytes",
           "bucket_bands", "band_nbytes"]

#: (wall seconds per category, bytes per category per rank) at a mark
_LedgerMarks = Tuple[Dict[str, float], List[Dict[str, int]]]

#: What the process backend's driver ships in place of a feature matrix
#: bit-equal to the one its pool installed last: "install nothing, keep
#: the matrix installed last" (:meth:`DistAlgorithm._install_features`).
HELD_FEATURES = "held-features"

#: words of the ``[sum_picked, correct]`` loss pair that heads every
#: rank's gradient bucket -- fp64 whatever the dense element size
LOSS_TERMS = 2


def bucket_bounds(widths: Sequence[int]) -> Tuple[Tuple[int, int], ...]:
    """The gradient bucket's layout, the one place it is written down:
    ``(start, stop)`` in words of the loss pair, then of each layer's
    ``f^{l-1} x f^l`` weight gradient, in layer order.

    Every epoch of every family all-reduces one such bucket per rank
    over its replicated group, once, at the end of the backward
    (:meth:`DistAlgorithm._step_from_bucket`; PyTorch DDP's gradient
    bucketing, Li et al., VLDB 2020): one all-reduce's ``lg P`` latency
    an epoch, not one per piece (``L + 1``).  Elementwise, the fold is
    the one each piece would have on its own, so the bits are too."""
    stops = np.cumsum([LOSS_TERMS] + [a * b for a, b in
                                      zip(widths, widths[1:])]).tolist()
    return tuple(zip([0] + stops[:-1], stops))


def bucket_nbytes(widths: Sequence[int],
                  word_bytes: int = FP64_BYTES) -> int:
    """Wire size of one rank's gradient bucket (:func:`bucket_bounds`)
    with the gradients at ``word_bytes`` an element -- what the schedule
    emitters price (:mod:`repro.simulate.schedule`)."""
    words = bucket_bounds(widths)[-1][1]
    return LOSS_TERMS * FP64_BYTES + word_bytes * (words - LOSS_TERMS)


#: one band of a grid family's gradient bucket: per layer, the ``(rows,
#: cols)`` block of ``Y^l`` it holds
Band = Tuple[Tuple[Tuple[int, int], Tuple[int, int]], ...]


def bucket_bands(widths: Sequence[int], parts: int) -> Tuple[Band, ...]:
    """The gradient bucket cut into the ``parts`` column bands of a grid
    family (:class:`repro.dist.grid.GridAlgorithm`): band ``j`` is the
    loss pair and, per layer, the block of ``Y^l`` a rank of
    feature-column index ``j`` contributes to -- rows ``j`` of the
    ``f^{l-1}`` split where the layer's forward product reduces
    (:func:`~repro.nn.layers.funnel_reduces`: its weight gradient is
    ``T_r^T (A G^l)``, a row band), else columns ``j`` of the ``f^l``
    split (``T^T G_r``).  The bands tile every ``Y^l``."""
    out = []
    for j in range(parts):
        band = []
        for l, (f_in, f_out) in enumerate(zip(widths, widths[1:])):
            if funnel_reduces(f_in, f_out, l == 0):
                band.append((block_ranges(f_in, parts)[j], (0, f_out)))
            else:
                band.append(((0, f_in), block_ranges(f_out, parts)[j]))
        out.append(tuple(band))
    return tuple(out)


def band_nbytes(band: Band, word_bytes: int = FP64_BYTES) -> int:
    """Wire size of one band of :func:`bucket_bands`: the fp64 loss pair
    and its gradient blocks at ``word_bytes`` an element."""
    return LOSS_TERMS * FP64_BYTES + word_bytes * sum(
        (r1 - r0) * (c1 - c0) for (r0, r1), (c0, c1) in band)


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


class RoutedStep(NamedTuple):
    """One step of concurrent routed transfers of a stage
    (:meth:`DistAlgorithm._routed_stages`): broadcasts, or a gather of
    selected dense rows (a ghost exchange, a SUMMA stage's relay)."""

    #: ``"broadcast"`` or ``"gather_rows"``
    kind: str
    #: charge-cache key (the routes and payload shapes behind it are
    #: fixed at setup)
    key: Tuple
    #: the routes :meth:`Collectives.post` takes for ``kind``:
    #: ``(group, root)`` per broadcast, ``(src, dst, src_rows)`` per
    #: gathered block of rows
    routes: Sequence[tuple]
    #: ``{source: payload}`` for the sources this process holds
    blocks: Mapping[int, Any]
    category: str
    #: the charge items :meth:`Collectives.charges` prices for ``kind``,
    #: from structure alone (a worker holds only its own sources'
    #: payloads); called once, on the charge cache's miss
    sizes: Callable[[], Sequence[tuple]]
    #: SUMMA's pipelined broadcast (no ``lg p`` latency factor)
    pipelined: bool = True


#: local-kernel kind -> the ledger category it is reported under ("Local
#: dense matrix multiply (GEMM) calls are inexpensive and thus reported
#: under misc", Fig. 3 caption).
_KERNEL_CATEGORY = {
    "spmm": Category.SPMM,
    "gemm": Category.MISC,
    "elementwise": Category.MISC,
    "transpose": Category.TRPOSE,
}


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


def serial_divergence(
    widths: Sequence[int], seed: int, optimizer: Optimizer,
    a_t: CSRMatrix, a: CSRMatrix, distribution: Optional[Distribution],
    features: np.ndarray, labels: np.ndarray, epochs: int,
    mask: Optional[np.ndarray],
    distributed: Callable[[], Tuple[Sequence[float], Sequence[np.ndarray],
                                    np.ndarray]],
) -> float:
    """Train the serial reference, then the distributed side, from the
    same fresh weights; return the largest divergence observed.

    This is the paper's correctness claim ("outputs the same embeddings
    up to floating point accumulation errors"): the metric is the max
    over per-epoch loss differences, final weight differences, and final
    log-probability differences.  ``a_t`` / ``a`` are the internal
    operand and its transpose (relabelled where ``distribution`` is
    set), so the reference consumes the internally-ordered inputs and
    its predictions map back.  ``distributed()`` trains the distributed
    side and returns its ``(losses, weights, log_probs)``.
    """
    serial = SerialTrainer(GCN(widths, seed=seed), a_t, a=a,
                           optimizer=clone_optimizer(optimizer))
    rows = (lambda x: x) if distribution is None \
        else distribution.permute_rows
    s_features = rows(np.asarray(features, dtype=np.float64))
    s_mask = None if mask is None else rows(np.asarray(mask, dtype=bool))
    s_hist = serial.train(s_features, rows(np.asarray(labels, dtype=np.int64)),
                          epochs, mask=s_mask)
    s_lp = serial.model.predict(a_t, s_features)
    if distribution is not None:
        s_lp = distribution.unpermute_rows(s_lp)
    losses, weights, d_lp = distributed()
    diff = max(abs(a - b) for a, b in zip(losses, s_hist.losses))
    for w_d, w_s in zip(weights, serial.model.weights):
        if w_d.size:
            diff = max(diff, float(np.max(np.abs(w_d - w_s))))
    return max(diff, float(np.max(np.abs(d_lp - s_lp))))


class DistAlgorithm:
    """Base class: runtime + replicated weights + the shared training loop.

    Subclasses receive the forward-pass SpMM operand ``a_t`` (the paper's
    ``A^T``, equal to ``A`` for GCN-normalised undirected graphs) and the
    layer ``widths`` ``(f^0, ..., f^L)`` -- or, on a process-backend
    worker, the :class:`~repro.dist.shard.Shard` the driver cut of it
    for the worker's ranks (:meth:`cut_shards`, the one cut every runtime
    builds its ranks from).  The backward operand ``A`` is derived once
    by the cut (transpose for directed inputs), mirroring
    :class:`repro.nn.model.SerialTrainer`'s ``a_t``/``a`` pair.
    """

    #: bytes per dense element; the reproduction executes in fp64.
    WB = FP64_BYTES

    #: whether a block this process does not hold is described with its
    #: nonempty columns (:class:`~repro.sparse.csr.SparseShape`): the
    #: grid family builds its SUMMA relays from every piece's columns
    _SHAPE_COLUMNS = False

    def __init__(
        self,
        rt: Runtime,
        a_t: Union[CSRMatrix, Shard],
        widths: Sequence[int],
        seed: int = 0,
        optimizer: Optional[Optimizer] = None,
        distribution: Optional[Distribution] = None,
        **layout: Any,
    ):
        widths = check_widths(widths)
        # Partition-aware layout: the operand is relabelled part-major
        # once, by the cut; setup() relabels the dense inputs to match
        # and the prediction surface maps back, so callers never see
        # internal ids.  The block-row family additionally adopts the
        # distribution's per-rank row ranges (see DistGCN1D); the grid
        # families use the relabelling alone.
        shard = a_t if isinstance(a_t, Shard) else self.cut_shards(
            rt.mesh, a_t, [rt.local_ranks], distribution=distribution,
            operand=True, **layout)[0]
        self.distribution = distribution
        self.rt = rt
        #: the whole internal operand and its transpose: held where the
        #: caller's matrix was cut (the virtual runtime), ``None`` on a
        #: process-backend worker, which holds only its shard
        self.a_t, self.a = shard.a_t, shard.a
        #: the shard's blocks by role and its family structure, for the
        #: subclass constructor to adopt (:meth:`cut_shards`)
        self._roles, self._shard_extra = shard.blocks, shard.extra
        self.n = shard.n
        self.widths = widths
        self.seed = seed
        self.optimizer = optimizer if optimizer is not None else SGD(lr=0.1)
        self.model = GCN(self.widths, seed=seed)
        self._bucket_bounds = bucket_bounds(widths)
        self.symmetric = shard.symmetric
        self.perf = SpmmPerfModel.from_profile(rt.profile)
        self._ready = False
        self._labels_provisional = False
        #: the installed feature matrix (caller's order, a private copy;
        #: ``None`` on a process-backend worker, which keeps none), whether
        #: one is installed, and the product aggregated from it, ``T^0 =
        #: A^T H^0`` -- every forward sweep starts from ``_t0``; see
        #: :meth:`_install_features`.
        self._features: Optional[np.ndarray] = None
        self._installed = False
        self._t0: Dict[int, np.ndarray] = {}
        self._labels: Optional[np.ndarray] = None
        self._mask: Optional[np.ndarray] = None
        self._mask_count = 0
        self._last_log_probs: Optional[np.ndarray] = None
        #: the last epoch's distributed output blocks, assembled lazily:
        #: on the process backend the assembly is a cross-process
        #: shipment, so paying it every epoch just to fill a cache that
        #: is usually never read would tax the scaling path.
        self._last_out_blocks = None
        self.logsm = LogSoftmax()
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
        self._loss_cache: Dict[Tuple[int, ...], Tuple[np.ndarray, ...]] = {}
        self._grad_cache: Dict[Tuple[int, int, int], np.ndarray] = {}
        #: fault-tolerance accounting, read back through the process
        #: backend's ``stats`` op: checkpoints this instance has written
        #: and the wall seconds they cost.
        self.checkpoints_written = 0
        self.checkpoint_seconds = 0.0

    # ------------------------------------------------------------------ #
    # hooks for subclasses
    # ------------------------------------------------------------------ #
    def _setup_data(self, features: np.ndarray) -> Dict[int, np.ndarray]:
        """The locally-held blocks of ``H^0`` in the family's layout."""
        raise NotImplementedError

    def _aggregate(self, h_blocks: Dict[int, np.ndarray]
                   ) -> Dict[int, np.ndarray]:
        """``A^T H^0`` over ``h_blocks``: the family's forward sweep --
        same collective, same kernel, same charges as any other layer's."""
        raise NotImplementedError

    def _run_epoch(self) -> Tuple[float, float]:
        """One charged forward/loss/backward/update; returns (loss, acc)."""
        raise NotImplementedError

    def _forward_pass(self) -> np.ndarray:
        """Charged forward-only sweep; returns full ``n x f^L`` log-probs."""
        raise NotImplementedError

    @classmethod
    def _cut(cls, mesh: ProcessMesh, a_t: CSRMatrix, a: CSRMatrix,
             symmetric: bool,
             **layout: Any) -> Tuple[Dict[str, Dict[int, CSRMatrix]],
                                     Dict[str, Any]]:
        """The family's layout of the internal operand over every rank
        of ``mesh``: ``({role: {rank: block}}, structure)`` -- the
        blocks of each operand role the epoch reads (two roles may be
        the same dict) and any further structure the ledger or the data
        plane needs (:meth:`_localize` cuts it per process).  Every
        layout error is raised here, before any worker is told."""
        raise NotImplementedError

    @classmethod
    def _localize(cls, extra: Dict[str, Any],
                  ranks: FrozenSet[int]) -> Dict[str, Any]:
        """The part of :meth:`_cut`'s structure a process holding
        ``ranks`` needs (all of it by default)."""
        return extra

    @classmethod
    def cut_shards(cls, mesh: ProcessMesh, a_t: CSRMatrix,
                   rank_sets: Sequence[Iterable[int]],
                   distribution: Optional[Distribution] = None,
                   operand: bool = False, **layout: Any) -> List[Shard]:
        """Cut the caller's operand once into one :class:`Shard` per set
        of ranks: the virtual runtime asks for one shard of every rank,
        the process backend's driver for one per worker.

        The operand is relabelled by ``distribution``, checked for
        symmetry and transposed where directed once, here; the family's
        :meth:`_cut` lays it out over every rank, and each shard holds
        the blocks of its own ranks, a
        :class:`~repro.sparse.csr.SparseShape` of every other rank's
        block (what the global ledger's charges read) and its part of
        the family's structure.  ``operand=True`` also hands each shard
        the whole internal ``A^T`` and ``A``."""
        if a_t.nrows != a_t.ncols:
            raise ValueError(f"adjacency must be square, got {a_t.shape}")
        if distribution is not None:
            if distribution.n != a_t.nrows:
                raise ValueError(
                    f"distribution covers {distribution.n} vertices, "
                    f"graph has {a_t.nrows}"
                )
            a_t = distribution.permute_matrix(a_t)
        symmetric = cls._is_symmetric(a_t)
        a = a_t if symmetric else a_t.transpose()
        roles, extra = cls._cut(mesh, a_t, a, symmetric,
                                distribution=distribution, **layout)
        shapes: Dict[int, SparseShape] = {}

        def shape(block: CSRMatrix) -> SparseShape:
            got = shapes.get(id(block))
            if got is None:
                got = shapes[id(block)] = SparseShape.of(
                    block, columns=cls._SHAPE_COLUMNS)
            return got

        shards = []
        for ranks in rank_sets:
            ranks = frozenset(ranks)
            cut: Dict[int, Dict[int, Any]] = {}
            for by_rank in roles.values():
                if id(by_rank) not in cut:
                    cut[id(by_rank)] = {
                        r: (block if r in ranks
                            or not isinstance(block, CSRMatrix)
                            else shape(block))
                        for r, block in by_rank.items()}
            shards.append(Shard(
                a_t.nrows, symmetric,
                {role: cut[id(by_rank)] for role, by_rank in roles.items()},
                cls._localize(extra, ranks),
                a_t if operand else None, a if operand else None))
        return shards

    def _keep_t0(self, t0: Dict[int, np.ndarray]) -> Dict[int, np.ndarray]:
        """What :meth:`_install_features` keeps of a freshly aggregated
        ``T^0``: the local blocks, ours alone (the sweep may hand back
        copy-on-write receipts or views of a workspace the next sweep
        refills).  Runs inside the set-up section, so whatever a family
        moves here is charged there, once per feature matrix."""
        return self._map_blocks(t0, np.array)

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
        predicts one executed ``train_epoch`` ledger delta byte for byte,
        and its one-time section (``schedule.setup``) the delta across a
        ``setup()`` that installs new features.
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
        concatenations, the block-row family's kernel outputs).  Keys
        must encode enough context (role, layer, group) that no two
        *live* uses share a buffer; contents are whatever the previous
        epoch left, so callers fully overwrite.  Two aliasing rules:

        * a buffer handed to a collective -- as a contribution whose
          receipts alias it, or donated as an accumulator -- must not be
          rewritten while a receiver still reads it (the receivers'
          arithmetic would change, which ``verify_against_serial`` and
          the process runs' bit equality with the virtual run catch).
          A per-layer key written once per epoch satisfies this by
          construction;
        * the output layer's log-probabilities stay private arrays:
          :meth:`_set_epoch_output` keeps them for a lazy read-out that
          may come after later ``predict()`` calls have rerun the forward
          pass.

        Deliberately **per-algorithm**, not held by the runtime's
        :class:`CommPlan`: two algorithm instances sharing one runtime
        would collide on plan-held scratch keyed only by (role, shape),
        silently corrupting each other's live buffers.
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

    def _collective(
        self,
        kind: str,
        key: Tuple,
        category: str,
        where: Sequence[Any],
        payloads: Mapping[int, Any],
        sizes: Callable[[], Sequence[tuple]],
        span: Optional[str] = None,
        pipelined: bool = False,
        posted: Any = None,
        **kw: Any,
    ) -> Any:
        """One bulk-synchronous step of concurrent ``kind`` collectives:
        charge every rank of the world, move this process's data.

        ``where`` names the step's groups (group kinds) or routes
        (routed kinds) and ``payloads`` the locally-held contributions,
        as :meth:`Collectives.move` takes them (with ``kw``); returns
        what it returns.  The step's shapes are fixed at setup, so its
        per-rank charge list is built once -- ``sizes()`` yields the
        ``(group-or-route..., nbytes)`` items
        :meth:`Collectives.charges` prices, from structure alone, since
        a multiprocess worker holds only its own ranks' buffers -- and
        replayed from the cache under ``key`` on later epochs.  The
        data plane runs under one wall-clock span (``span``, default
        the kind).  On that first call an exact-accounting kind is
        audited too: the bytes charged to local receivers must be the
        bytes that arrived (a SUMMA stage's relay books members no route
        reaches too: they select their rows from a local member's), else
        it raises naming the exchange; the shapes being fixed, later
        calls need no audit.  ``posted`` finishes a
        :meth:`Collectives.post` made earlier instead of moving now (a
        staged routed step): the charge lands here, where the step is
        collected.
        """
        coll = self.rt.coll
        charges = self._cache.get(key)
        first = charges is None
        if first:
            charges = coll.charges(kind, sizes(), pipelined)
        self.rt.tracker.charge_many(category, charges)
        if posted is None:
            out = self._obs_call(span or kind, category, coll.move,
                                 kind, where, payloads, **kw)
        else:
            out = self._obs_call(span or kind, category, coll.collect,
                                 posted)
        if first:
            if kind in EXACT:
                dsts = {dst for _, dst, _ in where}
                charged = sum(c[2] for c in charges
                              if c[0] in dsts and self._is_local(c[0]))
                moved = sum(payload_nbytes(got) for got in out
                            if got is not None)
                if charged != moved:
                    raise RuntimeError(
                        f"ledger mismatch in exchange '{kind}:{key!r}': "
                        f"charged {charged} bytes but the data plane "
                        f"moved {moved} bytes to local ranks")
            self._cache[key] = charges
        return out

    def _routed_stages(
        self, stages: Iterable[Sequence[RoutedStep]],
    ) -> Iterator[List[list]]:
        """The staged routed loop every stage loop runs over.

        ``stages`` yields, per stage, the routed steps that stage needs
        (:class:`RoutedStep`: SUMMA's sparse broadcasts and dense
        relays, 1.5D's broadcast rounds);
        this yields, per stage, the received payload list of each of
        them (shared read-only receipts, one per route; routes with no
        local destination yield ``None`` on the multiprocess backend).

        Look-ahead is one stage: stage ``k + 1`` is drawn from ``stages``
        and its transfers are put on the wire *before* stage ``k`` is
        collected and handed to the caller's multiply, so on a backend
        whose payloads travel they do so under that multiply.  Two
        stages are in flight at most, which bounds the extra memory at
        one stage's pieces.  A stage's payloads must therefore not
        depend on an earlier stage's multiply -- every operand a stage
        loop moves is complete before the loop starts.

        The (static) charges are replayed when a stage is *collected*
        (:meth:`_collective`), i.e. at the program point the unstaged
        loop charged them, so the ledger is the same entry for entry.
        """
        coll = self.rt.coll

        def span(step: RoutedStep) -> str:
            return "bcast" if step.kind == "broadcast" else step.kind

        def collect(stage: Sequence[RoutedStep],
                    posted: list) -> List[list]:
            return [
                self._collective(
                    b.kind, b.key, b.category, b.routes, b.blocks, b.sizes,
                    span=span(b), pipelined=b.pipelined, posted=handle,
                )
                for b, handle in zip(stage, posted)
            ]

        ahead: Optional[Tuple[Sequence[RoutedStep], list]] = None
        for stage in stages:
            posted = [
                self._obs_call(span(b), b.category, coll.post,
                               b.kind, b.routes, b.blocks)
                for b in stage
            ]
            if ahead is not None:
                yield collect(*ahead)
            ahead = (stage, posted)
        if ahead is not None:
            yield collect(*ahead)

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
        """Validate and distribute the training inputs.

        A feature matrix this algorithm has not seen is aggregated once
        here (:meth:`_install_features`) and charged to the ledger, so
        no epoch's delta carries it; the matrix of the last call costs
        nothing again.
        """
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
        self._install_features(features)
        # Internal state lives in the distribution's part-major order.
        self._labels = self._to_internal(labels)
        self._mask = self._to_internal(mask)
        self._mask_count = count
        # New labels/mask invalidate the hoisted per-epoch invariants.
        self._loss_cache.clear()
        self._grad_cache.clear()
        self._ready = True
        self._labels_provisional = False

    def _install_features(self, features: Any) -> None:
        """The one door features come in by: ``setup`` and
        ``predict(features)`` both install them here.

        ``H^0`` does not change between epochs, so neither does ``T^0 =
        A^T H^0``: it is computed when a matrix is installed, through
        the family's ordinary forward sweep (:meth:`_aggregate`: the same
        bits an epoch would compute), charged like any sweep, and kept
        for as long as the matrix is.  Whether a matrix is new is decided
        by **content**, bit for bit, by the process the caller hands it
        to: here, against a private copy of the last one, which also
        means a caller editing its array in place changes nothing until
        it installs the array again -- ``fit`` comes through here every
        time, so an unchanged matrix must cost nothing.  On the process
        backend that process is the driver
        (:class:`~repro.parallel.runtime.ParallelAlgorithm`, on its own
        copy): it ships a worker :data:`HELD_FEATURES` for the matrix
        installed last and the matrix itself only when it is new, so
        every worker reaches the driver's verdict -- the virtual run's --
        by construction, keeps no copy (``rt.compares_features`` is
        false) and installs whatever matrix arrives.
        """
        if isinstance(features, str) and features == HELD_FEATURES:
            if not self._installed:
                raise RuntimeError(
                    "the held-features marker reached an algorithm that "
                    "holds no feature matrix")
            return
        given = np.asarray(features, dtype=np.float64)
        if given.ndim != 2 or given.shape != (self.n, self.widths[0]):
            raise ValueError(
                f"features shape {given.shape} does not match "
                f"(n={self.n}, f^0={self.widths[0]})"
            )
        keep = self.rt.compares_features
        held = self._features
        if held is not None and (held is given or np.array_equal(
                held.view(np.int64), given.view(np.int64))):
            return
        if keep and np.may_share_memory(given, features):
            given = given.copy()
        # nothing is installed until T^0 is whole
        self._features, self._installed = None, False
        before = set(self.workspace)
        # Internal state lives in the distribution's part-major order.
        self._t0 = self._obs_call(
            "setup", Category.MISC,
            lambda: self._keep_t0(self._aggregate(
                self._setup_data(self._to_internal(given)))))
        # Nothing reads an f^0-wide operand again: drop the gather /
        # ghost / SUMMA buffers the sweep allocated.
        for key in [k for k in self.workspace if k not in before]:
            del self.workspace[key]
        self._features = given if keep else None
        self._installed = True

    def train_epoch(self, epoch: int = 0) -> EpochStats:
        """Run one charged training epoch; returns stats + ledger delta."""
        if not self._ready or self._labels_provisional:
            raise RuntimeError("call setup(features, labels) before training")
        marks = self._ledger_marks()
        loss, acc = self._run_epoch()
        return EpochStats(epoch=epoch, loss=loss, train_accuracy=acc,
                          **self._ledger_since(marks))

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
        resident workers use it to report liveness and per-epoch ledger
        digests from inside the loop.

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
        marks = self._ledger_marks()
        self.setup(features, labels, mask)
        history = DistTrainHistory(
            setup=LedgerDelta(**self._ledger_since(marks)))
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
        _serialize.save_checkpoint(
            path,
            weights=self.model.weights,
            optimizer=self.optimizer,
            epoch=len(stats),
            tracker_state=self.rt.tracker.state_bytes(),
            categories=Category.ALL,
            history=history.to_arrays(),
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

        Runs after :meth:`setup` (which, on an algorithm that holds no
        ``T^0`` yet, charges the aggregation again), so the ledger is
        *overwritten* with the saved state: the
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
        history.extend_from_arrays(state["history"], state["epoch"])
        return int(state["epoch"])

    def predict(self, features: Optional[np.ndarray] = None) -> np.ndarray:
        """Distributed inference: log-probabilities for every vertex.

        Pays only the forward pass's communication (``L - 1`` sweeps:
        ``A^T H^0`` is kept from set-up).  With ``features`` given they
        are installed first (and aggregated, if new); otherwise the last
        ``setup``/``fit``/``predict`` inputs are reused.
        """
        if features is not None:
            if self._ready:
                # New inputs, same training labels and mask (inference
                # must not corrupt training).
                self._install_features(features)
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
        the largest divergence observed (:func:`serial_divergence`)."""
        seed = self.seed if seed is None else seed

        def distributed():
            self.model = GCN(self.widths, seed=seed)
            self.optimizer = clone_optimizer(self.optimizer)
            hist = self.fit(features, labels, epochs, mask=mask)
            return hist.losses, self.model.weights, self.predict()

        return serial_divergence(
            self.widths, seed, self.optimizer, self.a_t, self.a,
            self.distribution, features, labels, epochs, mask, distributed)

    def _kept_x_width(self, l: int) -> int:
        """Resident columns per rank of layer ``l``'s left operand
        (Equation 3's ``T``, or ``H^{l-1}``; layer 1's is the ``T^0``
        kept from set-up): the rank's own block."""
        return self._stored_dense_width(self.widths[l])

    def dense_memory_words_per_rank(self) -> int:
        """Resident dense words on the most loaded rank (Section V-C).

        Counts the per-layer activation stack (Equation 3's left operand
        ``T`` -- or ``H^{l-1}`` where a shrinking layer multiplies by
        ``W`` first, at the same width -- ``Z`` / ``H``, and the gradient
        working set) at the rank's stored row count, plus the replicated
        weights.  Each left operand is :meth:`_kept_x_width` columns
        wide; layer 1's is the ``T^0`` kept from set-up, and ``H^0``
        itself is not held past set-up.
        """
        rows = self._stored_dense_rows()
        acts = sum(
            self._kept_x_width(l)
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
    def _charge_kernel(self, kind: str, key: Tuple,
                       builder: Callable[[], Iterable[tuple]]) -> None:
        """Charge one sweep of concurrent local kernels.

        ``builder()`` yields the sweep's per-rank work, from block
        structure alone: ``(rank, nnz, nrows, f)`` for ``"spmm"``
        (priced by the SpMM perf model), ``(rank, flops)`` for
        ``"gemm"``, ``(rank, bytes touched)`` for ``"elementwise"`` (the
        paper reports both under misc) and ``(rank, bytes)`` for the
        pairwise ``"transpose"`` exchange.  The whole sweep is priced in
        one call of the kind's :mod:`repro.comm.cost_model` rule.
        Structure is fixed at setup, so the modeled seconds and flop
        counts are computed once and replayed from the cache under
        ``key`` -- identical charges, none of the per-epoch list
        building.
        """
        items = self._cache.get(key)
        if items is None:
            profile = self.rt.profile
            ranks, *columns = zip(*builder())
            work = [np.array(c) for c in columns]
            nbytes = messages = flops = (0,) * len(ranks)
            if kind == "spmm":
                nnz, _, f = work
                seconds = self.perf.seconds(*work)
                flops = (2 * nnz * f).tolist()
            elif kind == "gemm":
                seconds = cm.gemm_seconds(profile, *work)
                flops = work[0].astype(np.int64).tolist()
            elif kind == "elementwise":
                seconds = cm.elementwise_seconds(profile, *work)
            else:
                cost = cm.transpose_cost(profile, *work)
                seconds = cost.seconds
                nbytes = cost.bytes_critical.tolist()
                messages = cost.messages.tolist()
            items = list(zip(ranks, seconds.tolist(), nbytes, messages,
                             flops))
            self._cache[key] = items
        self.rt.tracker.charge_many(_KERNEL_CATEGORY[kind], items)

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
    # the gradient bucket: one replicated all-reduce per epoch
    # ------------------------------------------------------------------ #
    def _bucket(self, r: int) -> np.ndarray:
        """Rank ``r``'s gradient bucket (:func:`bucket_bounds`): a flat
        workspace the epoch writes once -- the loss pair after the
        forward, each layer's weight-gradient partial in the backward --
        and hands to the epoch's one replicated all-reduce.  It is the
        one gradient copy the memory model's ``_weights_words``
        (:mod:`repro.analysis.memory`) counts, two loss words aside."""
        return self._ws(("bucket", r), (self._bucket_bounds[-1][1],))

    def _bucket_slot(self, bucket: np.ndarray,
                     l: Optional[int] = None) -> np.ndarray:
        """A view of ``bucket``'s loss pair (``l`` None) or of layer
        ``l``'s weight gradient, ``f^{l-1} x f^l`` and C-contiguous, so
        a GEMM writes into it as into an array of its own."""
        lo, hi = self._bucket_bounds[0 if l is None else l + 1]
        if l is None:
            return bucket[lo:hi]
        return bucket[lo:hi].reshape(self.widths[l], self.widths[l + 1])

    def _step_from_bucket(self, total: np.ndarray) -> Tuple[float, float]:
        """The epoch's end: split the all-reduced bucket into the loss
        and accuracy and each layer's gradient, and take the replicated
        optimiser step.  Nothing in the epoch reads them before this
        point, which is what lets the reduction wait until here."""
        self.optimizer.step(
            self.model.weights,
            [self._bucket_slot(total, l)
             for l in range(self.model.num_layers)])
        return self._finish_loss(self._bucket_slot(total))

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _ledger_marks(self) -> "_LedgerMarks":
        """Compact ledger mark: only wall seconds and per-rank byte
        counters are needed for a delta -- a full ``tracker.snapshot()``
        deep copy per epoch was measurable overhead at higher rank
        counts."""
        tracker = self.rt.tracker
        return dict(tracker.wall), [
            {c: t.bytes for c, t in rank.items()}
            for rank in tracker.per_rank
        ]

    def _ledger_since(self, marks: "_LedgerMarks") -> Dict[str, Any]:
        """The :class:`LedgerDelta` fields accumulated since ``marks``."""
        before_wall, before_bytes = marks
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
        return dict(
            seconds_by_category=seconds,
            bytes_by_category=nbytes,
            max_rank_comm_bytes=int(max_rank),
        )
