"""Symbolic per-epoch communication schedules.

A :class:`CommSchedule` is the *trace* of one training epoch with the data
left out: a sequence of bulk-synchronous phases, each holding the payload
sizes of the concurrent collectives (or local kernels) the phase performs.
What the trainer does once per feature matrix instead of once per epoch
-- the ``A^T H^0`` aggregation of ``DistAlgorithm._install_features``,
and in the grid families the row-group gather of that ``T^0`` and the
SUMMA stages' sparse pieces, which move at the first install only -- is
the schedule's **one-time section** (:attr:`CommSchedule.setup`), a
schedule of its own priced by the same :func:`evaluate_schedule`.
The :mod:`repro.dist` algorithm classes emit schedules through their
``emit_comm_schedule`` hooks by replaying their epoch loops symbolically
-- same collectives, same groups, same byte counts -- without building a
single numpy block or virtual rank, which is what makes P = 16384
tractable.  The emitters import the trainer's own rules from
:mod:`repro.nn.layers` rather than restating them: which side of its
layer each sweep runs on (:func:`~repro.nn.layers.sweep_order`) and, in
2D / 3D, whether a replicated-``W`` product reduce-scatters its narrow
output or all-gathers its narrow input along the row groups
(:func:`~repro.nn.layers.funnel_reduces`).  Whatever a 2D / 3D epoch
gathers along the row groups it gathers once, with one all-gather: a
product and the weight gradient beside it run only their GEMMs from the
gathered stages.

Pricing a schedule (:func:`evaluate_schedule`) calls the price list of
:mod:`repro.comm.cost_model` -- the very rules the executed ledger is
charged through, each evaluated once over a phase's array of sizes -- and
keeps only the step reductions here: the per-phase maximum over
participants, the latency / bandwidth split, and the byte and message
sums.  Because emission mirrors the executed charge pattern one-for-one,
a schedule built from the actual adjacency predicts the executed ledger's
per-category seconds, bytes, messages and step count **exactly**; with a
:class:`GraphModel` built from just ``(n, nnz)`` the nonzeros are assumed
uniform and the prediction becomes the paper's load-balanced analytic
model (what ``repro figure2`` / ``figure3`` print, at the paper's fp32
element size -- the emitters' ``word_bytes``).

:class:`GraphModel` is the shape oracle emission runs against: it answers
"how many nonzeros land in this block?" either exactly (CSR-backed) or
under the uniform assumption (shape-only), behind one interface -- the
dense/sparse-agnostic backend idiom, applied to graph statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.comm import cost_model as cm
from repro.comm.tracker import Category
from repro.config import FP64_BYTES, INDEX_BYTES, MachineProfile
from repro.dist.base import band_nbytes, bucket_bands, bucket_nbytes
from repro.nn.layers import funnel_reduces, sweep_order
from repro.sparse.csr import CSRMatrix
from repro.sparse.distribute import block_ranges
from repro.sparse.perfmodel import SpmmPerfModel

__all__ = [
    "boundaries",
    "GraphModel",
    "CommSchedule",
    "GatherRowsPhase",
    "ScheduleBuilder",
    "SimResult",
    "evaluate_schedule",
    "emit_blockrow_epoch",
    "emit_grid_epoch",
    "sparse_wire_bytes",
]

def boundaries(n: int, parts: int) -> np.ndarray:
    """Block boundaries ``[0, ..., n]`` of :func:`block_ranges`.

    The shared indexing idiom of every emitter and oracle: ``cell i``
    spans ``[bounds[i], bounds[i+1])``.
    """
    return np.array(
        [0] + [hi for _, hi in block_ranges(n, parts)], dtype=np.int64
    )


def sparse_wire_bytes(nnz, nrows, word_bytes: int) -> np.ndarray:
    """Serialised CSR block size: data + indices + indptr.

    Mirrors :attr:`repro.sparse.csr.CSRMatrix.nbytes_on_wire` for blocks
    of ``nnz`` nonzeros of ``word_bytes`` each and ``nrows`` rows (arrays
    broadcast).
    """
    nnz = np.asarray(nnz, dtype=np.float64)
    nrows = np.asarray(nrows, dtype=np.float64)
    return nnz * (word_bytes + INDEX_BYTES) + (nrows + 1.0) * INDEX_BYTES


# ---------------------------------------------------------------------- #
# the graph shape oracle
# ---------------------------------------------------------------------- #
class GraphModel:
    """Nonzero-placement oracle for schedule emission.

    Two backends behind one interface:

    * **exact** (``from_csr`` / ``from_dataset``) -- block nonzero counts
      are measured on the actual matrix, so emitted schedules reproduce
      the executed ledger byte for byte;
    * **uniform** (``uniform`` / ``from_published``) -- only ``(n, nnz)``
      are known and nonzeros are assumed uniformly spread (the paper's
      analysis assumption, justified by the random vertex permutation),
      which is what allows paper-scale graphs that no process could hold.

    The stored matrix is the forward operand ``A^T`` (equal to ``A`` for
    GCN-normalised undirected graphs); oracles take ``transpose=True`` to
    ask about the backward operand ``A`` of directed inputs.
    """

    def __init__(
        self,
        n: int,
        nnz: int,
        csr: Optional[CSRMatrix] = None,
        name: str = "graph",
        symmetric: bool = True,
        features: Optional[int] = None,
        n_classes: Optional[int] = None,
    ):
        if n < 1 or nnz < 0:
            raise ValueError(f"invalid graph shape n={n}, nnz={nnz}")
        self.n = int(n)
        self.nnz = int(nnz)
        self.csr = csr
        self.name = name
        self.symmetric = bool(symmetric)
        self.features = features
        self.n_classes = n_classes
        self._csr_t: Optional[CSRMatrix] = None

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_csr(
        cls,
        csr: CSRMatrix,
        name: str = "graph",
        features: Optional[int] = None,
        n_classes: Optional[int] = None,
    ) -> "GraphModel":
        """Exact oracle over an actual (square) sparse matrix."""
        if csr.nrows != csr.ncols:
            raise ValueError(f"adjacency must be square, got {csr.shape}")
        t = csr.transpose()
        symmetric = (
            np.array_equal(csr.indptr, t.indptr)
            and np.array_equal(csr.indices, t.indices)
            and np.array_equal(csr.data, t.data)
        )
        model = cls(
            csr.nrows, csr.nnz, csr=csr, name=name, symmetric=symmetric,
            features=features, n_classes=n_classes,
        )
        model._csr_t = t
        return model

    @classmethod
    def from_dataset(cls, dataset) -> "GraphModel":
        """Exact oracle over a :class:`repro.graph.datasets.Dataset`."""
        return cls.from_csr(
            dataset.adjacency,
            name=dataset.name,
            features=dataset.feature_width,
            n_classes=dataset.num_classes,
        )

    @classmethod
    def uniform(
        cls,
        n: int,
        nnz: int,
        name: str = "uniform",
        symmetric: bool = True,
        features: Optional[int] = None,
        n_classes: Optional[int] = None,
    ) -> "GraphModel":
        """Shape-only oracle under the uniform-nonzeros assumption."""
        return cls(
            n, nnz, csr=None, name=name, symmetric=symmetric,
            features=features, n_classes=n_classes,
        )

    @classmethod
    def from_published(cls, name: str) -> "GraphModel":
        """Uniform oracle at a Table VI dataset's full published size.

        The normalised adjacency adds one self loop per vertex.  This is
        the graph Figures 2 and 3 are predicted on.
        """
        from repro.graph.datasets import published_spec

        spec = published_spec(name)
        return cls.uniform(
            spec.vertices,
            spec.edges + spec.vertices,
            name=spec.name,
            symmetric=True,
            features=spec.features,
            n_classes=spec.labels,
        )

    @classmethod
    def coerce(cls, graph) -> "GraphModel":
        """Accept a GraphModel, a Dataset, a CSRMatrix, or a published name."""
        if isinstance(graph, cls):
            return graph
        if isinstance(graph, CSRMatrix):
            return cls.from_csr(graph)
        if isinstance(graph, str):
            return cls.from_published(graph)
        if hasattr(graph, "adjacency"):
            return cls.from_dataset(graph)
        raise TypeError(
            f"cannot build a GraphModel from {type(graph).__name__}; pass a "
            "GraphModel, Dataset, CSRMatrix, or published dataset name"
        )

    # ------------------------------------------------------------------ #
    # oracle internals
    # ------------------------------------------------------------------ #
    @property
    def exact(self) -> bool:
        return self.csr is not None

    @property
    def avg_degree(self) -> float:
        return self.nnz / self.n

    def _matrix(self, transpose: bool) -> CSRMatrix:
        if not transpose:
            return self.csr
        if self._csr_t is None:
            self._csr_t = self.csr.transpose()
        return self._csr_t

    def _row_bounds(self, parts: int, bounds) -> np.ndarray:
        """Boundary array: the equal split of ``parts`` or an explicit
        override (partition-aware layouts pass their distribution's
        uneven rank bounds)."""
        if bounds is None:
            return boundaries(self.n, parts)
        bounds = np.asarray(bounds, dtype=np.int64)
        if bounds[0] != 0 or bounds[-1] != self.n or np.any(
            np.diff(bounds) < 0
        ):
            raise ValueError(
                f"bounds must ascend from 0 to n={self.n}, got {bounds}"
            )
        return bounds

    # ------------------------------------------------------------------ #
    # oracles
    # ------------------------------------------------------------------ #
    def cell_nnz(
        self,
        row_parts: int,
        col_bounds: np.ndarray,
        transpose: bool = False,
    ) -> np.ndarray:
        """Nonzeros per (row block, column range) cell.

        ``col_bounds`` is an ascending boundary array covering ``[0, n]``;
        returns a float ``(row_parts, len(col_bounds) - 1)`` array (exact
        counts are integral floats).
        """
        col_bounds = np.asarray(col_bounds, dtype=np.int64)
        if not self.exact:
            row_lens = np.diff(boundaries(self.n, row_parts))
            col_lens = np.diff(col_bounds)
            return (
                self.nnz
                * np.outer(row_lens / self.n, col_lens / self.n)
            )
        return self._cell_counts(row_parts, col_bounds, transpose)

    def run_nonzero_cols(
        self,
        row_parts: int,
        col_bounds: np.ndarray,
        roots,
        transpose: bool = False,
    ) -> np.ndarray:
        """Columns with a nonzero in a cyclic run of row blocks, per
        cell: entry ``[p, c]`` counts the columns of cell ``c`` that any
        of the row blocks ``roots[c] + p, ..., roots[c] + row_parts - 1``
        (mod ``row_parts``) reads -- the dense rows hop ``p`` of a SUMMA
        stage's relay carries (:meth:`repro.dist.grid.GridAlgorithm.
        _summa_stage`); ``p = 0`` is the whole column.

        Cells as in :meth:`cell_nnz`, one root per cell.  The uniform
        backend uses the expected occupancy of a cell ``w`` columns wide
        holding the run's ``z`` nonzeros, ``w (1 - e^{-z / w})``, rounded
        to the nearest whole row: a run expected to miss less than half
        a row reads the whole block.
        """
        col_bounds = np.asarray(col_bounds, dtype=np.int64)
        roots = np.asarray(roots, dtype=np.int64)
        ncells = len(col_bounds) - 1
        # offset[b, c]: how many hops after cell c's root block b sits
        offset = (np.arange(row_parts)[:, None] - roots[None, :]) % row_parts
        if not self.exact:
            by_offset = np.zeros((row_parts, ncells))
            by_offset[offset, np.arange(ncells)] = self.cell_nnz(
                row_parts, col_bounds)
            z = np.cumsum(by_offset[::-1], axis=0)[::-1]
            widths = np.diff(col_bounds).astype(np.float64)
            safe = np.where(widths > 0, widths, 1.0)
            return np.floor(widths * (1.0 - np.exp(-z / safe)) + 0.5)
        csr = self._matrix(transpose)
        blocks = np.repeat(self._block_of(row_parts), np.diff(csr.indptr))
        blocks, cols = np.divmod(np.unique(blocks * self.n + csr.indices),
                                 self.n)
        cell_of = np.searchsorted(col_bounds, np.arange(self.n),
                                  side="right") - 1
        # per column: the farthest hop that reads it
        last = np.full(self.n, -1)
        np.maximum.at(last, cols, offset[blocks, cell_of[cols]])
        read = last >= 0
        counts = np.zeros((row_parts, ncells))
        np.add.at(counts, (last[read], cell_of[read]), 1.0)
        return np.cumsum(counts[::-1], axis=0)[::-1]

    def _block_of(self, row_parts: int) -> np.ndarray:
        """Each row's block of the equal ``row_parts`` split."""
        return np.searchsorted(
            boundaries(self.n, row_parts), np.arange(self.n), side="right"
        ) - 1

    def _cell_counts(self, row_parts: int, col_bounds: np.ndarray,
                     transpose: bool) -> np.ndarray:
        """The exact per-cell count of nonzeros."""
        csr = self._matrix(transpose)
        blocks = np.repeat(self._block_of(row_parts), np.diff(csr.indptr))
        ncells = len(col_bounds) - 1
        cells = np.searchsorted(col_bounds, csr.indices, side="right") - 1
        counts = np.bincount(blocks * ncells + cells,
                             minlength=row_parts * ncells)
        return counts.reshape(row_parts, ncells).astype(np.float64)

    def row_block_nnz(self, parts: int, transpose: bool = False,
                      bounds=None) -> np.ndarray:
        """Nonzeros per block row (``block_ranges(n, parts)`` or the
        explicit ``bounds`` override)."""
        bounds = self._row_bounds(parts, bounds)
        if not self.exact:
            lens = np.diff(bounds)
            return self.nnz * lens / self.n
        csr = self._matrix(transpose)
        return np.diff(csr.indptr[bounds]).astype(np.float64)

    def col_block_nnz(self, parts: int, transpose: bool = False,
                      bounds=None) -> np.ndarray:
        """Nonzeros per block column."""
        return self.cell_nnz(
            1, self._row_bounds(parts, bounds), transpose
        )[0]

    def col_block_nonzero_rows(
        self, parts: int, transpose: bool = False, bounds=None
    ) -> np.ndarray:
        """Rows with at least one nonzero, per block column.

        This is the structural row count the SparCML-style sparse
        reduce-scatter ships (Section IV-A.3); the uniform backend uses
        the expected-occupancy formula ``n (1 - e^{-d w / n})``.
        """
        bounds = self._row_bounds(parts, bounds)
        parts = len(bounds) - 1
        lens = np.diff(bounds).astype(np.float64)
        if not self.exact:
            return self.n * (1.0 - np.exp(-self.avg_degree * lens / self.n))
        csr = self._matrix(transpose)
        deg = np.diff(csr.indptr)
        nnz_rows = np.repeat(np.arange(self.n, dtype=np.int64), deg)
        nnz_cols = np.searchsorted(bounds, csr.indices, side="right") - 1
        unique = np.unique(nnz_rows * parts + nnz_cols)
        return np.bincount(
            (unique % parts).astype(np.int64), minlength=parts
        ).astype(np.float64)

    def ghost_row_counts(self, bounds) -> Tuple[np.ndarray, np.ndarray]:
        """Per row block: (ghost rows, distinct source blocks).

        The partition-aware term of the schedule oracle: ghost rows are
        the distinct remote-neighbour rows a block must fetch for its
        local multiply (Section IV-A's ``r_i``, whose max is
        ``edgecut_P(A)``).  The exact backend reuses the executed
        runtime's own structure derivation
        (:func:`repro.dist.distribution.ghost_structure`), so predicted
        expansion volume matches the executed ledger byte for byte; the
        uniform backend uses the expected-occupancy estimate
        ``(n - s_i)/n * n (1 - e^{-nnz_i / n})`` with every other block
        as a source.
        """
        bounds = self._row_bounds(len(bounds) - 1, bounds)
        nblocks = len(bounds) - 1
        lens = np.diff(bounds).astype(np.float64)
        if not self.exact:
            nnz_blk = self.nnz * lens / self.n
            occupied = self.n * (1.0 - np.exp(-nnz_blk / self.n))
            ghosts = (self.n - lens) / self.n * occupied
            nsrc = np.where(
                (ghosts > 0) & (nblocks > 1), nblocks - 1, 0
            ).astype(np.float64)
            return ghosts, nsrc
        from repro.dist.distribution import ghost_structure

        ranges = [(int(bounds[i]), int(bounds[i + 1]))
                  for i in range(nblocks)]
        g = ghost_structure(self.csr, ranges)
        return (
            np.array(g.ghost_rows, dtype=np.float64),
            np.array(g.nsources, dtype=np.float64),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mode = "exact" if self.exact else "uniform"
        return (
            f"GraphModel({self.name!r}, n={self.n}, nnz={self.nnz}, {mode})"
        )


# ---------------------------------------------------------------------- #
# phases
# ---------------------------------------------------------------------- #
@dataclass
class CollectivePhase:
    """One bulk-synchronous step of concurrent same-kind collectives."""

    kind: str  # "broadcast" | "allgather" | "reduce_scatter" | "allreduce"
    category: str
    group_size: int
    nbytes: np.ndarray  # payload (broadcast) / total (others) per group
    pipelined: bool = False


@dataclass
class GatherRowsPhase:
    """One row-gather step: per-rank moved bytes and peer counts.

    Priced by :func:`repro.comm.cost_model.gather_rows_cost`, like the
    ``gather_rows`` kind of :meth:`repro.comm.collectives.Collectives.
    charges`: entry ``i`` moves exactly ``nbytes[i]`` to or from
    ``npeers[i]`` ranks.  A ghost-row exchange books its receivers --
    the partition-aware term whose total is ``sum_i r_i * f *
    itemsize``; a SUMMA stage's relay books every member of a process
    column the rows its hop carries (the root the first hop's), one
    message each -- the pipelined broadcast's price where every member
    reads every row.
    """

    category: str
    nbytes: np.ndarray
    npeers: np.ndarray


@dataclass
class TransposePhase:
    """Per-rank transpose-exchange charges (``trpose`` category)."""

    nbytes: np.ndarray


@dataclass
class SpmmPhase:
    """Concurrent local SpMM kernels: per-rank (nnz, nrows, f), as
    arrays that broadcast against each other (a grid family's ranks are
    the product of its axes, and need not be spelled out)."""

    nnz: np.ndarray
    nrows: np.ndarray
    ncols_dense: np.ndarray


@dataclass
class GemmPhase:
    """Concurrent local dense matmuls: per-rank flop counts."""

    flops: np.ndarray


@dataclass
class ElementwisePhase:
    """Concurrent memory-bound elementwise kernels: per-rank bytes."""

    nbytes: np.ndarray


Phase = Union[
    CollectivePhase, GatherRowsPhase, TransposePhase, SpmmPhase, GemmPhase,
    ElementwisePhase,
]


@dataclass
class CommSchedule:
    """An epoch's phases plus the world size that prices them.

    ``setup`` is the one-time section: the phases the executed algorithm
    runs (and charges) when a feature matrix is installed, outside every
    epoch.  ``None`` on a one-time section itself.
    """

    p: int
    phases: List[Phase]
    meta: Dict[str, object] = field(default_factory=dict)
    setup: Optional["CommSchedule"] = None

    @property
    def nphases(self) -> int:
        return len(self.phases)

    def counts(self) -> Dict[str, int]:
        """Phase counts by type name (diagnostic)."""
        out: Dict[str, int] = {}
        for ph in self.phases:
            key = type(ph).__name__
            out[key] = out.get(key, 0) + 1
        return out


def _arr(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, dtype=np.float64))


class ScheduleBuilder:
    """Accumulates phases in executed-epoch order.

    Each method appends exactly one bulk-synchronous step; array arguments
    hold one entry per concurrent collective/kernel in the step, matching
    how the executed algorithms group charges under one
    :meth:`~repro.comm.tracker.CommTracker.step_scope`.

    ``word_bytes`` is the element size the emitters scale dense words
    and sparse values by: fp64 (the default) mirrors the executed
    reproduction, fp32 prices the paper's training runs.  Indices and
    the loss pair do not scale with it.
    """

    def __init__(self, p: int, word_bytes: int = FP64_BYTES):
        if p < 1:
            raise ValueError(f"world size must be >= 1, got {p}")
        if word_bytes < 1:
            raise ValueError(f"element size must be >= 1, got {word_bytes}")
        self.p = int(p)
        self.wb = int(word_bytes)
        self.phases: List[Phase] = []
        self.setup_phases: List[Phase] = []

    # -- communication -------------------------------------------------- #
    def broadcast(self, category: str, group_size: int, nbytes,
                  pipelined: bool = False) -> None:
        self.phases.append(
            CollectivePhase("broadcast", category, int(group_size),
                            _arr(nbytes), pipelined)
        )

    def allgather(self, category: str, group_size: int, total_bytes) -> None:
        self.phases.append(
            CollectivePhase("allgather", category, int(group_size),
                            _arr(total_bytes))
        )

    def reduce_scatter(self, category: str, group_size: int,
                       total_bytes) -> None:
        self.phases.append(
            CollectivePhase("reduce_scatter", category, int(group_size),
                            _arr(total_bytes))
        )

    def allreduce(self, category: str, group_size: int, nbytes) -> None:
        self.phases.append(
            CollectivePhase("allreduce", category, int(group_size),
                            _arr(nbytes))
        )

    def gather_rows(self, category: str, nbytes, npeers) -> None:
        nbytes, npeers = np.broadcast_arrays(_arr(nbytes), _arr(npeers))
        self.phases.append(GatherRowsPhase(
            category,
            np.ascontiguousarray(nbytes, dtype=np.float64),
            np.ascontiguousarray(npeers, dtype=np.float64),
        ))

    def transpose(self, nbytes) -> None:
        self.phases.append(TransposePhase(_arr(nbytes)))

    # -- local compute -------------------------------------------------- #
    def spmm(self, nnz, nrows, ncols_dense) -> None:
        self.phases.append(
            SpmmPhase(_arr(nnz), _arr(nrows), _arr(ncols_dense)))

    def gemm(self, flops) -> None:
        self.phases.append(GemmPhase(_arr(flops)))

    def elementwise(self, nbytes) -> None:
        self.phases.append(ElementwisePhase(_arr(nbytes)))

    def end_setup(self) -> None:
        """Everything emitted so far is the one-time section; the epoch
        starts here."""
        self.setup_phases, self.phases = self.phases, []

    def build(self, **meta) -> CommSchedule:
        return CommSchedule(
            self.p, self.phases, dict(meta),
            setup=CommSchedule(self.p, self.setup_phases, dict(meta)),
        )


# ---------------------------------------------------------------------- #
# evaluation
# ---------------------------------------------------------------------- #
@dataclass
class SimResult:
    """Priced schedule: modeled wall seconds + the exact byte ledger.

    ``seconds_by_category`` is the bulk-synchronous wall clock (per-phase
    maximum over concurrent participants, like the tracker's
    ``step_scope``); ``bytes_by_category`` sums the per-rank critical-path
    bytes over every rank -- the quantity the executed
    :class:`~repro.comm.tracker.CommTracker` ledger records.  The
    latency/bandwidth/compute split decomposes the same wall clock by
    mechanism (alpha terms, beta terms, local kernels).
    """

    seconds_by_category: Dict[str, float]
    bytes_by_category: Dict[str, int]
    latency_seconds: float
    bandwidth_seconds: float
    compute_seconds: float
    messages: int
    nphases: int

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds_by_category.values())

    @property
    def comm_seconds(self) -> float:
        return self.latency_seconds + self.bandwidth_seconds

    @property
    def comm_bytes(self) -> int:
        return sum(self.bytes_by_category[c] for c in Category.COMM)

    @property
    def epochs_per_second(self) -> float:
        total = self.total_seconds
        return 1.0 / total if total > 0 else float("inf")

    def breakdown(self) -> Dict[str, float]:
        return dict(self.seconds_by_category)


class _Accumulator:
    """The step reductions: each phase's slowest participant paces it,
    every participant's bytes and messages are booked."""

    def __init__(self):
        self.sec = {c: 0.0 for c in Category.ALL}
        self.nbytes = {c: 0 for c in Category.ALL}
        self.lat = 0.0
        self.bw = 0.0
        self.compute = 0.0
        self.messages = 0

    def comm(self, category: str, cost: cm.CollectiveCost,
             fanout: int = 1) -> None:
        """One step of concurrent transfers, each booked by ``fanout``
        ranks (the members of a group collective)."""
        if not cost.seconds.size:
            return
        slowest = int(np.argmax(cost.seconds))
        wall = float(cost.seconds[slowest])
        wall_lat = float(cost.latency_seconds[slowest])
        self.sec[category] += wall
        self.nbytes[category] += int(cost.bytes_critical.sum()) * fanout
        self.lat += wall_lat
        self.bw += wall - wall_lat
        self.messages += int(cost.messages.sum()) * fanout

    def local(self, category: str, seconds: np.ndarray) -> None:
        wall = float(seconds.max())
        self.sec[category] += wall
        self.compute += wall


def evaluate_schedule(
    schedule: CommSchedule, profile: MachineProfile
) -> SimResult:
    """Price a schedule on a machine profile.

    Every phase is one vectorised call of its :mod:`repro.comm.cost_model`
    rule (span = the world size ``schedule.p``) -- the same function the
    executed ledger charges through -- followed by the step reduction, so
    exact-mode schedules reproduce the executed ledger's seconds, bytes,
    messages and step count exactly.
    """
    acc = _Accumulator()
    perf = SpmmPerfModel.from_profile(profile)
    p = schedule.p
    for ph in schedule.phases:
        if isinstance(ph, CollectivePhase):
            flags = (ph.pipelined,) if ph.kind == "broadcast" else ()
            acc.comm(
                ph.category,
                cm.GROUP_COST[ph.kind](
                    profile, ph.nbytes, ph.group_size, *flags, span=p),
                fanout=ph.group_size,
            )
        elif isinstance(ph, GatherRowsPhase):
            acc.comm(ph.category, cm.gather_rows_cost(
                profile, ph.nbytes, ph.npeers, span=p))
        elif isinstance(ph, TransposePhase):
            acc.comm(Category.TRPOSE, cm.transpose_cost(profile, ph.nbytes))
        elif isinstance(ph, SpmmPhase):
            acc.local(Category.SPMM,
                      perf.seconds(ph.nnz, ph.nrows, ph.ncols_dense))
        elif isinstance(ph, GemmPhase):
            acc.local(Category.MISC, cm.gemm_seconds(profile, ph.flops))
        elif isinstance(ph, ElementwisePhase):
            acc.local(Category.MISC,
                      cm.elementwise_seconds(profile, ph.nbytes))
        else:  # pragma: no cover - phase set is closed
            raise TypeError(f"unknown phase type {type(ph).__name__}")
    return SimResult(
        seconds_by_category=dict(acc.sec),
        bytes_by_category=dict(acc.nbytes),
        latency_seconds=acc.lat,
        bandwidth_seconds=acc.bw,
        compute_seconds=acc.compute,
        messages=acc.messages,
        nphases=schedule.nphases,
    )


# ---------------------------------------------------------------------- #
# shared epoch skeletons (mirroring repro.dist.blockrow / repro.dist.grid)
# ---------------------------------------------------------------------- #
def emit_blockrow_epoch(
    b: ScheduleBuilder,
    widths: Sequence[int],
    rows_per_rank: np.ndarray,
    forward_spmm: Callable[[int], None],
    backward_spmm: Callable[[int], None],
    replicated_allreduce: Callable[[int], None],
    pre_backward: Optional[Callable[[], None]] = None,
) -> None:
    """The :class:`~repro.dist.blockrow.BlockRowAlgorithm` epoch, symbolically.

    Phase-for-phase mirror of the set-up aggregation (the one-time
    section) and of ``BlockRowAlgorithm._run_epoch`` (forward sweep from
    the kept ``T^0``, backward recursion down to layer 2, then one
    ``replicated_allreduce`` of the gradient bucket: the loss pair and
    every weight gradient, :func:`~repro.dist.base.bucket_nbytes`), each
    sweep on the side of its GEMM and at the width
    :func:`~repro.nn.layers.sweep_order` gives it; the callables plug in
    the 1D/1.5D-specific data movement exactly like the executed hooks
    do.
    """
    rows = np.asarray(rows_per_rank, dtype=np.float64)
    n_layers = len(widths) - 1
    forward_spmm(widths[0])
    b.end_setup()
    for l in range(n_layers):
        f_in, f_out = widths[l], widths[l + 1]
        project_first = sweep_order(f_in, f_out, l == 0).project_fwd
        if l > 0 and not project_first:
            forward_spmm(f_in)
        b.gemm(rows * (2.0 * f_in * f_out))
        if project_first:
            forward_spmm(f_out)
        b.elementwise(rows * (2.0 * f_out * b.wb))
    b.elementwise(rows * (3.0 * widths[-1] * b.wb))
    if pre_backward is not None:
        pre_backward()
    for l in range(n_layers - 1, -1, -1):
        f_in, f_out = widths[l], widths[l + 1]
        project_first = sweep_order(f_in, f_out, l == 0).project_bwd
        if l > 0 and not project_first:
            backward_spmm(f_out)
        b.gemm(rows * (2.0 * f_in * f_out))
        if l > 0:
            b.gemm(rows * (2.0 * f_out * f_in))
            if project_first:
                backward_spmm(f_in)
            b.elementwise(rows * (3.0 * f_in * b.wb))
    replicated_allreduce(bucket_nbytes(widths, b.wb))


def emit_grid_epoch(
    b: ScheduleBuilder,
    widths: Sequence[int],
    n: int,
    grid: Tuple[int, int, int],
    fibers: bool,
    roots: Sequence[int],
    operands: Sequence[Tuple[np.ndarray, np.ndarray]],
    a_cells: Optional[np.ndarray],
) -> None:
    """The :class:`~repro.dist.grid.GridAlgorithm` epoch, symbolically.

    Phase-for-phase mirror of the set-up (the one-time section: the
    aggregation, which moves the sparse pieces, and the row-group
    all-gather of ``T^0``) and of ``GridAlgorithm._run_epoch``, for 2D
    SUMMA and Split-3D alike: 2D is the one-layer case.  The layout
    supplies only its shape and the model's counts: ``grid = (Pr, Pc,
    L)`` (rank ``(i, j, k)``; row group ``(i, k)`` has ``Pc`` members,
    one per block of the feature-column split, and holds the ``k``-th
    ``L``-way sub-split of row block ``i``), whether a sweep ends in a
    reduce-scatter along the fibers ``(i, j)`` (Split-3D's, at any
    ``L``), each stage's root process row, and per sparse operand
    (``operands[0]`` the forward ``A^T``, ``[1]`` the backward ``A``)
    the ``[i, t, k]`` nonzeros of row block ``i``'s slice of stage
    ``t`` in layer ``k`` and the ``[p, t, k]`` rows hop ``p`` of that
    stage's relay carries.  A sweep runs, per stage, the
    dense relay (each member booked the rows its hop carries, the root
    the first hop's, one message each) and the local SpMMs, then the
    fiber reduce-scatter, as ``GridAlgorithm._grid_spmm`` does.  The
    sparse pieces move once, at set-up, as ``GridAlgorithm.
    _summa_sweep`` moves them: the aggregation's sweep over ``A^T``
    also broadcasts every stage's pieces along the process rows.  A
    directed operand's ``A`` blocks (``a_cells``, their nonzeros per row
    block and column cell; ``None`` for a symmetric operand, whose
    ``A`` grid is its ``A^T`` grid, pieces included) are transposed at
    set-up too, before its pieces move, so no epoch charges ``scomm``
    or ``trpose``.
    :func:`~repro.nn.layers.sweep_order` decides which side of its
    replicated-``W`` product each sweep runs on, and
    :func:`~repro.nn.layers.funnel_reduces` how each product moves its
    ``min(f_in, f_out)`` columns along the row groups: a reduce-scatter
    where the output is narrower, else GEMMs over stages all-gathered
    once (layer 1's ``T^0`` at set-up, a forward ``T^l``, a backward
    ``A G^l``).  The weight gradient reads the same stages, so it moves
    nothing; the epoch ends with the gradient bucket (the loss pair and
    every weight gradient): every column group all-reduces its band
    (:func:`~repro.dist.base.bucket_bands`), then every row group
    all-gathers the bands.
    """
    pr, pc, layers = grid
    block_rows = np.array([hi - lo for lo, hi in block_ranges(n, pr)],
                          dtype=np.float64)
    # subrows[i, k]: the dense rows of rank (i, j, k) -- the k-th
    # sub-split of row block i, and the shard a fiber (i, j)
    # reduce-scatter leaves on layer k.
    subrows = np.array(
        [[hi - lo for lo, hi in block_ranges(int(m), layers)]
         for m in block_rows], dtype=np.float64)
    group_rows = subrows.reshape(-1)
    rows = np.broadcast_to(subrows[:, None, :], grid).reshape(-1)
    n_layers = len(widths) - 1

    def fsplit_widths(f: int) -> np.ndarray:
        return np.array([hi - lo for lo, hi in block_ranges(f, pc)],
                        dtype=np.float64)

    def outw_of_rank(f: int) -> np.ndarray:
        return np.broadcast_to(fsplit_widths(f)[None, :, None],
                               grid).reshape(-1)

    def grid_spmm(f: Optional[int], backward: bool,
                  pieces: bool = False) -> None:
        nz, run = operands[backward]
        fw = None if f is None else fsplit_widths(f)
        for t, root in enumerate(roots):
            if pieces:  # the first sweep over an operand: set-up's
                # row group (i, k) gets its slice of the stage
                b.broadcast(
                    Category.SCOMM, pc,
                    sparse_wire_bytes(nz[:, t, :], block_rows[:, None],
                                      b.wb).reshape(-1),
                    pipelined=True,
                )
            if f is None:  # the pieces alone
                continue
            # Member (i, j, k), p = i - root hops down: |U_p| rows in
            # j's feature columns; the root |U_1|; one message each.
            hop = run[(np.arange(pr) - root) % pr, t, :]
            hop[root] = run[1, t, :] if pr > 1 else 0.0
            b.gather_rows(
                Category.DCOMM,
                (hop[:, None, :] * fw[None, :, None] * b.wb).reshape(-1), 1)
            # Rank (i, j, k) multiplies its row block's stage slice into
            # j's feature columns.
            b.spmm(nz[:, None, t, :], block_rows[:, None, None],
                   fw[None, :, None])
        if f is not None and fibers:
            # Fiber reduce-scatter over (i, j): the output's layout.
            b.reduce_scatter(Category.DCOMM, layers,
                             (np.outer(block_rows, fw) * b.wb).reshape(-1))

    def gather(f: int) -> None:
        # `_row_pieces`: one all-gather of an f-wide operand along every
        # row group.
        b.allgather(Category.DCOMM, pc, group_rows * (f * b.wb))

    def stage_loop(f_in: int, f_out: int) -> None:
        # The loop over gathered stages: per nonempty stage t, every
        # rank runs a partial GEMM into `f_out`'s columns (one step).
        for w_t in fsplit_widths(f_in):
            if w_t:
                b.gemm(2.0 * rows * w_t * outw_of_rank(f_out))

    def product(f_in: int, f_out: int, input_layer: bool = False) -> None:
        # `_matmul_w`: `_reduce_product`'s one GEMM per rank (its own
        # column block into all of `f_out`) and the row groups'
        # reduce-scatter, or the loop over stages gathered already.
        if funnel_reduces(f_in, f_out, input_layer):
            b.gemm(2.0 * rows * outw_of_rank(f_in) * f_out)
            b.reduce_scatter(Category.DCOMM, pc,
                             group_rows * (f_out * b.wb))
        else:
            stage_loop(f_in, f_out)

    grid_spmm(widths[0], False, pieces=True)      # A^T's pieces, once
    gather(widths[0])                              # T^0, once
    if a_cells is not None:                        # A's grid, once
        b.transpose(sparse_wire_bytes(a_cells, block_rows[:, None],
                                      b.wb).reshape(-1))
        grid_spmm(None, True, pieces=True)         # A's pieces, once
    b.end_setup()
    for l in range(n_layers):
        f_in, f_out = widths[l], widths[l + 1]
        project_first = sweep_order(f_in, f_out, l == 0).project_fwd
        if l > 0 and not project_first:
            grid_spmm(f_in, False)
            gather(f_in)                           # T^l, once
        product(f_in, f_out, input_layer=l == 0)
        if project_first:
            grid_spmm(f_out, False)
        if l == n_layers - 1:
            # `_log_softmax`: a (max, sum exp) pair a row per member, or
            # its columns where it has fewer than two
            words = np.minimum(fsplit_widths(f_out), 2).sum()
            b.allgather(Category.DCOMM, pc, group_rows * (words * b.wb))
        b.elementwise(rows * outw_of_rank(f_out) * (2.0 * b.wb))
    b.elementwise(rows * outw_of_rank(widths[-1]) * (3.0 * b.wb))
    for l in range(n_layers - 1, -1, -1):
        f_in, f_out = widths[l], widths[l + 1]
        project_first = sweep_order(f_in, f_out, l == 0).project_bwd
        if l > 0 and not project_first:
            grid_spmm(f_out, True)
            gather(f_out)                          # A G^l, once
        if funnel_reduces(f_in, f_out, l == 0):    # Y^l = X^T (A G^l)
            b.gemm(2.0 * rows * outw_of_rank(f_in) * f_out)
        else:
            stage_loop(f_in, f_out)                # Y^l = T^T G
        if l > 0:
            product(f_out, f_in)                   # G W^T
            if project_first:
                grid_spmm(f_in, True)
            b.elementwise(rows * outw_of_rank(f_in) * (3.0 * b.wb))
    # `_reduce_bucket`: every column group all-reduces its band of the
    # gradient bucket, then every row group all-gathers the bands.
    bands = [band_nbytes(band, b.wb) for band in bucket_bands(widths, pc)]
    b.allreduce(Category.DCOMM, pr * layers, bands)
    b.allgather(Category.DCOMM, pc, np.full(pr * layers, float(sum(bands))))
