"""The 1.5D block-row algorithm: trading replication for bandwidth.

Section IV-B: the ``P`` ranks form a ``P/c x c`` grid.  The graph is
block-row partitioned over the ``q = P/c`` process-grid rows ("groups"),
and each group's blocks -- the sparse block row of ``A^T`` and the dense
block rows of ``H``/``G`` -- are **replicated** on the group's ``c``
ranks.  During an SpMM the ``q`` source blocks of the dense operand are
split among the ``c`` replicas: replica ``j`` receives only its
``~q/c``-block slab (broadcasts confined to its replica column), computes
the partial product against the matching column slab of ``A^T``, and a
``c``-way all-reduce along the fiber combines the partials.

Per-rank words therefore follow ``~ n f / c`` (broadcasts, falling with
``c``) plus ``~ 2 n f c / P`` (fiber all-reduce, rising with ``c``) --
minimised at ``c* = sqrt(P/2)``, with memory growing by the replication
factor ``c`` (Section IV-B's cost table).  With ``c = 1`` the algorithm
degenerates to the 1D symmetric algorithm exactly, including bitwise
numerics: the slab is the whole gathered operand and the fiber
all-reduce is a no-op.

The epoch structure is :class:`repro.dist.blockrow.BlockRowAlgorithm`'s,
shared with the 1D algorithm; this module only supplies the replicated
data movement.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.runtime import VirtualRuntime
from repro.comm.tracker import Category
from repro.config import FP64_BYTES
from repro.dist.base import RoutedStep
from repro.dist.blockrow import BlockRowAlgorithm
from repro.nn.layers import check_widths
from repro.nn.optim import Optimizer
from repro.sparse.csr import CSRMatrix
from repro.sparse.distribute import block_ranges
from repro.sparse.spmm import spmm

__all__ = ["DistGCN15D"]


class DistGCN15D(BlockRowAlgorithm):
    """1.5D replicated block-row distributed GCN training."""

    def __init__(
        self,
        rt: VirtualRuntime,
        a_t: CSRMatrix,
        widths: Sequence[int],
        replication: int = 1,
        seed: int = 0,
        optimizer: Optional[Optimizer] = None,
        distribution=None,
    ):
        # A distribution contributes its part-major relabelling (applied
        # in the base class); the 1.5D layout keeps its own near-equal
        # block split -- partition-aware row ranges are a 1D feature.
        super().__init__(rt, a_t, widths, seed=seed, optimizer=optimizer,
                         distribution=distribution)
        p = rt.size
        c = int(replication)
        if c < 1 or p % c != 0:
            raise ValueError(
                f"replication c={c} must divide the rank count P={p}"
            )
        if not self.symmetric:
            raise ValueError(
                "the 1.5D algorithm requires a symmetric operand (A == A^T); "
                "its backward pass reuses the replicated block rows of A^T"
            )
        self.p = p
        self.c = c
        self.q = p // c
        self.group_ranges = block_ranges(self.n, self.q)
        #: replica ``j`` of every group handles source groups ``subsets[j]``.
        self.subsets = block_ranges(self.q, c)
        # Communication groups, enumerated once and interned in the plan
        # (every epoch's broadcasts and all-reduces reuse the tuples).
        plan = self._plan()
        self._column_groups = [
            plan.group(self._column_group(j)) for j in range(c)
        ]
        self._fiber_groups = [
            plan.group(self._fiber_group(g)) for g in range(self.q)
        ]
        # Per-rank column slab of the group's A^T block row: contiguous
        # source groups map to a contiguous column range.
        self.a_slabs: Dict[int, CSRMatrix] = {}
        for r in range(p):
            g, j = self._coords(r)
            g0, g1 = self.group_ranges[g]
            s0, s1 = self.subsets[j]
            c0 = self.group_ranges[s0][0] if s0 < self.q else self.n
            c1 = self.group_ranges[s1 - 1][1] if s1 > s0 else c0
            band = self.a_t.row_slice(g0, g1)
            self.a_slabs[r] = band.block(0, g1 - g0, c0, c1)

    # ------------------------------------------------------------------ #
    # grid helpers
    # ------------------------------------------------------------------ #
    def _coords(self, rank: int) -> Tuple[int, int]:
        """Rank -> (group g, replica column j)."""
        return rank // self.c, rank % self.c

    def _rank_of(self, g: int, j: int) -> int:
        return g * self.c + j

    def _column_group(self, j: int) -> Tuple[int, ...]:
        """One rank per group: the ranks replica column ``j`` comprises."""
        return tuple(self._rank_of(g, j) for g in range(self.q))

    def _fiber_group(self, g: int) -> Tuple[int, ...]:
        """The ``c`` replicas of group ``g`` (the all-reduce dimension)."""
        return tuple(self._rank_of(g, j) for j in range(self.c))

    # ------------------------------------------------------------------ #
    # BlockRowAlgorithm hooks
    # ------------------------------------------------------------------ #
    @property
    def _block_ranks(self):
        return range(self.p)

    def _row_range(self, rank: int) -> Tuple[int, int]:
        return self.group_ranges[self._coords(rank)[0]]

    def _setup_data(self, features: np.ndarray) -> Dict[int, np.ndarray]:
        # Dense block rows, replicated across each group's c ranks.  The
        # replicas share one buffer (they are bit-identical by
        # construction), which lets the epoch's replica-dedup compute
        # each group's kernels once.
        group_blocks = [
            np.ascontiguousarray(features[g0:g1])
            for g0, g1 in self.group_ranges
        ]
        return {
            r: group_blocks[self._coords(r)[0]]
            for r in self._local(range(self.p))
        }

    def _assemble(self, blocks: Dict[int, np.ndarray]) -> np.ndarray:
        ranks = [self._rank_of(g, 0) for g in range(self.q)]
        blocks = self.rt.gather_blocks(blocks, ranks)
        return np.concatenate([blocks[r] for r in ranks], axis=0)

    def _forward_spmm(self, blocks, f, key):
        return self._replicated_spmm(blocks, f, key)

    def _backward_spmm(self, blocks, f, key):
        # Symmetric trade only (enforced at construction): A == A^T.
        return self._replicated_spmm(blocks, f, key)

    def _replicated_spmm(
        self, blocks: Dict[int, np.ndarray], f: int, key
    ) -> Dict[int, np.ndarray]:
        """``A^T X`` for block-row-replicated ``X``: slab broadcasts,
        partial SpMM, fiber all-reduce.

        Every rank of replica column ``j`` receives the same source
        blocks, so the slab is assembled once per column (into a reused
        workspace) instead of once per rank; the per-rank partial SpMMs
        against distinct ``A^T`` slabs -- the genuinely per-rank work --
        are unchanged, as is every charge.  The fiber leader's partial is
        written into its per-layer workspace ``key`` and donated as the
        all-reduce's accumulator, so the sweep's result is a view of it.
        """
        # Broadcast rounds: round t moves each column's t-th source block,
        # concurrently across the c replica columns -- staged, so round
        # t + 1 is on the wire before round t is waited for.
        col_parts: List[List[np.ndarray]] = [[] for _ in range(self.c)]
        max_rounds = max(s1 - s0 for s0, s1 in self.subsets)
        rounds = []
        for t in range(max_rounds):
            active = [j for j in range(self.c)
                      if t < self.subsets[j][1] - self.subsets[j][0]]
            rounds.append((active, [
                (self._column_groups[j],
                 self._rank_of(self.subsets[j][0] + t, j))
                for j in active
            ]))
        received = self._routed_stages(
            (RoutedStep("broadcast", ("brch", f, t), routes, blocks,
                        Category.DCOMM,
                        lambda routes=routes: [
                            (group, self._rows_of(root) * f * self.WB)
                            for group, root in routes],
                        pipelined=False),)
            for t, (_, routes) in enumerate(rounds)
        )
        for (active, _), (got,) in zip(rounds, received):
            for j, payload in zip(active, got):
                if payload is not None:
                    col_parts[j].append(payload)
        local_ranks = self._local(range(self.p))
        local_cols = {self._coords(r)[1] for r in local_ranks}
        slabs: Dict[int, np.ndarray] = {}
        for j in local_cols:
            parts = col_parts[j]
            if not parts:
                slabs[j] = np.zeros((0, f))
            elif len(parts) == 1:
                # c >= q: the slab IS the single broadcast block -- no copy.
                slabs[j] = parts[0]
            else:
                rows = sum(p.shape[0] for p in parts)
                slab = self._ws(("slab", j, f), (rows, f))
                np.concatenate(parts, axis=0, out=slab)
                slabs[j] = slab
        partials: Dict[int, np.ndarray] = {}
        for r in local_ranks:
            j = self._coords(r)[1]
            # The fiber leader's (j = 0) partial escapes as the shared
            # result, so it takes the sweep's per-layer buffer; the
            # others are only read during the reduction.
            partials[r] = spmm(
                self.a_slabs[r], slabs[j],
                out=self._rows_ws(("part", f) if j else key, r, f))
        self._charge_kernel(
            "spmm", ("rsch", f),
            lambda: (
                (r, self.a_slabs[r].nnz, self.a_slabs[r].nrows, f)
                for r in range(self.p)
            ),
        )
        # Fiber all-reduces.  The partials are per-rank SpMM outputs
        # used nowhere else, so the leading one is donated as the
        # in-place accumulator (NCCL-style).
        return self._collective(
            "allreduce", ("farch", f), Category.DCOMM, self._fiber_groups,
            partials,
            lambda: [(self._fiber_groups[g], (g1 - g0) * f * self.WB)
                     for g, (g0, g1) in enumerate(self.group_ranges)],
            donate_first=True,
        )

    def _replicated_allreduce(
        self, values: Dict[int, np.ndarray]
    ) -> Dict[int, np.ndarray]:
        """Sum one contribution per group: concurrent per-column
        all-reduces, each column covering every group exactly once --
        once an epoch, of the ranks' gradient buckets (a fiber's
        replicas share one).  Charges are global (sized from the local
        contribution's shape, identical on every rank); the data plane
        reduces only the columns this process has ranks in."""
        nbytes = int(next(iter(values.values())).nbytes)
        return self._collective(
            "allreduce", ("carch", nbytes), Category.DCOMM,
            self._column_groups, values,
            lambda: [(group, nbytes) for group in self._column_groups],
        )

    def _stored_dense_rows(self) -> int:
        return max(hi - lo for lo, hi in self.group_ranges)

    # ------------------------------------------------------------------ #
    # symbolic schedule emission (repro.simulate)
    # ------------------------------------------------------------------ #
    @classmethod
    def emit_comm_schedule(
        cls, graph, widths: Sequence[int], p: int, replication: int = 1,
        word_bytes: int = FP64_BYTES, **_ignored,
    ):
        """Emit the replicated block-row epoch without building ranks.

        Mirrors ``_replicated_spmm`` (per-round slab broadcasts, partial
        SpMM, fiber all-reduce) and ``_replicated_allreduce`` (concurrent
        per-column reductions of the gradient bucket, once an epoch)
        phase for phase.
        """
        from repro.comm.tracker import Category
        from repro.simulate.schedule import (
            GraphModel,
            ScheduleBuilder,
            emit_blockrow_epoch,
        )

        widths = check_widths(widths)
        graph = GraphModel.coerce(graph)
        c = int(replication)
        if c < 1 or p % c != 0:
            raise ValueError(
                f"replication c={c} must divide the rank count P={p}"
            )
        if not graph.symmetric:
            raise ValueError(
                "the 1.5D algorithm requires a symmetric operand (A == A^T)"
            )
        n = graph.n
        q = p // c
        group_ranges = block_ranges(n, q)
        grows = np.array(
            [hi - lo for lo, hi in group_ranges], dtype=np.float64
        )
        subsets = block_ranges(q, c)
        # Per-rank slab nonzeros: cell (group g, replica column j) of the
        # q-way row split x the subsets' contiguous column ranges.
        col_bounds = [0] + [
            group_ranges[s1 - 1][1] if s1 > s0 else (
                group_ranges[s0][0] if s0 < q else n
            )
            for s0, s1 in subsets
        ]
        cells = graph.cell_nnz(q, np.asarray(col_bounds))  # (q, c)
        slab_nnz = cells.reshape(-1)  # rank order r = g * c + j
        rows_per_rank = np.repeat(grows, c)
        b = ScheduleBuilder(p, word_bytes)

        def replicated_spmm(f: int) -> None:
            max_rounds = max(s1 - s0 for s0, s1 in subsets)
            for t in range(max_rounds):
                sources = [
                    s0 + t for s0, s1 in subsets if t < s1 - s0
                ]
                b.broadcast(
                    Category.DCOMM, q,
                    grows[sources] * (f * b.wb),
                )
            b.spmm(slab_nnz, rows_per_rank, f)
            b.allreduce(Category.DCOMM, c, grows * (f * b.wb))

        def replicated_allreduce(nbytes: int) -> None:
            b.allreduce(Category.DCOMM, q, np.full(c, float(nbytes)))

        emit_blockrow_epoch(
            b, widths, rows_per_rank, replicated_spmm, replicated_spmm,
            replicated_allreduce,
        )
        return b.build(
            algorithm="1.5d", p=p, replication=c, graph=graph.name,
            widths=widths,
        )
