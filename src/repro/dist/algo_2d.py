"""The 2D SUMMA algorithm (Algorithm 2) -- the paper's implementation.

Everything is block-partitioned on the ``Pr x Pc`` process grid (Table
IV): ``A^T`` and ``A`` in ``n/Pr x n/Pc`` sparse blocks, the dense
``H``/``G`` in matching blocks (feature columns split ``Pc`` ways), ``W``
replicated.  Each SpMM is a SUMMA sweep: per stage, the owning process
column broadcasts its sparse pieces along process rows (``scomm``), the
owning process row sends its dense pieces down the process columns
(``dcomm``), and every rank accumulates a local block product.  Per-rank
dense words scale as ``~ 1/sqrt(P)`` -- the headline claim.  ``A`` never
changes, so its pieces move once, at set-up: the first sweep over an
operand broadcasts them and every rank keeps the pieces its process row
receives, its whole block row (:meth:`repro.dist.grid.GridAlgorithm.
_summa_sweep`); every later sweep moves dense pieces only.

The dense pieces move sparsity-aware (Section IV-A.8's observation,
taken to SUMMA by Mukhopadhyay et al., ICPP 2024): rank ``(i, j)``
multiplies the stage block by ``S(i, t)``, which reads only the rows at
its nonempty columns.  So a stage relays the block down process column
``j`` -- the chain form of SUMMA's pipelined broadcast (van de Geijn &
Watts, 1997) -- each hop carrying only the rows the members after it
read (:meth:`repro.dist.grid.GridAlgorithm._summa_stage`).  Where every
member reads every row this is the pipelined broadcast, byte for byte.
A member fed by a relay receipt multiplies its rows by a
column-compacted copy of ``S(i, t)``, one whose root rows are local
multiplies them in place.  The row sets, compacted pieces and routes
are structure, built once at set-up; compaction keeps every output
row's summation order (hence the bits).

:func:`summa_stage_ranges` computes the stage decomposition of the inner
dimension: for rectangular grids (Section IV-C.6) the ``Pr`` and ``Pc``
splits are refined to their common boundaries so each stage lives in
exactly one sparse column block and one dense row block; Algorithm 2's
blocking parameter ``b`` further subdivides stages without changing any
numerics.

The backward pass needs the block rows of ``A`` (Equation 2); the
distributed blocks of ``A`` are materialised at setup.  A directed
operand's pairwise grid transpose is charged to ``trpose`` once, at
set-up, where its pieces move too; a symmetric operand's ``A`` grid is
the ``A^T`` grid block for block, so the blocks and the kept pieces are
shared and no transpose is charged -- Fig. 3 charges one every epoch
even on the undirected graphs, though no data moves.  The epoch
structure itself lives in :class:`repro.dist.grid.GridAlgorithm`,
shared with the Split-3D algorithm.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.mesh import Mesh2D
from repro.comm.runtime import VirtualRuntime
from repro.config import FP64_BYTES
from repro.dist.grid import GridAlgorithm, SummaStage
from repro.nn.layers import check_widths
from repro.nn.optim import Optimizer
from repro.sparse.csr import CSRMatrix
from repro.sparse.distribute import (
    block_ranges,
    distribute_dense_2d,
    distribute_sparse_2d,
)

__all__ = ["DistGCN2D", "summa_stage_ranges"]


def summa_stage_ranges(
    n: int, pr: int, pc: int, block: Optional[int] = None
) -> List[Tuple[int, int, int, int]]:
    """SUMMA stages over an inner dimension of length ``n``.

    Returns ``(lo, hi, row_owner, col_owner)`` tuples: the half-open inner
    range of the stage, the index of the ``pr``-way block (the dense
    operand's row block, hence the broadcasting process **row**) and of
    the ``pc``-way block (the sparse operand's column block, hence the
    broadcasting process **column**) containing it.  For square grids the
    two splits coincide and there are exactly ``pr`` stages; rectangular
    grids refine to the union of both splits' boundaries.  ``block``
    subdivides every stage into chunks of at most ``block`` -- Algorithm
    2's blocking parameter, which trades message count for overlap
    without changing results.
    """
    if pr < 1 or pc < 1:
        raise ValueError(f"invalid grid {pr}x{pc}")
    if block is not None and block < 1:
        raise ValueError(f"blocking parameter must be >= 1, got {block}")
    row_ranges = block_ranges(n, pr)
    col_ranges = block_ranges(n, pc)
    bounds = sorted(
        {b for lo, hi in row_ranges for b in (lo, hi)}
        | {b for lo, hi in col_ranges for b in (lo, hi)}
    )
    stages: List[Tuple[int, int, int, int]] = []
    ro = co = 0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi == lo:
            continue
        while row_ranges[ro][1] <= lo:
            ro += 1
        while col_ranges[co][1] <= lo:
            co += 1
        if block is None:
            stages.append((lo, hi, ro, co))
        else:
            for b0 in range(lo, hi, block):
                stages.append((b0, min(b0 + block, hi), ro, co))
    return stages


class DistGCN2D(GridAlgorithm):
    """2D SUMMA distributed GCN training (Algorithm 2)."""

    def __init__(
        self,
        rt: VirtualRuntime,
        a_t: CSRMatrix,
        widths: Sequence[int],
        seed: int = 0,
        optimizer: Optional[Optimizer] = None,
        summa_block: Optional[int] = None,
        distribution=None,
    ):
        self.mesh: Mesh2D = rt.mesh2d  # raises TypeError on non-2D meshes
        # A distribution contributes its part-major relabelling only;
        # the grid keeps its own block splits (2D partition awareness is
        # a ROADMAP follow-on).
        super().__init__(rt, a_t, widths, seed=seed, optimizer=optimizer,
                         distribution=distribution)
        self.summa_block = summa_block
        self.pr, self.pc = self.mesh.rows, self.mesh.cols
        self.row_ranges = block_ranges(self.n, self.pr)
        self.col_ranges = block_ranges(self.n, self.pc)
        self.stages = summa_stage_ranges(self.n, self.pr, self.pc,
                                         block=summa_block)
        self.a_t_blocks = distribute_sparse_2d(self.a_t, self.mesh)
        # Backward operand: the grid transpose, materialised once and,
        # for directed operands, charged once, at set-up.  For symmetric
        # operands self.a IS self.a_t, so the distributed blocks are
        # identical, simply shared, and never charged.
        self.a_blocks = (
            self.a_t_blocks
            if self.symmetric
            else distribute_sparse_2d(self.a, self.mesh)
        )
        # Rank -> grid coordinate maps, precomputed: the epoch loops ask
        # for these thousands of times per epoch.
        self._out_cols = [self.mesh.coords(r)[1] for r in range(rt.size)]
        self._rank_row_ranges = [
            self.row_ranges[self.mesh.coords(r)[0]] for r in range(rt.size)
        ]
        self._init_stages(self._summa_stages)

    def _summa_stages(self, sparse_blocks: Dict[int, CSRMatrix]
                      ) -> List[SummaStage]:
        """Each stage's pieces -- the column slices ``S(i, t)`` of the
        blocks ``(i, co)`` -- over the window of the dense row block
        ``ro`` it covers (:meth:`GridAlgorithm._summa_stage`)."""
        rank_of = self.mesh.rank_of
        out = []
        for lo, hi, ro, co in self.stages:
            c0, r0 = self.col_ranges[co][0], self.row_ranges[ro][0]
            pieces = {}
            for i in range(self.pr):
                blk = sparse_blocks[rank_of(i, co)]
                pieces[rank_of(i, co)] = blk.block(0, blk.nrows, lo - c0,
                                                   hi - c0)
            out.append(self._summa_stage([pieces], ro, (lo - r0, hi - r0),
                                         lambda i, j, k: rank_of(i, j)))
        return out

    # ------------------------------------------------------------------ #
    # GridAlgorithm hooks
    # ------------------------------------------------------------------ #
    def _setup_data(self, features: np.ndarray) -> Dict[int, np.ndarray]:
        blocks = distribute_dense_2d(features, self.mesh)
        return {r: blocks[r] for r in self._local(range(self.rt.size))}

    def _fsplit(self, f: int) -> List[Tuple[int, int]]:
        """Feature-column split (``Pc`` ways, like every dense matrix)."""
        return self._plan().split(f, self.pc)

    def _row_groups(self):
        return [self.mesh.row_group(i) for i in range(self.pr)]

    def _out_col(self, rank: int) -> int:
        return self._out_cols[rank]

    def _rank_rows(self, rank: int) -> Tuple[int, int]:
        return self._rank_row_ranges[rank]

    def _assemble(self, out_full: Dict[int, np.ndarray]) -> np.ndarray:
        """Full output from the row-gathered copies on process column 0."""
        ranks = [self.mesh.rank_of(i, 0) for i in range(self.pr)]
        out_full = self.rt.gather_blocks(out_full, ranks)
        return np.concatenate([out_full[r] for r in ranks], axis=0)

    def _grid_spmm(
        self,
        sparse_blocks: Dict[int, CSRMatrix],
        dense_blocks: Dict[int, np.ndarray],
        f: int,
        ws_key=None,
    ) -> Dict[int, np.ndarray]:
        """One SUMMA SpMM sweep: ``C(i,j) += S(i,t) D(t,j)`` per stage
        (:meth:`GridAlgorithm._summa_sweep`), accumulated into one
        span-wide buffer per local row group; rank results are column
        views of it.  With every rank local the span is the full width;
        a multiprocess worker multiplies only its own columns.
        ``ws_key`` keys the group accumulators into the workspace (per
        layer for cached results)."""
        fcols = self._fsplit(f)
        accs = {}
        for gi, group, members, (c_lo, c_hi) in self._local_group_info:
            lo, hi = self.row_ranges[gi]
            o_lo, o_hi = self._span(fcols, c_lo, c_hi)
            if ws_key is not None:
                acc = self._ws(("gs", ws_key, gi), (hi - lo, o_hi - o_lo))
                acc.fill(0.0)
            else:
                acc = np.zeros((hi - lo, o_hi - o_lo))
            accs[gi] = (acc, o_lo, o_hi)
        self._summa_sweep(sparse_blocks, dense_blocks, f, accs)
        out: Dict[int, np.ndarray] = {}
        for gi, group, members, span in self._local_group_info:
            acc, o_lo, o_hi = accs[gi]
            for r in members:
                c0, c1 = fcols[self._out_col(r)]
                out[r] = acc[:, c0 - o_lo : c1 - o_lo]
        return out

    def _stored_dense_rows(self) -> int:
        return max(hi - lo for lo, hi in self.row_ranges)

    def _stored_dense_width(self, f: int) -> int:
        return max(hi - lo for lo, hi in self._fsplit(f))

    # ------------------------------------------------------------------ #
    # symbolic schedule emission (repro.simulate)
    # ------------------------------------------------------------------ #
    @classmethod
    def emit_comm_schedule(
        cls,
        graph,
        widths: Sequence[int],
        p: int,
        grid: Optional[Tuple[int, int]] = None,
        summa_block: Optional[int] = None,
        word_bytes: int = FP64_BYTES,
        **_ignored,
    ):
        """Emit the SUMMA epoch's schedule without building ranks.

        Mirrors ``_grid_spmm`` (per stage: the pipelined sparse
        broadcasts, in the set-up's first sweep over an operand only,
        the dense relay -- each member booked the rows its
        hop carries, from the model's counts of the rows a run of process
        rows reads (:meth:`~repro.simulate.schedule.GraphModel.
        run_nonzero_cols`) -- and the local SpMM) and a directed
        operand's set-up grid transpose; the shared grid epoch
        (:func:`~repro.simulate.schedule.emit_grid_epoch`) the rest,
        phase for phase.
        """
        from repro.comm.mesh import square_side
        from repro.comm.tracker import Category
        from repro.simulate.schedule import (
            GraphModel,
            ScheduleBuilder,
            boundaries,
            emit_grid_epoch,
            sparse_wire_bytes,
        )

        widths = check_widths(widths)
        graph = GraphModel.coerce(graph)
        if grid is None:
            pr = pc = square_side(p)
        else:
            pr, pc = (int(g) for g in grid)
            if pr * pc != p:
                raise ValueError(f"grid {pr}x{pc} does not tile P={p} ranks")
        n = graph.n
        rows = np.array(
            [hi - lo for lo, hi in block_ranges(n, pr)], dtype=np.float64
        )
        stages = summa_stage_ranges(n, pr, pc, block=summa_block)
        stage_bounds = np.array(
            [lo for lo, _, _, _ in stages] + [n], dtype=np.int64
        )
        # Nonzeros per (process row, stage) slice of each sparse operand.
        cells_at = graph.cell_nnz(pr, stage_bounds)
        cells_a = (
            cells_at
            if graph.symmetric
            else graph.cell_nnz(pr, stage_bounds, transpose=True)
        )
        # ... and the dense stage rows each hop of a stage's relay
        # carries: [p, st], the rows process rows ro + p .. pr - 1 read.
        roots = [ro for _, _, ro, _ in stages]
        runs_at = graph.run_nonzero_cols(pr, stage_bounds, roots)
        runs_a = (
            runs_at
            if graph.symmetric
            else graph.run_nonzero_cols(pr, stage_bounds, roots,
                                        transpose=True)
        )
        rows_of_rank = np.repeat(rows, pc)

        def fsplit_widths(f: int) -> np.ndarray:
            return np.array(
                [hi - lo for lo, hi in block_ranges(f, pc)],
                dtype=np.float64,
            )

        def outw_of_rank(f: int) -> np.ndarray:
            return np.tile(fsplit_widths(f), pr)

        b = ScheduleBuilder(p, word_bytes)

        def grid_spmm(f: Optional[int], backward: bool,
                      pieces: bool = False) -> None:
            cells = cells_a if backward else cells_at
            runs = runs_a if backward else runs_at
            fw = None if f is None else fsplit_widths(f)
            for st, (lo, hi, ro, _co) in enumerate(stages):
                if pieces:  # the first sweep over an operand: set-up's
                    b.broadcast(
                        Category.SCOMM, pc,
                        sparse_wire_bytes(cells[:, st], rows, b.wb),
                        pipelined=True,
                    )
                if f is None:  # the pieces alone
                    continue
                # Member (i, j), p = i - ro hops down: |U_p| rows in j's
                # feature columns; the root |U_1|; one message each.
                hop = runs[(np.arange(pr) - ro) % pr, st]
                hop[ro] = runs[1, st] if pr > 1 else 0.0
                b.gather_rows(Category.DCOMM,
                              np.outer(hop, fw).reshape(-1) * b.wb, 1)
                # Rank (i, j) multiplies row i's stage slice into j's
                # feature columns.
                b.spmm(cells[:, st, None], rows[:, None], fw)

        # A directed operand's A-grid blocks, rank-major: the set-up's
        # transpose `GridAlgorithm._keep_a_pieces` charges.
        a_block_bytes = None if graph.symmetric else sparse_wire_bytes(
            graph.cell_nnz(pr, boundaries(n, pc), transpose=True),
            rows[:, None], b.wb).reshape(-1)

        # Row groups: the process rows (Pc members each).
        emit_grid_epoch(
            b, widths, rows, pc, rows_of_rank, fsplit_widths, outw_of_rank,
            grid_spmm, a_block_bytes,
        )
        return b.build(
            algorithm="2d", p=p, grid=(pr, pc), summa_block=summa_block,
            graph=graph.name, widths=widths,
        )
