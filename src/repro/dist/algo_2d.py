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
A member fed by a relay receipt multiplies its rows by the ``S(i, t)``
it received, column-compacted onto them when it was kept; one whose
root rows are local multiplies them in place.  The row sets and routes
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
structure itself, and the SpMM sweep, live in
:class:`repro.dist.grid.GridAlgorithm`, shared with the Split-3D
algorithm: 2D is its one-layer case (``Mesh3D(Pr, Pc, 1)`` numbers
ranks as ``Mesh2D(Pr, Pc)`` does, so no fiber reduce-scatter follows
the stages).  This module supplies only the layout's shape -- the grid's
coordinates and row blocks, each rank's dense rows, the SUMMA stages
(:func:`summa_stage_ranges`) and, for the emitter, their column bounds
and roots and the ``A`` blocks' column bounds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.comm.mesh import Mesh2D, square_side
from repro.comm.runtime import VirtualRuntime
from repro.dist.grid import GridAlgorithm, SummaStage
from repro.nn.optim import Optimizer
from repro.sparse.csr import CSRMatrix
from repro.sparse.distribute import block_ranges, distribute_sparse_2d

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
    """2D SUMMA distributed GCN training (Algorithm 2): the one-layer
    Split-3D sweep of :class:`~repro.dist.grid.GridAlgorithm` on the
    ``Pr x Pc`` grid, whose shape this class supplies."""

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
        self._init_grid(
            self.pc,
            [self.row_ranges[self.mesh.coords(r)[0]]
             for r in range(rt.size)],
            distribute_sparse_2d, self._summa_stages)

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

    def _row_groups(self):
        return [self.mesh.row_group(i) for i in range(self.pr)]

    @classmethod
    def _grid_shape(cls, n: int, p: int,
                    grid: Optional[Tuple[int, int]] = None,
                    summa_block: Optional[int] = None, **_ignored):
        """One layer, no fibers: the stages of
        :func:`summa_stage_ranges` with their dense row blocks as roots,
        and ``A`` in ``Pc`` column blocks."""
        if grid is None:
            pr = pc = square_side(p)
        else:
            pr, pc = (int(g) for g in grid)
            if pr * pc != p:
                raise ValueError(f"grid {pr}x{pc} does not tile P={p} ranks")
        stages = summa_stage_ranges(n, pr, pc, block=summa_block)
        return ((pr, pc, 1), False,
                [lo for lo, _, _, _ in stages] + [n],
                [ro for _, _, ro, _ in stages],
                [lo for lo, _ in block_ranges(n, pc)] + [n],
                dict(algorithm="2d", p=p, grid=(pr, pc),
                     summa_block=summa_block))
