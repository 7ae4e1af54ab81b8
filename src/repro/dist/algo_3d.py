"""The Split-3D-SpMM algorithm (Section IV-D).

Processes form a cubic ``s x s x s`` mesh (``s = cbrt(P)``).  Following
Split-3D-SpGEMM (Azad et al., the paper's [3]), the SpMM's **inner
dimension** is split across the ``s`` layers.  Write ``R_i`` for the
``i``-th of ``s`` row blocks and ``S_{i,k}`` for the ``k``-th ``s``-way
sub-split of ``R_i``: layer ``k`` owns ``S_{i,k}`` of every row block,
rank ``(i, j, k)`` holding the sparse block ``A^T(R_i, S_{j,k})`` and the
dense rows ``S_{i,k}`` of feature band ``j`` (Table V's ``n/s x n/s^2``
sparse and ``n/s^2 x f/s`` dense local blocks).  One SpMM is then

1. an independent SUMMA sweep inside every layer (sparse pieces broadcast
   along process rows -- once, at set-up, every rank keeping its row
   group's pieces, as in 2D -- and dense pieces relayed down process
   columns, each hop carrying only the rows the members after it read,
   exactly as in 2D: :meth:`repro.dist.grid.GridAlgorithm._summa_stage`)
   producing layer-local partial products
   ``A^T(R_i, L_k) H(L_k, j)`` over layer ``k``'s rows ``L_k``;
2. a reduce-scatter along each fiber ``P(i, j, :)`` summing the ``s``
   layer partials and leaving rank ``(i, j, k)`` the shard ``S_{i,k}`` --
   the rows it holds of the input, so the output is already in the
   input distribution for the next layer.

Per-rank dense words scale as ``~ 1/P^(2/3)`` -- better than 2D's
``1/sqrt(P)`` at equal ``P``.  The sparse pieces move once, at set-up
(:meth:`repro.dist.grid.GridAlgorithm._summa_sweep`), so an epoch moves
dense words only.  For symmetric operands the ``A`` grid equals the
``A^T`` grid block for block, so no transpose exchange is needed and
none is charged; directed graphs pay the ``trpose`` exchange once, at
set-up, before their ``A`` pieces move -- one rule for both grid
algorithms (:meth:`repro.dist.grid.GridAlgorithm._keep_a_pieces`).  The
epoch structure itself, and the SpMM sweep, live in
:class:`repro.dist.grid.GridAlgorithm`: Split-3D over ``L = s`` layers,
of which 2D is the one-layer case.  This module supplies only the
layout's shape -- the cubic mesh's coordinates, row blocks and their
sub-splits (each rank's dense rows), the fibers, the per-layer stages
and, for the emitter, the stage cells' column bounds and roots (the
``A`` blocks are the same cells).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.comm.mesh import Mesh3D, cube_side
from repro.comm.runtime import VirtualRuntime
from repro.dist.grid import GridAlgorithm, SummaStage
from repro.dist.shard import Shard
from repro.nn.optim import Optimizer
from repro.sparse.csr import CSRMatrix
from repro.sparse.distribute import block_ranges, distribute_sparse_3d

__all__ = ["DistGCN3D"]


class DistGCN3D(GridAlgorithm):
    """Split-3D-SpMM distributed GCN training: the ``s``-layer sweep of
    :class:`~repro.dist.grid.GridAlgorithm` on the cubic mesh, whose
    shape this class supplies."""

    def __init__(
        self,
        rt: VirtualRuntime,
        a_t: Union[CSRMatrix, Shard],
        widths: Sequence[int],
        seed: int = 0,
        optimizer: Optional[Optimizer] = None,
        distribution=None,
    ):
        self.mesh: Mesh3D = rt.mesh3d  # raises TypeError on non-3D meshes
        # A distribution contributes its part-major relabelling only;
        # the cubic mesh keeps its own block splits (3D partition
        # awareness is a ROADMAP follow-on).
        super().__init__(rt, a_t, widths, seed=seed, optimizer=optimizer,
                         distribution=distribution)
        self.s = s = self.mesh.p1  # cubic: p1 == p2 == p3
        # Row blocks R_i and their s-way sub-splits S_{i,k} -- shared by
        # the sparse and dense layouts.
        self.row_ranges = block_ranges(self.n, s)
        self.sub_ranges = [
            [(lo + a, lo + b) for a, b in block_ranges(hi - lo, s)]
            for lo, hi in self.row_ranges
        ]
        # Interned fibers: every sweep reduce-scatters along them.
        plan = self._plan()
        self._fiber_groups = [
            plan.group(self.mesh.fiber_group(i, j))
            for i in range(s) for j in range(s)
        ]
        self._init_grid(
            s,
            [self.sub_ranges[i][k]
             for i, _, k in map(self.mesh.coords, range(rt.size))],
            self._split_stages)

    _distribute = staticmethod(distribute_sparse_3d)

    def _split_stages(self, sparse_blocks: Dict[int, CSRMatrix]
                      ) -> List[SummaStage]:
        """Stage ``t``'s layer ``k`` multiplies the blocks ``(i, t, k)``
        by the whole dense blocks ``(t, j, k)``
        (:meth:`GridAlgorithm._summa_stage`)."""
        rank_of, s = self.mesh.rank_of, self.s
        return [
            self._summa_stage(
                [{rank_of(i, t, k): sparse_blocks[rank_of(i, t, k)]
                  for i in range(s)} for k in range(s)],
                t, None, rank_of)
            for t in range(s)
        ]

    def _row_groups(self):
        return [
            self.mesh.row_group(i, k)
            for k in range(self.s) for i in range(self.s)
        ]

    @classmethod
    def _grid_shape(cls, n: int, p: int, **_ignored):
        """``s`` layers and their fibers: stage ``t``'s cell in layer
        ``k`` is ``S_{t,k}`` (the sparse blocks ``(i, t, k)`` hold
        ``R_i x S_{t,k}``), rooted at process row ``t``; the ``A``
        blocks are the same cells."""
        s = cube_side(p)
        bounds = [0] + [lo + b for lo, hi in block_ranges(n, s)
                        for _, b in block_ranges(hi - lo, s)]
        return ((s, s, s), True, bounds, list(range(s)), bounds,
                dict(algorithm="3d", p=p, mesh=(s, s, s)))
