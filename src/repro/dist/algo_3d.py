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
epoch structure itself lives in :class:`repro.dist.grid.GridAlgorithm`,
shared with the 2D algorithm.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.mesh import Mesh3D
from repro.comm.runtime import VirtualRuntime
from repro.comm.tracker import Category
from repro.config import FP64_BYTES
from repro.dist.grid import GridAlgorithm, SummaStage
from repro.nn.layers import check_widths
from repro.nn.optim import Optimizer
from repro.sparse.csr import CSRMatrix
from repro.sparse.distribute import (
    block_ranges,
    distribute_dense_3d,
    distribute_sparse_3d,
)

__all__ = ["DistGCN3D"]


class DistGCN3D(GridAlgorithm):
    """Split-3D-SpMM distributed GCN training."""

    def __init__(
        self,
        rt: VirtualRuntime,
        a_t: CSRMatrix,
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
        self.s = self.mesh.p1  # cubic: p1 == p2 == p3
        # Row blocks R_i and their s-way sub-splits S_{i,k} -- shared by
        # the sparse and dense layouts.
        self.row_ranges = block_ranges(self.n, self.s)
        self.sub_ranges = [
            [(lo + a, lo + b) for a, b in block_ranges(hi - lo, self.s)]
            for lo, hi in self.row_ranges
        ]
        self.a_t_blocks = distribute_sparse_3d(self.a_t, self.mesh)
        self.a_blocks = (
            self.a_t_blocks
            if self.symmetric
            else distribute_sparse_3d(self.a, self.mesh)
        )
        # Precomputed coordinate maps and interned communication groups:
        # the epoch loops consult these thousands of times per epoch.
        s, mesh, plan = self.s, self.mesh, self._plan()
        self._out_cols = [mesh.coords(r)[1] for r in range(rt.size)]
        self._rank_row_cache = [
            self.sub_ranges[i][k]
            for r in range(rt.size)
            for i, _, k in [mesh.coords(r)]
        ]
        self._fiber_groups = [
            plan.group(mesh.fiber_group(i, j))
            for i in range(s) for j in range(s)
        ]
        self._init_stages(self._split_stages)

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

    # ------------------------------------------------------------------ #
    # GridAlgorithm hooks
    # ------------------------------------------------------------------ #
    def _setup_data(self, features: np.ndarray) -> Dict[int, np.ndarray]:
        blocks = distribute_dense_3d(features, self.mesh)
        return {r: blocks[r] for r in self._local(range(self.rt.size))}

    def _fsplit(self, f: int) -> List[Tuple[int, int]]:
        return self._plan().split(f, self.s)

    def _row_groups(self):
        return [
            self.mesh.row_group(i, k)
            for k in range(self.s) for i in range(self.s)
        ]

    def _out_col(self, rank: int) -> int:
        return self._out_cols[rank]

    def _rank_rows(self, rank: int) -> Tuple[int, int]:
        """Global rows of rank ``(i, j, k)``'s dense block: ``S_{i,k}``,
        the ``k``-th sub-range of row block ``i``."""
        return self._rank_row_cache[rank]

    def _assemble(self, out_full: Dict[int, np.ndarray]) -> np.ndarray:
        """Global row order is (row block i, sub-range k): column-0
        copies."""
        ranks = [self.mesh.rank_of(i, 0, k)
                 for i in range(self.s) for k in range(self.s)]
        out_full = self.rt.gather_blocks(out_full, ranks)
        return np.concatenate([out_full[r] for r in ranks], axis=0)

    def _grid_spmm(
        self,
        sparse_blocks: Dict[int, CSRMatrix],
        dense_blocks: Dict[int, np.ndarray],
        f: int,
        ws_key=None,
    ) -> Dict[int, np.ndarray]:
        """One Split-3D SpMM: per-layer SUMMA, then a fiber
        reduce-scatter whose shards are the input distribution.

        The SUMMA stages run concurrently in every layer
        (:meth:`GridAlgorithm._summa_sweep`), each in-layer process row
        accumulating into a per-(row, layer) buffer whose column views
        are the rank partials.  The accumulators live in the workspace
        (they are consumed by the reduce-scatter within this call, so
        one set per (i, k) serves every layer and epoch).
        """
        s = self.s
        fcols = self._fsplit(f)
        rows_of = [hi - lo for lo, hi in self.row_ranges]
        accs = {}
        for gi, group, members, (c_lo, c_hi) in self._local_group_info:
            k, i = divmod(gi, s)
            o_lo, o_hi = self._span(fcols, c_lo, c_hi)
            wkey = (("gs3", i, k) if o_hi - o_lo == f
                    else ("gs3", i, k, c_lo, c_hi))
            acc = self._ws(wkey, (rows_of[i], o_hi - o_lo))
            acc.fill(0.0)
            accs[gi] = (acc, o_lo, o_hi)
        # 1. SUMMA stages, concurrently in every layer.
        self._summa_sweep(sparse_blocks, dense_blocks, f, accs)
        # 2. Fiber reduce-scatter: sum the s layer partials, shard rows.
        # Per fiber (i, j): fold the band ``[:, c0:c1]`` of the layer
        # partials in fiber (layer) order and take the row shards -- a
        # column band of the full-width sum equals the per-band sum
        # elementwise, so the per-fiber folds reproduce the full-width
        # accumulation bitwise.  One reduce-scatter per fiber, charged
        # at the band's byte size; the data plane moves only the fibers
        # this process has ranks in.  Shard k of fiber (i, j) is rows
        # S_{i,k} of band j: rank (i, j, k)'s input block, in place.
        partials: Dict[int, np.ndarray] = {}
        for gi, group, members, span in self._local_group_info:
            acc, o_lo, o_hi = accs[gi]
            for r in members:
                c0, c1 = fcols[self._out_cols[r]]
                partials[r] = acc[:, c0 - o_lo : c1 - o_lo]
        fibers = self._fiber_groups  # (i, j) row-major
        return self._collective(
            "reduce_scatter", ("rsc3", f), Category.DCOMM, fibers, partials,
            lambda: [(fibers[i * s + j], rows_of[i] * (c1 - c0) * self.WB)
                     for i in range(s) for j, (c0, c1) in enumerate(fcols)],
        )

    def _stored_dense_rows(self) -> int:
        return max(
            hi - lo for subs in self.sub_ranges for lo, hi in subs
        )

    def _stored_dense_width(self, f: int) -> int:
        return max(hi - lo for lo, hi in self._fsplit(f))

    # ------------------------------------------------------------------ #
    # symbolic schedule emission (repro.simulate)
    # ------------------------------------------------------------------ #
    @classmethod
    def emit_comm_schedule(
        cls, graph, widths: Sequence[int], p: int,
        word_bytes: int = FP64_BYTES, **_ignored,
    ):
        """Emit the Split-3D epoch's schedule without building ranks.

        Mirrors ``_grid_spmm`` (per-layer SUMMA stages -- sparse
        broadcasts, in the set-up's first sweep over an operand only,
        then every layer's dense relay, each member booked
        the rows its hop carries by the model's run counts -- then the
        fiber reduce-scatter that leaves every rank its input rows) and
        the shared grid epoch, phase for phase.
        """
        from repro.comm.mesh import cube_side
        from repro.comm.tracker import Category
        from repro.simulate.schedule import (
            GraphModel,
            ScheduleBuilder,
            emit_grid_epoch,
            sparse_wire_bytes,
        )

        widths = check_widths(widths)
        graph = GraphModel.coerce(graph)
        s = cube_side(p)
        n = graph.n
        row_ranges = block_ranges(n, s)
        rows = np.array(
            [hi - lo for lo, hi in row_ranges], dtype=np.float64
        )
        # subrows[i, k]: |S_{i,k}|, the dense rows of rank (i, j, k) --
        # the k-th s-way sub-split of row block i, and the shard the
        # fiber (i, j) reduce-scatter leaves on layer k.
        subrows = np.array(
            [
                [b - a for a, b in block_ranges(hi - lo, s)]
                for lo, hi in row_ranges
            ],
            dtype=np.float64,
        )
        # Sparse block (i, j, k): R_i x S_{j,k}, so the column cells in
        # ascending order are (j, k) row-major.
        col_bounds = [0] + [
            lo + b for lo, hi in row_ranges
            for _, b in block_ranges(hi - lo, s)
        ]
        nnz_ijk = graph.cell_nnz(s, np.asarray(col_bounds)).reshape(s, s, s)
        cells_a = (
            nnz_ijk
            if graph.symmetric
            else graph.cell_nnz(
                s, np.asarray(col_bounds), transpose=True
            ).reshape(s, s, s)
        )
        # ... and the dense rows hop p of stage t's relay carries in
        # layer k: [p, t, k], the rows blocks (t + p .. s - 1, t, k) read.
        roots = np.repeat(np.arange(s), s)  # cell (t, k): root t
        runs_ijk = graph.run_nonzero_cols(
            s, np.asarray(col_bounds), roots).reshape(s, s, s)
        runs_a = (
            runs_ijk
            if graph.symmetric
            else graph.run_nonzero_cols(
                s, np.asarray(col_bounds), roots, transpose=True
            ).reshape(s, s, s)
        )
        # Per-rank dense row counts, flattened over (i, j, k).
        rows_of_rank = np.broadcast_to(
            subrows[:, None, :], (s, s, s)
        ).reshape(-1)
        group_rows = subrows.reshape(-1)  # row groups (i, k)

        def fsplit_widths(f: int) -> np.ndarray:
            return np.array(
                [hi - lo for lo, hi in block_ranges(f, s)],
                dtype=np.float64,
            )

        def outw_of_rank(f: int) -> np.ndarray:
            return np.broadcast_to(
                fsplit_widths(f)[None, :, None], (s, s, s)
            ).reshape(-1)

        b = ScheduleBuilder(p, word_bytes)

        def grid_spmm(f: Optional[int], backward: bool,
                      pieces: bool = False) -> None:
            nz = cells_a if backward else nnz_ijk
            runs = runs_a if backward else runs_ijk
            fw = None if f is None else fsplit_widths(f)
            for t in range(s):
                if pieces:  # the first sweep over an operand: set-up's
                    # Sparse: row groups (i, k) get block (i, t, k).
                    b.broadcast(
                        Category.SCOMM, s,
                        sparse_wire_bytes(
                            nz[:, t, :], rows[:, None], b.wb
                        ).reshape(-1),
                        pipelined=True,
                    )
                if f is None:  # the pieces alone
                    continue
                # Dense: relayed down column groups (j, k) from (t, j, k);
                # member (i, j, k), p = i - t hops down, books |U_p| rows
                # of j's feature columns, the root |U_1|.
                hop = runs[(np.arange(s) - t) % s, t, :]
                hop[t] = runs[1, t, :] if s > 1 else 0.0
                b.gather_rows(
                    Category.DCOMM,
                    (hop[:, None, :] * fw[None, :, None] * b.wb).reshape(-1),
                    1,
                )
                # Local SpMM on every rank (i, j, k).
                b.spmm(nz[:, None, t, :], rows[:, None, None],
                       fw[None, :, None])
            if f is None:
                return
            # Fiber reduce-scatter over (i, j): the output's layout.
            b.reduce_scatter(
                Category.DCOMM, s,
                (np.outer(rows, fw) * b.wb).reshape(-1),
            )

        # A directed operand's A-grid blocks, rank-major: the set-up's
        # transpose `GridAlgorithm._keep_a_pieces` charges.
        a_block_bytes = None if graph.symmetric else sparse_wire_bytes(
            cells_a, rows[:, None, None], b.wb).reshape(-1)

        emit_grid_epoch(
            b, widths, group_rows, s, rows_of_rank, fsplit_widths,
            outw_of_rank, grid_spmm, a_block_bytes,
        )
        return b.build(
            algorithm="3d", p=p, mesh=(s, s, s), graph=graph.name,
            widths=widths,
        )
