"""The 1D block-row algorithm (Algorithm 1) and its backward variants.

Data distribution (Table III): ``A^T`` in block rows (rank ``i`` owns rows
``range_of(n, P, i)``), ``H^l``/``G^l`` in matching block rows, ``W^l``
replicated.  The forward SpMM all-gathers the dense operand (the paper's
broadcast loop, charged as one all-gather) and multiplies it against the
local block row -- so 1D retains the full average degree and pays no
hypersparsity penalty.  The all-gather ships, of each rank's block, only
its *exported rows* -- those some other rank's block names
(:func:`repro.dist.distribution.exported_rows`, derived once per operand
by the cut) -- so it moves ``|E|`` rows in all, between the paper's
``edgecut_P(A)`` (what one rank reads) and ``n``; each process writes its
own ranks' blocks whole and the others' exported rows into a full-height
operand whose remaining rows no local rank reads.

The backward pass computing ``A G^l`` is where the variants diverge
(Sections IV-A.3, IV-A.6, IV-A.7):

* ``outer``        -- the general (directed) case: rank ``i`` forms the
  outer product ``A[:, rows_i] G_i`` (an ``n x f`` partial) and a
  reduce-scatter turns the partials into block rows of ``A G^l``;
* ``outer_sparse`` -- same, but the reduction ships only nonzero partial
  rows (the SparCML-style trade that wins once ``P > d``);
* ``symmetric``    -- for ``A == A^T``, trade the outer product for a
  second block-row SpMM against a re-gathered ``G^l``;
* ``transpose``    -- materialise the block rows of ``A`` by a per-epoch
  transpose exchange (charged to ``trpose``), then proceed as the
  symmetric trade does;
* ``ghost``        -- for ``A == A^T``, replace *both* all-gathers
  with a sparsity-aware ghost-row exchange (Section IV-A.8's
  partitioned training): each rank fetches only the distinct
  remote-neighbour rows its local block references, so per-rank
  expansion volume is exactly ``r_i * f`` words and partition quality
  (``edgecut_P(A)``) becomes visible in the executed ledger;
* ``auto``         -- ``symmetric`` when the operand is symmetric,
  ``outer`` otherwise.

A :class:`~repro.dist.distribution.Distribution` additionally relabels
the vertices part-major and hands each rank its part's (possibly
uneven) row range -- numerics are unchanged up to the relabelling, only
the ghost structure (and hence the ``ghost`` variant's traffic) moves.

The epoch structure itself (forward sweep, loss terms, backward
recursion, the one gradient-bucket all-reduce) lives in
:class:`repro.dist.blockrow.BlockRowAlgorithm`, shared with the 1.5D
algorithm.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.comm.runtime import VirtualRuntime
from repro.comm.tracker import Category
from repro.config import FP64_BYTES
from repro.dist.blockrow import BlockRowAlgorithm
from repro.dist.distribution import (Distribution, exported_rows,
                                     ghost_structure)
from repro.dist.shard import Shard
from repro.nn.layers import check_widths
from repro.nn.optim import Optimizer
from repro.sparse.csr import CSRMatrix, SparseShape
from repro.sparse.distribute import block_ranges, gather_dense_1d_rows
from repro.sparse.spmm import spmm

__all__ = ["DistGCN1D"]

VARIANTS = ("symmetric", "outer", "outer_sparse", "transpose", "ghost",
            "auto")

#: Variants whose backward trade requires ``A == A^T``.
_SYMMETRIC_ONLY = ("symmetric", "ghost")


def resolve_1d_variant(variant: str, symmetric: bool) -> str:
    """Validate and resolve a 1D backward variant against the operand.

    Every error surfaces here, at resolution time: an unknown name and a
    directed operand under a symmetric-only variant (``symmetric``,
    ``ghost``) raise the same ``ValueError`` shape instead of failing
    deep inside setup.
    """
    if variant not in VARIANTS:
        raise ValueError(
            f"unknown 1D variant {variant!r}; choose from {VARIANTS}"
        )
    if variant == "auto":
        return "symmetric" if symmetric else "outer"
    if variant in _SYMMETRIC_ONLY and not symmetric:
        raise ValueError(
            f"the {variant} variant requires a symmetric operand "
            "(A == A^T); use 'outer' or 'transpose' for directed graphs"
        )
    return variant


def _row_ranges(n: int, p: int, distribution: Optional[Distribution]
                ) -> Tuple[Tuple[int, int], ...]:
    """Rank row ranges: the distribution's (possibly uneven) parts, or
    the paper's near-equal contiguous split."""
    if distribution is None:
        return tuple(block_ranges(n, p))
    if distribution.nparts != p:
        raise ValueError(
            f"distribution has {distribution.nparts} parts for "
            f"P={p} ranks"
        )
    return tuple(distribution.row_ranges)


class DistGCN1D(BlockRowAlgorithm):
    """1D block-row distributed GCN training (Algorithm 1)."""

    def __init__(
        self,
        rt: VirtualRuntime,
        a_t: Union[CSRMatrix, Shard],
        widths: Sequence[int],
        seed: int = 0,
        optimizer: Optional[Optimizer] = None,
        variant: str = "auto",
        distribution: Optional[Distribution] = None,
    ):
        super().__init__(rt, a_t, widths, seed=seed, optimizer=optimizer,
                         distribution=distribution, variant=variant)
        self.variant = resolve_1d_variant(variant, self.symmetric)
        self.p = rt.size
        self.world = tuple(range(self.p))
        self.row_ranges = _row_ranges(self.n, self.p, distribution)
        # The blocks of every role the variant reads (:meth:`_cut`).  The
        # outer variants' column blocks and the transpose variant's A
        # block rows come with the cut; only the transpose variant
        # *communicates* them, which it charges per epoch (Section
        # IV-A.7's ``2 alpha P^2 + 2 beta nnz/P`` term).  The ghost
        # variant multiplies compact (referenced-columns-only) blocks
        # along its exchange structure instead.
        roles = self._roles
        self.a_t_rows = roles["a_t_rows"]
        if self.variant in ("outer", "outer_sparse"):
            self.a_cols = roles["a_cols"]
            self.a_cols_nz_rows = self._shard_extra["a_cols_nz_rows"]
        elif self.variant == "ghost":
            self.a_rows = self.a_t_rows  # A == A^T guaranteed
            self._ghost = self._shard_extra["ghost"]
            self.a_t_compact = roles["a_t_compact"]
        else:
            self.a_rows = roles["a_rows"]
        if self.variant != "ghost":
            # Per operand role, every rank's exported rows (global ids),
            # their count and, for the local ranks, their positions in
            # the block.
            self._exports = self._shard_extra["exports"]
            self._nexported = {role: sum(r.size for r in rows)
                               for role, rows in self._exports.items()}
            self._export_at = {
                role: {r: rows[r] - self.row_ranges[r][0]
                       for r in self._local(self.world)}
                for role, rows in self._exports.items()}

    @classmethod
    def _cut(cls, mesh, a_t, a, symmetric, variant="auto",
             distribution=None):
        """Block rows of ``A^T``; per variant, also the rows a product of
        the partials can fill (outer: column blocks of ``A``), the ghost
        exchange and its compact blocks (ghost: each rank's block with
        its column indices remapped onto its referenced-column space --
        the remap is monotone, so every row's nonzero order, hence every
        SpMM row sum, is bitwise the full-width block's; its full-width
        block is then only a shape), or block rows of ``A``.  Every
        variant but ghost also gets each block's exported rows
        (:func:`~repro.dist.distribution.exported_rows`) of every
        operand a sweep all-gathers for: ``a_t`` forward, ``a`` for the
        symmetric and transpose backward."""
        variant = resolve_1d_variant(variant, symmetric)
        n = a_t.nrows
        row_ranges = _row_ranges(n, mesh.size, distribution)
        a_t_rows = {r: a_t.row_slice(lo, hi)
                    for r, (lo, hi) in enumerate(row_ranges)}
        roles, extra = {"a_t_rows": a_t_rows}, {}
        if variant != "ghost":
            # The rows each all-gather ships: per operand a sweep
            # gathers for, the rows of each block another block reads.
            exports = extra["exports"] = {
                "a_t": exported_rows(a_t, row_ranges)}
            if variant in ("symmetric", "transpose"):
                exports["a"] = exports["a_t"] if symmetric else \
                    exported_rows(a, row_ranges)
        if variant in ("outer", "outer_sparse"):
            roles["a_cols"] = {r: a.block(0, n, c0, c1)
                               for r, (c0, c1) in enumerate(row_ranges)}
            # The rows of each partial A[:, rows_r] G_r the structure can
            # fill: what the sparse wire ships, whatever G holds.
            extra["a_cols_nz_rows"] = tuple(
                int(np.count_nonzero(np.diff(block.indptr)))
                for block in roles["a_cols"].values())
        elif variant == "ghost":
            g = extra["ghost"] = ghost_structure(a_t, row_ranges)
            roles["a_t_compact"] = {
                r: block.compact_columns(g.ref_cols[r])
                for r, block in a_t_rows.items()}
            roles["a_t_rows"] = {r: SparseShape.of(block)
                                 for r, block in a_t_rows.items()}
        else:
            roles["a_rows"] = a_t_rows if symmetric else {
                r: a.row_slice(lo, hi)
                for r, (lo, hi) in enumerate(row_ranges)}
        return roles, extra

    @classmethod
    def _localize(cls, extra, ranks):
        if "ghost" not in extra:
            return extra
        return dict(extra, ghost=extra["ghost"].local(ranks))

    # ------------------------------------------------------------------ #
    # BlockRowAlgorithm hooks
    # ------------------------------------------------------------------ #
    @property
    def _block_ranks(self):
        return self.world

    def _row_range(self, rank: int):
        return self.row_ranges[rank]

    def _setup_data(self, features: np.ndarray) -> Dict[int, np.ndarray]:
        return {
            r: np.ascontiguousarray(features[lo:hi])
            for r, (lo, hi) in enumerate(self.row_ranges)
            if self._is_local(r)
        }

    def _assemble(self, blocks: Dict[int, np.ndarray]) -> np.ndarray:
        return gather_dense_1d_rows(self.rt.gather_blocks(blocks), self.p)

    def _replicated_allreduce(
        self, values: Dict[int, np.ndarray]
    ) -> Dict[int, np.ndarray]:
        """The epoch's one world all-reduce, of the ranks' gradient
        buckets."""
        return self._obs_call(
            "allreduce", Category.DCOMM, self.rt.coll.allreduce,
            self.world, values, category=Category.DCOMM,
        )

    def _allgather_rows(
        self, blocks: Dict[int, np.ndarray], role: str, f: int
    ) -> np.ndarray:
        """The full-height operand a sweep over ``role`` (``a_t`` or
        ``a``) multiplies: every rank's exported rows all-gathered.

        Each rank contributes only the rows of its block another rank's
        block of ``role`` reads, packed into a reused workspace; the
        charge is the all-gather of those rows, and with none exported
        nothing moves (a step of zero charges).  Every process then
        writes its own ranks' whole blocks and the other ranks' packed
        rows into one full-height workspace, shared read-only by its
        ranks.  The rows of a remote block nobody else reads keep
        whatever the workspace held: no local rank reads them either,
        so each SpMM reads bitwise the values of the full gather.  On
        the virtual runtime every block is local: nothing is packed.
        """
        rows, at = self._exports[role], self._export_at[role]
        total = self._nexported[role]
        local = self._local(self.world)
        received = self._collective(
            "allgather", ("ag", role, f), Category.DCOMM,
            [self.world] if total else [],
            {r: self._pack(r, blocks[r], at[r], f) if self._spmd else None
             for r in local},
            lambda: [(self.world, total * f * self.WB)],
        )
        full = self._ws(("gather", f), (self.n, f))
        for r in local:
            lo, hi = self.row_ranges[r]
            full[lo:hi] = blocks[r]
        if self._spmd and total:
            for s, part in enumerate(received[local[0]]):
                if not self._is_local(s):
                    self._place(full, rows[s], self.row_ranges[s], part)
        shared = full.view()
        shared.flags.writeable = False
        return shared

    def _ghost_operand(
        self, blocks: Dict[int, np.ndarray], f: int
    ) -> Dict[int, np.ndarray]:
        """Each local rank's compact operand: own referenced rows plus
        the fetched ghosts, in referenced-column order.

        The charge is the receive-side exact volume (``r_i * f *
        itemsize`` per rank, audited against the rows that arrive on
        the step's first call); the data plane moves only the requested rows
        (really crossing process boundaries on the multiprocess
        backend).  Values are exact copies of the full operand's rows,
        so the compact SpMM is bitwise the all-gather path's.
        """
        g = self._ghost
        received = self._collective(
            "gather_rows", ("gch", f), Category.DCOMM, g.pairs, blocks,
            lambda: [(r, g.ghost_rows[r] * f * self.WB, g.nsources[r])
                     for r in self.world],
        )
        out: Dict[int, np.ndarray] = {}
        for r in self._local(self.world):
            buf = self._ws(("ghost", r, f), (g.width[r], f))
            own = g.own_slice[r]
            if own is None:
                buf[g.own_pos[r]] = blocks[r][g.own_idx[r]]
            else:
                buf[own[0]:own[1]] = blocks[r]
            out[r] = buf
        for i, rows in enumerate(received):
            if rows is None:
                continue
            dst = g.pairs[i][1]
            lo, hi = g.pair_slots[i]
            out[dst][lo:hi] = rows
        return out

    def _ghost_spmm(
        self, blocks: Dict[int, np.ndarray], f: int, charge_key, key
    ) -> Dict[int, np.ndarray]:
        """Ghost-row exchange + compact block-row SpMM (``A^T == A``)."""
        operand = self._ghost_operand(blocks, f)
        out: Dict[int, np.ndarray] = {}
        for r in self._local(self.world):
            out[r] = spmm(self.a_t_compact[r], operand[r],
                          out=self._rows_ws(key, r, f))
        self._charge_kernel(
            "spmm", charge_key,
            lambda: (
                (r, self.a_t_rows[r].nnz, self.a_t_rows[r].nrows, f)
                for r in self.world
            ),
        )
        return out

    def _forward_spmm(
        self, blocks: Dict[int, np.ndarray], f: int, key
    ) -> Dict[int, np.ndarray]:
        """``A^T X``: gather the (needed) operand, multiply the block row."""
        if self.variant == "ghost":
            return self._ghost_spmm(blocks, f, ("fsp", f), key)
        full = self._allgather_rows(blocks, "a_t", f)
        out: Dict[int, np.ndarray] = {}
        for r in self._local(self.world):
            out[r] = spmm(self.a_t_rows[r], full,
                          out=self._rows_ws(key, r, f))
        self._charge_kernel(
            "spmm", ("fsp", f),
            lambda: (
                (r, self.a_t_rows[r].nnz, self.a_t_rows[r].nrows, f)
                for r in self.world
            ),
        )
        return out

    def _pre_backward(self) -> None:
        if self.variant == "transpose":
            # Per-epoch exchange materialising the block rows of A.
            self._charge_kernel(
                "transpose", ("trp",),
                lambda: ((r, self.a_rows[r].nbytes_on_wire)
                         for r in self.world),
            )

    def _backward_spmm(
        self, g_blocks: Dict[int, np.ndarray], f_out: int, key
    ) -> Dict[int, np.ndarray]:
        """Block rows of ``A G^l`` under the selected variant."""
        if self.variant == "ghost":
            return self._ghost_spmm(g_blocks, f_out, ("bsp", f_out), key)
        if self.variant in ("symmetric", "transpose"):
            g_full = self._allgather_rows(g_blocks, "a", f_out)
            ag_blocks: Dict[int, np.ndarray] = {}
            for r in self._local(self.world):
                ag_blocks[r] = spmm(self.a_rows[r], g_full,
                                    out=self._rows_ws(key, r, f_out))
            self._charge_kernel(
                "spmm", ("bsp", f_out),
                lambda: (
                    (r, self.a_rows[r].nnz, self.a_rows[r].nrows, f_out)
                    for r in self.world
                ),
            )
            return ag_blocks
        # Outer-product path: full-height partials, then reduce-scatter
        # sharded at the rank row ranges (== the near-equal split for
        # the default distribution).  The leading partial is donated as
        # the accumulator, so the shards are views of its workspace.
        partials: Dict[int, np.ndarray] = {}
        for r in self._local(self.world):
            partials[r] = spmm(self.a_cols[r], g_blocks[r],
                               out=self._ws((key, r), (self.n, f_out)))
        self._charge_kernel(
            "spmm", ("osp", f_out),
            lambda: (
                (r, self.a_cols[r].nnz, self.a_cols[r].nrows, f_out)
                for r in self.world
            ),
        )
        coll = self.rt.coll
        if self.variant == "outer_sparse":
            reduce, kw = coll.sparse_reduce_scatter, dict(
                nz_rows=self.a_cols_nz_rows)
        else:
            reduce, kw = coll.reduce_scatter, {}
        return self._obs_call(
            "reduce_scatter", Category.DCOMM, reduce,
            self.world, partials, category=Category.DCOMM, axis=0,
            bounds=self.row_ranges, donate_first=True, **kw,
        )

    def _stored_dense_rows(self) -> int:
        return max(hi - lo for lo, hi in self.row_ranges)

    # ------------------------------------------------------------------ #
    # symbolic schedule emission (repro.simulate)
    # ------------------------------------------------------------------ #
    @classmethod
    def emit_comm_schedule(
        cls, graph, widths: Sequence[int], p: int, variant: str = "auto",
        distribution: Optional[Distribution] = None,
        word_bytes: int = FP64_BYTES, **_ignored,
    ):
        """Emit this family's per-epoch schedule without building ranks.

        Phase-for-phase mirror of the executed epoch: forward all-gathers
        (or, for the ``ghost`` variant, the partition-aware ghost-row
        exchanges), variant-specific backward SpMM data movement, the
        world all-reduce of the gradient bucket (the loss pair and every
        weight gradient, once an epoch), and every charged local kernel.
        ``distribution`` reproduces a partition-aware run: rank ranges
        come from the partition and exact-mode graphs are relabelled the
        same way the executed algorithm relabels its operand.  Exact-mode
        graphs reproduce the executed ledger byte for byte at the default
        ``word_bytes`` (fp64, what the executed reproduction moves); fp32
        prices the paper's training precision.
        """
        from repro.comm.tracker import Category
        from repro.config import INDEX_BYTES
        from repro.simulate.schedule import (
            GraphModel,
            ScheduleBuilder,
            emit_blockrow_epoch,
            sparse_wire_bytes,
        )

        widths = check_widths(widths)
        graph = GraphModel.coerce(graph)
        variant = resolve_1d_variant(variant, graph.symmetric)
        n = graph.n
        meta_extra = {}
        if distribution is not None:
            if distribution.n != n:
                raise ValueError(
                    f"distribution covers {distribution.n} vertices, "
                    f"graph has {n}"
                )
            if graph.exact and not distribution.is_identity:
                graph = GraphModel.from_csr(
                    distribution.permute_matrix(graph.csr),
                    name=graph.name, features=graph.features,
                    n_classes=graph.n_classes,
                )
            meta_extra["partition"] = distribution.kind
        row_ranges = _row_ranges(n, p, distribution)
        bounds = np.array([0] + [hi for _, hi in row_ranges],
                          dtype=np.int64)
        rows = np.diff(bounds).astype(np.float64)
        nnz_at_rows = graph.row_block_nnz(p, bounds=bounds)
        b = ScheduleBuilder(p, word_bytes)

        if variant == "ghost":
            ghosts, nsrc = graph.ghost_row_counts(bounds)

            def forward_spmm(f: int) -> None:
                b.gather_rows(Category.DCOMM, ghosts * (f * b.wb), nsrc)
                b.spmm(nnz_at_rows, rows, f)

            backward_spmm = forward_spmm  # A == A^T: same exchange
        else:
            # The all-gathers ship each block's exported rows.
            exported = graph.exported_rows(p, bounds=bounds).sum()

            def forward_spmm(f: int) -> None:
                b.allgather(Category.DCOMM, p, exported * f * b.wb)
                b.spmm(nnz_at_rows, rows, f)

        if variant in ("symmetric", "transpose"):
            # Block rows of A: the stored A^T rows when symmetric, its
            # column structure otherwise (rows of A = columns of A^T).
            nnz_a_rows = (
                nnz_at_rows if graph.symmetric
                else graph.col_block_nnz(p, bounds=bounds)
            )
            exported_a = exported if graph.symmetric else \
                graph.exported_rows(p, transpose=True, bounds=bounds).sum()

            def backward_spmm(f: int) -> None:
                b.allgather(Category.DCOMM, p, exported_a * f * b.wb)
                b.spmm(nnz_a_rows, rows, f)

        elif variant != "ghost":
            # Outer-product path: block columns of A (full height), then a
            # reduce-scatter of the n x f partials.
            nnz_a_cols = (
                graph.col_block_nnz(p, bounds=bounds)
                if graph.symmetric
                else graph.row_block_nnz(p, bounds=bounds)
            )
            if variant == "outer_sparse":
                nz_rows = graph.col_block_nonzero_rows(
                    p, transpose=not graph.symmetric, bounds=bounds
                )

            def backward_spmm(f: int) -> None:
                b.spmm(nnz_a_cols, n, f)
                if variant == "outer_sparse":
                    wire = float(np.max(nz_rows * (f * b.wb + INDEX_BYTES)))
                    b.reduce_scatter(Category.DCOMM, p, wire)
                else:
                    b.reduce_scatter(Category.DCOMM, p, n * f * b.wb)

        def replicated_allreduce(nbytes: int) -> None:
            b.allreduce(Category.DCOMM, p, nbytes)

        pre_backward = None
        if variant == "transpose":
            trpose_bytes = sparse_wire_bytes(nnz_a_rows, rows, b.wb)

            def pre_backward() -> None:
                b.transpose(trpose_bytes)

        emit_blockrow_epoch(
            b, widths, rows, forward_spmm, backward_spmm,
            replicated_allreduce, pre_backward,
        )
        return b.build(
            algorithm="1d", p=p, variant=variant, graph=graph.name,
            widths=widths, **meta_extra,
        )
