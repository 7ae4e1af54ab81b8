"""The 2D-layout family's shared epoch (2D SUMMA and Split-3D).

:class:`GridAlgorithm` is the program both algorithms run on top of
:class:`repro.dist.base.DistAlgorithm`: the epoch, and the distributed
SpMM itself, written once as Split-3D over ``L`` layers -- every
layer's SUMMA stage loop (:meth:`GridAlgorithm._summa_sweep`, each
stage's dense rows relayed down the process columns sparsity-aware),
then a reduce-scatter along the fibers where the mesh has a layer axis.
2D SUMMA is its one-layer case (``L = 1``; Solomonik and Demmel's 2.5D
family at ``c = 1``), Split-3D the ``L = s`` one.  The ``algo_2d`` /
``algo_3d`` modules supply only the layout's shape: mesh coordinates,
row blocks, each rank's dense rows (3D: and its fibers), and the stage
builder; for the emitter, the stage cells' column bounds and roots and
the ``A`` blocks' column bounds.
"""

from __future__ import annotations

import itertools
from typing import (TYPE_CHECKING, Any, Callable, Dict, FrozenSet, List,
                    NamedTuple, Optional, Sequence, Tuple)

import numpy as np

from repro.comm.tracker import Category
from repro.config import FP64_BYTES
from repro.dist.base import (LOSS_TERMS, DistAlgorithm, RoutedStep,
                             band_nbytes, bucket_bands)
from repro.nn.layers import (check_widths, forward_gemm, funnel_reduces,
                             sweep_order, weight_gradient)
from repro.sparse.csr import CSRMatrix, SparseShape
from repro.sparse.spmm import spmm

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulate.schedule import CommSchedule

__all__ = ["GridAlgorithm", "SummaStage"]


class SummaStage(NamedTuple):
    """One SUMMA stage's set-up structure for one sparse operand
    (:meth:`GridAlgorithm._summa_stage`), over its layers: 2D has one,
    Split-3D ``s``.  Member ``i`` of layer ``k`` is row group ``k g +
    i`` (``g`` members a column group); member ``root + p`` (mod ``g``)
    receives the ``p``-th hop of the stage's relay, ``root`` the member
    whose column ranks hold the dense blocks."""

    #: the rows of the roots' dense blocks the stage covers (``None``:
    #: all of them)
    window: Optional[Tuple[int, int]]
    #: per layer: the root rank of each process column, the ranks whose
    #: dense blocks the stage reads
    roots: Tuple[Tuple[int, ...], ...]
    #: per layer and member: ``U_p``, the ascending stage-block rows the
    #: members ``p .. g - 1`` hops after the root read -- what hop ``p``
    #: carries -- or ``None`` for the whole block (and at the root)
    rows: Tuple[Tuple[Optional[np.ndarray], ...], ...]
    #: ``(row group, sparse root)`` per member, layer-major
    sparse_routes: List[Tuple[Tuple[int, ...], int]]
    #: ``{sparse root: the piece its row group multiplies}``
    sparse: Dict[int, CSRMatrix]
    #: the local row groups a relay receipt feeds: each keeps its
    #: received piece compacted onto its ``rows``
    #: (:meth:`GridAlgorithm._kept`); any other reads the root's rows in
    #: place (every one, on the virtual runtime)
    fed: FrozenSet[int]
    #: ``(rank, stage rows it books)`` per column member: the root
    #: ``|U_1|``, the member ``p`` hops down ``|U_p|``
    hops: Tuple[Tuple[int, int], ...]
    #: ``(root, rank, root-block rows)`` per transfer that crosses
    #: processes: a process's most-upstream member of a column gets
    #: its ``U_p`` from the root (none on the virtual runtime)
    relay: Tuple[Tuple[int, int, np.ndarray], ...]
    #: local non-root rank -> ``(transfer, root, positions)``: its rows
    #: are ``positions`` (``None``: all) of ``relay[transfer]``'s
    #: receipt, or of the root's window where ``transfer`` is ``None``
    feed: Dict[int, Tuple[Optional[int], int, Optional[np.ndarray]]]


class GridAlgorithm(DistAlgorithm):
    """The 2D-layout family's shared epoch (2D SUMMA and Split-3D).

    Both algorithms split the feature columns of every dense matrix
    across "row groups" of ranks that jointly hold complete rows, so
    the replicated-weight GEMMs, the Equation-3 weight gradient, the
    column-split log_softmax and loss terms, the backward recursion and
    the distributed SpMM itself are the same program; they differ only
    in the layout's shape.

    As in the block-row family, an epoch runs ``L - 1`` SpMM sweeps each
    way, each at the narrow side of its layer's weight
    (:func:`repro.nn.layers.sweep_order`): forward, layer 1 starts from
    the ``T^0 = A^T H^0`` kept from set-up
    (:meth:`DistAlgorithm._install_features`) and a layer above it that
    shrinks runs its :meth:`_matmul_w` stage loop on ``H^{l-1}`` *before*
    the sweep, caching ``H^{l-1}`` in place of ``T``; backward, such a
    layer takes ``Y^l = (H^{l-1})^T (A G^l)``, every other ``Y^l =
    (T^{l-1})^T G^l``, and one that grows multiplies ``G^l`` by ``W^T``
    before the sweep.  The replicated-``W`` funnels (:meth:`_matmul_w`,
    :meth:`_weight_grad`) move ``min(f_in, f_out)`` columns along each
    row group (:func:`repro.nn.layers.funnel_reduces`), and every
    row-group operand moves by one of two collectives: a product whose
    output is narrower reduce-scatters its partials
    (:meth:`_reduce_product`: forward ``H W`` where a layer shrinks,
    backward ``G W^T`` where it grows); any other left operand is
    all-gathered along its row group once (:meth:`_gather_stages`) and
    the product loops over the gathered stages.  A non-shrinking layer's
    forward ``T^l`` is gathered so and its stages kept in the layer's
    cache, where the weight gradient ``Y^l = T^T G`` runs only its GEMMs
    from them; the backward ``A G^l`` of a layer that does not grow is
    gathered so for ``G W^T`` (and, where the layer shrinks, for ``Y^l =
    (H^{l-1})^T (A G^l)`` too).  Layer 1's ``T^0`` is the same every
    epoch, so it is gathered once per feature matrix, at set-up
    (:meth:`_keep_t0`), and both its funnels are GEMMs only.  The output
    layer's log_softmax moves one per-row statistic along the row groups
    (:meth:`_log_softmax`), not the rows, and every rank keeps its own
    columns of the log-probs and of ``dL/dZ``.  The loss pair (the terms
    of the labels in the rank's columns) and every layer's
    weight-gradient partial go into each rank's band of the gradient
    bucket (:func:`repro.dist.base.bucket_bands`), which its column
    group all-reduces and its row group then all-gathers, once, at the
    end of the backward (:meth:`_reduce_bucket`).

    The distributed SpMM (:meth:`_grid_spmm`) is Split-3D over the
    layout's ``L`` layers, 2D SUMMA its one-layer case: every layer's
    stage loop (:meth:`_summa_sweep`, over stages built once by
    :meth:`_summa_stage`) accumulates into one buffer per local row
    group, and a mesh with a layer axis then reduce-scatters the layer
    partials along its fibers.  A layout supplies only its shape:

    * ``mesh`` -- its coordinates (column ``j`` is ``coords(r)[1]``),
      the sparse distribution's argument;
    * ``row_ranges`` -- the ``Pr`` row blocks ``R_i``, the rows a row
      group's SpMM output spans (group ``k Pr + i`` in layer ``k``);
    * ``_row_groups()`` -- rank tuples sharing the same global rows,
      layer-major, each ordered by feature-column index (so
      ``group[t]`` owns the ``t``-th feature-column block);
    * (3D) ``_fiber_groups`` -- the ``(i, j)`` fibers a sweep
      reduce-scatters along;
    * one call of :meth:`_init_grid` with the process columns, each
      rank's global dense rows, the sparse distribution and the
      function that builds an operand's stages (around
      :meth:`_summa_stage`);
    * for the emitter, :meth:`_grid_shape`.

    ``A`` never changes, so its SUMMA pieces move once, at the first
    install (:meth:`_summa_sweep`, :meth:`_keep_a_pieces`), and no
    epoch moves a sparse byte.
    """

    #: Split-3D's fibers ``(i, j)``, row-major, along which every sweep
    #: reduce-scatters its layer partials -- on a one-layer mesh too;
    #: ``None`` for 2D, which has no layer axis
    _fiber_groups: Optional[Sequence[Tuple[int, ...]]] = None

    def _row_groups(self):
        raise NotImplementedError

    @classmethod
    def _grid_shape(cls, n: int, p: int, **kwargs: Any):
        """The layout's shape for the emitter, from the constructor's
        keyword arguments: ``((Pr, Pc, L), fibers, bounds, roots,
        a_bounds, meta)`` -- the mesh, whether it has fibers, the
        ascending column bounds of the stage cells (stage ``t``'s cell
        in layer ``k`` is cell ``t L + k``), each stage's root process
        row, the column bounds of the ``A`` blocks, and the schedule's
        metadata."""
        raise NotImplementedError

    #: the stage relays read every piece's nonempty columns, also of the
    #: pieces another process holds
    _SHAPE_COLUMNS = True

    #: the sparse distribution onto the layout's mesh
    #: (:func:`~repro.sparse.distribute.distribute_sparse_2d` / ``_3d``)
    _distribute: Callable[..., Dict[int, CSRMatrix]]

    @classmethod
    def _cut(cls, mesh, a_t, a, symmetric, **_layout):
        """The grid blocks of ``A^T`` and of ``A``: the backward operand
        is the grid transpose, materialised once and, for a directed
        operand, charged once, at set-up; for a symmetric operand the
        ``A`` grid IS the ``A^T`` grid (one dict), never charged."""
        a_t_blocks = cls._distribute(a_t, mesh)
        return {"a_t_blocks": a_t_blocks,
                "a_blocks": (a_t_blocks if symmetric
                             else cls._distribute(a, mesh))}, {}

    def _init_grid(self, pc: int, rank_rows: Sequence[Tuple[int, int]],
                   stages_of: Callable[[Dict[int, CSRMatrix]],
                                       List[SummaStage]]) -> None:
        """The layout's shape: ``Pc`` process columns (the
        feature-column split), every rank's global dense rows and the
        function that builds an operand's stages from its blocks (the
        shard's: :meth:`_cut`).  Each operand role's stages (``a_t``,
        and ``a`` when it differs) are built here; no piece is kept
        yet: the first install keeps them, per role."""
        self._pc = pc
        self._rank_row_ranges = list(rank_rows)
        # Rank -> grid coordinate map, precomputed: the epoch loops ask
        # for it thousands of times per epoch.
        self._out_cols = [self.mesh.coords(r)[1]
                          for r in range(self.rt.size)]
        # The gradient bucket's column bands (:meth:`_reduce_bucket`):
        # per band the ranks that share it, ascending, its wire size, its
        # ``(start, stop, shape)`` slot per layer, and where its gradient
        # words land in the whole bucket.
        bands = bucket_bands(self.widths, pc)
        self._col_groups = tuple(
            self._plan().group(r for r in range(self.rt.size)
                               if self._out_cols[r] == j)
            for j in range(pc))
        self._band_bytes = [band_nbytes(band) for band in bands]
        self._band_slots, joined = [], []
        for band in bands:
            slots, lo = [], LOSS_TERMS
            for l, ((r0, r1), (c0, c1)) in enumerate(band):
                slots.append((lo, lo + (r1 - r0) * (c1 - c0),
                              (r1 - r0, c1 - c0)))
                lo = slots[-1][1]
                start, f_out = self._bucket_bounds[l + 1][0], self.widths[l + 1]
                joined.append((start + np.arange(r0, r1)[:, None] * f_out
                               + np.arange(c0, c1)).ravel())
            self._band_slots.append(slots)
        self._band_index = np.concatenate(joined)
        self.a_t_blocks = self._roles["a_t_blocks"]
        self.a_blocks = self._roles["a_blocks"]
        self._summa = {"a_t": stages_of(self.a_t_blocks)}
        if not self.symmetric:
            self._summa["a"] = stages_of(self.a_blocks)
        self._pieces: Dict[str, List[list]] = {}

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
        """A rank's feature-column index."""
        return self._out_cols[rank]

    def _rank_rows(self, rank: int) -> Tuple[int, int]:
        """A rank's global dense rows (3D: ``S_{i,k}``, the ``k``-th
        sub-range of row block ``i``)."""
        return self._rank_row_ranges[rank]

    def _rows_of(self, rank: int) -> int:
        lo, hi = self._rank_rows(rank)
        return hi - lo

    def _fsplit(self, f: int) -> Tuple[Tuple[int, int], ...]:
        """Feature-column split (``Pc`` ways, like every dense matrix)."""
        return self._plan().split(f, self._pc)

    def _setup_data(self, features: np.ndarray) -> Dict[int, np.ndarray]:
        """This process's blocks of ``H^0``: each local rank's dense
        rows in its feature columns."""
        fcols = self._fsplit(features.shape[1])
        out = {}
        for r in self._local(range(self.rt.size)):
            lo, hi = self._rank_rows(r)
            c0, c1 = fcols[self._out_col(r)]
            out[r] = np.ascontiguousarray(features[lo:hi, c0:c1])
        return out

    def _stored_dense_rows(self) -> int:
        return max(hi - lo for lo, hi in self._rank_row_ranges)

    def _stored_dense_width(self, f: int) -> int:
        return max(hi - lo for lo, hi in self._fsplit(f))

    def _assemble(self, blocks) -> np.ndarray:
        """Full output from every rank's block: each row group's members'
        columns joined, the groups in global row order (their first
        ranks ``(i, 0, k)`` ascend in it)."""
        blocks = self.rt.gather_blocks(blocks)
        return np.concatenate(
            [np.concatenate([blocks[r] for r in group], axis=1)
             for group in sorted(self._row_group_list)], axis=0)

    def _piece_step(self, op_key: str, t: int,
                    st: SummaStage) -> RoutedStep:
        """Stage ``t``'s sparse pieces, broadcast along the process rows
        by the stage's sparse roots (``scomm``)."""
        return RoutedStep(
            "broadcast", ("bsch", op_key, t), st.sparse_routes, st.sparse,
            Category.SCOMM,
            lambda: [(group, st.sparse[root].nbytes_on_wire)
                     for group, root in st.sparse_routes])

    @staticmethod
    def _kept(st: SummaStage, got) -> list:
        """A stage's received pieces, as every later sweep multiplies
        them: a row group a relay receipt feeds keeps its receipt
        compacted onto its relayed rows (:meth:`CSRMatrix.
        compact_columns`: the same ``data``, each row's nonzeros in the
        same order, hence the same bits)."""
        got = list(got)
        g = len(st.rows[0])
        for gi in st.fed:
            rows = st.rows[gi // g][gi % g]
            if rows is not None:
                got[gi] = got[gi].compact_columns(rows)
        return got

    def _keep_a_pieces(self) -> None:
        """A directed operand's ``A`` pieces, moved once, at its first
        install: its ``A`` grid is the pairwise transpose of the ``A^T``
        grid -- every rank's ``A`` block charged to ``trpose`` -- and
        each stage's pieces are broadcast and kept, as the aggregation
        keeps ``A^T``'s (:meth:`_summa_sweep`).  For ``A == A^T`` the
        ``A`` grid is the ``A^T`` grid block for block (the blocks and
        the kept pieces are shared), so nothing moves and nothing is
        charged."""
        if "a" not in self._summa or "a" in self._pieces:
            return
        self._charge_kernel(
            "transpose", ("trp",),
            lambda: ((rank, self.a_blocks[rank].nbytes_on_wire)
                     for rank in self.a_blocks),
        )
        stages = self._summa["a"]
        steps = ([self._piece_step("a", t, st)]
                 for t, st in enumerate(stages))
        self._pieces["a"] = [self._kept(st, got) for st, (got,) in
                             zip(stages, self._routed_stages(steps))]

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

    def _join_span(self, parts, rows: int, width: int, key,
                   cap: Optional[int] = None) -> np.ndarray:
        """One dense stage operand from received feature-column pieces:
        the piece itself for a single-column span (no copy), else a
        concatenation into the ``key`` workspace -- ``cap`` rows of it,
        when given, of which the first ``rows`` are used, so joins of
        varying row counts share one buffer."""
        if len(parts) == 1:
            return parts[0]
        buf = self._ws(key, (rows if cap is None else cap, width))[:rows]
        np.concatenate(parts, axis=1, out=buf)
        return buf

    @property
    def _max_rows(self) -> int:
        """The most dense rows any rank holds: a bound on every SUMMA
        stage's rows."""
        cap = getattr(self, "_max_rows_cache", None)
        if cap is None:
            cap = max(self._grows(group) for group in self._row_group_list)
            self._max_rows_cache = cap
        return cap

    def _span(self, fsplit, c_lo: int, c_hi: int) -> Tuple[int, int]:
        """Feature-column span covered by column indices [c_lo, c_hi)."""
        return fsplit[c_lo][0], fsplit[c_hi - 1][1]

    # ------------------------------------------------------------------ #
    # the SUMMA stage loop (2D, and every Split-3D layer)
    # ------------------------------------------------------------------ #
    def _summa_stage(self, layers: Sequence[Dict[int, CSRMatrix]],
                     root: int, window: Optional[Tuple[int, int]],
                     rank: Callable[[int, int, int], int]) -> SummaStage:
        """One stage's structure, built once: the sparsity pattern is
        fixed.  ``layers[k]`` maps member ``i``'s sparse root to the
        piece it multiplies (members in order), ``rank(i, j, k)`` is
        member ``i`` of process column ``j`` in layer ``k``, and the
        dense blocks the stage reads are the ``window`` rows of the
        ``root`` member's.

        The stage relays its dense rows down each process column in
        cyclic order from the root (SUMMA's pipelined broadcast as a
        chain), each hop carrying only what the members after it read:
        hop ``p`` moves ``U_p``, the rows read by the members ``p .. g -
        1`` hops down.  The data plane sends every process its
        most-upstream member's ``U_p`` straight from the root, and the
        process's other members select theirs from it; a row group fed
        so multiplies its piece compacted onto its ``U_p``
        (:meth:`_kept`).  Where the root's rows are local nothing is
        selected: the piece reads them in place, which is bitwise the
        compacted product."""
        owner = self.rt.owners if self._spmd else None
        roots, rows, routes, sparse = [], [], [], {}
        hops, relay, feed, fed = [], [], {}, set()
        for k, pieces in enumerate(layers):
            g = len(pieces)
            a, b = window or (0, self._rows_of(rank(root, 0, k)))
            reads = [piece.nonempty_columns() for piece in pieces.values()]
            runs: List[Optional[np.ndarray]] = [None] * g
            moved = [0] * g
            read = np.zeros(b - a, dtype=bool)
            for p in range(g - 1, 0, -1):
                i = (root + p) % g
                read[reads[i]] = True
                seen = np.flatnonzero(read)
                moved[i] = seen.size
                runs[i] = None if seen.size == b - a else seen
            moved[root] = moved[(root + 1) % g] if g > 1 else 0
            rows.append(tuple(runs))
            roots.append(tuple(rank(root, j, k) for j in range(self._pc)))
            for i, (src, piece) in enumerate(pieces.items()):
                routes.append((self._row_group_list[k * g + i], src))
                sparse[src] = piece
            for j, src in enumerate(roots[-1]):
                hops.extend((rank(i, j, k), moved[i]) for i in range(g)
                            if moved[i])
                first = {}  # process -> (transfer, rows) of its first hop
                for p in range(1, g):
                    i = (root + p) % g
                    dst, mine = rank(i, j, k), runs[i]
                    if owner is None or owner[dst] == owner[src]:
                        if self._is_local(dst):
                            feed[dst] = (None, src, mine)
                        continue
                    w = owner[dst]
                    if w not in first:
                        if not moved[i]:
                            continue  # nor does any member after it
                        first[w] = (len(relay), mine)
                        relay.append((src, dst, a + (np.arange(b - a)
                                                     if mine is None
                                                     else mine)))
                    at, got = first[w]
                    if self._is_local(dst):
                        feed[dst] = (at, src, None if mine is got else
                                     mine if got is None else
                                     np.searchsorted(got, mine))
                        fed.add(k * g + i)
        return SummaStage(window, tuple(roots), tuple(rows), routes,
                          sparse, frozenset(fed), tuple(hops), tuple(relay),
                          feed)

    def _grid_spmm(self, sparse_blocks, dense_blocks, f: int,
                   ws_key=None) -> Dict[int, np.ndarray]:
        """One Split-3D SpMM sweep over the layout's layers, 2D SUMMA
        its one-layer case: every layer's stages (:meth:`_summa_sweep`)
        accumulate ``S(i, t) D(t, j)`` into one span-wide buffer per
        local row group -- row block ``R_i`` of group ``k Pr + i``, the
        span its local members' feature columns cover (the full width
        when every rank is local) -- whose column views are the rank
        results.  On a mesh with fibers they are the layer partials, and
        one reduce-scatter per fiber ``(i, j)`` sums them in fiber
        (layer) order and leaves rank ``(i, j, k)`` the shard
        ``S_{i,k}``: its input block, so the output is already in the
        input distribution.  A column band of the full-width sum equals
        the per-band sum elementwise, so the per-fiber folds reproduce
        the full-width accumulation bitwise; each is charged at its
        band's byte size, and the data plane moves only the fibers this
        process has ranks in.

        Buffers: partials the reduce-scatter consumes within this call
        take one workspace set per row group that every sweep reuses;
        2D results escape, so ``ws_key`` keys them into the workspace
        (per layer for cached results) and a sweep without one gets
        fresh buffers."""
        fcols = self._fsplit(f)
        fibers = self._fiber_groups
        if fibers is not None:
            ws_key = "fiber"  # the reduce-scatter consumes the partials
        blocks = self.row_ranges
        accs = {}
        for gi, group, members, (c_lo, c_hi) in self._local_group_info:
            lo, hi = blocks[gi % len(blocks)]
            o_lo, o_hi = self._span(fcols, c_lo, c_hi)
            if ws_key is None:
                acc = np.zeros((hi - lo, o_hi - o_lo))
            else:
                acc = self._ws(("gs", ws_key, gi), (hi - lo, o_hi - o_lo))
                acc.fill(0.0)
            accs[gi] = (acc, o_lo, o_hi)
        self._summa_sweep(sparse_blocks, dense_blocks, f, accs)
        out: Dict[int, np.ndarray] = {}
        for gi, group, members, span in self._local_group_info:
            acc, o_lo, o_hi = accs[gi]
            for r in members:
                c0, c1 = fcols[self._out_col(r)]
                out[r] = acc[:, c0 - o_lo : c1 - o_lo]
        if fibers is None:
            return out
        return self._collective(
            "reduce_scatter", ("rsc3", f), Category.DCOMM, fibers, out,
            lambda: [(fiber, (hi - lo) * (c1 - c0) * self.WB)
                     for fiber, ((lo, hi), (c0, c1)) in zip(
                         fibers, itertools.product(blocks, fcols))],
        )

    def _summa_sweep(self, sparse_blocks, dense_blocks, f: int,
                     accs) -> None:
        """The stage loop of one SpMM sweep over ``sparse_blocks``
        (``a_t_blocks`` or ``a_blocks``): ``accs[gi] += S D`` per stage
        for every local row group ``gi`` (``accs[gi] = (acc, o_lo,
        o_hi)``, its feature-column span).

        The sparse pieces move once, at set-up: the first sweep over an
        operand (the aggregation ``A^T H^0``; :meth:`_keep_a_pieces` for
        a directed ``A``) has each stage's sparse roots broadcast their
        pieces along the process rows and keeps every row group's
        receipt, and every later sweep multiplies the kept pieces (the
        stationary-operand trade of Koanantakool et al., IPDPS 2016:
        hold ``A``'s pieces, stop moving them; :meth:`_hold_kept_only`).
        Per stage the dense
        stage rows are relayed down the process columns
        (:meth:`_summa_stage`): the root is booked
        ``|U_1|`` rows and the member ``p`` hops down ``|U_p|``, one
        message each, at the pipelined broadcast's price -- which is
        the broadcast itself where every member reads every row.  A row
        group whose root rows are local (every one, on the virtual
        runtime) multiplies its piece by them in place: per stage the
        root's dense feature-column pieces are joined once per local
        column *span*, and nothing is selected or copied for a
        receiver.  A row group fed by a relay receipt joins its ``U_p``
        rows and multiplies them by the piece it received, compacted
        onto them when it was kept (:meth:`_kept`).  A piece with no
        nonzero adds nothing and is skipped.
        The steps run one stage ahead of the multiplies
        (:meth:`_routed_stages`).  Each local row group runs one SpMM a
        stage; SpMM columns are independent, so per-rank numerics are
        identical to the per-rank products.
        """
        op_key = "a_t" if sparse_blocks is self.a_t_blocks else "a"
        stages = self._summa[op_key]
        kept = self._pieces.get(op_key)
        fcols = self._fsplit(f)
        wb = self.WB

        def width(rank: int) -> int:
            b0, b1 = fcols[self._out_col(rank)]
            return b1 - b0

        def steps():
            # The size callables run a stage later, so they bind it.
            for t, st in enumerate(stages):
                relay = RoutedStep(
                    "gather_rows", ("rdch", op_key, f, t), st.relay,
                    dense_blocks, Category.DCOMM,
                    lambda st=st: [(r, n * width(r) * wb, 1)
                                   for r, n in st.hops])
                yield ([relay] if kept is not None
                       else [self._piece_step(op_key, t, st), relay])

        def rows_of(st: SummaStage, root: int) -> np.ndarray:
            block = dense_blocks[root]
            return block if st.window is None else block[slice(*st.window)]

        received = self._routed_stages(steps())
        got_pieces = []
        for t, st in enumerate(stages):
            *moved, relayed = next(received)
            sparse_got = self._kept(st, moved[0]) if moved else kept[t]
            got_pieces.append(sparse_got)
            g = len(st.rows[0])
            joins: Dict[Tuple[int, int, int], np.ndarray] = {}
            for gi, group, members, (c_lo, c_hi) in self._local_group_info:
                piece = sparse_got[gi]
                if not piece.nnz:
                    continue
                acc, o_lo, o_hi = accs[gi]
                k = gi // g
                if gi in st.fed:
                    parts = []
                    for r in members:
                        at, root, pos = st.feed[r]
                        got = rows_of(st, root) if at is None else relayed[at]
                        parts.append(got if pos is None else got[pos])
                    d_span = self._join_span(
                        parts, parts[0].shape[0], o_hi - o_lo,
                        ("rsr", c_lo, c_hi), self._max_rows)
                else:
                    d_span = joins.get((k, c_lo, c_hi))
                    if d_span is None:
                        parts = [rows_of(st, r)
                                 for r in st.roots[k][c_lo:c_hi]]
                        inner = parts[0].shape[0]
                        d_span = self._join_span(
                            parts, inner, o_hi - o_lo,
                            self._pick_span_key(o_hi - o_lo == f,
                                                ("gsd", inner), c_lo, c_hi))
                        joins[(k, c_lo, c_hi)] = d_span
                acc += spmm(piece, d_span)

            def charges(st=st):
                for group, root in st.sparse_routes:
                    piece = st.sparse[root]
                    for r in group:
                        yield r, piece.nnz, piece.nrows, width(r)

            self._charge_kernel("spmm", ("gsch", op_key, f, t), charges)
        if kept is None:
            self._pieces[op_key] = got_pieces
            self._hold_kept_only(op_key)

    def _hold_kept_only(self, op_key: str) -> None:
        """Once an operand's pieces are kept, every sweep multiplies
        them alone, and its blocks and stage roots' pieces are only
        charged from: each becomes its :class:`SparseShape`.  A row
        group's kept pieces hold its whole block row, so keeping the
        blocks would hold it twice."""
        blocks = self.a_t_blocks if op_key == "a_t" else self.a_blocks
        for held in [blocks] + [st.sparse for st in self._summa[op_key]]:
            for r, block in held.items():
                if isinstance(block, CSRMatrix):
                    held[r] = SparseShape.of(block)

    #: layer 1's ``T^0``, gathered once at set-up (:meth:`_keep_t0`)
    _t0_stages: Sequence = ()

    def _keep_t0(self, t0):
        """Aggregate once, gather once: the row-group gather layer 1's
        :meth:`_matmul_w` and :meth:`_weight_grad` would need every
        epoch runs here instead, once per feature matrix, and each local
        row group keeps the gathered pieces -- the group's full rows,
        ``f^0`` wide.  A local rank's piece is a read-only view of its
        own kept block, so nothing is held twice."""
        kept = super()._keep_t0(t0)
        self._t0_stages = self._gather_stages(kept, self.widths[0])
        self._keep_a_pieces()
        return kept

    def _kept_x_width(self, l: int) -> int:
        """A left operand whose product loops over gathered stages is
        held at the row group's full width: ``T^0`` from set-up, ``T^l``
        as the stages its forward product gathered, kept for its weight
        gradient."""
        f_in, f_out = self.widths[l], self.widths[l + 1]
        if funnel_reduces(f_in, f_out, l == 0):
            return super()._kept_x_width(l)
        return f_in

    def _matmul_w(self, t_blocks, w: np.ndarray, f_in: int, f_out: int,
                  ws_key=None, stages=None):
        """``T W`` for grid-distributed ``T`` (``f_in`` wide; any dense
        operand of the epoch) and replicated ``W`` (``f_in x f_out``),
        moving ``min(f_in, f_out)`` columns along each row group
        (:func:`~repro.nn.layers.funnel_reduces`).  Two cases: without
        ``stages`` the output is the narrower side and
        :meth:`_reduce_product` reduce-scatters it; otherwise ``stages``
        is ``T`` gathered along the row groups already
        (:meth:`_gather_stages`: the kept ``T^0``, a forward ``T^l``, a
        backward ``A G^l``) and the loop below moves nothing.

        Each stage computes one GEMM per *local* row group (the gathered
        stage block times the matching rows of ``W``) and every local
        rank's block is a view of its group's accumulator -- column
        blocks of a product are independent, so per-rank results are
        unchanged while the GEMM count drops from ``stages x P`` to
        ``stages x Pr``.  The GEMM always spans the full ``f_out``, also
        on a multiprocess worker that holds only some of a group's
        ranks: a narrower product can take another BLAS path (a
        one-column one is a matrix-vector product) and round
        differently, and ``W`` is replicated, so the whole width costs
        no data.  Per-rank GEMM charges are global and untouched.
        ``ws_key`` names a workspace for the group accumulators (callers
        whose result is cached across the epoch pass a per-layer key).
        """
        if stages is None:
            return self._reduce_product(t_blocks, w, f_out)
        groups_info = self._local_group_info
        fouts = self._fsplit(f_out)
        accs = []
        for gi, group, members, span in groups_info:
            rows = self._grows(group)
            if ws_key is not None:
                acc = self._ws(("mw", ws_key, gi), (rows, f_out))
                acc.fill(0.0)
            else:
                acc = np.zeros((rows, f_out))
            accs.append(acc)

        def stage_charges(lo: int, hi: int):
            for group in self._row_group_list:
                rows = self._grows(group)
                for r in group:
                    o0, o1 = fouts[self._out_col(r)]
                    yield r, 2.0 * rows * (hi - lo) * (o1 - o0)

        for t, lo, hi, recv in stages:
            w_stage = w[lo:hi, :]
            for acc, (gi, group, members, span) in zip(accs, groups_info):
                acc += forward_gemm(recv[gi], w_stage)
            self._charge_kernel(
                "gemm", ("mwch", f_in, f_out, t),
                lambda lo=lo, hi=hi: stage_charges(lo, hi),
            )
        out = {}
        for acc, (gi, group, members, span) in zip(accs, groups_info):
            for r in members:
                o0, o1 = fouts[self._out_col(r)]
                out[r] = acc[:, o0:o1]
        return out

    def _reduce_product(self, x_blocks, w: np.ndarray, f_out: int):
        """``X W`` where the output is narrower than ``X``: every local
        rank multiplies its own column block of ``X`` by its rows of
        ``W`` at the full ``f_out`` -- stage ``t``'s GEMM operands -- and
        each row group reduce-scatters the partials along the columns, so
        ``f_out`` columns travel instead of ``X``'s.  The fold runs in
        group order, which is stage order: bitwise the stage loop's ``0 +
        g_0 + g_1 + ...`` but for the sign of a zero."""
        groups = self._row_group_list
        f_in = w.shape[0]
        fins = self._fsplit(f_in)
        partials = {}
        for r, x in x_blocks.items():
            lo, hi = fins[self._out_col(r)]
            partials[r] = forward_gemm(x, w[lo:hi, :])

        def gemm_charges():
            for group in groups:
                rows = self._grows(group)
                for r in group:
                    lo, hi = fins[self._out_col(r)]
                    yield r, 2.0 * rows * (hi - lo) * f_out

        self._charge_kernel("gemm", ("rpch", f_in, f_out), gemm_charges)
        return self._collective(
            "reduce_scatter", ("rprs", f_out), Category.DCOMM, groups,
            partials,
            lambda: [(group, self._grows(group) * f_out * self.WB)
                     for group in groups],
            axis=1, bounds=self._fsplit(f_out),
        )

    # ------------------------------------------------------------------ #
    # the gradient bucket, one column band per rank
    # ------------------------------------------------------------------ #
    def _bucket(self, r: int) -> np.ndarray:
        """Rank ``r``'s gradient bucket: its column's band
        (:func:`~repro.dist.base.bucket_bands`), the loss pair and the
        blocks of every ``Y^l`` it contributes to."""
        return self._ws(("bucket", r),
                        (self._band_bytes[self._out_col(r)] // FP64_BYTES,))

    def _band_slot(self, r: int, l: int) -> np.ndarray:
        """Rank ``r``'s block of ``Y^l`` in its bucket, C-contiguous, so a
        GEMM writes into it as into an array of its own."""
        lo, hi, shape = self._band_slots[self._out_col(r)][l]
        return self._bucket(r)[lo:hi].reshape(shape)

    def _reduce_bucket(self, ranks) -> Tuple[float, float]:
        """The epoch's end: every column group -- the ``Pr L`` ranks
        sharing a feature-column index, ascending -- all-reduces its
        band, every row group all-gathers the reduced bands, and each
        process joins one gathered set into the whole bucket for the
        replicated optimiser step (:meth:`_step_from_bucket`).

        An entry of ``Y^l`` has nonzero terms on one column group only,
        so it folds the terms a world all-reduce would fold, in the same
        rank order, less the zeros; the loss pair sums the members'
        reduced pairs in member order.  Per rank, for a bucket of ``B``
        bytes, this moves about ``B (1 + 1 / Pc)`` in ``2 lg(Pr L) + lg
        Pc`` messages, where the world all-reduce moved ``2 B`` in ``2
        lg P``."""
        reduced = self._collective(
            "allreduce", ("bkar",), Category.DCOMM, self._col_groups,
            {r: self._bucket(r) for r in ranks},
            lambda: list(zip(self._col_groups, self._band_bytes)),
        )
        gathered = self._collective(
            "allgather", ("bkag",), Category.DCOMM, self._row_group_list,
            reduced,
            lambda: [(group, sum(self._band_bytes))
                     for group in self._row_group_list],
        )
        bands = gathered[next(iter(gathered))]
        total = np.empty(self._bucket_bounds[-1][1])
        loss = self._bucket_slot(total)
        loss[:] = bands[0][:LOSS_TERMS]
        for part in bands[1:]:
            loss += part[:LOSS_TERMS]
        total[self._band_index] = np.concatenate(
            [part[LOSS_TERMS:] for part in bands])
        return self._step_from_bucket(total)

    def _weight_grad(self, l: int, t_blocks, g_blocks, t_stages=None,
                     g_stages=None) -> None:
        """Layer ``l``'s ``Y^l = T^T G`` (Equation 3) partials, each
        local rank's written into its block of ``Y^l`` in its band of
        the gradient bucket (:meth:`_band_slot`), reduced with the rest
        of the bucket at the epoch's end (:meth:`_reduce_bucket`).  The
        narrower operand is gathered along the row groups
        (:meth:`_gather_stages`) already, by the time this runs, so it
        moves nothing.

        Given ``t_stages`` -- the stages of ``T`` the layer's forward
        product gathered and kept (:meth:`_forward_layers`; layer 1's
        from set-up) -- the outer GEMM runs, like :meth:`_matmul_w`, once
        per row group against the group's full-width ``G`` rows
        (re-assembled once per call; on a worker holding only some of
        the group's ranks the other columns are zeros, which touch no
        column it keeps), each rank's partial taking its column band of
        the shared product.  Otherwise (the layer shrinks, so ``T`` is
        ``H^{l-1}`` and ``G`` is ``A G^l``) ``g_stages`` is ``G``
        gathered by the backward, and each local rank takes its own row
        band ``T_r^T G`` from its column block of ``T`` and its group's
        full ``G``.  Either way a rank contributes to its band alone
        (:func:`~repro.dist.base.bucket_bands`), and each entry of ``Y``
        has one contributor per row group, at the same column index in
        every group.  A layer's slot is its own, so two layers of one
        shape never share a partial.
        """
        f_in, f_out = self.widths[l], self.widths[l + 1]
        partials = {}
        for gi, group, members, span in self._local_group_info:
            for r in members:
                partials[r] = self._band_slot(r, l)
                partials[r].fill(0.0)
        if t_stages is not None:
            self._column_band_partials(partials, t_stages, g_blocks, f_in,
                                       f_out)
        else:
            self._row_band_partials(partials, t_blocks, g_stages, f_in,
                                    f_out)

    def _row_band_partials(self, partials, t_blocks, g_stages, f_in: int,
                           f_out: int) -> None:
        fins = self._fsplit(f_in)
        for gi, group, members, span in self._local_group_info:
            g_full = self._join_span([recv[gi] for *_, recv in g_stages],
                                     self._grows(group), f_out,
                                     ("grows", gi, f_out))
            for r in members:
                weight_gradient(t_blocks[r], g_full, out=partials[r])

        def gemm_charges():
            for group in self._row_group_list:
                rows = self._grows(group)
                for r in group:
                    lo, hi = fins[self._out_col(r)]
                    yield r, 2.0 * (hi - lo) * rows * f_out

        self._charge_kernel("gemm", ("wgrch", f_in, f_out), gemm_charges)

    def _column_band_partials(self, partials, t_stages, g_blocks, f_in: int,
                              f_out: int) -> None:
        groups_info = self._local_group_info
        fouts = self._fsplit(f_out)
        g_rows = []
        for gi, group, members, (c_lo, c_hi) in groups_info:
            o_lo, o_hi = self._span(fouts, c_lo, c_hi)
            buf = self._ws(("grows", gi, f_out), (self._grows(group), f_out))
            if o_hi - o_lo < f_out:
                buf.fill(0.0)
            np.concatenate([g_blocks[r] for r in members], axis=1,
                           out=buf[:, o_lo:o_hi])
            g_rows.append(buf)

        def stage_charges(lo: int, hi: int):
            for group in self._row_group_list:
                rows = self._grows(group)
                for r in group:
                    o0, o1 = fouts[self._out_col(r)]
                    yield r, 2.0 * (hi - lo) * rows * (o1 - o0)

        for t, lo, hi, recv in t_stages:
            for buf, (gi, group, members, span) in zip(g_rows, groups_info):
                band = weight_gradient(recv[gi], buf)  # (hi - lo, f_out)
                for r in members:
                    o0, o1 = fouts[self._out_col(r)]
                    partials[r][lo:hi] += band[:, o0:o1]
            self._charge_kernel(
                "gemm", ("wgch", f_in, f_out, t),
                lambda lo=lo, hi=hi: stage_charges(lo, hi),
            )

    def _row_pieces(self, blocks, f: int):
        """Concurrent per-row-group all-gathers of ``blocks`` (``f``
        wide): per local row group index, its members' pieces in column
        order, one shared read-only list per group.  Charges are global
        and sized from structure (``group rows x f``); the data plane
        moves only the groups this process participates in."""
        got = self._collective(
            "allgather", ("ragch", f), Category.DCOMM, self._row_group_list,
            blocks,
            lambda: [(group, self._grows(group) * f * self.WB)
                     for group in self._row_group_list],
            span="row_allgather",
        )
        return {gi: got[members[0]]
                for gi, group, members, span in self._local_group_info}

    def _gather_stages(self, blocks, f: int):
        """``blocks`` (``f`` wide) all-gathered along every row group
        once (:meth:`_row_pieces`), as the stage list the funnels loop
        over: ``(t, lo, hi, recv)`` per non-empty block ``[lo, hi)`` of
        the ``f``-split, ``recv`` the ``t``-th member's piece indexed
        like :attr:`_row_group_list` (``None`` for a group this process
        has no rank in).  Every row-group operand of the epoch that is
        not reduce-scattered moves so: ``T^0`` at set-up, a forward
        ``T^l``, a backward ``A G^l``.

        A local member's piece is a read-only view of its own block, and
        the funnels read the pieces after later products ran, so
        ``blocks`` must sit in a buffer nothing else of the epoch
        writes."""
        got = self._row_pieces(blocks, f)
        groups = range(len(self._row_group_list))
        return [(t, lo, hi, [got[gi][t] if gi in got else None
                             for gi in groups])
                for t, (lo, hi) in enumerate(self._fsplit(f)) if hi > lo]

    @staticmethod
    def _row_pair(z: np.ndarray) -> np.ndarray:
        """A block's per-row ``log_softmax`` statistic, ``2 x rows``: its
        max ``M`` and ``sum exp(z - M)``, summed in column order;
        ``(-inf, 0)`` where it has no column.  The block is reduced
        transposed: over a few columns a reduction along the rows runs
        several times faster."""
        pair = np.empty((2, z.shape[0]))
        if not z.shape[1]:
            pair[0], pair[1] = -np.inf, 0.0
            return pair
        zt = z.T.copy()
        np.maximum.reduce(zt, axis=0, out=pair[0])
        zt -= pair[0]
        np.add.reduce(np.exp(zt, out=zt), axis=0, out=pair[1])
        return pair

    def _log_softmax(self, z_blocks, f: int):
        """``log_softmax`` of the output logits (``f`` wide), on each
        rank's own feature columns, moving a per-row statistic in place
        of the rows (the vocabulary-parallel cross-entropy of
        Megatron-LM, Shoeybi et al., 2019).  Every member reduces its
        columns to a pair a row (:meth:`_row_pair`) and the row groups
        all-gather the pairs: two words a row per member where the rows
        were ``f``.  A member with fewer than two columns ships them
        instead, and every receiver reduces them as the member would
        have.  Every member folds its group's pairs in member order,
        ``lse = M + log sum_m S_m exp(M_m - M)`` with ``M = max_m M_m``,
        once per local group, and its log-probs are ``z - lse``.
        Returns those blocks and, per local row group index, the member
        that holds each row's first maximum -- the first whose ``M_m`` is
        ``M`` -- from which the loss decides the first-index argmax
        (:meth:`_run_epoch`)."""
        ncols = [hi - lo for lo, hi in self._fsplit(f)]
        shipped = {r: z if z.shape[1] < 2 else self._row_pair(z)
                   for r, z in z_blocks.items()}
        words = sum(min(2, w) for w in ncols)
        got = self._collective(
            "allgather", ("lsag", f), Category.DCOMM, self._row_group_list,
            shipped,
            lambda: [(group, self._grows(group) * words * self.WB)
                     for group in self._row_group_list],
            span="row_allgather",
        )
        out, first = {}, {}
        for gi, group, members, span in self._local_group_info:
            pairs = np.stack([self._row_pair(part) if w < 2 else part
                              for part, w in zip(got[members[0]], ncols)])
            top = pairs[:, 0].max(axis=0)
            first[gi] = np.argmax(pairs[:, 0] == top, axis=0)
            # the sum over axis 0 adds the members' terms in member order
            total = (pairs[:, 1] * np.exp(pairs[:, 0] - top)).sum(axis=0)
            lse = (top + np.log(total))[:, None]
            for r in members:
                out[r] = z_blocks[r] - lse
        return out, first

    def _output_rows(self, r: int):
        """Rank ``r``'s share of the loss, fixed between set-ups: the
        masked local rows whose label is one of its feature columns, the
        label's column in its block, and ``dL/d log_probs`` summed over
        each whole row (``-1 / masked`` on a masked row, else 0), which
        every member knows without the others' columns."""
        lo, hi = self._rank_rows(r)
        c0, c1 = self._fsplit(self.widths[-1])[self._out_col(r)]
        key = (lo, hi, c0, c1)
        cached = self._loss_cache.get(key)
        if cached is None:
            rows, labels = self._loss_rows(lo, hi)
            mine = (labels >= c0) & (labels < c1)
            row_sums = np.zeros((hi - lo, 1))
            row_sums[rows] = -1.0 / self._mask_count
            cached = (rows[mine], labels[mine] - c0, row_sums)
            self._loss_cache[key] = cached
        return cached

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
        self._charge_kernel("elementwise", key, builder)

    def _aggregate(self, h_blocks):
        return self._obs_call(
            "spmm.fwd", "spmm", self._grid_spmm,
            self.a_t_blocks, h_blocks, self.widths[0],
        )

    def _forward_layers(self):
        """The forward pass; per layer a cache for the backward.  A
        layer whose product loops over gathered stages keeps them as
        ``"x_stages"``, for its weight gradient."""
        caches = []
        last = self.model.num_layers - 1
        h_blocks = self._t0
        for l, layer in enumerate(self.model.layers):
            f_in, f_out = layer.f_in, layer.f_out
            # "x" is Equation 3's left operand: T = A^T H^{l-1}, or
            # H^{l-1} itself where W goes first (layer 1: the kept T^0).
            x_blocks = h_blocks
            x_stages = None
            if sweep_order(f_in, f_out, l == 0).project_fwd:
                hw_blocks = self._matmul_w(x_blocks, layer.weight, f_in,
                                           f_out)
                z_blocks = self._obs_call(
                    "spmm.fwd", "spmm", self._grid_spmm,
                    self.a_t_blocks, hw_blocks, f_out, ws_key=("z", l),
                )
            else:
                # T W loops over T gathered along the row groups (layer
                # 1's at set-up), and the weight gradient reads the same
                # stages.  Nothing refills the ("t", l) workspace the
                # local pieces view before the backward is done.
                if l == 0:
                    x_stages = self._t0_stages
                else:
                    x_blocks = self._obs_call(
                        "spmm.fwd", "spmm", self._grid_spmm,
                        self.a_t_blocks, h_blocks, f_in, ws_key=("t", l),
                    )
                    x_stages = self._gather_stages(x_blocks, f_in)
                z_blocks = self._matmul_w(x_blocks, layer.weight, f_in,
                                          f_out, ws_key=("z", l),
                                          stages=x_stages)
            cache = {"x": x_blocks, "x_stages": x_stages, "z": z_blocks}
            if l < last:
                h_blocks = {r: layer.activation.forward(z_blocks[r])
                            for r in z_blocks}
            else:
                # log_softmax is row-wise, but only a per-row pair per
                # member has to move.
                h_blocks, cache["first"] = self._log_softmax(z_blocks,
                                                             f_out)
            self._charge_band_elementwise(("gef", l), f_out, 2.0 * self.WB)
            caches.append(cache)
        return h_blocks, caches

    def _forward_pass(self) -> np.ndarray:
        out, _ = self._forward_layers()
        return self._assemble(out)

    def _run_epoch(self) -> Tuple[float, float]:
        out, caches = self._forward_layers()
        self._set_epoch_output(out)
        z_last, first = caches[-1]["z"], caches[-1]["first"]

        # ---- loss terms, at the head of each rank's gradient bucket,
        # and dL/dZ, each on the rank's own columns: the label's member
        # picks its log-prob, and counts a row correct where it holds
        # the row's first maximum (the first member whose M_m is the
        # max) at the label's column ----
        g_blocks = {}
        for gi, group, members, span in self._local_group_info:
            for r in members:
                rows, cols, row_sums = self._output_rows(r)
                pair = self._bucket(r)[:LOSS_TERMS]
                pair[:] = 0.0
                if rows.size:  # then the rank holds a column
                    pair[0] = out[r][rows, cols].sum()
                    pair[1] = np.count_nonzero(
                        (first[gi][rows] == self._out_col(r))
                        & (z_last[r][rows].argmax(axis=1) == cols))
                lo, hi = self._rank_rows(r)
                grad = self._grad_out_rows(lo, hi, self.widths[-1])
                c0, c1 = self._fsplit(self.widths[-1])[self._out_col(r)]
                g_blocks[r] = grad[:, c0:c1] - np.exp(out[r]) * row_sums
        self._charge_band_elementwise(("geg",), self.widths[-1],
                                      3.0 * self.WB)

        for l in range(self.model.num_layers - 1, -1, -1):
            layer = self.model.layers[l]
            f_in, f_out = layer.f_in, layer.f_out
            order = sweep_order(f_in, f_out, l == 0)
            ag_stages = None
            if l > 0 and not order.project_bwd:
                # A G^l, for Equation 2 below (layer 1 has no G^0 to
                # form), gathered along the row groups once.  Its pieces
                # are re-hashed at the epoch's end, so no later sweep may
                # refill it: a fresh buffer, dropped with the epoch.
                ag_blocks = self._obs_call(
                    "spmm.bwd", "spmm", self._grid_spmm,
                    self.a_blocks, g_blocks, f_out,
                )
                ag_stages = self._gather_stages(ag_blocks, f_out)
            # Y^l = X^T G from X's stages kept forward, or, where W went
            # first forward, (H^{l-1})^T (A G^l) from the gathered A G^l.
            self._weight_grad(l, caches[l]["x"], g_blocks,
                              caches[l]["x_stages"], ag_stages)
            if l > 0:
                gh_blocks = self._matmul_w(g_blocks, layer.weight.T, f_out,
                                           f_in, stages=ag_stages)
                if order.project_bwd:
                    gh_blocks = self._obs_call(
                        "spmm.bwd", "spmm", self._grid_spmm,
                        self.a_blocks, gh_blocks, f_in, ws_key=("ag",),
                    )
                z_prev = caches[l - 1]["z"]
                g_blocks = {
                    r: self.model.layers[l - 1].activation.backward(
                        z_prev[r], gh_blocks[r]
                    )
                    for r in gh_blocks
                }
                self._charge_band_elementwise(("geb", l), f_in, 3.0 * self.WB)
        return self._reduce_bucket(out)

    # ------------------------------------------------------------------ #
    # symbolic schedule emission (repro.simulate)
    # ------------------------------------------------------------------ #
    @classmethod
    def emit_comm_schedule(cls, graph: Any, widths: Sequence[int], p: int,
                           word_bytes: int = FP64_BYTES,
                           **kwargs: Any) -> "CommSchedule":
        """Emit the grid epoch's schedule without building ranks.

        The layout's shape (:meth:`_grid_shape`) and the model's counts
        per stage cell -- the nonzeros of every row block's slice, and
        the rows each hop of the stage's relay carries
        (:meth:`~repro.simulate.schedule.GraphModel.run_nonzero_cols`)
        -- as ``[i, t, k]`` arrays drive the shared grid epoch
        (:func:`~repro.simulate.schedule.emit_grid_epoch`), which
        mirrors :meth:`_grid_spmm` and the epoch phase for phase.
        """
        from repro.simulate.schedule import (GraphModel, ScheduleBuilder,
                                             emit_grid_epoch)

        widths = check_widths(widths)
        graph = GraphModel.coerce(graph)
        (pr, pc, layers), fibers, bounds, roots, a_bounds, meta = \
            cls._grid_shape(graph.n, p, **kwargs)
        cells = (pr, len(roots), layers)
        cell_roots = np.repeat(roots, layers)

        def counts(transpose: bool):
            return (graph.cell_nnz(pr, bounds, transpose=transpose)
                    .reshape(cells),
                    graph.run_nonzero_cols(pr, bounds, cell_roots,
                                           transpose=transpose)
                    .reshape(cells))

        at = counts(False)
        a = at if graph.symmetric else counts(True)
        b = ScheduleBuilder(p, word_bytes)
        emit_grid_epoch(
            b, widths, graph.n, (pr, pc, layers), fibers, roots, (at, a),
            None if graph.symmetric
            else graph.cell_nnz(pr, a_bounds, transpose=True))
        return b.build(**meta, graph=graph.name, widths=widths)
