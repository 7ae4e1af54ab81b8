"""Vertex distributions: partition -> induced permutation -> rank ranges.

The 1D algorithm's default distribution is "each process receives n/p
consecutive rows" (Section IV-A); its communication volume is then fixed
by the graph's structure under that vertex order.  Section IV-A.8 runs
Metis on Reddit precisely to change that order: a good partition shrinks
``edgecut_P(A)`` -- the distinct remote-neighbour rows each process must
fetch.  A :class:`Distribution` packages one such choice:

* a **vertex assignment** (vertex -> part, from any
  :mod:`repro.partition` partitioner);
* the **induced permutation** that relabels vertices part-major (stable
  within a part), so each part's vertices become one contiguous block of
  new ids -- the same mechanism as the load-balancing random vertex
  permutation of :mod:`repro.graph.permutation`, but partition-driven;
* the resulting **per-rank row ranges** (part sizes need not be equal:
  the multilevel partitioner balances only within its tolerance).

Algorithms consume a distribution in two tiers: every
:class:`~repro.dist.base.DistAlgorithm` applies the permutation (inputs
are relabelled on the way in, predictions un-relabelled on the way out),
while the 1D family additionally adopts the per-rank row ranges -- which
is what makes partition quality visible in the executed ledger through
the ``ghost`` variant's row exchange.

:func:`ghost_structure` derives that exchange's exact structure (which
remote rows each rank must fetch, from whom) from the permuted operand
and the rank ranges; its per-rank ghost counts equal
:func:`repro.partition.edgecut.ghost_rows_per_part` on the original
graph by construction (the relabelling is a bijection on neighbour
sets), which the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse.distribute import block_ranges

__all__ = [
    "PARTITION_KINDS",
    "Distribution",
    "GhostStructure",
    "ghost_structure",
]

#: Partitioner names :meth:`Distribution.build` accepts.
PARTITION_KINDS = ("block", "random", "multilevel")


def _ranges_from_sizes(sizes: np.ndarray) -> Tuple[Tuple[int, int], ...]:
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    return tuple(
        (int(bounds[i]), int(bounds[i + 1])) for i in range(len(sizes))
    )


@dataclass(frozen=True)
class Distribution:
    """One vertex partition realised as a relabelling + rank row ranges.

    ``assignment[v]`` is the part (rank) of original vertex ``v``;
    ``perm[v]`` its new id (part-major, stable within a part, so part
    ``i`` owns the contiguous new-id range ``row_ranges[i]``); ``inv``
    is the inverse relabelling (``inv[new] == old``).  Empty parts are
    legal and yield empty ranges (the partitioners' documented
    ``nparts > n`` convention).
    """

    kind: str
    nparts: int
    assignment: np.ndarray
    perm: np.ndarray
    inv: np.ndarray
    row_ranges: Tuple[Tuple[int, int], ...]

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_assignment(
        cls, assignment: np.ndarray, nparts: int, kind: str = "custom"
    ) -> "Distribution":
        """Build the induced part-major relabelling of an assignment."""
        from repro.partition.random_part import partition_sizes

        assignment = np.asarray(assignment, dtype=np.int64)
        if assignment.ndim != 1:
            raise ValueError(
                f"assignment must be 1-D, got shape {assignment.shape}"
            )
        # partition_sizes owns the nparts/part-id validation (one error
        # surface for the whole partition subsystem).
        sizes = partition_sizes(assignment, nparts)
        # Stable part-major order: inv[new] = old vertex at new slot.
        inv = np.argsort(assignment, kind="stable").astype(np.int64)
        perm = np.empty_like(inv)
        perm[inv] = np.arange(assignment.size, dtype=np.int64)
        return cls(
            kind=kind,
            nparts=int(nparts),
            assignment=assignment,
            perm=perm,
            inv=inv,
            row_ranges=_ranges_from_sizes(sizes),
        )

    @classmethod
    def block(cls, n: int, nparts: int) -> "Distribution":
        """The paper's default contiguous split (identity permutation)."""
        from repro.partition.random_part import block_partition

        return cls.from_assignment(
            block_partition(n, nparts), nparts, kind="block"
        )

    @classmethod
    def build(cls, kind: str, adjacency: CSRMatrix, nparts: int,
              seed: int = 0) -> "Distribution":
        """Partition ``adjacency`` with the named partitioner.

        ``"block"`` is the contiguous baseline (identity permutation),
        ``"random"`` the balanced random baseline, ``"multilevel"`` the
        Metis-like partitioner of :mod:`repro.partition.multilevel`.
        """
        from repro.partition.multilevel import multilevel_partition
        from repro.partition.random_part import (
            block_partition,
            random_partition,
        )

        n = adjacency.nrows
        if kind == "block":
            assignment = block_partition(n, nparts)
        elif kind == "random":
            assignment = random_partition(n, nparts, seed=seed)
        elif kind == "multilevel":
            assignment = multilevel_partition(adjacency, nparts, seed=seed)
        else:
            raise ValueError(
                f"unknown partition kind {kind!r}; "
                f"choose from {PARTITION_KINDS}"
            )
        return cls.from_assignment(assignment, nparts, kind=kind)

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        return int(self.assignment.size)

    @property
    def part_sizes(self) -> np.ndarray:
        return np.array([hi - lo for lo, hi in self.row_ranges],
                        dtype=np.int64)

    @property
    def is_identity(self) -> bool:
        """True when the relabelling is a no-op (e.g. block partitions)."""
        return bool(
            np.array_equal(self.perm, np.arange(self.n, dtype=np.int64))
        )

    # ------------------------------------------------------------------ #
    # applying the relabelling
    # ------------------------------------------------------------------ #
    def permute_matrix(self, a: CSRMatrix) -> CSRMatrix:
        """``P A P^T`` under the induced relabelling (identity: as-is)."""
        if a.nrows != self.n or a.ncols != self.n:
            raise ValueError(
                f"matrix shape {a.shape} does not match n={self.n}"
            )
        return a if self.is_identity else a.permute(self.perm)

    def permute_rows(self, x: np.ndarray) -> np.ndarray:
        """Rows reordered into the internal (part-major) layout.

        Row ``perm[v]`` of the result is row ``v`` of the input, exactly
        like :func:`repro.graph.permutation.apply_random_permutation`
        treats features and labels.
        """
        if x.shape[0] != self.n:
            raise ValueError(f"need {self.n} rows, got {x.shape[0]}")
        return x if self.is_identity else x[self.inv]

    def unpermute_rows(self, x: np.ndarray) -> np.ndarray:
        """Rows mapped back to the original vertex order."""
        if x.shape[0] != self.n:
            raise ValueError(f"need {self.n} rows, got {x.shape[0]}")
        return x if self.is_identity else x[self.perm]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Distribution(kind={self.kind!r}, n={self.n}, "
                f"nparts={self.nparts})")


@dataclass(frozen=True)
class GhostStructure:
    """Exact structure of one ghost-row exchange.

    All arrays live in the *internal* (permuted) vertex order.  For rank
    ``r``, the compact operand has ``width[r]`` rows: the distinct
    columns rank ``r``'s sparse block references, ascending.  Because
    rank ranges are contiguous and ascending, that order is exactly
    "ghosts from lower ranks, own referenced rows, ghosts from higher
    ranks", so every per-source slot is one contiguous slice.

    ``pairs[i] = (src, dst, src_local_rows)`` enumerates the transfers
    in one fixed global order (receivers ascending, sources ascending
    within a receiver) -- every backend walks the same list, which is
    what keeps the multiprocess rendezvous deadlock-free;
    ``pair_slots[i] = (lo, hi)`` is the destination slice in ``dst``'s
    compact operand.  ``own_pos[r]`` / ``own_idx[r]`` place rank ``r``'s
    own referenced rows (compact positions / block-local row indices);
    when every own row is referenced (any operand with a full diagonal,
    e.g. a GCN-normalised ``A + I``) they are one contiguous run holding
    the whole block in order, recorded as ``own_slice[r] = (lo, hi)`` --
    ``None`` otherwise.
    ``ghost_rows[r]`` is the paper's ``r_i`` (distinct remote
    neighbours) and ``nsources[r]`` the distinct owners it fetches from.
    """

    nranks: int
    width: Tuple[int, ...]
    ghost_rows: Tuple[int, ...]
    nsources: Tuple[int, ...]
    ref_cols: Tuple[np.ndarray, ...]
    own_pos: Tuple[np.ndarray, ...]
    own_idx: Tuple[np.ndarray, ...]
    own_slice: Tuple[Optional[Tuple[int, int]], ...]
    pairs: Tuple[Tuple[int, int, np.ndarray], ...]
    pair_slots: Tuple[Tuple[int, int], ...]


def ghost_structure(
    a_t: CSRMatrix,
    row_ranges: Sequence[Tuple[int, int]],
) -> GhostStructure:
    """Derive the exact ghost-row exchange of a block-row distribution.

    ``a_t`` is the (already relabelled) forward operand whose block rows
    rank ``i`` owns per ``row_ranges``; the returned structure is pure
    graph structure, identical on every backend, and its per-rank ghost
    counts reproduce :func:`repro.partition.edgecut.ghost_rows_per_part`
    for the originating assignment.
    """
    nranks = len(row_ranges)
    bounds = np.array([lo for lo, _ in row_ranges] + [a_t.nrows],
                      dtype=np.int64)
    width: List[int] = []
    ghost_rows: List[int] = []
    nsources: List[int] = []
    ref_cols: List[np.ndarray] = []
    own_pos: List[np.ndarray] = []
    own_idx: List[np.ndarray] = []
    own_slice: List[Optional[Tuple[int, int]]] = []
    pairs: List[Tuple[int, int, np.ndarray]] = []
    pair_slots: List[Tuple[int, int]] = []
    for r, (lo, hi) in enumerate(row_ranges):
        cols = a_t.nonempty_columns(lo, hi)
        ref_cols.append(cols)
        width.append(int(cols.size))
        own = (cols >= lo) & (cols < hi)
        own_positions = np.flatnonzero(own)
        own_pos.append(own_positions)
        own_idx.append(cols[own_positions] - lo)
        # cols is sorted, so the own columns are one run; it is the whole
        # block, in order, exactly when none of the own rows is missing.
        start = int(own_positions[0]) if own_positions.size else 0
        own_slice.append((start, start + hi - lo)
                         if own_positions.size == hi - lo else None)
        ghosts = cols[~own]
        ghost_rows.append(int(ghosts.size))
        # Owner of each ghost id; ranges are contiguous ascending, so
        # ghosts sorted ascending are already grouped by source rank.
        owners = np.searchsorted(bounds, ghosts, side="right") - 1
        srcs, starts = np.unique(owners, return_index=True)
        nsources.append(int(srcs.size))
        ghost_positions = np.flatnonzero(~own)
        stops = np.append(starts[1:], ghosts.size)
        for s, g_lo, g_hi in zip(srcs, starts, stops):
            s_lo = row_ranges[int(s)][0]
            pairs.append((int(s), r, ghosts[g_lo:g_hi] - s_lo))
            pair_slots.append((int(ghost_positions[g_lo]),
                               int(ghost_positions[g_hi - 1]) + 1))
    return GhostStructure(
        nranks=nranks,
        width=tuple(width),
        ghost_rows=tuple(ghost_rows),
        nsources=tuple(nsources),
        ref_cols=tuple(ref_cols),
        own_pos=tuple(own_pos),
        own_idx=tuple(own_idx),
        own_slice=tuple(own_slice),
        pairs=tuple(pairs),
        pair_slots=tuple(pair_slots),
    )
