"""Edge-cut metrics for vertex partitions.

Section IV-A defines ``edgecut_P(A)`` as ``max(r_1, ..., r_P)`` where
``r_i`` is the minimum number of dense-matrix rows process ``i`` needs to
receive to perform its local multiply -- i.e. the number of *distinct
remote neighbours* (ghost vertices) of partition ``i``.  Each such row
carries an ``O(f)`` feature-vector payload (Figure 1).

The Metis experiment (Section IV-A.8) additionally quotes *edge* counts:
total edges cut (3,258,385 vs 11,761,151 on Reddit/64 parts) and the cut
edges of the maximally-communicating process (131,286 vs 185,823).  Both
metrics are implemented here; the gap between the 72 % total reduction and
the 29 % max-process reduction is the experiment's whole point, because a
bulk-synchronous epoch runs at the slowest process's pace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.sparse.csr import CSRMatrix

__all__ = ["CutStats", "edge_cut_stats", "ghost_rows_per_part", "edgecut_metric"]


@dataclass(frozen=True)
class CutStats:
    """Cut statistics of one vertex partition.

    ``total_cut_edges`` counts directed nnz with endpoints in different
    parts (an undirected edge cut once per direction stored); Metis-style
    undirected counts are exactly half for symmetric adjacencies --
    ``undirected_cut_edges`` reports that.
    """

    nparts: int
    total_cut_edges: int
    max_part_cut_edges: int
    per_part_cut_edges: Tuple[int, ...]
    max_ghost_rows: int
    per_part_ghost_rows: Tuple[int, ...]

    @property
    def undirected_cut_edges(self) -> int:
        return self.total_cut_edges // 2

    @property
    def edgecut_metric(self) -> int:
        """The paper's ``edgecut_P(A) = max_i r_i`` (ghost rows)."""
        return self.max_ghost_rows


def _validate_assignment(a: CSRMatrix, assignment: np.ndarray, nparts: int) -> np.ndarray:
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (a.nrows,):
        raise ValueError(
            f"assignment covers {assignment.shape} vertices, graph has {a.nrows}"
        )
    if assignment.size and (assignment.min() < 0 or assignment.max() >= nparts):
        raise ValueError(f"part ids outside [0, {nparts})")
    return assignment


def edge_cut_stats(a: CSRMatrix, assignment: np.ndarray, nparts: int) -> CutStats:
    """Compute all cut metrics of a partition in one vectorised pass.

    ``nparts`` must be at least 1; empty parts are legal (the
    partitioners' documented ``nparts > n`` convention) and contribute
    explicit zeros to every per-part tuple.
    """
    if nparts < 1:
        raise ValueError(f"nparts must be >= 1, got {nparts}")
    assignment = _validate_assignment(a, assignment, nparts)
    rows, cols, _ = a.to_coo()
    src_part = assignment[rows]
    dst_part = assignment[cols]
    cut = src_part != dst_part
    total_cut = int(np.count_nonzero(cut))
    per_part_cut = np.bincount(src_part[cut], minlength=nparts)
    # Ghost rows: distinct (owner part, remote vertex) pairs, where the
    # remote vertex's features must be shipped to the owner part.
    pairs = np.unique(src_part[cut] * a.ncols + cols[cut])
    ghost = np.bincount(pairs // a.ncols, minlength=nparts)
    return CutStats(
        nparts=nparts,
        total_cut_edges=total_cut,
        max_part_cut_edges=int(per_part_cut.max()),
        per_part_cut_edges=tuple(int(x) for x in per_part_cut),
        max_ghost_rows=int(ghost.max()),
        per_part_ghost_rows=tuple(int(x) for x in ghost),
    )


def ghost_rows_per_part(a: CSRMatrix, assignment: np.ndarray, nparts: int) -> np.ndarray:
    """Just the ``r_i`` vector (distinct remote neighbours per part)."""
    stats = edge_cut_stats(a, assignment, nparts)
    return np.array(stats.per_part_ghost_rows, dtype=np.int64)


def edgecut_metric(a: CSRMatrix, assignment: np.ndarray, nparts: int) -> int:
    """``edgecut_P(A)``: the paper's per-process communication bound.

    Never exceeds ``n (P-1)/P`` for a non-adversarial partition
    (Section IV-A.1); graph partitioning tools can push it lower.
    """
    return edge_cut_stats(a, assignment, nparts).max_ghost_rows
