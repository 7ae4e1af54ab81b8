"""Block distributions of sparse and dense matrices onto process meshes.

The paper's three algorithm families use three data distributions
(Tables III, IV, V):

* **1D** -- ``A`` in block columns (of ``A^T``: block rows), ``H``/``G`` in
  block rows, ``W`` replicated;
* **2D** -- everything block-partitioned on a ``Pr x Pc`` grid, ``W``
  replicated;
* **3D (Block Split 3D)** -- the inner dimension is split across layers,
  layer ``k`` taking the ``k``-th sub-slice of every block; each local
  ``A_ijk`` is ``n/p x n/p^2`` (cubic mesh of side ``p``) and each local
  ``H_ijk`` is ``n/p^2 x f/p``.

All splits use near-equal contiguous ranges (``block_ranges``), exactly the
"each process receives n/p consecutive rows" scheme of Section IV-A; load
balance for skewed graphs comes from the random vertex permutation applied
beforehand (:mod:`repro.graph.permutation`).

The gather helpers reassemble a distributed dense matrix for verification
against the serial reference.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.comm.mesh import Mesh2D, Mesh3D
from repro.sparse.csr import CSRMatrix

__all__ = [
    "block_ranges",
    "range_of",
    "distribute_sparse_1d_rows",
    "distribute_sparse_1d_cols",
    "distribute_dense_1d_rows",
    "distribute_sparse_2d",
    "distribute_dense_2d",
    "distribute_sparse_3d",
    "distribute_dense_3d",
    "gather_dense_1d_rows",
    "gather_dense_2d",
    "gather_dense_3d",
]


def block_ranges(n: int, parts: int) -> List[Tuple[int, int]]:
    """Split ``0..n`` into ``parts`` near-equal contiguous ranges.

    The first ``n % parts`` ranges get the extra element, matching
    ``numpy.array_split`` semantics so dense and sparse splits line up.
    """
    if parts < 1:
        raise ValueError(f"need >= 1 part, got {parts}")
    if n < 0:
        raise ValueError(f"negative length {n}")
    base, extra = divmod(n, parts)
    ranges = []
    start = 0
    for i in range(parts):
        stop = start + base + (1 if i < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def range_of(n: int, parts: int, index: int) -> Tuple[int, int]:
    """The ``index``-th range of :func:`block_ranges` without building all."""
    if not 0 <= index < parts:
        raise IndexError(f"part {index} out of {parts}")
    base, extra = divmod(n, parts)
    start = index * base + min(index, extra)
    stop = start + base + (1 if index < extra else 0)
    return start, stop


# ---------------------------------------------------------------------- #
# 1D distributions
# ---------------------------------------------------------------------- #
def distribute_sparse_1d_rows(a: CSRMatrix, p: int) -> Dict[int, CSRMatrix]:
    """Block-row distribution: rank i gets rows ``range_of(n, p, i)``."""
    return {
        i: a.row_slice(r0, r1) for i, (r0, r1) in enumerate(block_ranges(a.nrows, p))
    }


def distribute_sparse_1d_cols(a: CSRMatrix, p: int) -> Dict[int, CSRMatrix]:
    """Block-column distribution (used for ``A`` in the 1D backward pass)."""
    return {
        j: a.block(0, a.nrows, c0, c1)
        for j, (c0, c1) in enumerate(block_ranges(a.ncols, p))
    }


def distribute_dense_1d_rows(h: np.ndarray, p: int) -> Dict[int, np.ndarray]:
    """Block-row distribution of a dense matrix (``H``, ``G``)."""
    h = np.asarray(h)
    return {
        i: np.ascontiguousarray(h[r0:r1])
        for i, (r0, r1) in enumerate(block_ranges(h.shape[0], p))
    }


def gather_dense_1d_rows(blocks: Dict[int, np.ndarray], p: int) -> np.ndarray:
    """Reassemble a 1D block-row distributed dense matrix."""
    return np.concatenate([blocks[i] for i in range(p)], axis=0)


# ---------------------------------------------------------------------- #
# 2D distributions
# ---------------------------------------------------------------------- #
def distribute_sparse_2d(a: CSRMatrix, mesh: Mesh2D) -> Dict[int, CSRMatrix]:
    """Block 2D distribution: P(i, j) owns ``A[rows_i, cols_j]``."""
    row_ranges = block_ranges(a.nrows, mesh.rows)
    col_ranges = block_ranges(a.ncols, mesh.cols)
    out: Dict[int, CSRMatrix] = {}
    for i, (r0, r1) in enumerate(row_ranges):
        row_band = a.row_slice(r0, r1)
        for j, (c0, c1) in enumerate(col_ranges):
            out[mesh.rank_of(i, j)] = row_band.block(0, r1 - r0, c0, c1)
    return out


def distribute_dense_2d(h: np.ndarray, mesh: Mesh2D) -> Dict[int, np.ndarray]:
    """Block 2D distribution of a dense ``n x f`` matrix."""
    h = np.asarray(h)
    row_ranges = block_ranges(h.shape[0], mesh.rows)
    col_ranges = block_ranges(h.shape[1], mesh.cols)
    out: Dict[int, np.ndarray] = {}
    for i, (r0, r1) in enumerate(row_ranges):
        for j, (c0, c1) in enumerate(col_ranges):
            out[mesh.rank_of(i, j)] = np.ascontiguousarray(h[r0:r1, c0:c1])
    return out


def gather_dense_2d(blocks: Dict[int, np.ndarray], mesh: Mesh2D) -> np.ndarray:
    """Reassemble a 2D block-distributed dense matrix."""
    rows = []
    for i in range(mesh.rows):
        rows.append(
            np.concatenate(
                [blocks[mesh.rank_of(i, j)] for j in range(mesh.cols)], axis=1
            )
        )
    return np.concatenate(rows, axis=0)


# ---------------------------------------------------------------------- #
# 3D (Block Split 3D) distributions
# ---------------------------------------------------------------------- #
def distribute_sparse_3d(a: CSRMatrix, mesh: Mesh3D) -> Dict[int, CSRMatrix]:
    """Split-3D distribution of a square sparse matrix.

    The inner (column) dimension is split across the ``p3`` layers by
    interleaving: every column block (``p2``-way) is sub-split ``p3``
    ways and layer ``k`` owns the ``k``-th sub-split of each.  Rank
    (i, j, k) owns rows ``range_of(n, p1, i)`` and the ``k``-th sub-split
    of column block ``j``.  For a cubic mesh each block is ``n/p x
    n/p^2`` -- the shape quoted in Section IV-D.
    """
    n_rows, n_cols = a.shape
    row_ranges = block_ranges(n_rows, mesh.p1)
    col_ranges = block_ranges(n_cols, mesh.p2)
    out: Dict[int, CSRMatrix] = {}
    for i, (r0, r1) in enumerate(row_ranges):
        row_band = a.row_slice(r0, r1)
        for j, (c0, c1) in enumerate(col_ranges):
            for k, (s0, s1) in enumerate(block_ranges(c1 - c0, mesh.p3)):
                out[mesh.rank_of(i, j, k)] = row_band.block(
                    0, r1 - r0, c0 + s0, c0 + s1
                )
    return out


def distribute_dense_3d(h: np.ndarray, mesh: Mesh3D) -> Dict[int, np.ndarray]:
    """Split-3D distribution of a dense ``n x f`` matrix.

    Rows are split across the ``p1`` grid rows, then each row block
    ``p3`` ways across the layers; columns across the ``p2`` grid
    columns.  Rank (i, j, k) owns the ``k``-th sub-split of row block
    ``i`` -- the rows its fiber's reduce-scatter leaves it -- in column
    band ``j``: an ``n/(p1*p3) x f/p2`` block, ``n/p^2 x f/p`` on a
    cubic mesh, again the Section IV-D shape.
    """
    h = np.asarray(h)
    row_ranges = block_ranges(h.shape[0], mesh.p1)
    col_ranges = block_ranges(h.shape[1], mesh.p2)
    out: Dict[int, np.ndarray] = {}
    for i, (r0, r1) in enumerate(row_ranges):
        for k, (s0, s1) in enumerate(block_ranges(r1 - r0, mesh.p3)):
            for j, (c0, c1) in enumerate(col_ranges):
                out[mesh.rank_of(i, j, k)] = np.ascontiguousarray(
                    h[r0 + s0 : r0 + s1, c0:c1]
                )
    return out


def gather_dense_3d(blocks: Dict[int, np.ndarray], mesh: Mesh3D) -> np.ndarray:
    """Reassemble a Split-3D distributed dense matrix."""
    return np.concatenate(
        [
            np.concatenate(
                [blocks[mesh.rank_of(i, j, k)] for j in range(mesh.p2)],
                axis=1,
            )
            for i in range(mesh.p1)
            for k in range(mesh.p3)
        ],
        axis=0,
    )
