"""GCN adjacency normalisation: ``D^{-1/2} (A + I) D^{-1/2}``.

Section III-B: "The addition of self-connections ensures that each node
does not forget its embedding [...].  The rows and columns of A are also
often normalized, so for an undirected graph one actually uses
D^{-1/2}(A + I)D^{-1/2} due to its favorable spectral properties."  The
paper then calls the result ``A`` throughout; so do we.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import CSRMatrix

__all__ = ["add_self_loops", "gcn_normalize", "row_normalize"]


def add_self_loops(a: CSRMatrix, value: float = 1.0) -> CSRMatrix:
    """Return ``A + value * I``; existing diagonal entries are summed into."""
    if a.nrows != a.ncols:
        raise ValueError(f"adjacency must be square, got {a.shape}")
    rows, cols, vals = a.to_coo()
    n = a.nrows
    diag = np.arange(n, dtype=np.int64)
    return CSRMatrix.from_coo(
        np.concatenate([rows, diag]),
        np.concatenate([cols, diag]),
        np.concatenate([vals, np.full(n, value)]),
        a.shape,
    )


def _row_sums(a: CSRMatrix) -> np.ndarray:
    """Per-row sums of the stored values, each row added up in stored
    (column) order."""
    return np.bincount(a.row_ids(), weights=a.data, minlength=a.nrows)


def gcn_normalize(a: CSRMatrix, add_loops: bool = True) -> CSRMatrix:
    """The paper's modified adjacency: ``D^{-1/2} (A + I) D^{-1/2}``.

    ``D`` is the diagonal of modified vertex degrees (row sums of
    ``A + I``).  Isolated vertices (degree zero even with the self loop
    disabled) get a zero scale rather than a division error.
    """
    if add_loops:
        a = add_self_loops(a)
    row_sums = _row_sums(a)
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(row_sums > 0, 1.0 / np.sqrt(row_sums), 0.0)
    return a.scale_rows(inv_sqrt).scale_cols(inv_sqrt)


def row_normalize(a: CSRMatrix) -> CSRMatrix:
    """Random-walk normalisation ``D^{-1} A`` (alternative to symmetric)."""
    row_sums = _row_sums(a)
    with np.errstate(divide="ignore"):
        inv = np.where(row_sums > 0, 1.0 / row_sums, 0.0)
    return a.scale_rows(inv)
