"""Sparse-matrix substrate: CSR storage, SpMM kernels, distributions.

Stand-in for cuSPARSE + the paper's block data distributions.
"""

from repro.sparse.csr import CSRMatrix, coo_to_csr_arrays
from repro.sparse.distribute import (
    block_ranges,
    distribute_dense_1d_rows,
    distribute_dense_2d,
    distribute_dense_3d,
    distribute_sparse_1d_cols,
    distribute_sparse_1d_rows,
    distribute_sparse_2d,
    distribute_sparse_3d,
    gather_dense_1d_rows,
    gather_dense_2d,
    gather_dense_3d,
    range_of,
)
from repro.sparse.hypersparse import (
    BlockSparsityStats,
    aggregate_block_stats,
    block_sparsity_stats,
    expected_nonempty_rows,
    expected_nonempty_rows_asymptotic,
    sparse_vs_dense_intermediate_words,
)
from repro.sparse.semiring import (
    MAX_PLUS,
    MAX_TIMES,
    MIN_PLUS,
    OR_AND,
    PLUS_TIMES,
    Semiring,
    spmm_semiring,
)
from repro.sparse.perfmodel import SpmmPerfModel, density_factor, width_factor
from repro.sparse.spmm import spmm, spmm_flops

__all__ = [
    "CSRMatrix",
    "coo_to_csr_arrays",
    "spmm",
    "spmm_flops",
    "Semiring",
    "spmm_semiring",
    "PLUS_TIMES",
    "MAX_PLUS",
    "MIN_PLUS",
    "MAX_TIMES",
    "OR_AND",
    "SpmmPerfModel",
    "density_factor",
    "width_factor",
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
    "BlockSparsityStats",
    "block_sparsity_stats",
    "aggregate_block_stats",
    "expected_nonempty_rows",
    "expected_nonempty_rows_asymptotic",
    "sparse_vs_dense_intermediate_words",
]
