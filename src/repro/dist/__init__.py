"""The paper's contribution: distributed GCN training algorithms.

Four algorithm families over the virtual runtime (Section IV), all
verified bit-close against the serial reference:

* :class:`DistGCN1D`  -- 1D block rows, with ``symmetric`` / ``outer`` /
  ``outer_sparse`` / ``transpose`` backward variants (Algorithm 1);
* :class:`DistGCN15D` -- 1.5D replicated block rows (replication ``c``);
* :class:`DistGCN2D`  -- 2D SUMMA on a (possibly rectangular) grid
  (Algorithm 2);
* :class:`DistGCN3D`  -- Split-3D-SpMM on a cubic mesh.

:data:`ALGORITHMS` / :func:`make_algorithm` / :func:`make_runtime_for`
form the facade everything downstream (CLI, examples, benchmarks) uses.
"""

from repro.dist.algo_1d import DistGCN1D
from repro.dist.algo_15d import DistGCN15D
from repro.dist.algo_2d import DistGCN2D, summa_stage_ranges
from repro.dist.algo_3d import DistGCN3D
from repro.dist.base import DistAlgorithm, clone_optimizer
from repro.dist.distribution import (
    PARTITION_KINDS,
    Distribution,
    GhostStructure,
    ghost_structure,
)
from repro.dist.history import DistTrainHistory, EpochStats, LedgerDelta
from repro.dist.registry import (
    ALGORITHMS,
    make_algorithm,
    make_distribution,
    make_runtime_for,
)

__all__ = [
    "DistAlgorithm",
    "DistTrainHistory",
    "EpochStats",
    "LedgerDelta",
    "DistGCN1D",
    "DistGCN15D",
    "DistGCN2D",
    "DistGCN3D",
    "summa_stage_ranges",
    "clone_optimizer",
    "Distribution",
    "GhostStructure",
    "ghost_structure",
    "PARTITION_KINDS",
    "ALGORITHMS",
    "make_algorithm",
    "make_distribution",
    "make_runtime_for",
]
