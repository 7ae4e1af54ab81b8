"""Baseline vertex partitioners: contiguous blocks and random assignment.

The 1D algorithm's default distribution is "each process receives n/p
consecutive rows" (Section IV-A) -- :func:`block_partition`.  The paper's
edge-cut bound ``edgecut_P(A) <= n(P-1)/P`` "can be achieved by a random
partitioning" -- :func:`random_partition` (uniform part sizes kept exactly
balanced).  These are the baselines the multilevel partitioner is compared
against in the Section IV-A.8 reproduction.

**Empty-part convention** (shared by every partitioner in
:mod:`repro.partition`): ``nparts`` may exceed the vertex count, in which
case the first ``n`` parts receive exactly one vertex and parts
``n..nparts-1`` are empty -- part size multisets always match
:func:`repro.sparse.distribute.block_ranges`, and downstream consumers
(:func:`~repro.partition.edgecut.edge_cut_stats`,
:func:`partition_sizes`, :class:`repro.dist.distribution.Distribution`)
report zero-sized entries for empty parts rather than dropping them.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.distribute import block_ranges

__all__ = ["block_partition", "random_partition", "partition_sizes"]


def block_partition(n: int, nparts: int) -> np.ndarray:
    """Contiguous near-equal blocks: vertex v -> its block index.

    With ``nparts > n`` this is the canonical trailing-empty assignment
    (vertex ``v`` -> part ``v``; parts ``n..nparts-1`` empty).  Raises
    ``ValueError`` for ``nparts < 1``.
    """
    assignment = np.empty(n, dtype=np.int64)
    for part, (lo, hi) in enumerate(block_ranges(n, nparts)):
        assignment[lo:hi] = part
    return assignment


def random_partition(n: int, nparts: int, seed: int = 0) -> np.ndarray:
    """Balanced random partition: a random permutation of the block one.

    Part sizes differ by at most one vertex, matching the load-balance
    guarantee the random vertex permutation gives the 1D algorithm.
    With ``nparts > n`` each vertex draws a distinct part from
    ``0..n-1``, so -- per the module's empty-part convention -- the empty
    parts are exactly the trailing ``nparts - n`` (historically the
    empties landed at shuffled positions, disagreeing with the other
    partitioners).
    """
    if nparts < 1:
        raise ValueError(f"need >= 1 part, got {nparts}")
    rng = np.random.default_rng(seed)
    if nparts >= n:
        return rng.permutation(n).astype(np.int64)
    assignment = block_partition(n, nparts)
    rng.shuffle(assignment)
    return assignment


def partition_sizes(assignment: np.ndarray, nparts: int) -> np.ndarray:
    """Vertices per part (for balance assertions).

    Length ``nparts``, with explicit zeros for empty parts.  Raises
    ``ValueError`` for ``nparts < 1`` or part ids outside
    ``[0, nparts)``.
    """
    if nparts < 1:
        raise ValueError(f"nparts must be >= 1, got {nparts}")
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.size and (
        assignment.min() < 0 or assignment.max() >= nparts
    ):
        raise ValueError(f"part ids outside [0, {nparts})")
    return np.bincount(assignment, minlength=nparts)
