"""k-hop neighbourhoods and the neighbourhood-explosion analysis.

Section I motivates full-batch distributed training with the
*neighbourhood explosion*: "After only a few layers, the chosen mini-batch
ends up being dependent on the whole graph.  This phenomenon ... completely
nullifies the memory reduction goals" of mini-batching.

This module quantifies that claim: :func:`khop_frontiers` expands a seed
set hop by hop (vectorised through the CSR structure), and
:func:`neighborhood_explosion_stats` measures what fraction of the graph
an L-layer GCN's receptive field touches for a given batch size -- the
number that motivates either sampling (with its approximation error) or
the paper's communication-avoiding full-batch training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.sparse.csr import CSRMatrix

__all__ = [
    "khop_frontiers",
    "receptive_field",
    "ExplosionStats",
    "neighborhood_explosion_stats",
]


def _expand_once(adj: CSRMatrix, frontier: np.ndarray) -> np.ndarray:
    """All vertices adjacent to ``frontier`` (unique, sorted)."""
    if frontier.size == 0:
        return frontier
    starts = adj.indptr[frontier]
    ends = adj.indptr[frontier + 1]
    counts = ends - starts
    if counts.sum() == 0:
        return np.empty(0, dtype=np.int64)
    # Gather all neighbour lists with one fancy-index: build the flat
    # positions [starts[i], ends[i]) for every frontier vertex.
    offsets = np.repeat(starts - np.concatenate(([0], np.cumsum(counts)[:-1])),
                        counts)
    positions = np.arange(int(counts.sum()), dtype=np.int64) + offsets
    return np.unique(adj.indices[positions])


def khop_frontiers(
    adj: CSRMatrix, seeds: Sequence[int], hops: int
) -> List[np.ndarray]:
    """Receptive-field sets per hop: ``[seeds, N(seeds), N^2(seeds), ...]``.

    Entry ``k`` holds every vertex within ``k`` hops of the seed set --
    the rows of ``H^{L-k}`` an L-layer GCN needs to produce the seeds'
    outputs.  Always includes the previous frontier (self loops are part
    of the GCN's modified adjacency).
    """
    if hops < 0:
        raise ValueError(f"hops must be >= 0, got {hops}")
    frontier = np.unique(np.asarray(seeds, dtype=np.int64))
    if frontier.size and (frontier.min() < 0 or frontier.max() >= adj.nrows):
        raise ValueError("seed vertex out of range")
    out = [frontier]
    for _ in range(hops):
        nxt = _expand_once(adj, out[-1])
        out.append(np.union1d(out[-1], nxt))
    return out


def receptive_field(adj: CSRMatrix, seeds: Sequence[int], hops: int) -> np.ndarray:
    """The full ``hops``-hop receptive field of ``seeds`` (sorted ids)."""
    return khop_frontiers(adj, seeds, hops)[-1]


@dataclass(frozen=True)
class ExplosionStats:
    """Average receptive-field growth of random mini-batches."""

    batch_size: int
    hops: int
    n: int
    #: mean number of vertices within k hops, k = 0..hops
    mean_frontier_sizes: Tuple[float, ...]

    @property
    def final_fraction(self) -> float:
        """Fraction of the graph the L-hop receptive field touches."""
        return self.mean_frontier_sizes[-1] / self.n

    @property
    def blowup(self) -> float:
        """Receptive field size over batch size."""
        return self.mean_frontier_sizes[-1] / max(1, self.batch_size)


def neighborhood_explosion_stats(
    adj: CSRMatrix,
    batch_size: int,
    hops: int,
    trials: int = 5,
    seed: int = 0,
) -> ExplosionStats:
    """Measure the neighbourhood explosion for random batches.

    Draws ``trials`` random batches of ``batch_size`` vertices and
    averages the per-hop receptive-field sizes.
    """
    n = adj.nrows
    if not 1 <= batch_size <= n:
        raise ValueError(f"batch size {batch_size} outside [1, {n}]")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    sums = np.zeros(hops + 1, dtype=np.float64)
    for _ in range(trials):
        seeds = rng.choice(n, size=batch_size, replace=False)
        frontiers = khop_frontiers(adj, seeds, hops)
        sums += [f.size for f in frontiers]
    means = tuple(float(s / trials) for s in sums)
    return ExplosionStats(
        batch_size=batch_size, hops=hops, n=n, mean_frontier_sizes=means
    )
