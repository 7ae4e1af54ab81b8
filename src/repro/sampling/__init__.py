"""k-hop receptive fields and the neighbourhood-explosion analysis.

Section I motivates full-batch distributed training with the
neighbourhood explosion: a few layers make a mini-batch depend on most
of the graph.  ``repro explosion`` prints the measurement.
"""

from repro.sampling.khop import (
    ExplosionStats,
    khop_frontiers,
    neighborhood_explosion_stats,
    receptive_field,
)

__all__ = [
    "khop_frontiers",
    "receptive_field",
    "ExplosionStats",
    "neighborhood_explosion_stats",
]
