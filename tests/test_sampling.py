"""k-hop receptive fields and the neighbourhood explosion (Section I)."""

import numpy as np
import pytest

from repro.graph import make_standin, make_synthetic
from repro.graph.generators import ring_graph, star_graph
from repro.graph.normalize import gcn_normalize
from repro.sampling import (
    khop_frontiers,
    neighborhood_explosion_stats,
    receptive_field,
)


@pytest.fixture(scope="module")
def ds():
    return make_synthetic(n=180, avg_degree=6, f=10, n_classes=3, seed=41)


class TestKhop:
    def test_ring_frontier_growth(self):
        """On a ring, the k-hop ball of one vertex has 2k+1 vertices."""
        a = gcn_normalize(ring_graph(30))
        fronts = khop_frontiers(a, [0], 4)
        # Self loops mean hop k includes the seed; ball sizes 1,3,5,7,9.
        assert [f.size for f in fronts] == [1, 3, 5, 7, 9]

    def test_star_explodes_in_two_hops(self):
        """One leaf of a star reaches the whole graph in 2 hops -- the
        extreme neighbourhood explosion."""
        a = gcn_normalize(star_graph(50))
        fronts = khop_frontiers(a, [1], 2)
        assert fronts[1].size == 2          # leaf + hub
        assert fronts[2].size == 50         # everything

    def test_frontiers_are_nested(self, ds):
        fronts = khop_frontiers(ds.adjacency, [0, 5, 9], 3)
        for smaller, larger in zip(fronts, fronts[1:]):
            assert np.all(np.isin(smaller, larger))

    def test_receptive_field_is_last_frontier(self, ds):
        fronts = khop_frontiers(ds.adjacency, [3], 2)
        np.testing.assert_array_equal(
            receptive_field(ds.adjacency, [3], 2), fronts[-1]
        )

    def test_invalid_args(self, ds):
        with pytest.raises(ValueError):
            khop_frontiers(ds.adjacency, [0], -1)
        with pytest.raises(ValueError):
            khop_frontiers(ds.adjacency, [10**6], 1)

    def test_explosion_stats(self, ds):
        """The paper's Section I claim: a few layers touch most of the
        graph even for a small batch."""
        stats = neighborhood_explosion_stats(
            ds.adjacency, batch_size=8, hops=3, trials=4, seed=0
        )
        sizes = stats.mean_frontier_sizes
        assert sizes[0] == 8.0
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))
        assert stats.final_fraction > 0.3   # explosion happened
        assert stats.blowup > 5

    def test_three_hops_reach_most_of_the_reddit_standin(self):
        """Section I: 'after only a few layers, the chosen mini-batch ends
        up being dependent on the whole graph'."""
        adj = make_standin("reddit", scale_divisor=256, seed=0).adjacency
        fraction = {
            batch: neighborhood_explosion_stats(
                adj, batch_size=batch, hops=3, trials=3, seed=1
            ).final_fraction
            for batch in (8, 128)
        }
        assert fraction[8] > 0.5
        assert fraction[128] > 0.9

    def test_explosion_invalid_batch(self, ds):
        with pytest.raises(ValueError):
            neighborhood_explosion_stats(ds.adjacency, batch_size=0, hops=2)
        with pytest.raises(ValueError, match="trials"):
            neighborhood_explosion_stats(ds.adjacency, batch_size=4, hops=2,
                                         trials=0)
