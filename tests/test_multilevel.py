"""Multilevel (Metis-like) partitioner: balance and cut quality."""

import hashlib

import numpy as np
import pytest

from repro.graph.generators import (
    edges_to_adjacency,
    erdos_renyi,
    grid_graph,
    rmat,
    stochastic_block_model,
)
from repro.partition.edgecut import edge_cut_stats
from repro.partition.multilevel import MultilevelPartitioner, multilevel_partition
from repro.partition.random_part import partition_sizes, random_partition


class TestBasics:
    def test_every_vertex_assigned(self):
        a = erdos_renyi(200, 6.0, seed=0)
        assignment = multilevel_partition(a, 4, seed=0)
        assert assignment.shape == (200,)
        assert set(np.unique(assignment)) <= set(range(4))

    def test_balance_within_tolerance(self):
        a = erdos_renyi(400, 8.0, seed=1)
        part = MultilevelPartitioner(nparts=8, seed=1, imbalance_tol=0.05)
        result = part.partition(a)
        sizes = partition_sizes(result.assignment, 8)
        assert sizes.max() <= (400 / 8) * 1.15  # tolerance + rounding slack

    def test_deterministic(self):
        a = erdos_renyi(200, 5.0, seed=2)
        a1 = multilevel_partition(a, 4, seed=7)
        a2 = multilevel_partition(a, 4, seed=7)
        np.testing.assert_array_equal(a1, a2)

    def test_single_part(self):
        a = erdos_renyi(50, 4.0, seed=3)
        assignment = multilevel_partition(a, 1)
        assert np.all(assignment == 0)

    def test_tiny_graph_more_parts_than_vertices(self):
        a = erdos_renyi(3, 1.0, seed=4)
        assignment = multilevel_partition(a, 8)
        assert assignment.shape == (3,)

    def test_trailing_empty_convention_matches_block(self):
        """Satellite: nparts > n follows the shared trailing-empty
        convention -- identical to block_partition, with the empty parts
        explicit in partition_sizes."""
        from repro.partition.random_part import block_partition

        a = erdos_renyi(5, 1.5, seed=4)
        assignment = multilevel_partition(a, 9)
        np.testing.assert_array_equal(assignment, block_partition(5, 9))
        sizes = partition_sizes(assignment, 9)
        np.testing.assert_array_equal(sizes, [1, 1, 1, 1, 1, 0, 0, 0, 0])

    def test_nonsquare_rejected(self):
        from repro.sparse.csr import CSRMatrix

        with pytest.raises(ValueError, match="square"):
            MultilevelPartitioner(nparts=2).partition(CSRMatrix.zeros((2, 3)))

    def test_invalid_nparts(self):
        a = erdos_renyi(20, 3.0, seed=5)
        with pytest.raises(ValueError):
            MultilevelPartitioner(nparts=0).partition(a)


class TestQuality:
    def test_beats_random_on_sbm(self):
        """On a community graph the multilevel cut must crush random --
        this is the structured case where partitioning shines."""
        a = stochastic_block_model((80, 80, 80, 80), p_in=0.15, p_out=0.005, seed=0)
        n = a.nrows
        ml = edge_cut_stats(a, multilevel_partition(a, 4, seed=0), 4)
        rnd = edge_cut_stats(a, random_partition(n, 4, seed=0), 4)
        assert ml.total_cut_edges < 0.5 * rnd.total_cut_edges

    def test_beats_random_on_grid(self):
        a = grid_graph(20, 20)
        ml = edge_cut_stats(a, multilevel_partition(a, 4, seed=1), 4)
        rnd = edge_cut_stats(a, random_partition(400, 4, seed=1), 4)
        assert ml.total_cut_edges < 0.5 * rnd.total_cut_edges

    def test_total_vs_max_gap_on_scale_free(self):
        """Section IV-A.8's observation: on a scale-free graph the TOTAL
        cut improves far more than the MAX per-process cut (the quantity
        that actually bounds bulk-synchronous runtime)."""
        a = rmat(scale=10, edge_factor=10, seed=0)
        n = a.nrows
        p = 8
        ml = edge_cut_stats(a, multilevel_partition(a, p, seed=0), p)
        rnd = edge_cut_stats(a, random_partition(n, p, seed=0), p)
        total_reduction = 1 - ml.total_cut_edges / rnd.total_cut_edges
        max_reduction = 1 - ml.max_part_cut_edges / rnd.max_part_cut_edges
        # Partitioning helps totals...
        assert total_reduction > 0
        # ...but helps the bulk-synchronous bottleneck strictly less.
        assert max_reduction < total_reduction

    def test_max_cut_gain_lags_total_on_community_hub_graph(self):
        """Section IV-A.8's Metis experiment (Reddit, 64 parts: total cut
        -72 %, max per-process cut only -29 %), on a Reddit-like mix of
        64 SBM communities and an R-MAT hub overlay: partitioning finds
        the communities, yet the max-cut reduction trails the total-cut
        reduction by more than 0.2."""
        n, p = 4096, 64
        sbm = stochastic_block_model((n // p,) * p, p_in=0.4, p_out=0.0005,
                                     seed=0)
        overlay = rmat(scale=12, edge_factor=2, seed=1, n=n)
        r1, c1, _ = sbm.to_coo()
        r2, c2, _ = overlay.to_coo()
        a = edges_to_adjacency(np.concatenate([r1, r2]),
                               np.concatenate([c1, c2]), n,
                               symmetrize=False, drop_self_loops=False)
        ml = edge_cut_stats(a, MultilevelPartitioner(
            nparts=p, seed=0, refine_passes=8, coarsen_until=2 * p,
        ).partition(a).assignment, p)
        rnd = edge_cut_stats(a, random_partition(n, p, seed=1), p)
        total_reduction = 1 - ml.total_cut_edges / rnd.total_cut_edges
        max_reduction = 1 - ml.max_part_cut_edges / rnd.max_part_cut_edges
        assert total_reduction > 0.5
        assert max_reduction < total_reduction - 0.2

    def test_coarsening_reduces_levels(self):
        a = erdos_renyi(2000, 8.0, seed=6)
        result = MultilevelPartitioner(nparts=4, seed=0).partition(a)
        assert result.levels > 1
        assert result.coarsest_size < 2000

    def test_refinement_moves_happen(self):
        a = stochastic_block_model((60, 60), p_in=0.2, p_out=0.02, seed=2)
        result = MultilevelPartitioner(nparts=2, seed=0).partition(a)
        assert result.refinement_moves > 0


def _path_graph(n):
    idx = np.arange(n - 1, dtype=np.int64)
    return edges_to_adjacency(idx, idx + 1, n)


_PINNED_GRAPHS = {
    "sbm": lambda: stochastic_block_model(
        (512,) * 4, p_in=0.03, p_out=0.002, seed=3),
    "rmat": lambda: rmat(10, seed=5),
    "path": lambda: _path_graph(700),
}

#: sha256(assignment)[:16] recorded at the commit before the partitioner
#: lost its lexsort / np.add.at kernels (PR 13, 041628c): the assignment
#: is a function of (graph, nparts, seed) that speed-ups may not move --
#: the ghost-row ledger of every partitioned run hangs off it.
_PINNED_ASSIGNMENTS = {
    ("sbm", 2, 0): "68b2c4d8c43d6545",
    ("sbm", 2, 1): "b08146288e483f19",
    ("sbm", 2, 2): "ad4438373c277bbc",
    ("sbm", 4, 0): "d9bc6c6c6be88f68",
    ("sbm", 4, 1): "d991148a68906fd1",
    ("sbm", 4, 2): "baf1764b04e23a26",
    ("sbm", 7, 0): "fe0076c3e0c2be10",
    ("sbm", 7, 1): "d42860b7aacba222",
    ("sbm", 7, 2): "9022429f11eaeb72",
    ("rmat", 2, 0): "b9a9a2c0971ad816",
    ("rmat", 2, 1): "fa68155dcaa3af4b",
    ("rmat", 2, 2): "e22b23943960becc",
    ("rmat", 4, 0): "67ff6383142f0e4c",
    ("rmat", 4, 1): "a24926f082a8df19",
    ("rmat", 4, 2): "4bf03ce62ae63426",
    ("rmat", 7, 0): "02aabd2ea7c571c1",
    ("rmat", 7, 1): "1c70cd192712297d",
    ("rmat", 7, 2): "c7c8af5726a447a6",
    ("path", 2, 0): "c7f21dd2e4444c4d",
    ("path", 2, 1): "726cbaed1123609b",
    ("path", 2, 2): "27991cd54996d3f5",
    ("path", 4, 0): "cd3b3b08f2f3db0b",
    ("path", 4, 1): "151af171c6f8fe2e",
    ("path", 4, 2): "9d848ca845d8106b",
    ("path", 7, 0): "8bdd001e5405c93b",
    ("path", 7, 1): "0a860111721b7ff4",
    ("path", 7, 2): "e8818c4069316e57",
}


def _digest(assignment):
    assert assignment.dtype == np.int64
    return hashlib.sha256(assignment.tobytes()).hexdigest()[:16]


class TestPinnedAssignments:
    @pytest.mark.parametrize("graph", sorted(_PINNED_GRAPHS))
    def test_assignment_digests(self, graph):
        a = _PINNED_GRAPHS[graph]()
        got = {
            (graph, nparts, seed):
                _digest(multilevel_partition(a, nparts, seed=seed))
            for nparts in (2, 4, 7) for seed in (0, 1, 2)
        }
        want = {k: v for k, v in _PINNED_ASSIGNMENTS.items()
                if k[0] == graph}
        assert got == want

    def test_more_parts_than_vertices(self):
        assert _digest(multilevel_partition(_path_graph(5), 9, seed=0)) \
            == "281b02b10f5f4997"
