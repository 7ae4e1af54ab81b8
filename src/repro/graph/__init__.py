"""Graph substrate: generators, normalisation, permutation, datasets."""

from repro.graph.datasets import (
    GNN_LAYERS,
    split_masks,
    HIDDEN_WIDTH,
    PUBLISHED,
    Dataset,
    DatasetSpec,
    layer_widths,
    make_standin,
    make_synthetic,
    published_spec,
)
from repro.graph.generators import (
    edges_to_adjacency,
    erdos_renyi,
    grid_graph,
    ring_graph,
    rmat,
    star_graph,
    stochastic_block_model,
)
from repro.graph.normalize import add_self_loops, gcn_normalize, row_normalize
from repro.graph.permutation import (
    apply_random_permutation,
    block_nnz_imbalance,
    identity_permutation,
    invert_permutation,
    random_permutation,
)

__all__ = [
    "Dataset",
    "DatasetSpec",
    "PUBLISHED",
    "GNN_LAYERS",
    "HIDDEN_WIDTH",
    "published_spec",
    "make_standin",
    "make_synthetic",
    "layer_widths",
    "split_masks",
    "erdos_renyi",
    "rmat",
    "stochastic_block_model",
    "ring_graph",
    "star_graph",
    "grid_graph",
    "edges_to_adjacency",
    "add_self_loops",
    "gcn_normalize",
    "row_normalize",
    "random_permutation",
    "identity_permutation",
    "invert_permutation",
    "apply_random_permutation",
    "block_nnz_imbalance",
]
