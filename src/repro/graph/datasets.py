"""Datasets: published Table VI characteristics + synthetic stand-ins.

The paper evaluates on three graphs (Table VI):

=========  ==========  =============  ========  ======
Name       Vertices    Edges          Features  Labels
=========  ==========  =============  ========  ======
Reddit        232,965    114,848,857       602      41
Amazon      9,430,088    231,594,310       300      24
Protein     8,745,542  1,058,120,062       128     256
=========  ==========  =============  ========  ======

We cannot ship these graphs, so each has a **stand-in** generated by R-MAT
at a configurable fraction of the published vertex count with the
published average degree, feature width, and label count preserved.  The
paper itself randomly generates feature values for Amazon and Protein
("This does not affect performance"), and uses the whole graph as the
training set -- the stand-ins do the same for all three.

The *published* sizes remain available through :data:`PUBLISHED` /
:func:`published_spec` because the analytic reproduction layer
(:mod:`repro.analysis`) only needs ``(n, nnz, f, labels)`` and can
therefore run at full scale.

The GNN architecture is the paper's: a 3-layer GCN after Kipf & Welling,
with a 16-wide hidden layer (Section VI-a mentions the middle layer's
dense operand has 16 columns at p = 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.graph.generators import rmat
from repro.graph.normalize import gcn_normalize
from repro.sparse.csr import CSRMatrix

__all__ = [
    "DatasetSpec",
    "split_masks",
    "Dataset",
    "PUBLISHED",
    "HIDDEN_WIDTH",
    "GNN_LAYERS",
    "published_spec",
    "make_standin",
    "make_synthetic",
    "layer_widths",
]

#: Hidden-layer width of the paper's 3-layer GCN.
HIDDEN_WIDTH = 16
#: Number of GCN layers in the paper's architecture.
GNN_LAYERS = 3


@dataclass(frozen=True)
class DatasetSpec:
    """Published characteristics of one evaluation dataset (Table VI)."""

    name: str
    vertices: int
    edges: int
    features: int
    labels: int

    @property
    def avg_degree(self) -> float:
        """nnz/n -- the paper's ``d`` (edges here are directed nnz counts)."""
        return self.edges / self.vertices


PUBLISHED: Dict[str, DatasetSpec] = {
    "reddit": DatasetSpec("reddit", 232_965, 114_848_857, 602, 41),
    "amazon": DatasetSpec("amazon", 9_430_088, 231_594_310, 300, 24),
    "protein": DatasetSpec("protein", 8_745_542, 1_058_120_062, 128, 256),
}


def published_spec(name: str) -> DatasetSpec:
    """Look up the published Table VI row for a dataset."""
    try:
        return PUBLISHED[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; available: {sorted(PUBLISHED)}"
        ) from None


def split_masks(
    n: int,
    train_frac: float = 0.6,
    val_frac: float = 0.2,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random train/val/test boolean masks over ``n`` vertices.

    The paper uses the Hamilton et al. split for Reddit and whole-graph
    training elsewhere; this helper provides the transductive split needed
    for held-out evaluation on the stand-ins.
    """
    if not (0 < train_frac < 1 and 0 <= val_frac < 1):
        raise ValueError("fractions must lie in (0, 1)")
    if train_frac + val_frac >= 1:
        raise ValueError("train + val fractions must leave room for test")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_train = max(1, int(round(train_frac * n)))
    n_val = int(round(val_frac * n))
    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    train[order[:n_train]] = True
    val[order[n_train : n_train + n_val]] = True
    test[order[n_train + n_val :]] = True
    return train, val, test


@dataclass
class Dataset:
    """A concrete (generated) dataset ready for training.

    ``adjacency`` is already GCN-normalised (the paper's modified ``A``);
    ``features`` is the dense ``n x f`` input ``H^0``; ``labels`` are class
    ids; ``train_mask`` marks the supervised vertices (whole graph, per the
    paper's setup for Amazon/Protein).  ``val_mask`` / ``test_mask`` are
    optional held-out splits (see :func:`split_masks`).
    """

    name: str
    adjacency: CSRMatrix
    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    train_mask: np.ndarray
    spec: Optional[DatasetSpec] = None
    val_mask: Optional[np.ndarray] = None
    test_mask: Optional[np.ndarray] = None

    def with_split(
        self, train_frac: float = 0.6, val_frac: float = 0.2, seed: int = 0
    ) -> "Dataset":
        """Return a copy carrying a random transductive split."""
        train, val, test = split_masks(
            self.num_vertices, train_frac, val_frac, seed
        )
        return Dataset(
            name=self.name,
            adjacency=self.adjacency,
            features=self.features,
            labels=self.labels,
            num_classes=self.num_classes,
            train_mask=train,
            spec=self.spec,
            val_mask=val,
            test_mask=test,
        )

    @property
    def num_vertices(self) -> int:
        return self.adjacency.nrows

    @property
    def num_edges(self) -> int:
        return self.adjacency.nnz

    @property
    def feature_width(self) -> int:
        return int(self.features.shape[1])

    def layer_widths(self, hidden: int = HIDDEN_WIDTH,
                     layers: int = GNN_LAYERS) -> Tuple[int, ...]:
        """Feature widths ``(f^0, ..., f^L)`` of the paper's architecture."""
        return layer_widths(self.feature_width, self.num_classes, hidden, layers)

    def summary(self) -> Dict[str, float]:
        return {
            "vertices": self.num_vertices,
            "edges": self.num_edges,
            "features": self.feature_width,
            "labels": self.num_classes,
            "avg_degree": self.num_edges / max(1, self.num_vertices),
        }


def layer_widths(f_in: int, n_classes: int, hidden: int = HIDDEN_WIDTH,
                 layers: int = GNN_LAYERS) -> Tuple[int, ...]:
    """Widths ``(f^0, hidden, ..., hidden, n_classes)`` for an L-layer GCN."""
    if layers < 1:
        raise ValueError(f"need >= 1 layer, got {layers}")
    if layers == 1:
        return (f_in, n_classes)
    return (f_in,) + (hidden,) * (layers - 1) + (n_classes,)


def _features_and_labels(
    n: int, f: int, n_classes: int, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, f)).astype(np.float64)
    labels = rng.integers(0, n_classes, size=n, dtype=np.int64)
    return features, labels


def make_standin(
    name: str,
    scale_divisor: int = 1024,
    seed: int = 0,
    min_vertices: int = 64,
    max_avg_degree_fraction: float = 0.25,
) -> Dataset:
    """Generate the R-MAT stand-in for a published dataset.

    The stand-in has ``~vertices/scale_divisor`` vertices (at least
    ``min_vertices``), the published average degree (capped at
    ``max_avg_degree_fraction * n`` so tiny stand-ins stay sparse), the
    published feature width and label count.  Features are random normal
    and the whole graph is the training set, as in the paper's setup.
    """
    spec = published_spec(name)
    n = max(min_vertices, spec.vertices // scale_divisor)
    scale = max(1, int(np.ceil(np.log2(n))))
    target_degree = min(spec.avg_degree, max_avg_degree_fraction * n)
    # rmat counts each sampled edge once but symmetrises; nnz ~= 2 * m
    # minus collisions, so aim edge_factor at d/2 per vertex of 2**scale.
    edge_factor = target_degree * n / (2 * (1 << scale))
    adj = rmat(scale=scale, edge_factor=edge_factor, seed=seed, n=n)
    norm = gcn_normalize(adj)
    features, labels = _features_and_labels(n, spec.features, spec.labels, seed + 1)
    return Dataset(
        name=f"{spec.name}-standin",
        adjacency=norm,
        features=features,
        labels=labels,
        num_classes=spec.labels,
        train_mask=np.ones(n, dtype=bool),
        spec=spec,
    )


def make_synthetic(
    n: int = 256,
    avg_degree: float = 8.0,
    f: int = 32,
    n_classes: int = 4,
    seed: int = 0,
    generator: str = "rmat",
) -> Dataset:
    """A small fully-synthetic dataset for examples and tests."""
    if generator == "rmat":
        scale = max(1, int(np.ceil(np.log2(n))))
        edge_factor = avg_degree * n / (2 * (1 << scale))
        adj = rmat(scale=scale, edge_factor=edge_factor, seed=seed, n=n)
    elif generator == "erdos_renyi":
        from repro.graph.generators import erdos_renyi

        adj = erdos_renyi(n, avg_degree, seed=seed)
    else:
        raise ValueError(f"unknown generator {generator!r}")
    norm = gcn_normalize(adj)
    features, labels = _features_and_labels(n, f, n_classes, seed + 1)
    return Dataset(
        name=f"synthetic-{generator}-{n}",
        adjacency=norm,
        features=features,
        labels=labels,
        num_classes=n_classes,
        train_mask=np.ones(n, dtype=bool),
        spec=None,
    )
