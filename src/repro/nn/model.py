"""The serial GCN reference model and trainer.

This is the single-process ground truth that every distributed algorithm
is verified against -- the role the serial PyTorch implementation plays in
the paper ("We verified that our parallel implementation not only achieves
the same training accuracy in the same number of epochs as the serial
implementations in PyTorch, but it also outputs the same embeddings up to
floating point accumulation errors").

Architecture (matching the paper / Kipf & Welling): ``L`` GCN layers, ReLU
between layers, log_softmax on the output, masked NLL loss, full-batch
gradient descent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.datasets import Dataset
from repro.nn.activations import LogSoftmax, ReLU
from repro.nn.init import init_gcn_weights
from repro.nn.layers import GCNLayer, LayerCache, check_widths
from repro.nn.loss import accuracy, nll_loss
from repro.nn.optim import SGD, Optimizer
from repro.sparse.csr import CSRMatrix

__all__ = ["GCN", "EpochResult", "TrainHistory", "SerialTrainer"]


class GCN:
    """An L-layer graph convolutional network with explicit gradients."""

    def __init__(self, widths: Sequence[int], seed: int = 0):
        self.widths = check_widths(widths)
        weights = init_gcn_weights(self.widths, seed)
        relu, logsm = ReLU(), LogSoftmax()
        self.layers: List[GCNLayer] = [
            GCNLayer(w, logsm if i == len(weights) - 1 else relu,
                     input_layer=i == 0)
            for i, w in enumerate(weights)
        ]

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def weights(self) -> List[np.ndarray]:
        return [layer.weight for layer in self.layers]

    def set_weights(self, weights: Sequence[np.ndarray]) -> None:
        """Install externally-supplied weights (e.g. to sync replicas)."""
        if len(weights) != len(self.layers):
            raise ValueError(
                f"got {len(weights)} weight matrices for {len(self.layers)} layers"
            )
        for layer, w in zip(self.layers, weights):
            if w.shape != layer.weight.shape:
                raise ValueError(
                    f"weight shape {w.shape} != expected {layer.weight.shape}"
                )
            layer.weight = np.asarray(w, dtype=np.float64)

    def forward(
        self, a_t: CSRMatrix, h0: np.ndarray
    ) -> Tuple[np.ndarray, List[LayerCache]]:
        """Full forward pass; returns output log-probs and per-layer caches."""
        h = np.asarray(h0, dtype=np.float64)
        caches: List[LayerCache] = []
        for layer in self.layers:
            h, cache = layer.forward(a_t, h)
            caches.append(cache)
        return h, caches

    def backward(
        self,
        a: CSRMatrix,
        caches: List[LayerCache],
        grad_out: np.ndarray,
    ) -> List[np.ndarray]:
        """Full backward pass; returns ``[dL/dW^1, ..., dL/dW^L]``."""
        if len(caches) != len(self.layers):
            raise ValueError("cache count does not match layer count")
        grads: List[Optional[np.ndarray]] = [None] * len(self.layers)
        grad_h = grad_out
        for l in range(len(self.layers) - 1, -1, -1):
            # The first layer's input is the data: no gradient to form.
            grad_h, grad_w, _ = self.layers[l].backward(
                a, caches[l], grad_h, need_input_grad=l > 0)
            grads[l] = grad_w
        return grads  # type: ignore[return-value]

    def predict(self, a_t: CSRMatrix, h0: np.ndarray) -> np.ndarray:
        """Output log-probabilities without keeping caches."""
        out, _ = self.forward(a_t, h0)
        return out


@dataclass
class EpochResult:
    """Loss/accuracy of one training epoch."""

    epoch: int
    loss: float
    train_accuracy: float


@dataclass
class TrainHistory:
    """Per-epoch records of one training run."""

    epochs: List[EpochResult] = field(default_factory=list)

    @property
    def losses(self) -> List[float]:
        return [e.loss for e in self.epochs]

    @property
    def final_loss(self) -> float:
        if not self.epochs:
            raise ValueError("no epochs recorded")
        return self.epochs[-1].loss


class SerialTrainer:
    """Full-batch gradient-descent training loop for the serial GCN.

    For undirected (symmetric-normalised) graphs ``A == A^T`` and a single
    adjacency suffices; a distinct ``a`` may be passed for directed inputs,
    mirroring the paper's explicit treatment of ``A`` vs ``A^T``.
    """

    def __init__(
        self,
        model: GCN,
        a_t: CSRMatrix,
        a: Optional[CSRMatrix] = None,
        optimizer: Optional[Optimizer] = None,
    ):
        self.model = model
        self.a_t = a_t
        self.a = a if a is not None else a_t
        self.optimizer = optimizer if optimizer is not None else SGD(lr=1e-2)

    def train_epoch(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        mask: Optional[np.ndarray] = None,
        epoch: int = 0,
    ) -> EpochResult:
        log_probs, caches = self.model.forward(self.a_t, features)
        loss, grad_out = nll_loss(log_probs, labels, mask)
        acc = accuracy(log_probs, labels, mask)
        grads = self.model.backward(self.a, caches, grad_out)
        self.optimizer.step(self.model.weights, grads)
        return EpochResult(epoch=epoch, loss=loss, train_accuracy=acc)

    def train(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        epochs: int,
        mask: Optional[np.ndarray] = None,
    ) -> TrainHistory:
        history = TrainHistory()
        for epoch in range(epochs):
            history.epochs.append(
                self.train_epoch(features, labels, mask, epoch)
            )
        return history

    @classmethod
    def for_dataset(
        cls,
        dataset: Dataset,
        hidden: int = 16,
        layers: int = 3,
        seed: int = 0,
        optimizer: Optional[Optimizer] = None,
    ) -> "SerialTrainer":
        """Build the paper's 3-layer architecture for a dataset."""
        widths = dataset.layer_widths(hidden=hidden, layers=layers)
        model = GCN(widths, seed=seed)
        return cls(model, dataset.adjacency, optimizer=optimizer)
