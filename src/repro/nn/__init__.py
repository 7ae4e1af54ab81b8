"""Neural-network substrate: the serial GCN reference.

GCN layers with the paper's explicit forward / backward equations, the
loss, the optimisers and checkpoint serialisation -- the ground truth
every distributed algorithm is verified against.
"""

from repro.nn.activations import (
    Activation,
    Identity,
    LogSoftmax,
    ReLU,
    get_activation,
)
from repro.nn.init import init_gcn_weights, xavier_uniform
from repro.nn.layers import GCNLayer, LayerCache
from repro.nn.loss import accuracy, nll_loss, one_hot
from repro.nn.model import GCN, EpochResult, SerialTrainer, TrainHistory
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.serialize import load_csr, load_weights, save_csr, save_weights

__all__ = [
    "Activation",
    "ReLU",
    "Identity",
    "LogSoftmax",
    "get_activation",
    "xavier_uniform",
    "init_gcn_weights",
    "GCNLayer",
    "LayerCache",
    "nll_loss",
    "accuracy",
    "one_hot",
    "GCN",
    "EpochResult",
    "TrainHistory",
    "SerialTrainer",
    "Optimizer",
    "SGD",
    "Adam",
    "save_weights",
    "load_weights",
    "save_csr",
    "load_csr",
]
