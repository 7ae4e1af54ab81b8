"""Shared fixtures: small deterministic datasets and runtimes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.comm import VirtualRuntime
from repro.config import SUMMIT, ZERO_COST
from repro.graph import make_synthetic


# Property tests: tier-1 draws a few derandomised examples (the same ones
# every run); `pytest --hypothesis-profile long` draws many random ones.
settings.register_profile("tier1", max_examples=4, derandomize=True,
                          deadline=None)
settings.register_profile("long", max_examples=200, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def tiny_dataset():
    """~60 vertices, enough structure to train a GCN, fast to run."""
    return make_synthetic(n=60, avg_degree=4, f=8, n_classes=3, seed=11)


@pytest.fixture(scope="session")
def small_dataset():
    """~150 vertices; used for the distributed-vs-serial verification."""
    return make_synthetic(n=150, avg_degree=6, f=12, n_classes=4, seed=5)


@pytest.fixture(scope="session")
def uniform_dataset():
    """Erdos-Renyi dataset (uniform nnz) for cost-model validation."""
    return make_synthetic(
        n=300, avg_degree=8, f=24, n_classes=6, seed=2, generator="erdos_renyi"
    )


@pytest.fixture
def rt4():
    return VirtualRuntime.make_1d(4)


@pytest.fixture
def rt2d4():
    return VirtualRuntime.make_2d(4)


@pytest.fixture
def zero_cost_rt4():
    return VirtualRuntime.make_1d(4, ZERO_COST)
