"""The five workloads of the layered benchmark.

Each workload fixes a graph, a model and one or more algorithm
configurations; ``--seed`` feeds the graph generator, the features and
labels, the weight initialisation and the partitioner.  Why each
workload exists is recorded in ``BENCHMARK.json`` and, at length, in
``README.md``.

All workloads train the paper's 3-layer GCN, closed loop, from one driver
process.  Process workloads run ``min(2, nproc)`` workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

__all__ = ["Config", "Graph", "Workload", "WORKLOADS"]


@dataclass(frozen=True)
class Graph:
    """Generator parameters.  ``rmat``: ``avg_degree`` is the target
    mean degree.  ``sbm``: ``blocks`` equal communities with
    ``p_in = avg_degree / block_size`` and ``p_out = 2 / n``, vertex ids
    shuffled so the contiguous block partition sees no structure."""

    kind: str
    n: int
    avg_degree: float
    f: int
    classes: int
    blocks: int = 4


@dataclass(frozen=True)
class Config:
    """One algorithm configuration: a family, a rank count and the extra
    ``make_algorithm`` keywords (``variant``, ``replication``,
    ``partition``)."""

    family: str
    p: int
    options: Dict[str, object] = field(default_factory=dict)

    @property
    def label(self) -> str:
        """Metric-name suffix: ``1d``, ``15d``, ``2d``, ``3d``."""
        return self.family.replace(".", "")


@dataclass(frozen=True)
class Workload:
    name: str
    graph: Graph
    hidden: int
    k: int                      # epochs per timed fit
    configs: Tuple[Config, ...]
    backend: str = "virtual"
    transport: Optional[str] = None
    smoke_graph: Optional[Graph] = None

    def smoke(self) -> "Workload":
        """The same configuration on a tiny graph, one epoch per fit."""
        return replace(self, graph=self.smoke_graph, hidden=8, k=1)


_DENSE = Graph("rmat", n=8192, avg_degree=32, f=128, classes=16)
_DENSE_SMOKE = Graph("rmat", n=256, avg_degree=8, f=16, classes=4)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="v1d_dense",
        graph=_DENSE, smoke_graph=_DENSE_SMOKE, hidden=64, k=2,
        configs=(Config("1d", 4),),
    ),
    Workload(
        name="p1d_shm",
        graph=_DENSE, smoke_graph=_DENSE_SMOKE, hidden=64, k=4,
        configs=(Config("1d", 4),),
        backend="process", transport="shm",
    ),
    Workload(
        name="p2d_tcp",
        graph=Graph("rmat", n=4096, avg_degree=8, f=32, classes=8),
        smoke_graph=_DENSE_SMOKE, hidden=16, k=20,
        configs=(Config("2d", 4),),
        backend="process", transport="tcp",
    ),
    Workload(
        name="v_families",
        graph=Graph("rmat", n=2048, avg_degree=16, f=64, classes=8),
        smoke_graph=Graph("rmat", n=216, avg_degree=8, f=16, classes=4),
        hidden=32, k=5,
        configs=(
            Config("1d", 16),
            Config("1.5d", 16, {"replication": 4}),
            Config("2d", 16),
            Config("3d", 27),
        ),
    ),
    Workload(
        name="p1d_ghost",
        # 4 communities for P=4: on 8 x 2048 the multilevel partitioner
        # finds the planted cut on only ~6 seeds in 10 (cut fraction 0.08
        # or 0.32), which makes every metric of this workload bimodal.
        graph=Graph("sbm", n=16384, avg_degree=16, f=64, classes=8),
        smoke_graph=Graph("sbm", n=512, avg_degree=8, f=16, classes=4),
        hidden=32, k=4,
        configs=(Config("1d", 4, {"variant": "ghost",
                                  "partition": "multilevel"}),),
        backend="process", transport="shm",
    ),
)}
