"""Communication substrate: meshes, collectives, cost model, ledger.

This package is the stand-in for ``torch.distributed`` + NCCL on the Summit
supercomputer: collectives that move numpy blocks, priced by the one
alpha-beta price list (:mod:`repro.comm.cost_model`) and charged to the
per-rank ledger (:mod:`repro.comm.tracker`).  See
:mod:`repro.comm.runtime` for the entry point.
"""

from repro.comm.cost_model import (
    CollectiveCost,
    allgather_cost,
    allreduce_cost,
    broadcast_cost,
    elementwise_seconds,
    gather_rows_cost,
    gemm_seconds,
    reduce_scatter_cost,
    transpose_cost,
)
from repro.comm.collectives import Collectives, payload_nbytes
from repro.comm.mesh import Mesh1D, Mesh2D, Mesh3D, ProcessMesh
from repro.comm.runtime import VirtualRuntime
from repro.comm.tracker import Category, CategoryTotals, CommTracker

__all__ = [
    "CollectiveCost",
    "Collectives",
    "Category",
    "CategoryTotals",
    "CommTracker",
    "Mesh1D",
    "Mesh2D",
    "Mesh3D",
    "ProcessMesh",
    "VirtualRuntime",
    "payload_nbytes",
    "broadcast_cost",
    "allgather_cost",
    "reduce_scatter_cost",
    "allreduce_cost",
    "gather_rows_cost",
    "transpose_cost",
    "gemm_seconds",
    "elementwise_seconds",
]
