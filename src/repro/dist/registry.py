"""Algorithm registry and facade constructors.

``ALGORITHMS`` maps the paper's four algorithm names to their classes;
:func:`make_runtime_for` builds the matching virtual machine topology and
:func:`make_algorithm` wires a dataset, a runtime, and an algorithm
together -- the one-call entry point the CLI, examples, and benchmarks
use::

    algo = make_algorithm("2d", p=16, dataset=ds)
    history = algo.fit(ds.features, ds.labels, epochs=10)
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Type

from repro.comm.runtime import VirtualRuntime
from repro.config import MachineProfile
from repro.dist.algo_1d import DistGCN1D
from repro.dist.algo_15d import DistGCN15D
from repro.dist.algo_2d import DistGCN2D
from repro.dist.algo_3d import DistGCN3D
from repro.dist.base import DistAlgorithm
from repro.dist.distribution import PARTITION_KINDS, Distribution
from repro.nn.layers import check_widths

__all__ = ["ALGORITHMS", "make_distribution", "make_runtime_for",
           "make_algorithm"]

#: The paper's algorithm families, keyed by their Section IV names.
ALGORITHMS: Dict[str, Type[DistAlgorithm]] = {
    "1d": DistGCN1D,
    "1.5d": DistGCN15D,
    "2d": DistGCN2D,
    "3d": DistGCN3D,
}


def _unknown(name: str) -> ValueError:
    return ValueError(
        f"unknown algorithm {name!r}; available: {sorted(ALGORITHMS)}"
    )


BACKENDS = ("virtual", "process")


def make_runtime_for(
    name: str,
    p: int,
    grid: Optional[Tuple[int, int]] = None,
    profile: Optional[MachineProfile] = None,
    backend: str = "virtual",
    workers: Optional[int] = None,
    transport: Optional[str] = None,
    faults: Optional[str] = None,
    max_restarts: Optional[int] = None,
):
    """The machine topology algorithm ``name`` runs on.

    ``grid=(Pr, Pc)`` selects a rectangular 2D grid (Section IV-C.6);
    without it, ``"2d"`` requires ``P`` to be a perfect square and
    ``"3d"`` a perfect cube.  ``backend="process"`` returns a
    :class:`repro.parallel.ParallelRuntime` whose ``p`` ranks execute as
    real OS processes (``workers`` of them, default one per rank);
    ``"virtual"`` (the default) is the single-process simulator.
    ``transport`` picks the workers' peer fabric: ``"shm"`` (default,
    queues + shared memory) or ``"tcp"`` (sockets; multi-host via
    ``REPRO_PARALLEL_HOSTS``).  ``faults`` is a deterministic
    fault-injection plan (:mod:`repro.parallel.faults`) and
    ``max_restarts`` the elastic-recovery budget; both apply only to
    the process backend.
    """
    name = name.lower()
    if name not in ALGORITHMS:
        raise _unknown(name)
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; available: {BACKENDS}"
        )
    if backend == "process":
        from repro.parallel import ParallelRuntime as cls
        kw = {"workers": workers}
        if transport is not None:
            kw["transport"] = transport
        if faults is not None:
            kw["faults"] = faults
        if max_restarts is not None:
            kw["max_restarts"] = max_restarts
    else:
        if workers is not None:
            raise ValueError("workers= only applies to backend='process'")
        if transport is not None:
            raise ValueError("transport= only applies to backend='process'")
        if faults is not None:
            raise ValueError("faults= only applies to backend='process'")
        if max_restarts is not None:
            raise ValueError(
                "max_restarts= only applies to backend='process'")
        cls, kw = VirtualRuntime, {}
    if name in ("1d", "1.5d"):
        if grid is not None:
            raise ValueError(f"algorithm {name!r} does not take a 2D grid")
        return cls.make_1d(p, profile, **kw)
    if name == "2d":
        if grid is None:
            return cls.make_2d(p, profile, **kw)
        rows, cols = (int(g) for g in grid)
        if rows * cols != p:
            raise ValueError(
                f"grid {rows}x{cols} does not tile P={p} ranks"
            )
        return cls.make_2d_rect(rows, cols, profile, **kw)
    if grid is not None:
        raise ValueError("algorithm '3d' does not take a 2D grid")
    return cls.make_3d(p, profile, **kw)


def _check_partition(partition, name: Optional[str] = None,
                     p: Optional[int] = None) -> None:
    """The partition checks that need no graph work: a known partitioner
    name, and -- for the block-row family, which adopts the parts as its
    rank row ranges -- a prebuilt :class:`Distribution` with one part
    per rank."""
    if partition is None:
        return
    if isinstance(partition, Distribution):
        if name == "1d" and partition.nparts != p:
            raise ValueError(
                f"distribution has {partition.nparts} parts for "
                f"P={p} ranks"
            )
    elif partition not in PARTITION_KINDS:
        raise ValueError(
            f"unknown partition {partition!r}; choose from "
            f"{PARTITION_KINDS}"
        )


def make_distribution(partition, adjacency, p: int,
                      seed: int = 0) -> Optional[Distribution]:
    """Coerce a partition choice into a :class:`Distribution`.

    ``partition`` may be ``None`` (no relabelling -- the historical
    behaviour), a partitioner name from
    :data:`~repro.dist.distribution.PARTITION_KINDS`, or a prebuilt
    :class:`Distribution` (returned as-is).
    """
    _check_partition(partition)
    if partition is None or isinstance(partition, Distribution):
        return partition
    return Distribution.build(partition, adjacency, p, seed=seed)


def make_algorithm(
    name: str,
    p: int,
    dataset,
    hidden: int = 16,
    layers: int = 3,
    seed: int = 0,
    optimizer=None,
    profile: Optional[MachineProfile] = None,
    grid: Optional[Tuple[int, int]] = None,
    backend: str = "virtual",
    workers: Optional[int] = None,
    transport: Optional[str] = None,
    faults: Optional[str] = None,
    max_restarts: Optional[int] = None,
    partition=None,
    **kwargs,
) -> DistAlgorithm:
    """Build algorithm ``name`` for ``dataset`` on ``p`` (virtual) GPUs.

    ``dataset`` is a :class:`repro.graph.datasets.Dataset` (or anything
    with ``adjacency`` and ``layer_widths``).  ``backend="process"``
    executes the ranks as real OS processes (``workers`` of them, over
    the ``transport`` peer fabric -- ``"shm"`` or ``"tcp"``) and
    returns a :class:`repro.parallel.ParallelAlgorithm` proxy with the
    same ``fit``/``train_epoch``/``predict`` surface; close it with
    ``algo.rt.close()`` when done.  ``partition`` selects a
    partition-aware :class:`Distribution` (a name from
    ``PARTITION_KINDS``, or a prebuilt instance; default: none) --
    pair it with the 1D ``variant="ghost"`` to make partition quality
    visible in the ledger.  Remaining keyword arguments pass through to
    the algorithm class (``variant`` for 1D, ``replication`` for 1.5D,
    ``summa_block`` for 2D).

    On the process backend the pool is started as soon as the cheap
    arguments check out and *before* the graph is partitioned, so the
    workers boot (interpreter, imports, arena attach, rendezvous) while
    the driver partitions; a failure after that point closes the pool
    before it propagates.
    """
    name = name.lower()
    if name not in ALGORITHMS:
        raise _unknown(name)
    widths = check_widths(dataset.layer_widths(hidden=hidden, layers=layers))
    rt = make_runtime_for(name, p, grid=grid, profile=profile,
                          backend=backend, workers=workers,
                          transport=transport, faults=faults,
                          max_restarts=max_restarts)
    process = backend == "process"
    if process:
        _check_partition(partition, name, p)
        rt.start()
    try:
        distribution = make_distribution(partition, dataset.adjacency, p,
                                         seed=seed)
        if distribution is not None:
            kwargs = dict(kwargs, distribution=distribution)
        if process:
            return rt.make_algorithm(
                name, dataset.adjacency, widths, seed=seed,
                optimizer=optimizer, **kwargs,
            )
        return ALGORITHMS[name](
            rt, dataset.adjacency, widths, seed=seed, optimizer=optimizer,
            **kwargs,
        )
    except BaseException:
        if process:
            rt.close()
        raise
