"""The sweep engine: (algorithm x graph x P x machine) grids in seconds.

:func:`predict_epoch` prices one configuration; :func:`sweep` evaluates a
full grid, reusing each emitted schedule across machines (emission
depends only on the algorithm, graph, and P -- pricing is the cheap
part).  Rank counts that an algorithm's mesh cannot realise (non-square P
for 2D, non-cube for 3D, replication not dividing P for 1.5D) are skipped
rather than silently snapped, so winners are always compared at identical
P.

A full default sweep -- four algorithms, three machines, P up to 16384 --
completes in a few seconds on a laptop and serialises to JSON for the
``repro sweep`` CLI and the CI artifact.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.comm.mesh import is_perfect_cube, is_perfect_square
from repro.config import MachineProfile
from repro.nn.layers import check_widths, sweep_widths
from repro.sparse.csr import CSRMatrix
from repro.simulate.machines import get_machine
from repro.simulate.schedule import (
    CommSchedule,
    GraphModel,
    SimResult,
    evaluate_schedule,
)

__all__ = [
    "DEFAULT_MACHINES",
    "DEFAULT_P_GRID",
    "SimPoint",
    "SweepResult",
    "default_algo_kwargs",
    "predict_epoch",
    "supports_p",
    "sweep",
]

#: Machine names of the default sweep grid.
DEFAULT_MACHINES: Tuple[str, ...] = ("summit", "cori-gpu", "ethernet")

#: Rank counts of the default sweep grid (all perfect squares; 64 and
#: 4096 are also perfect cubes, where the 3D algorithm joins the race).
DEFAULT_P_GRID: Tuple[int, ...] = (4, 16, 64, 256, 1024, 4096, 16384)


def supports_p(algorithm: str, p: int) -> bool:
    """Whether ``algorithm``'s process mesh can realise ``p`` ranks."""
    name = algorithm.lower()
    if p < 1:
        return False
    if name == "2d":
        return is_perfect_square(p)
    if name == "3d":
        return is_perfect_cube(p)
    return True


def default_algo_kwargs(algorithm: str, p: int) -> Dict[str, object]:
    """Per-point defaults: the 1.5D replication picks ``c ~ sqrt(P/2)``.

    Section IV-B's optimum, snapped down to the largest divisor of ``P``
    not exceeding it (``c`` must tile the process grid).
    """
    if algorithm.lower() != "1.5d":
        return {}
    target = max(1, math.isqrt(max(1, p // 2)))
    c = max(d for d in range(1, target + 1) if p % d == 0)
    return {"replication": c}


@dataclass(frozen=True)
class SimPoint:
    """One priced configuration of the sweep grid."""

    algorithm: str
    graph: str
    p: int
    machine: str
    seconds: float
    compute_seconds: float
    latency_seconds: float
    bandwidth_seconds: float
    seconds_by_category: Dict[str, float]
    bytes_by_category: Dict[str, int]
    comm_bytes: int
    #: messages of the epoch, summed over every rank (``SimResult.
    #: messages``: what the executed ledger's ``total_messages`` counts)
    messages: int
    #: the schedule's one-time section, priced: the ``A^T H^0``
    #: aggregation paid per feature matrix, outside every epoch, and in
    #: 2D / 3D the sparse pieces the first install moves (every field
    #: above is the steady-state epoch)
    setup: SimResult
    params: Dict[str, object] = field(default_factory=dict)

    @property
    def epochs_per_second(self) -> float:
        return 1.0 / self.seconds if self.seconds > 0 else float("inf")

    def to_dict(self) -> Dict[str, object]:
        setup = self.setup
        forward, backward = sweep_widths(self.params["widths"])
        return {
            "algorithm": self.algorithm,
            "graph": self.graph,
            "p": self.p,
            "machine": self.machine,
            "seconds": self.seconds,
            "epochs_per_second": self.epochs_per_second,
            "compute_seconds": self.compute_seconds,
            "latency_seconds": self.latency_seconds,
            "bandwidth_seconds": self.bandwidth_seconds,
            "seconds_by_category": dict(self.seconds_by_category),
            "bytes_by_category": dict(self.bytes_by_category),
            "comm_bytes": self.comm_bytes,
            "messages": self.messages,
            "params": dict(self.params),
            "sweep_widths": {"forward": forward, "backward": backward},
            "setup": {
                "seconds": setup.total_seconds,
                "seconds_by_category": dict(setup.seconds_by_category),
                "bytes_by_category": dict(setup.bytes_by_category),
                "comm_bytes": setup.comm_bytes,
            },
        }


def _price(
    algorithm: str,
    graph: GraphModel,
    p: int,
    machine: MachineProfile,
    schedule: CommSchedule,
) -> SimPoint:
    """Price a schedule's epoch and its one-time section on ``machine``."""
    result = evaluate_schedule(schedule, machine)
    return SimPoint(
        algorithm=algorithm,
        graph=graph.name,
        p=p,
        machine=machine.name,
        seconds=result.total_seconds,
        compute_seconds=result.compute_seconds,
        latency_seconds=result.latency_seconds,
        bandwidth_seconds=result.bandwidth_seconds,
        seconds_by_category=result.seconds_by_category,
        bytes_by_category=result.bytes_by_category,
        comm_bytes=result.comm_bytes,
        messages=result.messages,
        setup=evaluate_schedule(schedule.setup, machine),
        params=dict(schedule.meta),
    )


def _widths_for(
    graph: GraphModel,
    widths: Optional[Sequence[int]],
    hidden: int,
    layers: int,
) -> Tuple[int, ...]:
    if widths is None:
        if graph.features is None or graph.n_classes is None:
            raise ValueError(
                f"graph {graph.name!r} carries no feature/class widths; "
                "pass widths=(f0, ..., fL) explicitly"
            )
        from repro.graph.datasets import layer_widths

        widths = layer_widths(graph.features, graph.n_classes, hidden,
                              layers)
    return check_widths(widths)


def _emit(
    algorithm: str,
    graph: GraphModel,
    widths: Sequence[int],
    p: int,
    kwargs: Mapping[str, object],
) -> CommSchedule:
    from repro.dist.registry import ALGORITHMS

    name = algorithm.lower()
    if name not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {name!r}; available: {sorted(ALGORITHMS)}"
        )
    return ALGORITHMS[name].emit_comm_schedule(graph, widths, p, **kwargs)


def predict_epoch(
    algorithm: str,
    graph,
    p: int,
    machine: Optional[Union[str, MachineProfile]] = None,
    widths: Optional[Sequence[int]] = None,
    hidden: int = 16,
    layers: int = 3,
    **algo_kwargs,
) -> SimPoint:
    """Predict one steady-state training epoch's time and communication
    ledger, and beside it (``.setup``) the one-time ``A^T H^0``
    aggregation the trainer pays per feature matrix.

    ``graph`` is a :class:`~repro.simulate.schedule.GraphModel`, a
    Dataset, a CSRMatrix, or a published dataset name; ``machine`` a
    preset name or profile.  Remaining keyword arguments mirror the
    algorithm constructors (``variant``, ``replication``, ``grid``,
    ``summa_block``), plus the emitters' ``word_bytes``: the element
    size dense words and sparse values are counted in (default fp64,
    what the executed reproduction moves; ``FP32_BYTES`` prices the
    paper's training runs).
    """
    graph = GraphModel.coerce(graph)
    profile = get_machine(machine)
    widths = _widths_for(graph, widths, hidden, layers)
    # An explicit rectangular grid lifts the square-P constraint (IV-C.6).
    explicit_grid = algo_kwargs.get("grid") is not None
    if not explicit_grid and not supports_p(algorithm, p):
        raise ValueError(
            f"algorithm {algorithm!r} cannot run on P={p} ranks "
            "(mesh constraint)"
        )
    schedule = _emit(algorithm, graph, widths, p, algo_kwargs)
    return _price(algorithm.lower(), graph, p, profile, schedule)


@dataclass
class SweepResult:
    """All priced points of one sweep plus grid metadata."""

    points: List[SimPoint]
    algorithms: Tuple[str, ...]
    machines: Tuple[str, ...]
    ps: Tuple[int, ...]
    graphs: Tuple[str, ...]
    elapsed_seconds: float

    def winners(self) -> Dict[Tuple[str, str, int], SimPoint]:
        """Fastest algorithm per (graph, machine, P) grid point."""
        best: Dict[Tuple[str, str, int], SimPoint] = {}
        for pt in self.points:
            key = (pt.graph, pt.machine, pt.p)
            if key not in best or pt.seconds < best[key].seconds:
                best[key] = pt
        return best

    def series(
        self, graph: str, machine: str, algorithm: str
    ) -> List[Tuple[int, float]]:
        """``(P, seconds)`` pairs of one scaling curve, ascending in P."""
        picked = [
            (pt.p, pt.seconds)
            for pt in self.points
            if pt.graph == graph
            and pt.machine == machine
            and pt.algorithm == algorithm
        ]
        return sorted(picked)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": "repro-sweep/1",
            "grid": {
                "algorithms": list(self.algorithms),
                "machines": list(self.machines),
                "ps": list(self.ps),
                "graphs": list(self.graphs),
            },
            "elapsed_seconds": self.elapsed_seconds,
            "points": [pt.to_dict() for pt in self.points],
            "winners": [
                {
                    "graph": g,
                    "machine": m,
                    "p": p,
                    "algorithm": pt.algorithm,
                    "seconds": pt.seconds,
                }
                for (g, m, p), pt in sorted(self.winners().items())
            ],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path: str, indent: int = 2) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json(indent=indent))
            fh.write("\n")


def sweep(
    graphs,
    algorithms: Optional[Sequence[str]] = None,
    ps: Sequence[int] = DEFAULT_P_GRID,
    machines: Sequence[Union[str, MachineProfile]] = DEFAULT_MACHINES,
    widths: Optional[Sequence[int]] = None,
    hidden: int = 16,
    layers: int = 3,
    algo_kwargs: Optional[Mapping[str, Mapping[str, object]]] = None,
) -> SweepResult:
    """Evaluate an (algorithm x graph x P x machine) grid.

    ``graphs`` is one graph or a sequence of graphs (anything
    :meth:`GraphModel.coerce` accepts).  ``algo_kwargs`` optionally maps
    algorithm name to constructor keywords; otherwise
    :func:`default_algo_kwargs` supplies per-point defaults (the 1.5D
    replication heuristic).  Invalid (algorithm, P) pairs are skipped.
    """
    from repro.dist.registry import ALGORITHMS

    if algorithms is None:
        algorithms = tuple(sorted(ALGORITHMS))
    if isinstance(graphs, (str, GraphModel, CSRMatrix)) or hasattr(
        graphs, "adjacency"
    ):
        graphs = [graphs]
    graph_models = [GraphModel.coerce(g) for g in graphs]
    profiles = [get_machine(m) for m in machines]
    algo_kwargs = dict(algo_kwargs or {})

    t0 = time.perf_counter()
    points: List[SimPoint] = []
    for graph in graph_models:
        w = _widths_for(graph, widths, hidden, layers)
        for algorithm in algorithms:
            name = algorithm.lower()
            for p in ps:
                kwargs = dict(
                    algo_kwargs.get(name, default_algo_kwargs(name, p))
                )
                grid = kwargs.get("grid")
                if grid is not None:
                    # An explicit rectangular grid replaces the mesh
                    # constraint: it is valid exactly where it tiles P.
                    if int(grid[0]) * int(grid[1]) != p:
                        continue
                elif not supports_p(name, p):
                    continue
                replication = kwargs.get("replication")
                if replication is not None and p % int(replication) != 0:
                    continue  # fixed c cannot tile this grid point
                schedule = _emit(name, graph, w, p, kwargs)
                for profile in profiles:
                    points.append(_price(name, graph, p, profile, schedule))
    elapsed = time.perf_counter() - t0
    return SweepResult(
        points=points,
        algorithms=tuple(a.lower() for a in algorithms),
        machines=tuple(pr.name for pr in profiles),
        ps=tuple(int(p) for p in ps),
        graphs=tuple(g.name for g in graph_models),
        elapsed_seconds=elapsed,
    )
