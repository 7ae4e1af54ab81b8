"""Scaling figures from simulator sweeps (the paper-style plots, as data).

The paper's headline figures are strong-scaling curves (epoch time vs P,
one line per algorithm) and the 1D-vs-2D crossover discussion.  This
module turns a :class:`repro.simulate.engine.SweepResult` into those
artefacts: per-(graph, machine) scaling tables, winner crossover points,
and text renderings for the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.nn.layers import sweep_widths
from repro.simulate.engine import SweepResult

__all__ = [
    "CrossoverPoint",
    "scaling_table",
    "crossover_points",
    "format_scaling_table",
    "format_setup_line",
    "format_sweep_widths",
    "format_crossovers",
]


@dataclass(frozen=True)
class CrossoverPoint:
    """The first P where the winning algorithm changes hands."""

    graph: str
    machine: str
    p: int
    previous: str
    winner: str


def scaling_table(
    result: SweepResult, graph: str, machine: str
) -> Tuple[List[str], List[List[object]]]:
    """One strong-scaling figure as (header, rows).

    Rows are ascending in P; one seconds column per algorithm (blank when
    the mesh cannot realise that P) plus the per-P winner.
    """
    algos = list(result.algorithms)
    by_key: Dict[Tuple[str, int], float] = {}
    ps = set()
    for pt in result.points:
        if pt.graph == graph and pt.machine == machine:
            by_key[(pt.algorithm, pt.p)] = pt.seconds
            ps.add(pt.p)
    header = ["P"] + [f"{a} s/epoch" for a in algos] + ["winner"]
    rows: List[List[object]] = []
    for p in sorted(ps):
        cells: List[object] = [p]
        best: Optional[Tuple[float, str]] = None
        for a in algos:
            sec = by_key.get((a, p))
            cells.append("-" if sec is None else f"{sec:.4g}")
            if sec is not None and (best is None or sec < best[0]):
                best = (sec, a)
        cells.append(best[1] if best else "-")
        rows.append(cells)
    return header, rows


def crossover_points(result: SweepResult) -> List[CrossoverPoint]:
    """Winner hand-offs along P, per (graph, machine) series."""
    winners = result.winners()
    series: Dict[Tuple[str, str], List[Tuple[int, str]]] = {}
    for (graph, machine, p), pt in winners.items():
        series.setdefault((graph, machine), []).append((p, pt.algorithm))
    out: List[CrossoverPoint] = []
    for (graph, machine), pairs in sorted(series.items()):
        pairs.sort()
        for (_, prev), (p, cur) in zip(pairs, pairs[1:]):
            if cur != prev:
                out.append(CrossoverPoint(graph, machine, p, prev, cur))
    return out


def format_scaling_table(
    result: SweepResult, graph: str, machine: str
) -> str:
    """Fixed-width text rendering of one scaling figure."""
    header, rows = scaling_table(result, graph, machine)
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(header)
    ]
    lines = [f"strong scaling -- graph={graph}, machine={machine}"]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_setup_line(result: SweepResult, graph: str, machine: str) -> str:
    """The one-time ``A^T H^0`` aggregation (paid per feature matrix,
    outside the per-epoch seconds of the table above) per algorithm: its
    range over the swept P."""
    cells = []
    for a in result.algorithms:
        secs = [pt.setup.total_seconds for pt in result.points
                if (pt.graph, pt.machine, pt.algorithm) == (graph, machine, a)]
        if secs:
            cells.append(f"{a} {min(secs):.4g}..{max(secs):.4g} s")
    return "one-time aggregation (A^T H^0, per feature matrix): " + \
        ", ".join(cells)


def format_sweep_widths(widths: Sequence[int]) -> str:
    """The width each of an epoch's SpMM sweeps (and the exchange that
    feeds it) runs at, per layer above the first -- the narrow side of
    every layer (:func:`repro.nn.layers.sweep_order`), where the
    paper's per-layer closed forms have ``f^{l-1}`` forward and ``f^l``
    backward."""
    fwd, bwd = sweep_widths(widths)
    return (f"sweeps: fwd {','.join(map(str, fwd))}  "
            f"bwd {','.join(map(str, bwd))} "
            f"(narrow side of {'-'.join(map(str, widths))})")


def format_crossovers(result: SweepResult) -> str:
    """Text summary of every winner hand-off in the sweep."""
    points = crossover_points(result)
    if not points:
        return "no winner crossovers in the swept range"
    lines = ["winner crossovers:"]
    for c in points:
        lines.append(
            f"  {c.graph} on {c.machine}: {c.previous} -> {c.winner} "
            f"at P={c.p}"
        )
    return "\n".join(lines)
