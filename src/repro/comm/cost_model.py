"""The price list: every modeled second comes from one rule per kind.

The paper analyses every algorithm in the alpha-beta model (Section III-A):
sending a message of ``n`` words costs ``alpha + beta * n``.  Collectives
follow the classical costs from Chan et al. [11] and Thakur et al. [28],
which the paper cites for its ``alpha lg P + beta n f (P-1)/P`` bounds.
Each rule below is written exactly once and prices a **scalar size or an
ndarray of sizes** with the same arithmetic: the executed ledger
(:meth:`repro.comm.collectives.Collectives.charges`,
``DistAlgorithm._charge_kernel``), the schedule evaluator
(:func:`repro.simulate.schedule.evaluate_schedule`) and the drift report
(:mod:`repro.obs.report`) all call this list, so "simulator seconds ==
ledger seconds" holds by construction rather than by a tolerance.

===================  ==========================  ==============================
kind                  rule                        seconds (p ranks, m bytes)
===================  ==========================  ==============================
broadcast             :func:`broadcast_cost`      ``lg p * alpha + beta * m``
                                                  (``pipelined=True``, the
                                                  SUMMA-style broadcast of
                                                  Section IV-C: ``1 * alpha``)
all-gather            :func:`allgather_cost`      ``lg p * alpha + beta * m
                                                  (p-1)/p`` (ring / recursive
                                                  doubling; ``m`` = total
                                                  result bytes)
reduce-scatter        :func:`reduce_scatter_cost` ``lg p * alpha + beta * m
                                                  (p-1)/p`` (recursive halving)
all-reduce            :func:`allreduce_cost`      reduce-scatter + all-gather:
                                                  ``2 lg p * alpha + 2 beta *
                                                  m (p-1)/p``
row gather            :func:`gather_rows_cost`    ``peers * alpha + beta *
                                                  m`` (``m`` = the rank's
                                                  rows moved): the 1D ghost
                                                  exchange (receivers)
SUMMA stage relay     :func:`gather_rows_cost`,   ``alpha + beta * m`` per
                      one peer a rank             column member (``m`` =
                                                  the rows its hop carries;
                                                  the root: the first
                                                  hop's): the 2D / 3D dense
                                                  stages, the pipelined
                                                  broadcast's price where
                                                  every member reads every
                                                  row
transpose exchange    :func:`transpose_cost`      ``alpha + beta * m`` at the
                                                  uncongested inter-node tier
dense matmul          :func:`gemm_seconds`        ``flops / gemm_flops +
                                                  launch``
elementwise kernel    :func:`elementwise_seconds` ``bytes / memory_bandwidth +
                                                  launch``
local SpMM            :meth:`repro.sparse.perfmodel.SpmmPerfModel.seconds`
                                                  ``2 nnz f / rate(d, f) +
                                                  launch``
===================  ==========================  ==============================

``alpha`` and ``beta`` are the profile's latency and (congestion-adjusted)
bandwidth tier for the job's ``span``; ``lg = ceil(log2)``.  Sizes are
whole counts: a fractional size (the uniform graph oracle's expected
value) truncates exactly like the executed path's ``int()``, a negative
one is an error, and a collective over one rank or zero bytes is free.
A scalar size returns Python scalars, an ndarray returns one entry per
size.

These rules return **modeled seconds**; the actual data movement is
performed (and byte counts recorded exactly) by
:mod:`repro.comm.collectives`.  Keeping the two separate means the measured
byte counts validate the analysis even if one disagrees with the time model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.config import MachineProfile

__all__ = [
    "CollectiveCost",
    "Sizes",
    "Values",
    "whole",
    "plain",
    "broadcast_cost",
    "allgather_cost",
    "reduce_scatter_cost",
    "allreduce_cost",
    "GROUP_COST",
    "gather_rows_cost",
    "transpose_cost",
    "gemm_seconds",
    "elementwise_seconds",
]

#: What a rule prices: one size or an ndarray of sizes.
Sizes = Union[int, float, np.ndarray]
#: What it returns: a Python ``float`` / ``int`` for a scalar size, else
#: an ndarray with one entry per size.  ``Any`` to the type checker -- a
#: caller knows which form it asked for.
Values = Any


@dataclass(frozen=True)
class CollectiveCost:
    """Cost of one collective: modeled time plus volume accounting.

    ``bytes_on_wire`` is the total traffic the operation puts on the
    network (summed over ranks); ``bytes_critical`` is the volume on the
    critical path of a single rank -- this is the quantity the paper's
    per-process ``T_comm`` formulas bound.  ``messages`` counts messages on
    the critical path (the latency multiplier) and ``latency_seconds`` is
    the alpha share of ``seconds``.  Seconds are ``float``, volumes and
    messages ``int`` -- or, priced from an ndarray of sizes, float64 and
    int64 arrays with one entry per size.
    """

    seconds: Values
    bytes_on_wire: Values
    bytes_critical: Values
    messages: Values
    latency_seconds: Values = 0.0

    def __add__(self, other: "CollectiveCost") -> "CollectiveCost":
        return CollectiveCost(
            self.seconds + other.seconds,
            self.bytes_on_wire + other.bytes_on_wire,
            self.bytes_critical + other.bytes_critical,
            self.messages + other.messages,
            self.latency_seconds + other.latency_seconds,
        )


def _lg(p: int) -> float:
    """``ceil(log2 p)`` with ``lg 1 = 0`` -- the latency multiplier."""
    if p <= 1:
        return 0.0
    return float(math.ceil(math.log2(p)))


def whole(sizes: Sizes) -> np.ndarray:
    """``sizes`` as whole, non-negative float64 counts -- what every rule
    (here and :meth:`SpmmPerfModel.seconds
    <repro.sparse.perfmodel.SpmmPerfModel.seconds>`) prices."""
    counts = np.asarray(sizes, dtype=np.float64)
    if counts.size and counts.min() < 0:
        raise ValueError(f"negative size: {sizes}")
    return np.trunc(counts)


def _moved(sizes: Sizes, nranks: int) -> Tuple[np.ndarray, np.ndarray]:
    """What collectives over ``nranks`` ranks have to move, and which of
    them are busy at all: one rank or zero bytes is free."""
    m = whole(sizes)
    if nranks <= 1:
        m = np.zeros_like(m)
    return m, m > 0


def _rates(profile: MachineProfile, span: int) -> Tuple[float, float]:
    """``(alpha, beta)`` of the tier a job spanning ``span`` ranks uses."""
    return profile.alpha_for_span(span), profile.beta_effective(span)


def _group_span(nranks: int, span: Optional[int]) -> int:
    return nranks if span is None else max(span, nranks)


def plain(value: np.ndarray) -> Values:
    """A rule's result in its caller's form: a Python number for a
    scalar size, the array as is otherwise."""
    return value.item() if value.ndim == 0 else value


def _cost(sizes: np.ndarray, seconds: Values, latency: Values,
          wire: Values, critical: Values, messages: Values
          ) -> CollectiveCost:
    """One rule's result per entry of ``sizes``, volumes and message
    counts whole: Python numbers for a scalar size (the executed
    ledger's form), arrays otherwise."""
    if sizes.ndim == 0:
        return CollectiveCost(float(seconds), int(wire), int(critical),
                              int(messages), float(latency))

    def per_size(x: Values, dtype: type) -> np.ndarray:
        x = np.asarray(x).astype(dtype, copy=False)
        return x if x.shape == sizes.shape else np.broadcast_to(
            x, sizes.shape)

    return CollectiveCost(
        per_size(seconds, np.float64), per_size(wire, np.int64),
        per_size(critical, np.int64), per_size(messages, np.int64),
        per_size(latency, np.float64),
    )


def broadcast_cost(
    profile: MachineProfile, nbytes: Sizes, nranks: int,
    pipelined: bool = False, span: Optional[int] = None,
) -> CollectiveCost:
    """Broadcast ``nbytes`` from one root to ``nranks`` ranks.

    ``pipelined=True`` models the SUMMA-style broadcast the paper invokes in
    Section IV-C ("high-level algorithms such as SUMMA can avoid the lg P
    factor in the latency term through pipelining"): latency is charged as a
    single alpha and bandwidth once.
    """
    m, busy = _moved(nbytes, nranks)
    alpha, beta = _rates(profile, _group_span(nranks, span))
    lat_factor = 1.0 if pipelined else _lg(nranks)
    latency = busy * (lat_factor * alpha)
    return _cost(m, latency + beta * m, latency, m * (nranks - 1), m,
                 busy * max(1, int(lat_factor)))


def allgather_cost(
    profile: MachineProfile, total_bytes: Sizes, nranks: int,
    span: Optional[int] = None,
) -> CollectiveCost:
    """All-gather where the concatenated result has ``total_bytes``.

    Ring/recursive-doubling bandwidth term ``beta * m * (p-1)/p`` from
    Chan et al., which the paper rounds up to ``beta * m``.
    """
    m, busy = _moved(total_bytes, nranks)
    alpha, beta = _rates(profile, _group_span(nranks, span))
    lg = _lg(nranks)
    moved = m * (nranks - 1) / max(nranks, 1)
    latency = busy * (lg * alpha)
    return _cost(m, latency + beta * moved, latency, moved * nranks, moved,
                 busy * int(lg))


def reduce_scatter_cost(
    profile: MachineProfile, total_bytes: Sizes, nranks: int,
    span: Optional[int] = None,
) -> CollectiveCost:
    """Reduce-scatter of per-rank buffers of ``total_bytes`` each.

    Each rank ends with a reduced ``total_bytes / nranks`` shard; recursive
    halving moves ``beta * m * (p-1)/p`` per rank -- exactly the
    ``beta n f (P-1)/P`` term in the paper's 1D backpropagation analysis
    (Section IV-A.3), and the all-gather's price run backwards.
    """
    return allgather_cost(profile, total_bytes, nranks, span)


def allreduce_cost(
    profile: MachineProfile, nbytes: Sizes, nranks: int,
    span: Optional[int] = None,
) -> CollectiveCost:
    """All-reduce = reduce-scatter + all-gather (Thakur et al.), two
    halves at one price."""
    half = reduce_scatter_cost(profile, nbytes, nranks, span)
    return half + half


#: The group kinds' rules, by the collective kind the executed epochs
#: and the emitted schedules name.  Sparse-wire reduce-scatter prices
#: like the dense one; only the wire size it is handed differs.
GROUP_COST: Dict[str, Callable[..., CollectiveCost]] = {
    "broadcast": broadcast_cost,
    "allgather": allgather_cost,
    "allreduce": allreduce_cost,
    "reduce_scatter": reduce_scatter_cost,
    "sparse_reduce_scatter": reduce_scatter_cost,
}


def gather_rows_cost(
    profile: MachineProfile, nbytes: Sizes, npeers: Sizes,
    span: Optional[int] = None,
) -> CollectiveCost:
    """One rank's side of a row gather (Section IV-A.8's ghost rows, and
    a hop of a sparsity-aware SUMMA stage's relay).

    Exact: the rank moves ``nbytes`` (the distinct rows read, times the
    dense row size) to or from ``npeers`` distinct ranks, one message
    per peer, concurrent within the step.  A receiver fetches its rows
    from its sources; a SUMMA stage's column member gets the rows of its
    hop from one peer, and the root sends the first hop's.  Like every
    rule, zero bytes is free: a rank that moves nothing sends no
    message, whatever ``npeers`` says.
    """
    m, peers = np.broadcast_arrays(whole(nbytes), whole(npeers))
    peers = np.where(m > 0, peers, 0.0)
    alpha, beta = _rates(profile, 2 if span is None else span)
    latency = peers * alpha
    return _cost(m, latency + beta * m, latency, m, m, peers)


def transpose_cost(profile: MachineProfile, nbytes: Sizes) -> CollectiveCost:
    """One rank's pairwise exchange of ``nbytes`` in a grid transpose.

    Partners sit across the machine, so the message rides the inter-node
    tier whatever the job's size, without the congestion term.
    """
    m = whole(nbytes)
    return _cost(m, profile.alpha + profile.beta * m, profile.alpha, m, m,
                 1)


def gemm_seconds(profile: MachineProfile, flops: Sizes) -> Values:
    """One local dense matmul of ``flops`` floating-point operations."""
    return plain(whole(flops) / profile.gemm_flops
                  + profile.kernel_launch_overhead)


def elementwise_seconds(profile: MachineProfile, nbytes: Sizes) -> Values:
    """One memory-bound elementwise kernel touching ``nbytes``."""
    return plain(whole(nbytes) / profile.memory_bandwidth
                  + profile.kernel_launch_overhead)
