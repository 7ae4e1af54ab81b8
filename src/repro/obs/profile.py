"""Per-kernel compute/memory profiling (flops, bytes, seconds).

The ledger models *communication*; spans measure *wall clock*; this
module closes the third gap: what the hot **compute kernels** actually
did -- floating-point operations, bytes touched, and seconds spent --
so the drift report can put a measured arithmetic-intensity/roofline
row next to the :class:`~repro.sparse.perfmodel.SpmmPerfModel` and
``MachineProfile.gemm_flops`` predictions.

Instrumented kernels (each site pays one ``is None`` test when off):

=================  =====================================================
``spmm``           every sparse-dense multiply through
                   :func:`repro.sparse.spmm.spmm` (extras accumulate
                   nnz / rows / cols so the report can re-run the
                   SpMM perf model on the average operand shape)
``gemm.forward``   ``forward_gemm`` (``H @ W``) in :mod:`repro.nn.layers`
``gemm.wgrad``     ``weight_gradient`` (``H^T @ G``)
``gemm.hgrad``     ``hidden_gradient`` (``AG @ W^T``)
``reduce.fold``    the group-order reduction fold every allreduce /
                   reduce-scatter funnels through
                   (:meth:`repro.comm.collectives.Collectives._reduce_arrays`,
                   inherited by the process backend's collectives)
=================  =====================================================

Memory gauges ride along: peak RSS from ``resource.getrusage`` and the
shared-memory arena's high-water occupancy / ephemeral-spill counters
(:mod:`repro.parallel.shm`).  The merged summary keeps every process's
peak RSS -- the driver's and each worker's -- and their sum, the run's
whole footprint.  Like spans, profiling is strictly
observational -- it never touches the ledger, so profiled runs stay
bit-identical in losses and ledger digests.  Every traced fit
profiles; on the process backend each worker profiles locally and the
snapshot rides back on the existing single fit dispatch next to its
spans.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

__all__ = [
    "ACTIVE",
    "KernelProfiler",
    "disable",
    "enable",
    "is_enabled",
    "merge_profiles",
    "peak_rss_bytes",
]


def peak_rss_bytes() -> int:
    """Peak resident-set size of this process in bytes (0 if unknown).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalise to
    bytes.  Windows has no ``resource`` module -- report 0 rather than
    fail, the gauge is advisory.
    """
    try:
        import resource
        import sys
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return int(rss) if sys.platform == "darwin" else int(rss) * 1024
    except (ImportError, OSError, ValueError):  # pragma: no cover - non-POSIX
        return 0


class KernelProfiler:
    """Accumulates per-kernel call / flop / byte / second counters.

    One profiler per process, no locks (same single-writer discipline
    as :class:`~repro.obs.spans.SpanRecorder`).  ``add`` is the hot
    call: a dict lookup plus five float adds.
    """

    __slots__ = ("kernels", "clock", "t_enabled")

    #: per-kernel accumulator layout
    _FIELDS = ("calls", "seconds", "flops", "bytes")

    def __init__(self):
        #: kernel name -> [calls, seconds, flops, bytes, *extras]
        self.kernels: Dict[str, List[float]] = {}
        self.clock = time.perf_counter
        self.t_enabled = self.clock()

    def add(self, kernel: str, seconds: float, flops: float,
            nbytes: float, *extras: float) -> None:
        """Record one kernel invocation.

        ``extras`` accumulate positionally into the same slot list --
        the SpMM site uses them for (nnz, nrows, ncols) sums so the
        report can reconstruct the average operand shape.
        """
        acc = self.kernels.get(kernel)
        if acc is None:
            acc = self.kernels[kernel] = [0.0, 0.0, 0.0, 0.0,
                                          *([0.0] * len(extras))]
        acc[0] += 1
        acc[1] += seconds
        acc[2] += flops
        acc[3] += nbytes
        for i, x in enumerate(extras):
            acc[4 + i] += x

    def snapshot(self, arena=None, process: Optional[str] = None) -> dict:
        """JSON-able summary: kernels, intensities, memory gauges.

        ``arena`` is an optional :class:`repro.parallel.shm.Arena`
        whose occupancy/overflow gauges are folded in (process-backend
        workers pass their payload arena).  ``process`` names the
        process in the merged footprint (``"driver"``, ``"worker 1"``).
        """
        kernels = {}
        for name, acc in sorted(self.kernels.items()):
            calls, seconds, flops, nbytes = acc[:4]
            entry = {
                "calls": int(calls),
                "seconds": seconds,
                "flops": flops,
                "bytes": nbytes,
                # arithmetic intensity: flops per byte moved; the
                # roofline x-axis (0 for pure-copy kernels)
                "intensity": flops / nbytes if nbytes else 0.0,
                "gflops_per_s": flops / seconds / 1e9 if seconds else 0.0,
            }
            if len(acc) > 4:
                entry["extras"] = list(acc[4:])
            kernels[name] = entry
        out = {
            "kernels": kernels,
            "elapsed_s": self.clock() - self.t_enabled,
            "peak_rss_bytes": peak_rss_bytes(),
        }
        if process is not None:
            out["process"] = process
        if arena is not None:
            out["arena"] = {
                "size_bytes": arena.size,
                "high_water_bytes": arena.high_water,
                "occupancy": (arena.high_water / arena.size
                              if arena.size else 0.0),
                "spills": arena.spills,
            }
        return out


#: The process-wide profiler kernel sites consult (``None`` = off).
ACTIVE: Optional[KernelProfiler] = None


def enable() -> KernelProfiler:
    """Install (and return) a fresh profiler as the active one."""
    global ACTIVE
    ACTIVE = KernelProfiler()
    return ACTIVE


def disable() -> Optional[KernelProfiler]:
    """Deactivate profiling; returns the profiler that was active."""
    global ACTIVE
    prof, ACTIVE = ACTIVE, None
    return prof


def is_enabled() -> bool:
    return ACTIVE is not None


def merge_profiles(snapshots: List[Optional[dict]],
                   driver_rss_bytes: Optional[int] = None) -> dict:
    """Fold per-worker profile snapshots into one run-level summary.

    Kernel counters sum across workers.  ``peak_rss_bytes`` and the
    arena gauges take the worst worker; ``peak_rss_by_process`` keeps
    every process's peak RSS -- ``driver_rss_bytes`` (a driver that ran
    no kernel of its own) first, then each snapshot under its
    ``process`` name -- and ``peak_rss_total_bytes`` is their sum.
    ``None`` entries are skipped.
    """
    kernels: Dict[str, dict] = {}
    peak_rss = 0
    by_process: Dict[str, int] = {}
    if driver_rss_bytes is not None:
        by_process["driver"] = int(driver_rss_bytes)
    arena = None
    nworkers = 0
    for snap in snapshots:
        if not snap:
            continue
        rss = int(snap.get("peak_rss_bytes", 0))
        by_process[snap.get("process") or f"worker {nworkers}"] = rss
        nworkers += 1
        peak_rss = max(peak_rss, rss)
        a = snap.get("arena")
        if a and (arena is None
                  or a.get("occupancy", 0) > arena.get("occupancy", 0)):
            arena = dict(a)
        for name, entry in snap.get("kernels", {}).items():
            acc = kernels.get(name)
            if acc is None:
                acc = kernels[name] = {
                    "calls": 0, "seconds": 0.0, "flops": 0.0,
                    "bytes": 0.0,
                }
            acc["calls"] += entry.get("calls", 0)
            acc["seconds"] += entry.get("seconds", 0.0)
            acc["flops"] += entry.get("flops", 0.0)
            acc["bytes"] += entry.get("bytes", 0.0)
            extras = entry.get("extras")
            if extras:
                have = acc.setdefault("extras", [0.0] * len(extras))
                for i, x in enumerate(extras):
                    have[i] += x
    for acc in kernels.values():
        acc["intensity"] = (acc["flops"] / acc["bytes"]
                            if acc["bytes"] else 0.0)
        acc["gflops_per_s"] = (acc["flops"] / acc["seconds"] / 1e9
                               if acc["seconds"] else 0.0)
    out = {
        "workers": nworkers,
        "kernels": dict(sorted(kernels.items())),
        "peak_rss_bytes": peak_rss,
        "peak_rss_by_process": by_process,
        "peak_rss_total_bytes": sum(by_process.values()),
    }
    if arena is not None:
        out["arena"] = arena
    return out
