"""Isolated per-layer probes on the workload's real operands.

Each probe times calls into one package's public functions from here,
under a harness span, at the shapes the workload's first configuration
gives a single rank.  They run in the traced pass only.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict

import numpy as np

from repro.comm.tracker import Category
from repro.dist import Distribution, make_algorithm, make_runtime_for
from repro.dist.distribution import ghost_structure
from repro.nn.layers import forward_gemm, hidden_gradient, weight_gradient
from repro.nn.model import GCN, SerialTrainer
from repro.partition import edge_cut_stats
from repro.simulate import predict_epoch, sweep
from repro.sparse import distribute_sparse_1d_rows, spmm, spmm_flops
from repro.sparse.spmm import spmm_bytes

__all__ = ["run_all"]

#: Samples per probe; a probe stops early (never below 3) once it has
#: used ``CAP_S`` seconds, so one slow kernel cannot eat the run.
SAMPLES = 10
CAP_S = 1.0


def _median_s(rec, name: str, fn: Callable[[], object],
              samples: int = SAMPLES) -> float:
    times = []
    started = time.perf_counter()
    while len(times) < samples:
        with rec.span(name) as s:
            fn()
        times.append(s.seconds)
        if len(times) >= 3 and time.perf_counter() - started > CAP_S:
            break
    return statistics.median(times)


def _sparse(bench, rec, samples) -> Dict[str, float]:
    a, x = bench.ds.adjacency, bench.ds.features
    f = x.shape[1]
    blocks = distribute_sparse_1d_rows(a, bench.cfg.p)
    full = _median_s(rec, "sparse.spmm_full", lambda: spmm(a, x), samples)
    split = _median_s(
        rec, "sparse.spmm_blocks",
        lambda: [spmm(blocks[r], x) for r in range(bench.cfg.p)], samples)
    # Ledger flop count of one epoch, from the resident tracker.
    tracker = bench.algo.rt.tracker
    before = tracker.total_flops(Category.SPMM)
    bench._fit(bench.algo, bench.wl.k)
    flops = (tracker.total_flops(Category.SPMM) - before) / bench.wl.k
    return {
        "sparse.spmm_full_s": full,
        "sparse.spmm_blocks_s": split,
        "sparse.block_overhead": split / full,
        "sparse.spmm_gflops": spmm_flops(a, f) / full / 1e9,
        # computed bytes of the minimal kernel, not measured traffic
        "sparse.spmm_gbps": spmm_bytes(a, f) / full / 1e9,
        "sparse.spmm_flops_per_epoch": flops,
    }


def _nn(bench, rec, samples) -> Dict[str, float]:
    ds, hidden = bench.ds, bench.wl.hidden
    rows = -(-ds.num_vertices // bench.cfg.p)
    f = ds.feature_width
    rng = np.random.default_rng(bench.seed)
    t = np.ascontiguousarray(ds.features[:rows])
    w = rng.standard_normal((f, hidden))
    g = rng.standard_normal((rows, hidden))
    fwd = _median_s(rec, "nn.forward_gemm", lambda: forward_gemm(t, w),
                    samples)
    wgrad = _median_s(rec, "nn.weight_gradient",
                      lambda: weight_gradient(t, g), samples)
    hgrad = _median_s(rec, "nn.hidden_gradient",
                      lambda: hidden_gradient(g, w), samples)
    widths = ds.layer_widths(hidden=hidden)
    trainer = SerialTrainer(GCN(widths, seed=bench.seed), ds.adjacency)
    serial = _median_s(
        rec, "nn.serial_epoch",
        lambda: trainer.train(ds.features, ds.labels, 1), samples)
    return {
        "nn.forward_gemm_s": fwd,
        "nn.weight_gradient_s": wgrad,
        "nn.hidden_gradient_s": hgrad,
        "nn.gemm_gflops": 3 * 2 * rows * f * hidden / (fwd + wgrad + hgrad)
                          / 1e9,
        "nn.serial_epoch_s": serial,
    }


def _comm(bench, rec, samples) -> Dict[str, float]:
    """One call of each collective on a fresh ``VirtualRuntime`` with the
    configuration's mesh, the world group and a per-rank dense block."""
    ds, cfg, hidden = bench.ds, bench.cfg, bench.wl.hidden
    rt = make_runtime_for(cfg.family, cfg.p)
    group = tuple(range(rt.size))
    dist = bench.virt.distribution or Distribution.block(
        ds.num_vertices, cfg.p)
    x = dist.permute_rows(ds.features)
    blocks = {r: x[lo:hi] for r, (lo, hi) in enumerate(dist.row_ranges)}
    rng = np.random.default_rng(bench.seed)
    grads = {r: rng.standard_normal((ds.feature_width, hidden))
             for r in group}
    partials = {r: rng.standard_normal((ds.num_vertices, hidden))
                for r in group}
    ghosts = ghost_structure(dist.permute_matrix(ds.adjacency),
                             dist.row_ranges)
    row_nbytes = ds.feature_width * x.itemsize
    coll = rt.coll
    return {
        "comm.broadcast_s": _median_s(
            rec, "comm.broadcast",
            lambda: coll.broadcast(group, 0, blocks[0]), samples),
        "comm.allreduce_s": _median_s(
            rec, "comm.allreduce",
            lambda: coll.allreduce(group, grads), samples),
        "comm.allgather_s": _median_s(
            rec, "comm.allgather",
            lambda: coll.allgather(group, blocks), samples),
        "comm.reduce_scatter_s": _median_s(
            rec, "comm.reduce_scatter",
            lambda: coll.reduce_scatter(group, partials), samples),
        "comm.gather_rows_s": _median_s(
            rec, "comm.gather_rows",
            lambda: coll.gather_rows(ghosts.pairs, blocks, row_nbytes),
            samples),
    }


def _partition(bench, rec) -> Dict[str, float]:
    """Partitioner cost and quality; only where the workload partitions."""
    kind = bench.cfg.options.get("partition")
    if kind is None:
        return {}
    ds, cfg = bench.ds, bench.cfg
    with rec.span("partition.build") as s:
        dist = Distribution.build(kind, ds.adjacency, cfg.p, seed=bench.seed)
    cut = edge_cut_stats(ds.adjacency, dist.assignment, cfg.p)
    # The ledger's dcomm bytes under the contiguous block split.
    options = dict(cfg.options, partition="block")
    block = make_algorithm(cfg.family, cfg.p, ds, hidden=bench.wl.hidden,
                           seed=bench.seed, **options)
    block_dcomm = block.fit(ds.features, ds.labels, epochs=1) \
        .epochs[-1].dcomm_bytes
    return {
        "partition.multilevel_s": s.seconds,
        "partition.cut_frac": cut.total_cut_edges / ds.adjacency.nnz,
        "partition.max_part_cut": cut.max_part_cut_edges,
        "partition.ghost_rows": sum(cut.per_part_ghost_rows),
        "partition.bytes_vs_block":
            bench.last_hist.epochs[-1].dcomm_bytes / block_dcomm,
    }


def _simulate(bench, rec, samples) -> Dict[str, float]:
    kw = bench.sim_kwargs()
    out = {"simulate.predict_epoch_s": _median_s(
        rec, "simulate.predict_epoch",
        lambda: predict_epoch(bench.cfg.family, bench.ds, bench.cfg.p,
                              hidden=bench.wl.hidden, **kw), samples)}
    if len(bench.wl.configs) > 1:
        # the 4-algorithm x 3-machine x P <= 16384 sweep, timed once
        with rec.span("simulate.sweep") as s:
            sweep(bench.ds, hidden=bench.wl.hidden)
        out["simulate.sweep_s"] = s.seconds
    return out


def _spawn(bench, rec, samples) -> Dict[str, float]:
    """Worker spawn + rendezvous: an empty pool from ``start()`` to its
    first answered command."""
    if not bench.process:
        return {}
    from repro.parallel import ProcessBackend

    rt = make_runtime_for(bench.cfg.family, bench.cfg.p)
    times = []
    for _ in range(samples):
        backend = ProcessBackend(rt.mesh, rt.profile, bench.workers,
                                 transport=bench.wl.transport)
        try:
            with rec.span("parallel.spawn") as s:
                backend.start()
                backend.stats()
            times.append(s.seconds)
        finally:
            backend.close()
    return {"parallel.spawn_s": statistics.median(times)}


def run_all(bench, rec, smoke: bool) -> Dict[str, float]:
    samples = 3 if smoke else SAMPLES
    out: Dict[str, float] = {}
    out.update(_sparse(bench, rec, samples))
    out.update(_nn(bench, rec, samples))
    out.update(_comm(bench, rec, samples))
    out.update(_partition(bench, rec))
    out.update(_simulate(bench, rec, samples))
    out.update(_spawn(bench, rec, 3))
    return out
