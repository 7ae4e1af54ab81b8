"""One run of one workload: cold builds, timed samples, oracles, hygiene.

The run has two shapes.  With tracing off it measures the seven
end-to-end metrics.  With tracing on it repeats the same phases with the
harness recorder enabled (``spans.py``), alternates untraced and
``repro.obs``-traced fits to get the tracing overhead, reads the counters
each package exports, and runs the isolated probes of ``probes.py``.

An *operation* is one cold build, one timed ``fit`` sample or one timed
``predict`` sample.  It fails when it raises (a tripped
``REPRO_PARALLEL_TIMEOUT`` raises), when an oracle that checks its
output breaks, or when the run leaks a process or a shm segment.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import platform
import statistics
import time
import traceback
from contextlib import contextmanager
from typing import Dict, List, Tuple

import numpy as np
import scipy

from repro.comm.tracker import Category
from repro.dist import make_algorithm
from repro.graph.datasets import Dataset
from repro.graph.generators import rmat, stochastic_block_model
from repro.graph.normalize import gcn_normalize
from repro.graph.permutation import random_permutation
from repro.simulate import predict_epoch

import probes
from spans import Recorder
from workloads import Config, Graph, Workload

__all__ = ["host_fingerprint", "nproc", "run_workload"]

COLD_BUILDS = 5
#: Timed ``fit`` and ``predict`` samples a run takes at least: with 40,
#: the p75 has ten samples beyond it.
SAMPLES = 40
#: A traced run spends its time on the probes instead.
COLD_BUILDS_TRACED = 3
TRACED_SAMPLES = 10
SERIAL_TOL = 1e-8
VIRTUAL_TOL = 1e-12
SHM_DIR = "/dev/shm"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def host_fingerprint() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy: no dict mode
        blas = "unknown"
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loadavg": list(os.getloadavg()),
    }


class Ops:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)


def build_dataset(graph: Graph, seed: int, rec: Recorder
                  ) -> Tuple[Dataset, float, float]:
    """The workload's inputs from ``seed``; returns the dataset and the
    seconds spent generating and normalising (harness cost, not set-up)."""
    n = graph.n
    with rec.span("graph.generate") as gen:
        if graph.kind == "rmat":
            scale = max(1, math.ceil(math.log2(n)))
            adj = rmat(scale=scale,
                       edge_factor=graph.avg_degree * n / (2 * (1 << scale)),
                       seed=seed, n=n)
        else:
            block = n // graph.blocks
            adj = stochastic_block_model(
                (block,) * graph.blocks, p_in=graph.avg_degree / block,
                p_out=2.0 / n, seed=seed,
            ).permute(random_permutation(n, seed=seed + 1))
        rng = np.random.default_rng(seed + 1)
        features = rng.standard_normal((n, graph.f))
        labels = rng.integers(0, graph.classes, size=n, dtype=np.int64)
    with rec.span("graph.normalize") as norm:
        adjacency = gcn_normalize(adj)
    ds = Dataset(name=f"{graph.kind}-{n}", adjacency=adjacency,
                 features=features, labels=labels,
                 num_classes=graph.classes,
                 train_mask=np.ones(n, dtype=bool))
    return ds, gen.seconds, norm.seconds


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def read_rss_mb() -> Tuple[float, float]:
    """``(driver, sum over live workers)`` peak resident set, in MB."""
    workers = sum(_vm_hwm_mb(c.pid)
                  for c in multiprocessing.active_children())
    return _vm_hwm_mb(os.getpid()), workers


def _p75(xs: List[float]) -> float:
    return statistics.quantiles(xs, n=4)[2] if len(xs) >= 2 else xs[0]


class ConfigBench:
    """Everything measured on one (workload, configuration) pair.

    ``algo`` is the resident object the timed samples run on; ``virt``
    is the object virtual-only read-outs use -- ``algo`` itself on a
    virtual workload, the same-seed virtual twin on a process one.
    """

    def __init__(self, wl: Workload, cfg: Config, ds: Dataset, seed: int,
                 rec: Recorder, ops: Ops, workers: int):
        self.wl, self.cfg, self.ds, self.seed = wl, cfg, ds, seed
        self.rec, self.ops, self.workers = rec, ops, workers
        self.process = wl.backend == "process"
        self.algo = None
        self.virt = None
        self.make_s: List[float] = []
        self.first_fit_s: List[float] = []
        self.close_s: List[float] = []
        self.epoch_s: List[float] = []
        self.traced_epoch_s: List[float] = []
        self.predict_s: List[float] = []
        self.twin_epoch_s: List[float] = []
        self.losses: List[float] = []     # resident trajectory, pre-timing
        self.last_hist = None
        self.last_trace = None
        self.last_traced_hist = None
        self.last_traced_wall = 0.0
        self.msgs_per_fit = 0
        self.serial_err = 0.0

    # -------------------------------------------------------------- #
    def _make(self, backend: str):
        kw = dict(self.cfg.options)
        if backend == "process":
            kw.update(backend="process", workers=self.workers,
                      transport=self.wl.transport)
        return make_algorithm(self.cfg.family, self.cfg.p, self.ds,
                              hidden=self.wl.hidden, seed=self.seed, **kw)

    def _fit(self, algo, epochs: int):
        return algo.fit(self.ds.features, self.ds.labels, epochs=epochs)

    def _close(self, algo) -> None:
        if self.process:
            with self.rec.span("parallel.close") as cl:
                algo.rt.close()
            self.close_s.append(cl.seconds)

    @contextmanager
    def _operation(self):
        """One counted operation: an exception marks it failed and
        propagates (the pool is not trusted afterwards)."""
        self.ops.attempted += 1
        try:
            yield
        except Exception as exc:
            self.ops.fail(f"{self.cfg.label}: {exc!r}")
            raise

    # -------------------------------------------------------------- #
    def cold_builds(self, count: int) -> None:
        """``make_algorithm`` -> first ``fit(epochs=1)`` returns, then
        ``close()``; the last build stays resident."""
        for i in range(count):
            algo = None
            try:
                with self._operation():
                    with self.rec.span("dist.make_algorithm") as mk:
                        algo = self._make(self.wl.backend)
                    with self.rec.span("dist.first_fit") as ff:
                        hist = self._fit(algo, 1)
                self.make_s.append(mk.seconds)
                self.first_fit_s.append(ff.seconds)
                if i == count - 1:
                    self.algo, algo = algo, None
                    self.losses = list(hist.losses)
            finally:
                if algo is not None:
                    self._close(algo)
        if not self.process:
            self.virt = self.algo

    def warm_up(self) -> None:
        for _ in range(2):
            self.losses.extend(self._fit(self.algo, self.wl.k).losses)

    def sample_fit(self, traced: bool = False) -> None:
        k = self.wl.k
        tracker = self.algo.rt.tracker
        msgs = tracker.total_messages()
        with self._operation():
            if traced:
                from repro.obs import traced_fit

                with self.rec.span("dist.fit.traced") as s:
                    hist, trace = traced_fit(
                        self.algo, self.ds.features, self.ds.labels, k)
                self.traced_epoch_s.append(s.seconds / k)
                self.last_trace = trace
                self.last_traced_hist = hist
                self.last_traced_wall = s.seconds
            else:
                with self.rec.span("dist.fit") as s:
                    hist = self._fit(self.algo, k)
                self.epoch_s.append(s.seconds / k)
        self.last_hist = hist
        self.msgs_per_fit = tracker.total_messages() - msgs

    def sample_predict(self) -> None:
        with self._operation():
            with self.rec.span("dist.predict") as s:
                out = self.algo.predict()
        self.predict_s.append(s.seconds)
        if out.shape != (self.ds.num_vertices, self.ds.num_classes) \
                or not np.isfinite(out).all():
            self.ops.fail(f"{self.cfg.label}: predict output malformed")

    # -------------------------------------------------------------- #
    def end_to_end(self) -> Dict[str, float]:
        last = self.last_hist.epochs[-1]
        if self.msgs_per_fit % self.wl.k:
            self.ops.fail(f"{self.cfg.label}: {self.msgs_per_fit} messages "
                          f"do not divide over {self.wl.k} epochs")
        return {
            "setup_s": statistics.median(
                m + f for m, f in zip(self.make_s, self.first_fit_s)),
            "epoch_s": statistics.median(self.epoch_s),
            "predict_s": statistics.median(self.predict_s),
            "comm_bytes_per_epoch": last.comm_bytes,
            "max_rank_comm_bytes_per_epoch": last.max_rank_comm_bytes,
            "comm_msgs_per_epoch": self.msgs_per_fit // self.wl.k,
        }

    # -------------------------------------------------------------- #
    def build_twin(self, timed_seconds: float) -> None:
        """Process workloads: the same seed on the virtual runtime, run
        through the same fit sequence as the resident object's untimed
        prefix.  Losses must agree to 1e-12 and the per-epoch ledger and
        message counts exactly.  ``timed_seconds > 0`` also times it
        (traced pass: ``parallel.speedup_vs_virtual``)."""
        k = self.wl.k
        with self.rec.span("dist.virtual_twin"):
            twin = self._make("virtual")
            losses = list(self._fit(twin, 1).losses)
            for _ in range(2):
                msgs = twin.rt.tracker.total_messages()
                hist = self._fit(twin, k)
                losses.extend(hist.losses)
            msgs = twin.rt.tracker.total_messages() - msgs
            if timed_seconds > 0:
                deadline = time.perf_counter() + timed_seconds
                while (len(self.twin_epoch_s) < 3
                       or time.perf_counter() < deadline):
                    with self.rec.span("dist.fit.twin") as s:
                        hist = self._fit(twin, k)
                    self.twin_epoch_s.append(s.seconds / k)
        self.virt = twin
        drift = max(abs(a - b) for a, b in zip(losses, self.losses))
        if len(losses) != len(self.losses) or not drift <= VIRTUAL_TOL:
            self.ops.fail(f"{self.cfg.label}: process losses drift {drift} "
                          "from the virtual run of the same seed")
        ours, theirs = self.last_hist.epochs[-1], hist.epochs[-1]
        if (ours.bytes_by_category != theirs.bytes_by_category
                or ours.max_rank_comm_bytes != theirs.max_rank_comm_bytes
                or self.msgs_per_fit != msgs):
            self.ops.fail(f"{self.cfg.label}: process ledger differs from "
                          "the virtual ledger")

    def simulated_bytes_match(self) -> bool:
        """``simulate.predict_epoch`` bytes == ledger bytes."""
        last = self.last_hist.epochs[-1]
        point = predict_epoch(self.cfg.family, self.ds, self.cfg.p,
                              hidden=self.wl.hidden, **self.sim_kwargs())
        ok = all(point.bytes_by_category[c] == last.bytes_by_category[c]
                 for c in Category.COMM)
        if not ok:
            self.ops.fail(f"{self.cfg.label}: simulator bytes "
                          f"{point.bytes_by_category} != ledger bytes "
                          f"{last.bytes_by_category}")
        return ok

    def sim_kwargs(self) -> dict:
        kw = {key: v for key, v in self.cfg.options.items()
              if key != "partition"}
        if "partition" in self.cfg.options:
            kw["distribution"] = self.virt.distribution
        return kw

    def verify_serial(self) -> None:
        """Resets ``virt``'s model, so it runs after everything that
        reads the trained state."""
        with self.rec.span("dist.verify_against_serial"):
            self.serial_err = float(self.virt.verify_against_serial(
                self.ds.features, self.ds.labels, epochs=2))
        if not self.serial_err <= SERIAL_TOL:
            self.ops.fail(f"{self.cfg.label}: serial divergence "
                          f"{self.serial_err}")

    def close(self) -> None:
        if self.algo is not None:
            algo, self.algo = self.algo, None
            self._close(algo)

    # -------------------------------------------------------------- #
    def layer_metrics(self, out_dir: str) -> Dict[str, float]:
        """Per-layer numbers of this configuration (traced pass)."""
        k = self.wl.k
        m: Dict[str, float] = {
            "dist.make_algorithm_s": statistics.median(self.make_s),
            "dist.first_fit_s": statistics.median(self.first_fit_s),
            f"dist.epoch_s.{self.cfg.label}":
                statistics.median(self.epoch_s),
            "dist.epoch_p75_s": _p75(self.epoch_s),
            "dist.epoch_max_s": max(self.epoch_s),
            "dist.dense_words_per_rank":
                self.virt.dense_memory_words_per_rank(),
        }
        last = self.last_hist.epochs[-1]
        for c in Category.COMM:
            m[f"comm.bytes_per_epoch.{c}"] = last.bytes_by_category[c]
        m["comm.modeled_epoch_s"] = last.modeled_seconds
        plan = self.virt.rt.plan.stats()
        m["comm.plan_hit_ratio"] = plan["hits"] / max(
            1, plan["hits"] + plan["misses"])

        # repro.obs: what the in-program spans say about one traced fit.
        trace = self.last_trace
        measured = trace.measured_epoch_breakdown(skip_first=True)
        traced_epoch = self.last_traced_wall / k
        m["obs.trace_overhead"] = (statistics.median(self.traced_epoch_s)
                                   / statistics.median(self.epoch_s))
        for c in Category.ALL:
            m[f"obs.self_s.{c}"] = measured.get(c, 0.0)
        m["obs.residual_share"] = (
            traced_epoch - sum(measured.get(c, 0.0) for c in Category.ALL)
        ) / traced_epoch
        m.update(self._drift(out_dir))

        if self.process:
            m.update(self._parallel_metrics())
        return m

    def _drift(self, out_dir: str) -> Dict[str, float]:
        """measured / modeled seconds per category, via the exported
        chrome trace and ``repro.obs.drift_report``."""
        from repro.obs import drift_report, export_chrome_trace
        from repro.obs.report import build_trace_meta

        path = os.path.join(
            out_dir, f"chrome-{self.wl.name}-{self.cfg.label}"
                     f"-seed{self.seed}.json")
        doc = export_chrome_trace(
            self.last_trace, path,
            extra=build_trace_meta({}, self.last_traced_hist,
                                   self.last_trace, self.last_traced_wall))
        rows = {r["category"]: r["drift"]
                for r in drift_report(doc)["categories"]}
        return {f"simulate.drift.{c}": rows.get(c) or 0.0
                for c in ("spmm", "dcomm", "scomm", "misc")}

    def _parallel_metrics(self) -> Dict[str, float]:
        k, rt, rec = self.wl.k, self.algo.rt, self.rec
        rtts = []
        for _ in range(10):
            with rec.span("parallel.stats") as s:
                full0 = rt.backend_stats()
            rtts.append(s.seconds)
        # The worker read-out above is itself a dispatch; the
        # driver-only snapshot brackets exactly one fit.
        drv0 = rt.backend_stats(workers=False)
        self._fit(self.algo, k)
        drv1 = rt.backend_stats(workers=False)
        full1 = rt.backend_stats()
        double = []
        for _ in range(3):
            with rec.span("dist.fit.double") as s:
                self._fit(self.algo, 2 * k)
            double.append(s.seconds)
        xchg = self.last_trace.exchange_summary()
        process_epoch = statistics.median(self.epoch_s)
        m = {
            "parallel.close_s": statistics.median(self.close_s),
            "parallel.dispatch_rtt_s": statistics.median(rtts),
            "parallel.fit_overhead_s":
                2 * k * process_epoch - statistics.median(double),
            "parallel.dispatches_per_fit":
                drv1["dispatches"] - drv0["dispatches"],
            "parallel.digest_checks_per_fit":
                drv1["digest_checks"] - drv0["digest_checks"],
            "parallel.exchanges_per_epoch":
                (full1["exchanges"] - full0["exchanges"]) / k,
            "parallel.channel_bytes_per_epoch":
                (full1["channel_bytes"] - full0["channel_bytes"]) / k,
            "parallel.worker_rss_mb": read_rss_mb()[1],
            "parallel.restarts": full1["restarts"],
            "parallel.xchg_serialize_s": xchg["serialize_s"] / k,
            "parallel.xchg_wait_s": xchg["wait_s"] / k,
            "parallel.xchg_copy_s": xchg["copy_s"] / k,
            "parallel.xchg_wait_share":
                xchg["wait_s"] / xchg["seconds"] if xchg["seconds"] else 0.0,
        }
        if nproc() > 1 and self.twin_epoch_s:
            speedup = statistics.median(self.twin_epoch_s) / process_epoch
            m["parallel.speedup_vs_virtual"] = speedup
            m["parallel.efficiency"] = speedup / self.workers
        return m


def _combine(parts: List[Dict[str, float]], units: Dict[str, str]
             ) -> Dict[str, float]:
    """One value per metric for a multi-configuration workload: times,
    bytes and counts add over the configurations; ratios and per-rank
    sizes are averaged."""
    out: Dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            out[key] = out.get(key, 0) + value
    for key in out:
        if units.get(key) in ("ratio", "words"):
            out[key] /= len(parts)
    return out


def _sample_rounds(benches: List[ConfigBench], seconds: float,
                   min_samples: int, traced: bool) -> None:
    """Timed samples until ``seconds`` have passed and every
    configuration has ``min_samples`` of each kind.

    One round is a ``fit`` and a ``predict`` (and, traced, a
    ``repro.obs``-traced ``fit``) on every configuration in turn, so each
    kind of sample is spread over the whole window: every family sees the
    same drift, and a burst of host noise shorter than half the window
    moves no median."""
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < min_samples or time.perf_counter() < deadline:
        for bench in benches:
            bench.sample_fit()
            if traced:
                bench.sample_fit(traced=True)
            bench.sample_predict()
        rounds += 1


def _measure(wl: Workload, ds: Dataset, benches: List[ConfigBench],
             seconds: float, trace: bool, smoke: bool, rec: Recorder,
             ops: Ops, out_dir: str, units: Dict[str, str]
             ) -> Tuple[Dict[str, float], dict]:
    """The phases of one run, in order; returns the metrics of the
    requested pass and the sample counts."""
    min_samples = 3 if smoke else (TRACED_SAMPLES if trace else SAMPLES)
    builds = 2 if smoke else (COLD_BUILDS_TRACED if trace else COLD_BUILDS)
    for bench in benches:
        bench.cold_builds(builds)
        bench.warm_up()
    # A traced run spends the other half of its time on the probes.
    _sample_rounds(benches, (0.5 if trace else 1.0) * seconds, min_samples,
                   traced=trace)
    # Peak memory before the oracles build their reference models.
    driver_mb, workers_mb = read_rss_mb()
    end_to_end = _combine([b.end_to_end() for b in benches], units)
    end_to_end["peak_rss_mb"] = driver_mb + workers_mb
    counts = {"cold_builds": builds, "fit": len(benches[0].epoch_s),
              "predict": len(benches[0].predict_s)}

    for bench in benches:
        if bench.process:
            bench.build_twin(0.15 * seconds if trace else 0.0)
    # a list, not a generator: every configuration is checked
    bytes_match = all([b.simulated_bytes_match() for b in benches])
    layer: Dict[str, float] = {}
    if trace:
        layer = _combine([b.layer_metrics(out_dir) for b in benches], units)
        with rec.span("probes"):
            layer.update(probes.run_all(benches[0], rec, smoke))
        layer["graph.nnz"] = ds.adjacency.nnz
        layer["simulate.bytes_match"] = int(bytes_match)
        if sum(layer[f"comm.bytes_per_epoch.{c}"] for c in Category.COMM) \
                != end_to_end["comm_bytes_per_epoch"]:
            ops.fail("per-category bytes do not add up to "
                     "comm_bytes_per_epoch")
    for bench in benches:
        # The serial oracle retrains from fresh weights, so it goes last.
        if trace or not bench.process:
            bench.verify_serial()
    layer["dist.verify_serial_err"] = max(b.serial_err for b in benches)
    return (layer if trace else end_to_end), counts


def _check_hygiene(ops: Ops, shm_before: set) -> None:
    """No child process and no new shm segment may outlive the run."""
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    survivors = multiprocessing.active_children()
    for child in survivors:
        child.terminate()
    for child in survivors:
        child.join(timeout=5)
    if survivors:
        ops.fail(f"{len(survivors)} child process(es) survived close()")
    leaked = sorted(_shm_segments() - shm_before)
    if leaked:
        ops.fail(f"leaked shm segments: {leaked[:4]}")


def _shm_segments() -> set:
    """Shared-memory segments; ``sem.*`` entries are the named semaphores
    of multiprocessing queues, which live until their feeder threads end
    with the interpreter."""
    if not os.path.isdir(SHM_DIR):
        return set()
    return {f for f in os.listdir(SHM_DIR) if not f.startswith("sem.")}


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 smoke: bool, out_dir: str, units: Dict[str, str]) -> dict:
    """Run one workload once; returns the run document, whose ``result``
    is the benchmark's one-line answer.  ``units`` is the requested
    pass's metric table from ``BENCHMARK.json``, name -> unit."""
    rec = Recorder(run_id=f"{wl.name}/seed{seed}", enabled=trace)
    ops = Ops()
    shm_before = _shm_segments()
    benches: List[ConfigBench] = []
    metrics: Dict[str, float] = {}
    counts: dict = {}
    try:
        with rec.span("run"):
            ds, gen_s, norm_s = build_dataset(wl.graph, seed, rec)
            benches = [ConfigBench(wl, cfg, ds, seed, rec, ops,
                                   workers=min(2, nproc()))
                       for cfg in wl.configs]
            metrics, counts = _measure(wl, ds, benches, seconds, trace,
                                       smoke, rec, ops, out_dir, units)
            if trace:
                metrics["graph.generate_s"] = gen_s
                metrics["graph.normalize_s"] = norm_s
    except Exception as exc:
        # A failed operation already counted itself; anything else that
        # stops the run is a failure too, never a silently short result.
        if not ops.failed:
            ops.fail(f"run aborted: {exc!r}")
        traceback.print_exc()
    finally:
        for bench in benches:
            bench.close()
        _check_hygiene(ops, shm_before)
    if trace:
        # A metric that does not apply to this workload reads 0.
        metrics = {name: metrics.get(name, 0.0) for name in units}
        rec.write(os.path.join(out_dir, f"spans-{wl.name}-seed{seed}.json"))
    extras = {}
    if not trace and not ops.failed:
        extras = {f"dist.epoch_s.{b.cfg.label}":
                  statistics.median(b.epoch_s) for b in benches}
        extras["dist.epoch_p75_s"] = sum(_p75(b.epoch_s) for b in benches)
    attempted = max(ops.attempted, 1)
    failed = min(ops.failed, attempted)
    return {
        "workload": wl.name,
        "seed": seed,
        "samples": counts,
        "errors": ops.errors,
        "extras": extras,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
        },
    }
