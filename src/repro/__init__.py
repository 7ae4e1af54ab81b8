"""repro: reproduction of "Reducing Communication in Graph Neural Network
Training" (Tripathy, Yelick, Buluc -- CAGNET, SC 2020).

The package implements the paper's full system on a virtual distributed
runtime:

* :mod:`repro.comm` -- the torch.distributed/NCCL stand-in: process
  meshes, collectives that really move numpy blocks, alpha-beta cost
  accounting under a Summit-like machine profile;
* :mod:`repro.sparse` -- from-scratch CSR storage, the SpMM kernel,
  block distributions, the hypersparsity analysis, and the SpMM
  performance model;
* :mod:`repro.graph` -- graph generators (R-MAT, Erdos-Renyi, SBM), GCN
  normalisation, random vertex permutation, and synthetic stand-ins for
  the Reddit / Amazon / Protein datasets of Table VI;
* :mod:`repro.partition` -- edge-cut metrics, random baselines, and a
  multilevel (Metis-like) k-way partitioner;
* :mod:`repro.nn` -- the serial GCN reference with the paper's explicit
  forward/backward equations, loss, and optimisers;
* :mod:`repro.sampling` -- k-hop receptive fields: Section I's
  neighbourhood-explosion measurement;
* :mod:`repro.dist` -- the paper's contribution: the 1D (five backward
  variants, including the partition-aware ghost-row exchange), 1.5D, 2D
  (SUMMA) and 3D (Split-SpMM) distributed training algorithms, all
  verified bit-close against the serial reference, plus the
  ``Distribution`` partition-to-layout bridge;
* :mod:`repro.parallel` -- the true multiprocess execution backend:
  ranks as OS processes, collectives over shared memory, the virtual
  runtime's ledger and losses as the correctness oracle;
* :mod:`repro.simulate` -- the scaling simulator: the algorithms' own
  communication schedules priced at any rank count and machine;
* :mod:`repro.analysis` -- the Section IV closed-form communication
  costs, the Fig. 2 / Fig. 3 reproductions at published dataset sizes,
  the memory model, and the repro-lint checker;
* :mod:`repro.obs` -- wall-clock observability: span tracing across
  driver and workers, Chrome/Perfetto trace export carrying the run's
  one record, and the model-vs-measured drift report.

Quickstart::

    from repro import make_synthetic, make_algorithm

    ds = make_synthetic(n=512, avg_degree=8, f=32, n_classes=4)
    algo = make_algorithm("2d", p=16, dataset=ds)
    history = algo.fit(ds.features, ds.labels, epochs=10)
    print(history.final_loss, history.mean_breakdown())

Top-level names resolve lazily (PEP 562): ``import repro`` is cheap and
pulls a sub-package in only when one of its exports is first touched.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Top-level export -> providing sub-module.  Resolved on first access so
#: ``import repro`` does not eagerly import every sub-package.
_EXPORTS = {
    "VirtualRuntime": "repro.comm",
    "Category": "repro.comm",
    "MachineProfile": "repro.config",
    "SUMMIT": "repro.config",
    "COMMODITY": "repro.config",
    "get_profile": "repro.config",
    "CSRMatrix": "repro.sparse",
    "spmm": "repro.sparse",
    "Dataset": "repro.graph",
    "make_synthetic": "repro.graph",
    "make_standin": "repro.graph",
    "published_spec": "repro.graph",
    "gcn_normalize": "repro.graph",
    "GCN": "repro.nn",
    "SerialTrainer": "repro.nn",
    "SGD": "repro.nn",
    "Adam": "repro.nn",
    "ALGORITHMS": "repro.dist",
    "Distribution": "repro.dist",
    "make_algorithm": "repro.dist",
    "make_distribution": "repro.dist",
    "make_runtime_for": "repro.dist",
    "ProcessBackend": "repro.parallel",
    "ParallelRuntime": "repro.parallel",
    "ParallelAlgorithm": "repro.parallel",
    "DistAlgorithm": "repro.dist",
    "DistGCN1D": "repro.dist",
    "DistGCN15D": "repro.dist",
    "DistGCN2D": "repro.dist",
    "DistGCN3D": "repro.dist",
    "GraphModel": "repro.simulate",
    "predict_epoch": "repro.simulate",
    "sweep": "repro.simulate",
    "evaluate_schedule": "repro.simulate",
    "get_machine": "repro.simulate",
    "list_machines": "repro.simulate",
    "MergedTrace": "repro.obs",
    "SpanRecorder": "repro.obs",
    "traced_fit": "repro.obs",
    "export_chrome_trace": "repro.obs",
    "validate_chrome_trace": "repro.obs",
    "drift_report": "repro.obs",
    "format_drift_report": "repro.obs",
    "figure2_throughput": "repro.analysis",
    "figure3_breakdown": "repro.analysis",
    "words_1d": "repro.analysis",
    "words_2d": "repro.analysis",
    "words_3d": "repro.analysis",
    "crossover_p_2d_vs_1d": "repro.analysis",
}

#: Sub-packages reachable as attributes (``import repro; repro.comm``),
#: matching the behaviour the eager imports used to provide.
_SUBPACKAGES = (
    "analysis", "cli", "comm", "config", "dist", "graph", "nn", "obs",
    "parallel", "partition", "sampling", "simulate", "sparse",
)

__all__ = ["__version__"] + sorted(_EXPORTS)


def __getattr__(name: str):
    """Lazy top-level exports (PEP 562 module ``__getattr__``)."""
    if name in _EXPORTS:
        value = getattr(import_module(_EXPORTS[name]), name)
        globals()[name] = value  # cache: subsequent lookups skip this hook
        return value
    if name in _SUBPACKAGES:
        value = import_module(f"repro.{name}")
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBPACKAGES))
