"""Analysis layer: the paper's flat closed forms (``formulas``), memory
estimates, figure reproductions and scaling tables -- the latter two are
views of :mod:`repro.simulate`, which prices every epoch with the one
price list of :mod:`repro.comm.cost_model` -- and the static lint rules.

Names resolve lazily (PEP 562, same mechanism as :mod:`repro`), so
importing one of them does not load ``scaling -> simulate -> dist ->
comm`` for the others.
"""

from importlib import import_module

#: Export -> providing module, checked against module contents by lint
#: rule R6.
_EXPORTS = {
    "FIG2_GPU_COUNTS": "repro.analysis.figures",
    "FigurePoint": "repro.analysis.figures",
    "figure2_throughput": "repro.analysis.figures",
    "figure3_breakdown": "repro.analysis.figures",
    "CommEstimate": "repro.analysis.formulas",
    "crossover_p_2d_vs_1d": "repro.analysis.formulas",
    "ratio_1d_over_2d": "repro.analysis.formulas",
    "words_15d": "repro.analysis.formulas",
    "words_1d": "repro.analysis.formulas",
    "words_1d_symmetric": "repro.analysis.formulas",
    "words_1d_transpose": "repro.analysis.formulas",
    "words_2d": "repro.analysis.formulas",
    "words_3d": "repro.analysis.formulas",
    "V100_BYTES": "repro.analysis.memory",
    "MemoryEstimate": "repro.analysis.memory",
    "feasibility_table": "repro.analysis.memory",
    "memory_15d": "repro.analysis.memory",
    "memory_1d": "repro.analysis.memory",
    "memory_2d": "repro.analysis.memory",
    "memory_3d": "repro.analysis.memory",
    "CrossoverPoint": "repro.analysis.scaling",
    "crossover_points": "repro.analysis.scaling",
    "format_crossovers": "repro.analysis.scaling",
    "format_scaling_table": "repro.analysis.scaling",
    "scaling_table": "repro.analysis.scaling",
    "Violation": "repro.analysis.lint",
    "default_rules": "repro.analysis.lint",
    "format_violations": "repro.analysis.lint",
    "lint_file": "repro.analysis.lint",
    "run_lint": "repro.analysis.lint",
}

#: Modules reachable as attributes (``repro.analysis.lint``).
_SUBPACKAGES = ("figures", "formulas", "lint", "memory", "scaling")

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Lazy exports (PEP 562 module ``__getattr__``)."""
    if name in _EXPORTS:
        value = getattr(import_module(_EXPORTS[name]), name)
        globals()[name] = value
        return value
    if name in _SUBPACKAGES:
        value = import_module(f"repro.analysis.{name}")
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBPACKAGES))
