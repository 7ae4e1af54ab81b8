"""The model-vs-measured drift report behind ``repro report``.

The repo has three answers to "how long is an epoch":

* **modeled** -- the executed ledger's seconds (``CommTracker`` charges
  replayed during the real run, Fig. 3's per-category bars);
* **simulated** -- ``repro.simulate.predict_epoch`` pricing the symbolic
  comm schedule on the same machine profile, without running anything;
* **measured** -- the wall clock, from merged spans.

This module builds the run's one record (:func:`build_trace_meta`,
schema ``repro-run/1``), lines the three up per category (and per
algorithm phase) and reports the drift ratio measured/modeled.  A trace
file written by ``repro train --trace`` embeds that record in its
``"repro"`` object, so a report needs nothing but the file: the
simulated column is recomputed from the recorded config (dataset
regenerated from the recorded seed).

Reading the drift honestly: modeled/simulated seconds price a *virtual*
machine profile (GPU-rate GEMMs, network alpha-beta), while measured
seconds are numpy on the host, so the interesting signal is the
*shape* -- which categories dominate and how that differs.  ``trpose``
is charge-only (2D/3D transposes move no data in this implementation),
so its measured column is ~0 by design.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.chrome import trace_from_chrome
from repro.obs.tracing import MergedTrace

__all__ = [
    "build_trace_meta",
    "drift_report",
    "format_drift_report",
]

#: Config keys forwarded to ``predict_epoch`` as algorithm kwargs.
_ALGO_KWARG_KEYS = ("variant", "replication")


def _comm_bytes(delta) -> Dict[str, int]:
    return {"dcomm": delta.dcomm_bytes, "scomm": delta.scomm_bytes,
            "max_rank": delta.max_rank_comm_bytes}


def build_trace_meta(config: dict, history, trace: Optional[MergedTrace],
                     wall_seconds: float,
                     backend_stats: Optional[dict] = None) -> dict:
    """The run's one record (schema ``repro-run/1``).

    ``repro train --json`` prints it and ``--trace`` embeds it as the
    trace's ``"repro"`` object.  ``config`` records how the run was
    invoked (enough to regenerate the dataset and re-simulate);
    ``history`` supplies the losses and the modeled ledger side, the
    one-time set-up included; ``trace`` the measured side (``None`` for
    an untraced run); ``backend_stats`` the process backend's counters.
    """
    modeled: Dict[str, object] = {"epochs": len(history.epochs)}
    if history.losses:
        modeled["final_loss"] = float(history.losses[-1])
    try:
        modeled["epoch_breakdown"] = {
            str(k): float(v)
            for k, v in history.mean_breakdown(skip_first=True).items()
        }
    except (ValueError, ZeroDivisionError):
        pass
    last = history.epochs[-1] if history.epochs else None
    setup = history.setup
    return {
        "schema": "repro-run/1",
        "config": dict(config),
        "losses": list(history.losses),
        "final_accuracy": None if last is None else last.train_accuracy,
        "per_epoch_comm_bytes": None if last is None else _comm_bytes(last),
        # the one-time A^T H^0 aggregation, charged outside every epoch
        "setup": None if setup is None else {
            "modeled_seconds": setup.modeled_seconds,
            "seconds_by_category": setup.seconds_by_category,
            "comm_bytes": _comm_bytes(setup),
        },
        "modeled": modeled,
        "measured": None if trace is None else trace.summary(),
        "wall_seconds": float(wall_seconds),
        "backend_stats": backend_stats,
    }


def _simulated_breakdown(config: dict
                         ) -> Tuple[Optional[Dict[str, float]], str]:
    """Re-run the simulator from a recorded config.

    Returns ``(per-category seconds, note)``; the breakdown is ``None``
    with the reason in ``note`` when the config is missing pieces or the
    simulator rejects it (e.g. a trace from an older schema).
    """
    algorithm = config.get("algorithm")
    gpus = config.get("gpus")
    if not algorithm or not gpus:
        return None, "config lacks algorithm/gpus; cannot simulate"
    try:
        from repro.graph import make_standin, make_synthetic
        from repro.simulate import predict_epoch

        if config.get("dataset"):
            ds = make_standin(
                config["dataset"],
                scale_divisor=int(config.get("scale", 1024)),
                seed=int(config.get("seed", 0)),
            )
        else:
            ds = make_synthetic(
                n=int(config.get("vertices", 256)),
                avg_degree=float(config.get("degree", 8.0)),
                f=int(config.get("features", 32)),
                n_classes=int(config.get("classes", 4)),
                seed=int(config.get("seed", 0)),
            )
        kwargs = {}
        for key in _ALGO_KWARG_KEYS:
            if config.get(key) is not None:
                kwargs[key] = config[key]
        if config.get("partition") and str(algorithm) == "1d":
            from repro.dist import Distribution

            kwargs["distribution"] = Distribution.build(
                config["partition"], ds.adjacency, int(gpus),
                seed=int(config.get("seed", 0)),
            )
        point = predict_epoch(
            str(algorithm), ds, int(gpus),
            machine=config.get("machine"),
            hidden=int(config.get("hidden", 16)),
            **kwargs,
        )
    except (KeyError, ValueError, TypeError) as exc:
        # Simulator rejection (unknown machine, infeasible grid, odd
        # config values) is a note in the report, not a crash.
        return None, f"simulation unavailable: {exc}"
    return (
        {str(k): float(v) for k, v in point.seconds_by_category.items()},
        "",
    )


def _compute_section(trace: MergedTrace, config: dict
                     ) -> Tuple[Optional[dict], str]:
    """Per-kernel measured-vs-modeled compute table.

    ``None`` when the trace carries no kernel profile (one not written
    by a traced fit).  Modeled seconds price each kernel's average call
    with the rules the ledger charges through
    (:mod:`repro.comm.cost_model`): SpMM via
    :class:`~repro.sparse.perfmodel.SpmmPerfModel` on the average
    operand shape, GEMMs by their flops, reduction folds by the bytes
    they touch.
    """
    prof = trace.profile_summary()
    if prof is None:
        return None, ""
    try:
        from repro.comm import cost_model as cm
        from repro.simulate.machines import get_machine
        from repro.sparse.perfmodel import SpmmPerfModel

        machine = get_machine(config.get("machine"))
        spmm_model = SpmmPerfModel.from_profile(machine)
    except (ImportError, KeyError, ValueError, TypeError) as exc:
        # An unknown machine name or missing perf-model rates degrades
        # to a measured-only profile table, never a crash.
        return None, f"kernel profile unusable: {exc}"
    rows = []
    for name, k in sorted(prof.get("kernels", {}).items()):
        calls = int(k["calls"])
        modeled = None
        if calls:
            extras = k.get("extras") or ()
            if name == "spmm" and len(extras) >= 3:
                nnz, nrows, ncols = (e / calls for e in extras[:3])
                modeled = calls * spmm_model.seconds(nnz, nrows, ncols)
            elif name.startswith("gemm."):
                modeled = calls * cm.gemm_seconds(
                    machine, float(k["flops"]) / calls)
            elif name == "reduce.fold":
                modeled = calls * cm.elementwise_seconds(
                    machine, float(k["bytes"]) / calls)
        measured = float(k["seconds"])
        rows.append({
            "kernel": name,
            "calls": calls,
            "measured_s": measured,
            "modeled_s": modeled,
            "drift": (measured / modeled) if modeled else None,
            "gflops": float(k["flops"]) / 1e9,
            "intensity": k.get("intensity"),
        })
    section = {
        "machine": machine.name,
        "kernels": rows,
        "peak_rss_bytes": prof.get("peak_rss_bytes"),
        "peak_rss_by_process": prof.get("peak_rss_by_process"),
        "peak_rss_total_bytes": prof.get("peak_rss_total_bytes"),
    }
    if prof.get("arena"):
        section["arena"] = dict(prof["arena"])
    return section, ""


def drift_report(payload: dict) -> dict:
    """Build the drift tables from an exported trace document.

    Returns a JSON-able dict with ``categories`` (modeled vs simulated
    vs measured seconds per ledger category plus measured/modeled drift
    ratio), ``phases`` (measured self seconds per span name),
    ``stragglers`` (pacesetter counts per worker), ``exchange`` totals,
    and ``notes`` explaining any missing column.
    """
    meta = payload.get("repro") or {}
    config = dict(meta.get("config") or {})
    modeled = {
        str(k): float(v)
        for k, v in (meta.get("modeled", {}).get("epoch_breakdown")
                     or {}).items()
    }
    trace = trace_from_chrome(payload)
    measured = trace.measured_epoch_breakdown()
    notes: List[str] = []
    if not modeled:
        notes.append("trace carries no modeled breakdown "
                     "(written without --trace via repro train?)")
    simulated, sim_note = _simulated_breakdown(config)
    if sim_note:
        notes.append(sim_note)
    ledger_cats = sorted(
        set(modeled) | set(simulated or {})
        | {c for c in measured if c not in ("epoch", "xchg")}
    )
    rows = []
    for cat in ledger_cats:
        m = modeled.get(cat)
        s = (simulated or {}).get(cat)
        w = measured.get(cat, 0.0)
        drift = (w / m) if m else None
        rows.append({
            "category": cat,
            "modeled_s": m,
            "simulated_s": s,
            "measured_s": w,
            "drift": drift,
        })
    compute, compute_note = _compute_section(trace, config)
    if compute_note:
        notes.append(compute_note)
    dropped = sum(int(info.get("dropped", 0))
                  for info in trace.workers.values())
    if dropped:
        notes.append(
            f"WARNING: {dropped} span(s) dropped (recorder ring filled); "
            "measured columns undercount -- re-run with a larger trace "
            "capacity")
    total_modeled = sum(v for v in modeled.values()) or None
    total_measured = sum(measured.values())
    return {
        "schema": "repro-report/1",
        "config": config,
        "dropped_spans": dropped,
        "compute": compute,
        "categories": rows,
        "totals": {
            "modeled_s": total_modeled,
            "simulated_s": (sum(simulated.values()) if simulated else None),
            "measured_s": total_measured,
            "drift": (total_measured / total_modeled
                      if total_modeled else None),
        },
        "phases": trace.phase_breakdown(),
        "stragglers": {str(k): v
                       for k, v in trace.straggler_counts().items()},
        "epochs": trace.epoch_stats(),
        "exchange": trace.exchange_summary(),
        "notes": notes,
    }


def _num(value: Optional[float], unit: str = "s") -> str:
    if value is None:
        return "-"
    if unit == "x":
        return f"{value:8.2f}x"
    return f"{value:.6f}"


def format_drift_report(report: dict) -> str:
    """Render the drift report as aligned text tables."""
    lines: List[str] = []
    config = report.get("config") or {}
    if config:
        lines.append(
            "run: algorithm={algorithm} P={gpus} backend={backend} "
            "epochs={epochs}".format(
                algorithm=config.get("algorithm", "?"),
                gpus=config.get("gpus", "?"),
                backend=config.get("backend", "?"),
                epochs=config.get("epochs", "?"),
            )
        )
        lines.append("")
    lines.append("per-category epoch seconds "
                 "(drift = measured / modeled):")
    header = ("category", "modeled", "simulated", "measured", "drift")
    rows = [
        (r["category"], _num(r["modeled_s"]), _num(r["simulated_s"]),
         _num(r["measured_s"]),
         _num(r["drift"], "x") if r["drift"] is not None else "-")
        for r in report.get("categories", [])
    ]
    totals = report.get("totals") or {}
    rows.append((
        "total", _num(totals.get("modeled_s")),
        _num(totals.get("simulated_s")), _num(totals.get("measured_s")),
        _num(totals.get("drift"), "x")
        if totals.get("drift") is not None else "-",
    ))
    lines.extend(_table(header, rows))
    compute = report.get("compute") or {}
    if compute.get("kernels"):
        lines.append("")
        lines.append("kernel compute (measured vs modeled on "
                     f"{compute.get('machine', '?')} rates):")
        lines.extend(_table(
            ("kernel", "calls", "measured", "modeled", "drift", "flop/B"),
            [(r["kernel"], str(r["calls"]), _num(r["measured_s"]),
              _num(r["modeled_s"]),
              _num(r["drift"], "x") if r["drift"] is not None else "-",
              (f"{r['intensity']:.2f}"
               if r.get("intensity") is not None else "-"))
             for r in compute["kernels"]],
        ))
        rss = compute.get("peak_rss_bytes")
        by_process = compute.get("peak_rss_by_process")
        if by_process:
            each = ", ".join(f"{name} {b / 1e6:.1f} MB"
                             for name, b in by_process.items())
            total = compute["peak_rss_total_bytes"] / 1e6
            lines.append(f"peak RSS: {each}; all processes {total:.1f} MB")
        elif rss:
            lines.append(f"peak RSS: {rss / 1e6:.1f} MB")
        arena = compute.get("arena") or {}
        if arena:
            lines.append(
                "shm arena: high water {hw} of {size} B ({occ:.0%}), "
                "{spills} spill(s)".format(
                    hw=arena.get("high_water_bytes", 0),
                    size=arena.get("size_bytes", 0),
                    occ=arena.get("occupancy", 0.0),
                    spills=arena.get("spills", 0)))
    phases = report.get("phases") or {}
    if phases:
        lines.append("")
        lines.append("measured phases (self seconds, nested work "
                     "excluded):")
        lines.extend(_table(
            ("phase", "category", "count", "seconds"),
            [(name, d["category"], str(d["count"]),
              _num(d["seconds"]))
             for name, d in sorted(phases.items(),
                                   key=lambda kv: -kv[1]["seconds"])],
        ))
    stragglers = report.get("stragglers") or {}
    if stragglers:
        lines.append("")
        lines.append("pacesetters (worker that ended each epoch last; "
                     "-1 = single recorder):")
        lines.extend(_table(
            ("worker", "epochs paced"),
            [(k, str(v)) for k, v in sorted(stragglers.items())],
        ))
    xchg = report.get("exchange") or {}
    if xchg.get("count"):
        lines.append("")
        lines.append(
            "exchanges: {count} totalling {seconds:.6f}s "
            "(serialize {serialize_s:.6f}s, wait {wait_s:.6f}s, "
            "copy {copy_s:.6f}s, {bytes_sent} B sent)".format(**xchg)
        )
    for note in report.get("notes") or []:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _table(header, rows) -> List[str]:
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(str(c))) for w, c in zip(widths, row)]
    fmt = "  ".join(f"{{:>{w}s}}" for w in widths)
    out = [fmt.format(*header)]
    out.append(fmt.format(*("-" * w for w in widths)))
    out.extend(fmt.format(*(str(c) for c in row)) for row in rows)
    return out
