"""Command-line interface: ``python -m repro <command>``.

Gives a downstream user the paper's headline artefacts without writing
code:

* ``table6``      -- the dataset table (published + stand-in check);
* ``figure2``     -- epoch throughput of the 2D algorithm, published sizes;
* ``figure3``     -- the per-epoch time breakdown;
* ``crossover``   -- the 1D-vs-2D words crossover per dataset;
* ``train``       -- train a GCN on a synthetic graph or a Table VI
  stand-in with any of the four algorithms and report loss, accuracy, and
  the communication ledger.  Its outputs: ``--json`` prints the run's
  one record (schema ``repro-run/1``: config, losses, modeled ledger,
  measured spans and kernel counters, backend counters), ``--trace``
  writes a Chrome trace embedding that same record, and ``--events``
  streams the hash-chained event log as the run goes;
* ``simulate``    -- predict one epoch on a named machine profile at any
  rank count (no execution, Section IV's analysis made concrete);
* ``sweep``       -- evaluate (algorithm x P x machine) grids up to
  P >= 16384 and report the per-point winner, with JSON output;
* ``explosion``   -- measure the neighbourhood explosion on a stand-in;
* ``report``      -- the model-vs-measured drift tables from a trace
  file written by ``train --trace`` (per-category seconds: modeled
  ledger vs simulator prediction vs measured wall clock, plus phases
  and stragglers);
* ``obs``         -- observability utilities: ``obs diff a.json b.json``
  flags per-category/per-phase regressions between two traces;
  ``obs validate-events log.jsonl`` checks an event log's hash chain;
* ``lint``        -- the repro-lint invariant checker: AST rules R1, R2,
  R4, R5, R7 and R8 over a source tree (exit 1 on violations).

Examples::

    python -m repro figure2
    python -m repro train --algorithm 2d --gpus 16 --dataset reddit
    python -m repro train --algorithm 1.5d --gpus 8 --replication 2
    python -m repro simulate --algorithm 2d --gpus 4096 --dataset reddit \
        --machine cori-gpu
    python -m repro sweep --dataset reddit --max-p 16384 --json sweep.json
    python -m repro crossover
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence


def _width(text: str):
    """``--hidden``: an int where the text spells one, else the float it
    spells -- which ``repro.nn.layers.check_widths`` refuses with the
    message every other bad width gets."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _print_table(header: Sequence[str], rows: Sequence[Sequence]) -> None:
    rows = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(header)
    ]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def _comm_bytes_line(delta) -> str:
    """A ledger delta's bytes by communication category over all ranks,
    and its busiest rank's."""
    by = delta.bytes_by_category
    return (f"dcomm {by['dcomm']} B, scomm {by['scomm']} B, "
            f"trpose {by['trpose']} B, "
            f"max/rank {delta.max_rank_comm_bytes} B")


def cmd_table6(_args: argparse.Namespace) -> int:
    from repro.graph import PUBLISHED

    rows = [
        (s.name, f"{s.vertices:,}", f"{s.edges:,}", s.features, s.labels,
         f"{s.avg_degree:.1f}")
        for s in PUBLISHED.values()
    ]
    print("Table VI -- dataset characteristics (published):\n")
    _print_table(
        ("name", "vertices", "edges", "features", "labels", "avg degree"),
        rows,
    )
    return 0


def cmd_figure2(args: argparse.Namespace) -> int:
    from repro.analysis.figures import figure2_throughput

    points = figure2_throughput(
        [args.dataset] if args.dataset else None
    )
    print("Figure 2 -- 2D epoch throughput (modeled, published sizes):\n")
    _print_table(
        ("dataset", "GPUs", "epochs/s", "sec/epoch", "dominant"),
        [
            (pt.dataset, pt.gpus, f"{pt.epochs_per_second:.3f}",
             f"{pt.epoch_seconds:.3f}", pt.dominant_category)
            for pt in points
        ],
    )
    return 0


def cmd_figure3(args: argparse.Namespace) -> int:
    from repro.analysis.figures import figure3_breakdown

    points = figure3_breakdown(
        [args.dataset] if args.dataset else None
    )
    print("Figure 3 -- 2D per-epoch time breakdown (seconds, modeled):\n")
    _print_table(
        ("dataset", "GPUs", "spmm", "dcomm", "scomm", "trpose", "misc"),
        [
            (
                pt.dataset, pt.gpus,
                *(f"{pt.breakdown[c]:.4f}"
                  for c in ("spmm", "dcomm", "scomm", "trpose", "misc")),
            )
            for pt in points
        ],
    )
    return 0


def cmd_crossover(_args: argparse.Namespace) -> int:
    from repro.analysis.formulas import crossover_p_2d_vs_1d
    from repro.graph import PUBLISHED

    rows = []
    for name, spec in PUBLISHED.items():
        cross = crossover_p_2d_vs_1d(
            spec.vertices, spec.edges, float(spec.features), 3
        )
        rows.append((name, cross))
    print("1D-vs-2D words crossover (first square P where 2D wins):\n")
    _print_table(("dataset", "crossover P"), rows)
    print("\npaper: 2D is competitive once sqrt(P) >= 5 (P ~ 25).")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from repro.dist import make_algorithm
    from repro.graph import make_standin, make_synthetic
    from repro.nn import SGD

    if args.dataset:
        ds = make_standin(args.dataset, scale_divisor=args.scale, seed=args.seed)
    else:
        ds = make_synthetic(
            n=args.vertices, avg_degree=args.degree, f=args.features,
            n_classes=args.classes, seed=args.seed,
        )
    kwargs = {}
    if args.algorithm == "1.5d":
        kwargs["replication"] = args.replication
    if args.algorithm == "1d":
        kwargs["variant"] = args.variant
    elif args.variant != "auto":
        print(f"--variant only applies to --algorithm 1d, "
              f"got {args.algorithm!r}", file=sys.stderr)
        return 2
    if args.partition:
        kwargs["partition"] = args.partition
    from repro.parallel import WorkerError

    try:
        algo = make_algorithm(
            args.algorithm, args.gpus, ds, hidden=args.hidden,
            seed=args.seed, optimizer=SGD(lr=args.lr),
            backend=args.backend, workers=args.workers,
            transport=args.transport if args.backend == "process" else None,
            faults=args.faults, max_restarts=args.max_restarts,
            **kwargs,
        )
    except ValueError as exc:
        return _usage_error(exc)
    except WorkerError as exc:
        # Worker-side construction errors carry a full remote traceback;
        # surface just the underlying error line, argparse-style, for
        # parity with the virtual backend's usage errors.
        print(str(exc).strip().splitlines()[-1], file=sys.stderr)
        return 2
    quiet = bool(args.json)
    if not quiet:
        print(f"dataset : {ds.name}  {ds.summary()}")
        print(f"machine : {algo.rt.describe()}")
        if args.partition:
            extras = (f"variant={args.variant}  "
                      if args.algorithm == "1d" else "")
            print(f"layout  : {extras}partition={args.partition} "
                  "(part-major vertex relabelling)")
    backend_stats = None
    trace = None
    machine = algo.rt.profile.name
    config = {
        "algorithm": args.algorithm, "gpus": args.gpus,
        "hidden": args.hidden, "epochs": args.epochs,
        "seed": args.seed, "lr": args.lr,
        "variant": args.variant if args.algorithm == "1d" else None,
        "replication": (args.replication
                        if args.algorithm == "1.5d" else None),
        "partition": args.partition, "dataset": args.dataset,
        "scale": args.scale, "vertices": args.vertices,
        "degree": args.degree, "features": args.features,
        "classes": args.classes, "backend": args.backend,
        "transport": (args.transport
                      if args.backend == "process" else None),
        "workers": args.workers, "machine": machine,
        "trace": args.trace, "events": args.events,
    }
    events_on = bool(args.events)
    if events_on:
        from repro.obs import events as _events

        _events.enable(args.events)
        _events.emit("run_start", config=config)
        if args.faults:
            _events.emit("fault_plan", plan=args.faults)
    status = "failed"
    try:
        import time as _time

        t0 = _time.perf_counter()
        fit_kwargs = {}
        if args.checkpoint:
            fit_kwargs["checkpoint_path"] = args.checkpoint
            fit_kwargs["checkpoint_every"] = args.checkpoint_every
        if args.trace:
            from repro.obs import traced_fit

            history, trace = traced_fit(algo, ds.features, ds.labels,
                                        args.epochs, **fit_kwargs)
        else:
            history = algo.fit(ds.features, ds.labels, epochs=args.epochs,
                               **fit_kwargs)
        elapsed = _time.perf_counter() - t0
        status = "ok"
        if args.backend == "process":
            backend_stats = algo.rt.backend_stats()
    finally:
        if args.backend == "process":
            algo.rt.close()
        if events_on:
            from repro.obs import events as _events

            if status == "ok":
                _events.emit("run_end", status=status,
                             epochs=len(history.epochs),
                             final_loss=float(history.losses[-1])
                             if history.losses else None,
                             wall_seconds=elapsed)
            else:
                _events.emit("run_end", status=status)
            _events.disable()
            if not quiet:
                print(f"wrote event log {args.events}")
    if not quiet:
        last = history.epochs[-1]
        bd = history.mean_breakdown(skip_first=True)
        print(f"\n{'epoch':>5s} {'loss':>9s} {'acc':>6s}")
        step = max(1, args.epochs // 10)
        rows = history.epochs[::step]
        if rows[-1] is not history.epochs[-1]:
            rows.append(history.epochs[-1])
        for e in rows:
            print(f"{e.epoch:5d} {e.loss:9.4f} {e.train_accuracy:6.3f}")
        print(f"\none-time aggregation (A^T H^0): "
              f"{_comm_bytes_line(history.setup)}")
        print(f"per-epoch communication: {_comm_bytes_line(last)}")
        total = sum(bd.values()) or 1.0
        print("modeled epoch breakdown: " + ", ".join(
            f"{k} {v / total:.0%}"
            for k, v in sorted(bd.items(), key=lambda kv: -kv[1])
        ))
        print(f"wall clock: {elapsed:.2f}s for {args.epochs} epochs "
              f"({args.backend} backend)")
        if backend_stats is not None:
            st = backend_stats
            print(f"process backend [{st['transport']}]: "
                  f"{st['dispatches']} dispatches for "
                  f"{st['commands']} commands "
                  f"({st['fit_dispatches']} resident fits, "
                  f"{st['fused_batches']} fused batches), "
                  f"{st['digest_checks']} digest checks, "
                  f"{st['channel_bytes'] / 1e6:.2f} MB channel traffic")
            if st.get("restarts"):
                print(f"elastic recovery: {st['restarts']} restart(s), "
                      f"{st['recovery_dispatches']} recovery "
                      f"dispatches, failure detection "
                      f"{st['detect_seconds']:.2f}s total")
            if st.get("checkpoints_written"):
                print(f"checkpoints: {st['checkpoints_written']} written "
                      f"in {st['checkpoint_seconds']:.3f}s")
    from repro.obs import build_trace_meta, export_chrome_trace

    record = build_trace_meta(config, history, trace, elapsed,
                              backend_stats=backend_stats)
    if trace is not None:
        export_chrome_trace(trace, args.trace, extra=record)
        if not quiet:
            print(f"wrote trace {args.trace} "
                  f"({len(trace.spans)} spans; open in "
                  "ui.perfetto.dev or chrome://tracing)")
    if args.json:
        import json

        print(json.dumps(record, indent=2))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    import json

    from repro.obs import (drift_report, format_drift_report,
                           validate_chrome_trace)

    with open(args.trace, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    problems = validate_chrome_trace(payload)
    if problems:
        for p in problems[:20]:
            print(f"invalid trace: {p}", file=sys.stderr)
        if len(problems) > 20:
            print(f"... and {len(problems) - 20} more problems",
                  file=sys.stderr)
        return 1
    report = drift_report(payload)
    print(format_drift_report(report))
    _write_json(report, args.json)
    return 0


def _obs_diff(args: argparse.Namespace) -> int:
    import json

    from repro.obs import diff_traces, format_trace_diff

    payloads = []
    for path in (args.trace_a, args.trace_b):
        with open(path, "r", encoding="utf-8") as fh:
            payloads.append(json.load(fh))
    try:
        report = diff_traces(payloads[0], payloads[1],
                             threshold=args.threshold,
                             min_seconds=args.min_seconds,
                             a_name=args.trace_a, b_name=args.trace_b)
    except ValueError as exc:
        return _usage_error(exc)
    print(format_trace_diff(report))
    _write_json(report, args.json)
    return 1 if report["verdict"] == "regression" else 0


def _obs_validate_events(args: argparse.Namespace) -> int:
    from collections import Counter

    from repro.obs import read_event_log, validate_event_log

    problems = validate_event_log(args.log)
    if problems:
        for p in problems[:20]:
            print(f"invalid event log: {p}", file=sys.stderr)
        if len(problems) > 20:
            print(f"... and {len(problems) - 20} more problems",
                  file=sys.stderr)
        return 1
    events = read_event_log(args.log)
    counts = Counter(e["type"] for e in events)
    print(f"{args.log}: {len(events)} event(s), chain intact")
    _print_table(("type", "count"),
                 [(t, str(n)) for t, n in sorted(counts.items())])
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "diff":
        return _obs_diff(args)
    return _obs_validate_events(args)


def cmd_lint(args: argparse.Namespace) -> int:
    import os

    from repro.analysis.lint import default_rules, format_violations, run_lint

    if args.list_rules:
        _print_table(
            ("id", "rule"),
            [(rule.id, rule.title) for rule in default_rules()],
        )
        return 0
    paths = list(args.paths)
    if not paths:
        import repro

        paths = [os.path.dirname(os.path.abspath(repro.__file__))]
    violations, nfiles = run_lint(paths)
    print(format_violations(violations, nfiles))
    return 1 if violations else 0


def cmd_memory(_args: argparse.Namespace) -> int:
    from repro.analysis.memory import feasibility_table, memory_2d
    from repro.graph.datasets import layer_widths, published_spec

    table = feasibility_table()
    rows = []
    for name, fits in table.items():
        spec = published_spec(name)
        widths = layer_widths(spec.features, spec.labels)
        nnz = spec.edges + spec.vertices
        for gpus, ok in fits.items():
            est = memory_2d(spec.vertices, nnz, widths, gpus)
            rows.append(
                (name, gpus, f"{est.total_gib:.1f}",
                 "fits" if ok else "OOM")
            )
    print("Section V-C memory feasibility (2D algorithm, 16 GB V100):\n")
    _print_table(("dataset", "GPUs", "GiB/rank", "verdict"), rows)
    print("\npaper: amazon omitted at 4 GPUs; protein omitted at 4 and 16.")
    return 0


def _simulate_graph(args: argparse.Namespace):
    """The graph a simulate/sweep invocation runs against.

    ``--dataset`` with ``--scale`` builds the executable stand-in (exact
    block statistics); ``--dataset`` alone uses the full published size
    under the uniform-nonzeros model; otherwise a synthetic graph shape.
    """
    from repro.simulate.schedule import GraphModel

    if args.dataset and args.scale:
        from repro.graph import make_standin

        return GraphModel.from_dataset(
            make_standin(args.dataset, scale_divisor=args.scale,
                         seed=args.seed)
        )
    if args.dataset:
        return GraphModel.from_published(args.dataset)
    return GraphModel.uniform(
        args.vertices,
        int(args.vertices * (args.degree + 1)),
        name=f"uniform-n{args.vertices}",
        features=args.features,
        n_classes=args.classes,
    )


def _write_json(payload: dict, path: Optional[str]) -> None:
    if not path:
        return
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"\nwrote {path}")


def _usage_error(exc: Exception) -> int:
    """Print a bad-input error the way argparse would: message, exit 2."""
    message = exc.args[0] if exc.args else exc
    print(message, file=sys.stderr)
    return 2


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.analysis.scaling import format_sweep_widths
    from repro.simulate import predict_epoch

    kwargs = {}
    if args.algorithm == "1.5d":
        kwargs["replication"] = args.replication
    if args.algorithm == "1d":
        kwargs["variant"] = args.variant
    try:
        graph = _simulate_graph(args)
        if args.partition:
            if args.algorithm != "1d":
                print("--partition currently drives the 1D schedule only",
                      file=sys.stderr)
                return 2
            if graph.exact:
                from repro.dist import Distribution

                kwargs["distribution"] = Distribution.build(
                    args.partition, graph.csr, args.gpus, seed=args.seed
                )
            elif args.partition != "block":
                # Uniform shape-only graphs have nothing to partition;
                # block is the identity layout the emitter already
                # assumes.
                print(f"--partition {args.partition} needs an executable "
                      "stand-in (pass --scale); shape-only graphs model "
                      "the block layout", file=sys.stderr)
                return 2
        point = predict_epoch(
            args.algorithm, graph, args.gpus, machine=args.machine,
            hidden=args.hidden, **kwargs,
        )
    except (KeyError, ValueError) as exc:
        # A graph shape no graph has, an unknown machine, an infeasible
        # mesh/replication for --gpus, ...
        return _usage_error(exc)
    mode = "exact" if graph.exact else "uniform"
    print(f"graph   : {graph.name}  n={graph.n} nnz={graph.nnz} ({mode})")
    print(f"machine : {point.machine}  P={point.p}  "
          f"algorithm={point.algorithm} {point.params.get('variant', '')}")
    print(format_sweep_widths(point.params["widths"]))
    once = point.setup
    print(f"\none-time aggregation (A^T H^0, per feature matrix; "
          f"scomm at the first only): "
          f"{once.total_seconds:.6f} s, dcomm "
          f"{once.bytes_by_category['dcomm']:,} B, scomm "
          f"{once.bytes_by_category['scomm']:,} B")
    print(f"predicted epoch: {point.seconds:.6f} s "
          f"({point.epochs_per_second:.2f} epochs/s)")
    print(f"  compute   {point.compute_seconds:.6f} s")
    print(f"  latency   {point.latency_seconds:.6f} s")
    print(f"  bandwidth {point.bandwidth_seconds:.6f} s")
    print(f"  messages  {point.messages:,} (all ranks)")
    _print_table(
        ("category", "seconds", "bytes (all ranks)"),
        [
            (c, f"{point.seconds_by_category[c]:.6f}",
             f"{point.bytes_by_category[c]:,}")
            for c in ("spmm", "dcomm", "scomm", "trpose", "misc")
        ],
    )
    _write_json(point.to_dict(), args.json)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.scaling import (
        format_crossovers,
        format_scaling_table,
        format_setup_line,
        format_sweep_widths,
    )
    from repro.simulate import DEFAULT_P_GRID, sweep

    if args.p_grid:
        try:
            ps = tuple(int(tok) for tok in args.p_grid.split(","))
        except ValueError:
            print(f"invalid --p-grid {args.p_grid!r}: expected "
                  "comma-separated integers", file=sys.stderr)
            return 2
        if any(p < 1 for p in ps):
            print(f"invalid --p-grid {args.p_grid!r}: rank counts must "
                  "be >= 1", file=sys.stderr)
            return 2
    else:
        ps = tuple(p for p in DEFAULT_P_GRID if p <= args.max_p)
    if not ps:
        print(f"--max-p {args.max_p} is below the smallest default grid "
              f"point ({min(DEFAULT_P_GRID)}); pass --p-grid explicitly",
              file=sys.stderr)
        return 2
    machines = tuple(args.machines.split(","))
    algorithms = tuple(args.algorithms.split(","))
    try:
        graph = _simulate_graph(args)
        result = sweep(graph, algorithms=algorithms, ps=ps,
                       machines=machines, hidden=args.hidden)
    except (KeyError, ValueError) as exc:
        # A graph shape no graph has, unknown machine or algorithm names.
        return _usage_error(exc)
    print(
        f"swept {len(result.points)} points "
        f"({len(algorithms)} algorithms x {len(machines)} machines x "
        f"P up to {max(ps)}) in {result.elapsed_seconds:.2f}s"
    )
    if result.points:
        print(format_sweep_widths(result.points[0].params["widths"]))
    print()
    for machine in result.machines:
        print(format_scaling_table(result, graph.name, machine))
        print(format_setup_line(result, graph.name, machine))
        print()
    print(format_crossovers(result))
    _write_json(result.to_dict(), args.json)
    return 0


def cmd_explosion(args: argparse.Namespace) -> int:
    from repro.graph import make_standin
    from repro.sampling import neighborhood_explosion_stats

    ds = make_standin(args.dataset or "reddit", scale_divisor=args.scale,
                      seed=args.seed)
    print(f"dataset: {ds.name}  n={ds.num_vertices}\n")
    rows = []
    for batch in (8, 32, 128):
        batch = min(batch, ds.num_vertices)
        stats = neighborhood_explosion_stats(
            ds.adjacency, batch_size=batch, hops=args.hops, trials=3,
            seed=args.seed,
        )
        rows.append(
            (batch, *(int(s) for s in stats.mean_frontier_sizes),
             f"{stats.final_fraction:.1%}")
        )
    _print_table(
        ("batch",) + tuple(f"hop{k}" for k in range(args.hops + 1))
        + ("fraction",),
        rows,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CAGNET (SC 2020) reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table6", help="Table VI dataset characteristics")

    for name in ("figure2", "figure3"):
        p = sub.add_parser(name, help=f"reproduce {name}")
        p.add_argument("--dataset", choices=("reddit", "amazon", "protein"))

    sub.add_parser("crossover", help="1D-vs-2D crossover per dataset")

    sub.add_parser("memory", help="Section V-C memory feasibility table")

    p = sub.add_parser("train", help="train a GCN on a virtual cluster")
    p.add_argument("--algorithm", default="2d",
                   choices=("1d", "1.5d", "2d", "3d"))
    p.add_argument("--gpus", type=int, default=4)
    p.add_argument("--dataset", choices=("reddit", "amazon", "protein"),
                   help="Table VI stand-in (default: synthetic)")
    p.add_argument("--scale", type=int, default=1024,
                   help="stand-in scale divisor")
    p.add_argument("--vertices", type=int, default=512)
    p.add_argument("--degree", type=float, default=8.0)
    p.add_argument("--features", type=int, default=32)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--hidden", type=_width, default=16)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replication", type=int, default=2,
                   help="1.5D replication factor c")
    p.add_argument("--variant", default="auto",
                   choices=("auto", "symmetric", "outer", "outer_sparse",
                            "transpose", "ghost"),
                   help="1D backward variant; 'ghost' replaces the full "
                        "all-gather with a partition-aware ghost-row "
                        "exchange")
    p.add_argument("--partition", default=None,
                   choices=("block", "random", "multilevel"),
                   help="partition-aware vertex distribution (part-major "
                        "relabelling; pairs with --variant ghost)")
    p.add_argument("--backend", default="virtual",
                   choices=("virtual", "process"),
                   help="execution backend: 'virtual' simulates ranks in "
                        "one process; 'process' runs them as real OS "
                        "processes with shared-memory collectives")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes for --backend process "
                        "(default: one per rank)")
    p.add_argument("--transport", default="shm",
                   choices=("shm", "tcp"),
                   help="peer fabric for --backend process: 'shm' "
                        "(queues + shared memory, single host) or 'tcp' "
                        "(length-prefixed socket frames; spans hosts via "
                        "REPRO_PARALLEL_HOSTS)")
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="write the full training state (weights, "
                        "optimizer moments, epoch counter, ledger) "
                        "atomically to this .npz at epoch boundaries; "
                        "elastic recovery resumes from it")
    p.add_argument("--checkpoint-every", type=int, default=1,
                   metavar="N",
                   help="checkpoint cadence in epochs for --checkpoint "
                        "(default 1)")
    p.add_argument("--max-restarts", type=int, default=None, metavar="N",
                   help="pool-restart budget for --backend process: on "
                        "a dead/stalled worker or transport failure, "
                        "respawn, reload the last checkpoint, and "
                        "resume, up to N times (default: "
                        "REPRO_PARALLEL_MAX_RESTARTS or 0 = fail fast)")
    p.add_argument("--faults", default=None, metavar="PLAN",
                   help="deterministic fault-injection plan for "
                        "--backend process, e.g. "
                        "'kill:worker=1,epoch=2' (see "
                        "repro.parallel.faults; also "
                        "REPRO_PARALLEL_FAULTS)")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="record wall-clock spans and per-kernel counters "
                        "(SpMM, GEMMs, reduction folds) and write a "
                        "Chrome/Perfetto trace-event JSON here, the run "
                        "record embedded (losses and ledger stay "
                        "bit-identical)")
    p.add_argument("--events", default=None, metavar="PATH",
                   help="append a hash-chained JSON-lines event log "
                        "(run lifecycle, epochs, checkpoints, recovery "
                        "taxonomy) here; validate with "
                        "'repro obs validate-events'")
    p.add_argument("--json", action="store_true",
                   help="print the run record (schema repro-run/1; the "
                        "one --trace embeds) instead of the human tables")

    def _sim_graph_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dataset", choices=("reddit", "amazon", "protein"),
                       help="published dataset (default: synthetic shape)")
        p.add_argument("--scale", type=int, default=0,
                       help="use the executable stand-in at this scale "
                            "divisor (0 = full published size, uniform "
                            "nonzeros)")
        p.add_argument("--vertices", type=int, default=1 << 20)
        p.add_argument("--degree", type=float, default=16.0)
        p.add_argument("--features", type=int, default=128)
        p.add_argument("--classes", type=int, default=16)
        p.add_argument("--hidden", type=_width, default=16)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", help="write the result as JSON here")

    p = sub.add_parser(
        "simulate",
        help="predict one epoch on a machine profile at any P",
    )
    p.add_argument("--algorithm", default="2d",
                   choices=("1d", "1.5d", "2d", "3d"))
    p.add_argument("--gpus", type=int, default=1024)
    p.add_argument("--machine", default="summit",
                   help="machine preset (summit, cori-gpu, ethernet, ...)")
    p.add_argument("--variant", default="auto",
                   help="1D backward variant")
    p.add_argument("--replication", type=int, default=2,
                   help="1.5D replication factor c")
    p.add_argument("--partition", default=None,
                   choices=("block", "random", "multilevel"),
                   help="1D partition-aware layout (non-block partitions "
                        "need an executable stand-in via --scale)")
    _sim_graph_args(p)

    p = sub.add_parser(
        "sweep",
        help="sweep (algorithm x P x machine) and report winners",
    )
    p.add_argument("--algorithms", default="1d,1.5d,2d,3d")
    p.add_argument("--machines", default="summit,cori-gpu,ethernet")
    p.add_argument("--max-p", type=int, default=16384,
                   help="sweep the default P grid up to this rank count")
    p.add_argument("--p-grid",
                   help="explicit comma-separated P values (overrides "
                        "--max-p)")
    _sim_graph_args(p)

    p = sub.add_parser("explosion", help="neighbourhood explosion stats")
    p.add_argument("--dataset", choices=("reddit", "amazon", "protein"))
    p.add_argument("--scale", type=int, default=512)
    p.add_argument("--hops", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "report",
        help="model-vs-measured drift report from a --trace file",
    )
    p.add_argument("trace", help="Chrome-trace JSON written by "
                                 "'repro train --trace'")
    p.add_argument("--json", help="also write the report as JSON here")

    p = sub.add_parser("obs", help="observability utilities")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    d = obs_sub.add_parser(
        "diff",
        help="per-category/per-phase regression diff of two trace files "
             "(exit 1 on regression verdict)",
    )
    d.add_argument("trace_a", help="reference trace JSON")
    d.add_argument("trace_b", help="candidate trace JSON")
    d.add_argument("--threshold", type=float, default=1.25,
                   help="B/A per-epoch-seconds ratio above which a row "
                        "regresses (default 1.25)")
    d.add_argument("--min-seconds", type=float, default=1e-4,
                   help="absolute per-epoch growth noise floor "
                        "(default 1e-4 s)")
    d.add_argument("--json", help="also write the diff document here")
    v = obs_sub.add_parser(
        "validate-events",
        help="verify an event log's schema, sequence, and hash chain",
    )
    v.add_argument("log", help="JSON-lines event log written by "
                               "'repro train --events'")

    p = sub.add_parser(
        "lint",
        help="repro-lint invariant checker (AST rules R1, R2, R4, R5, R7, "
             "R8; exit 1 on violations)",
    )
    p.add_argument("paths", nargs="*",
                   help="files or directories to check (default: the "
                        "installed repro package)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule table and exit")

    return parser


COMMANDS = {
    "table6": cmd_table6,
    "figure2": cmd_figure2,
    "figure3": cmd_figure3,
    "crossover": cmd_crossover,
    "memory": cmd_memory,
    "train": cmd_train,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "explosion": cmd_explosion,
    "report": cmd_report,
    "obs": cmd_obs,
    "lint": cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
