"""The layered benchmark's one command.

One run of one workload (what ``BENCHMARK.json``'s ``command`` drives)::

    python3 benchmarks/layers/run.py --workload p1d_shm --seed 3 \\
        --seconds 14 --trace 0

prints the host fingerprint, every metric by name with its unit, and as
its last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  It exits non-zero when any operation failed.

Without ``--workload`` it runs the whole suite, each workload in a fresh
interpreter: the untraced pass, then the traced pass.  ``--check-repeat``
runs the untraced pass twice and compares the two sets against the
bounds in ``BENCHMARK.json``; ``--smoke`` shrinks every graph so the
suite finishes in well under a minute.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys
import time

# One BLAS thread per process, set before numpy is imported anywhere:
# spawned workers inherit it, and two workers x BLAS threads would
# oversubscribe a 2-core host.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# A wedged pool must fail inside the per-run time limit, not after it.
os.environ.setdefault("REPRO_PARALLEL_TIMEOUT", "60")

#: Ledger counts: the same seed must reproduce them bit for bit.
EXACT = ("comm_bytes_per_epoch", "max_rank_comm_bytes_per_epoch",
         "comm_msgs_per_epoch")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
RUN_TIMEOUT_S = 170
#: Set in the environment of the interpreter that ``_supervise`` starts.
SUPERVISED = "LAYERS_BENCH_SUPERVISED"
PR_SET_CHILD_SUBREAPER = 36     # <linux/prctl.h>


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one workload; default: the suite")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time of a run "
                         "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics, 1: per-layer metrics; "
                         "the suite runs both unless one is named")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny graphs, 3 samples")
    ap.add_argument("--check-repeat", action="store_true",
                    help="two untraced sets; fail if they disagree by "
                         "more than a metric's bound")
    return ap.parse_args(argv)


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ------------------------------------------------------------------ #
# one workload, this interpreter
# ------------------------------------------------------------------ #
def run_one(args) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"no repro package under {src}: the benchmark runs the "
              "repository's own source", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    bench = _benchmark_json()
    if args.smoke:
        wl, seconds = wl.smoke(), 0.0
    elif args.seconds is not None:
        seconds = args.seconds
    else:
        seconds = float(bench["run_seconds"])
    table = bench["per_layer" if args.trace else "end_to_end"]
    os.makedirs(OUT_DIR, exist_ok=True)
    host = harness.host_fingerprint()
    print("host " + json.dumps(host))
    doc = harness.run_workload(wl, args.seed, seconds, bool(args.trace),
                               args.smoke, OUT_DIR,
                               {m["name"]: m["unit"] for m in table})
    result = doc["result"]
    print(f"workload {wl.name} seed {args.seed} trace {int(bool(args.trace))}"
          f" seconds {seconds:g} samples {json.dumps(doc['samples'])}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    for name, value in doc["extras"].items():
        print(f"  {name:34s} {value:.6g} s (ungated)")
    for err in doc["errors"]:
        print(f"FAILED: {err}")
    print(f"operations attempted {result['attempted']} "
          f"failed {result['failed']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ------------------------------------------------------------------ #
# the suite: every workload in a fresh interpreter
# ------------------------------------------------------------------ #
def _spawn_run(workload: str, args, trace: int):
    """Returns ``(result or None, exit code)`` of one child run."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", workload, "--seed", str(args.seed),
           "--trace", str(trace)]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), proc.returncode
    except (IndexError, ValueError):
        return None, proc.returncode or 1


def _run_set(workloads, args, trace: int):
    """One pass over all workloads; returns ``({workload: result}, ok)``."""
    results, ok = {}, True
    for name in workloads:
        result, code = _spawn_run(name, args, trace)
        ok = ok and code == 0 and result is not None
        if result is not None:
            results[name] = result
    return results, ok


def _same_counts(results, a: str, b: str) -> bool:
    """``a`` and ``b`` run the same problem: identical ledger counts."""
    if a not in results or b not in results:
        return False
    ok = True
    for metric in EXACT:
        va = results[a]["metrics"][metric]["value"]
        vb = results[b]["metrics"][metric]["value"]
        if va != vb:
            print(f"FAILED: {metric} differs: {a}={va} {b}={vb}")
            ok = False
    return ok


def _compare_sets(first, second, bounds) -> bool:
    ok = True
    print(f"\n{'workload':12s} {'metric':32s} {'first':>14s} "
          f"{'second':>14s} {'rel.diff':>9s} {'bound':>6s}")
    for wl in first:
        for metric, bound in bounds.items():
            a = first[wl]["metrics"][metric]["value"]
            b = second[wl]["metrics"][metric]["value"]
            rel = abs(b - a) / abs(a)
            # the ledger counts repeat bit for bit, whatever their bound
            good = a == b if metric in EXACT else rel <= bound
            ok = ok and good
            print(f"{wl:12s} {metric:32s} {a:14.6g} {b:14.6g} "
                  f"{rel:9.4f} {bound:6.3f}{'' if good else '  EXCEEDED'}")
    return ok


def run_suite(args) -> int:
    bench = _benchmark_json()
    workloads = [w["name"] for w in bench["workloads"]]
    ok = True
    if args.check_repeat:
        first, ok1 = _run_set(workloads, args, trace=0)
        second, ok2 = _run_set(workloads, args, trace=0)
        ok = ok1 and ok2 and _compare_sets(
            first, second, {m["name"]: m["bound"]
                            for m in bench["end_to_end"]})
    else:
        for trace in ((0, 1) if args.trace is None else (args.trace,)):
            results, set_ok = _run_set(workloads, args, trace)
            ok = ok and set_ok
            if trace == 0:
                ok = _same_counts(results, "v1d_dense", "p1d_shm") and ok
    print("suite " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, HERE)
    if args.workload is not None:
        return run_one(args)
    return run_suite(args)


def _supervise() -> int:
    """Run this command in a child interpreter and outlive every process
    it starts; returns the exit code.

    The child runs under ``PYTHONHASHSEED=0``.  String hashing is
    randomised per interpreter, and on ``v1d_dense`` the hash seed alone
    moves ``epoch_s`` between two modes ~10 % apart (same ``--seed``, same
    host; whether through set order or heap layout is not established).
    A pinned hash seed, which workers inherit, measures one mode every
    time.

    This process is the child's subreaper: whatever the run leaves behind
    when it ends -- multiprocessing's resource tracker at the least, which
    the spawn context and every ``SharedMemory`` start and which ends only
    after its interpreter has -- becomes a child of this process instead
    of an orphan nobody waits for, and is waited for here.
    """
    if ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        print("prctl(PR_SET_CHILD_SUBREAPER) failed: "
              + os.strerror(ctypes.get_errno()), file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen(
        [sys.executable] + sys.argv,
        env=dict(os.environ, PYTHONHASHSEED="0", **{SUPERVISED: "1"}))
    try:
        code = child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        killed = _reap_descendants()
    if killed:
        print(f"FAILED: killed {killed} process(es) the run left running",
              file=sys.stderr)
    return code or (1 if killed else 0)


def _reap_descendants(grace_s: float = 5.0) -> int:
    """Wait until this process has no child left; returns how many had to
    be killed because they were still running after ``grace_s``."""
    deadline = time.monotonic() + grace_s
    killed = 0
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed
        if pid:
            continue
        if time.monotonic() >= deadline:
            for pid in _children_of(os.getpid()):
                try:
                    os.kill(pid, signal.SIGKILL)
                    killed += 1
                except ProcessLookupError:
                    pass
            # what the killed leave behind is adopted here next
            deadline = time.monotonic() + grace_s
        time.sleep(0.005)


def _children_of(parent: int):
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # "pid (comm) state ppid ..."; comm may hold spaces
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] != "Z" and int(fields[1]) == parent:
            yield int(entry)


if __name__ == "__main__":
    sys.exit(main() if os.environ.get(SUPERVISED) else _supervise())
