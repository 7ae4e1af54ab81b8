#!/usr/bin/env python
"""Profile distributed training epochs from one span trace.

The ledger tells you what an epoch is *modeled* to cost per category
(Fig. 3); the span trace tells you where the wall clock *went*: which
category, which phase, and which worker set each epoch's pace.  This
example runs a traced 2D fit on an Amazon stand-in over two worker
processes and prints the measured breakdown beside the modeled one, the
most expensive phases, and the pacesetter histogram (the load-balance
diagnostic that motivates the paper's random vertex permutation).  It
reads the same :class:`repro.obs.MergedTrace` record that
``repro train --trace`` writes and ``repro report`` reads.

Run:  python examples/profile_epoch.py
"""

from repro import make_algorithm, make_standin, traced_fit

P = 16
WORKERS = 2
EPOCHS = 4


def main() -> None:
    ds = make_standin("amazon", scale_divisor=2048, seed=0)
    print(f"dataset: {ds.name}  {ds.summary()}")

    algo = make_algorithm("2d", P, ds, seed=0, backend="process",
                          workers=WORKERS)
    try:
        history, trace = traced_fit(algo, ds.features, ds.labels, EPOCHS)
    finally:
        algo.rt.close()

    measured = trace.measured_epoch_breakdown()
    modeled = history.mean_breakdown(skip_first=True)
    print(f"\n{len(trace.spans)} spans over {EPOCHS} epochs on {WORKERS} "
          "workers; mean per epoch after the first:")
    print(f"  {'category':8s} {'measured us':>12s} {'modeled us':>12s}")
    for cat in sorted(set(measured) | set(modeled)):
        print(f"  {cat:8s} {measured.get(cat, 0.0) * 1e6:12.1f} "
              f"{modeled.get(cat, 0.0) * 1e6:12.1f}")

    print("\ntop 8 phases by self time (all workers, epochs after the "
          "first):")
    phases = trace.phase_breakdown()
    for name in sorted(phases, key=lambda k: -phases[k]["seconds"])[:8]:
        ph = phases[name]
        print(f"  {name:16s} {ph['count']:5d} calls "
              f"{ph['seconds'] * 1e6:10.1f} us")

    xchg = trace.exchange_summary()
    print(f"\nchannel exchanges: {xchg['count']}  wait "
          f"{xchg['wait_s'] * 1e3:.2f} ms  serialize "
          f"{xchg['serialize_s'] * 1e3:.2f} ms  copy "
          f"{xchg['copy_s'] * 1e3:.2f} ms")

    print("\npacesetters (worker -> epochs it finished last):")
    for worker, count in sorted(trace.straggler_counts().items()):
        print(f"  worker {worker}: {count}")


if __name__ == "__main__":
    main()
