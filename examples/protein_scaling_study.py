#!/usr/bin/env python
"""Capacity-planning study for the billion-edge protein network.

The paper's largest experiment trains on a protein-similarity graph with
1.06B edges on up to 100 Summit GPUs.  This example uses the scaling
simulator and the analytic layer at the FULL published size to answer the
questions a practitioner would ask before buying node hours:

1. How does 2D epoch time decompose across GPU counts (Fig. 2/3)?
2. Where is the 1D-vs-2D words crossover for this dataset (Section VI-d)?
3. What would 3D buy at large P (Section IV-D)?

No graph is instantiated -- the simulator prices the 2D algorithm's own
schedule on a uniform graph of the published shape, and the formulas need
only (n, nnz, f, L, P), which is exactly why both can run at 9M vertices.

Run:  python examples/protein_scaling_study.py
"""

from repro import predict_epoch, published_spec, words_1d, words_2d, words_3d
from repro.analysis.formulas import crossover_p_2d_vs_1d
from repro.config import FP32_BYTES

L = 3


def epoch_2d(p: int):
    """One 2D epoch of the published protein graph, in the paper's fp32."""
    return predict_epoch("2d", "protein", p, word_bytes=FP32_BYTES)


def main() -> None:
    spec = published_spec("protein")
    n, nnz, f = spec.vertices, spec.edges + spec.vertices, float(spec.features)
    print(f"protein (published): n={spec.vertices:,} nnz={nnz:,} "
          f"f={spec.features} labels={spec.labels}\n")

    # 1. Modeled 2D epoch across GPU counts (the paper's panel + beyond).
    print("2D epoch model (Summit profile):")
    print(f"  {'GPUs':>5s} {'sec/epoch':>10s} {'epochs/s':>9s} "
          f"{'spmm':>7s} {'dcomm':>7s} {'scomm':>7s}")
    for p in (36, 64, 100, 256, 1024):
        r = epoch_2d(p)
        bd = r.seconds_by_category
        print(f"  {p:5d} {r.seconds:10.3f} {r.epochs_per_second:9.3f} "
              f"{bd['spmm']:7.3f} {bd['dcomm']:7.3f} {bd['scomm']:7.3f}")

    r36, r100 = epoch_2d(36), epoch_2d(100)
    comm_ratio = (
        sum(r36.seconds_by_category[c] for c in ("scomm", "dcomm", "trpose"))
        / sum(r100.seconds_by_category[c] for c in ("scomm", "dcomm", "trpose"))
    )
    print(f"\n  36 -> 100 GPUs: total communication drops {comm_ratio:.2f}x "
          f"(paper measured ~1.65x)")

    # 2. Algorithm choice: words moved per process per epoch.
    print("\nper-process words per epoch (analytic, Section IV):")
    print(f"  {'GPUs':>5s} {'1D':>12s} {'2D':>12s} {'3D':>12s} "
          f"{'best':>6s}")
    for p in (16, 64, 256, 1024):
        w1 = words_1d(n, nnz, f, L, p).words
        w2 = words_2d(n, nnz, f, L, p).words
        w3 = words_3d(n, nnz, f, L, p).words
        best = min((w1, "1D"), (w2, "2D"), (w3, "3D"))[1]
        print(f"  {p:5d} {w1:12.4e} {w2:12.4e} {w3:12.4e} {best:>6s}")

    cross = crossover_p_2d_vs_1d(n, nnz, f, L)
    print(f"\n2D overtakes 1D at P = {cross} for this dataset "
          f"(paper's rule of thumb: sqrt(P) >= 5).")
    print("Recommendation: below the crossover use the 1D algorithm "
          "(latency-light);\nabove it, 2D; at thousands of GPUs the 3D "
          "algorithm's extra P^(1/6) factor\npays for its memory "
          "replication.")


if __name__ == "__main__":
    main()
