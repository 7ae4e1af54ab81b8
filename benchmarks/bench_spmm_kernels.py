"""Serial SpMM kernel: the hottest local path, measured.

The distributed algorithms spend their local compute in CSR-times-dense
kernels over many small reused blocks.  This bench times
:func:`repro.sparse.spmm.spmm` -- scipy's compiled kernel through the
per-matrix cached zero-copy wrapper, the only kernel any training path
runs -- on GNN-shaped operands, allocating its result and writing into a
kept buffer (``out=``, what the epochs' workspaces do).  The reference
kernel :func:`~repro.sparse.spmm.spmm_numpy` only checks the product.

The measured times land in ``BENCH_dist.json`` via the ``extra_info``
attachment.
"""

import time

import numpy as np

from repro.graph import make_synthetic
from repro.sparse.spmm import spmm, spmm_numpy

from benchmarks.helpers import attach, print_table


def _time(fn, repeats):
    fn()  # warm (builds the scipy wrapper cache on first touch)
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - t0) / repeats


def bench_spmm_kernel_comparison(benchmark):
    ds = make_synthetic(n=3000, avg_degree=12, f=64, n_classes=8, seed=0)
    a = ds.adjacency
    rng = np.random.default_rng(0)
    cases = {
        "full 3000x3000 f=64": (a, rng.random((a.ncols, 64)), 5),
        "block 750x3000 f=16": (
            a.block(0, 750, 0, 3000), rng.random((3000, 16)), 20
        ),
        "tiny 100x1000 f=16": (
            a.block(0, 100, 0, 1000), rng.random((1000, 16)), 200
        ),
    }
    rows = []
    info = {}
    for label, (blk, dense, repeats) in cases.items():
        buf = np.empty((blk.nrows, dense.shape[1]))
        assert np.allclose(spmm(blk, dense), spmm_numpy(blk, dense))
        fresh = _time(lambda: spmm(blk, dense), repeats)
        kept = _time(lambda: spmm(blk, dense, out=buf), repeats)
        rows.append((label, round(fresh * 1e6, 1), round(kept * 1e6, 1)))
        info[label] = {"fresh_us": fresh * 1e6, "out_us": kept * 1e6}
    print_table(
        "serial CSR SpMM (compiled kernel)",
        ("operand", "fresh us", "out= us"),
        rows,
    )
    ds_small = make_synthetic(n=400, avg_degree=8, f=32, n_classes=4, seed=1)
    dense = rng.random((400, 32))
    benchmark(spmm, ds_small.adjacency, dense)
    attach(benchmark, kernels=info)
