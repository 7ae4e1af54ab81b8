"""Section IV-C.6: rectangular process grids.

The paper: taller grids (larger Pr/Pc) cut *sparse* communication when the
average degree far exceeds the feature width, but inflate the *dense*
terms, whose sum is minimised by the square grid ("square has the
smallest perimeter of all rectangles of a given area").  We execute every
Pr x Pc factorisation of P = 16 on one graph and measure both categories.

The paper's epoch runs an SpMM sweep (dense broadcasts along process
columns, ``~ Pr``) beside every replicated-``W`` product (along process
rows, ``~ Pc``).  This trainer's steady-state epoch has two sweeps fewer
(``A^T H^0`` is aggregated once per feature matrix, the layer-1 ``A G``
is never formed), so the perimeter argument is checked on the pass that
still pairs them -- the aggregation plus an epoch -- and the steady-state
column, which leans one step toward the taller grid, is reported.
"""

from repro.comm.tracker import Category
from repro.dist import make_algorithm
from repro.graph import make_synthetic

from benchmarks.helpers import attach, print_table

P = 16
GRIDS = [(1, 16), (2, 8), (4, 4), (8, 2), (16, 1)]


def bench_rectangular_grids(benchmark):
    # Degree >> feature width: the regime where tall grids save scomm.
    ds = make_synthetic(n=512, avg_degree=24, f=8, n_classes=4, seed=0)
    results = {}
    for rows_, cols_ in GRIDS:
        algo = make_algorithm(
            "2d", P, ds, hidden=8, seed=0, grid=(rows_, cols_)
        )
        hist = algo.fit(ds.features, ds.labels, epochs=1)
        results[(rows_, cols_)] = (hist.setup, hist.epochs[0])

    table = []
    for grid, (once, st) in results.items():
        table.append(
            (
                f"{grid[0]}x{grid[1]}",
                st.scomm_bytes,
                st.dcomm_bytes,
                once.dcomm_bytes,
                st.scomm_bytes + st.dcomm_bytes,
                round(st.modeled_seconds * 1e3, 3),
            )
        )
    print_table(
        f"Rectangular grids at P={P} (n=512, d=24, f=8; executed, "
        f"total bytes over ranks)",
        ("grid PrxPc", "scomm", "dcomm", "one-time dcomm", "comm total",
         "epoch ms"),
        table,
    )

    dense = {g: st.dcomm_bytes for g, (_, st) in results.items()}
    paired = {g: once.dcomm_bytes + st.dcomm_bytes
              for g, (once, st) in results.items()}
    sparse = {g: st.scomm_bytes for g, (_, st) in results.items()}
    # Taller grid (Pr > Pc) moves less sparse data than the wide one...
    assert sparse[(8, 2)] < sparse[(2, 8)]
    # ...but the square grid minimises the dense total among non-trivial
    # factorisations (perimeter argument), where sweeps and replicated
    # products pair up.
    nontrivial = [(2, 8), (4, 4), (8, 2)]
    assert min(nontrivial, key=lambda g: paired[g]) == (4, 4)

    algo = make_algorithm("2d", P, ds, hidden=8, seed=0, grid=(4, 4))
    algo.setup(ds.features, ds.labels)
    benchmark(algo.train_epoch)
    attach(
        benchmark,
        dense_by_grid={f"{a}x{b}": v for (a, b), v in dense.items()},
        dense_with_aggregation_by_grid={
            f"{a}x{b}": v for (a, b), v in paired.items()},
        sparse_by_grid={f"{a}x{b}": v for (a, b), v in sparse.items()},
    )
