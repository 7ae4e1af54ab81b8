"""The block-row sweeps ship only the rows another rank reads.

A 1D all-gather and a 1.5D slab broadcast move, of each dense block,
its *exported rows* -- the rows some other block's sparse rows name
(:func:`repro.dist.distribution.exported_rows`).  Every process writes
its own ranks' blocks whole and the other ranks' exported rows into the
operand it multiplies; the rest of that operand keeps whatever the
workspace held, since no local rank reads it.  Here:

* the derivation against a count on the dense matrix, and the
  :class:`~repro.simulate.schedule.GraphModel` oracle against both;
* the poison test: with every row of the gathered operand (1D) or slab
  (1.5D) set to NaN before the sweep writes it -- a monkeypatch of the
  workspace, in this test only -- every SpMM reads only finite rows,
  and losses and ``predict()`` keep the unpoisoned virtual run's bits,
  on the virtual runtime and on worker runtimes (threads) over shm and
  tcp;
* at one rank per worker, the shm channel carries exactly the bytes the
  ledger charges a 1D all-gather.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np
import pytest

import repro.dist.algo_1d as algo_1d
import repro.dist.algo_15d as algo_15d
from repro.comm.tracker import Category
from repro.dist import ALGORITHMS, make_distribution, make_runtime_for
from repro.dist.blockrow import BlockRowAlgorithm
from repro.dist.distribution import exported_rows
from repro.graph import make_synthetic
from repro.graph.generators import erdos_renyi
from repro.graph.normalize import add_self_loops, row_normalize
from repro.parallel import WorkerRuntime, owner_map
from repro.simulate.schedule import GraphModel
from repro.sparse.distribute import block_ranges
from test_parallel_tickets import Fabric, run_threads
from test_properties_dist import exported_count

WIDTHS = (8, 6, 4)


def symmetric_graph():
    return make_synthetic(n=97, avg_degree=5, f=8, n_classes=4, seed=7)


def directed_operand():
    return row_normalize(add_self_loops(
        erdos_renyi(97, 2.0, seed=3, directed=True)))


# ---------------------------------------------------------------------- #
# the derivation
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("parts", [1, 3, 4, 16, 120])
def test_exported_rows_are_the_rows_other_blocks_read(parts):
    """Each block's exported rows are exactly the rows of it a row of
    another block names -- also for uneven (partitioned) ranges and
    empty blocks (``parts > n``); one block exports nothing."""
    ds = symmetric_graph()
    for a_t in (ds.adjacency, directed_operand()):
        n = a_t.nrows
        dense = a_t.to_dense() != 0
        ranges = block_ranges(n, parts)
        if parts == 3:
            ranges = make_distribution("multilevel", a_t, parts,
                                       seed=0).row_ranges
        got = exported_rows(a_t, ranges)
        assert len(got) == parts
        for (lo, hi), rows in zip(ranges, got):
            others = np.ones(n, dtype=bool)
            others[lo:hi] = False
            want = lo + np.flatnonzero(dense[others][:, lo:hi].any(axis=0))
            np.testing.assert_array_equal(rows, want)
        assert sum(r.size for r in got) == exported_count(a_t, ranges)
        if parts == 1:
            assert got[0].size == 0


def test_graph_model_oracle():
    """The exact oracle is the derivation, on either operand; the
    uniform one is the expected occupancy in whole rows: nothing at one
    block, every row at a high degree, a share in between."""
    a_t = directed_operand()
    model = GraphModel.from_csr(a_t)
    for transpose, matrix in ((False, a_t), (True, a_t.transpose())):
        want = [r.size for r in exported_rows(matrix, block_ranges(97, 4))]
        np.testing.assert_array_equal(
            model.exported_rows(4, transpose=transpose), want)
    assert GraphModel.uniform(1000, 9000).exported_rows(1).tolist() == [0]
    assert GraphModel.uniform(1000, 10 ** 6).exported_rows(4).tolist() == \
        [250] * 4
    sparse = GraphModel.uniform(1000, 1000).exported_rows(4)
    assert sparse.tolist() == [132] * 4  # 250 (1 - e^{-3/4}), rounded


# ---------------------------------------------------------------------- #
# poison: rows a sweep does not write are never read
# ---------------------------------------------------------------------- #
POISON_CONFIGS = [
    pytest.param("1d", 4, {"variant": "symmetric"}, False,
                 id="1d-symmetric"),
    pytest.param("1d", 4, {"variant": "outer"}, False, id="1d-outer"),
    pytest.param("1d", 4, {"variant": "outer_sparse"}, False,
                 id="1d-outer_sparse"),
    pytest.param("1d", 4, {"variant": "transpose"}, True,
                 id="1d-transpose-directed"),
] + [
    pytest.param("1.5d", 8, {"replication": c}, False, id=f"1.5d-c{c}")
    for c in (1, 2, 4)
]


class Poison:
    """While active, the workspace of the 1D gathered operand and of
    the 1.5D slabs is NaN whenever a sweep takes it, and every block-row
    SpMM checks that the rows its block names are finite, counting (per
    thread: a worker runtime of a pool runs in one) the NaN rows its
    operand held."""

    def __init__(self, monkeypatch):
        self.nan_rows = {}
        ws = BlockRowAlgorithm._ws

        def poisoned(algo, key, shape):
            buf = ws(algo, key, shape)
            if key[0] in ("gather", "slab"):
                buf.fill(np.nan)
            return buf

        def checked(kernel):
            def spmm(block, operand, out=None):
                named = np.unique(block.indices)
                assert np.isfinite(operand[named]).all()
                me = threading.get_ident()
                self.nan_rows[me] = self.nan_rows.get(me, 0) + int(
                    np.isnan(operand).any(axis=1).sum())
                return kernel(block, operand, out=out)
            return spmm

        monkeypatch.setattr(BlockRowAlgorithm, "_ws", poisoned)
        for module in (algo_1d, algo_15d):
            monkeypatch.setattr(module, "spmm", checked(module.spmm))


def fit_bits(algo, ds):
    """3-epoch losses (``float.hex``) and the ``predict()`` sha1."""
    hist = algo.fit(ds.features, ds.labels, epochs=3)
    return ([float(x).hex() for x in hist.losses],
            hashlib.sha1(algo.predict().tobytes()).hexdigest())


@pytest.mark.parametrize("runtime", ["virtual", "shm", "tcp"])
@pytest.mark.parametrize("name,p,kw,directed", POISON_CONFIGS)
def test_poisoned_rows_are_never_read(monkeypatch, name, p, kw, directed,
                                      runtime):
    """On two worker runtimes some SpMM holds poisoned rows (those of a
    remote block nobody else reads) and reads none of them; on the
    virtual runtime every block is local and nothing is poisoned."""
    ds = symmetric_graph()
    a_t = directed_operand() if directed else ds.adjacency

    def build(rt):
        return ALGORITHMS[name](rt, a_t, WIDTHS, seed=0, **kw)

    want = fit_bits(build(make_runtime_for(name, p)), ds)
    poison = Poison(monkeypatch)
    if runtime == "virtual":
        assert fit_bits(build(make_runtime_for(name, p)), ds) == want
        assert not any(poison.nan_rows.values())
        return
    fabric = Fabric(runtime, 2)
    owners = owner_map(p, 2)
    mesh = make_runtime_for(name, p).mesh
    try:
        got = run_threads({w: (lambda w=w: fit_bits(build(
            WorkerRuntime(mesh, None, fabric.chans[w], owners)), ds))
            for w in range(2)})
    finally:
        fabric.close()
    assert got[0] == got[1] == want
    assert sum(poison.nan_rows.values()) > 0


# ---------------------------------------------------------------------- #
# ledger == channel
# ---------------------------------------------------------------------- #
def test_1d_allgather_ships_its_ledger_bytes():
    """At one rank per worker, a 1D all-gather sends every peer each
    rank's exported rows once: the shm channel carries exactly the
    ledger's ``(P - 1) |E| f`` words, and every worker multiplies what
    the virtual runtime does."""
    ds = symmetric_graph()
    p, f = 4, 8
    virtual = ALGORITHMS["1d"](make_runtime_for("1d", p), ds.adjacency,
                               WIDTHS, seed=0)
    rows = exported_count(ds.adjacency, virtual.row_ranges)
    assert 0 < rows < ds.num_vertices
    want = virtual._forward_spmm(virtual._setup_data(ds.features), f,
                                 ("t", 0))

    def sweep(rt):
        algo = ALGORITHMS["1d"](rt, ds.adjacency, WIDTHS, seed=0)
        sent, charged = rt.coll.channel.bytes_sent, \
            rt.tracker.total_bytes(Category.DCOMM)
        out = algo._forward_spmm(algo._setup_data(ds.features), f, ("t", 0))
        return (out, rt.coll.channel.bytes_sent - sent,
                rt.tracker.total_bytes(Category.DCOMM) - charged)

    fabric = Fabric("shm", p)
    owners = owner_map(p, p)
    try:
        got = run_threads({w: (lambda w=w: sweep(WorkerRuntime(
            virtual.rt.mesh, None, fabric.chans[w], owners)))
            for w in range(p)})
    finally:
        fabric.close()
    for w, (out, _, charged) in got.items():
        assert charged == (p - 1) * rows * f * 8
        np.testing.assert_array_equal(out[w], want[w])
    assert sum(sent for _, sent, _ in got.values()) == \
        (p - 1) * rows * f * 8
