"""Process-backend workers hold only their own shard of the operand.

The driver cuts the operand once (``DistAlgorithm.cut_shards``, the cut
the virtual runtime builds all its ranks from) and ships every worker
the blocks of its own ranks, in every operand role the variant reads.
These tests pin, on every family over shm and tcp at two worker counts:

* ``held_sparse_bytes`` -- the sparse bytes a worker's algorithm holds,
  counted -- is exactly the worker's ranks' blocks, on the grid the
  stage pieces its row groups kept in their place;
* no worker holds an ``n x n`` sparse matrix or an ``n x f^0`` array once
  ``setup`` has returned;
* losses (``float.hex``), the ledger's ``state_bytes()`` and the
  ``predict()`` sha1 are the virtual run's, also when a killed pool is
  rebuilt from shards cut again.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os

import pytest

from repro.dist import make_algorithm
from repro.graph import make_synthetic
from repro.graph.generators import erdos_renyi
from repro.graph.normalize import add_self_loops, row_normalize
from repro.sparse.csr import CSRMatrix

HIDDEN = 8
EPOCHS = 3

#: ``(name, p, options, directed operand)``: every family, 1D in the
#: variants whose roles differ
CONFIGS = [
    pytest.param("1d", 4, {}, False, id="1d"),
    pytest.param("1d", 4, {"variant": "outer"}, False, id="1d-outer"),
    pytest.param("1d", 4, {"variant": "transpose"}, True,
                 id="1d-transpose-directed"),
    pytest.param("1d", 4, {"variant": "ghost", "partition": "multilevel"},
                 False, id="1d-ghost"),
    pytest.param("1.5d", 8, {"replication": 2}, False, id="1.5d-c2"),
    pytest.param("2d", 4, {}, False, id="2d"),
    pytest.param("2d", 8, {"grid": (2, 4)}, False, id="2d-2x4"),
    pytest.param("3d", 8, {}, False, id="3d"),
]


@pytest.fixture(scope="module")
def ds():
    return make_synthetic(n=61, avg_degree=4, f=10, n_classes=3, seed=11)


@pytest.fixture(scope="module")
def directed(ds):
    return dataclasses.replace(ds, adjacency=row_normalize(add_self_loops(
        erdos_renyi(ds.num_vertices, 4.0, seed=1, directed=True))))


@pytest.fixture(autouse=True)
def watchdog():
    old = os.environ.get("REPRO_PARALLEL_TIMEOUT")
    os.environ["REPRO_PARALLEL_TIMEOUT"] = "30"
    yield
    if old is None:
        os.environ.pop("REPRO_PARALLEL_TIMEOUT", None)
    else:
        os.environ["REPRO_PARALLEL_TIMEOUT"] = old


def run(algo, data, **fit_kw):
    """What the oracles compare: losses, ledger state, predict sha1."""
    hist = algo.fit(data.features, data.labels, epochs=EPOCHS, **fit_kw)
    sha = hashlib.sha1(algo.predict().tobytes()).hexdigest()
    return ([x.hex() for x in hist.losses], algo.rt.tracker.state_bytes(),
            sha)


def expected_held(virtual, ranks) -> int:
    """The sparse bytes a worker holding ``ranks`` must hold, from the
    virtual run: its ranks' blocks in every role and, on the grid, the
    stage pieces of its row groups (kept in place of the blocks)."""
    arrays = {}

    def hold(block):
        if isinstance(block, CSRMatrix):
            for arr in (block.indptr, block.indices, block.data):
                arrays[id(arr)] = arr.nbytes

    for by_rank in virtual._roles.values():
        for r in ranks:
            hold(by_rank[r])
    for stages in getattr(virtual, "_pieces", {}).values():
        for pieces in stages:
            for gi, group in enumerate(virtual._row_group_list):
                if ranks & set(group):
                    hold(pieces[gi])
    return sum(arrays.values())


def held_by_workers(algo):
    return [w["held_sparse_bytes"]
            for w in algo.rt.backend_stats()["per_worker"]]


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("transport", ["shm", "tcp"])
@pytest.mark.parametrize("name,p,kw,is_directed", CONFIGS)
def test_workers_hold_their_shard_and_keep_the_virtual_bits(
        ds, directed, name, p, kw, is_directed, transport, workers):
    data = directed if is_directed else ds
    virtual = make_algorithm(name, p, data, hidden=HIDDEN, seed=0, **kw)
    blocks = expected_held(virtual, frozenset(range(p)))
    want = run(virtual, data)
    algo = make_algorithm(name, p, data, hidden=HIDDEN, seed=0,
                          backend="process", workers=workers,
                          transport=transport, **kw)
    try:
        algo.setup(data.features, data.labels)
        shapes = algo.rt._backend.command("debug_held", None)
        got = run(algo, data)
        held = held_by_workers(algo)
        parked = algo.rt.backend_stats(workers=False)["dispatch_bytes"]
    finally:
        algo.rt.close()
    assert got == want
    n, f0 = data.num_vertices, data.feature_width
    for worker_shapes in shapes:
        assert ("CSRMatrix", (n, n)) not in worker_shapes
        assert ("ndarray", (n, f0)) not in worker_shapes
    ranks = algo.rt.ranks_of_workers
    assert held == [expected_held(virtual, frozenset(mine))
                    for mine in ranks]
    # make_algo carried every block once, to its worker, nothing whole
    assert parked["make_algo"] == blocks


def test_a_rebuilt_pool_works_from_shards_cut_again(ds, tmp_path):
    name, p, kw = "2d", 4, {}
    virtual = make_algorithm(name, p, ds, hidden=HIDDEN, seed=0, **kw)
    want = run(virtual, ds)
    algo = make_algorithm(name, p, ds, hidden=HIDDEN, seed=0,
                          backend="process", workers=2, max_restarts=2,
                          faults="kill:worker=1,epoch=1,attempt=1", **kw)
    try:
        got = run(algo, ds, checkpoint_path=str(tmp_path / "ck.npz"),
                  checkpoint_every=1)
        held = held_by_workers(algo)
        stats = algo.rt.backend_stats(workers=False)
    finally:
        algo.rt.close()
    assert stats["restarts"] == 1
    assert got == want
    assert held == [expected_held(virtual, frozenset(mine))
                    for mine in algo.rt.ranks_of_workers]


def test_a_worker_keeps_no_copy_of_the_features(ds):
    """The driver decides whether a matrix is new: the same matrix
    again costs no worker anything, an edited one is aggregated again."""
    algo = make_algorithm("1d", 4, ds, hidden=HIDDEN, seed=0,
                          backend="process", workers=2)
    try:
        first = algo.fit(ds.features, ds.labels, epochs=1)
        again = algo.fit(ds.features.copy(), ds.labels, epochs=1)
        edited = algo.fit(ds.features * 0.5, ds.labels, epochs=1)
        shapes = algo.rt._backend.command("debug_held", None)
    finally:
        algo.rt.close()
    assert first.setup.comm_bytes > 0 and edited.setup.comm_bytes > 0
    assert again.setup.comm_bytes == 0
    n, f0 = ds.num_vertices, ds.feature_width
    assert all(("ndarray", (n, f0)) not in mine for mine in shapes)
