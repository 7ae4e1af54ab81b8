"""Every collective on every backend: the oracle behind "one definition".

``repro.comm.collectives.Collectives`` defines each kind once against
three transport hooks -- the split-phase ``_routed_post`` /
``_routed_collect`` pair and ``_members`` -- and ``ProcessCollectives``
overrides only the hooks, so nothing but these tests has to check that
the backends agree:

* each kind -- its charged form and its step form (cost rule replayed +
  data movement) -- run on a ``VirtualRuntime`` and on 2 and 3
  ``WorkerRuntime``s over shm and tcp hands every local rank the same
  read-only receipt and leaves every process the same ledger, also when
  a worker has no rank in a step's groups or routes;
* a group-kind step is one rendezvous per worker, also for a worker
  holding ranks of two of its groups;
* the reduce-scatter ``bounds`` check fires from every form on both;
* every family's fit on worker runtimes -- one owning every rank, or
  two -- keeps the virtual run's losses and ledger.

Worker runtimes run as threads of this process over a real channel
fabric (the ``fabric`` fixture of ``test_parallel_tickets.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from test_parallel_tickets import fabric, run_threads  # noqa: F401

from repro.comm import VirtualRuntime
from repro.comm.mesh import Mesh1D, Mesh2D
from repro.comm.tracker import Category
from repro.dist.registry import (ALGORITHMS, make_distribution,
                                 make_runtime_for)
from repro.graph import make_synthetic
from repro.parallel import WorkerRuntime, ledger_digest, owner_map

P = 4
WORLD = (0, 1, 2, 3)
#: ranks 0-2 only: at W = 3 (owners 0, 0, 1, 2) worker 2 sits these out
PART = (0, 1, 2)
BACKENDS = [("shm", 2), ("shm", 3), ("tcp", 2), ("tcp", 3)]


def dense(rank, rows=6, cols=3):
    return np.random.default_rng(100 + rank).standard_normal((rows, cols))


def mostly_empty(rank):
    out = np.zeros((6, 3))
    out[rank] = dense(rank)[rank]
    return out


def local(rt, make, ranks=WORLD):
    return {r: make(r) for r in ranks if rt.is_local(r)}


def step(rt, kind, where, payloads, sizes, **kw):
    """The step form: the cost rule from sizes alone, charged on every
    process, then the data movement of the local part."""
    rt.tracker.charge_many(Category.DCOMM, rt.coll.charges(kind, sizes))
    return rt.coll.move(kind, where, payloads, **kw)


#: two concurrent groups; at W = 2 (owners 0, 0, 1, 1) each worker holds
#: a rank of both
PAIRS = [(0, 2), (1, 3)]


def step_once(rt, kind, nbytes, **kw):
    """The step form over ``PAIRS``, ``nbytes`` a group: every worker
    meets its peers once for the whole step.  Run last in a program, so
    a failed count leaves no peer waiting."""
    channel = getattr(rt.coll, "channel", None)
    before = 0 if channel is None else channel.nexchanges
    got = step(rt, kind, PAIRS, local(rt, dense),
               [(group, nbytes) for group in PAIRS], **kw)
    if channel is not None:
        assert channel.nexchanges - before == 1
    return got


# One program per kind: what every process of the SPMD run executes.
def run_broadcast(rt):
    value = dense(1) if rt.is_local(1) else None
    charged = rt.coll.broadcast(WORLD, 1, value, pipelined=True)
    # split-phase, two concurrent routes, one of them inside PART
    routes = [(PART, 2), (WORLD, 0)]
    rt.tracker.charge_many(Category.SCOMM, rt.coll.charges(
        "broadcast", [(PART, dense(2).nbytes), (WORLD, dense(0).nbytes)]))
    posted = rt.coll.post("broadcast", routes, local(rt, dense, (0, 2)))
    return charged, rt.coll.collect(posted)


def run_allgather(rt):
    charged = rt.coll.allgather(WORLD, local(rt, dense))
    stepped = step(rt, "allgather", [PART], local(rt, dense, PART),
                   [(PART, 3 * dense(0).nbytes)])
    return charged, stepped, step_once(rt, "allgather", 2 * dense(0).nbytes)


def run_allreduce(rt):
    charged = rt.coll.allreduce(WORLD, local(rt, dense))
    stepped = step(rt, "allreduce", [PART, (3,)], local(rt, dense),
                   [(PART, dense(0).nbytes), ((3,), dense(0).nbytes)],
                   donate_first=True)
    return charged, stepped, step_once(rt, "allreduce", dense(0).nbytes)


def run_reduce_scatter(rt):
    bounds = [(0, 1), (1, 1), (1, 4), (4, 6)]
    charged = rt.coll.reduce_scatter(WORLD, local(rt, dense), bounds=bounds)
    stepped = step(rt, "reduce_scatter", [PART], local(rt, dense, PART),
                   [(PART, dense(0).nbytes)], axis=1)
    return charged, stepped, step_once(rt, "reduce_scatter",
                                       dense(0).nbytes)


def run_sparse_reduce_scatter(rt):
    return rt.coll.sparse_reduce_scatter(WORLD, local(rt, mostly_empty),
                                         nz_rows=(1, 2, 1, 3)), {}


def run_gather_rows(rt):
    pairs = [(0, 1, np.array([1, 3])), (2, 1, np.array([0])),
             (1, 2, np.array([5, 2])), (3, 0, np.array([4])),
             (0, 3, np.array([2]))]
    row = dense(0).nbytes // 6
    charged = rt.coll.gather_rows(pairs, local(rt, dense), row)
    inner = pairs[:3]
    stepped = step(rt, "gather_rows", inner, local(rt, dense, PART),
                   [(1, 3 * row, 2), (2, 2 * row, 1)])
    return charged, stepped


PROGRAMS = {
    "broadcast": run_broadcast,
    "allgather": run_allgather,
    "allreduce": run_allreduce,
    "reduce_scatter": run_reduce_scatter,
    "sparse_reduce_scatter": run_sparse_reduce_scatter,
    "gather_rows": run_gather_rows,
}


def same_receipt(got, want):
    """``got`` is ``want`` where this process is a destination; a
    routed list carries ``None`` for the routes it is none of."""
    if isinstance(want, list):
        assert len(got) == len(want)
        return sum(same_receipt(g, w) for g, w in zip(got, want)
                   if g is not None)
    np.testing.assert_array_equal(got, want)
    assert not got.flags.writeable
    return 1


def spmd(fabric, transport, workers, mesh, program):
    """Run ``program(rt)`` on ``workers`` worker runtimes in threads."""
    chans = fabric(transport, workers).chans
    owners = owner_map(mesh.size, workers)

    def worker(ch):
        rt = WorkerRuntime(mesh, None, ch, owners)
        return rt, program(rt)

    return run_threads(
        {w: (lambda w=w: worker(chans[w])) for w in range(workers)})


def same_receipts(rt, got, want):
    """``rt``'s results are the virtual runtime's for its local ranks;
    returns how many receipts were compared."""
    if isinstance(want, dict):
        # group kinds and the charged broadcast: {rank: receipt}, for
        # exactly the local ranks of the groups moved
        assert sorted(got) == [r for r in sorted(want) if rt.is_local(r)]
        return sum(same_receipt(got[r], want[r]) for r in got)
    return same_receipt(got, want)


@pytest.mark.parametrize("transport,workers", BACKENDS)
@pytest.mark.parametrize("kind", sorted(PROGRAMS))
def test_every_kind_agrees_with_the_virtual_runtime(fabric, kind, transport,
                                                    workers):
    program = PROGRAMS[kind]
    virt = VirtualRuntime.make_1d(P)
    wants = program(virt)
    seen = []
    for rt, gots in [(virt, wants)] + list(spmd(
            fabric, transport, workers, Mesh1D(size=P), program).values()):
        assert ledger_digest(rt.tracker) == ledger_digest(virt.tracker)
        seen.append(sum(same_receipts(rt, got, want)
                        for got, want in zip(gots, wants)))
    # between them the workers received everything the virtual ranks did
    # (a broadcast's one receipt goes to every member worker)
    assert sum(seen[1:]) >= seen[0] > 0


def test_routed_receipts_go_to_the_destinations_only(fabric):
    """At W = 3 worker 2 owns rank 3 alone: it gets the one route that
    names rank 3 and ``None`` for the rest -- and still charges them
    all, also the step whose routes it has no part in."""
    res = spmd(fabric, "shm", 3, Mesh1D(size=P), run_gather_rows)
    rt2, (charged2, stepped2) = res[2]
    assert rt2.local_ranks == (3,)
    assert [c is not None for c in charged2] == [
        False, False, False, False, True]
    assert stepped2 == [None] * 3
    rt0, (charged0, _) = res[0]
    assert rt0.local_ranks == (0, 1)
    assert [c is not None for c in charged0] == [
        True, True, False, True, False]
    assert ledger_digest(rt2.tracker) == ledger_digest(rt0.tracker)


# --------------------------------------------------------------------- #
# one bounds check, in the one reduce-scatter definition
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", ["virtual", "worker"])
@pytest.mark.parametrize("form", ["reduce_scatter", "sparse_reduce_scatter",
                                  "step"])
def test_bounds_must_name_one_range_per_member(fabric, backend, form):
    if backend == "virtual":
        rt = VirtualRuntime.make_1d(P)
    else:  # one worker owning every rank: the worker hooks, no peer
        rt = WorkerRuntime(Mesh1D(size=P), None,
                           fabric("shm", 1).chans[0], owner_map(P, 1))
    values = {r: dense(r) for r in WORLD}
    short = [(0, 3), (3, 6)]
    with pytest.raises(ValueError, match="2 shard bounds for a group of 4"):
        if form == "step":
            rt.coll.move("reduce_scatter", [WORLD], values, bounds=short)
        elif form == "sparse_reduce_scatter":
            rt.coll.sparse_reduce_scatter(WORLD, values, nz_rows=(6,) * 4,
                                          bounds=short)
        else:
            rt.coll.reduce_scatter(WORLD, values, bounds=short)


# --------------------------------------------------------------------- #
# a reduce-scatter ships shards, not whole partials
# --------------------------------------------------------------------- #
def channel_bytes(rt) -> int:
    channel = getattr(rt.coll, "channel", None)
    return 0 if channel is None else channel.bytes_sent


def test_funnel_reduce_scatter_ships_its_ledger_bytes(fabric, ds):
    """At W = 4 every rank of a 2D P = 4 row group has a worker of its
    own.  The replicated-``W`` funnel's reduce-scatter (a 6 -> 3 product)
    sends each peer only the shard it keeps, so the shm channel carries
    exactly the bytes the ledger charges -- whole partials put ``Pc``
    times that on the wire -- and every rank gets the virtual runtime's
    shard."""
    mesh = Mesh2D.square(4)
    weight = np.random.default_rng(0).standard_normal((6, 3))

    def funnel(rt):
        algo = ALGORITHMS["2d"](rt, ds.adjacency, (8, 6, 3), seed=0)
        x = {}
        for r in range(P):
            if rt.is_local(r):
                lo, hi = algo._fsplit(6)[algo._out_col(r)]
                x[r] = dense(r, algo._rows_of(r), hi - lo)
        before = (rt.tracker.total_bytes(Category.DCOMM), channel_bytes(rt))
        out = algo._matmul_w(x, weight, 6, 3)
        return out, (rt.tracker.total_bytes(Category.DCOMM) - before[0],
                     channel_bytes(rt) - before[1])

    virtual = VirtualRuntime(mesh)
    want, (charged, _) = funnel(virtual)
    res = spmd(fabric, "shm", 4, mesh, funnel)
    for rt, (got, (worker_charged, _)) in res.values():
        assert same_receipts(rt, got, want) == 1
        assert worker_charged == charged
        assert ledger_digest(rt.tracker) == ledger_digest(virtual.tracker)
    assert sum(sent for _, (_, (_, sent)) in res.values()) == charged > 0


@pytest.mark.parametrize("transport", ["shm", "tcp"])
def test_funnel_allgather_ships_its_ledger_bytes(fabric, ds, transport):
    """At W = 4 the two ranks of a 2D P = 4 row group sit on two workers.
    The funnels' all-gather (``_gather_stages``: ``T^0``, ``T^l``, ``A
    G^l``) sends each peer the block it lacks, once, and the ledger
    charges each member the ``(Pc - 1) / Pc`` of the group's rows it
    receives -- a stage broadcast also charged the root its own block.
    The shm channel carries exactly the ledger's bytes; tcp adds only its
    frames' headers, which do not grow with the payload (the same at 6
    and 12 columns).  Every rank gets the virtual runtime's pieces."""
    mesh = Mesh2D.square(4)
    widths = (6, 12)

    def gathers(rt):
        algo = ALGORITHMS["2d"](rt, ds.adjacency, (8, 6, 3), seed=0)
        out = []
        for f in widths:
            x = {}
            for r in range(P):
                if rt.is_local(r):
                    lo, hi = algo._fsplit(f)[algo._out_col(r)]
                    x[r] = dense(r, algo._rows_of(r), hi - lo)
            before = (rt.tracker.total_bytes(Category.DCOMM),
                      channel_bytes(rt))
            stages = algo._gather_stages(x, f)
            out.append(([recv for *_, recv in stages],
                        rt.tracker.total_bytes(Category.DCOMM) - before[0],
                        channel_bytes(rt) - before[1]))
        return out

    virtual = VirtualRuntime(mesh)
    wants = gathers(virtual)
    res = spmd(fabric, transport, 4, mesh, gathers)
    framing = []
    for i, (want, charged, _) in enumerate(wants):
        sent = 0
        for rt, gots in res.values():
            got, worker_charged, worker_sent = gots[i]
            assert same_receipt(got, want) == 2   # its group's two pieces
            assert worker_charged == charged
            assert ledger_digest(rt.tracker) == ledger_digest(virtual.tracker)
            sent += worker_sent
        assert charged > 0
        framing.append(sent - charged)
    if transport == "shm":
        assert framing == [0, 0]
    else:
        assert framing[0] == framing[1] > 0


# --------------------------------------------------------------------- #
# every family on workers keeps the virtual run's bits
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def ds():
    return make_synthetic(n=60, avg_degree=4, f=8, n_classes=3, seed=11)


def fit_on(rt, ds, name, kw, epochs=2):
    algo = ALGORITHMS[name](rt, ds.adjacency,
                            ds.layer_widths(hidden=8, layers=3), seed=0, **kw)
    hist = algo.fit(ds.features, ds.labels, epochs=epochs)
    return [e.loss for e in hist.epochs]


#: the 2D case runs on a rectangular grid
GRIDS = {"2d": (2, 3)}
CASES = [
    ("1d", 4, lambda ds: {}),
    ("1d", 4, lambda ds: {
        "variant": "ghost",
        "distribution": make_distribution("multilevel", ds.adjacency, 4,
                                          seed=0)}),
    ("1.5d", 4, lambda ds: {"replication": 2}),
    ("2d", 6, lambda ds: {}),
    ("3d", 8, lambda ds: {}),
]
CASE_IDS = ["1d", "1d-ghost", "1.5d", "2d", "3d"]


def mesh_of(name, p):
    return make_runtime_for(name, p, grid=GRIDS.get(name)).mesh


@pytest.mark.parametrize("name,p,make_kw", CASES, ids=CASE_IDS)
def test_one_worker_owning_every_rank_checks_what_virtual_checks(
        fabric, ds, name, p, make_kw):
    """Same program, same receipts, same step helper, same first-call
    audits: the losses and the ledger match exactly."""
    runs = []
    mesh = mesh_of(name, p)
    for rt in (VirtualRuntime(mesh),
               WorkerRuntime(mesh, None, fabric("shm", 1).chans[0],
                             owner_map(p, 1))):
        runs.append((fit_on(rt, ds, name, make_kw(ds)),
                     ledger_digest(rt.tracker)))
    assert runs[1] == runs[0]


@pytest.mark.parametrize("name,p,make_kw", CASES, ids=CASE_IDS)
def test_every_worker_keeps_the_virtual_losses_and_ledger(
        fabric, ds, name, p, make_kw):
    mesh = mesh_of(name, p)
    kw = make_kw(ds)
    res = spmd(fabric, "shm", 2, mesh, lambda rt: fit_on(rt, ds, name, kw))
    virtual = VirtualRuntime(mesh)
    v_losses = fit_on(virtual, ds, name, kw)
    for rt, losses in res.values():
        assert losses == v_losses
        assert ledger_digest(rt.tracker) == ledger_digest(virtual.tracker)


@pytest.mark.parametrize("transport,workers", BACKENDS)
@pytest.mark.parametrize("name,p", [("2d", 6), ("3d", 8)])
def test_gathering_summa_stages_agree_with_the_virtual_runtime(
        fabric, ds, name, p, transport, workers):
    """The sparsity-aware SUMMA stages on 2 and 3 workers over shm and
    tcp: the virtual run's losses and ledger on every worker (and the
    rows each worker receives are the bytes its ranks are charged:
    every gather's first call is audited)."""
    mesh = mesh_of(name, p)
    res = spmd(fabric, transport, workers, mesh,
               lambda rt: fit_on(rt, ds, name, {}))
    virtual = VirtualRuntime(mesh)
    v_losses = fit_on(virtual, ds, name, {})
    for rt, losses in res.values():
        assert losses == v_losses
        assert ledger_digest(rt.tracker) == ledger_digest(virtual.tracker)
