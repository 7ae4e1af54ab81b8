"""The runtime checks every run makes, with no switch to arm them.

* **Ledger == data plane.**  An exact-accounting step (``gather_rows``:
  the 1D ghost exchange, the SUMMA relays) is audited when its charge
  list is built, on its first call: a step whose data plane ships one
  row more (or less) than it charges raises naming the exchange, on the
  virtual runtime, on one worker runtime over shm and over tcp, and on
  both of two worker runtimes, where the rows cross between them.  Later calls replay the cached charges and audit
  nothing.
* **No stray frame.**  Every post is collected before its command
  returns, so a worker whose stash still holds a frame afterwards fails
  the command: a frame posted twice does, after a ``fit`` and after a
  ``batch``, on both transports, through the real worker command loop
  (``_worker_main``, run as threads of this process so the replaying
  channel can be planted).

The copy-on-write receipts need no check of their own: a sender's write
a receiver reads moves its arithmetic, which ``verify_against_serial``
and the process runs' bit equality with the virtual run catch.
"""

from __future__ import annotations

import dataclasses
import queue
import threading
from multiprocessing import shared_memory

import pytest

from test_collectives_backends import mesh_of, spmd
from test_parallel_tickets import fabric  # noqa: F401

from repro.comm import VirtualRuntime
from repro.comm.mesh import Mesh1D
from repro.dist.registry import ALGORITHMS, make_distribution
from repro.graph import make_synthetic
from repro.parallel import PeerChannel, TcpChannel, WorkerRuntime, owner_map
from repro.parallel import backend
from repro.parallel.runtime import ranks_of_workers

P = 4
HIDDEN = 8


@pytest.fixture(scope="module")
def ds():
    return make_synthetic(n=60, avg_degree=4, f=8, n_classes=3, seed=11)


# --------------------------------------------------------------------- #
# ledger == data plane, on a step's first call
# --------------------------------------------------------------------- #
def ghost_algo(rt, ds):
    return ALGORITHMS["1d"](
        rt, ds.adjacency, ds.layer_widths(hidden=HIDDEN, layers=3), seed=0,
        variant="ghost",
        distribution=make_distribution("multilevel", ds.adjacency, P,
                                       seed=0))


def one_row_off(algo, delta=-1):
    """Charge the first local rank that fetches ghost rows ``delta``
    rows more than its exchange ships (one fewer by default)."""
    g = algo._ghost
    dsts = {dst for _, dst, _ in g.pairs}
    r = next(r for r in range(P)
             if g.ghost_rows[r] and r in dsts and algo._is_local(r))
    rows = list(g.ghost_rows)
    rows[r] += delta
    algo._ghost = dataclasses.replace(g, ghost_rows=tuple(rows))


def one_row_short(algo):
    one_row_off(algo, -1)


def runtimes(fabric):
    mesh = Mesh1D(size=P)
    return {"virtual": lambda: VirtualRuntime(mesh),
            "shm-worker": lambda: WorkerRuntime(
                mesh, None, fabric("shm", 1).chans[0], owner_map(P, 1)),
            "tcp-worker": lambda: WorkerRuntime(
                mesh, None, fabric("tcp", 1).chans[0], owner_map(P, 1))}


@pytest.mark.parametrize("backend_name",
                         ["virtual", "shm-worker", "tcp-worker"])
class TestLedgerAudit:
    def test_a_step_charged_one_row_short_raises_on_its_first_call(
            self, fabric, ds, backend_name):
        algo = ghost_algo(runtimes(fabric)[backend_name](), ds)
        one_row_short(algo)
        with pytest.raises(RuntimeError, match=(
                r"ledger mismatch in exchange 'gather_rows:\('gch', 8\)'"
                r": charged \d+ bytes but the data plane moved \d+")):
            algo.setup(ds.features, ds.labels)   # T^0's exchange, 8 wide

    def test_a_step_charged_one_row_over_raises_on_its_first_call(
            self, fabric, ds, backend_name):
        algo = ghost_algo(runtimes(fabric)[backend_name](), ds)
        one_row_off(algo, +1)
        with pytest.raises(RuntimeError, match=(
                r"ledger mismatch in exchange 'gather_rows:\('gch', 8\)'")):
            algo.setup(ds.features, ds.labels)

    def test_later_calls_replay_the_audited_charges(self, fabric, ds,
                                                    backend_name):
        """Steady-state epochs audit nothing: once every step has been
        built, a short charge planted afterwards is never recomputed."""
        algo = ghost_algo(runtimes(fabric)[backend_name](), ds)
        first = algo.fit(ds.features, ds.labels, epochs=1)
        one_row_short(algo)
        again = algo.fit(ds.features, ds.labels, epochs=2)
        assert again.epochs[-1].comm_bytes == first.epochs[-1].comm_bytes


def audit_error(program):
    """The message ``program()`` raises, or ``None`` if it ran clean
    (returned, not asserted: a worker thread's failure would not reach
    the test)."""
    try:
        program()
    except RuntimeError as err:
        return str(err)
    return None


@pytest.mark.parametrize("transport", ["shm", "tcp"])
def test_every_worker_audits_the_ghost_rows_it_receives(
        fabric, ds, transport):
    """Rows cross between two workers: each charges one of its own ranks
    one row short and raises at the set-up's exchange, where both
    receive ghost rows (so neither waits on a peer that stopped)."""
    def program(rt):
        algo = ghost_algo(rt, ds)
        one_row_short(algo)
        return audit_error(lambda: algo.setup(ds.features, ds.labels))

    res = spmd(fabric, transport, 2, Mesh1D(size=P), program)
    msgs = [msg for _, msg in res.values()]
    assert len(msgs) == 2
    for msg in msgs:
        assert msg.startswith("ledger mismatch in exchange "
                              "'gather_rows:('gch', 8)'")


#: per family, the two adjacent SUMMA stages of the set-up sweep
#: (``A^T H^0``, 8 columns) in which two workers first and last receive
#: relayed rows from each other: a worker that raises at stage ``t`` has
#: already posted stage ``t + 1`` (the look-ahead), so its peer reaches
#: its own audit
RELAY_STAGES = {"2d": (1, 2), "3d": (0, 1)}


@pytest.mark.parametrize("transport", ["shm", "tcp"])
@pytest.mark.parametrize("name,p", [("2d", 6), ("3d", 8)])
def test_every_worker_audits_the_summa_rows_relayed_to_it(
        fabric, ds, name, p, transport):
    """A SUMMA stage books every relay hop one row short: the worker
    whose rank the relay reaches raises naming that stage's exchange."""
    stages = RELAY_STAGES[name]

    def program(rt):
        algo = ALGORITHMS[name](rt, ds.adjacency,
                                ds.layer_widths(hidden=HIDDEN, layers=3),
                                seed=0)
        summa = list(algo._summa["a_t"])
        for t in stages:
            st = summa[t]
            dsts = {dst for _, dst, _ in st.relay}
            summa[t] = st._replace(hops=tuple(
                (r, n - (r in dsts)) for r, n in st.hops))
        algo._summa["a_t"] = summa
        return audit_error(lambda: algo.setup(ds.features, ds.labels))

    res = spmd(fabric, transport, 2, mesh_of(name, p), program)
    msgs = [msg for _, msg in res.values()]
    assert len(msgs) == 2 and None not in msgs
    for t, msg in zip(stages, sorted(msgs)):
        assert msg.startswith("ledger mismatch in exchange 'gather_rows:"
                              f"('rdch', 'a_t', 8, {t})'")


# --------------------------------------------------------------------- #
# a frame posted twice fails the command
# --------------------------------------------------------------------- #
class Replay:
    """Worker 0 posts its first non-empty frame twice, under one tag."""

    replayed = False

    def post(self, gkey, outbox, recv_from):
        ticket = super().post(gkey, outbox, recv_from)
        if outbox and self.wid == 0 and not self.replayed:
            self.replayed = True
            self._seq[gkey] -= 1
            super().post(gkey, outbox, ())
        return ticket


class ShmReplay(Replay, PeerChannel):
    pass


class TcpReplay(Replay, TcpChannel):
    pass


def commands_of(ds, epochs=2):
    """A two-epoch training run as each top-level command shape: one
    resident ``fit``, and a ``batch`` of ``setup`` and the epochs."""
    return {"fit": (ds.features, ds.labels, None, epochs, None, None),
            "batch": [("setup", (ds.features, ds.labels, None))]
            + [("train_epoch", e) for e in range(epochs)]}


def run_fit_on_threads(ds, transport, op="fit", workers=2, timeout=5.0):
    """``make_algo`` then ``op`` (``fit`` or ``batch``,
    :func:`commands_of`) of a 1D P = 2 algorithm through
    ``_worker_main`` on ``workers`` threads; each worker's ``(status,
    value)`` of ``op``."""
    mesh = Mesh1D(size=2)
    owners = owner_map(mesh.size, workers)
    arenas = ([shared_memory.SharedMemory(create=True, size=1 << 20)
               for _ in range(workers)] if transport == "shm" else [])
    dispatch = shared_memory.SharedMemory(create=True, size=1 << 16)
    spec = {"mesh": mesh, "profile": None, "owners": owners,
            "arena_names": [a.name for a in arenas] or None,
            "dispatch_arena": dispatch.name, "timeout": timeout,
            "backoff": 0.05, "transport": transport, "hosts": None,
            "heartbeat": [0] * workers, "faults": None}
    inboxes = [queue.Queue() for _ in range(workers)]
    commands = [queue.Queue() for _ in range(workers)]
    results = queue.Queue()
    threads = [threading.Thread(
        target=backend._worker_main,
        args=(w, spec, inboxes, commands[w], results))
        for w in range(workers)]
    try:
        for t in threads:
            t.start()
        widths = ds.layer_widths(hidden=HIDDEN, layers=3)
        shards = ALGORITHMS["1d"].cut_shards(mesh, ds.adjacency,
                                            ranks_of_workers(owners))
        for w, shard in enumerate(shards):
            commands[w].put(("make_algo", ("1d", *shard.split(), widths, 0,
                                           None, {})))
        assert {results.get(timeout=30)[1] for _ in shards} == {"ok"}
        for q in commands:
            q.put((op, commands_of(ds)[op]))
        got = {}
        for _ in range(workers):
            wid, status, value = results.get(timeout=30)
            got[wid] = (status, value)
        return got
    finally:
        for q in commands:
            q.put(("close", None))
        for t in threads:
            t.join(timeout=30)
        for seg in arenas + [dispatch]:
            seg.close()
            seg.unlink()
        assert not any(t.is_alive() for t in threads)


def assert_agreeing_item_digests(got, items):
    """Every worker's reply carries ``items`` per-item digests, and the
    workers' ``(final, per-item)`` digests agree."""
    digests = {value[1] for _, value in got.values()}
    assert len(digests) == 1
    assert len(next(iter(digests))[1]) == items


@pytest.mark.parametrize("transport,replaying", [
    ("shm", ShmReplay), ("tcp", TcpReplay)])
class TestStrayFrames:
    def test_a_clean_fit_passes(self, ds, transport, replaying):
        got = run_fit_on_threads(ds, transport)
        assert [status for status, _ in got.values()] == ["ok", "ok"]
        assert_agreeing_item_digests(got, 2)   # one per epoch

    def test_a_frame_posted_twice_fails_the_command(
            self, ds, monkeypatch, transport, replaying):
        name = {"shm": "PeerChannel", "tcp": "TcpChannel"}[transport]
        monkeypatch.setattr(backend, name, replaying)
        got = run_fit_on_threads(ds, transport)
        status, value = got[1]                 # the receiving worker
        assert status == "err"
        assert "left uncollected after 'fit'" in value

    def test_a_clean_batch_passes(self, ds, transport, replaying):
        got = run_fit_on_threads(ds, transport, "batch")
        assert [status for status, _ in got.values()] == ["ok", "ok"]
        assert_agreeing_item_digests(got, 3)   # setup and two epochs

    def test_a_frame_posted_twice_fails_a_batch(
            self, ds, monkeypatch, transport, replaying):
        name = {"shm": "PeerChannel", "tcp": "TcpChannel"}[transport]
        monkeypatch.setattr(backend, name, replaying)
        got = run_fit_on_threads(ds, transport, "batch")
        status, value = got[1]                 # the receiving worker
        assert status == "err"
        assert "left uncollected after 'batch'" in value
