"""Split-phase exchange: ``post`` / ``collect`` tickets on both transports.

Channel level (workers as threads of one process, like the outbox tests
in ``test_parallel_shm.py`` / ``test_parallel_tcp.py``): what the epochs
do not reach -- several tickets outstanding, the shm arena's reclaim
rule (also after a spill), TCP posts that outrun the kernel buffer, and
the empty ticket.

Program level: the structural gate for the look-ahead of one stage.  A
recording channel logs the post/collect sequence of real 2D epochs run
by two worker runtimes in threads, so the gate fires on a 1-core host:
stage ``k + 1`` is posted before stage ``k`` is collected in every
sweep, never more than two routed-broadcast tickets are open, and the
exchange counts per epoch are the ones PR 12 pinned.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.comm.mesh import Mesh1D, Mesh2D
from repro.dist import make_algorithm
from repro.dist.registry import ALGORITHMS, make_distribution
from repro.graph import make_synthetic
from repro.parallel import (
    FaultPlan,
    PeerChannel,
    TcpChannel,
    WorkerRuntime,
    ledger_digest,
    owner_map,
)

TRANSPORTS = ["shm", "tcp"]
JOIN = 30.0


def run_threads(programs):
    """Run ``{wid: fn}`` concurrently; returns ``{wid: result}``."""
    results, errs = {}, []

    def run(wid):
        try:
            results[wid] = programs[wid]()
        except Exception as exc:  # pragma: no cover - surfaced below
            errs.append((wid, exc))

    ts = [threading.Thread(target=run, args=(w,)) for w in programs]
    for t in ts:
        t.start()
    for t in ts:
        t.join(timeout=JOIN)
    assert not any(t.is_alive() for t in ts), "a worker thread is stuck"
    assert not errs, errs
    return results


class Fabric:
    """``n`` channel endpoints of one transport inside this process."""

    def __init__(self, transport, n, arena_bytes=1 << 20, cls=None):
        self.shms = []
        inboxes = [queue.Queue() for _ in range(n)]
        if transport == "shm":
            self.shms = [
                shared_memory.SharedMemory(create=True, size=arena_bytes)
                for _ in range(n)]
            names = [shm.name for shm in self.shms]
            cls = cls or PeerChannel
            self.chans = [cls(w, inboxes, names, timeout=10.0, inline_max=64)
                          for w in range(n)]
        else:
            cls = cls or TcpChannel
            built = run_threads({
                w: (lambda w=w: cls(w, n, inboxes=inboxes, timeout=10.0))
                for w in range(n)})
            self.chans = [built[w] for w in range(n)]

    def close(self):
        for ch in self.chans:
            ch.close()
        for shm in self.shms:
            shm.close()
            shm.unlink()


@pytest.fixture
def fabric():
    made = []

    def make(*args, **kw):
        made.append(Fabric(*args, **kw))
        return made[-1]

    yield make
    for f in made:
        f.close()


def items_equal(got, want):
    assert sorted(got) == sorted(want)
    for src in want:
        assert [k for k, _ in got[src]] == [k for k, _ in want[src]]
        for (_, a), (_, b) in zip(got[src], want[src]):
            np.testing.assert_array_equal(a, b)


# --------------------------------------------------------------------- #
# channel level, both transports
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("transport", TRANSPORTS)
class TestTickets:
    def test_two_outstanding_tickets_equal_two_exchanges(self, fabric,
                                                         transport):
        """post, post, collect, collect == two blocking exchanges,
        each ``collect(post(...))``."""
        payloads = {w: (np.arange(2048.0) + w, np.full(3, float(w)))
                    for w in (0, 1)}

        def split(ch):
            peer = 1 - ch.wid
            big, small = payloads[ch.wid]
            t1 = ch.post("g", {peer: [("big", big)]}, [peer])
            t2 = ch.post("g", {peer: [("small", small), ("none", None)]},
                         [peer])
            return ch.collect(t1), ch.collect(t2)

        def fused(ch):
            peer = 1 - ch.wid
            big, small = payloads[ch.wid]
            first = ch.collect(ch.post("g", {peer: [("big", big)]}, [peer]))
            return first, ch.collect(ch.post(
                "g", {peer: [("small", small), ("none", None)]}, [peer]))

        runs = []
        for program in (split, fused):
            chans = fabric(transport, 2).chans
            got = run_threads({w: (lambda w=w: program(chans[w]))
                               for w in (0, 1)})
            runs.append((got, [(ch.nexchanges, ch.bytes_sent)
                               for ch in chans]))
        (split_got, split_counts), (fused_got, fused_counts) = runs
        assert split_counts == fused_counts
        assert [n for n, _ in split_counts] == [2, 2]
        for w in (0, 1):
            for a, b in zip(split_got[w], fused_got[w]):
                items_equal(a, b)
            first, second = split_got[w]
            np.testing.assert_array_equal(first[1 - w][0][1],
                                          payloads[1 - w][0])
            assert second[1 - w][1] == ("none", None)

    def test_sitting_a_posted_call_out_advances_the_tag_for_free(
            self, fabric, transport):
        """W = 3: worker 2 has nothing in the first posted call.  Its
        ticket is empty -- no wire, no counter, no fault index -- but
        its tag advances, so the second call lines up on all three."""
        chans = fabric(transport, 3).chans
        plan = FaultPlan.for_worker(
            2, "delay:worker=2,exchange=0,seconds=0.01")
        chans[2].faults = plan

        def w0(ch):
            t1 = ch.post("s", {1: [(0, np.zeros(2))]}, [])
            t2 = ch.post("s", {}, [2])
            return ch.collect(t1), ch.collect(t2)

        def w1(ch):
            t1 = ch.post("s", {}, [0])
            t2 = ch.post("s", {}, [])
            assert t2 is None
            return ch.collect(t1), ch.collect(t2)

        def w2(ch):
            t1 = ch.post("s", {}, [])
            assert t1 is None and ch.collect(t1) == {}
            assert (ch.nexchanges, ch.bytes_sent) == (0, 0)
            assert not plan._fired          # exchange 0 is still to come
            t2 = ch.post("s", {0: [(1, np.ones(2))]}, [])
            assert plan._fired              # ... and this post was it
            return ch.collect(t2)

        got = run_threads({0: lambda: w0(chans[0]), 1: lambda: w1(chans[1]),
                           2: lambda: w2(chans[2])})
        np.testing.assert_array_equal(got[0][1][2][0][1], np.ones(2))
        np.testing.assert_array_equal(got[1][0][0][0][1], np.zeros(2))
        assert got[1][1] == {} and got[2] == {}
        assert [ch.nexchanges for ch in chans] == [2, 1, 1]
        assert all(ch._seq["s"] == 2 for ch in chans)


# --------------------------------------------------------------------- #
# shm: the arena is rewound by the last outstanding ticket only
# --------------------------------------------------------------------- #
class TestArenaReclaim:
    @staticmethod
    def _program(ch, barrier, sizes):
        """Post ``len(sizes)`` tickets, then collect them in order;
        returns the arena pointer after every step and the tickets."""
        peer = 1 - ch.wid
        tickets, ptrs = [], [ch.arena.ptr]
        for i, n in enumerate(sizes):
            tickets.append(ch.post(
                "a", {peer: [(i, np.full(n, float(i + ch.wid)))]}, [peer]))
            ptrs.append(ch.arena.ptr)
        barrier.wait(JOIN)
        got = []
        for t in tickets:
            got.append(ch.collect(t))
            ptrs.append(ch.arena.ptr)
        return ptrs, tickets, got

    def test_pointer_waits_for_the_last_collect(self, fabric):
        chans = fabric("shm", 2).chans
        barrier = threading.Barrier(2)
        sizes = (1024, 2048)                     # 8 and 16 KiB: arena path
        res = run_threads({
            w: (lambda w=w: self._program(chans[w], barrier, sizes))
            for w in (0, 1)})
        for w in (0, 1):
            ptrs, _, got = res[w]
            mark, after_p1, after_p2, after_c1, after_c2 = ptrs
            assert mark == 0
            assert mark < after_p1 < after_p2      # posts keep bumping
            assert after_c1 == after_p2            # a ticket still open
            assert after_c2 == mark                # last one rewinds
            assert chans[w].arena.spills == 0
            for i, n in enumerate(sizes):
                np.testing.assert_array_equal(
                    got[i][1 - w][0][1], np.full(n, float(i + 1 - w)))
        # and the next exchange starts from the mark again
        run_threads({w: (lambda w=w: chans[w].collect(chans[w].post(
            "b", {1 - w: [(0, np.ones(1024))]}, [1 - w]))) for w in (0, 1)})
        assert [ch.arena.ptr for ch in chans] == [0, 0]

    def test_spill_with_a_ticket_open_leaves_no_segment(self, fabric):
        """The arena holds the first payload only; the second post finds
        it full (ticket 1 is still open), spills to an ephemeral segment
        and that segment is gone after its own collect."""
        chans = fabric("shm", 2, arena_bytes=24 << 10).chans
        barrier = threading.Barrier(2)
        before = {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
        sizes = (2048, 2048)                     # 16 KiB each, 24 KiB arena
        res = run_threads({
            w: (lambda w=w: self._program(chans[w], barrier, sizes))
            for w in (0, 1)})
        for w in (0, 1):
            ptrs, tickets, got = res[w]
            assert chans[w].arena.spills == 1
            assert ptrs[2] == ptrs[1]              # nothing bumped: spilled
            assert ptrs[-1] == 0
            (seg,) = tickets[1].borrowed[0]
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=seg.name)
            for i in (0, 1):
                np.testing.assert_array_equal(
                    got[i][1 - w][0][1], np.full(2048, float(i + 1 - w)))
        after = {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
        assert after <= before


# --------------------------------------------------------------------- #
# tcp: posts never block, frames never overtake
# --------------------------------------------------------------------- #
class TestTcpBacklog:
    def test_big_posts_both_ways_and_a_post_behind_the_backlog(
            self, fabric):
        """Both workers post 8 MB to each other at once -- far more than
        the (pinned small) socket buffers hold, so the posting thread
        writes a head and leaves the tail to the sender thread -- then a
        second frame while that tail is still queued.  Nobody reads
        until both have posted both: neither post may block, and the
        frames must arrive in post order."""
        chans = fabric("tcp", 2).chans
        # The stash would hide a reordered frame: log the tags as the
        # frames come off the socket.
        arrivals = {0: [], 1: []}
        for ch in chans:
            for conn in ch._conns.values():
                for opt in (socket.SO_SNDBUF, socket.SO_RCVBUF):
                    conn.sock.setsockopt(socket.SOL_SOCKET, opt, 1 << 16)

            def logged(src, key=None, ch=ch, read=ch._read_msg):
                msg = read(src, key)
                arrivals[ch.wid].append(msg[1])
                return msg
            ch._read_msg = logged
        barrier = threading.Barrier(2)
        big = {w: np.full(1 << 20, float(w + 1)) for w in (0, 1)}   # 8 MB
        small = {w: np.arange(5.0) + w for w in (0, 1)}

        def program(ch):
            peer = 1 - ch.wid
            conn = ch._conns[peer]
            t1 = ch.post("g", {peer: [("big", big[ch.wid])]}, [peer])
            backlog = conn.queued - conn.drained
            t2 = ch.post("g", {peer: [("small", small[ch.wid])]}, [peer])
            queued = conn.queued
            barrier.wait(JOIN)           # both posted twice, nothing read
            return backlog, queued, ch.collect(t1), ch.collect(t2)

        res = run_threads({w: (lambda w=w: program(chans[w]))
                           for w in (0, 1)})
        for w in (0, 1):
            backlog, queued, first, second = res[w]
            assert backlog == 1          # the big frame's tail was queued
            assert queued == 2           # ... so the small frame went behind
            np.testing.assert_array_equal(first[1 - w][0][1], big[1 - w])
            np.testing.assert_array_equal(second[1 - w][0][1], small[1 - w])
            conn = chans[w]._conns[1 - w]
            assert conn.queued == conn.drained == 2
        assert arrivals == {0: [("g", 0), ("g", 1)], 1: [("g", 0), ("g", 1)]}

    def test_small_frames_skip_the_sender_thread(self, fabric):
        chans = fabric("tcp", 2).chans
        run_threads({w: (lambda w=w: [chans[w].collect(chans[w].post(
            "g", {1 - w: [(0, np.arange(64.0))]}, [1 - w]))
            for _ in range(20)]) for w in (0, 1)})
        assert [ch._conns[1 - ch.wid].queued for ch in chans] == [0, 0]


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_read_out_ships_only_the_ranks_read(fabric, transport):
    """``gather_blocks(blocks, ranks)``: every worker ends with the
    blocks of ``ranks`` -- 2D's process column 0, what ``_assemble``
    reads -- and a worker holding none of them sends its peers an empty
    list, not its own block."""
    chans = fabric(transport, 4).chans
    owners = owner_map(4, 4)
    blocks = {r: np.full((50, 3), float(r)) for r in range(4)}

    def worker(ch):
        rt = WorkerRuntime(Mesh2D.square(4), None, ch, owners)
        before = ch.bytes_sent
        got = rt.gather_blocks({r: blocks[r] for r in rt.local_ranks},
                               ranks=(0, 2))
        return got, ch.bytes_sent - before

    res = run_threads({w: (lambda w=w: worker(chans[w])) for w in range(4)})
    for got, _ in res.values():
        for r in (0, 2):
            np.testing.assert_array_equal(got[r], blocks[r])
    sent = [res[w][1] for w in range(4)]
    # three peers each: a 1200-byte block, or an empty list
    assert sent[1] == sent[3] < 1200 < 3 * 1200 <= sent[0] == sent[2]


# --------------------------------------------------------------------- #
# program level: the look-ahead of one stage, recorded
# --------------------------------------------------------------------- #
class RecordingChannel(PeerChannel):
    """Logs every non-empty ``post`` / ``collect`` by tag."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.log = []

    def post(self, gkey, outbox, recv_from):
        ticket = super().post(gkey, outbox, recv_from)
        if ticket is not None:
            self.log.append(("post", ticket.tag))
        return ticket

    def collect(self, ticket):
        if ticket is not None:
            self.log.append(("collect", ticket.tag))
        return super().collect(ticket)


@pytest.fixture(scope="module")
def ds():
    return make_synthetic(n=60, avg_degree=4, f=8, n_classes=3, seed=11)


def run_recorded(fabric, ds, name, mesh, kw, epochs=3):
    """Set up and train ``epochs`` epochs on two worker runtimes
    (threads) over recording shm channels; returns per worker ``(logs,
    losses, digest)`` -- ``logs[0]`` is the set-up's (the one-time
    ``A^T H^0`` aggregation), ``logs[1 + e]`` epoch ``e``'s."""
    chans = fabric("shm", 2, cls=RecordingChannel).chans
    owners = owner_map(mesh.size, 2)
    widths = ds.layer_widths(hidden=8, layers=3)

    def worker(ch):
        rt = WorkerRuntime(mesh, None, ch, owners)
        algo = ALGORITHMS[name](rt, ds.adjacency, widths, seed=0, **kw)
        marks, losses = [len(ch.log)], []
        algo.setup(ds.features, ds.labels, None)
        for e in range(epochs):
            marks.append(len(ch.log))
            losses.append(algo.train_epoch(e).loss)
        marks.append(len(ch.log))
        logs = [ch.log[a:b] for a, b in zip(marks, marks[1:])]
        return logs, losses, ledger_digest(rt.tracker)

    return run_threads({w: (lambda w=w: worker(chans[w])) for w in (0, 1)})


class TestLookAheadOfOne:
    def test_2d_epoch_posts_stage_k_plus_1_before_collecting_stage_k(
            self, fabric, ds):
        res = run_recorded(fabric, ds, "2d", Mesh2D.square(4), {})
        virtual = make_algorithm("2d", 4, ds, hidden=8, seed=0)
        virtual.setup(ds.features, ds.labels)
        v_losses = [virtual.train_epoch(e).loss for e in range(3)]
        for w in (0, 1):
            (setup, *logs), losses, digest = res[w]
            assert losses == v_losses
            assert digest == ledger_digest(virtual.rt.tracker)
            # the set-up aggregation is one forward sweep: two stages
            # (its gather of T^0 along the process rows stays inside a
            # worker here, like every replicated-W funnel)
            assert [what for what, _ in setup] == [
                "post", "post", "collect", "collect"]
            for log in logs:
                posts = [tag for what, tag in log if what == "post"]
                # L - 1 = 2 sweeps each way x 2 SUMMA stages whose dense
                # rows cross workers + the gradient bucket's one
                # reduction, per worker per epoch (12 while the loss and
                # each weight gradient reduced apart)
                assert len(posts) == 9
                # In program order -- what an ``exchange=N`` fault spec
                # indexes.  Widths 8-8-8-3: layer 3 shrinks, so its
                # ``_matmul_w`` stage loop runs before its forward sweep
                # and ``Y^3`` comes from ``A G^3``; on this mesh those
                # funnels stay inside a worker, and the sequence of
                # exchanges is the one before the rule: two forward
                # sweeps, two backward sweeps, then the one all-reduce
                # of the loss pair and every weight gradient.  Every
                # stage of this graph gathers the rows its sparse pieces
                # read ("gr"; "rb" while stages broadcast the block).
                assert [tag[0][0] for tag in posts] == ["gr"] * 8 + ["ar"]
                open_stages, sweeps, high = [], [], 0
                for what, tag in log:
                    if tag[0] != ("gr",):
                        # reductions meet with no stage exchange in flight
                        assert not open_stages
                        continue
                    if what == "post":
                        if not open_stages:
                            sweeps.append([])
                        open_stages.append(tag)
                        high = max(high, len(open_stages))
                    else:
                        assert tag == open_stages.pop(0)   # in post order
                    sweeps[-1].append((what, tag))
                assert not open_stages
                assert high == 2
                # Every sweep is two stages: both posted, then both
                # collected -- stage 1 is on the wire before stage 0 is
                # waited for.
                assert len(sweeps) == 4
                for sweep in sweeps:
                    assert [what for what, _ in sweep] == [
                        "post", "post", "collect", "collect"]
            # the fault tests pin their look-ahead index on this: with
            # 2 exchanges at set-up and 9 per epoch, exchange 12 is the
            # second post of epoch 1, issued while exchange 11 is still
            # uncollected
            assert [what for what, _ in logs[1][:3]] == [
                "post", "post", "collect"]

    def test_1d_ghost_is_post_then_collect_back_to_back(self, fabric, ds):
        kw = {"variant": "ghost",
              "distribution": make_distribution(
                  "multilevel", ds.adjacency, 4, seed=0)}
        res = run_recorded(fabric, ds, "1d", Mesh1D(size=4), kw)
        for w in (0, 1):
            setup, *logs = res[w][0]
            assert len(setup) == 2               # one ghost fetch
            assert all(len(log) == 10 for log in logs)   # 5 per epoch
            # two forward fetches (the second at 3 columns, after layer
            # 3's GEMM), the backward fetches of layers 3 and 2, then the
            # gradient bucket's one all-reduce: the order the fault specs
            # index (8 an epoch while the loss and each weight gradient
            # reduced apart)
            for log in logs:
                assert [tag[0][0] for what, tag in log if what == "post"] \
                    == ["gr", "gr", "gr", "gr", "ar"]
            for log in res[w][0]:
                for (a, ta), (b, tb) in zip(log[0::2], log[1::2]):
                    assert (a, b) == ("post", "collect") and ta == tb
