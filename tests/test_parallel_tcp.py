"""The TCP transport vs. the virtual-runtime oracle.

ISSUE 6's acceptance criteria for the socket channel: the exact same
tagged ``(group, seq)`` exchange semantics as the shm transport, so for
every algorithm family a ``--transport tcp`` run on loopback produces
per-epoch losses **bit-equal** to the virtual runtime and a ledger that
is byte-for-byte identical -- including the ghost variant over a
``Distribution`` partition.  Also covered: the channel primitive itself
(threads in one process, out-of-order stash, heartbeat-extended waits)
and the ``REPRO_PARALLEL_HOSTS`` endpoint parser.
"""

from __future__ import annotations

import queue
import threading

import numpy as np
import pytest

from repro.comm.tracker import Category
from repro.dist import make_algorithm
from repro.graph import make_synthetic
from repro.parallel import ChannelTimeout, TcpChannel, ledger_digest
from repro.parallel.tcp import parse_hosts

EPOCHS = 3
HIDDEN = 8


@pytest.fixture(scope="module")
def ds():
    return make_synthetic(n=60, avg_degree=4, f=8, n_classes=3, seed=11)


def run_virtual(ds, name, p, kw):
    algo = make_algorithm(name, p, ds, hidden=HIDDEN, seed=0, **kw)
    hist = algo.fit(ds.features, ds.labels, epochs=EPOCHS)
    lp = algo.predict()
    return algo, hist, lp


def run_tcp(ds, name, p, workers, kw):
    algo = make_algorithm(name, p, ds, hidden=HIDDEN, seed=0,
                          backend="process", workers=workers,
                          transport="tcp", **kw)
    try:
        hist = algo.fit(ds.features, ds.labels, epochs=EPOCHS)
        lp = algo.predict()
        tracker = algo.rt.tracker.snapshot()
        stats = algo.rt.backend_stats()
    finally:
        algo.rt.close()
    return hist, lp, tracker, stats


# All four algorithm families at P=4 (3D needs a cubic mesh: P=8), both
# sharded (W < P) and pure-SPMD (W == P) ownership, over sockets.
TCP_MATRIX = [
    ("1d", 4, 2, {}),
    ("1d", 4, 4, {"variant": "outer"}),
    ("1.5d", 4, 2, {"replication": 2}),
    ("2d", 4, 4, {}),
    ("3d", 8, 2, {}),
]


class TestTcpCrossBackendEquality:
    @pytest.mark.parametrize("name,p,workers,kw", TCP_MATRIX)
    def test_losses_and_ledger_match_virtual(self, ds, name, p, workers,
                                             kw):
        v_algo, v_hist, v_lp = run_virtual(ds, name, p, kw)
        p_hist, p_lp, p_tracker, stats = run_tcp(ds, name, p, workers, kw)

        for e_v, e_p in zip(v_hist.epochs, p_hist.epochs):
            assert e_v.loss == e_p.loss
            assert e_v.train_accuracy == e_p.train_accuracy
            assert e_v.bytes_by_category == e_p.bytes_by_category
            assert e_v.seconds_by_category == e_p.seconds_by_category
            assert e_v.max_rank_comm_bytes == e_p.max_rank_comm_bytes
        v_tracker = v_algo.rt.tracker
        for r in range(p):
            for c in Category.ALL:
                tv, tp = v_tracker.per_rank[r][c], p_tracker.per_rank[r][c]
                assert (tv.seconds, tv.bytes, tv.messages, tv.flops) == \
                       (tp.seconds, tp.bytes, tp.messages, tp.flops), (r, c)
        assert ledger_digest(v_tracker) == ledger_digest(p_tracker)
        # Inference read-out: same bound as the shm oracle (SUMMA
        # partial-sum order differs from the serial assembly).
        np.testing.assert_allclose(v_lp, p_lp, rtol=0, atol=1e-12)
        # The frames really crossed sockets.
        assert stats["transport"] == "tcp"
        assert stats["channel_bytes"] > 0
        assert stats["exchanges"] > 0

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_ghost_multilevel_partition_over_tcp(self, ds, workers):
        """The partition-aware ghost variant -- the hardest ledger to
        reproduce -- stays byte-identical across the socket fabric, also
        at W >= 3 where some workers sit out a coalesced ghost call that
        others take part in."""
        kw = {"variant": "ghost", "partition": "multilevel"}
        v_algo, v_hist, v_lp = run_virtual(ds, "1d", 4, kw)
        p_hist, p_lp, p_tracker, _ = run_tcp(ds, "1d", 4, workers, kw)
        for e_v, e_p in zip(v_hist.epochs, p_hist.epochs):
            assert e_v.loss == e_p.loss
            assert e_v.bytes_by_category == e_p.bytes_by_category
            assert e_v.seconds_by_category == e_p.seconds_by_category
        assert ledger_digest(v_algo.rt.tracker) == ledger_digest(p_tracker)
        np.testing.assert_allclose(v_lp, p_lp, rtol=0, atol=1e-12)


class TestTcpChannelPrimitive:
    """The socket exchange itself, driven by threads in-process."""

    def _pair(self, timeout=10.0, heartbeat=None, n=2):
        inboxes = [queue.Queue() for _ in range(n)]
        chans = [None] * n
        errs = []

        def build(wid):
            try:
                chans[wid] = TcpChannel(wid, n, inboxes=inboxes,
                                        timeout=timeout,
                                        heartbeat=heartbeat)
            except Exception as exc:  # pragma: no cover - surfaced below
                errs.append(exc)

        ts = [threading.Thread(target=build, args=(w,)) for w in range(n)]
        for t in ts:
            t.start()
        for t in ts:
            t.join(timeout=15)
        assert not errs, errs
        return chans

    def test_per_peer_lists_pickle_a_shared_payload_once(self, monkeypatch):
        """Peer 1 gets an item peer 2 does not; the payload object both
        lists share is pickled once and spliced into both frames."""
        import pickle
        import types

        from repro.parallel import tcp

        chans = self._pair(n=3)
        big = np.arange(4096.0)
        extra = np.arange(3.0)
        dumped = []

        def dumps(obj, protocol=None):
            dumped.append(obj)
            return pickle.dumps(obj, protocol=protocol)

        monkeypatch.setattr(tcp, "pickle", types.SimpleNamespace(
            dumps=dumps, loads=pickle.loads,
            HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL))
        results, errs = {}, []
        programs = {
            0: lambda ch: ch.collect(ch.post(
                "g", {1: [("x", big), ("only1", extra)], 2: [("x", big)]},
                [])),
            1: lambda ch: ch.collect(ch.post("g", {}, [0])),
            2: lambda ch: ch.collect(ch.post("g", {}, [0])),
        }

        def run(wid):
            try:
                results[wid] = programs[wid](chans[wid])
            except Exception as exc:  # pragma: no cover
                errs.append(exc)

        ts = [threading.Thread(target=run, args=(w,)) for w in range(3)]
        for t in ts:
            t.start()
        for t in ts:
            t.join(timeout=15)
        for ch in chans:
            ch.close()
        assert not errs, errs
        assert [k for k, _ in results[1][0]] == ["x", "only1"]
        assert [k for k, _ in results[2][0]] == ["x"]
        for wid in (1, 2):
            np.testing.assert_array_equal(results[wid][0][0][1], big)
        np.testing.assert_array_equal(results[1][0][1][1], extra)
        assert sum(obj is big for obj in dumped) == 1
        # bytes_sent counts what was delivered: both frames carry `big`.
        assert chans[0].bytes_sent > 2 * big.nbytes
        assert chans[0].nexchanges == 1

    def test_roundtrip_and_out_of_order_stash(self):
        chans = self._pair()
        results = {}
        errs = []

        def run(wid):
            ch = chans[wid]
            try:
                if wid == 0:
                    # Post g1 then g2 ...
                    ch.collect(ch.post("g1", {1: [("a", np.arange(4.0))]}, []))
                    ch.collect(ch.post("g2", {1: [("b", np.ones(3))]}, []))
                    got = ch.collect(ch.post("g3", {1: [("c", None)]}, [1]))
                    results[wid] = got
                else:
                    # ... but consume g2 before g1: the stash must hold
                    # the early frame until its tag is wanted.
                    g2 = ch.collect(ch.post("g2", {}, [0]))
                    g1 = ch.collect(ch.post("g1", {}, [0]))
                    got = ch.collect(
                        ch.post("g3", {0: [("d", np.zeros(2))]}, [0]))
                    results[wid] = (g1, g2, got)
            except Exception as exc:  # pragma: no cover
                errs.append(exc)

        ts = [threading.Thread(target=run, args=(w,)) for w in (0, 1)]
        for t in ts:
            t.start()
        for t in ts:
            t.join(timeout=15)
        for ch in chans:
            ch.close()
        assert not errs, errs
        g1, g2, got1 = results[1]
        np.testing.assert_array_equal(g1[0][0][1], np.arange(4.0))
        np.testing.assert_array_equal(g2[0][0][1], np.ones(3))
        key, payload = results[0][1][0]
        assert key == "d"
        np.testing.assert_array_equal(payload, np.zeros(2))
        assert got1[0][0] == ("c", None)
        assert chans[0].bytes_sent > 0 and chans[0].nexchanges == 3

    def test_no_progress_timeout_names_peer(self):
        chans = self._pair(timeout=0.6)
        try:
            with pytest.raises(ChannelTimeout, match="no progress from "
                                                     "worker 1"):
                chans[0].collect(chans[0].post("g", {}, [1]))
        finally:
            for ch in chans:
                ch.close()

    def test_heartbeat_extends_the_wait(self):
        """A peer that keeps making progress is never timed out, even
        when one wait exceeds the window."""
        hb = [0, 0]
        chans = self._pair(timeout=0.6, heartbeat=hb)
        stop = threading.Event()

        def beat():
            while not stop.is_set():
                hb[1] += 1
                stop.wait(0.1)

        def late_send():
            stop.wait(1.5)  # well past the 0.6s window
            chans[1].collect(
                chans[1].post("g", {0: [("x", np.arange(2.0))]}, []))

        beater = threading.Thread(target=beat, daemon=True)
        sender = threading.Thread(target=late_send)
        beater.start()
        sender.start()
        try:
            got = chans[0].collect(chans[0].post("g", {}, [1]))
            np.testing.assert_array_equal(got[1][0][1], np.arange(2.0))
        finally:
            stop.set()
            sender.join(timeout=5)
            beater.join(timeout=5)
            for ch in chans:
                ch.close()


class TestHostsParsing:
    def test_parse_hosts(self):
        assert parse_hosts("10.0.0.1:9000, 10.0.0.2:9001") == [
            ("10.0.0.1", 9000), ("10.0.0.2", 9001)]
        assert parse_hosts("[::1]:80,localhost:81") == [
            ("::1", 80), ("localhost", 81)]

    def test_parse_hosts_rejects_garbage(self):
        with pytest.raises(ValueError, match="host:port"):
            parse_hosts("nocolon")
        with pytest.raises(ValueError, match="empty"):
            parse_hosts(" , ")

    def test_parse_hosts_rejects_bad_ports(self):
        with pytest.raises(ValueError, match="port"):
            parse_hosts("a:0")
        with pytest.raises(ValueError, match="port"):
            parse_hosts("a:70000")
        with pytest.raises(ValueError, match="host:port"):
            parse_hosts("a:http")

    def test_parse_hosts_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_hosts("10.0.0.1:9000,10.0.0.1:9000")
        # Same host, different ports: fine (single-machine layouts).
        assert parse_hosts("h:1,h:2") == [("h", 1), ("h", 2)]

    def test_parse_hosts_enforces_worker_count(self):
        assert parse_hosts("h:1,h:2", nworkers=2) == [("h", 1), ("h", 2)]
        with pytest.raises(ValueError, match="need exactly one per worker"):
            parse_hosts("h:1,h:2", nworkers=3)
        with pytest.raises(ValueError, match="need exactly one per worker"):
            parse_hosts("h:1,h:2,h:3", nworkers=2)

    def test_hosts_rendezvous_on_loopback(self, ds, monkeypatch):
        """The static REPRO_PARALLEL_HOSTS path (how multi-host runs
        rendezvous), exercised with both endpoints on loopback."""
        import socket

        ports = []
        socks = []
        for _ in range(2):
            s = socket.socket()
            s.bind(("127.0.0.1", 0))
            ports.append(s.getsockname()[1])
            socks.append(s)
        for s in socks:
            s.close()
        monkeypatch.setenv(
            "REPRO_PARALLEL_HOSTS",
            ",".join(f"127.0.0.1:{port}" for port in ports),
        )
        v_algo, v_hist, v_lp = run_virtual(ds, "1d", 2, {})
        algo = make_algorithm("1d", 2, ds, hidden=HIDDEN, seed=0,
                              backend="process", workers=2,
                              transport="tcp")
        try:
            hist = algo.fit(ds.features, ds.labels, epochs=EPOCHS)
            lp = algo.predict()
            assert [e.loss for e in hist.epochs] == \
                   [e.loss for e in v_hist.epochs]
            assert ledger_digest(algo.rt.tracker) == \
                   ledger_digest(v_algo.rt.tracker)
            np.testing.assert_allclose(v_lp, lp, rtol=0, atol=1e-12)
        finally:
            algo.rt.close()
