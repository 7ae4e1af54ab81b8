"""Unit tests for the shared-memory codec, arena and exchange primitive
(threads, no processes)."""

from __future__ import annotations

import queue
import threading
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.parallel.channel import PeerChannel
from repro.parallel.shm import (
    INLINE_MAX,
    Arena,
    Parked,
    decode_payload,
    desc_needs_ack,
    encode_payload,
    fetch_fields,
    park_fields,
    payload_bytes,
)
from repro.sparse.csr import CSRMatrix


@pytest.fixture
def arena():
    shm = shared_memory.SharedMemory(create=True, size=1 << 20)
    a = Arena(shm)
    yield a
    shm.close()
    shm.unlink()


def roundtrip(arena, obj, inline_max=128):
    eph = []
    desc = encode_payload(arena, obj, eph, inline_max=inline_max)
    out = decode_payload(desc, arena.shm.buf)
    for seg in eph:
        seg.close()
        seg.unlink()
    return desc, out


class TestArena:
    def test_alloc_aligns_and_resets(self, arena):
        o1 = arena.alloc(100)
        o2 = arena.alloc(100)
        assert o1 % 64 == 0 and o2 % 64 == 0 and o2 >= o1 + 100
        arena.reset()
        assert arena.alloc(100) == o1

    def test_alloc_overflow_returns_none(self, arena):
        assert arena.alloc(arena.size + 1) is None


class TestCodec:
    def test_none_roundtrip(self, arena):
        desc, out = roundtrip(arena, None)
        assert desc == ("none",) and out is None
        assert not desc_needs_ack(desc)

    def test_inline_array_is_private_copy(self, arena):
        src = np.arange(6.0).reshape(2, 3)
        desc, out = roundtrip(arena, src, inline_max=1024)
        assert desc[0] == "inl" and not desc_needs_ack(desc)
        np.testing.assert_array_equal(out, src)
        assert desc[1] is not src  # feeder-thread pickling safety

    def test_shm_array_roundtrip_exact(self, arena):
        rng = np.random.default_rng(0)
        src = rng.standard_normal((64, 32))
        desc, out = roundtrip(arena, src, inline_max=16)
        assert desc[0] == "arr" and desc_needs_ack(desc)
        assert out.dtype == src.dtype and out.shape == src.shape
        np.testing.assert_array_equal(out, src)
        assert out.flags.owndata  # a private copy, not an shm view

    def test_noncontiguous_and_int_arrays(self, arena):
        src = np.arange(64, dtype=np.int64).reshape(8, 8)[::2, 1::2]
        desc, out = roundtrip(arena, src, inline_max=8)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, src)

    def test_csr_roundtrip_exact(self, arena):
        rng = np.random.default_rng(1)
        dense = (rng.random((20, 16)) < 0.2) * rng.standard_normal((20, 16))
        src = CSRMatrix.from_dense(dense)
        desc, out = roundtrip(arena, src, inline_max=32)
        assert desc[0] == "csr"
        assert isinstance(out, CSRMatrix)
        assert out.shape == src.shape
        for field in ("indptr", "indices", "data"):
            got, want = getattr(out, field), getattr(src, field)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_arena_overflow_spills_to_ephemeral(self):
        shm = shared_memory.SharedMemory(create=True, size=256)
        arena = Arena(shm)
        try:
            src = np.arange(1024.0)  # 8 KiB >> 256 B arena
            eph = []
            desc = encode_payload(arena, src, eph, inline_max=16)
            assert desc[0] == "arr" and desc[3] is not None  # named segment
            assert len(eph) == 1 and desc_needs_ack(desc)
            out = decode_payload(desc, arena.shm.buf)
            np.testing.assert_array_equal(out, src)
            for seg in eph:
                seg.close()
                seg.unlink()
        finally:
            shm.close()
            shm.unlink()

    def test_list_ships_a_shared_item_once(self, arena):
        """A list's items travel in order; one object listed twice is
        encoded once and decodes to one shared copy again."""
        rng = np.random.default_rng(2)
        shared, other = rng.standard_normal((8, 4)), np.arange(3.0)
        src = [shared, other, shared, None]
        desc, out = roundtrip(arena, src, inline_max=64)
        assert desc[0] == "seq" and desc_needs_ack(desc)
        assert [d[0] for d in desc[1]] == ["arr", "inl", "ref", "none"]
        assert payload_bytes(src) == shared.nbytes + other.nbytes
        np.testing.assert_array_equal(out[0], shared)
        np.testing.assert_array_equal(out[1], other)
        assert out[2] is out[0] and out[3] is None

    def test_unsupported_payload_raises(self, arena):
        with pytest.raises(TypeError, match="cannot ship"):
            encode_payload(arena, {"a": 1}, [])


class TestParkedFields:
    """The dispatch side of the codec: bulk command fields go to the
    arena, everything else stays in the command."""

    def test_tuple_payload_parks_only_bulk_fields(self, arena):
        big = np.arange(INLINE_MAX, dtype=np.float64)      # 8x the limit
        small = np.arange(4, dtype=np.int64)
        csr = CSRMatrix.from_dense(np.eye(INLINE_MAX // 8 + 8))
        opts = {"path": None}
        eph = []
        parked = park_fields(arena, (big, small, None, 3, opts, csr), eph)
        assert [type(f) for f in parked] == [
            Parked, np.ndarray, type(None), int, dict, Parked]
        assert parked[1] is small and parked[4] is opts and not eph
        back = fetch_fields(parked, arena.shm.buf)
        np.testing.assert_array_equal(back[0], big)
        assert back[0].flags.owndata and back[1] is small and back[3] == 3
        np.testing.assert_array_equal(back[5].to_dense(), csr.to_dense())

    def test_bare_array_payload_and_passthrough(self, arena):
        big = np.ones((INLINE_MAX, 2))
        parked = park_fields(arena, big, [])
        assert isinstance(parked, Parked)
        np.testing.assert_array_equal(
            fetch_fields(parked, arena.shm.buf), big)
        for payload in (None, 7, [("predict", None)], np.zeros(3)):
            assert park_fields(arena, payload, []) is payload
            assert fetch_fields(payload, arena.shm.buf) is payload


class TestPeerChannelOutbox:
    """The exchange primitive over queues + shm, three workers as
    threads of one process."""

    @pytest.fixture
    def chans(self):
        shms = [shared_memory.SharedMemory(create=True, size=1 << 20)
                for _ in range(3)]
        inboxes = [queue.Queue() for _ in range(3)]
        names = [shm.name for shm in shms]
        chans = [PeerChannel(w, inboxes, names, timeout=10.0, inline_max=64)
                 for w in range(3)]
        yield chans
        for ch in chans:
            ch.close()
        for shm in shms:
            shm.close()
            shm.unlink()

    @staticmethod
    def _run(chans, programs):
        results, errs = {}, []

        def run(wid):
            try:
                results[wid] = programs[wid](chans[wid])
            except Exception as exc:  # pragma: no cover - surfaced below
                errs.append((wid, exc))

        ts = [threading.Thread(target=run, args=(w,)) for w in programs]
        for t in ts:
            t.start()
        for t in ts:
            t.join(timeout=15)
        assert not errs, errs
        return results

    def test_per_peer_lists_share_one_arena_write(self, chans):
        big = np.arange(4096.0)                  # 32 KiB, via the arena
        extra = np.arange(3.0)                   # inline
        got = self._run(chans, {
            0: lambda ch: ch.collect(ch.post(
                "g", {1: [("x", big), ("only1", extra)], 2: [("x", big)]},
                [])),
            1: lambda ch: ch.collect(ch.post("g", {}, [0])),
            2: lambda ch: ch.collect(ch.post("g", {}, [0])),
        })
        assert got[0] == {}
        assert [k for k, _ in got[1][0]] == ["x", "only1"]
        assert [k for k, _ in got[2][0]] == ["x"]
        for wid in (1, 2):
            np.testing.assert_array_equal(got[wid][0][0][1], big)
        np.testing.assert_array_equal(got[1][0][1][1], extra)
        # One shared payload object, two destinations: written once.
        assert big.nbytes <= chans[0].arena.high_water < 2 * big.nbytes
        assert chans[0].arena.ptr == 0          # and reclaimed
        # The counter is bytes *delivered*: once per destination.
        assert chans[0].bytes_sent == 2 * big.nbytes + extra.nbytes
        assert [ch.nexchanges for ch in chans] == [1, 1, 1]

    def test_sitting_a_call_out_still_advances_the_tag(self, chans):
        """W >= 3: worker 2 has no traffic in the first call of the
        sequence; its tag must advance anyway so the second call -- which
        it does take part in -- lines up on all three."""
        def w0(ch):
            ch.collect(ch.post("s", {1: [(0, np.zeros(2))]}, []))
            return ch.collect(ch.post("s", {}, [2]))

        def w1(ch):
            first = ch.collect(ch.post("s", {}, [0]))
            return first, ch.collect(ch.post("s", {}, []))

        def w2(ch):
            assert ch.collect(ch.post("s", {}, [])) == {}
            return ch.collect(ch.post("s", {0: [(1, np.ones(2))]}, []))

        got = self._run(chans, {0: w0, 1: w1, 2: w2})
        np.testing.assert_array_equal(got[0][2][0][1], np.ones(2))
        np.testing.assert_array_equal(got[1][0][0][0][1], np.zeros(2))
        # Calls without traffic never touch the wire or the counters.
        assert [ch.nexchanges for ch in chans] == [2, 1, 1]
        assert all(ch._seq["s"] == 2 for ch in chans)
