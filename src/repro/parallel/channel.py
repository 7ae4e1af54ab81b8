"""Worker-to-worker rendezvous: tagged exchanges over queues + shm.

Every worker owns one inbox queue (driver-created) and one shared-memory
arena (:mod:`repro.parallel.shm`).  All collective traffic reduces to
the two halves of one rendezvous:

* :meth:`ChannelBase.post` hands each peer its own list of payloads (the
  *outbox*) and names the peers this worker is owed a list from.  It
  encodes, puts the messages on the wire and returns a **ticket**; it
  never waits for a peer.
* :meth:`ChannelBase.collect` redeems a ticket: it takes the one list
  each named peer posted under the same tag, acknowledges
  shared-memory receipts and reclaims what the post borrowed.  This is
  the only half that blocks.

A blocking exchange is ``collect(post(...))``.  A caller whose
next payloads do not depend on this exchange's receipts posts ahead --
several tickets may be outstanding, each collected exactly once and in
the same order on every worker (on shm a collect waits for the peer's
acknowledgement of that same ticket) -- so the peer's frames travel
while this worker computes (the SUMMA stage loops in :mod:`repro.dist`
keep one stage ahead).  One ticket is one rendezvous however many
payloads it carries, so the collectives above bucket a whole step of a
kind -- all its routes, or all its groups -- by peer instead of meeting
once per ``(src rank, dst rank)`` pair or group.

Ticket lifetime and the arena: a ticket holds what its post borrowed --
arena space and, when the arena was full, ephemeral overflow segments.
``collect`` unlinks the ticket's own segments once its receivers have
acknowledged, but the arena is a bump allocator, so its pointer is
rewound to where the first outstanding post found it only when the
**last** outstanding ticket is collected; posts made in between keep
bumping (and spill to ephemeral segments when the arena fills).

Ordering and deadlock freedom rest on the SPMD structure of the epochs:
every worker executes the same global sequence of collectives, so any two
workers see their *common* operations in the same relative order.  Tags
are ``(group_key, sequence)`` pairs where the per-``group_key`` sequence
counter advances on every post of that sequence -- also on a worker that
has no traffic in it -- and so identically on every worker; messages
arriving early (a peer posting ahead, or racing ahead on an unrelated
group) are stashed until their tag is wanted.  A post never blocks and a
worker posts **all** of a rendezvous' outgoing messages before it
collects, so cyclic waits cannot form however many tickets are open.
Every post is collected before the command that made it returns, so the
stash is empty between commands; a duplicated or stray frame would sit
in it for good, and the worker fails the command that leaves one
(:func:`repro.parallel.backend._worker_main`).
Both halves live in :class:`ChannelBase`; the TCP transport
(:mod:`repro.parallel.tcp`) supplies a different wire under the exact
same semantics.

Blocking receives are governed by a **no-progress** timeout
(``REPRO_PARALLEL_TIMEOUT`` seconds, default 120): each worker bumps a
shared heartbeat counter on every post (and once per resident-fit
epoch), and a receive only raises :class:`ChannelTimeout` when the
awaited peer's counter has not advanced for the whole window.  A slow but
healthy epoch keeps its peers patient; a dead or deadlocked peer
surfaces within one window instead of hanging the run.
"""

from __future__ import annotations

import os
import queue
from multiprocessing import shared_memory
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs import spans as _spans
from repro.parallel.shm import (
    Arena,
    INLINE_MAX,
    decode_payload,
    desc_needs_ack,
    encode_payload,
    payload_bytes,
)

__all__ = ["ChannelBase", "PeerChannel", "Ticket", "ChannelTimeout",
           "default_timeout", "default_backoff"]


class ChannelTimeout(RuntimeError):
    """A peer made no progress in time (deadlock or dead worker)."""


def default_timeout() -> float:
    """The no-progress window, via ``REPRO_PARALLEL_TIMEOUT``.  Like
    :func:`default_backoff` a driver-side read: the backend hands both
    values to the channels its workers build."""
    return float(os.environ.get("REPRO_PARALLEL_TIMEOUT", "120"))


#: Base seconds for exponential backoff when nothing else is configured.
DEFAULT_BACKOFF = 0.05


def default_backoff() -> float:
    """Base seconds for exponential backoff (TCP dial retries and the
    driver's restart delays), via ``REPRO_PARALLEL_BACKOFF``."""
    return float(os.environ.get("REPRO_PARALLEL_BACKOFF", DEFAULT_BACKOFF))


#: Granularity of blocking waits: receives poll in slices this long so
#: they can consult the peer heartbeat between slices.
WAIT_SLICE = 0.25


class Ticket:
    """One posted rendezvous awaiting its :meth:`ChannelBase.collect`."""

    __slots__ = ("tag", "recv_from", "borrowed", "sent", "t_post", "ser_s")

    def __init__(self, tag, recv_from, borrowed, sent, t_post, ser_s):
        self.tag = tag
        self.recv_from = recv_from
        #: what the transport's ``_post`` borrowed, for ``_settle``
        self.borrowed = borrowed
        self.sent = sent
        # tracing only: when the post began and how long it took
        self.t_post = t_post
        self.ser_s = ser_s


class ChannelBase:
    """Post and collect: tags, stash, heartbeat, per-peer outbox.

    Both transports (queues+shm and TCP sockets) subclass this and
    supply only the wire: :meth:`_post` (encode and send one message
    per peer, without blocking), :meth:`_read_msg` (pull one frame off
    the transport), :meth:`_take` (decode one peer's message) and
    :meth:`_settle` (reclaim what the post borrowed).  The
    ``(group_key, sequence)`` tag discipline -- and therefore the fixed
    fold order of every reduction built on top -- is identical, which is
    what makes the transports bit-interchangeable.
    """

    def __init__(self, worker_id: int, timeout: float, heartbeat=None):
        self.wid = worker_id
        self.timeout = timeout
        self.heartbeat = heartbeat
        self._stash: Dict[Tuple, Any] = {}
        self._seq: Dict[Any, int] = {}
        #: transport-level traffic counters (reported by
        #: :meth:`ProcessBackend.stats`); ``bytes_sent`` counts payload
        #: bytes *delivered* -- summed over the peers they were posted to
        self.bytes_sent = 0
        self.nexchanges = 0
        # Per-collect tracing accumulators: the transport hooks bank
        # their wait / copy seconds here and collect() folds them, with
        # the ticket's serialize seconds, into the exchange's one span.
        self._wait_s = self._copy_s = 0.0
        #: the worker's :class:`repro.parallel.faults.FaultPlan`, when a
        #: fault plan is active (set by ``_worker_main``); consulted at
        #: the exchange injection point by both transports.
        self.faults = None

    def _inject_exchange_fault(self) -> int:
        """Named injection point: start of every non-empty post.

        Returns the 0-based index of the exchange about to be posted
        (the pre-increment ``nexchanges``) and executes any inline fault
        -- kill/hang/delay -- pinned to it.  Frame-level faults
        (drop/corrupt) are *not* executed here; the TCP transport asks
        ``faults.frame_fault(index)`` for those when it builds the
        outbound frames.
        """
        xi = self.nexchanges
        if self.faults is not None:
            self.faults.on_exchange(xi)
        return xi

    def _tag(self, gkey) -> Tuple:
        n = self._seq.get(gkey, 0)
        self._seq[gkey] = n + 1
        return (gkey, n)

    def touch(self) -> None:
        """Advance this worker's shared progress counter (single writer)."""
        hb = self.heartbeat
        if hb is not None:
            hb[self.wid] += 1

    def _peer_progress(self, src: int) -> Optional[int]:
        hb = self.heartbeat
        return None if hb is None else hb[src]

    def _timeout_error(self, src: int, what: str) -> ChannelTimeout:
        return ChannelTimeout(
            f"worker {self.wid} saw no progress from worker {src} for "
            f"{self.timeout}s while waiting for {what} "
            "(deadlocked or dead peer?)"
        )

    def _recv(self, kind: str, tag, src: int):
        """The ``(kind, tag)`` message from ``src``: out of the stash when
        it arrived early, else off the transport -- stashing whatever
        else arrives first."""
        key = (kind, tag, src)
        hit = self._stash.pop(key, None)
        if hit is not None:
            return hit
        while True:
            msg = self._read_msg(src, key)
            mkey = (msg[0], msg[1], msg[2])
            if mkey == key:
                return msg
            self._stash[mkey] = msg

    # ------------------------------------------------------------------ #
    # the two halves of a rendezvous
    # ------------------------------------------------------------------ #
    def post(
        self,
        gkey,
        outbox: Mapping[int, Sequence[Tuple[Any, Any]]],
        recv_from: Sequence[int],
    ) -> Optional[Ticket]:
        """Put ``outbox[w]`` (a list of ``(key, payload)`` pairs) on the
        wire to each peer ``w`` and name the peers in ``recv_from`` as
        owing us one list each.  Never waits for a peer.  A payload
        object that appears in several peers' lists is encoded once;
        the caller may overwrite its payload buffers as soon as this
        returns.

        Every worker that *could* take part posts with the same ``gkey``
        in the same relative order -- also when it has nothing to post
        or collect this time, in which case only the tag sequence
        advances, nothing touches the wire, a counter or a fault index,
        and the ticket is ``None``.  That keeps the sequence identical
        on all workers even when some sit a call out.
        """
        tag = self._tag(gkey)
        if not outbox and not recv_from:
            return None
        xi = self._inject_exchange_fault()
        self.touch()
        self.nexchanges += 1
        rec = _spans.ACTIVE
        t_post = rec.clock() if rec is not None else 0.0
        sent, borrowed = self._post(tag, outbox, xi)
        self.bytes_sent += sent
        ser_s = rec.clock() - t_post if rec is not None else 0.0
        return Ticket(tag, tuple(recv_from), borrowed, sent, t_post, ser_s)

    def collect(self, ticket: Optional[Ticket]
                ) -> Dict[int, List[Tuple[Any, Any]]]:
        """Redeem ``ticket``: the one list each peer it names posted us,
        as ``{src_worker: [(key, payload), ...]}`` with decoded private
        payloads.  Blocks until they have arrived and -- on shm -- until
        the peers handed our memory have copied it out; then reclaims
        what the post borrowed.  Collecting the empty ticket is free.
        """
        if ticket is None:
            return {}
        # When tracing, the one span per exchange runs from the start of
        # its post to the end of its collect and carries the phase split
        # in its meta: serialize is the post half, wait and copy the
        # collect half.  The clock reads wrap whole blocks, not per-item
        # work, to keep overhead flat.
        rec = _spans.ACTIVE
        self._wait_s = self._copy_s = 0.0
        out = {w: self._take(ticket.tag, w) for w in ticket.recv_from}
        self._settle(ticket.tag, ticket.borrowed)
        if rec is not None:
            gkey = ticket.tag[0]
            label = gkey[0] if isinstance(gkey, tuple) and gkey else gkey
            rec.record(
                "exchange", "xchg", ticket.t_post, rec.clock(),
                (str(label), ticket.ser_s, self._wait_s, self._copy_s,
                 ticket.sent),
            )
        return out

    def _take(self, tag, src: int) -> List[Tuple[Any, Any]]:
        """The decoded item list ``src`` posted us under ``tag``."""
        return self._recv("d", tag, src)[3]

    def _settle(self, tag, borrowed) -> None:
        """Reclaim what :meth:`_post` borrowed (nothing by default)."""


class PeerChannel(ChannelBase):
    """One worker's endpoint of the queue + shared-memory exchange fabric."""

    def __init__(
        self,
        worker_id: int,
        inboxes: Sequence,
        arena_names: Sequence[str],
        timeout: float,
        inline_max: int = INLINE_MAX,
        heartbeat=None,
    ):
        super().__init__(worker_id, timeout=timeout, heartbeat=heartbeat)
        self.inboxes = list(inboxes)
        self.inline_max = inline_max
        self.arena = Arena(shared_memory.SharedMemory(
            name=arena_names[worker_id]))
        self._arena_names = list(arena_names)
        self._peer_shms: Dict[int, shared_memory.SharedMemory] = {}
        # Tickets posted and not yet collected, and where the arena
        # pointer stood when the first of them was posted.
        self._open = 0
        self._mark = 0

    # ------------------------------------------------------------------ #
    # the wire
    # ------------------------------------------------------------------ #
    def _peer_buf(self, w: int):
        shm = self._peer_shms.get(w)
        if shm is None:
            shm = shared_memory.SharedMemory(name=self._arena_names[w])
            self._peer_shms[w] = shm
        return shm.buf

    def _read_msg(self, src: int, key):
        inbox = self.inboxes[self.wid]
        slice_t = min(self.timeout, WAIT_SLICE) if self.timeout else WAIT_SLICE
        waited = 0.0
        last = self._peer_progress(src)
        while True:
            try:
                return inbox.get(timeout=slice_t)
            except queue.Empty:
                now = self._peer_progress(src)
                if now is not None and now != last:
                    last, waited = now, 0.0
                    continue
                waited += slice_t
                if waited >= self.timeout:
                    raise self._timeout_error(
                        src, f"{key[0]!r} {key[1]}") from None

    def _post(self, tag, outbox, xi):
        """Encode each distinct payload into the arena once, then post
        every peer its own descriptor list.  Returns the payload bytes
        delivered and what :meth:`_settle` must reclaim."""
        if self._open == 0:
            self._mark = self.arena.ptr
        self._open += 1
        ephemerals: List[shared_memory.SharedMemory] = []
        descs: Dict[int, Tuple] = {}
        ack_from = []
        sent = 0
        for w, items in outbox.items():
            line = []
            need_ack = False
            for key, obj in items:
                desc = descs.get(id(obj))
                if desc is None:
                    desc = descs[id(obj)] = encode_payload(
                        self.arena, obj, ephemerals, self.inline_max)
                need_ack = need_ack or desc_needs_ack(desc)
                sent += payload_bytes(obj)
                line.append((key, desc))
            if need_ack:
                ack_from.append(w)
            self.inboxes[w].put(("d", tag, self.wid, line))
        return sent, (ephemerals, ack_from)

    def _take(self, tag, src: int) -> List[Tuple[Any, Any]]:
        rec = _spans.ACTIVE
        t0 = rec.clock() if rec is not None else 0.0
        line = self._recv("d", tag, src)[3]
        t1 = rec.clock() if rec is not None else 0.0
        buf = self._peer_buf(src)
        decoded = [(key, decode_payload(desc, buf)) for key, desc in line]
        if rec is not None:
            self._wait_s += t1 - t0
            self._copy_s += rec.clock() - t1
        if any(desc_needs_ack(desc) for _, desc in line):
            self.inboxes[src].put(("a", tag, self.wid))
        return decoded

    def _settle(self, tag, borrowed) -> None:
        """Wait until every peer that was handed shared memory has
        copied it out, then unlink the ticket's ephemeral segments and,
        when no other ticket is outstanding, rewind the arena."""
        ephemerals, ack_from = borrowed
        if ack_from:
            rec = _spans.ACTIVE
            t0 = rec.clock() if rec is not None else 0.0
            for w in ack_from:
                self._recv("a", tag, w)
            if rec is not None:
                self._wait_s += rec.clock() - t0
        self._open -= 1
        if self._open == 0:
            self.arena.ptr = self._mark
        for seg in ephemerals:
            seg.close()
            seg.unlink()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        self.arena.close()
        for shm in self._peer_shms.values():
            shm.close()
        self._peer_shms.clear()
