"""Multi-host TCP transport for the process backend.

:class:`TcpChannel` is a drop-in replacement for
:class:`~repro.parallel.channel.PeerChannel`: the same tagged
``(group_key, sequence)`` exchange semantics (inherited from
:class:`~repro.parallel.channel.ChannelBase`), the same out-of-order
stash, and therefore the same fixed fold order -- reductions are
bit-reproducible across transports.  Only the wire changes: payloads
travel as length-prefixed pickle frames over a full mesh of TCP sockets
instead of queue descriptors plus shared memory, so the P ranks can span
machines.

Wire format: one frame per posted message -- a ``>QQ`` header (body
length, meta length), then ``pickle(("d", tag, wid, [(key, blob length),
...]))`` followed by the payload blobs back to back.  Each distinct
payload is pickled **once** per exchange and its blob is spliced into
the frame of every peer whose outbox names it.

Deadlock freedom: raw sockets, unlike ``multiprocessing.Queue`` (whose
feeder thread makes ``put`` non-blocking), can deadlock when all peers
sit in a blocking send with full kernel buffers.  The sockets are
therefore non-blocking and ``post`` never waits for one: when a
connection has no backlog the posting thread writes the frame itself
(one ``send``, as much as the kernel buffer takes -- for the small
frames of a SUMMA stage, all of it, with no thread hand-off); whatever
that leaves goes to the connection's daemon **sender thread**, fed by
an unbounded queue, and so does every later frame until the backlog has
drained.  Frames of one connection therefore leave in post order, and
the SPMD all-post-then-collect pattern stays cycle-free.  Every post is
collected by its peer before that peer's dispatch returns, so no frame
is still unsent when the driver sees a dispatch complete.

Rendezvous: on one host (the default) each worker binds an ephemeral
loopback port and advertises it to the peers over the driver's inbox
queues.  Across hosts, set ``REPRO_PARALLEL_HOSTS`` to a comma-separated
``host:port`` list (one entry per worker, in worker order); worker ``w``
binds entry ``w`` and dials the others.  Connection direction is
deterministic -- worker ``w`` connects to every lower id and accepts from
every higher id -- and each dialled connection opens with an 8-byte hello
carrying the caller's worker id.

Receives honour the same no-progress timeout as the shm transport: waits
poll in short slices and only raise :class:`ChannelTimeout` when the
awaited peer's heartbeat counter stalls for ``REPRO_PARALLEL_TIMEOUT``
seconds.
"""

from __future__ import annotations

import pickle
import queue
import select
import socket
import struct
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs import spans as _spans
from repro.parallel.channel import (
    DEFAULT_BACKOFF,
    WAIT_SLICE,
    ChannelBase,
    ChannelTimeout,
)

__all__ = ["TcpChannel", "parse_hosts"]

_HDR = struct.Struct(">Q")      # handshake hello: the caller's worker id
_FRAME = struct.Struct(">QQ")   # frame header: body length, meta length


def parse_hosts(spec: str,
                nworkers: Optional[int] = None) -> List[Tuple[str, int]]:
    """Parse ``REPRO_PARALLEL_HOSTS``: ``"host:port,host:port,..."``.

    One entry per worker, in worker-id order.  IPv6 literals may be
    bracketed (``[::1]:9000``).  Validation is strict -- a malformed
    endpoint, an out-of-range port, a duplicate endpoint, or (when
    ``nworkers`` is given) a count mismatch each fail with their own
    clear message, because a bad host map otherwise surfaces as an
    opaque rendezvous hang on some remote machine.
    """
    out: List[Tuple[str, int]] = []
    seen: Dict[Tuple[str, int], str] = {}
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        host, sep, port = token.rpartition(":")
        if not sep or not port.isdigit():
            raise ValueError(
                f"bad REPRO_PARALLEL_HOSTS entry {token!r}: expected "
                "host:port"
            )
        portno = int(port)
        if not 1 <= portno <= 65535:
            raise ValueError(
                f"bad REPRO_PARALLEL_HOSTS entry {token!r}: port "
                f"{portno} is out of range 1-65535"
            )
        endpoint = (host.strip("[]"), portno)
        if endpoint in seen:
            raise ValueError(
                f"duplicate REPRO_PARALLEL_HOSTS entry {token!r} "
                f"(already used by {seen[endpoint]!r}): every worker "
                "needs its own endpoint"
            )
        seen[endpoint] = token
        out.append(endpoint)
    if not out:
        raise ValueError("REPRO_PARALLEL_HOSTS is set but empty")
    if nworkers is not None and len(out) != nworkers:
        raise ValueError(
            f"REPRO_PARALLEL_HOSTS lists {len(out)} endpoints for "
            f"{nworkers} workers: need exactly one per worker, in "
            "worker-id order"
        )
    return out


class _Conn:
    """One peer connection: the non-blocking socket and its send backlog.

    ``queued`` is written only by the posting thread and ``drained``
    only by the sender thread, so their difference -- the frames handed
    to the sender and not yet fully written -- needs no lock: a stale
    read can only make the posting thread queue a frame it could have
    written itself.
    """

    __slots__ = ("sock", "backlog", "queued", "drained")

    def __init__(self, sock: socket.socket):
        sock.setblocking(False)
        self.sock = sock
        self.backlog: "queue.Queue" = queue.Queue()
        self.queued = 0
        self.drained = 0

    def send(self, frame: bytes) -> None:
        """Put ``frame`` on the wire without blocking: written here as
        far as the kernel takes it when nothing is queued ahead of it,
        the rest (or all of it) left to the sender thread."""
        data = memoryview(frame)
        if self.queued == self.drained:
            try:
                data = data[self.sock.send(data):]
            except BlockingIOError:
                pass
            except OSError:
                # A dead peer: the receive side reports it.
                return
            if not data:
                return
        self.queued += 1
        self.backlog.put(data)

    def drain(self) -> None:
        """Write the backlog out in order (the daemon sender thread)."""
        sock = self.sock
        while True:
            data = self.backlog.get()
            if data is None:
                return
            try:
                while data:
                    select.select((), (sock,), ())
                    try:
                        data = data[sock.send(data):]
                    except BlockingIOError:
                        pass
            except (OSError, ValueError):
                return      # peer gone, or the socket closed under us
            self.drained += 1


class TcpChannel(ChannelBase):
    """One worker's endpoint of the socket exchange fabric."""

    def __init__(
        self,
        worker_id: int,
        nworkers: int,
        inboxes: Optional[Sequence] = None,
        hosts: Optional[Sequence[Tuple[str, int]]] = None,
        *,
        timeout: float,
        heartbeat=None,
        backoff: float = DEFAULT_BACKOFF,
    ):
        super().__init__(worker_id, timeout=timeout, heartbeat=heartbeat)
        self.nworkers = nworkers
        #: first delay of the dial retries (doubling, capped)
        self.backoff = backoff
        self._conns: Dict[int, _Conn] = {}
        self._senders: List[threading.Thread] = []
        self._listener: Optional[socket.socket] = None
        if nworkers == 1:
            return
        if hosts is not None:
            if len(hosts) < nworkers:
                raise ValueError(
                    f"REPRO_PARALLEL_HOSTS lists {len(hosts)} endpoints "
                    f"for {nworkers} workers"
                )
            addrs = {w: tuple(hosts[w]) for w in range(nworkers)}
            self._listener = socket.create_server(
                hosts[worker_id], backlog=nworkers)
        else:
            if inboxes is None:
                raise ValueError(
                    "TcpChannel needs inbox queues for the loopback "
                    "rendezvous when no host list is given"
                )
            self._listener = socket.create_server(
                ("127.0.0.1", 0), backlog=nworkers)
            mine = ("127.0.0.1", self._listener.getsockname()[1])
            for w in range(nworkers):
                if w != worker_id:
                    inboxes[w].put(("tcp-addr", worker_id, mine))
            addrs = {worker_id: mine}
            while len(addrs) < nworkers:
                try:
                    kind, w, addr = inboxes[worker_id].get(
                        timeout=self.timeout)
                except queue.Empty:
                    raise ChannelTimeout(
                        f"worker {worker_id} timed out during the TCP "
                        "address rendezvous"
                    ) from None
                assert kind == "tcp-addr", kind
                addrs[w] = tuple(addr)
        # Deterministic handshake: connect to every lower id, accept
        # from every higher id.
        for w in range(worker_id):
            self._conns[w] = _Conn(self._dial(addrs[w]))
        self._listener.settimeout(self.timeout or None)
        for _ in range(nworkers - 1 - worker_id):
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                raise ChannelTimeout(
                    f"worker {worker_id} timed out accepting TCP peers"
                ) from None
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            (peer,) = _HDR.unpack(self._read_exact_from(conn, _HDR.size))
            self._conns[peer] = _Conn(conn)
        for w, peer_conn in self._conns.items():
            t = threading.Thread(target=peer_conn.drain, daemon=True,
                                 name=f"tcp-send-{worker_id}-to-{w}")
            t.start()
            self._senders.append(t)

    # ------------------------------------------------------------------ #
    # connection plumbing
    # ------------------------------------------------------------------ #
    def _dial(self, addr: Tuple[str, int]) -> socket.socket:
        """Connect with retries -- across hosts the peer's listener may
        come up later than ours."""
        deadline = time.monotonic() + max(self.timeout or 0.0, 5.0)
        # Deterministic exponential backoff: reconnects after a worker
        # respawn retry on the same schedule every run.
        delay = self.backoff
        while True:
            try:
                sock = socket.create_connection(addr, timeout=self.timeout
                                                or None)
                break
            except OSError:
                if time.monotonic() >= deadline:
                    raise ChannelTimeout(
                        f"worker {self.wid} could not reach TCP peer at "
                        f"{addr[0]}:{addr[1]}"
                    ) from None
                time.sleep(delay)
                delay = min(delay * 2, 0.5)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(_HDR.pack(self.wid))
        return sock

    @staticmethod
    def _read_exact_from(sock: socket.socket, n: int) -> bytes:
        """Blocking exact read used only during the handshake."""
        buf = bytearray(n)
        view = memoryview(buf)
        got = 0
        while got < n:
            k = sock.recv_into(view[got:], n - got)
            if k == 0:
                raise ChannelTimeout("TCP peer closed during handshake")
            got += k
        return bytes(buf)

    def _recv_exact(self, src: int, n: int) -> bytearray:
        """Exact read from peer ``src`` under the no-progress timeout.

        A slow peer that keeps its heartbeat moving extends the wait;
        partial bytes received also count as progress.
        """
        sock = self._conns[src].sock
        slice_t = min(self.timeout, WAIT_SLICE) if self.timeout else WAIT_SLICE
        buf = bytearray(n)
        view = memoryview(buf)
        got = 0
        waited = 0.0
        last = self._peer_progress(src)
        while got < n:
            try:
                k = sock.recv_into(view[got:], n - got)
            except BlockingIOError:
                # Nothing buffered (a frame posted ahead usually is):
                # wait one slice for the socket to turn readable.
                if select.select((sock,), (), (), slice_t)[0]:
                    continue
                now = self._peer_progress(src)
                if now is not None and now != last:
                    last, waited = now, 0.0
                    continue
                waited += slice_t
                if waited >= self.timeout:
                    raise self._timeout_error(src, "a tcp frame") from None
                continue
            except OSError as exc:
                # A peer dying mid-read surfaces as ECONNRESET/EPIPE
                # rather than a clean close; either way it is the same
                # transport failure as the k == 0 branch below.
                raise ChannelTimeout(
                    f"worker {self.wid}: TCP peer {src} dropped the "
                    f"connection ({type(exc).__name__}; crashed worker?)"
                ) from None
            if k == 0:
                raise ChannelTimeout(
                    f"worker {self.wid}: TCP peer {src} closed the "
                    "connection (crashed worker?)"
                )
            got += k
            waited = 0.0
        return buf

    def _read_msg(self, src: int, key=None):
        """Read and decode the next frame from peer ``src``; payloads
        are pickled whole (numpy arrays round-trip bit-exactly), so the
        receiver always holds private copies."""
        rec = _spans.ACTIVE
        # Wait covers the socket reads; copy the unpickle.  A frame read
        # here on behalf of a later tag (stash fill) is charged to the
        # exchange that performed the read -- that is where the wall
        # clock actually went.
        t0 = rec.clock() if rec is not None else 0.0
        length, meta_len = _FRAME.unpack(self._recv_exact(src, _FRAME.size))
        body = memoryview(self._recv_exact(src, length))
        t1 = rec.clock() if rec is not None else 0.0
        kind, tag, wid, index = pickle.loads(body[:meta_len])
        items, at = [], meta_len
        for item_key, n in index:
            items.append((item_key, pickle.loads(body[at:at + n])))
            at += n
        if rec is not None:
            self._wait_s += t1 - t0
            self._copy_s += rec.clock() - t1
        return (kind, tag, wid, items)

    def _post(self, tag, outbox, xi):
        """Pickle each distinct payload once, then send every peer one
        frame carrying its own items.  Returns the frame bytes posted."""
        # A frame fault needs a frame on the wire: an exchange with no
        # outbound peers leaves the fault armed.
        fault = (self.faults.frame_fault(xi)
                 if self.faults is not None and outbox else None)
        blobs: Dict[int, bytes] = {}
        sent = 0
        for w, items in outbox.items():
            parts = []
            for _, obj in items:
                blob = blobs.get(id(obj))
                if blob is None:
                    blob = blobs[id(obj)] = pickle.dumps(
                        obj, protocol=pickle.HIGHEST_PROTOCOL)
                parts.append(blob)
            meta = pickle.dumps(
                ("d", tag, self.wid,
                 [(key, len(blob)) for (key, _), blob in zip(items, parts)]),
                protocol=pickle.HIGHEST_PROTOCOL)
            if fault is not None and fault.action == "corrupt":
                # Same length, mangled first opcode: the receiver's
                # unpickle raises, modeling on-the-wire corruption.
                meta = bytes([meta[0] ^ 0xFF]) + meta[1:]
            frame = b"".join(
                [_FRAME.pack(len(meta) + sum(map(len, parts)), len(meta)),
                 meta] + parts)
            if fault is not None and fault.action == "drop":
                # The frame is never posted: the receiving peers' waits
                # expire into ChannelTimeout (a transport error).
                continue
            self._conns[w].send(frame)
            sent += len(frame)
        return sent, None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        for conn in self._conns.values():
            conn.backlog.put(None)
        for t in self._senders:
            t.join(timeout=1.0)
        for conn in self._conns.values():
            try:
                conn.sock.close()
            except OSError:  # pragma: no cover
                pass
        if self._listener is not None:
            self._listener.close()
        self._conns.clear()
