"""repro.parallel: the true multiprocess SPMD execution backend.

Where :class:`repro.comm.runtime.VirtualRuntime` executes P ranks
sequentially inside one process, this package runs them as **real OS
processes** whose collectives cross process boundaries through POSIX
shared memory or TCP sockets -- wall clock drops with cores, while the
virtual runtime's ledger and losses remain the built-in correctness
oracle (byte-identical ledger, bit-identical losses under frozen seeds).

The workers are **resident**: ``fit`` ships the whole training program
in one dispatch and the epoch loop runs worker-side with zero driver
round-trips; remaining driver paths can fuse N commands into one
pickle/wakeup with one batched ledger-digest check.  A command's bulk
fields (feature matrix, operand) travel through a driver-owned
shared-memory arena, never through the command pipes.

Architecture map (driver process on the left, P-rank workers right)::

    ParallelRuntime ── ParallelAlgorithm        driver-side proxies
          │ programs / results (mp.Queue)       fit = ONE dispatch
    ProcessBackend ──forks───> _worker_main x W  backend.py -- resident
          │ dispatch arena (bulk fields, shm)    command loop, fused
          │ heartbeat (shared counters)          batches, stats()
          │                    WorkerRuntime     runtime.py -- Runtime
          │                        │             protocol, local_ranks
          │                 ProcessCollectives   collectives.py -- the
          │                        │             collectives' transport
          │                        │             hooks over the channel;
          │                        │             one rendezvous per call
          │              PeerChannel | TcpChannel
          │               channel.py | tcp.py -- ChannelBase.post /
          │                        │             collect: per-peer outbox,
          │                        │             tagged (group, seq); shm
          │                        │             descs vs pickle frames
          └─────────────── Arena / codec         shm.py -- shared-memory
                                                 payload transport

Exchange protocol.  A rendezvous has two halves.  ``post(gkey, outbox,
recv_from)`` hands each peer *its own* list of ``(key, payload)`` items,
names the peers this worker is owed a list from, puts everything on the
wire and returns a ticket -- it never blocks.  ``collect(ticket)`` takes
the one list every named peer posted, acknowledges and reclaims -- the
only place a worker waits for a peer.  ``exchange`` is
``collect(post(...))``.  One ticket is one message (and, on shm, one
acknowledgement) per peer however many payloads it carries, and a
payload object shared by several lists is encoded once.  The routed
collectives -- ghost-row fetch, SUMMA stage broadcasts and relays --
walk their global transfer list once, bucket every cross-worker
transfer by peer worker and meet **once per call**, not once per
``(src rank, dst rank)`` pair.  The tag sequence of a ``gkey`` advances
on every post of the SPMD sequence, also on a worker with no
traffic in it (its ticket is empty and free), so workers that sit a
call out stay aligned with the ones that do not (W >= 3).

Tickets and overlap.  Several tickets may be outstanding, each
collected once and in the same order on every worker.  The stage loops
of the 1.5D / 2D / 3D algorithms use that with a fixed look-ahead of
one: stage ``k + 1``'s broadcasts and relays are posted before stage
``k`` is collected and multiplied (``DistAlgorithm._routed_stages``), so
they travel under the multiply.  A ticket owns what its post borrowed; on
shm the arena pointer is rewound only when the last outstanding ticket
is collected, and posts made meanwhile spill to ephemeral segments once
the arena is full.  On tcp the posting thread writes the frame itself
when the connection has no backlog and leaves only the unsent tail to
the connection's sender thread.

Cold start.  Workers are forked from a **worker template**: one clean,
single-threaded interpreter per driver (``multiprocessing``'s
forkserver, launched with the BLAS thread pins and the driver's
``sys.path``) that has imported numpy, scipy's compiled SpMM kernel
(never the ``scipy.sparse`` package) and every ``repro`` module a
worker uses.  The driver's first pool launches it;
that pool, every later one and every recovery respawn then pay a
``fork`` per worker, not an interpreter start plus the imports.  A
worker inherits the template's state -- never the driver's environment
-- so every setting it honours (timeout, fault plan) is read by the
driver and shipped in the worker's ``spec``.
``ParallelRuntime.start()`` hands the fork requests to a launcher
thread and returns without waiting for it (bare construction stays
lazy: the first command starts the pool otherwise).
:func:`repro.dist.make_algorithm` calls it as soon as its cheap
arguments check out and only then partitions the graph, so the
template's boot (first pool) and the workers' arena attach and
rendezvous (every pool) run under the driver's partitioner instead of
after it; the first dispatch joins the launcher, and any failure past
that point closes the pool before it propagates.

Layer responsibilities:

* ``shm.py``        -- encode/decode dense and CSR payloads into
  shared-memory arenas (+ ephemeral overflow segments); park/fetch the
  bulk fields of a driver command the same way;
* ``channel.py``    -- the rendezvous in its two halves (``post``:
  tag, encode, send; ``collect``: take, ack, reclaim), written once in
  :class:`ChannelBase` with deterministic ``(group, seq)`` tags, the
  out-of-order stash and the shared no-progress timeout machinery;
  :class:`PeerChannel` is its queue + shm wire;
* ``tcp.py``        -- the same two halves over length-prefixed frames
  on non-blocking sockets, a sender thread per connection for what a
  post could not write at once, loopback or ``REPRO_PARALLEL_HOSTS``
  rendezvous -- ranks can span machines;
* ``collectives.py``-- the three transport hooks
  :class:`~repro.comm.collectives.Collectives` writes every collective
  against, for a rank-local worker: the ``_routed_post`` /
  ``_routed_collect`` pair, which puts a whole step of any kind on the
  wire as one rendezvous on the kind's tag sequence (a group member's
  contribution is one route to its group -- for a reduce-scatter only
  the shards each peer keeps; the inherited reductions fold them in
  group-rank order, a fixed tree, so results match the virtual runtime
  bit for bit on either transport), and ``_members``.  Cost rules,
  argument checks and receipts are inherited, not mirrored;
* ``runtime.py``    -- :class:`WorkerRuntime` (the rank-local
  :class:`~repro.comm.runtime.Runtime`), :class:`ParallelRuntime` and
  :class:`ParallelAlgorithm` (driver-side, VirtualRuntime-shaped);
* ``backend.py``    -- process lifecycle: the worker template and the
  pools forked from it, the resident command loop (``fit`` / ``batch``
  / ``stats``), bulk dispatch through the driver arena, heartbeat
  liveness, error propagation, shutdown.

Entry points::

    from repro.dist import make_algorithm
    algo = make_algorithm("1d", p=4, dataset=ds,
                          backend="process", workers=4)
    history = algo.fit(ds.features, ds.labels, epochs=10)
    algo.rt.backend_stats()   # dispatches, fused batches, channel bytes
    algo.rt.close()

or the CLI: ``repro train --backend process --workers 4
[--transport tcp]``.
"""

from repro.parallel.backend import (
    RECOVERABLE_ERRORS,
    ProcessBackend,
    TransportError,
    WorkerDead,
    WorkerError,
    WorkerStalled,
)
from repro.parallel.channel import ChannelTimeout, PeerChannel
from repro.parallel.collectives import ProcessCollectives
from repro.parallel.faults import FaultPlan, FaultSpec
from repro.parallel.runtime import (
    ParallelAlgorithm,
    ParallelRuntime,
    WorkerRuntime,
    ledger_digest,
    owner_map,
)
from repro.parallel.tcp import TcpChannel

__all__ = [
    "ProcessBackend",
    "ProcessCollectives",
    "ParallelAlgorithm",
    "ParallelRuntime",
    "PeerChannel",
    "TcpChannel",
    "ChannelTimeout",
    "WorkerRuntime",
    "WorkerError",
    "WorkerDead",
    "WorkerStalled",
    "TransportError",
    "RECOVERABLE_ERRORS",
    "FaultPlan",
    "FaultSpec",
    "ledger_digest",
    "owner_map",
]
