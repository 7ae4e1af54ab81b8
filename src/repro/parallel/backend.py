"""The process backend: fork P-rank SPMD worker pools and drive them.

:class:`ProcessBackend` owns the operating-system resources: worker
processes, one command queue per worker, one shared result queue, one
inbox queue per worker for peer traffic, a driver-owned **dispatch
arena**, and -- for the default ``shm`` transport -- one shared-memory
arena per worker.  The ``tcp`` transport replaces the worker arenas with
a full mesh of sockets (:mod:`repro.parallel.tcp`) so the ranks can span
machines.

Workers are forked from a **worker template**: one clean,
single-threaded interpreter per driver (``multiprocessing``'s
forkserver) that has already imported numpy, scipy's compiled SpMM
kernel (not the ``scipy.sparse`` package: :mod:`repro.sparse.spmm`
loads the one extension) and every ``repro`` module a worker touches
(:data:`_PRELOAD`).  The first pool of
a driver launches it; that pool, every later pool and every recovery
respawn then get each worker for the price of a ``fork`` instead of an
interpreter start plus the imports.  The driver itself is never forked:
it holds queue-feeder threads and the whole dataset.
A worker therefore inherits the *template's* state, not the driver's --
it still imports the driver's ``__main__`` (so script drivers keep their
``if __name__ == "__main__":`` guard), but it never sees the driver's
environment: every setting a worker honours travels in the ``spec`` the
driver builds in :meth:`ProcessBackend.start`, and nothing on the worker
side reads ``os.environ``.

Commands travel as small pickles: the bulk fields of a payload (the
feature matrix of ``fit`` / ``setup`` / ``predict``) are written once to
the dispatch arena and every worker copies them out
(:func:`~repro.parallel.shm.park_fields`); ``make_algo`` carries one
payload per worker instead -- its shard of the operand
(:class:`~repro.dist.shard.Shard`), parked the same way.  The driver
reclaims the arena when the last reply is in.

The workers are **resident**: the driver ships whole programs, not
individual steps.  ``fit`` is one dispatch -- the epoch loop runs
worker-side with zero driver round-trips on the hot path, and the driver
collects the final history/ledger.  Remaining driver-initiated paths can
batch N commands into one pickle/wakeup (``batch``).  Every reply that
checks the ledger carries one digest per item -- per epoch of a fit,
per sub-command of a batch -- beside the final one, so a divergence
names the first item where the workers parted.

Liveness is watched through a shared **heartbeat** array: every worker
bumps its slot on each channel exchange and each resident-fit epoch.
Blocking waits (driver command collection and worker channel receives)
time out only when no progress has been observed for
``REPRO_PARALLEL_TIMEOUT`` seconds -- a slow epoch is never mistaken for
a hang -- and a crashed worker fails the command within a fraction of a
second with an error naming the dead worker and the mesh ranks it owned.

Worker processes pin their BLAS pools to one thread
(``OMP_NUM_THREADS=1`` etc. in the template's environment, before it
imports numpy): the backend's parallelism comes from running ranks on
separate cores, and oversubscribing P workers x N BLAS threads on an
N-core host destroys exactly the scaling this backend exists to
demonstrate.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import queue
import sys
import time
import traceback
import weakref
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import forkserver, shared_memory
from typing import Optional

import numpy as np

from repro.comm.mesh import ProcessMesh
from repro.config import MachineProfile
from repro.obs import profile as _profile
from repro.obs import spans as _spans
from repro.parallel.channel import (
    PeerChannel,
    default_backoff,
    default_timeout,
)
from repro.parallel.faults import FaultPlan, parse_plan
from repro.parallel.runtime import (WorkerRuntime, ledger_digest, owner_map,
                                    ranks_of_workers)
from repro.parallel.shm import Arena, fetch_fields, park_fields, payload_bytes
from repro.parallel.tcp import TcpChannel, parse_hosts
from repro.sparse.csr import CSRMatrix, held_csr_bytes, reachable

__all__ = [
    "ProcessBackend",
    "WorkerError",
    "WorkerDead",
    "WorkerStalled",
    "TransportError",
    "RECOVERABLE_ERRORS",
    "TRANSPORTS",
]

#: Default per-worker arena size; payloads beyond this spill to
#: per-payload ephemeral segments (correct, just slower).
DEFAULT_ARENA_BYTES = 32 * 1024 * 1024

#: Selectable peer-payload transports.
TRANSPORTS = ("shm", "tcp")

_THREAD_PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

#: What the worker template imports before it serves its first fork:
#: every module a worker touches through any command of any family --
#: ``make_algo``, a traced or checkpointed ``fit``, ``predict`` on held
#: or new features, ``evaluate`` -- so that a forked worker imports
#: nothing (``tests/test_parallel_boot.py`` holds the list to that).  numpy, scipy's compiled SpMM kernel and the obs /
#: serialize modules are in the import closure of the two ``repro``
#: roots.  ``numpy.random`` (``default_rng``) and ``numpy.ma`` (which
#: ``np.unique`` reaches) are outside it, yet every worker runs both.
_PRELOAD = (
    "repro.parallel.backend",
    "repro.dist",
    "numpy.random",
    "numpy.ma",
    "encodings.idna",   # what a tcp dial encodes its host name with
    # what unpickling a worker's queues, locks and shared arrays imports
    "multiprocessing.queues",
    "multiprocessing.synchronize",
    "multiprocessing.sharedctypes",
    "multiprocessing.popen_forkserver",
)

#: Commands whose results carry a ledger digest when issued standalone.
_LEDGERED_OPS = frozenset({"setup", "train_epoch", "predict", "evaluate"})

#: a fresh identity for every pool a driver launches
_POOL_IDS = itertools.count(1)


def default_max_restarts() -> int:
    """Pool-restart budget (``REPRO_PARALLEL_MAX_RESTARTS``, default 0).

    Zero keeps the historical behaviour: any failure tears the pool
    down and propagates.  A positive budget makes recoverable failures
    (see :data:`RECOVERABLE_ERRORS`) trigger respawn + checkpoint
    resume in :meth:`~repro.parallel.runtime.ParallelAlgorithm.fit`.
    """
    return int(os.environ.get("REPRO_PARALLEL_MAX_RESTARTS", "0"))


class WorkerError(RuntimeError):
    """A worker process raised; carries its formatted traceback."""


class WorkerDead(WorkerError):
    """A worker process exited (crash, kill, OOM) mid-command."""


class WorkerStalled(WorkerError):
    """The pool made no heartbeat progress for the whole timeout window."""


class TransportError(WorkerError):
    """A worker's channel failed (peer timeout, closed socket, or a
    corrupt frame) rather than the worker's own computation."""


#: Failure classes the elastic recovery loop may respond to with a pool
#: restart + checkpoint resume; plain :class:`WorkerError` (a genuine
#: worker exception) always propagates.
RECOVERABLE_ERRORS = (WorkerDead, WorkerStalled, TransportError)

#: Traceback markers that identify a worker-reported error as a
#: transport failure rather than an algorithmic one.
_TRANSPORT_MARKERS = ("ChannelTimeout", "UnpicklingError",
                      "ConnectionResetError", "BrokenPipeError")


def _worker_template():
    """The ``multiprocessing`` context every pool forks its workers
    from, with its server -- the worker template -- running.

    The template is launched once per driver (a later call finds it
    alive and returns at once) with two things in its environment that
    it cannot get any other way: the BLAS thread pins, which must be set
    before numpy is imported, and the driver's ``sys.path`` as
    ``PYTHONPATH`` -- ``multiprocessing`` before Python 3.12 hands the
    forkserver a ``sys_path`` it never applies and swallows the preload's
    ``ImportError``, so a driver that reaches ``repro`` through
    ``sys.path.insert`` would otherwise get a template that had imported
    nothing.  Launching is a ``fork`` + ``exec``; the template's own boot
    (the imports) runs on its own and is waited for by whoever asks it
    for the first fork -- the pool's launcher thread, not the caller.
    """
    ctx = mp.get_context("forkserver")
    ctx.set_forkserver_preload(list(_PRELOAD))
    env = dict.fromkeys(_THREAD_PIN_VARS, "1")
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    saved = {v: os.environ.get(v) for v in env}
    try:
        os.environ.update(env)
        forkserver.ensure_running()
    finally:
        for v, old in saved.items():
            if old is None:
                os.environ.pop(v, None)
            else:
                os.environ[v] = old
    return ctx


def _cleanup(launched, procs, arenas, queues):
    """Finalizer: make sure no OS resources outlive the backend."""
    # Wait for the launcher (its error, if any, is reported by whoever
    # joined it first); what a failed launch never started has nothing
    # to reap.
    launched.exception()
    procs = [p for p in procs if p.pid is not None]
    for p in procs:
        if p.is_alive():
            p.terminate()
    for p in procs:
        p.join(timeout=5)
    for shm in arenas:
        try:
            shm.close()
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
    for q in queues:
        # close() tells the feeder thread to exit once its buffer is
        # flushed; never wait for it (a dead reader may have left the
        # pipe full).
        q.close()
        q.cancel_join_thread()


class ProcessBackend:
    """Launch and command a pool of SPMD workers for one mesh."""

    def __init__(self, mesh: ProcessMesh, profile: MachineProfile,
                 nworkers: int, arena_bytes: Optional[int] = None,
                 timeout: Optional[float] = None, transport: str = "shm",
                 faults: Optional[str] = None,
                 max_restarts: Optional[int] = None,
                 backoff: Optional[float] = None):
        if transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {transport!r}; available: {TRANSPORTS}"
            )
        self.mesh = mesh
        self.profile = profile
        self.nworkers = nworkers
        self.owners = owner_map(mesh.size, nworkers)
        self._ranks_of = ranks_of_workers(self.owners)
        self.arena_bytes = arena_bytes or DEFAULT_ARENA_BYTES
        self.timeout = default_timeout() if timeout is None else timeout
        self.transport = transport
        #: declarative fault plan (see :mod:`repro.parallel.faults`);
        #: parsed driver-side so a typo fails before any spawn, then
        #: shipped verbatim for each worker to arm its own share.
        self.faults = (os.environ.get("REPRO_PARALLEL_FAULTS") or None
                       if faults is None else faults)
        if self.faults:
            parse_plan(self.faults)
        self.max_restarts = (default_max_restarts() if max_restarts is None
                             else int(max_restarts))
        self.backoff = default_backoff() if backoff is None else float(backoff)
        self._started = False
        #: the running pool's identity: fresh on every :meth:`start`,
        #: ``None`` once terminated -- what driver-side knowledge of the
        #: workers' state (the feature matrix they hold) is tied to
        self.pool: Optional[int] = None
        self._finalizer = None
        self.procs = []
        self.arenas = []
        #: driver-side dispatch accounting (see :meth:`stats`)
        self.counters = {
            "dispatches": 0,       # command-queue wakeups
            "commands": 0,         # logical commands (batch members count)
            "fused_batches": 0,    # batch dispatches
            "fit_dispatches": 0,   # resident whole-fit dispatches
            "digest_checks": 0,    # cross-worker digest comparisons
            "restarts": 0,         # pool respawns by the recovery loop
            "recovery_dispatches": 0,  # dispatches issued for recovery
            "detect_seconds": 0.0,     # failure-detection latency, summed
        }
        #: per command, the array bytes its last dispatch carried (the
        #: bulk fields of its payload, parked or inline; one copy of a
        #: payload every worker shares, each worker's own of a
        #: per-worker one)
        self.dispatch_bytes = {}

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Launch the pool (idempotent while live; restartable after
        :meth:`terminate`, which the elastic recovery loop relies on).

        Returns once the forks have been *asked for*, not once the
        workers exist: the requests run on a short-lived launcher thread
        that the first dispatch, :meth:`close` and :meth:`terminate`
        join.  A driver's first pool thereby overlaps the template's own
        boot with whatever the caller does next, exactly as every pool
        overlaps its workers' attach and rendezvous.
        """
        if self._started:
            return
        # A restart leaves the dead pool's handles behind; everything
        # below is built afresh, so the new pool gets new queues and
        # heartbeat slots (stale result-queue entries from a killed run
        # must never be read).
        ctx = _worker_template()
        w = self.nworkers
        #: where :meth:`_dispatch` parks a command's bulk fields
        self.dispatch = Arena(shared_memory.SharedMemory(
            create=True, size=self.arena_bytes))
        self.inboxes = [ctx.Queue() for _ in range(w)]
        self.cmd_queues = [ctx.Queue() for _ in range(w)]
        self.result_queue = ctx.Queue()
        #: per-worker progress counters; each worker writes only its own
        #: slot (no lock needed), the driver and peer channels read all.
        self.heartbeat = ctx.RawArray("Q", w)
        hosts = None
        if self.transport == "tcp":
            env_hosts = os.environ.get("REPRO_PARALLEL_HOSTS")
            if env_hosts:
                hosts = parse_hosts(env_hosts, self.nworkers)
            arena_names = None
        else:
            self.arenas = [
                shared_memory.SharedMemory(create=True,
                                           size=self.arena_bytes)
                for _ in range(w)
            ]
            arena_names = [shm.name for shm in self.arenas]
        # Everything a worker is told.  A forked worker sees the
        # template's environment, never the driver's, so the settings
        # that come from variables are read here, now, and shipped.
        spec = {
            "mesh": self.mesh,
            "profile": self.profile,
            "owners": self.owners,
            "arena_names": arena_names,
            "dispatch_arena": self.dispatch.shm.name,
            "timeout": self.timeout,
            "backoff": self.backoff,
            "transport": self.transport,
            "hosts": hosts,
            "heartbeat": self.heartbeat,
            "faults": self.faults,
        }
        self.procs = [
            ctx.Process(
                target=_worker_main,
                args=(wid, spec, self.inboxes, self.cmd_queues[wid],
                      self.result_queue),
                daemon=True,
                name=f"repro-rank-worker-{wid}",
            )
            for wid in range(w)
        ]
        launcher = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-pool-launcher")
        self._launched = launcher.submit(self._launch, self.procs)
        launcher.shutdown(wait=False)
        self._finalizer = weakref.finalize(
            self, _cleanup, self._launched, list(self.procs),
            self.arenas + [self.dispatch.shm],
            self.inboxes + self.cmd_queues + [self.result_queue],
        )
        self._started = True
        self.pool = next(_POOL_IDS)

    def _launch(self, procs) -> None:
        """Launcher-thread body: one fork request per worker.  Each
        blocks until the template has answered with the child's pid --
        on a driver's first pool, until the template is up."""
        for p in procs:
            p.start()

    def _join_launch(self) -> None:
        """Wait until every worker has been forked.  A launch that
        failed tears the pool down and raises here, on the caller's
        thread."""
        err = self._launched.exception()
        if err is not None:
            self.terminate()
            raise err

    # ------------------------------------------------------------------ #
    def command(self, op: str, payload, recovery: bool = False,
                each: bool = False) -> list:
        """Broadcast one command; return per-worker results (by id).

        ``each=True`` makes ``payload`` a list of one payload per worker
        (``make_algo``'s shards).  ``recovery=True`` marks a dispatch
        issued by the elastic recovery loop (re-construction / resumed
        fit after a respawn):
        it is counted under ``recovery_dispatches`` only, so the
        O(1)-dispatches-per-fit invariant stays checkable on the normal
        counters.
        """
        if not self._started:
            raise RuntimeError("backend not started")
        if recovery:
            self.counters["recovery_dispatches"] += 1
        else:
            self.counters["dispatches"] += 1
            self.counters["commands"] += 1
            if op == "fit":
                self.counters["fit_dispatches"] += 1
        return self._dispatch(op, payload, each)

    def command_batch(self, commands) -> list:
        """Fuse N commands into one pickle/wakeup per worker.

        ``commands`` is a list of ``(op, payload)`` pairs; each worker
        executes them in order and replies once with
        ``(values, digest, tracker, obs)`` -- the stream's ledger digest
        and one per command.
        Returns the per-worker tuples.
        """
        if not self._started:
            raise RuntimeError("backend not started")
        commands = list(commands)
        self.counters["dispatches"] += 1
        self.counters["commands"] += len(commands)
        self.counters["fused_batches"] += 1
        return self._dispatch("batch", commands)

    def _dispatch(self, op: str, payload, each: bool = False) -> list:
        """Post one command to every worker -- ``payload``, or with
        ``each`` its own of ``payload``'s per-worker items -- and gather
        the replies.

        Bulk fields ride the dispatch arena, encoded afresh on every
        call (a recovery re-dispatch lands in the respawned pool's
        arena).  A reply means its worker has copied them out, so the
        arena is reclaimed as soon as :meth:`_collect` returns -- or
        fails, in which case the pool is already torn down.
        """
        self._join_launch()
        ephemerals: list = []
        payloads = payload if each else [payload]
        self.dispatch_bytes[op] = sum(
            payload_bytes(field) for item in payloads
            for field in (item if isinstance(item, tuple) else (item,)))
        try:
            msgs = [(op, park_fields(self.dispatch, item, ephemerals))
                    for item in payloads]
            for q, msg in zip(self.cmd_queues,
                              msgs if each else msgs * self.nworkers):
                q.put(msg)
            return self._collect(op)
        finally:
            self.dispatch.reset()
            for seg in ephemerals:
                seg.close()
                seg.unlink()

    def _collect(self, op: str) -> list:
        """Gather one result per worker under the no-progress timeout."""
        results = {}
        hb_last = list(self.heartbeat)
        last_progress = time.monotonic()
        while len(results) < self.nworkers:
            try:
                wid, status, value = self.result_queue.get(timeout=0.25)
            except queue.Empty:
                # Workers only exit on 'close', so an earlier exit is a
                # crash (e.g. a worker importing a broken __main__)
                # whose peers would otherwise block until their channel
                # timeouts -- fail the command immediately, naming the
                # dead workers and the mesh ranks they owned.
                dead = [w for w, p in enumerate(self.procs)
                        if p.exitcode is not None]
                if dead:
                    names = ", ".join(
                        f"worker {w} (ranks {list(self._ranks_of[w])})"
                        for w in dead
                    )
                    self.counters["detect_seconds"] += (
                        time.monotonic() - last_progress)
                    self.terminate()
                    raise WorkerDead(
                        f"worker process(es) died during {op!r}: {names}. "
                        "Note every worker, once forked from the worker "
                        "template, imports the driver's __main__ from "
                        "its file: a script must guard its driver code "
                        "with `if __name__ == '__main__':` and a driver "
                        "read from stdin has no file to import (pytest "
                        "and the CLI are unaffected)"
                    ) from None
                # Progress-based deadline: a long-running *healthy*
                # command (a whole resident fit) keeps the heartbeat
                # moving and is never killed by a clock; only a pool
                # making no progress at all for the whole window fails.
                hb_now = list(self.heartbeat)
                now = time.monotonic()
                if hb_now != hb_last:
                    hb_last, last_progress = hb_now, now
                elif (self.nworkers > 1 and self.timeout
                        and now - last_progress > self.timeout):
                    stuck = sorted(set(range(self.nworkers)) - set(results))
                    names = ", ".join(
                        f"worker {w} (ranks {list(self._ranks_of[w])})"
                        for w in stuck
                    )
                    self.counters["detect_seconds"] += now - last_progress
                    self.terminate()
                    raise WorkerStalled(
                        f"no progress for {self.timeout}s during {op!r}; "
                        f"unresponsive: {names}"
                    ) from None
                continue
            if status == "err":
                self.counters["detect_seconds"] += (
                    time.monotonic() - last_progress)
                self.terminate()
                # A channel timeout / torn frame is the *transport*
                # failing (usually because a peer died or dropped a
                # message), not the worker's own computation -- classify
                # it so the recovery loop can respond.
                cls = (TransportError
                       if any(m in value for m in _TRANSPORT_MARKERS)
                       else WorkerError)
                raise cls(
                    f"worker {wid} failed during {op!r}:\n{value}"
                )
            results[wid] = value
        return [results[wid] for wid in range(self.nworkers)]

    # ------------------------------------------------------------------ #
    def stats(self, workers: bool = True) -> dict:
        """Dispatch/traffic counters for this pool.

        Driver-side counts (dispatches, logical commands, fused batches,
        fit dispatches, digest checks) plus -- when ``workers`` is true
        and the pool is live -- worker-side channel totals (payload
        bytes posted, exchanges, digests computed), gathered with one
        extra dispatch that is *not* included in the snapshot.
        ``per_worker`` keeps the workers' own replies: besides the
        summed fields, each one's ``pid``, its ``ppid`` (the worker
        template), the modules it has imported since it was forked and
        ``held_sparse_bytes``, the ``indptr`` / ``indices`` / ``data``
        bytes of every sparse matrix its algorithm holds (its shard's
        blocks and, on the grid, the stage pieces it kept), counted.
        ``dispatch_bytes`` is the driver's :attr:`dispatch_bytes`.
        """
        out = dict(self.counters)
        out["dispatch_bytes"] = dict(self.dispatch_bytes)
        out["transport"] = self.transport
        out["workers"] = self.nworkers
        if workers and self._started:
            per = self.command("stats", None)
            out["channel_bytes"] = sum(d["channel_bytes"] for d in per)
            out["exchanges"] = sum(d["exchanges"] for d in per)
            out["digests_computed"] = sum(d["digests_computed"]
                                          for d in per)
            out["checkpoints_written"] = sum(
                d.get("checkpoints_written", 0) for d in per)
            out["checkpoint_seconds"] = sum(
                d.get("checkpoint_seconds", 0.0) for d in per)
            out["per_worker"] = per
        return out

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Orderly shutdown: ask workers to exit, then reap resources."""
        if not self._started:
            return
        self._join_launch()
        for q in self.cmd_queues:
            try:
                q.put(("close", None))
            except (ValueError, OSError):  # pragma: no cover
                pass
        for p in self.procs:
            p.join(timeout=self.timeout)
        if all(p.exitcode is not None for p in self.procs):
            # Every worker read its 'close', so the command pipes are
            # drained and the feeder threads idle: join them now.  Left
            # to the garbage collector they exit whenever, and one that
            # is still unlinking its queue's semaphores when the
            # interpreter shuts down leaves the resource tracker a
            # half-released name to warn about.
            for q in self.cmd_queues:
                q.close()
                q.join_thread()
        self.terminate()

    def terminate(self) -> None:
        if self._finalizer is not None:
            self._finalizer()
        self._started = False
        self.pool = None


# ---------------------------------------------------------------------- #
# the worker process
# ---------------------------------------------------------------------- #
class _WorkerState:
    """Mutable per-worker slots the command loop threads through."""

    __slots__ = ("algo", "ndigests", "boot_modules")

    def __init__(self):
        self.algo = None
        self.ndigests = 0
        #: what was imported when the worker took over from the
        #: template; ``stats`` reports what has been imported since.
        self.boot_modules = frozenset(sys.modules)


def _worker_main(worker_id: int, spec: dict, inboxes, cmd_queue,
                 result_queue) -> None:
    """One SPMD worker: build a rank-local runtime, execute commands.

    Process target (top-level so it pickles), running in a fork of the
    worker template: ``spec`` is the only source of settings -- the
    environment here is the template's, not the driver's, and nothing
    below reads it.  Every command ends with an ``('ok', value)`` or
    ``('err', traceback)`` report; collectives failures on one worker
    surface as timeouts on its peers, which the driver converts into
    pool termination.

    A worker leaves through the template's ``os._exit`` -- no
    interpreter shutdown, no ``atexit`` -- so everything it must release
    is released before this function returns: the ``finally`` below
    closes the channel (sockets, arena mappings) and the dispatch arena,
    ephemeral segments are unlinked when their ticket settles, and the
    checkpoint writer closes its file inside ``fit``.
    """
    state = _WorkerState()
    heartbeat = spec["heartbeat"]
    if spec["transport"] == "tcp":
        channel = TcpChannel(worker_id, len(inboxes), inboxes=inboxes,
                             hosts=spec["hosts"], timeout=spec["timeout"],
                             heartbeat=heartbeat, backoff=spec["backoff"])
    else:
        channel = PeerChannel(worker_id, inboxes, spec["arena_names"],
                              timeout=spec["timeout"], heartbeat=heartbeat)
    # Arm this worker's share of the fault plan (None when no spec
    # targets it); a fresh process starts with every spec re-armed.
    channel.faults = FaultPlan.for_worker(worker_id, spec["faults"])
    rt = WorkerRuntime(spec["mesh"], spec["profile"], channel,
                       spec["owners"])
    dispatch = shared_memory.SharedMemory(name=spec["dispatch_arena"])
    try:
        while True:
            op, payload = cmd_queue.get()
            if op == "close":
                break
            try:
                payload = fetch_fields(payload, dispatch.buf)
                value = _handle(rt, worker_id, op, payload, state, channel)
                if channel._stash:
                    # Every post is collected before its command
                    # returns: a frame left over was sent twice or to
                    # the wrong worker.
                    raise RuntimeError(
                        f"worker {worker_id}: {len(channel._stash)} "
                        f"frame(s) left uncollected after {op!r}, first "
                        f"{next(iter(channel._stash))!r}")
                result_queue.put((worker_id, "ok", value))
                # hold nothing of a command past it (a shipped feature
                # matrix, the shard's list) while waiting for the next
                payload = value = None
            # The worker's one fault barrier: any command failure --
            # taxonomy or not -- must reach the driver as an 'err'
            # reply, never kill the command loop.
            # repro-lint: disable=R8 -- top-level barrier: every failure must become an 'err' reply
            except Exception:
                result_queue.put((worker_id, "err",
                                  traceback.format_exc()))
    finally:
        channel.close()
        dispatch.close()


def _digest_result(rt, worker_id: int, value, extras, item_digests,
                   state: _WorkerState, obs=None):
    """Digest-carrying reply:
    ``(value-or-None, digest, w0's tracker, obs-or-None)``.

    ``digest`` is the ``(final, per_item_digests)`` pair: the ledger
    digest covering ``extras`` -- the stream's check scalars -- and one
    per epoch / sub-command, so a divergence names the exact item.
    ``obs`` is the worker's span blob when the fit ran traced -- it
    rides on the same reply and never enters the digest (wall clocks
    differ per worker; the ledger must not).
    """
    state.ndigests += 1
    digest = (ledger_digest(rt.tracker, *extras), tuple(item_digests))
    tracker = rt.tracker if worker_id == 0 else None
    return (value if worker_id == 0 else None, digest, tracker, obs)


def _handle(rt, worker_id: int, op: str, payload, state: _WorkerState,
            channel):
    """Execute one top-level command, wrapping digests as appropriate."""
    if op == "fit":
        # The resident hot path: the whole training program runs here,
        # with zero driver round-trips between epochs.
        features, labels, mask, epochs, capacity, ckpt = payload
        algo = _require_algo(state, op)
        extras, epoch_digests = [], []
        ckpt = ckpt or {}
        ckpt_path = ckpt.get("path")
        resume = bool(ckpt.get("resume"))
        plan = channel.faults
        if plan is not None:
            plan.attempt = int(ckpt.get("attempt", 1))
        # Epoch-pinned faults must fire only on *live* epochs: a resume
        # replays the checkpointed epochs through on_epoch, and
        # re-firing a kill there would loop the recovery forever.
        live_start = 0
        if resume and ckpt_path:
            from repro.nn.serialize import checkpoint_epochs

            live_start = checkpoint_epochs(ckpt_path)

        def on_epoch(stats):
            channel.touch()
            extras.extend((stats.loss, stats.train_accuracy))
            state.ndigests += 1
            epoch_digests.append(ledger_digest(rt.tracker, stats.loss,
                                               stats.train_accuracy))
            if plan is not None and stats.epoch >= live_start:
                plan.on_epoch(stats.epoch)

        fit_kwargs = dict(
            mask=mask,
            on_epoch=on_epoch,
            checkpoint_path=ckpt_path,
            checkpoint_every=int(ckpt.get("every", 0)),
            resume=resume,
            # One writer per pool: the checkpoint is a single shared
            # file and every worker holds identical replicated state.
            checkpoint_writer=(worker_id == 0),
        )
        obs = None
        if capacity is None:
            history = algo.fit(features, labels, epochs, **fit_kwargs)
        else:
            # Traced fit: record spans and kernel counters locally, ship
            # them on this same reply (the O(1)-dispatches invariant
            # holds); they never enter the digest (wall clocks differ
            # per worker).  "align" is this worker's clock at fit start,
            # letting the driver offset-align streams from other hosts.
            rec = _spans.enable(capacity)
            prof = _profile.enable()
            align = rec.clock()
            try:
                history = algo.fit(features, labels, epochs, **fit_kwargs)
            finally:
                _spans.disable()
                _profile.disable()
            obs = {
                "worker": worker_id,
                "ranks": list(rt._local_ranks),
                "align": align,
                "spans": rec.drain(),
                "dropped": rec.dropped,
                "profile": prof.snapshot(
                    arena=getattr(channel, "arena", None),
                    process=f"worker {worker_id}"),
            }
        return _digest_result(rt, worker_id, history, extras,
                              epoch_digests, state, obs=obs)
    if op == "batch":
        values, extras, item_digests = [], [], []
        for sub_op, sub_payload in payload:
            value, sub_extras = _dispatch(rt, worker_id, sub_op,
                                          sub_payload, state)
            values.append(value)
            extras.extend(sub_extras)
            state.ndigests += 1
            item_digests.append(ledger_digest(rt.tracker, *sub_extras))
        return _digest_result(rt, worker_id, values, extras, item_digests,
                              state)
    if op == "stats":
        algo = state.algo
        return {
            "pid": os.getpid(),
            # the worker template, shared by every pool of one driver
            "ppid": os.getppid(),
            # modules first imported after the fork: a non-empty list of
            # numpy / scipy / repro names is boot cost paid per worker
            "imported_after_boot": sorted(
                set(sys.modules) - state.boot_modules),
            "channel_bytes": channel.bytes_sent,
            "exchanges": channel.nexchanges,
            "digests_computed": state.ndigests,
            "checkpoints_written": (0 if algo is None
                                    else algo.checkpoints_written),
            "checkpoint_seconds": (0.0 if algo is None
                                   else algo.checkpoint_seconds),
            "held_sparse_bytes": (0 if algo is None
                                  else held_csr_bytes(algo)),
        }
    value, extras = _dispatch(rt, worker_id, op, payload, state)
    if op in _LEDGERED_OPS:
        return _digest_result(rt, worker_id, value, extras, (), state)
    return value


def _require_algo(state: _WorkerState, op: str):
    if state.algo is None:
        raise RuntimeError(f"no algorithm constructed before {op!r}")
    return state.algo


def _dispatch(rt, worker_id: int, op: str, payload, state: _WorkerState):
    """Execute one logical command; returns ``(value, check_scalars)``.

    ``check_scalars`` feed the stream's ledger digest so numeric
    divergence (not just structural) trips the cross-worker check.
    """
    if op == "make_algo":
        from repro.dist.registry import ALGORITHMS

        name, blocks, shard, widths, seed, optimizer, kwargs = payload
        state.algo = ALGORITHMS[name](rt, shard.join(blocks), widths,
                                      seed=seed, optimizer=optimizer,
                                      **kwargs)
        return None, ()
    algo = _require_algo(state, op)
    if op == "setup":
        features, labels, mask = payload
        algo.setup(features, labels, mask)
        return None, ()
    if op == "train_epoch":
        stats = algo.train_epoch(payload)
        return (stats if worker_id == 0 else None,
                (stats.loss, stats.train_accuracy))
    if op == "predict":
        log_probs = algo.predict(payload)
        return (log_probs if worker_id == 0 else None,
                (float(np.sum(log_probs)),))
    if op == "evaluate":
        labels, mask = payload
        loss, acc = algo.evaluate(labels, mask)
        return ((loss, acc) if worker_id == 0 else None, (loss, acc))
    if op == "log_probs":
        # Every worker participates: the lazy assembly inside
        # gather_log_probs is a collective (rt.gather_blocks).
        log_probs = algo.gather_log_probs()
        return (log_probs if worker_id == 0 else None, ())
    if op == "weights":
        if worker_id != 0:
            return None, ()
        return [w.copy() for w in algo.model.weights], ()
    if op == "reset_model":
        from repro.dist.base import clone_optimizer
        from repro.nn.model import GCN

        seed = algo.seed if payload is None else payload
        algo.model = GCN(algo.widths, seed=seed)
        algo.optimizer = clone_optimizer(algo.optimizer)
        if worker_id != 0:
            return None, ()
        return {"seed": seed,
                "optimizer": clone_optimizer(algo.optimizer)}, ()
    if op == "reset_stats":
        rt.reset_stats()
        return None, ()
    if op == "debug_skew":
        # Test-only fault injection: charge one worker's ledger so the
        # cross-worker digest check must trip on the next command.
        from repro.comm.tracker import Category

        if worker_id == payload:
            rt.tracker.charge(0, Category.MISC, 0.0, nbytes=1)
        return None, ()
    if op == "debug_held":
        # Test-only: the shapes of the 2-D arrays and sparse matrices
        # the worker's algorithm holds.
        return sorted({(type(obj).__name__, tuple(obj.shape))
                       for obj in reachable(state.algo,
                                            (np.ndarray, CSRMatrix))
                       if len(obj.shape) == 2}), ()
    if op == "debug_modules":
        # Test-only: every module the worker has imported, boot included.
        return sorted(sys.modules), ()
    if op == "debug_hang":
        # Test-only: one worker stops making progress (never touches
        # the heartbeat) so timeout paths can be exercised quickly.
        if worker_id == payload:
            while True:
                time.sleep(0.05)
        return None, ()
    raise ValueError(f"unknown worker command {op!r}")
