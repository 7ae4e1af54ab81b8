"""Runtimes for the process backend: the worker view and the driver view.

:class:`WorkerRuntime` lives inside each worker process: a full
:class:`~repro.comm.runtime.Runtime` whose ``local_ranks`` are the block
of mesh ranks this worker owns, with :class:`ProcessCollectives` moving
payloads through shared memory.  Each worker constructs the *same*
:class:`~repro.dist.base.DistAlgorithm` (same seed, same replicated
weights) and runs the *same* epoch program; only the data loops narrow to
the owned ranks.  Because charging is global and deterministic, every
worker's tracker is a complete, bit-identical copy of the virtual
runtime's ledger -- verified via :func:`ledger_digest` (one digest per
fit / per fused command stream, and one per epoch / per command in it).

:class:`ParallelRuntime` is the driver-side handle: it exposes the
:class:`VirtualRuntime` surface (mesh, tracker, profile, describe,
breakdowns) so CLI/benchmark code is backend-agnostic, starts a
:class:`~repro.parallel.backend.ProcessBackend` on first use, and mirrors
worker 0's tracker after every digest-checked dispatch.
:class:`ParallelAlgorithm` is the matching driver-side proxy for one
distributed algorithm: ``fit`` ships the whole training program in a
single dispatch (the workers are resident -- the epoch loop runs
worker-side); ``train_epoch`` / ``predict`` / ``evaluate`` forward to
the lock-stepped workers and return worker 0's results.
"""

from __future__ import annotations

import hashlib
import struct
import time
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable,
                    Optional, Sequence, Tuple, Union)

import numpy as np

from repro.comm.mesh import Mesh1D, Mesh2D, Mesh3D, ProcessMesh
from repro.comm.runtime import RuntimeBase
from repro.comm.tracker import CommTracker
from repro.config import MachineProfile
from repro.dist.base import HELD_FEATURES
from repro.nn.layers import check_widths
from repro.nn.optim import Optimizer
from repro.parallel.channel import PeerChannel
from repro.parallel.collectives import ProcessCollectives
from repro.sparse.csr import CSRMatrix

if TYPE_CHECKING:  # runtime imports dist lazily; annotate without the cycle
    from repro.dist.base import DistAlgorithm
    from repro.dist.history import DistTrainHistory, EpochStats
    from repro.parallel.backend import ProcessBackend

__all__ = [
    "WorkerRuntime",
    "ParallelRuntime",
    "ParallelAlgorithm",
    "HELD_FEATURES",
    "ledger_digest",
    "owner_map",
    "ranks_of_workers",
]

def owner_map(nranks: int, nworkers: int) -> Tuple[int, ...]:
    """Block assignment of mesh ranks to workers (contiguous, near-equal).

    Contiguity is load-bearing: the grid algorithms require each row
    group's local members to sit on consecutive feature columns (see
    ``GridAlgorithm._local_group_info``).
    """
    if not 1 <= nworkers <= nranks:
        raise ValueError(
            f"need 1 <= workers <= ranks, got {nworkers} workers for "
            f"{nranks} ranks"
        )
    base, extra = divmod(nranks, nworkers)
    owners = []
    for w in range(nworkers):
        owners.extend([w] * (base + (1 if w < extra else 0)))
    return tuple(owners)


def ranks_of_workers(owners: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
    """Each worker's ranks under ``owners`` (:func:`owner_map`),
    ascending, by worker."""
    return tuple(tuple(r for r, w in enumerate(owners) if w == wid)
                 for wid in range(max(owners) + 1))


def ledger_digest(tracker: CommTracker, *extra_floats: float) -> str:
    """Bit-exact fingerprint of a tracker (plus optional scalars).

    Workers compare digests after every command: identical programs must
    produce identical ledgers, so a mismatch means a backend bug (lost
    message, wrong fold order), not a tolerance issue.
    """
    h = hashlib.sha1()
    for x in extra_floats:
        h.update(struct.pack("<d", float(x)))
    h.update(tracker.state_bytes())
    return h.hexdigest()


class WorkerRuntime(RuntimeBase):
    """One worker's rank-local runtime inside the process backend."""

    backend = "process-worker"

    #: the driver ships a matrix only when it is new (and
    #: :data:`HELD_FEATURES` otherwise), so a worker keeps no copy
    compares_features = False

    def __init__(self, mesh: ProcessMesh, profile: Optional[MachineProfile],
                 channel: PeerChannel, owners: Sequence[int]):
        self._init_core(mesh, profile)
        self.channel = channel
        self.owners = tuple(owners)
        self.worker_id = channel.wid
        self.nworkers = max(self.owners) + 1
        #: each worker's ranks, and the read-out's routes: one per
        #: worker, from its first rank to every rank it does not own
        self._ranks_of = ranks_of_workers(self.owners)
        self._local_ranks = self._ranks_of[channel.wid]
        self._local_set = frozenset(self._local_ranks)
        self.coll = ProcessCollectives(
            self.profile, self.tracker, self.plan, channel, self.owners)
        self._gather_routes = [
            (ranks[0], tuple(r for r in range(mesh.size)
                             if self.owners[r] != w))
            for w, ranks in enumerate(self._ranks_of)
        ]

    def is_local(self, rank: int) -> bool:
        return rank in self._local_set

    def gather_blocks(self, blocks: Dict[int, np.ndarray],
                      ranks: Optional[Iterable[int]] = None
                      ) -> Dict[int, np.ndarray]:
        """Uncharged world assembly of the local ranks' blocks (read-out
        path): one routed step, every worker sending the others the
        list of its ranks' blocks in rank order -- of those among
        ``ranks`` (default: all), the ones the caller reads, so a worker
        with none of them sends an empty list.

        Replicated layouts hand several ranks one shared buffer (row
        groups after an all-gather); both transports ship a list's
        shared item once and decode it to one shared copy again.
        """
        if self.nworkers == 1:
            return blocks
        wanted = None if ranks is None else frozenset(ranks)
        sent = [mine if wanted is None
                else tuple(r for r in mine if r in wanted)
                for mine in self._ranks_of]
        payload = [blocks[r] for r in sent[self.worker_id]]
        coll = self.coll
        got = coll._routed_collect(coll._routed_post(
            "gather_blocks", self._gather_routes, lambda i, _: payload))
        full = dict(blocks)
        for shipped_ranks, shipped in zip(sent, got):
            if shipped is not None:
                full.update(zip(shipped_ranks, shipped))
        return full

    def describe(self) -> str:
        return (f"WorkerRuntime({self._topology()}, "
                f"worker {self.worker_id}/{self.nworkers}, "
                f"ranks {self._local_ranks}, profile={self.profile.name})")


class ParallelAlgorithm:
    """Driver-side proxy: the :class:`DistAlgorithm` public surface,
    executed by the backend's lock-stepped workers.

    Every method broadcasts one command, waits for all workers, asserts
    their ledgers/losses agree bit for bit, adopts worker 0's tracker
    into :attr:`rt`, and returns worker 0's result.
    """

    def __init__(self, rt: "ParallelRuntime", name: str, a_t: CSRMatrix,
                 widths: Sequence[int], seed: int = 0,
                 optimizer: Optional[Optimizer] = None, **kwargs: Any):
        self.rt = rt
        self.name = name
        self.n = a_t.nrows
        self.widths = check_widths(widths)
        #: the :class:`~repro.obs.tracing.MergedTrace` of the last traced
        #: ``fit`` (``None`` until ``fit(trace=...)`` runs)
        self.last_trace = None
        #: the constructor's arguments -- the caller's operand by
        #: reference, no copy -- from which :meth:`_shards` cuts every
        #: worker's shard: for the pool, and again for a respawned one
        self._ctor = (name, a_t, self.widths, seed, optimizer, kwargs)
        #: ``(pool, copy)``: a private copy of the feature matrix the
        #: running pool (:attr:`ProcessBackend.pool`) installed last, by
        #: ``setup`` / ``fit`` / ``predict(features)``.  Another pool --
        #: a respawn, one after ``close()`` -- holds nothing of it, and a
        #: failed dispatch clears it.
        self._held: Optional[Tuple[int, np.ndarray]] = None
        rt.start().command("make_algo", self._shards(), each=True)

    def _shards(self) -> list:
        """The ``make_algo`` payload of every worker: the algorithm's
        arguments and the worker's shard of the operand, cut once for
        the whole pool by the function the virtual runtime builds its
        ranks with (:meth:`DistAlgorithm.cut_shards`) -- its ranks'
        blocks and the shapes of the others, the shard's matrices as one
        list the dispatch arena carries (:meth:`Shard.split`)."""
        from repro.dist.registry import ALGORITHMS

        name, a_t, widths, seed, optimizer, kwargs = self._ctor
        layout = dict(kwargs)
        distribution = layout.pop("distribution", None)
        shards = ALGORITHMS[name].cut_shards(
            self.rt.mesh, a_t, self.rt.ranks_of_workers,
            distribution=distribution, **layout)
        return [(name, *shard.split(), widths, seed, optimizer, kwargs)
                for shard in shards]

    # ------------------------------------------------------------------ #
    def _ship(self, features: np.ndarray) -> Tuple[Any, np.ndarray]:
        """``(what a command that installs features ships, the copy to
        hold once it succeeds)``: :data:`HELD_FEATURES` and the held copy
        when ``features`` is bit for bit the matrix the running pool
        installed last, else the matrix and a fresh copy of it.  Whether
        a matrix is new is decided as the workers decide it
        (:meth:`DistAlgorithm._install_features`), on its fp64 bits."""
        given = np.asarray(features)
        bits = np.asarray(given, dtype=np.float64)
        held, backend = self._held, self.rt._backend
        self._held = None        # until the command has succeeded
        if (held is not None and backend is not None
                and backend.pool == held[0] and held[1].shape == bits.shape
                and np.array_equal(held[1].view(np.int64),
                                   bits.view(np.int64))):
            return HELD_FEATURES, held[1]
        return given, np.array(bits)

    def _installed(self, copy: np.ndarray) -> None:
        self._held = (self.rt._backend.pool, copy)

    def setup(self, features: np.ndarray, labels: np.ndarray,
              mask: Optional[np.ndarray] = None) -> None:
        shipped, copy = self._ship(features)
        self.rt._adopt_and_check(self.rt._command(
            "setup", (shipped, np.asarray(labels),
                      None if mask is None else np.asarray(mask))))
        self._installed(copy)

    def train_epoch(self, epoch: int = 0) -> "EpochStats":
        results = self.rt._command("train_epoch", epoch)
        stats = self.rt._adopt_and_check(results)
        return stats

    def fit(self, features: np.ndarray, labels: np.ndarray, epochs: int,
            mask: Optional[np.ndarray] = None,
            on_epoch: Optional[Callable[["EpochStats"], None]] = None,
            trace: Union[bool, int, None] = None,
            checkpoint_path: Optional[str] = None,
            checkpoint_every: int = 0) -> "DistTrainHistory":
        """Train for ``epochs`` epochs in **one dispatch**.

        The whole program (setup + epoch loop) ships to the resident
        workers and runs with zero driver round-trips; the driver
        collects worker 0's history (set-up delta + per-epoch stats) and
        ledger, checks the batched digest, and -- for API parity with
        :meth:`DistAlgorithm.fit` -- replays ``on_epoch`` over the
        returned stats.

        ``trace`` turns on worker-side span recording and kernel
        profiling for this fit: ``True``, or the span ring's capacity
        (checked here, before anything is dispatched).  The drained
        spans and kernel counters ride back on the same single dispatch
        and the merged result lands in :attr:`last_trace`; losses and
        ledger stay bit-identical to an untraced fit.

        ``checkpoint_path`` + ``checkpoint_every=k`` make worker 0 write
        the full training state atomically every ``k`` epochs.  When the
        backend has a restart budget (``max_restarts`` /
        ``REPRO_PARALLEL_MAX_RESTARTS``), a recoverable failure -- dead
        worker, stalled pool, transport error -- triggers the elastic
        recovery loop: back off, respawn the pool, rebuild the
        algorithm, and re-dispatch the fit with ``resume=True`` so the
        workers reload the last checkpoint and continue.  The resumed
        trajectory is deterministic, so final losses and the ledger
        digest are bit-identical to a fault-free run.  Recovery
        dispatches are counted separately (``recovery_dispatches`` in
        :meth:`ParallelRuntime.backend_stats`), preserving the
        O(1)-dispatches-per-fit invariant.
        """
        from repro.obs import events as _events
        from repro.obs import spans as _spans
        from repro.parallel.backend import RECOVERABLE_ERRORS

        capacity = None
        if trace is True:
            capacity = _spans.DEFAULT_CAPACITY
        elif trace is not None and trace is not False:
            capacity = _spans.check_capacity(int(trace))
        ckpt = {
            "path": None if checkpoint_path is None else str(checkpoint_path),
            "every": int(checkpoint_every),
            "resume": False,
            "attempt": 1,
        }
        shipped, copy = self._ship(features)
        rest = (
            np.asarray(labels), None if mask is None else np.asarray(mask),
            int(epochs), capacity,
        )
        t_dispatch = time.monotonic()
        backend = self.rt.start()
        attempt = 1
        while True:
            try:
                if attempt == 1:
                    results = self.rt._command(
                        "fit", (shipped,) + rest + (ckpt,))
                else:
                    # a respawned pool holds no features: ship the matrix
                    results = backend.command(
                        "fit", (np.asarray(features),) + rest
                        + (dict(ckpt, resume=True, attempt=attempt),),
                        recovery=True)
                break
            except RECOVERABLE_ERRORS as exc:
                # attempt - 1 restarts are already behind us; reraise
                # once the budget is spent (terminate() already ran in
                # the failure path, so nothing leaks).
                _events.emit("failure", kind=type(exc).__name__,
                             attempt=attempt, error=str(exc)[:300])
                if attempt > backend.max_restarts:
                    _events.emit("error", kind=type(exc).__name__,
                                 attempt=attempt,
                                 reason="restart budget exhausted")
                    raise
                rec = _spans.ACTIVE
                t0 = rec.clock() if rec is not None else 0.0
                delay = backend.backoff * (2 ** (attempt - 1))
                _events.emit("backoff", seconds=delay, attempt=attempt)
                time.sleep(delay)
                backend.counters["restarts"] += 1
                backend.start()
                backend.command("make_algo", self._shards(), recovery=True,
                                each=True)
                _events.emit("respawn", attempt=attempt,
                             restarts=backend.counters["restarts"])
                if rec is not None:
                    rec.record("recover", "misc", t0, rec.clock(),
                               (attempt,))
                attempt += 1
                _events.emit("resume", attempt=attempt,
                             checkpoint=ckpt.get("path"))
        history = self.rt._adopt_and_check(results)
        self._installed(copy)
        epoch_stats = history.epochs
        if _events.ACTIVE is not None:
            # The driver owns the event log (workers never have one);
            # replay the adopted history into it so the process backend
            # emits the same epoch/checkpoint stream the virtual
            # backend writes live.
            every = int(checkpoint_every)
            for stats in epoch_stats:
                _events.emit("epoch", epoch=int(stats.epoch),
                             loss=float(stats.loss),
                             train_accuracy=float(stats.train_accuracy))
                if (checkpoint_path is not None and every > 0
                        and (stats.epoch + 1) % every == 0):
                    _events.emit("checkpoint", path=str(checkpoint_path),
                                 epochs=int(stats.epoch) + 1)
        if capacity is not None:
            from repro.obs.profile import peak_rss_bytes
            from repro.obs.tracing import merge_worker_obs

            self.last_trace = merge_worker_obs(
                self.rt.last_obs or [], t_dispatch,
                driver_rss_bytes=peak_rss_bytes(),
            )
        if on_epoch is not None:
            for stats in epoch_stats:
                on_epoch(stats)
        return history

    def predict(self, features: Optional[np.ndarray] = None) -> np.ndarray:
        if features is None:
            return self.rt._adopt_and_check(
                self.rt._command("predict", None))
        shipped, copy = self._ship(features)
        log_probs = self.rt._adopt_and_check(
            self.rt._command("predict", shipped))
        self._installed(copy)
        return log_probs

    def evaluate(self, labels: np.ndarray,
                 mask: Optional[np.ndarray] = None) -> Tuple[float, float]:
        results = self.rt._command(
            "evaluate",
            (np.asarray(labels), None if mask is None else np.asarray(mask)),
        )
        return self.rt._adopt_and_check(results)

    def gather_log_probs(self) -> np.ndarray:
        return self.rt._command("log_probs", None)[0]

    def verify_against_serial(self, features: np.ndarray, labels: np.ndarray,
                              epochs: int, seed: Optional[int] = None,
                              mask: Optional[np.ndarray] = None) -> float:
        """Serial-vs-process divergence by
        :func:`repro.dist.base.serial_divergence`: serial runs on the
        driver, on the operand it cut the shards from, distributed on
        the workers, both from fresh weights."""
        from repro.dist.base import DistAlgorithm, serial_divergence

        info = self.rt._command("reset_model", seed)[0]
        # The workers' operand lives in the distribution's internal
        # (part-major) vertex order: the reference gets it relabelled.
        a_t, dist = self._ctor[1], self._ctor[5].get("distribution")
        if dist is not None:
            a_t = dist.permute_matrix(a_t)
        a = a_t if DistAlgorithm._is_symmetric(a_t) else a_t.transpose()

        def distributed():
            hist = self.fit(features, labels, epochs, mask=mask)
            # Verification read-out rides one fused command stream: the
            # forward pass and the weight snapshot arrive in a single
            # pickle/wakeup with one digest check.
            log_probs, weights = self.rt._command_batch(
                [("predict", None), ("weights", None)])
            return hist.losses, weights, log_probs

        return serial_divergence(
            self.widths, info["seed"], info["optimizer"], a_t, a, dist,
            features, labels, epochs, mask, distributed)


class ParallelRuntime(RuntimeBase):
    """Driver-side runtime for the multiprocess execution backend.

    Mirrors the :class:`VirtualRuntime` constructor surface plus a
    ``workers`` count; the worker processes are launched by :meth:`start`,
    or lazily with the first command.  After every command the driver
    adopts worker 0's tracker, so ``tracker`` / ``epoch_breakdown`` /
    ``modeled_seconds`` read exactly like the virtual runtime's.
    """

    backend = "process"

    def __init__(self, mesh: ProcessMesh,
                 profile: Optional[MachineProfile] = None,
                 workers: Optional[int] = None,
                 arena_bytes: Optional[int] = None,
                 timeout: Optional[float] = None,
                 transport: str = "shm",
                 faults: Optional[str] = None,
                 max_restarts: Optional[int] = None,
                 backoff: Optional[float] = None):
        self._init_core(mesh, profile)
        self.coll = None  # collectives execute inside the workers
        if workers is None:
            workers = mesh.size
        if not 1 <= workers <= mesh.size:
            raise ValueError(
                f"need 1 <= workers <= ranks, got {workers} workers for "
                f"{mesh.size} ranks"
            )
        self.workers = workers
        self.owners = owner_map(mesh.size, self.workers)
        #: each worker's ranks, ascending, by worker
        self.ranks_of_workers = ranks_of_workers(self.owners)
        self.transport = transport
        #: per-worker span blobs from the last traced dispatch
        self.last_obs = None
        self._backend: Optional["ProcessBackend"] = None
        self._algorithm_built = False
        self._arena_bytes = arena_bytes
        self._timeout = timeout
        self._faults = faults
        self._max_restarts = max_restarts
        self._backoff = backoff

    # ------------------------------------------------------------------ #
    # constructors (mirroring VirtualRuntime)
    # ------------------------------------------------------------------ #
    @classmethod
    def make_1d(cls, p: int, profile: Optional[MachineProfile] = None,
                workers: Optional[int] = None, **kw: Any
                ) -> "ParallelRuntime":
        return cls(Mesh1D(size=p), profile, workers=workers, **kw)

    @classmethod
    def make_2d(cls, p: int, profile: Optional[MachineProfile] = None,
                workers: Optional[int] = None, **kw: Any
                ) -> "ParallelRuntime":
        return cls(Mesh2D.square(p), profile, workers=workers, **kw)

    @classmethod
    def make_2d_rect(cls, rows: int, cols: int,
                     profile: Optional[MachineProfile] = None,
                     workers: Optional[int] = None,
                     **kw: Any) -> "ParallelRuntime":
        return cls(Mesh2D.rectangular(rows, cols), profile, workers=workers,
                   **kw)

    @classmethod
    def make_3d(cls, p: int, profile: Optional[MachineProfile] = None,
                workers: Optional[int] = None, **kw: Any
                ) -> "ParallelRuntime":
        return cls(Mesh3D.cubic(p), profile, workers=workers, **kw)

    # ------------------------------------------------------------------ #
    # backend plumbing
    # ------------------------------------------------------------------ #
    def start(self) -> "ProcessBackend":
        """Launch the worker pool now (idempotent) and return its backend.

        Bare construction stays lazy -- the pool otherwise starts with
        the first command.  ``start()`` returns once the launch is under
        way, not once the workers are up: a launcher thread asks the
        driver's worker template for one fork per worker (on the first
        pool of a driver, waiting for the template's own boot), and the
        workers attach and rendezvous on their own, while the caller
        carries on with driver-side work
        (:func:`repro.dist.make_algorithm` partitions the graph in that
        window).  The first dispatch -- or ``close()`` -- joins the
        launcher.
        """
        if self._backend is None:
            from repro.parallel.backend import ProcessBackend

            self._backend = ProcessBackend(
                self.mesh, self.profile, self.workers,
                arena_bytes=self._arena_bytes, timeout=self._timeout,
                transport=self.transport, faults=self._faults,
                max_restarts=self._max_restarts, backoff=self._backoff,
            )
            self._backend.start()
        return self._backend

    def _command(self, op: str, payload) -> list:
        return self.start().command(op, payload)

    def _command_batch(self, commands) -> list:
        """Fuse a command stream into one dispatch; returns the ordered
        sub-command values (worker 0's), digest-checked as one batch."""
        results = self.start().command_batch(commands)
        return self._adopt_and_check(results)

    def _adopt_and_check(self, results):
        """Adopt worker 0's tracker; insist every worker agrees bit for
        bit.  Each result is ``(value, digest, tracker_or_None, obs)``
        where ``digest`` is ``(final, per_item_digests)``: a mismatch
        names the first diverging epoch / sub-command.  ``obs`` (the
        per-worker span blobs of a traced fit) is stashed on
        :attr:`last_obs` and never enters the digest comparison."""
        self._backend.counters["digest_checks"] += 1
        obs = [r[3] for r in results]
        if any(b is not None for b in obs):
            self.last_obs = obs
        digests = {r[1] for r in results}
        if len(digests) != 1:
            detail = ""
            items = zip(*(r[1][1] for r in results))
            first = next((i for i, item in enumerate(items)
                          if len(set(item)) > 1), None)
            if first is not None:
                detail = f" (first divergence at stream item {first})"
            raise RuntimeError(
                "process backend diverged: workers returned "
                f"{len(digests)} distinct ledger digests{detail}"
            )
        value, _, tracker = results[0][:3]
        if tracker is not None:
            mine = self.tracker
            mine.per_rank = tracker.per_rank
            mine.wall = tracker.wall
            mine._nsteps = tracker._nsteps
            mine._step = None
        return value

    def make_algorithm(self, name: str, a_t: CSRMatrix,
                       widths: Sequence[int], seed: int = 0,
                       optimizer: Optional[Optimizer] = None,
                       **kwargs: Any) -> ParallelAlgorithm:
        """Build (on every worker) the named algorithm for this runtime,
        each worker from its own shard of ``a_t``
        (:meth:`ParallelAlgorithm._shards`).

        One live algorithm per pool: the workers hold a single algorithm
        slot, so a second build would silently hijack the first proxy's
        model.  ``close()`` the runtime (fresh pool) to build another.
        """
        if self._algorithm_built:
            raise RuntimeError(
                "this ParallelRuntime already drives an algorithm; a "
                "second one would share (and corrupt) the workers' "
                "state -- close() this runtime and build a fresh one"
            )
        algo = ParallelAlgorithm(self, name, a_t, widths, seed=seed,
                                 optimizer=optimizer, **kwargs)
        self._algorithm_built = True
        return algo

    def reset_stats(self) -> None:
        self.tracker.reset()
        if self._backend is not None:
            self._command("reset_stats", None)

    def backend_stats(self, workers: bool = True) -> Optional[dict]:
        """Dispatch/traffic counters (:meth:`ProcessBackend.stats`), or
        ``None`` before the pool has started."""
        if self._backend is None:
            return None
        return self._backend.stats(workers=workers)

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._backend is not None:
            self._backend.close()
            self._backend = None
        self._algorithm_built = False

    def __enter__(self) -> "ParallelRuntime":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def describe(self) -> str:
        return (f"ParallelRuntime({self._topology()}, "
                f"{self.workers} workers, {self.transport} transport, "
                f"profile={self.profile.name})")
