"""The distributed runtime surface: P ranks, a mesh, collectives, a ledger.

Two execution backends implement one :class:`Runtime` protocol:

* :class:`VirtualRuntime` (here) -- the single-process simulator: "parallel"
  steps are executed rank-by-rank in rank order, which makes every
  distributed algorithm a reproducible, debuggable program whose numerical
  output can be asserted against the serial reference;
* :class:`repro.parallel.runtime.WorkerRuntime` -- the rank-local view one
  OS process holds inside the true multiprocess backend
  (:mod:`repro.parallel`), where collectives really cross process
  boundaries through shared memory.

Both bundle:

* a :class:`~repro.comm.mesh.ProcessMesh` (1D / 2D / 3D logical topology);
* a :class:`~repro.comm.collectives.Collectives` instance that really
  moves per-rank numpy blocks while charging alpha-beta costs;
* a :class:`~repro.comm.tracker.CommTracker` ledger, which the
  algorithms also charge their **local compute** (SpMM / GEMM /
  elementwise) to at the machine profile's rates, so the Fig. 2 / Fig. 3
  reproductions can report a full modeled epoch time.

The contract that keeps the two backends interchangeable: the *ledger* is
global and deterministic (every backend charges every rank of every
collective and kernel, from structure alone), while the *data* is local
(``local_ranks`` names the ranks whose buffers this runtime instance may
touch).  The virtual runtime is the degenerate case where every rank is
local.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

from repro.comm.collectives import Collectives
from repro.comm.mesh import Mesh1D, Mesh2D, Mesh3D, ProcessMesh
from repro.comm.plan import CommPlan
from repro.comm.tracker import CommTracker
from repro.config import MachineProfile, SUMMIT

__all__ = ["Runtime", "RuntimeBase", "VirtualRuntime"]


class Runtime:
    """The protocol every execution backend's runtime satisfies.

    Documented as a plain base class (duck typing is how the algorithms
    consume it); the attributes below are the full surface
    :class:`repro.dist.base.DistAlgorithm` relies on:

    ``mesh``          the :class:`ProcessMesh` topology (``size`` ranks);
    ``profile``       the :class:`MachineProfile` priced by the ledger;
    ``tracker``       the full-world :class:`CommTracker` ledger;
    ``plan``          the :class:`CommPlan` structure cache;
    ``coll``          the :class:`Collectives` implementation;
    ``local_ranks``   the ranks whose data lives in this process;
    ``is_local``      membership test for ``local_ranks``;
    ``gather_blocks`` uncharged assembly of a ``{rank: block}`` dict
                      across processes (identity when everything is
                      local) -- the verification read-out path.
    """


class RuntimeBase(Runtime):
    """Shared implementation: ledger views + the local-rank contract.

    Subclasses populate ``mesh``/``profile``/``tracker``/``plan``/``coll``
    (see :meth:`_init_core`) and override the locality hooks when ranks
    are spread over several processes.
    """

    #: human-readable backend name (``describe`` embeds it).
    backend = "virtual"

    def _init_core(self, mesh: ProcessMesh,
                   profile: Optional[MachineProfile]) -> None:
        self.mesh = mesh
        self.profile = profile if profile is not None else SUMMIT
        self.tracker = CommTracker(mesh.size)
        self.plan = CommPlan(mesh.size, mesh)
        self._local_ranks: Tuple[int, ...] = tuple(range(mesh.size))

    # ------------------------------------------------------------------ #
    # locality
    # ------------------------------------------------------------------ #
    @property
    def local_ranks(self) -> Tuple[int, ...]:
        """The ranks whose buffers live in this process (ascending)."""
        return self._local_ranks

    def is_local(self, rank: int) -> bool:
        return True

    def gather_blocks(self, blocks: Dict[int, Any],
                      ranks: Optional[Iterable[int]] = None
                      ) -> Dict[int, Any]:
        """Assemble a per-rank block dict across processes (uncharged):
        every rank's block, or at least those of ``ranks``, the ones the
        caller reads.

        The verification/read-out path (``_assemble``,
        ``gather_log_probs``): a driver-side convenience a real system
        would pay for once at the end of a run, so it never touches the
        ledger.  With every rank local this is the identity.
        """
        return blocks

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        return self.mesh.size

    @property
    def mesh2d(self) -> Mesh2D:
        """The mesh, checked to be 2D (for SUMMA code paths)."""
        if not isinstance(self.mesh, Mesh2D):
            raise TypeError(f"expected a 2D mesh, have {type(self.mesh).__name__}")
        return self.mesh

    @property
    def mesh3d(self) -> Mesh3D:
        if not isinstance(self.mesh, Mesh3D):
            raise TypeError(f"expected a 3D mesh, have {type(self.mesh).__name__}")
        return self.mesh

    def reset_stats(self) -> None:
        """Clear the ledger (e.g. between warm-up and measured epochs)."""
        self.tracker.reset()

    # ------------------------------------------------------------------ #
    # convenience
    # ------------------------------------------------------------------ #
    def epoch_breakdown(self) -> dict:
        """Per-category modeled wall seconds (one Fig. 3 stacked bar)."""
        return self.tracker.breakdown()

    def modeled_seconds(self) -> float:
        return self.tracker.wall_seconds()

    def _topology(self) -> str:
        mesh = self.mesh
        if isinstance(mesh, Mesh2D):
            return f"2D {mesh.rows}x{mesh.cols}"
        if isinstance(mesh, Mesh3D):
            return f"3D {mesh.p1}x{mesh.p2}x{mesh.p3}"
        return f"1D chain of {mesh.size}"

    def describe(self) -> str:
        """One-line human description of the machine."""
        return (f"{type(self).__name__}({self._topology()}, "
                f"profile={self.profile.name})")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return self.describe()


class VirtualRuntime(RuntimeBase):
    """A simulated distributed machine with ``mesh.size`` ranks.

    Typical construction for the paper's configurations::

        rt = VirtualRuntime.make_1d(P)          # Algorithm 1
        rt = VirtualRuntime.make_2d(P)          # Algorithm 2 (square grid)
        rt = VirtualRuntime.make_2d_rect(Pr, Pc)
        rt = VirtualRuntime.make_3d(P)          # Split-3D-SpMM
    """

    def __init__(self, mesh: ProcessMesh, profile: Optional[MachineProfile] = None):
        self._init_core(mesh, profile)
        self.coll = Collectives(self.profile, self.tracker, plan=self.plan)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def make_1d(cls, p: int, profile: Optional[MachineProfile] = None
                ) -> "VirtualRuntime":
        return cls(Mesh1D(size=p), profile)

    @classmethod
    def make_2d(cls, p: int, profile: Optional[MachineProfile] = None
                ) -> "VirtualRuntime":
        return cls(Mesh2D.square(p), profile)

    @classmethod
    def make_2d_rect(cls, rows: int, cols: int,
                     profile: Optional[MachineProfile] = None) -> "VirtualRuntime":
        return cls(Mesh2D.rectangular(rows, cols), profile)

    @classmethod
    def make_3d(cls, p: int, profile: Optional[MachineProfile] = None
                ) -> "VirtualRuntime":
        return cls(Mesh3D.cubic(p), profile)
