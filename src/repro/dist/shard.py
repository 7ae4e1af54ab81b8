"""What one process holds of the sparse operand: a :class:`Shard`.

Every family lays the (relabelled) ``A^T`` -- and ``A`` where it differs
-- out in per-rank blocks, in the roles its epoch reads: 1D / 1.5D block
rows, column blocks and slabs, the ghost variant's compact blocks, the
2D / 3D grid blocks.  :meth:`repro.dist.base.DistAlgorithm.cut_shards`
cuts that layout once per set of ranks: the virtual runtime builds its
ranks from one shard of all of them, the process backend's driver cuts
one per worker and ships each worker its own.  A shard holds the blocks
of its ranks and a :class:`~repro.sparse.csr.SparseShape` of every other
block -- the sizes the global ledger charges, never the values -- so no
worker holds the whole operand or a block it does not multiply.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.sparse.csr import CSRMatrix

__all__ = ["Shard"]


class Shard(NamedTuple):
    """One process's cut of the operand (see the module docstring)."""

    #: vertices
    n: int
    #: ``A == A^T`` (the ``A`` roles are then the ``A^T`` ones)
    symmetric: bool
    #: per role, every rank's block: a ``CSRMatrix`` for the shard's
    #: ranks, a ``SparseShape`` for the others; two roles of one layout
    #: (``A`` and ``A^T`` of a symmetric operand) share one dict
    blocks: Dict[str, Dict[int, Any]]
    #: the family's further structure, cut to the shard's ranks (the
    #: ghost exchange's local part, per-rank counts)
    extra: Dict[str, Any]
    #: the whole internal operand and its transpose, only in a shard cut
    #: for the process that was handed the caller's matrix
    a_t: Optional[CSRMatrix] = None
    a: Optional[CSRMatrix] = None

    def split(self) -> Tuple[List[CSRMatrix], "Shard"]:
        """``(blocks, skeleton)`` for shipping: the shard's matrices as
        one list (what the dispatch arena carries) and the shard with
        each of them replaced by its position in the list; :meth:`join`
        undoes it.  Roles that share a dict still share one after."""
        csrs: List[CSRMatrix] = []
        at: Dict[int, int] = {}

        def index(block: Any) -> Any:
            if not isinstance(block, CSRMatrix):
                return block
            if id(block) not in at:
                at[id(block)] = len(csrs)
                csrs.append(block)
            return at[id(block)]

        return csrs, self._map_blocks(index)

    def join(self, csrs: List[CSRMatrix]) -> "Shard":
        """The shard :meth:`split` made this skeleton of."""
        return self._map_blocks(
            lambda b: csrs[b] if isinstance(b, int) else b)

    def _map_blocks(self, fn) -> "Shard":
        mapped: Dict[int, Dict[int, Any]] = {}
        for by_rank in self.blocks.values():
            if id(by_rank) not in mapped:
                mapped[id(by_rank)] = {r: fn(b) for r, b in by_rank.items()}
        return self._replace(blocks={
            role: mapped[id(by_rank)]
            for role, by_rank in self.blocks.items()})
