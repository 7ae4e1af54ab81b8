"""The block-row family's shared epoch (1D and 1.5D).

:class:`BlockRowAlgorithm` is the program both algorithms run on top of
:class:`repro.dist.base.DistAlgorithm`; the ``algo_1d`` / ``algo_15d``
modules supply only the data movement that realises the SpMM.  That
movement ships, of each dense block, only the rows another block reads
(its exported rows): the source packs them (:meth:`BlockRowAlgorithm.
_pack`) and every receiving process places them into the operand it
multiplies (:meth:`BlockRowAlgorithm._place`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.dist.base import DistAlgorithm
from repro.nn.layers import (forward_gemm, hidden_gradient, sweep_order,
                             weight_gradient)

__all__ = ["BlockRowAlgorithm"]


class BlockRowAlgorithm(DistAlgorithm):
    """The block-row family's shared epoch (1D and 1.5D).

    Both algorithms keep complete dense rows on every rank, so their
    forward sweep, loss terms, and backward recursion are the same
    program; they differ only in *which collective* realises the SpMM
    and which group replicates scalars/gradients.

    An epoch runs ``L - 1`` SpMM sweeps each way, each at the narrow
    side of its layer's weight (:func:`repro.nn.layers.sweep_order`, the
    rule the serial layer follows too).  Forward, layer 1 starts from
    ``T^0 = A^T H^0``, aggregated once per feature matrix at set-up
    (:meth:`DistAlgorithm._install_features`); a layer above it that
    shrinks runs ``A^T (H W)`` and caches ``H^{l-1}`` in place of ``T``.
    Backward, such a layer takes Equation 3's second form, ``Y^l =
    (H^{l-1})^T (A G^l)``, from the ``A G^l`` Equation 2 needs anyway;
    every other layer takes the first, ``Y^l = (T^{l-1})^T G^l``, and
    one that grows forms ``A (G^l W^T)`` for Equation 2 -- which layer
    1 has no use for.  Only the widths handed to the two hooks change
    with the order; the sweeps, exchanges and messages do not.

    Every ``f``-wide kernel output of the epoch -- both sweeps' SpMMs,
    the forward and hidden-gradient GEMMs, ReLU both ways -- is written
    into a per-layer workspace (:meth:`_rows_ws`), named by its role and
    layer, so a steady-state epoch allocates no ``f``-wide array and
    the heap the previous epoch faulted in is the heap this one uses.
    Each such buffer is written once per epoch, which is what lets one
    be handed to a collective (:meth:`DistAlgorithm._ws`); ReLU's
    backward runs in place in the hidden-gradient buffer where no sweep
    follows it.  The output layer's log-probabilities and their gradient
    stay fresh arrays (``f^L`` wide).  Subclasses provide:

    * ``_block_ranks``           -- the ranks holding dense row blocks;
    * ``_row_range(rank)``       -- the global rows a rank owns;
    * ``_forward_spmm(blocks, f, key)`` / ``_backward_spmm(blocks, f,
      key)`` -- charged distributed ``A^T X`` / ``A X`` sweeps whose
      results live in workspaces named by ``key``;
    * ``_replicated_allreduce(values)`` -- the sum that leaves every
      rank with an identical copy, run once per epoch, on the ranks'
      gradient buckets (:func:`repro.dist.base.bucket_bounds`: the loss
      pair and every layer's weight-gradient partial);
    * ``_assemble(blocks)``      -- uncharged full-matrix read-out;
    * ``_pre_backward()``        -- optional per-epoch charge hook
      (the 1D transpose variant's exchange).
    """

    def _row_range(self, rank: int) -> Tuple[int, int]:
        raise NotImplementedError

    def _rows_of(self, rank: int) -> int:
        """Dense rows ``rank`` holds -- structure, hence backend-global."""
        lo, hi = self._row_range(rank)
        return hi - lo

    @property
    def _local_block_ranks(self) -> Tuple[int, ...]:
        """The locally-held block ranks (all of them on the virtual
        backend) -- the data loops iterate these; charges stay global."""
        return self._local(self._block_ranks)

    def _forward_spmm(self, blocks, f: int, key):
        raise NotImplementedError

    def _backward_spmm(self, blocks, f: int, key):
        raise NotImplementedError

    def _replicated_allreduce(self, values):
        raise NotImplementedError

    def _assemble(self, blocks) -> np.ndarray:
        raise NotImplementedError

    def _pre_backward(self) -> None:
        """Per-epoch charges before the backward recursion (default none)."""

    def _aggregate(self, h_blocks):
        return self._obs_call("spmm.fwd", "spmm", self._forward_spmm,
                              h_blocks, self.widths[0], ("t", 0))

    def _rows_ws(self, key, r: int, f: int) -> np.ndarray:
        """Rank ``r``'s rows of the ``f``-wide per-layer workspace
        ``key`` (role, layer)."""
        return self._ws((key, r), (self._rows_of(r), f))

    def _pack(self, r: int, block: np.ndarray, at: np.ndarray,
              f: int) -> np.ndarray:
        """The rows at positions ``at`` of rank ``r``'s ``f``-wide
        ``block``, what a sweep ships of it: the block itself when that
        is every row, else a copy packed into a reused workspace (both
        channels copy a payload when it is posted, so the next sweep
        may repack it)."""
        if at.size == block.shape[0]:
            return block
        # mode="clip": an explicit ``out`` is written in place (the
        # default "raise" buffers it); every position is in range.
        return np.take(block, at, axis=0, mode="clip",
                       out=self._ws(("pack", r, f), (at.size, f)))

    @staticmethod
    def _place(dst: np.ndarray, rows: np.ndarray, span: Tuple[int, int],
               packed: np.ndarray) -> None:
        """Write the ``packed`` rows of a block spanning rows ``span`` of
        ``dst`` to their rows ``rows`` (a slice copy when they are the
        whole block)."""
        lo, hi = span
        if not rows.size:
            return
        if rows.size == hi - lo:
            dst[lo:hi] = packed
        else:
            dst[rows] = packed

    def _into(self, key, blocks, f: int, kernel):
        """``kernel(block, out)`` once per distinct block of ``blocks``
        (1.5D replicas share one), ``out`` the :meth:`_rows_ws` buffer
        ``key`` of the first rank holding it."""
        return self._dedup(
            blocks, lambda r: id(blocks[r]),
            lambda r: kernel(blocks[r], self._rows_ws(key, r, f)))

    # ------------------------------------------------------------------ #
    def _charge_rows_gemm(self, key, flops_per_row: float) -> None:
        """Charge a GEMM over every block rank at ``rows x flops/row``.

        Built from block structure (``_rows_of``), not from the data
        dicts -- a multiprocess worker holds only its own ranks' blocks
        but must still replay the full world's charges.
        """
        self._charge_kernel(
            "gemm", key,
            lambda: ((r, self._rows_of(r) * flops_per_row)
                     for r in self._block_ranks),
        )

    def _charge_rows_elementwise(self, key, bytes_per_row: float) -> None:
        """Structural elementwise charge over every block rank."""
        self._charge_kernel(
            "elementwise", key,
            lambda: ((r, self._rows_of(r) * bytes_per_row)
                     for r in self._block_ranks),
        )

    def _forward_layers(self):
        """Shared forward sweep from the kept ``T^0``; returns output
        blocks + per-layer caches.

        Local kernels run through :meth:`_into`: replicated layouts
        (1.5D) hand every fiber replica the same buffer, so the identical
        replica compute executes once while every rank is still charged.
        """
        caches = []
        last = self.model.num_layers - 1
        h_blocks = self._t0
        for l, layer in enumerate(self.model.layers):
            f_in, f_out = layer.f_in, layer.f_out
            weight = layer.weight
            project_first = sweep_order(f_in, f_out, l == 0).project_fwd
            # "x" is Equation 3's left operand: T = A^T H^{l-1}, or
            # H^{l-1} itself where W goes first (layer 1: the kept T^0).
            x_blocks = h_blocks
            if l > 0 and not project_first:
                x_blocks = self._obs_call(
                    "spmm.fwd", "spmm", self._forward_spmm, h_blocks, f_in,
                    ("t", l),
                )
            z_blocks = self._into(
                ("hw" if project_first else "z", l), x_blocks, f_out,
                lambda x, out: forward_gemm(x, weight, out=out),
            )
            self._charge_rows_gemm(("cbg", l), 2.0 * f_in * f_out)
            if project_first:
                z_blocks = self._obs_call(
                    "spmm.fwd", "spmm", self._forward_spmm, z_blocks, f_out,
                    ("z", l),
                )
            # Rows are complete locally, so even log_softmax is local.
            if l < last:
                h_blocks = self._into(("h", l), z_blocks, f_out,
                                      layer.activation.forward)
            else:
                h_blocks = self._map_blocks(z_blocks, layer.activation.forward)
            self._charge_rows_elementwise(("cbf", l), 2.0 * f_out * self.WB)
            caches.append({"x": x_blocks, "z": z_blocks})
        return h_blocks, caches

    def _forward_pass(self) -> np.ndarray:
        out_blocks, _ = self._forward_layers()
        return self._assemble(out_blocks)

    def _run_epoch(self) -> Tuple[float, float]:
        out_blocks, caches = self._forward_layers()
        self._set_epoch_output(out_blocks)
        f_last = self.widths[-1]
        ranks = self._local_block_ranks

        # ---- loss terms: the head of each rank's gradient bucket ----
        # 1.5D's fiber replicas hold one buffer per block all epoch, so
        # they share one bucket, the first replica's.
        owner = self._dedup(ranks, lambda r: id(out_blocks[r]), lambda r: r)
        heads = tuple(dict.fromkeys(owner.values()))
        for r in heads:
            self._bucket_slot(self._bucket(r))[:] = self._masked_loss_terms(
                *self._row_range(r), out_blocks[r])

        # ---- backward ----
        z_last = caches[-1]["z"]

        def grad_out(r: int) -> np.ndarray:
            lo, hi = self._row_range(r)
            return self.logsm.backward(
                z_last[r], self._grad_out_rows(lo, hi, f_last)
            )

        g_blocks = self._dedup(ranks, lambda r: id(z_last[r]), grad_out)
        self._charge_rows_elementwise(("cbe-out",), 3.0 * f_last * self.WB)
        self._pre_backward()

        for l in range(self.model.num_layers - 1, -1, -1):
            layer = self.model.layers[l]
            f_in, f_out = layer.f_in, layer.f_out
            order = sweep_order(f_in, f_out, l == 0)
            if l > 0 and not order.project_bwd:
                # A G^l, for Equation 2 below; layer 1 has no G^0 to form.
                ag_blocks = self._obs_call(
                    "spmm.bwd", "spmm", self._backward_spmm, g_blocks, f_out,
                    ("ag", l),
                )
            # Y^l's partial X_i^T G_i (X = H^{l-1}, G = A G^l where W
            # went first), into its slot of the rank's bucket.
            x_l = caches[l]["x"]
            y_blocks = ag_blocks if order.project_fwd else g_blocks
            for r in heads:
                weight_gradient(x_l[r], y_blocks[r],
                                out=self._bucket_slot(self._bucket(r), l))
            self._charge_rows_gemm(("cbw", l), 2.0 * f_in * f_out)
            if l > 0:
                weight = layer.weight
                gh_blocks = self._into(
                    ("gh", l), g_blocks if order.project_bwd else ag_blocks,
                    f_in, lambda g, out: hidden_gradient(g, weight, out=out),
                )
                self._charge_rows_gemm(("cbh", l), 2.0 * f_out * f_in)
                if order.project_bwd:
                    gh_blocks = self._obs_call(
                        "spmm.bwd", "spmm", self._backward_spmm, gh_blocks,
                        f_in, ("agh", l),
                    )
                z_prev = caches[l - 1]["z"]
                backward = self.model.layers[l - 1].activation.backward
                # sigma' runs in place in the hidden-gradient buffer, or,
                # after a sweep (which may hand back collective receipts),
                # into a buffer of its own.
                g_blocks = self._dedup(
                    ranks,
                    lambda r: (id(z_prev[r]), id(gh_blocks[r])),
                    lambda r: backward(
                        z_prev[r], gh_blocks[r],
                        out=(self._rows_ws(("g", l), r, f_in)
                             if order.project_bwd else gh_blocks[r])),
                )
                self._charge_rows_elementwise(("cbb", l), 3.0 * f_in * self.WB)
        # ---- one replicated all-reduce: the loss pair and every Y^l ----
        total = self._replicated_allreduce(
            {r: self._bucket(owner[r]) for r in ranks})
        return self._step_from_bucket(next(iter(total.values())))
