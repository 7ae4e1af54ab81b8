"""The block-row family's shared epoch (1D and 1.5D).

:class:`BlockRowAlgorithm` is the program both algorithms run on top of
:class:`repro.dist.base.DistAlgorithm`; the ``algo_1d`` / ``algo_15d``
modules supply only the data movement that realises the SpMM.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.dist.base import DistAlgorithm
from repro.nn.layers import (forward_gemm, hidden_gradient, sweep_order,
                             weight_gradient)

__all__ = ["BlockRowAlgorithm"]


class BlockRowAlgorithm(DistAlgorithm):
    """The block-row family's shared epoch (1D and 1.5D).

    Both algorithms keep complete dense rows on every rank, so their
    forward sweep, loss reduction, and backward recursion are the same
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
    Subclasses provide:

    * ``_block_ranks``           -- the ranks holding dense row blocks;
    * ``_row_range(rank)``       -- the global rows a rank owns;
    * ``_forward_spmm(blocks, f)``  / ``_backward_spmm(blocks, f)``
      -- charged distributed ``A^T X`` / ``A X`` sweeps;
    * ``_replicated_allreduce(values)`` -- the sum that leaves every
      rank with an identical copy (loss terms, weight gradients);
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

    def _forward_spmm(self, blocks, f: int):
        raise NotImplementedError

    def _backward_spmm(self, blocks, f: int):
        raise NotImplementedError

    def _replicated_allreduce(self, values):
        raise NotImplementedError

    def _assemble(self, blocks) -> np.ndarray:
        raise NotImplementedError

    def _pre_backward(self) -> None:
        """Per-epoch charges before the backward recursion (default none)."""

    def _aggregate(self, h_blocks):
        return self._obs_call("spmm.fwd", "spmm", self._forward_spmm,
                              h_blocks, self.widths[0])

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

        Local kernels run through :meth:`_map_blocks`: replicated layouts
        (1.5D) hand every fiber replica the same buffer, so the identical
        replica compute executes once while every rank is still charged.
        """
        caches = []
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
                    "spmm.fwd", "spmm", self._forward_spmm, h_blocks, f_in
                )
            z_blocks = self._map_blocks(
                x_blocks, lambda x: forward_gemm(x, weight)
            )
            self._charge_rows_gemm(("cbg", l), 2.0 * f_in * f_out)
            if project_first:
                z_blocks = self._obs_call(
                    "spmm.fwd", "spmm", self._forward_spmm, z_blocks, f_out
                )
            # Rows are complete locally, so even log_softmax is local.
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

        # ---- loss: one scalar-sized replicated all-reduce ----
        terms = self._dedup(
            ranks,
            lambda r: id(out_blocks[r]),
            lambda r: self._masked_loss_terms(*self._row_range(r),
                                              out_blocks[r]),
        )
        totals = self._replicated_allreduce(terms)
        loss, acc = self._finish_loss(next(iter(totals.values())))

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

        grads: List[Optional[np.ndarray]] = [None] * self.model.num_layers
        for l in range(self.model.num_layers - 1, -1, -1):
            layer = self.model.layers[l]
            f_in, f_out = layer.f_in, layer.f_out
            order = sweep_order(f_in, f_out, l == 0)
            if l > 0 and not order.project_bwd:
                # A G^l, for Equation 2 below; layer 1 has no G^0 to form.
                ag_blocks = self._obs_call(
                    "spmm.bwd", "spmm", self._backward_spmm, g_blocks, f_out
                )
            # Y^l = sum_i X_i^T G_i (X = H^{l-1}, G = A G^l where W went
            # first), all-reduced so W's update is replicated.
            x_l = caches[l]["x"]
            y_blocks = ag_blocks if order.project_fwd else g_blocks
            partials = self._dedup(
                ranks,
                lambda r: (id(x_l[r]), id(y_blocks[r])),
                lambda r: weight_gradient(x_l[r], y_blocks[r]),
            )
            self._charge_rows_gemm(("cbw", l), 2.0 * f_in * f_out)
            y = self._replicated_allreduce(partials)
            grads[l] = next(iter(y.values()))
            if l > 0:
                weight = layer.weight
                gh_blocks = self._map_blocks(
                    g_blocks if order.project_bwd else ag_blocks,
                    lambda g: hidden_gradient(g, weight),
                )
                self._charge_rows_gemm(("cbh", l), 2.0 * f_out * f_in)
                if order.project_bwd:
                    gh_blocks = self._obs_call(
                        "spmm.bwd", "spmm", self._backward_spmm, gh_blocks,
                        f_in,
                    )
                z_prev = caches[l - 1]["z"]
                backward = self.model.layers[l - 1].activation.backward
                g_blocks = self._dedup(
                    ranks,
                    lambda r: (id(z_prev[r]), id(gh_blocks[r])),
                    lambda r: backward(z_prev[r], gh_blocks[r]),
                )
                self._charge_rows_elementwise(("cbb", l), 3.0 * f_in * self.WB)
        self.optimizer.step(self.model.weights, grads)
        return loss, acc
