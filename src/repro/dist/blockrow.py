"""The block-row family's shared epoch (1D and 1.5D).

:class:`BlockRowAlgorithm` is the program both algorithms run on top of
:class:`repro.dist.base.DistAlgorithm`; the ``algo_1d`` / ``algo_15d``
modules supply only the data movement that realises the SpMM.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.dist.base import DistAlgorithm
from repro.nn.layers import forward_gemm, hidden_gradient, weight_gradient

__all__ = ["BlockRowAlgorithm"]


class BlockRowAlgorithm(DistAlgorithm):
    """The block-row family's shared epoch (1D and 1.5D).

    Both algorithms keep complete dense rows on every rank, so their
    forward sweep, loss reduction, and backward recursion are the same
    program; they differ only in *which collective* realises the SpMM
    and which group replicates scalars/gradients.

    An epoch runs ``L - 1`` SpMM sweeps each way.  Forward, layer 1
    starts from ``T^0 = A^T H^0``, aggregated once per feature matrix at
    set-up (:meth:`DistAlgorithm._install_features`).  Backward, the
    weight gradient is Equation 3's first form, ``Y^l = (T^{l-1})^T G^l``
    from the cached forward product, so ``A G^l`` is formed only for
    Equation 2's ``G^{l-1}`` -- which layer 1 has no use for.
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
        t_blocks = self._t0
        for l, layer in enumerate(self.model.layers):
            f_in, f_out = layer.f_in, layer.f_out
            weight = layer.weight
            if l > 0:
                t_blocks = self._obs_call(
                    "spmm.fwd", "spmm", self._forward_spmm, h_blocks, f_in
                )
            z_blocks = self._map_blocks(
                t_blocks, lambda t: forward_gemm(t, weight)
            )
            self._charge_rows_gemm(("cbg", l), 2.0 * f_in * f_out)
            # Rows are complete locally, so even log_softmax is local.
            h_blocks = self._map_blocks(z_blocks, layer.activation.forward)
            self._charge_rows_elementwise(("cbf", l), 2.0 * f_out * self.WB)
            caches.append({"t": t_blocks, "z": z_blocks})
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
            if l > 0:
                # A G^l, for Equation 2 below; layer 1 has no G^0 to form.
                ag_blocks = self._obs_call(
                    "spmm.bwd", "spmm", self._backward_spmm, g_blocks, f_out
                )
            # Y^l = sum_i T_i^T G_i, all-reduced so W's update is replicated.
            t_l = caches[l]["t"]
            partials = self._dedup(
                ranks,
                lambda r: (id(t_l[r]), id(g_blocks[r])),
                lambda r: weight_gradient(t_l[r], g_blocks[r]),
            )
            self._charge_rows_gemm(("cbw", l), 2.0 * f_in * f_out)
            y = self._replicated_allreduce(partials)
            grads[l] = next(iter(y.values()))
            if l > 0:
                weight = layer.weight
                gh_blocks = self._map_blocks(
                    ag_blocks, lambda ag: hidden_gradient(ag, weight)
                )
                self._charge_rows_gemm(("cbh", l), 2.0 * f_out * f_in)
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
