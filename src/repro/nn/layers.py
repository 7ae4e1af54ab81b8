"""GCN layer: the paper's forward and backward equations, serially.

Forward (Section III-C)::

    Z^l = A^T H^{l-1} W^l
    H^l = sigma(Z^l)

Backward (Section III-D)::

    G^L     = grad_{H^L} L  (.)  sigma'(Z^L)                (Equation 1)
    G^{l-1} = A G^l (W^l)^T  (.)  sigma'(Z^{l-1})           (Equation 2)
    Y^l     = (A^T H^{l-1})^T G^l = (H^{l-1})^T (A G^l)     (Equation 3)

Matrix products associate: ``A^T (H W) = (A^T H) W`` and ``A (G W^T) =
(A G) W^T``.  So the width a layer's two aggregations (SpMM sweeps, and
in the distributed algorithms the exchanges that feed them) run at is a
choice, and :func:`sweep_order` makes it once for everyone -- this
module's serial layer, both shared distributed epochs
(:mod:`repro.dist.blockrow`, :mod:`repro.dist.grid`) and both shared
schedule emitters (:mod:`repro.simulate.schedule`): **the narrow side,
``min(f^{l-1}, f^l)``**, each way.

* A *shrinking* layer (``f^l < f^{l-1}``) multiplies by ``W`` before
  aggregating, ``Z = A^T (H W)``, and caches ``H^{l-1}`` instead of the
  aggregate.  Backward it forms ``A G^l`` at ``f^l`` and takes Equation
  3's **second** form from it, ``Y = (H^{l-1})^T (A G^l)`` -- the paper's
  own "reuse the intermediate product AG^l that we computed in the
  previous equation" -- which needs no ``A^T H`` at the wide width.
* A *growing* layer (``f^{l-1} < f^l``) aggregates first, caches ``T =
  A^T H^{l-1}`` and takes Equation 3's **first** form, ``Y = T^T G^l``;
  backward it multiplies by ``W^T`` before aggregating, ``G^{l-1} = A
  (G^l W^T)``, so ``A G^l`` at the wide width is never formed.
* *Equal* widths: first form, aggregate first both ways.

The first layer is outside the rule.  Its input is the data, so ``T^0 =
A^T H^0`` is the same every epoch (the distributed trainers aggregate it
once per feature matrix, at set-up) and there is no ``G^0`` to
aggregate: it always takes the first form, whatever its shape.  Serial
and distributed share the per-layer form, which is what keeps them
bit-close.

One level down, :func:`funnel_reduces` applies the same rule to the 2D /
3D replicated-``W`` products (:mod:`repro.dist.grid`, and its emitter
:func:`repro.simulate.schedule.emit_grid_epoch`): each moves
``min(f_in, f_out)`` columns along its row group.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.nn.activations import Activation, ReLU
from repro.obs import profile as _profile
from repro.sparse.csr import CSRMatrix
from repro.sparse.spmm import spmm

__all__ = [
    "GCNLayer",
    "LayerCache",
    "SweepOrder",
    "check_widths",
    "funnel_reduces",
    "sweep_order",
    "sweep_widths",
    "forward_gemm",
    "weight_gradient",
    "hidden_gradient",
]


def check_widths(widths: Sequence[int]) -> Tuple[int, ...]:
    """The layer widths ``(f^0, ..., f^L)`` as a tuple of ints, or
    ``ValueError``: at least two of them, every one an integer >= 1.

    The one validation every entry point shares -- the serial model, the
    distributed trainers, the simulator and the CLI's ``--hidden`` --
    so a zero, negative or fractional width is refused with one message,
    before any rank or schedule is built.
    """
    widths = tuple(widths)
    if len(widths) < 2 or not all(
            isinstance(w, Integral) and w >= 1 for w in widths):
        raise ValueError(
            "layer widths must be two or more integers >= 1 "
            f"(f^0, ..., f^L), got {widths}")
    return tuple(int(w) for w in widths)


class SweepOrder(NamedTuple):
    """Which product each direction of a layer forms first."""

    #: forward ``Z = A^T (H W)``: the GEMM, then the sweep at ``f_out``
    #: (else ``Z = (A^T H) W``: the sweep at ``f_in``, then the GEMM)
    project_fwd: bool
    #: backward ``A (G W^T)``: the GEMM, then the sweep at ``f_in``
    #: (else ``(A G) W^T``: the sweep at ``f_out``, then the GEMM)
    project_bwd: bool


def sweep_order(f_in: int, f_out: int,
                input_layer: bool = False) -> SweepOrder:
    """The rule (module docstring): each sweep of a layer runs at the
    narrow side of its ``f_in x f_out`` weight; the input layer and
    equal widths aggregate first."""
    if input_layer:
        return SweepOrder(False, False)
    return SweepOrder(f_out < f_in, f_in < f_out)


def funnel_reduces(f_in: int, f_out: int, input_layer: bool = False) -> bool:
    """The rule one level down, for a replicated-``W`` product ``X W``
    whose ``X`` (``f_in`` wide) has its columns split across a row group.

    Where the output is narrower, each rank multiplies its own column
    block by its rows of ``W`` and the row group reduce-scatters the
    ``f_out``-wide partials; otherwise ``X``'s column blocks are
    all-gathered along the row group.  Either way ``min(f_in, f_out)``
    columns travel.
    The input layer's products run from stages gathered once at set-up,
    so it is outside the rule, like in :func:`sweep_order`.
    """
    return not input_layer and f_out < f_in


def sweep_widths(widths: Sequence[int]) -> Tuple[Tuple[int, ...],
                                                 Tuple[int, ...]]:
    """``(forward, backward)`` sweep widths of an epoch, one entry per
    layer above the first (which has no sweep in the epoch) -- what
    :func:`sweep_order` makes of ``widths``."""
    fwd, bwd = [], []
    for f_in, f_out in zip(widths[1:-1], widths[2:]):
        order = sweep_order(f_in, f_out)
        fwd.append(f_out if order.project_fwd else f_in)
        bwd.append(f_in if order.project_bwd else f_out)
    return tuple(fwd), tuple(bwd)


def forward_gemm(t: np.ndarray, weight: np.ndarray,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """``T W`` -- the forward GEMM, on ``T = A^T H^{l-1}`` (giving
    ``Z``) or, where the layer shrinks, on ``H^{l-1}`` itself.

    Shared by the serial layer and the distributed algorithms (which call
    it on local row blocks against the replicated ``W``), so both
    paths run the identical kernel -- the precondition for the paper's
    bit-close serial-vs-parallel verification.  ``out`` receives the
    product (a distributed epoch's per-layer workspace); the BLAS call is
    the one ``@`` makes, so the bits are too.
    """
    prof = _profile.ACTIVE
    if prof is None:
        return np.matmul(t, weight, out=out)
    t0 = prof.clock()
    z = np.matmul(t, weight, out=out)
    m, k = t.shape
    prof.add("gemm.forward", prof.clock() - t0,
             2 * m * k * weight.shape[1],
             t.nbytes + weight.nbytes + z.nbytes)
    return z


def weight_gradient(t: np.ndarray, g: np.ndarray,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """``Y^l = T^T G`` (Equation 3) -- the weight gradient, from
    ``(A^T H^{l-1}, G^l)`` or ``(H^{l-1}, A G^l)``.

    Distributed algorithms apply it to row blocks and sum the partial
    products with an all-reduce; ``out`` receives a partial (its slot of
    the rank's gradient bucket), as in :func:`forward_gemm`.
    """
    prof = _profile.ACTIVE
    if prof is None:
        return np.matmul(t.T, g, out=out)
    t0 = prof.clock()
    y = np.matmul(t.T, g, out=out)
    m, k = t.shape
    prof.add("gemm.wgrad", prof.clock() - t0, 2 * m * k * g.shape[1],
             t.nbytes + g.nbytes + y.nbytes)
    return y


def hidden_gradient(ag: np.ndarray, weight: np.ndarray,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """``X (W^l)^T`` for ``X = A G^l`` or, where the layer grows,
    ``G^l`` itself (Equation 2, before the sigma' Hadamard); ``out`` as
    in :func:`forward_gemm`."""
    prof = _profile.ACTIVE
    if prof is None:
        return np.matmul(ag, weight.T, out=out)
    t0 = prof.clock()
    h = np.matmul(ag, weight.T, out=out)
    m, n = ag.shape
    prof.add("gemm.hgrad", prof.clock() - t0, 2 * m * n * weight.shape[0],
             ag.nbytes + weight.nbytes + h.nbytes)
    return h


@dataclass
class LayerCache:
    """Intermediates one layer keeps from forward for use in backward."""

    h_in: np.ndarray            # H^{l-1}
    z: np.ndarray               # Z^l = A^T H^{l-1} W^l
    t: Optional[np.ndarray]     # T = A^T H^{l-1} (Equation 3's first
    #                             form); None where W was applied first


class GCNLayer:
    """One graph-convolution layer with explicit gradients.

    Holds the trainable ``W`` (``f_in x f_out``) and the activation.  The
    adjacency operands are passed per call so the same layer object works
    for directed (distinct ``A``, ``A^T``) and undirected graphs.
    ``input_layer`` marks the layer fed by the data, which
    :func:`sweep_order` never reorders.
    """

    def __init__(self, weight: np.ndarray,
                 activation: Optional[Activation] = None,
                 input_layer: bool = False):
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 2:
            raise ValueError(f"weight must be 2D, got shape {weight.shape}")
        self.weight = weight
        self.activation = activation if activation is not None else ReLU()
        self.input_layer = input_layer

    @property
    def f_in(self) -> int:
        return self.weight.shape[0]

    @property
    def f_out(self) -> int:
        return self.weight.shape[1]

    @property
    def order(self) -> SweepOrder:
        return sweep_order(self.f_in, self.f_out, self.input_layer)

    def forward(
        self, a_t: CSRMatrix, h_in: np.ndarray
    ) -> Tuple[np.ndarray, LayerCache]:
        """``H^l = sigma(A^T H^{l-1} W^l)``; returns activations + cache."""
        if h_in.shape[1] != self.f_in:
            raise ValueError(
                f"input width {h_in.shape[1]} != layer f_in {self.f_in}"
            )
        if self.order.project_fwd:
            t = None
            z = spmm(a_t, forward_gemm(h_in, self.weight))  # A^T (H W)
        else:
            t = spmm(a_t, h_in)               # A^T H^{l-1}  (the SpMM)
            z = forward_gemm(t, self.weight)  # (A^T H^{l-1}) W^l  (the GEMM)
        h_out = self.activation.forward(z)
        return h_out, LayerCache(h_in=h_in, z=z, t=t)

    def backward(
        self, a: CSRMatrix, cache: LayerCache, grad_h: np.ndarray,
        need_input_grad: bool = True,
    ) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
        """Equations 1-3 for this layer.

        Given ``dL/dH^l``, returns ``(grad_h_in, grad_w, g)`` where
        ``grad_h_in = dL/dH^{l-1}`` (the upstream gradient for the next
        layer down), ``grad_w = Y^l = dL/dW^l``, and ``g = G^l = dL/dZ^l``.
        ``need_input_grad=False`` skips Equation 2 and returns ``None``
        for ``grad_h_in`` -- the first layer's case.  ``grad_h_in`` is
        Equation 2 before the ``sigma'(Z^{l-1})`` Hadamard, which the
        *previous* layer applies.
        """
        g = self.activation.backward(cache.z, grad_h)      # G^l (Eq. 1 shape)
        if cache.t is None:
            ag = spmm(a, g)                                # A G^l, narrow
            grad_w = weight_gradient(cache.h_in, ag)       # Y^l (Eq. 3, 2nd)
            if not need_input_grad:
                return None, grad_w, g
            return hidden_gradient(ag, self.weight), grad_w, g
        grad_w = weight_gradient(cache.t, g)               # Y^l (Eq. 3, 1st)
        if not need_input_grad:
            return None, grad_w, g
        if self.order.project_bwd:
            grad_h_in = spmm(a, hidden_gradient(g, self.weight))  # A (G W^T)
        else:
            grad_h_in = hidden_gradient(spmm(a, g), self.weight)  # (A G) W^T
        return grad_h_in, grad_w, g
