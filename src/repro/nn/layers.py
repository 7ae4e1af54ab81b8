"""GCN layer: the paper's forward and backward equations, serially.

Forward (Section III-C)::

    Z^l = A^T H^{l-1} W^l
    H^l = sigma(Z^l)

Backward (Section III-D)::

    G^L     = grad_{H^L} L  (.)  sigma'(Z^L)                (Equation 1)
    G^{l-1} = A G^l (W^l)^T  (.)  sigma'(Z^{l-1})           (Equation 2)
    Y^l     = (A^T H^{l-1})^T G^l = (H^{l-1})^T (A G^l)     (Equation 3)

Equation 3 has two forms.  The paper's algorithms use the second: they
"reuse the intermediate product AG^l that we computed in the previous
equation", which needs ``A G^l`` at every layer.  This code uses the
first: the layer caches ``Z^l`` and the SpMM result ``T^{l-1} = A^T
H^{l-1}`` during forward and forms ``Y^l = (T^{l-1})^T G^l`` from the
cache.  ``A G^l`` is then needed only by Equation 2, i.e. only where
there is a ``G^{l-1}`` to compute -- not at layer 1, whose input is the
data (:meth:`GCNLayer.backward`'s ``need_input_grad``).  The serial
model and all four distributed families share this form, which is what
keeps them bit-close.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.nn.activations import Activation, ReLU
from repro.obs import profile as _profile
from repro.sparse.csr import CSRMatrix
from repro.sparse.spmm import spmm

__all__ = [
    "GCNLayer",
    "LayerCache",
    "forward_gemm",
    "weight_gradient",
    "hidden_gradient",
]


def forward_gemm(t: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``Z = T W`` where ``T = A^T H^{l-1}`` -- the forward GEMM.

    Shared by the serial layer and the distributed algorithms (which call
    it on local blocks of ``T`` against the replicated ``W``), so both
    paths run the identical kernel -- the precondition for the paper's
    bit-close serial-vs-parallel verification.
    """
    prof = _profile.ACTIVE
    if prof is None:
        return t @ weight
    t0 = prof.clock()
    z = t @ weight
    m, k = t.shape
    prof.add("gemm.forward", prof.clock() - t0,
             2 * m * k * weight.shape[1],
             t.nbytes + weight.nbytes + z.nbytes)
    return z


def weight_gradient(t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``Y^l = (A^T H^{l-1})^T G^l`` (Equation 3) -- the weight gradient.

    Distributed algorithms apply it to row blocks and sum the partial
    products with an all-reduce.
    """
    prof = _profile.ACTIVE
    if prof is None:
        return t.T @ g
    t0 = prof.clock()
    y = t.T @ g
    m, k = t.shape
    prof.add("gemm.wgrad", prof.clock() - t0, 2 * m * k * g.shape[1],
             t.nbytes + g.nbytes + y.nbytes)
    return y


def hidden_gradient(ag: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``A G^l (W^l)^T`` (Equation 2, before the sigma' Hadamard)."""
    prof = _profile.ACTIVE
    if prof is None:
        return ag @ weight.T
    t0 = prof.clock()
    h = ag @ weight.T
    m, n = ag.shape
    prof.add("gemm.hgrad", prof.clock() - t0, 2 * m * n * weight.shape[0],
             ag.nbytes + weight.nbytes + h.nbytes)
    return h


@dataclass
class LayerCache:
    """Intermediates one layer keeps from forward for use in backward."""

    h_in: np.ndarray       # H^{l-1}
    z: np.ndarray          # Z^l = A^T H^{l-1} W^l
    t: np.ndarray          # T = A^T H^{l-1} (reused in Equation 3)


class GCNLayer:
    """One graph-convolution layer with explicit gradients.

    Holds the trainable ``W`` (``f_in x f_out``) and the activation.  The
    adjacency operands are passed per call so the same layer object works
    for directed (distinct ``A``, ``A^T``) and undirected graphs.
    """

    def __init__(self, weight: np.ndarray, activation: Optional[Activation] = None):
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 2:
            raise ValueError(f"weight must be 2D, got shape {weight.shape}")
        self.weight = weight
        self.activation = activation if activation is not None else ReLU()

    @property
    def f_in(self) -> int:
        return self.weight.shape[0]

    @property
    def f_out(self) -> int:
        return self.weight.shape[1]

    def forward(
        self, a_t: CSRMatrix, h_in: np.ndarray
    ) -> Tuple[np.ndarray, LayerCache]:
        """``H^l = sigma(A^T H^{l-1} W^l)``; returns activations + cache."""
        if h_in.shape[1] != self.f_in:
            raise ValueError(
                f"input width {h_in.shape[1]} != layer f_in {self.f_in}"
            )
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
        ``need_input_grad=False`` skips the ``A G^l`` SpMM and its GEMM
        and returns ``None`` for ``grad_h_in`` -- the first layer's case.
        """
        g = self.activation.backward(cache.z, grad_h)      # G^l (Eq. 1 shape)
        grad_w = weight_gradient(cache.t, g)               # Y^l (Eq. 3)
        if not need_input_grad:
            return None, grad_w, g
        ag = spmm(a, g)                                    # A G^l
        grad_h_in = hidden_gradient(ag, self.weight)       # A G^l (W^l)^T (Eq. 2,
        #                                 before the sigma'(Z^{l-1}) Hadamard,
        #                                 which the *previous* layer applies)
        return grad_h_in, grad_w, g
