"""Activation functions with exact derivatives.

The paper's communication analysis distinguishes **elementwise**
activations (ReLU: no communication, ``H^l`` keeps ``H^{l-1}``'s
distribution) from **row-wise** ones (log_softmax: each process needs its
full row of ``Z``, costing an all-gather along process rows in the 2D/3D
algorithms -- Sections IV-C.2 and IV-D.2).  Each activation therefore
carries an ``elementwise`` flag that the distributed algorithms consult
when deciding whether to communicate.

``backward(z, grad_h)`` returns ``dL/dZ`` given ``dL/dH`` -- the
``∇H ⊙ σ'(Z)`` composition in the paper's Equation 1 (generalised to
non-elementwise σ, where the Jacobian is row-wise rather than diagonal).
:class:`ReLU`, the hidden layers' activation, also takes ``out=``, a
buffer the result is written into (it may be ``z`` or ``grad_h``
itself): the block-row epochs apply it into per-layer workspaces through
the same kernel the serial model calls.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["Activation", "ReLU", "Identity", "LogSoftmax", "get_activation"]


class Activation:
    """Interface: a differentiable map applied to pre-activations ``Z``."""

    name: str = "base"
    #: True when sigma acts entrywise (no communication needed to apply it
    #: to a distributed matrix).
    elementwise: bool = True

    def forward(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, z: np.ndarray, grad_h: np.ndarray) -> np.ndarray:
        """``dL/dZ`` from ``dL/dH`` at pre-activation ``z``."""
        raise NotImplementedError


class ReLU(Activation):
    """``max(0, z)``; subgradient 0 at 0 (the PyTorch convention)."""

    name = "relu"
    elementwise = True

    def forward(self, z: np.ndarray,
                out: Optional[np.ndarray] = None) -> np.ndarray:
        return np.maximum(z, 0.0, out=out)

    def backward(self, z: np.ndarray, grad_h: np.ndarray,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
        """``grad_h`` where ``z > 0``, zero elsewhere -- as a mask
        multiply, about four times faster than ``np.where`` on the
        blocks the epochs pass.  Value-identical to the ``where`` form
        for finite gradients; a masked-out *negative* gradient comes
        back as ``-0.0`` rather than ``0.0``, which compares, sums and
        multiplies like zero, so no loss, weight or ledger digest can
        tell.  (A masked-out ``inf``/``nan`` gradient would give
        ``nan``; training never produces one that it survives.)  The
        serial model and every backend share this one kernel, so the
        bit-equality oracles compare like with like.
        """
        return np.multiply(grad_h, z > 0.0, out=out)


class Identity(Activation):
    """No-op activation (useful for linear layers and tests)."""

    name = "identity"
    elementwise = True

    def forward(self, z: np.ndarray) -> np.ndarray:
        return z

    def backward(self, z: np.ndarray, grad_h: np.ndarray) -> np.ndarray:
        return grad_h


class LogSoftmax(Activation):
    """Row-wise ``log softmax`` -- the paper's output activation.

    NOT elementwise: "the output of log_softmax for a row of Z is only
    dependent on the values within that row" (Section IV-D.2), so a
    row-distributed ``Z`` needs a row all-gather before applying it.
    """

    name = "log_softmax"
    elementwise = False

    def forward(self, z: np.ndarray) -> np.ndarray:
        zmax = z.max(axis=1, keepdims=True)
        shifted = z - zmax
        lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return shifted - lse

    def backward(self, z: np.ndarray, grad_h: np.ndarray) -> np.ndarray:
        # d log_softmax: dZ = dH - softmax(Z) * rowsum(dH)
        p = np.exp(self.forward(z))
        return grad_h - p * grad_h.sum(axis=1, keepdims=True)


_REGISTRY = {a.name: a for a in (ReLU(), Identity(), LogSoftmax())}


def get_activation(name: str) -> Activation:
    """Look up an activation by name (shared stateless instances)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown activation {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
