"""Empirical SpMM performance model: sparsity and skinny-operand penalties.

Section VI-a of the paper explains why local SpMM fails to scale in the 2D
algorithm, citing Yang et al. [33]:

1. **Hypersparsity** -- "when the average number of nonzeros per row (i.e.,
   degree, d = nnz/n) goes down from 62 to 8, the sustained GFlops rates
   are cut by a factor of 3" for cuSPARSE's ``csrmm2``.  2D partitioning
   reduces each block's average degree by a factor of sqrt(P).
2. **Skinny dense operands** -- the dense activations are also 2D
   partitioned, so local column counts shrink by sqrt(P); "the performance
   degradation at this extremely skinny regime is also well documented"
   (Aktulga et al. [2]).

We model the sustained rate as::

    rate(d, f) = base * d / (d + D_HALF) * f / (f + W_HALF)

two saturating half-rate curves.  ``D_HALF`` is calibrated so the 62 -> 8
degree drop cuts the rate by exactly 3x (the figure the paper quotes), and
``W_HALF = 8.0`` puts heavy penalty below ~16 columns, mild above 64 --
matching the paper's example of the middle layer going from 16 columns at
p=1 to 2 columns at p=64.

These two factors multiply ("These two factors have a multiplicative
detrimental impact on the local SpMM performance"), which is exactly how
the model composes them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.cost_model import Sizes, Values, plain, whole
from repro.config import MachineProfile

__all__ = [
    "SpmmPerfModel",
    "D_HALF",
    "W_HALF",
    "density_factor",
    "width_factor",
]

#: Half-rate average degree.  Solves rate(62)/rate(8) = 3:
#: 62(8+c) = 24(62+c)  =>  c = 992/38.
D_HALF = 992.0 / 38.0

#: Half-rate dense-operand width (columns).
W_HALF = 8.0


def _saturating(x: Sizes, half: float) -> Values:
    """``x / (x + half)``, zero for ``x <= 0``."""
    positive = np.maximum(x, 0.0)
    return positive / (positive + half)


def density_factor(avg_degree: Sizes, d_half: float = D_HALF) -> Values:
    """Throughput multiplier from row density (0 < factor < 1)."""
    return _saturating(avg_degree, d_half)


def width_factor(ncols_dense: Sizes, w_half: float = W_HALF) -> Values:
    """Throughput multiplier from dense-operand width (0 < factor < 1)."""
    return _saturating(ncols_dense, w_half)


@dataclass(frozen=True)
class SpmmPerfModel:
    """Time model for one local SpMM call.

    ``seconds(nnz, nrows, f)`` charges ``2*nnz*f`` flops at the degraded
    sustained rate plus a fixed kernel-launch overhead -- the overhead is
    what makes tiny hypersparse kernels latency-bound, mirroring the
    paper's observation that sub-millisecond broadcasts/kernels stop
    scaling.  It is the SpMM rule of the price list
    (:mod:`repro.comm.cost_model`): like every rule there it prices one
    kernel or an ndarray of kernels with the same arithmetic.
    """

    base_flops: float
    launch_overhead: float
    d_half: float = D_HALF
    w_half: float = W_HALF

    @classmethod
    def from_profile(cls, profile: MachineProfile) -> "SpmmPerfModel":
        return cls(
            base_flops=profile.spmm_base_flops,
            launch_overhead=profile.kernel_launch_overhead,
        )

    def sustained_flops(self, avg_degree: Sizes,
                        ncols_dense: Sizes) -> Values:
        """Sustained FLOP/s for a block with the given shape statistics."""
        return (
            self.base_flops
            * density_factor(avg_degree, self.d_half)
            * width_factor(ncols_dense, self.w_half)
        )

    def seconds(self, nnz: Sizes, nrows: Sizes,
                ncols_dense: Sizes) -> Values:
        """Modeled time of ``A_block @ B_block`` (CSR x dense).

        Dimensions are whole counts (fractional expected values truncate
        like the executed path's ``int()``); an empty kernel costs its
        launch.  Scalars in, a Python float out; ndarrays in, one entry
        per kernel.
        """
        z, rows, f = whole(nnz), whole(nrows), whole(ncols_dense)
        flops = 2.0 * z * f
        with np.errstate(divide="ignore", invalid="ignore"):
            busy = flops / self.sustained_flops(
                z / np.maximum(rows, 1.0), f)
        return plain(np.where(flops == 0, 0.0, busy) + self.launch_overhead)

    def speedup_vs(self, other_degree: float, my_degree: float,
                   ncols: float) -> float:
        """Ratio of sustained rates at two degrees (fixed width).

        ``speedup_vs(8, 62, f)`` returns ~3.0 by calibration.
        """
        return self.sustained_flops(my_degree, ncols) / self.sustained_flops(
            other_degree, ncols
        )
