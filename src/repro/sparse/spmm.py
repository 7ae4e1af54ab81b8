"""SpMM kernels: CSR times tall-skinny dense matrix.

The paper's single most expensive local kernel is SpMM ("sparse matrix
times multiple dense vectors"); the authors call cuSPARSE's ``csrmm2``.
:func:`spmm` plays that role: it always runs scipy's compiled
``csr_matvecs`` kernel on the matrix's cached zero-copy wrapper, an
off-the-shelf optimised library kernel.  One kernel for every call is
what makes the bits independent of placement: which ranks a worker
holds, how wide a received piece is, or whether a block has been
multiplied before never changes which kernel -- hence which summation
order -- produces a product.  ``out=`` writes the product into a buffer
the caller keeps (the distributed epochs' per-layer workspaces), so a
steady-state epoch allocates no ``f``-wide array.

:func:`spmm_numpy` is a pure-numpy segment-sum kernel
(:func:`numpy.add.reduceat` over the expanded products) that defines the
reference semantics; nothing on a training path calls it -- the tests
hold :func:`spmm` to it, to fp round-off.

``spmm_flops`` gives the standard ``2 * nnz * f`` flop count used when
charging compute time.
"""

from __future__ import annotations

import numpy as np

from repro.obs import profile as _profile
from repro.sparse.csr import CSRMatrix

__all__ = [
    "spmm",
    "spmm_bytes",
    "spmm_flops",
    "spmm_numpy",
]


def spmm_flops(a: CSRMatrix, ncols_dense: int) -> int:
    """Flop count of ``A @ B``: one multiply + one add per (nnz, column)."""
    return 2 * a.nnz * int(ncols_dense)


def spmm_bytes(a: CSRMatrix, ncols_dense: int) -> int:
    """Bytes a minimal ``A @ B`` kernel moves: CSR arrays + B read,
    output written once.  The roofline denominator for the kernel
    profiler's arithmetic-intensity summary (cache reuse of ``B`` makes
    the true traffic lower; this is the standard model bound)."""
    f = int(ncols_dense)
    return (a.nnz * 12                     # data (8) + indices (4)
            + (a.shape[0] + 1) * 4         # indptr
            + a.shape[1] * f * 8           # B read
            + a.shape[0] * f * 8)          # out write


def _check_operand(a: CSRMatrix, b: np.ndarray) -> np.ndarray:
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2 or b.shape[0] != a.ncols:
        raise ValueError(f"B shape {b.shape} incompatible with A shape {a.shape}")
    return b


def spmm_numpy(a: CSRMatrix, b: np.ndarray) -> np.ndarray:
    """Reference SpMM: one-pass vectorised segment sums.

    For each row ``i``, ``out[i] = sum_k data[k] * b[indices[k]]`` over
    the row's nnz range.  Consecutive nonempty rows form contiguous
    segments of the expanded product array, and because empty rows repeat
    the next row's start offset, ``np.add.reduceat`` at the nonempty
    starts yields exactly the per-row sums -- no cumsum materialisation,
    no gather of segment endpoints.
    """
    m, _ = a.shape
    b = _check_operand(a, b)
    f = b.shape[1]
    out = np.zeros((m, f), dtype=np.float64)
    if a.nnz == 0:
        return out
    prod = a.data[:, None] * b[a.indices]  # (nnz, f) expanded products
    starts = a.indptr[:-1]
    nonempty = a.indptr[1:] > starts
    out[nonempty] = np.add.reduceat(prod, starts[nonempty], axis=0)
    return out


try:  # the compiled kernel scipy's own __matmul__ dispatches to
    from scipy.sparse import _sparsetools as _st

    _csr_matvecs = _st.csr_matvecs
except (ImportError, AttributeError):  # pragma: no cover - older/newer scipy layouts
    _csr_matvecs = None


def spmm(a: CSRMatrix, b: np.ndarray,
         out: "np.ndarray | None" = None) -> np.ndarray:
    """``A @ B`` for CSR ``A`` and dense ``B``, by the compiled kernel.

    The zero-copy ``scipy.sparse`` wrapper is built once per matrix and
    cached (:meth:`CSRMatrix.to_scipy`); ``csr_matvecs`` is then called
    directly on its arrays, skipping the format checks scipy's ``@``
    repeats on every call.  It is the kernel ``@`` dispatches to, so a
    non-contiguous operand, which takes ``@``, gets the same bits.

    ``out`` (``A.nrows x B.ncols``) receives the product and is returned;
    whatever it held is overwritten.
    """
    prof = _profile.ACTIVE
    if prof is None:
        return _compiled(a, b, out)
    t0 = prof.clock()
    result = _compiled(a, b, out)
    dt = prof.clock() - t0
    f = result.shape[1]
    prof.add("spmm", dt, spmm_flops(a, f), spmm_bytes(a, f),
             a.nnz, a.shape[0], f)
    return result


def _compiled(a: CSRMatrix, b: np.ndarray,
              out: "np.ndarray | None") -> np.ndarray:
    b = _check_operand(a, b)
    m, f = a.shape[0], b.shape[1]
    if out is not None and out.shape != (m, f):
        raise ValueError(f"out shape {out.shape} != result shape {(m, f)}")
    sp = a.to_scipy()
    if _csr_matvecs is None or not b.flags.c_contiguous or (
        out is not None and not out.flags.c_contiguous
    ):
        # The compiled kernel writes through .ravel(), which would be a
        # throwaway copy for non-contiguous buffers -- use scipy's @.
        result = np.asarray(sp @ b)
        if out is None:
            return result
        out[:] = result
        return out
    if out is None:
        out = np.zeros((m, f), dtype=np.float64)
    else:
        out.fill(0.0)  # csr_matvecs accumulates into the output
    _csr_matvecs(m, a.shape[1], f, sp.indptr, sp.indices, sp.data,
                 b.ravel(), out.ravel())
    return out
