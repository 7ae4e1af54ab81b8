"""A from-scratch CSR sparse matrix on numpy arrays.

The paper stores the (normalised) graph adjacency as a sparse matrix and
feeds it to cuSPARSE's ``csrmm2``; CSR (compressed sparse row) is therefore
the canonical storage format for this reproduction.  We implement the
format ourselves -- construction from COO triples with duplicate summing,
transpose, block extraction for 1D/2D/3D distributions, and degree
statistics -- keeping all hot paths vectorised numpy per the HPC guides.

Blocks extracted for distribution report ``nbytes_on_wire`` (data +
indices + indptr) so the collectives layer can charge sparse communication
("scomm" in Fig. 3) at its true serialised size.
"""

from __future__ import annotations

import gc
import types
from typing import Any, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.config import INDEX_BYTES

__all__ = ["CSRMatrix", "SparseShape", "coo_to_csr_arrays",
           "held_csr_bytes", "kernel_index_dtype", "reachable"]

_INT32_MAX = int(np.iinfo(np.int32).max)


def _stable_order(
    keys: Sequence[Tuple[np.ndarray, int]], size: int
) -> np.ndarray:
    """Stable sort permutation of ``size`` entries by integer keys.

    ``keys`` lists ``(key, bound)`` pairs from the *least* to the most
    significant key, every key value in ``[0, bound)``.  This is an LSD
    radix sort on 16-bit digits: numpy's stable argsort is a counting
    radix sort for ``uint16`` (and a comparison sort for anything
    wider), so each digit costs one O(size) pass, and stability of
    every pass makes the composition the unique stable order -- ties
    keep their input order.
    """
    order: Optional[np.ndarray] = None
    for key, bound in keys:
        for shift in range(0, max(bound - 1, 0).bit_length(), 16):
            digits = (key if order is None else key[order]) >> shift
            step = np.argsort(digits.astype(np.uint16), kind="stable")
            order = step if order is None else order[step]
    if order is None:  # every key is constant (or there are no entries)
        order = np.arange(size, dtype=np.int64)
    return order


def _indptr_from_ids(ids: np.ndarray, nsegments: int) -> np.ndarray:
    """CSR row pointer of ``nsegments`` segments from per-entry segment
    ids (any order): count, then cumulative sum."""
    indptr = np.zeros(nsegments + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=nsegments), out=indptr[1:])
    return indptr


def coo_to_csr_arrays(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    shape: Tuple[int, int],
    sum_duplicates: bool = True,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Convert COO triples to CSR ``(indptr, indices, data)``.

    Entries are sorted by (row, col) with a stable radix sort (column
    digits, then row digits: O(nnz) per 16 bits of index), so duplicates
    keep their input order; they are summed in that order (the usual
    semiring-add semantics) unless ``sum_duplicates=False``, in which
    case duplicates raise.
    """
    m, n = shape
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    if not (rows.shape == cols.shape == vals.shape):
        raise ValueError(
            f"COO triple shape mismatch: {rows.shape}, {cols.shape}, {vals.shape}"
        )
    if rows.size:
        if rows.min() < 0 or rows.max() >= m:
            raise ValueError(f"row index out of range for shape {shape}")
        if cols.min() < 0 or cols.max() >= n:
            raise ValueError(f"col index out of range for shape {shape}")
    order = _stable_order(((cols, n), (rows, m)), rows.size)
    rows, cols, vals = rows[order], cols[order], vals[order]
    if rows.size:
        dup = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
        if dup.any():
            if not sum_duplicates:
                raise ValueError("duplicate (row, col) entries present")
            # Segment-sum duplicate runs: `first` marks the first entry of
            # each unique (row, col); bincount adds each run up in order.
            first = np.concatenate(([True], ~dup))
            vals = np.bincount(np.cumsum(first) - 1, weights=vals)
            keep = np.flatnonzero(first)
            rows, cols = rows[keep], cols[keep]
    return _indptr_from_ids(rows, m), cols, vals


def kernel_index_dtype(shape: Tuple[int, int], nnz: int) -> type:
    """The index dtype the compiled SpMM kernel runs a matrix at.

    The one scipy's ``csr_matrix`` takes for the same arrays: int32
    unless a dimension of a non-empty shape or a stored index (at most
    the row pointer's last entry, ``nnz``) exceeds the int32 range.  The
    kernel thus gets the inputs scipy's own ``@`` hands it -- the same
    instantiation, the same bits.
    """
    m, n = shape
    widest = max(nnz, max(m, n) if m and n else 0)
    return np.int32 if widest <= _INT32_MAX else np.int64


class CSRMatrix:
    """Compressed-sparse-row matrix with numpy storage.

    Invariants (checked on construction):

    * ``indptr`` is nondecreasing with ``indptr[0] == 0`` and
      ``indptr[-1] == nnz``;
    * column indices are in range and sorted within each row;
    * ``data`` is float64 and aligned with ``indices``.
    """

    __slots__ = ("shape", "indptr", "indices", "data", "_kernel_index")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        shape: Tuple[int, int],
        check: bool = True,
        validate: Optional[bool] = None,
    ):
        """Build a CSR matrix from its three arrays.

        ``validate=False`` is the trusted fast path for internally
        constructed blocks (``row_slice``/``block`` extraction, the
        1D/2D/3D distribution helpers, SUMMA stage slicing): the arrays
        are adopted verbatim -- no dtype coercion, no invariant checks --
        so block extraction on the distribution hot path costs only the
        slicing itself.  User-facing constructors (`from_coo`,
        ``from_dense``, direct calls) keep full validation by default.
        ``check=False`` (the historical switch) still coerces dtypes but
        skips the invariant checks -- a middle tier for callers whose
        array *contents* are trusted but whose dtypes may vary.
        """
        if validate is False:
            self.shape = shape if type(shape) is tuple else tuple(shape)
            self.indptr = indptr
            self.indices = indices
            self.data = data
            self._kernel_index = None
            return
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        self._kernel_index = None
        if validate or (validate is None and check):
            self._validate()

    def __getstate__(self):
        """Pickle as the four raw fields, dropping the kernel index
        cache -- cross-process shipment (the multiprocess backend sends
        every worker its shard) must not carry a second copy of the
        index arrays, and the cache rebuilds lazily on first use."""
        return (self.shape, self.indptr, self.indices, self.data)

    def __setstate__(self, state) -> None:
        self.shape, self.indptr, self.indices, self.data = state
        self._kernel_index = None

    def _validate(self) -> None:
        m, n = self.shape
        if m < 0 or n < 0:
            raise ValueError(f"invalid shape {self.shape}")
        if self.indptr.shape != (m + 1,):
            raise ValueError(
                f"indptr length {self.indptr.shape} does not match {m} rows"
            )
        if self.indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be nondecreasing")
        nnz = int(self.indptr[-1])
        if self.indices.shape != (nnz,) or self.data.shape != (nnz,):
            raise ValueError(
                f"indices/data length mismatch: expected {nnz}, got "
                f"{self.indices.shape}/{self.data.shape}"
            )
        if nnz and (self.indices.min() < 0 or self.indices.max() >= n):
            raise ValueError(f"column index out of range for {n} columns")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: Tuple[int, int],
        sum_duplicates: bool = True,
    ) -> "CSRMatrix":
        indptr, indices, data = coo_to_csr_arrays(
            rows, cols, vals, shape, sum_duplicates
        )
        return cls(indptr, indices, data, shape, validate=False)

    @classmethod
    def from_dense(cls, dense: np.ndarray, tol: float = 0.0) -> "CSRMatrix":
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError("from_dense expects a 2D array")
        mask = np.abs(dense) > tol
        rows, cols = np.nonzero(mask)
        return cls.from_coo(rows, cols, dense[rows, cols], dense.shape)

    @classmethod
    def eye(cls, n: int, value: float = 1.0) -> "CSRMatrix":
        idx = np.arange(n, dtype=np.int64)
        return cls(
            np.arange(n + 1, dtype=np.int64),
            idx,
            np.full(n, value, dtype=np.float64),
            (n, n),
            validate=False,
        )

    @classmethod
    def zeros(cls, shape: Tuple[int, int]) -> "CSRMatrix":
        return cls(
            np.zeros(shape[0] + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.float64),
            shape,
            validate=False,
        )

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    def nbytes_on_wire(self) -> int:
        """Serialised size: values + column indices + row pointer.

        This is what travels in a sparse broadcast ("scomm"); matches the
        CSR payload a cuSPARSE-based implementation would ship.
        """
        return int(
            self.data.size * self.data.itemsize
            + self.indices.size * INDEX_BYTES
            + self.indptr.size * INDEX_BYTES
        )

    @property
    def density(self) -> float:
        m, n = self.shape
        cells = m * n
        return self.nnz / cells if cells else 0.0

    def row_degrees(self) -> np.ndarray:
        """nnz per row (out-degree for an adjacency matrix)."""
        return np.diff(self.indptr)

    def row_ids(self) -> np.ndarray:
        """Row index of every stored entry (the COO row array)."""
        return np.repeat(
            np.arange(self.nrows, dtype=np.int64), np.diff(self.indptr)
        )

    def col_degrees(self) -> np.ndarray:
        """nnz per column (in-degree)."""
        return np.bincount(self.indices, minlength=self.ncols)

    def average_degree(self) -> float:
        return self.nnz / self.nrows if self.nrows else 0.0

    def empty_row_count(self) -> int:
        """Rows with no nonzeros -- central to the hypersparsity analysis."""
        return int(np.count_nonzero(np.diff(self.indptr) == 0))

    # ------------------------------------------------------------------ #
    # conversions and views
    # ------------------------------------------------------------------ #
    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float64)
        if self.nnz:
            out[self.row_ids(), self.indices] = self.data
        return out

    def kernel_index(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` in :func:`kernel_index_dtype`, built once.

        The compiled SpMM kernel reads these in place of the int64
        arrays: a copy of each (~4 bytes per nonzero at int32, held for
        the matrix's lifetime), none where the dtype already matches.
        CSRMatrix instances are structurally immutable (every operation
        returns a new matrix), and the distributed algorithms multiply
        against the same blocks every SUMMA stage of every epoch -- so
        the pair is cached after the first call, taking per-call
        conversion off the hottest serial SpMM path.
        """
        if self._kernel_index is None:
            dtype = kernel_index_dtype(self.shape, self.nnz)
            self._kernel_index = (np.asarray(self.indptr, dtype=dtype),
                                  np.asarray(self.indices, dtype=dtype))
        return self._kernel_index

    def to_coo(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.row_ids(), self.indices.copy(), self.data.copy()

    def copy(self) -> "CSRMatrix":
        return CSRMatrix(
            self.indptr.copy(), self.indices.copy(), self.data.copy(),
            self.shape, validate=False,
        )

    # ------------------------------------------------------------------ #
    # structural operations
    # ------------------------------------------------------------------ #
    def transpose(self) -> "CSRMatrix":
        """CSR transpose via counting sort -- O(nnz + n)."""
        m, n = self.shape
        if self.nnz == 0:
            return CSRMatrix.zeros((n, m))
        # Stable sort by column gives the transposed rows with original-row
        # (i.e. transposed-column) order preserved within each.
        order = _stable_order(((self.indices, n),), self.nnz)
        return CSRMatrix(
            _indptr_from_ids(self.indices, n), self.row_ids()[order],
            self.data[order], (n, m), validate=False,
        )

    def row_slice(self, r0: int, r1: int) -> "CSRMatrix":
        """Rows ``[r0, r1)`` as a new CSR of shape ``(r1-r0, ncols)``."""
        if not 0 <= r0 <= r1 <= self.nrows:
            raise IndexError(f"row slice [{r0},{r1}) outside {self.nrows} rows")
        lo, hi = int(self.indptr[r0]), int(self.indptr[r1])
        return CSRMatrix(
            self.indptr[r0 : r1 + 1] - lo,
            self.indices[lo:hi].copy(),
            self.data[lo:hi].copy(),
            (r1 - r0, self.ncols),
            validate=False,
        )

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "CSRMatrix":
        """Submatrix ``[r0:r1, c0:c1]`` with **local** (rebased) indices.

        This is the block-extraction primitive the 1D/2D/3D distributions
        use; column indices are shifted by ``-c0`` so the block is a
        self-contained CSR of shape ``(r1-r0, c1-c0)``.
        """
        if not 0 <= c0 <= c1 <= self.ncols:
            raise IndexError(f"col slice [{c0},{c1}) outside {self.ncols} cols")
        rows = self.row_slice(r0, r1)
        keep = (rows.indices >= c0) & (rows.indices < c1)
        if keep.all():
            indices = rows.indices - c0
            data = rows.data
            indptr = rows.indptr
        else:
            # Recount row lengths after dropping out-of-block columns.
            indices = rows.indices[keep] - c0
            data = rows.data[keep]
            indptr = _indptr_from_ids(rows.row_ids()[keep], rows.nrows)
        return CSRMatrix(indptr, indices, data, (r1 - r0, c1 - c0), validate=False)

    def nonempty_columns(self, r0: int = 0,
                         r1: Optional[int] = None) -> np.ndarray:
        """The ascending columns holding a nonzero in rows ``[r0, r1)``
        (every row by default): the dense rows a product reads."""
        r1 = self.nrows if r1 is None else r1
        return np.unique(self.indices[self.indptr[r0]:self.indptr[r1]])

    def compact_columns(self, cols: np.ndarray) -> "CSRMatrix":
        """The block over the ascending columns ``cols`` only (every
        referenced column among them), renumbered ``0 .. len(cols)``.

        The remap is monotone, so every row keeps its nonzero order: a
        product with the rows ``cols`` of a dense operand is bitwise the
        full block's product with all of it.  ``nnz`` and ``nrows`` --
        hence :attr:`nbytes_on_wire` -- are the block's own.
        """
        renumber = np.empty(self.ncols, dtype=np.intp)
        renumber[cols] = np.arange(len(cols))
        return CSRMatrix(self.indptr, renumber[self.indices], self.data,
                         (self.nrows, len(cols)), validate=False)

    def scale_rows(self, scale: np.ndarray) -> "CSRMatrix":
        """Return ``diag(scale) @ self`` (row scaling)."""
        scale = np.asarray(scale, dtype=np.float64)
        if scale.shape != (self.nrows,):
            raise ValueError(f"need {self.nrows} row scales, got {scale.shape}")
        return CSRMatrix(
            self.indptr.copy(),
            self.indices.copy(),
            self.data * scale[self.row_ids()],
            self.shape,
            validate=False,
        )

    def scale_cols(self, scale: np.ndarray) -> "CSRMatrix":
        """Return ``self @ diag(scale)`` (column scaling)."""
        scale = np.asarray(scale, dtype=np.float64)
        if scale.shape != (self.ncols,):
            raise ValueError(f"need {self.ncols} col scales, got {scale.shape}")
        return CSRMatrix(
            self.indptr.copy(),
            self.indices.copy(),
            self.data * scale[self.indices],
            self.shape,
            validate=False,
        )

    def permute(self, perm: np.ndarray) -> "CSRMatrix":
        """Symmetric permutation ``P A P^T`` for a square matrix.

        ``perm[i]`` is the new label of vertex ``i`` -- the "random vertex
        permutation" the paper's 2D/3D algorithms use for load balance.
        """
        if self.nrows != self.ncols:
            raise ValueError("symmetric permutation needs a square matrix")
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (self.nrows,):
            raise ValueError(f"permutation length {perm.shape} != {self.nrows}")
        if np.any(np.sort(perm) != np.arange(self.nrows)):
            raise ValueError("not a permutation of 0..n-1")
        rows, cols, vals = self.to_coo()
        return CSRMatrix.from_coo(
            perm[rows], perm[cols], vals, self.shape, sum_duplicates=False
        )

    # ------------------------------------------------------------------ #
    # comparisons
    # ------------------------------------------------------------------ #
    def allclose(self, other: "CSRMatrix", rtol: float = 1e-10,
                 atol: float = 1e-12) -> bool:
        if self.shape != other.shape:
            return False
        return np.allclose(self.to_dense(), other.to_dense(), rtol=rtol, atol=atol)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.2e})"
        )


class SparseShape:
    """A CSR block's structure without its arrays: what a process that
    does not hold the block reads of it -- the shape, ``nnz`` and
    :attr:`~CSRMatrix.nbytes_on_wire` every ledger charge is sized by
    and, when built with ``columns``, its nonempty columns with their
    nonzero counts, so column slices (:meth:`block`) and their
    :meth:`nonempty_columns` (a SUMMA stage's relay rows) are known too.
    Any use of the values fails: a ``SparseShape`` has none."""

    __slots__ = ("shape", "nnz", "nbytes_on_wire", "_cols", "_ends")

    def __init__(self, shape: Tuple[int, int], nnz: int,
                 nbytes_on_wire: int, cols: Optional[np.ndarray] = None,
                 ends: Optional[np.ndarray] = None):
        self.shape = shape
        self.nnz = nnz
        self.nbytes_on_wire = nbytes_on_wire
        #: the ascending nonempty columns, and per column the nonzeros in
        #: it and every column before it
        self._cols, self._ends = cols, ends

    @classmethod
    def of(cls, block: "CSRMatrix", columns: bool = False) -> "SparseShape":
        cols = ends = None
        if columns:
            cols, counts = np.unique(block.indices, return_counts=True)
            ends = np.cumsum(counts)
        return cls(block.shape, block.nnz, block.nbytes_on_wire, cols, ends)

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    def nonempty_columns(self) -> np.ndarray:
        """:meth:`CSRMatrix.nonempty_columns` over every row."""
        return self._cols

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "SparseShape":
        """The shape of :meth:`CSRMatrix.block` over every row and the
        columns ``[c0, c1)``."""
        if (r0, r1) != (0, self.nrows):
            raise ValueError("a SparseShape slices whole-height column "
                             "ranges only")
        i0, i1 = np.searchsorted(self._cols, (c0, c1))
        before = int(self._ends[i0 - 1]) if i0 else 0
        nnz = (int(self._ends[i1 - 1]) if i1 else 0) - before
        indptr = (self.nrows + 1) * INDEX_BYTES
        per_nonzero = (self.nbytes_on_wire - indptr) // max(self.nnz, 1)
        return SparseShape((self.nrows, c1 - c0), nnz,
                           nnz * per_nonzero + indptr,
                           self._cols[i0:i1] - c0,
                           self._ends[i0:i1] - before)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SparseShape(shape={self.shape}, nnz={self.nnz})"


def reachable(root: Any, kinds: Tuple[type, ...]) -> Iterator[Any]:
    """Every object of the types ``kinds`` reachable from ``root``
    through containers and instance attributes (not through modules,
    classes or code, nor into a found object), each once."""
    skip = (type, types.ModuleType, types.FunctionType, types.MethodType,
            types.BuiltinFunctionType, types.CodeType, str, bytes, int,
            float)
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, kinds):
            yield obj
        elif not isinstance(obj, np.ndarray):
            stack.extend(gc.get_referents(obj))


def held_csr_bytes(root: Any) -> int:
    """Bytes of the ``indptr``, ``indices`` and ``data`` arrays of every
    :class:`CSRMatrix` :func:`reachable` from ``root``, each array once:
    what a process holds of the sparse operand, counted."""
    arrays = {id(arr): arr.nbytes
              for csr in reachable(root, (CSRMatrix,))
              for arr in (csr.indptr, csr.indices, csr.data)}
    return sum(arrays.values())
