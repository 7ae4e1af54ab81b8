"""No process of a run imports the ``scipy.sparse`` package.

:mod:`repro.sparse.spmm` loads scipy's compiled ``_sparsetools``
extension on its own, so the driver, the worker template and every
worker carry numpy and one extension module, not the whole package
around it.  These tests pin:

* after ``import repro``, ``repro.dist`` and ``repro.parallel.backend``,
  a fit and a predict of every family on the virtual runtime and a
  2-worker shm fit and predict, ``scipy.sparse`` is in neither the
  driver's modules nor any worker's (checked in a fresh interpreter:
  pytest itself imports scipy);
* a later ``import scipy.sparse`` reuses the loaded extension, and
  where the extension file cannot be found the package import gives the
  same kernel;
* the kernel's products equal ``scipy.sparse.csr_matrix(...) @ b`` bit
  for bit on the edge shapes, and its index dtype is the one scipy's
  wrapper chose, right at the 2**31 boundary.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.sparse
from scipy.sparse._sputils import get_index_dtype

from repro.sparse.csr import CSRMatrix, kernel_index_dtype
from repro.sparse.spmm import SPARSETOOLS, spmm

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

FOOTPRINT_DRIVER = """
import json
import sys

if __name__ == "__main__":
    import repro
    import repro.dist
    import repro.parallel.backend
    from repro.dist import make_algorithm
    from repro.graph import make_synthetic

    ds = make_synthetic(n=60, avg_degree=4, f=8, n_classes=3, seed=11)
    for name, p, kw in (("1d", 4, {}), ("1.5d", 4, {"replication": 2}),
                        ("2d", 4, {}), ("3d", 8, {})):
        algo = make_algorithm(name, p, ds, hidden=8, seed=0, **kw)
        algo.fit(ds.features, ds.labels, epochs=2)
        algo.predict()
    algo = make_algorithm("1d", 4, ds, hidden=8, seed=0,
                          backend="process", workers=2, transport="shm")
    try:
        algo.fit(ds.features, ds.labels, epochs=2)
        algo.predict()
        workers = algo.rt._backend.command("debug_modules", None)
    finally:
        algo.rt.close()
    driver = sorted(sys.modules)
    kernel = sys.modules["scipy.sparse._sparsetools"]
    import scipy.sparse                          # reuses the extension
    print(json.dumps({
        "driver": driver,
        "workers": workers,
        "reused": sys.modules["scipy.sparse._sparsetools"] is kernel,
    }))
"""

#: The extension file is not where the loader looks: the package import
#: must give the same kernel.
FALLBACK_DRIVER = """
import importlib.machinery
import json
import sys

import numpy as np

importlib.machinery.EXTENSION_SUFFIXES[:] = [".missing"]
from repro.sparse.csr import CSRMatrix
from repro.sparse.spmm import spmm

a = CSRMatrix.from_dense(np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0]]))
print(json.dumps({
    "package": "scipy.sparse" in sys.modules,
    "product": spmm(a, np.arange(6.0).reshape(3, 2)).tolist(),
}))
"""


def _run(tmp_path, source):
    script = tmp_path / "driver.py"
    script.write_text(textwrap.dedent(source))
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _scipy_modules(names):
    return [m for m in names if m.split(".")[0] == "scipy"]


def test_no_process_imports_the_scipy_sparse_package(tmp_path):
    out = _run(tmp_path, FOOTPRINT_DRIVER)
    # the extension alone, registered under its canonical name
    assert _scipy_modules(out["driver"]) == [SPARSETOOLS]
    assert len(out["workers"]) == 2
    for modules in out["workers"]:
        assert _scipy_modules(modules) == [SPARSETOOLS]
    assert out["reused"]


def test_a_missing_extension_file_falls_back_to_the_package(tmp_path):
    out = _run(tmp_path, FALLBACK_DRIVER)
    assert out["package"]
    assert out["product"] == [[8.0, 11.0], [0.0, 0.0]]


# --------------------------------------------------------------------- #
# the kernel is the one scipy's ``@`` runs, on the same index arrays
# --------------------------------------------------------------------- #
def _pair(dense):
    a = CSRMatrix.from_dense(dense)
    return a, scipy.sparse.csr_matrix((a.data, a.indices, a.indptr),
                                      shape=a.shape)


def _dense(m, n, seed, density=0.3):
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((m, n))
    d[rng.random((m, n)) > density] = 0.0
    return d


def test_empty_rows_match_scipy():
    d = _dense(9, 7, 0)
    d[[0, 4, 8]] = 0.0                  # leading, inner and trailing
    a, sp = _pair(d)
    b = np.random.default_rng(1).standard_normal((7, 5))
    np.testing.assert_array_equal(spmm(a, b), sp @ b)


def test_no_nonzeros_matches_scipy():
    a, sp = _pair(np.zeros((4, 6)))
    assert a.nnz == 0
    b = np.random.default_rng(2).standard_normal((6, 3))
    np.testing.assert_array_equal(spmm(a, b), sp @ b)


def test_one_column_matches_scipy():
    a, sp = _pair(_dense(30, 20, 3))
    b = np.random.default_rng(4).standard_normal((20, 1))
    np.testing.assert_array_equal(spmm(a, b), sp @ b)


@pytest.mark.parametrize("layout", ["strided", "fortran"])
def test_non_contiguous_operand_matches_scipy(layout):
    a, sp = _pair(_dense(40, 30, 5))
    b = np.random.default_rng(6).standard_normal((30, 12))
    b = b[:, ::2] if layout == "strided" else np.asfortranarray(b)
    assert not b.flags.c_contiguous
    np.testing.assert_array_equal(spmm(a, b), sp @ b)


def test_non_contiguous_out_matches_scipy():
    a, sp = _pair(_dense(40, 30, 7))
    b = np.random.default_rng(8).standard_normal((30, 6))
    kept = np.full((40, 12), np.nan)
    out = kept[:, ::2]
    assert spmm(a, b, out=out) is out
    np.testing.assert_array_equal(out, sp @ b)
    assert np.isnan(kept[:, 1::2]).all()     # nothing beside it written


# --------------------------------------------------------------------- #
# the index dtype: scipy's wrapper's rule, at the 2**31 boundary
# --------------------------------------------------------------------- #
EDGE = 2 ** 31


@pytest.mark.parametrize("shape,nnz", [
    ((1, EDGE - 1), 1), ((1, EDGE), 1),
    ((EDGE - 1, 1), 1), ((EDGE, 1), 1),
    ((5, 5), EDGE - 1), ((5, 5), EDGE),
    ((0, EDGE), 0), ((EDGE, 0), 0), ((0, 0), 0),
])
def test_index_dtype_is_scipys_choice(shape, nnz):
    """The arguments ``csr_matrix((data, indices, indptr), shape)`` hands
    ``get_index_dtype``, on stand-ins at most two entries long (it
    reads their extremes): the largest column index and the row
    pointer's ends."""
    indices = np.array([shape[1] - 1] if nnz else [], dtype=np.int64)
    indptr = np.array([0, nnz], dtype=np.int64)
    want = get_index_dtype((indices, indptr),
                           maxval=max(shape) if 0 not in shape else None,
                           check_contents=True)
    assert kernel_index_dtype(shape, nnz) is want


@pytest.mark.parametrize("ncols,dtype", [(EDGE - 1, np.int32),
                                         (EDGE, np.int64)])
def test_kernel_index_of_a_wide_matrix(ncols, dtype):
    """A matrix with one nonzero in its last column: the kernel's
    index pair has the dtype scipy's wrapper gives the same arrays."""
    a = CSRMatrix(np.array([0, 1, 1]), np.array([ncols - 1]),
                  np.array([1.0]), (2, ncols))
    sp = scipy.sparse.csr_matrix((a.data, a.indices, a.indptr),
                                 shape=a.shape)
    indptr, indices = a.kernel_index()
    assert indptr.dtype == indices.dtype == sp.indptr.dtype == dtype
    np.testing.assert_array_equal(indices, sp.indices)
    np.testing.assert_array_equal(indptr, sp.indptr)
