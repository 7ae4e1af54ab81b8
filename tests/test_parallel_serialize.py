"""Cross-process serialization round-trips (ISSUE 4 satellite).

The process backend ships the adjacency and model state across process
boundaries two ways: pickle (spawn arguments, command payloads) and
shared-memory view reconstruction (collective payloads).  Both must
preserve dtype, shape, and values **exactly** -- the backend's
bit-equality oracle dies otherwise.
"""

from __future__ import annotations

import pickle
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.nn.model import GCN
from repro.nn.serialize import load_weights, save_weights
from repro.parallel.shm import Arena, decode_payload, encode_payload
from repro.sparse.csr import CSRMatrix


@pytest.fixture
def matrix():
    rng = np.random.default_rng(7)
    dense = (rng.random((40, 40)) < 0.15) * rng.standard_normal((40, 40))
    return CSRMatrix.from_dense(dense)


@pytest.fixture
def arena():
    shm = shared_memory.SharedMemory(create=True, size=1 << 20)
    yield Arena(shm)
    shm.close()
    shm.unlink()


def assert_csr_equal(got: CSRMatrix, want: CSRMatrix) -> None:
    assert got.shape == want.shape
    for field in ("indptr", "indices", "data"):
        g, w = getattr(got, field), getattr(want, field)
        assert g.dtype == w.dtype, field
        assert g.shape == w.shape, field
        np.testing.assert_array_equal(g, w, err_msg=field)


class TestCsrPickle:
    def test_roundtrip_exact(self, matrix):
        clone = pickle.loads(pickle.dumps(matrix))
        assert_csr_equal(clone, matrix)

    def test_kernel_index_cache_dropped(self, matrix):
        held = matrix.kernel_index()  # populate the cache
        payload = pickle.dumps(matrix)
        # the index copies do not ship: the payload is a cold matrix's
        cold = CSRMatrix(matrix.indptr, matrix.indices, matrix.data,
                         matrix.shape)
        assert payload == pickle.dumps(cold)
        clone = pickle.loads(payload)
        assert clone._kernel_index is None
        assert_csr_equal(clone, matrix)
        # The cache rebuilds lazily with identical contents.
        for got, want in zip(clone.kernel_index(), held):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_spawn_sized_payload(self, matrix):
        """Protocol-5 pickling (what mp.spawn uses) round-trips too."""
        clone = pickle.loads(pickle.dumps(matrix, protocol=5))
        assert_csr_equal(clone, matrix)


class TestCsrSharedMemoryView:
    def test_view_reconstruction_exact(self, matrix, arena):
        eph = []
        desc = encode_payload(arena, matrix, eph, inline_max=8)
        clone = decode_payload(desc, arena.shm.buf)
        assert_csr_equal(clone, matrix)
        assert not eph

    def test_reconstructed_blocks_slice_identically(self, matrix, arena):
        desc = encode_payload(arena, matrix, [], inline_max=8)
        clone = decode_payload(desc, arena.shm.buf)
        assert_csr_equal(clone.block(3, 21, 5, 30), matrix.block(3, 21, 5, 30))


class TestModelParameterRoundTrips:
    def test_weights_pickle_exact(self):
        model = GCN((8, 6, 3), seed=4)
        clone = pickle.loads(pickle.dumps(model.weights))
        for g, w in zip(clone, model.weights):
            assert g.dtype == w.dtype and g.shape == w.shape
            np.testing.assert_array_equal(g, w)

    def test_weights_shared_memory_exact(self, arena):
        model = GCN((8, 6, 3), seed=4)
        for w in model.weights:
            desc = encode_payload(arena, w, [], inline_max=8)
            got = decode_payload(desc, arena.shm.buf)
            assert got.dtype == w.dtype and got.shape == w.shape
            np.testing.assert_array_equal(got, w)

    def test_npz_then_pickle_chain_exact(self, tmp_path):
        """Checkpoint -> reload -> ship to a worker: still bit-exact."""
        model = GCN((8, 6, 3), seed=4)
        path = tmp_path / "w.npz"
        save_weights(path, model.weights, {"seed": 4})
        loaded, meta = load_weights(path)
        assert meta["seed"] == 4
        shipped = pickle.loads(pickle.dumps(loaded))
        for g, w in zip(shipped, model.weights):
            np.testing.assert_array_equal(g, w)
