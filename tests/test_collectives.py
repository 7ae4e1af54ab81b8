"""Simulated collectives: data movement semantics + cost charging."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.comm import VirtualRuntime, broadcast_cost, reduce_scatter_cost
from repro.comm.collectives import payload_nbytes
from repro.comm.tracker import Category
from repro.config import SUMMIT, ZERO_COST
from repro.sparse.csr import CSRMatrix


def make_coll(p=4):
    rt = VirtualRuntime.make_1d(p)
    return rt, rt.coll


class TestPayloadSizing:
    def test_dense_payload(self):
        arr = np.zeros((10, 4))
        assert payload_nbytes(arr) == arr.nbytes

    def test_sparse_payload(self):
        m = CSRMatrix.eye(8)
        assert payload_nbytes(m) == m.nbytes_on_wire

    def test_none_is_free(self):
        assert payload_nbytes(None) == 0

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            payload_nbytes("not a payload")


class TestBroadcast:
    def test_everyone_receives_value(self):
        rt, coll = make_coll()
        value = np.arange(12.0).reshape(3, 4).copy()
        out = coll.broadcast([0, 1, 2, 3], root=1, value=value)
        for r in range(4):
            np.testing.assert_array_equal(out[r], value)
            # Copy-on-write: one shared read-only buffer, not P copies.
            assert out[r].base is value
            assert not out[r].flags.writeable

    def test_root_must_be_member(self):
        rt, coll = make_coll()
        with pytest.raises(ValueError, match="root"):
            coll.broadcast([0, 1], root=3, value=np.ones(2))

    def test_bytes_charged_per_rank(self):
        rt, coll = make_coll()
        value = np.ones((8, 8))
        coll.broadcast([0, 1, 2], root=0, value=value)
        for r in range(3):
            assert rt.tracker.per_rank[r][Category.DCOMM].bytes == value.nbytes
        assert rt.tracker.per_rank[3][Category.DCOMM].bytes == 0

    def test_sparse_broadcast_charges_scomm(self):
        rt, coll = make_coll()
        block = CSRMatrix.eye(16)
        coll.broadcast([0, 1], root=0, value=block, category=Category.SCOMM)
        assert rt.tracker.total_bytes(Category.SCOMM) > 0
        assert rt.tracker.total_bytes(Category.DCOMM) == 0


    def test_charge_is_the_cost_rule(self):
        """The executed broadcast charges exactly its alpha-beta price."""
        rt, coll = make_coll(36)
        payload = np.ones((256, 64))
        coll.broadcast(tuple(range(36)), root=0, value=payload)
        assert rt.tracker.wall_seconds(Category.DCOMM) == pytest.approx(
            broadcast_cost(SUMMIT, payload.nbytes, 36, span=36).seconds,
            rel=0, abs=1e-12)


class TestAllgather:
    def test_all_ranks_get_all_values(self):
        rt, coll = make_coll()
        values = {r: np.full((2,), float(r)) for r in range(4)}
        out = coll.allgather(range(4), values)
        for r in range(4):
            gathered = np.concatenate(out[r])
            np.testing.assert_array_equal(
                gathered, [0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
            )

    def test_missing_contribution_rejected(self):
        rt, coll = make_coll()
        with pytest.raises(KeyError, match="missing contributions"):
            coll.allgather([0, 1], {0: np.ones(2)})


class TestReduceScatter:
    def test_sum_and_shard(self):
        rt, coll = make_coll()
        # Each rank holds a full 8x2 partial; result is the sum, sharded
        # in 2-row blocks.
        values = {r: np.full((8, 2), float(r + 1)) for r in range(4)}
        out = coll.reduce_scatter(range(4), values, axis=0)
        expected_total = 1.0 + 2.0 + 3.0 + 4.0
        for r in range(4):
            assert out[r].shape == (2, 2)
            np.testing.assert_allclose(out[r], expected_total)

    def test_charge_is_the_cost_rule(self):
        """The 1D backward's reduce-scatter charges its closed form."""
        rt, coll = make_coll(16)
        values = {r: np.full((320, 32), float(r)) for r in range(16)}
        coll.reduce_scatter(tuple(range(16)), values)
        assert rt.tracker.wall_seconds(Category.DCOMM) == pytest.approx(
            reduce_scatter_cost(SUMMIT, values[0].nbytes, 16,
                                span=16).seconds,
            rel=0, abs=1e-12)

    def test_uneven_shards_follow_array_split(self):
        rt, coll = make_coll(3)
        values = {r: np.ones((7, 1)) for r in range(3)}
        out = coll.reduce_scatter(range(3), values, axis=0)
        assert [out[r].shape[0] for r in range(3)] == [3, 2, 2]

    def test_shape_mismatch_rejected(self):
        rt, coll = make_coll(2)
        with pytest.raises(ValueError, match="shape mismatch"):
            coll.reduce_scatter(
                [0, 1], {0: np.ones((2, 2)), 1: np.ones((3, 2))}
            )

    @given(
        arrs=st.integers(min_value=2, max_value=6).flatmap(
            lambda p: st.lists(
                hnp.arrays(
                    np.float64,
                    (12, 3),
                    elements=st.floats(-100, 100, allow_nan=False),
                ),
                min_size=p, max_size=p,
            )
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_reduce_scatter_preserves_sum(self, arrs):
        p = len(arrs)
        rt = VirtualRuntime.make_1d(p, ZERO_COST)
        values = {r: arrs[r] for r in range(p)}
        out = rt.coll.reduce_scatter(range(p), values, axis=0)
        reassembled = np.concatenate([out[r] for r in range(p)], axis=0)
        np.testing.assert_allclose(
            reassembled, np.sum(arrs, axis=0), rtol=1e-10, atol=1e-10
        )


class TestAllreduceAndReduce:
    def test_allreduce_sum(self):
        rt, coll = make_coll()
        values = {r: np.full((3, 3), float(r)) for r in range(4)}
        out = coll.allreduce(range(4), values)
        for r in range(4):
            np.testing.assert_allclose(out[r], 6.0)

class TestCopyOnWrite:
    """Collectives share read-only buffers; mutation raises."""

    def test_allreduce_returns_one_shared_readonly_array(self):
        # Regression: the historical {r: acc.copy()} handed every rank a
        # private buffer; copy-on-write shares one read-only array.
        rt, coll = make_coll()
        values = {r: np.full((3, 3), float(r)) for r in range(4)}
        out = coll.allreduce(range(4), values)
        assert all(out[r] is out[0] for r in range(4))
        with pytest.raises(ValueError):
            out[2][0, 0] = 123.0  # mutating a peer's view must raise
        np.testing.assert_allclose(out[0], 6.0)  # nothing corrupted

    def test_broadcast_payload_mutation_raises(self):
        rt, coll = make_coll()
        out = coll.broadcast([0, 1, 2], root=0, value=np.ones((2, 2)))
        with pytest.raises(ValueError):
            out[1] += 1.0

    def test_allgather_payload_mutation_raises(self):
        rt, coll = make_coll(2)
        out = coll.allgather([0, 1], {0: np.ones(3), 1: np.zeros(3)})
        with pytest.raises(ValueError):
            out[0][1][0] = 5.0

    def test_reduce_scatter_shards_are_readonly_contiguous_views(self):
        rt, coll = make_coll()
        values = {r: np.ones((8, 2)) for r in range(4)}
        out = coll.reduce_scatter(range(4), values, axis=0)
        base = out[0].base
        for r in range(4):
            assert out[r].base is base  # shards view one reduced buffer
            assert out[r].flags.c_contiguous
            with pytest.raises(ValueError):
                out[r][0, 0] = 0.0

    def test_sparse_blocks_are_shared_not_copied(self):
        # CSR blocks are structurally immutable; sharing them preserves
        # the cached scipy wrapper across epochs (the SpMM fast path).
        rt, coll = make_coll(2)
        block = CSRMatrix.eye(8)
        out = coll.broadcast([0, 1], root=0, value=block)
        assert out[0] is block and out[1] is block
