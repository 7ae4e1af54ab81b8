"""Per-rank memory models and the paper's Section V-C feasibility table."""

import math

import pytest

from repro.analysis.memory import (
    DEFAULT_OVERHEAD,
    V100_BYTES,
    _dense_stack_words,
    feasibility_table,
    memory_15d,
    memory_1d,
    memory_2d,
    memory_3d,
)
from repro.config import FP32_BYTES

N, NNZ = 1_000_000, 16_000_000
WIDTHS = (128, 16, 16, 32)


class TestFeasibilityTable:
    def test_paper_oom_pattern(self):
        """Section V-C: 'We do not report numbers for Amazon on 4 devices
        or numbers for Protein on 4 or 16 devices as the data does not
        fit in memory for those configurations.'"""
        table = feasibility_table()
        assert table["reddit"][4] is True
        assert table["amazon"][4] is False
        assert table["amazon"][16] is True
        assert table["protein"][4] is False
        assert table["protein"][16] is False
        assert table["protein"][36] is True
        assert table["protein"][64] is True
        assert table["protein"][100] is True

    def test_reddit_fits_everywhere(self):
        table = feasibility_table()
        assert all(table["reddit"].values())


def published_2d_gib(name, p):
    """``(memory_2d GiB, kept T^l GiB)`` of a published dataset at P.

    The second is what keeping the ``T^l`` stages adds: every layer
    above the first that does not shrink holds its left operand at the
    process row's full ``f^{l-1}`` (``n / sqrt(P)`` rows) instead of the
    rank's ``f^{l-1} / sqrt(P)`` block."""
    from repro.graph.datasets import layer_widths, published_spec

    spec = published_spec(name)
    widths = layer_widths(spec.features, spec.labels)
    m = memory_2d(spec.vertices, spec.edges + spec.vertices, widths, p)
    s = math.isqrt(p)
    cols = sum(a * (1 - 1 / s) for a, b in zip(widths[1:-1], widths[2:])
               if b >= a)
    kept = DEFAULT_OVERHEAD * FP32_BYTES * spec.vertices / s * cols
    return m.total_gib, kept / 2**30


class TestKeptT0:
    """2D keeps each process row's ``T^0`` whole after set-up and no
    ``H^0``: at P = 4 the two cancel (``n/2`` rows at ``f^0`` either
    way), above it the row's copy is the larger -- Amazon@16 10.15 ->
    14.77 GiB still fits, Protein@16 17.39 -> 19.21 GiB still does not.
    Pinned here apart from the kept ``T^l`` stages (:class:`TestKeptStages`),
    which came later, and with the sparse pieces kept from set-up
    (:class:`TestKeptPieces`), which came later still and re-pinned
    every cell (3.87 / 40.43 / 14.77 / 19.21 / 9.37 before)."""

    @pytest.mark.parametrize("name,p,gib", [
        ("reddit", 4, 3.12), ("amazon", 4, 38.74), ("amazon", 16, 15.10),
        ("protein", 16, 20.90), ("protein", 36, 11.65),
    ])
    def test_published_cells(self, name, p, gib):
        total, kept_tl = published_2d_gib(name, p)
        assert round(total - kept_tl, 2) == gib


class TestKeptStages:
    """Each process row also keeps the ``T^l`` stages of every layer
    above the first that does not shrink (the published ``f-16-16-c``
    shapes: both), for its weight gradient: Amazon@16 14.77 -> 15.50 GiB,
    Protein@36 9.37 -> 9.88 GiB.  No cell of the Section V-C pattern
    moves, and ``DEFAULT_OVERHEAD`` stays."""

    @pytest.mark.parametrize("name,p,gib", [
        ("reddit", 4, 3.14), ("amazon", 4, 39.72), ("amazon", 16, 15.83),
        ("protein", 16, 21.58), ("protein", 36, 12.16),
    ])
    def test_published_cells(self, name, p, gib):
        """Re-pinned with the kept sparse pieces (:class:`TestKeptPieces`;
        3.90 / 41.42 / 15.50 / 19.90 / 9.88 before)."""
        total, kept_tl = published_2d_gib(name, p)
        assert round(total, 2) == gib and kept_tl > 0

    def test_feasibility_pattern_unmoved(self):
        assert DEFAULT_OVERHEAD == 3.5
        assert feasibility_table() == PAPER_FITS


#: The Section V-C pattern: which (dataset, P) the paper reports as
#: fitting one 16 GB V100 (``True``) and which as not.
PAPER_FITS = {
    "reddit": {4: True, 16: True, 36: True, 64: True},
    "amazon": {4: False, 16: True, 36: True, 64: True},
    "protein": {4: False, 16: False, 36: True, 64: True, 100: True},
}


def feasible_overheads():
    """The ``(lo, hi]`` window of overhead factors under which
    :func:`memory_2d` reproduces :data:`PAPER_FITS`: above every
    reported misfit's ``capacity / base`` and at most every fit's."""
    from repro.graph.datasets import layer_widths, published_spec

    lo, hi = 0.0, math.inf
    for name, cells in PAPER_FITS.items():
        spec = published_spec(name)
        widths = layer_widths(spec.features, spec.labels)
        for p, fits in cells.items():
            base = memory_2d(spec.vertices, spec.edges + spec.vertices,
                             widths, p, overhead=1.0).total_bytes
            if fits:
                hi = min(hi, V100_BYTES / base)
            else:
                lo = max(lo, V100_BYTES / base)
    return lo, hi


class TestKeptPieces:
    """2D and 3D keep every SUMMA stage's sparse piece from set-up, so
    no epoch moves a sparse byte: a rank holds its process row's block
    row (``nnz / sqrt(P)``; 3D: its row group's ``s`` blocks, ``nnz /
    P^{2/3}``), one orientation (``A == A^T`` on the published graphs),
    and no stage's sparse receive buffer.  Amazon@16 15.50 -> 15.83 GiB,
    Protein@36 9.88 -> 12.16 GiB, and the Section V-C pattern stays."""

    def test_sparse_is_the_kept_block_row(self):
        for p, rows in ((16, 4), (64, 8)):
            m = memory_2d(N, NNZ, WIDTHS, p)
            assert m.sparse_bytes == pytest.approx(
                NNZ / rows * 8 + (N / rows + 1) * 4)
        m = memory_3d(N, NNZ, WIDTHS, 64)
        assert m.sparse_bytes == pytest.approx(NNZ / 16 * 8 + (N / 4 + 1) * 4)

    def test_no_sparse_receive_buffer(self):
        m = memory_2d(N, NNZ, WIDTHS, 16)
        assert m.buffer_bytes == FP32_BYTES * (N / 4) * (max(WIDTHS) / 4)

    def test_default_overhead_inside_the_feasible_window(self):
        """The window the models leave for the overhead factor (about
        (2.60, 3.54]; (2.81, 3.61] before the pieces were kept) holds
        the calibrated 3.5, so the pattern is the paper's."""
        lo, hi = feasible_overheads()
        assert lo < DEFAULT_OVERHEAD <= hi
        assert (round(lo, 2), round(hi, 2)) == (2.60, 3.54)
        assert feasibility_table() == PAPER_FITS


class TestScalingBehaviour:
    def test_2d_memory_scales_inverse_p(self):
        """Near-perfect 1/P scaling ("consumes optimal memory") of all but
        what each process row keeps whole -- ``n / sqrt(P)`` rows at the
        full width: ``T^0`` (``f^0 = 128``) and, since the 16 -> 16 and
        16 -> 32 layers do not shrink, their ``T^l`` stages (16 each);
        and the sparse pieces of its block row -- which scale as ``1 /
        sqrt(P)``: the memory the per-epoch gathers and broadcasts they
        save cost.  The total's 4 -> 64 ratio is 6.34: 7.16 before the
        sparse pieces were kept, 7.23 before the 16 -> 16 layer's
        gathered ``A G`` was counted at P = 64 (:meth:`test_gathered_a_
        g_counts_where_it_outgrows_the_backward_pairs`), 7.94 with
        ``T^0`` alone kept, 15.6 with nothing."""
        def kept(p):
            return DEFAULT_OVERHEAD * (
                FP32_BYTES * N / math.isqrt(p)
                * (WIDTHS[0] + WIDTHS[1] + WIDTHS[2])
                + memory_2d(N, NNZ, WIDTHS, p).sparse_bytes)

        m4 = memory_2d(N, NNZ, WIDTHS, 4)
        m64 = memory_2d(N, NNZ, WIDTHS, 64)
        rest = (m4.total_bytes - kept(4)) / (m64.total_bytes - kept(64))
        assert rest == pytest.approx(16, rel=0.3)
        assert m4.total_bytes / m64.total_bytes == pytest.approx(6.34,
                                                                 rel=0.01)

    @pytest.mark.parametrize("p,backward", [(4, 64), (64, 18)])
    def test_gathered_a_g_counts_where_it_outgrows_the_backward_pairs(
            self, p, backward):
        """The 16 -> 16 layer's backward gathers ``A G`` at all 16
        columns beside its ``G`` block.  At P = 4 (blocks 64-8-8-16) that
        is 8 + 16 = 24 columns, inside the 2 x (8 + 8 + 16) = 64 every
        layer's ``G`` / ``A G`` pair takes together; at P = 64 (blocks
        16-2-2-4) it is 2 + 16 = 18 against 16, so it is counted.  The
        rest: the kept ``T^0`` (128), ``T^2`` and ``T^3`` (16 each) and
        ``Z`` / ``H`` at the blocks."""
        s = math.isqrt(p)
        blocks = [w / s for w in WIDTHS]
        kept = 128 + 16 + 16 + 2 * sum(blocks[1:])
        assert _dense_stack_words(N / s, blocks, WIDTHS) == \
            N / s * (kept + backward)

    def test_1d_memory_floor_is_full_dense_matrix(self):
        """The gathered H never shrinks: 1D memory plateaus."""
        m4 = memory_1d(N, NNZ, WIDTHS, 4)
        m256 = memory_1d(N, NNZ, WIDTHS, 256)
        assert m256.buffer_bytes == m4.buffer_bytes
        assert m256.total_bytes > 0.3 * m4.total_bytes

    def test_15d_memory_grows_with_replication(self):
        """Section IV-B: the c-fold dense replication."""
        p = 64
        m1 = memory_15d(N, NNZ, WIDTHS, p, 1)
        m4 = memory_15d(N, NNZ, WIDTHS, p, 4)
        m16 = memory_15d(N, NNZ, WIDTHS, p, 16)
        assert m1.dense_bytes < m4.dense_bytes < m16.dense_bytes

    def test_3d_partial_replication(self):
        """Section IV-D: partials replicate P^(1/3)-fold relative to the
        owned share."""
        p = 64  # s = 4
        m = memory_3d(N, NNZ, WIDTHS, p)
        owned_share = 4 * (N / 16) * (max(WIDTHS) / 4)  # fp32 n/s^2 x f/s
        assert m.buffer_bytes == pytest.approx(4 * owned_share)

    def test_2d_beats_1d_at_scale(self):
        m1 = memory_1d(N, NNZ, WIDTHS, 64)
        m2 = memory_2d(N, NNZ, WIDTHS, 64)
        assert m2.total_bytes < m1.total_bytes


class TestValidation:
    def test_2d_requires_square(self):
        with pytest.raises(ValueError, match="square"):
            memory_2d(N, NNZ, WIDTHS, 10)

    def test_3d_requires_cube(self):
        with pytest.raises(ValueError, match="cube"):
            memory_3d(N, NNZ, WIDTHS, 16)

    def test_15d_replication_divides(self):
        with pytest.raises(ValueError, match="divide"):
            memory_15d(N, NNZ, WIDTHS, 8, 3)

    def test_estimate_fields(self):
        m = memory_2d(N, NNZ, WIDTHS, 16)
        assert m.total_gib > 0
        assert m.total_bytes == pytest.approx(
            (m.sparse_bytes + m.dense_bytes + m.buffer_bytes)
            * m.overhead_factor
        )
        assert m.fits(capacity_bytes=float("inf"))
