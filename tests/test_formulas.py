"""The paper's closed-form communication costs (Section IV) and claims."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.formulas import (
    crossover_p_2d_vs_1d,
    ratio_1d_over_2d,
    words_15d,
    words_1d,
    words_1d_symmetric,
    words_1d_transpose,
    words_2d,
    words_3d,
)
from repro.config import SUMMIT
from repro.graph import PUBLISHED

# A representative problem: the paper's simplifying regime d ~ f.
N, F, L = 1_000_000, 128, 3
NNZ = N * F  # nnz ~ n f  (assumption 2 of Section IV-C.5)


class TestFormulas:
    def test_1d_words_formula(self):
        est = words_1d(N, NNZ, F, L, 64)
        ec = N * 63 / 64
        assert est.words == pytest.approx(L * (ec * F + N * F + F * F))
        assert est.messages == pytest.approx(L * 3 * 6)

    def test_1d_symmetric_cheaper(self):
        plain = words_1d(N, NNZ, F, L, 64)
        sym = words_1d_symmetric(N, NNZ, F, L, 64)
        assert sym.words < plain.words

    def test_1d_transpose_adds_transposition(self):
        sym = words_1d_symmetric(N, NNZ, F, L, 64)
        tr = words_1d_transpose(N, NNZ, F, L, 64)
        assert tr.words == pytest.approx(sym.words + 2 * NNZ / 64)
        assert tr.messages == pytest.approx(sym.messages + 2 * 64 * 64)

    def test_2d_words_formula(self):
        p = 64
        est = words_2d(N, NNZ, F, L, p)
        sp = 8.0
        assert est.words == pytest.approx(
            L * (8 * N * F / sp + 2 * NNZ / sp + F * F)
        )
        assert est.messages == pytest.approx(L * (5 * sp + 3 * 6))

    def test_3d_words_formula(self):
        p = 64
        est = words_3d(N, NNZ, F, L, p)
        p23 = 16.0
        assert est.words == pytest.approx(
            L * (2 * NNZ / p23 + 12 * N * F / p23)
        )

    def test_custom_edgecut_lowers_1d(self):
        better = words_1d(N, NNZ, F, L, 64, edgecut=N / 10)
        default = words_1d(N, NNZ, F, L, 64)
        assert better.words < default.words

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            words_1d(N, NNZ, F, L, 0)
        with pytest.raises(ValueError):
            words_15d(N, NNZ, F, L, 8, 3)


class TestPaperClaims:
    def test_2d_moves_5_over_sqrt_p_of_1d(self):
        """Section IV-C.5: under the simplifying assumptions the 2D
        algorithm moves (5/sqrt(p)) of the 1D algorithm's data, i.e.
        ratio_1d_over_2d -> sqrt(p)/5."""
        for p in (64, 256, 1024):
            ratio = ratio_1d_over_2d(N, NNZ, F, L, p)
            assert ratio == pytest.approx(math.sqrt(p) / 5, rel=0.05)

    def test_crossover_near_p_25(self):
        """Section VI-d: '2D will only be competitive with 1D when
        sqrt(p) >= 5' -> crossover at P ~= 25 (36 for square P since
        the inequality is strict just below)."""
        cross = crossover_p_2d_vs_1d(N, NNZ, F, L)
        assert cross is not None
        assert 25 <= cross <= 49

    @pytest.mark.parametrize("name", sorted(PUBLISHED))
    def test_2d_does_not_dominate_at_16_gpus(self, name):
        """Section VI-d: NeuGraph (<= 8 GPUs) and ROC (<= 16) ran below
        the crossover, so at P = 16 2D moves no clear saving over 1D on
        any Table VI dataset."""
        spec = PUBLISHED[name]
        n, nnz, f = spec.vertices, spec.edges, float(spec.features)
        ratio = words_1d(n, nnz, f, 3, 16).words / words_2d(n, nnz, f, 3,
                                                            16).words
        assert ratio < 1.4

    def test_3d_beats_2d_by_p_to_the_sixth(self):
        """Section I: 3D reduces words by another O(P^(1/6))."""
        for p in (64, 729):
            w2 = words_2d(N, NNZ, F, L, p).words
            w3 = words_3d(N, NNZ, F, L, p).words
            improvement = w2 / w3
            expected = p ** (1.0 / 6.0)
            # 10/14 constant ratio times P^(1/6).
            assert improvement == pytest.approx(
                (10.0 / 14.0) * expected, rel=0.05
            )

    def test_15d_interpolates(self):
        """1.5D with c=1 ~ 1D broadcast cost; larger c approaches 2D-ish
        volumes at the price of memory."""
        p = 64
        c1 = words_15d(N, NNZ, F, L, p, 1).words
        c8 = words_15d(N, NNZ, F, L, p, 8).words
        w1 = words_1d(N, NNZ, F, L, p).words
        assert c8 < c1
        assert c1 == pytest.approx(w1, rel=0.5)

    def test_15d_optimum_at_sqrt_p_over_2(self):
        """words(c) = 2nf/c + 4nfc/P is minimised at c* = sqrt(P/2)."""
        p = 32
        best_c = min(
            (c for c in (1, 2, 4, 8, 16, 32) if p % c == 0),
            key=lambda c: words_15d(N, NNZ, F, L, p, c).words,
        )
        assert best_c == 4  # sqrt(32/2) = 4

    def test_latency_ordering(self):
        """2D pays O(sqrt(P)) latency vs 1D's O(lg P) -- the reason the
        paper says 2D is wrong for small graphs (Section IV-C.5)."""
        p = 1024
        m1 = words_1d(N, NNZ, F, L, p).messages
        m2 = words_2d(N, NNZ, F, L, p).messages
        assert m2 > 5 * m1


class TestSeconds:
    def test_seconds_composition(self):
        est = words_2d(N, NNZ, F, L, 64)
        secs = est.seconds(SUMMIT, word_bytes=4)
        expected = est.messages * SUMMIT.alpha + est.words * 4 * SUMMIT.beta
        assert secs == pytest.approx(expected)

    @given(p=st.sampled_from([4, 16, 64, 256, 1024]))
    @settings(max_examples=10, deadline=None)
    def test_2d_words_decrease_with_p(self, p):
        if p > 4:
            prev = words_2d(N, NNZ, F, L, p // 4).words
            cur = words_2d(N, NNZ, F, L, p).words
            assert cur < prev

    @given(p=st.sampled_from([8, 64, 512]))
    @settings(max_examples=10, deadline=None)
    def test_3d_words_decrease_with_p(self, p):
        if p > 8:
            prev = words_3d(N, NNZ, F, L, p // 8).words
            cur = words_3d(N, NNZ, F, L, p).words
            assert cur < prev
