"""Alpha-beta collective cost formulas."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import cost_model as cm
from repro.config import SUMMIT, ZERO_COST, MachineProfile
from repro.simulate import get_machine
from repro.sparse.perfmodel import SpmmPerfModel

FLAT = MachineProfile(
    name="flat",
    alpha=1e-6,
    beta=1e-9,
    beta_intranode=1e-9,
    beta_intersocket=1e-9,
    alpha_intranode=1e-6,
)


class TestBroadcast:
    def test_tree_latency_factor(self):
        cost = cm.broadcast_cost(FLAT, 1 << 20, 8)
        # lg 8 = 3 alpha terms, one bandwidth term.
        assert cost.seconds == pytest.approx(3 * 1e-6 + 1e-9 * (1 << 20))
        assert cost.messages == 3

    def test_pipelined_drops_lg_factor(self):
        plain = cm.broadcast_cost(FLAT, 1 << 20, 16)
        piped = cm.broadcast_cost(FLAT, 1 << 20, 16, pipelined=True)
        assert piped.messages == 1
        assert piped.seconds < plain.seconds

    def test_single_rank_is_free(self):
        assert cm.broadcast_cost(FLAT, 100, 1).seconds == 0.0

    def test_zero_bytes_is_free(self):
        assert cm.broadcast_cost(FLAT, 0, 8).seconds == 0.0

    def test_wire_traffic_counts_all_receivers(self):
        cost = cm.broadcast_cost(FLAT, 100, 5)
        assert cost.bytes_on_wire == 100 * 4  # 4 receivers

    def test_span_selects_internode_tier(self):
        # A 4-rank group inside a 64-rank job crosses node boundaries.
        small_span = cm.broadcast_cost(SUMMIT, 1 << 20, 4)
        big_span = cm.broadcast_cost(SUMMIT, 1 << 20, 4, span=64)
        assert big_span.seconds > small_span.seconds

    def test_summit_broadcasts_at_36_turn_bandwidth_bound_with_size(self):
        """Section VI: sub-millisecond broadcasts at p = 36 are
        latency-bound on Summit; large ones are bandwidth-bound."""
        for nbytes, latency_bound in ((1 << 10, True), (32 << 20, False)):
            cost = cm.broadcast_cost(SUMMIT, nbytes, 36, span=36)
            latency = cost.messages * SUMMIT.alpha
            assert (latency > cost.seconds - latency) == latency_bound


class TestReductions:
    def test_allgather_bandwidth_term(self):
        p, m = 8, 1 << 20
        cost = cm.allgather_cost(FLAT, m, p)
        assert cost.seconds == pytest.approx(3 * 1e-6 + 1e-9 * m * (p - 1) / p)

    def test_reduce_scatter_matches_allgather_bandwidth(self):
        p, m = 16, 1 << 18
        ag = cm.allgather_cost(FLAT, m, p)
        rs = cm.reduce_scatter_cost(FLAT, m, p)
        assert rs.seconds == pytest.approx(ag.seconds)

    def test_allreduce_is_rs_plus_ag(self):
        p, m = 8, 4096
        ar = cm.allreduce_cost(FLAT, m, p)
        rs = cm.reduce_scatter_cost(FLAT, m, p)
        ag = cm.allgather_cost(FLAT, m, p)
        assert ar.seconds == pytest.approx(rs.seconds + ag.seconds)
        assert ar.messages == rs.messages + ag.messages


class TestCostAlgebra:
    def test_cost_addition(self):
        a = cm.CollectiveCost(1.0, 10, 5, 1)
        b = cm.CollectiveCost(2.0, 20, 10, 2)
        c = a + b
        assert (c.seconds, c.bytes_on_wire, c.bytes_critical, c.messages) == (
            3.0, 30, 15, 3,
        )

    def test_zero_cost_profile_all_free(self):
        assert cm.broadcast_cost(ZERO_COST, 1 << 20, 16).seconds == 0.0
        assert cm.allreduce_cost(ZERO_COST, 1 << 20, 16).seconds == 0.0


class TestCostProperties:
    @given(
        nbytes=st.integers(min_value=1, max_value=1 << 26),
        p=st.integers(min_value=2, max_value=512),
    )
    @settings(max_examples=50, deadline=None)
    def test_costs_positive_and_monotone_in_bytes(self, nbytes, p):
        c1 = cm.broadcast_cost(FLAT, nbytes, p)
        c2 = cm.broadcast_cost(FLAT, nbytes + 1024, p)
        assert c1.seconds > 0
        assert c2.seconds >= c1.seconds

    @given(
        nbytes=st.integers(min_value=1024, max_value=1 << 24),
        p=st.integers(min_value=2, max_value=256),
    )
    @settings(max_examples=50, deadline=None)
    def test_latency_grows_logarithmically(self, nbytes, p):
        cost = cm.broadcast_cost(FLAT, nbytes, p)
        assert cost.messages == math.ceil(math.log2(p))

    @given(p=st.integers(min_value=2, max_value=128))
    @settings(max_examples=30, deadline=None)
    def test_allreduce_double_of_reduce_scatter_bandwidth(self, p):
        m = 1 << 20
        ar = cm.allreduce_cost(FLAT, m, p)
        rs = cm.reduce_scatter_cost(FLAT, m, p)
        assert ar.bytes_critical == 2 * rs.bytes_critical


class TestClosedFormTable:
    """Every collective formula vs the module docstring's cost table.

    The docstring promises, for p ranks and m bytes (alpha = per-message
    latency, beta = seconds/byte, lg = ceil(log2)):

        broadcast        lg p * a + b m   (pipelined: 1 * a + b m)
        all-gather       lg p * a + b m (p-1)/p
        reduce-scatter   lg p * a + b m (p-1)/p
        all-reduce       2 lg p * a + 2 b m (p-1)/p

    Checked at p in {2, 4, 8, 64} on a flat one-tier profile so the
    formula is the whole story.
    """

    ALPHA = 1e-6
    BETA = 1e-9
    M = 1 << 20

    def _lg(self, p):
        return math.ceil(math.log2(p))

    @pytest.mark.parametrize("p", [2, 4, 8, 64])
    def test_broadcast_tree(self, p):
        cost = cm.broadcast_cost(FLAT, self.M, p)
        assert cost.seconds == pytest.approx(
            self._lg(p) * self.ALPHA + self.BETA * self.M
        )
        assert cost.messages == self._lg(p)

    @pytest.mark.parametrize("p", [2, 4, 8, 64])
    def test_broadcast_pipelined_drops_lg(self, p):
        piped = cm.broadcast_cost(FLAT, self.M, p, pipelined=True)
        tree = cm.broadcast_cost(FLAT, self.M, p)
        assert piped.seconds == pytest.approx(
            self.ALPHA + self.BETA * self.M
        )
        assert piped.messages == 1
        # Same bandwidth term; the difference is exactly (lg p - 1) alphas.
        assert tree.seconds - piped.seconds == pytest.approx(
            (self._lg(p) - 1) * self.ALPHA
        )

    @pytest.mark.parametrize("p", [2, 4, 8, 64])
    def test_allgather(self, p):
        cost = cm.allgather_cost(FLAT, self.M, p)
        assert cost.seconds == pytest.approx(
            self._lg(p) * self.ALPHA + self.BETA * self.M * (p - 1) / p
        )
        assert cost.bytes_critical == int(self.M * (p - 1) / p)

    @pytest.mark.parametrize("p", [2, 4, 8, 64])
    def test_reduce_scatter(self, p):
        cost = cm.reduce_scatter_cost(FLAT, self.M, p)
        assert cost.seconds == pytest.approx(
            self._lg(p) * self.ALPHA + self.BETA * self.M * (p - 1) / p
        )

    @pytest.mark.parametrize("p", [2, 4, 8, 64])
    def test_allreduce(self, p):
        cost = cm.allreduce_cost(FLAT, self.M, p)
        assert cost.seconds == pytest.approx(
            2 * self._lg(p) * self.ALPHA
            + 2 * self.BETA * self.M * (p - 1) / p
        )
        assert cost.messages == 2 * self._lg(p)

    @pytest.mark.parametrize("p", [2, 4, 8, 64])
    def test_allreduce_is_rs_plus_ag(self, p):
        """The docstring's derivation: all-reduce = reduce-scatter +
        all-gather (Thakur et al.), term by term."""
        ar = cm.allreduce_cost(FLAT, self.M, p)
        rs = cm.reduce_scatter_cost(FLAT, self.M, p)
        ag = cm.allgather_cost(FLAT, self.M, p)
        assert ar.seconds == pytest.approx(rs.seconds + ag.seconds)
        assert ar.bytes_critical == rs.bytes_critical + ag.bytes_critical
        assert ar.messages == rs.messages + ag.messages

    def test_congestion_extension_default_off(self):
        """beta_effective == beta_for_span on congestion-free profiles,
        so the docstring table is unchanged for them."""
        for span in (2, 8, 64, 4096):
            assert FLAT.beta_effective(span) == FLAT.beta_for_span(span)

    def test_congestion_scales_bandwidth_term_only(self):
        congested = MachineProfile(
            name="congested",
            alpha=self.ALPHA,
            beta=self.BETA,
            beta_intranode=self.BETA,
            beta_intersocket=self.BETA,
            alpha_intranode=self.ALPHA,
            gpus_per_node=4,
            congestion_per_doubling=0.5,
        )
        p = 64
        flatc = cm.broadcast_cost(FLAT, self.M, p)
        cong = cm.broadcast_cost(congested, self.M, p)
        nodes = math.ceil(p / 4)
        factor = 1 + 0.5 * math.log2(nodes)
        expect_bw = self.BETA * self.M * factor
        assert cong.seconds == pytest.approx(
            self._lg(p) * self.ALPHA + expect_bw
        )
        # Latency term untouched.
        assert cong.messages == flatc.messages


class TestOneRuleServesBothCallers:
    """The executed ledger prices scalars, the schedule evaluator arrays.

    Every rule of the price list must give an array of sizes exactly what
    it gives each element alone -- ``==`` on every field -- including the
    zero-size and single-rank shortcuts, on tiered, congested and free
    machines, and must reject a negative size in both forms.
    """

    PROFILES = [FLAT, SUMMIT, ZERO_COST, get_machine("ethernet")]
    SIZES = st.lists(st.integers(0, 1 << 40), min_size=1, max_size=6)
    SPAN = st.one_of(st.none(), st.integers(1, 16384))

    @staticmethod
    def _same(batch, singles):
        """``batch`` (array fields) == ``singles`` (one scalar result per
        entry), field by field; scalars come back as Python numbers."""
        for i, one in enumerate(singles):
            for field in dataclasses.fields(cm.CollectiveCost):
                got = getattr(one, field.name)
                assert type(got) in (int, float), field.name
                assert getattr(batch, field.name)[i] == got, field.name

    @given(sizes=SIZES, nranks=st.integers(1, 16384), span=SPAN,
           pipelined=st.booleans(), profile=st.sampled_from(PROFILES))
    @settings(max_examples=150, deadline=None)
    def test_group_rules(self, sizes, nranks, span, pipelined, profile):
        for kind, rule in cm.GROUP_COST.items():
            flags = (pipelined,) if kind == "broadcast" else ()
            self._same(
                rule(profile, np.array(sizes), nranks, *flags, span=span),
                [rule(profile, m, nranks, *flags, span=span) for m in sizes],
            )

    @given(sizes=SIZES, span=SPAN, profile=st.sampled_from(PROFILES),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_routed_rules(self, sizes, span, profile, data):
        self._same(cm.transpose_cost(profile, np.array(sizes)),
                   [cm.transpose_cost(profile, m) for m in sizes])
        sources = data.draw(st.lists(st.integers(0, 64),
                                     min_size=len(sizes),
                                     max_size=len(sizes)))
        self._same(
            cm.gather_rows_cost(profile, np.array(sizes), np.array(sources),
                                span=span),
            [cm.gather_rows_cost(profile, m, k, span=span)
             for m, k in zip(sizes, sources)],
        )

    @given(sizes=SIZES, profile=st.sampled_from(PROFILES), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_kernel_rules(self, sizes, profile, data):
        for rule in (cm.gemm_seconds, cm.elementwise_seconds):
            batch = rule(profile, np.array(sizes))
            assert batch.tolist() == [rule(profile, m) for m in sizes]
        dims = st.lists(st.integers(0, 1 << 24), min_size=len(sizes),
                        max_size=len(sizes))
        nrows, ncols = data.draw(dims), data.draw(dims)
        perf = SpmmPerfModel.from_profile(profile)
        batch = perf.seconds(np.array(sizes), np.array(nrows),
                             np.array(ncols))
        singles = [perf.seconds(z, r, f)
                   for z, r, f in zip(sizes, nrows, ncols)]
        assert all(type(x) is float for x in singles)
        assert batch.tolist() == singles

    @pytest.mark.parametrize("bad", [-1, np.array([5, -1])])
    def test_negative_size_rejected_in_both_forms(self, bad):
        perf = SpmmPerfModel.from_profile(FLAT)
        for call in (
            lambda: cm.broadcast_cost(FLAT, bad, 8),
            lambda: cm.allgather_cost(FLAT, bad, 8),
            lambda: cm.reduce_scatter_cost(FLAT, bad, 8),
            lambda: cm.allreduce_cost(FLAT, bad, 8),
            lambda: cm.gather_rows_cost(FLAT, bad, 2),
            lambda: cm.gather_rows_cost(FLAT, 2, bad),
            lambda: cm.transpose_cost(FLAT, bad),
            lambda: cm.gemm_seconds(FLAT, bad),
            lambda: cm.elementwise_seconds(FLAT, bad),
            lambda: perf.seconds(bad, 4, 4),
        ):
            with pytest.raises(ValueError, match="negative"):
                call()

    def test_fractional_sizes_truncate_like_int(self):
        """The uniform graph oracle hands rules expected (fractional)
        sizes; they price the whole count the executed path's ``int()``
        would."""
        assert cm.allgather_cost(SUMMIT, 1000.9, 8) == \
            cm.allgather_cost(SUMMIT, 1000, 8)
        assert cm.gemm_seconds(SUMMIT, 1e6 + 0.5) == \
            cm.gemm_seconds(SUMMIT, 1e6)
        perf = SpmmPerfModel.from_profile(SUMMIT)
        assert perf.seconds(99.9, 10.0, 16.0) == perf.seconds(99, 10, 16)
