"""The uniform-graph 1D epoch model vs measured execution, and 1D-vs-2D
stories.

The model is the scaling simulator run on a uniform graph:
:func:`repro.simulate.predict_epoch` emits the executed algorithm's own
schedule from the problem shape alone and prices it with the one price
list the ledger is charged by.  Its byte counts are all-rank sums, so
comparisons against a per-rank figure divide by ``P``.
"""

import math

import pytest

from repro.comm import VirtualRuntime
from repro.comm.tracker import Category
from repro.config import COMMODITY, FP32_BYTES, SUMMIT
from repro.dist.algo_1d import DistGCN1D
from repro.dist.algo_2d import DistGCN2D
from repro.nn.layers import sweep_widths
from repro.simulate import GraphModel, evaluate_schedule, predict_epoch
from repro.simulate.schedule import CollectivePhase, CommSchedule
from repro.sparse.distribute import block_ranges

#: Protein's published shape: 128 features, 16 hidden, 256 classes
PROTEIN_WIDTHS = (128, 16, 16, 256)


def published(algorithm, name, p, machine=None):
    """One epoch at a Table VI dataset's full published size, in the
    paper's fp32."""
    return predict_epoch(algorithm, name, p, machine=machine,
                         word_bytes=FP32_BYTES)


def uniform_1d(ds, widths, p):
    """The shape-only model of an executed (fp64) 1D run on ``ds``."""
    return predict_epoch(
        "1d", GraphModel.uniform(ds.num_vertices, ds.adjacency.nnz), p,
        widths=widths, variant="symmetric",
    )


class TestModelVsExecution:
    @pytest.mark.parametrize("p", [2, 4, 8, 16])
    def test_categories_match_measured(self, uniform_dataset, p):
        ds = uniform_dataset
        widths = ds.layer_widths(hidden=16)
        rt = VirtualRuntime.make_1d(p)
        algo = DistGCN1D(rt, ds.adjacency, widths, seed=0, variant="symmetric")
        algo.setup(ds.features, ds.labels)
        measured = algo.train_epoch(0)
        modeled = uniform_1d(ds, widths, p)
        for cat in (Category.DCOMM, Category.SPMM, Category.MISC):
            m = modeled.seconds_by_category[cat]
            e = measured.seconds_by_category[cat]
            assert m == pytest.approx(e, rel=0.1), cat

    def test_dcomm_bytes_match_measured(self, uniform_dataset):
        ds = uniform_dataset
        widths = ds.layer_widths(hidden=16)
        rt = VirtualRuntime.make_1d(8)
        algo = DistGCN1D(rt, ds.adjacency, widths, seed=0, variant="symmetric")
        algo.setup(ds.features, ds.labels)
        measured = algo.train_epoch(0)
        modeled = uniform_1d(ds, widths, 8)
        # Both ledgers sum the per-rank critical bytes over all ranks.
        assert modeled.bytes_by_category[Category.DCOMM] == pytest.approx(
            measured.bytes_by_category[Category.DCOMM], rel=0.02
        )


class TestPaperStories:
    """The memory/words/relative-cost triangle of the 1D-vs-2D choice.

    The executed epoch sweeps at the narrow side of every layer
    (``repro.nn.layers.sweep_order``), which on Protein (128-16-16-256)
    takes the 256-wide last-layer backward sweep down to 16 and 1D's
    dense volume down 4.75x.  2D's replicated-``W`` funnels follow the
    same rule one level down (``repro.nn.layers.funnel_reduces``): the
    growing last layer reduce-scatters ``G W^T`` at 16 columns instead
    of broadcasting ``G`` at 256, and layer 1's funnels left the epoch
    (``T^0`` is gathered along the process rows at set-up); only the
    256-wide row all-gather before ``log_softmax`` stays wide.  The
    paper's stories hold from P = 36: 2D moves fewer dense bytes there
    (not at P = 25), and wins commodity-network seconds from P = 1600
    (4096 here).
    """

    def test_2d_moves_fewer_dense_bytes(self):
        m1 = published("1d", "protein", 256)
        m2 = published("2d", "protein", 256)
        assert (
            m2.bytes_by_category[Category.DCOMM]
            < m1.bytes_by_category[Category.DCOMM]
        )

    def test_narrow_sweeps_move_the_protein_crossover(self):
        """The finding above, pinned: narrow sweeps took 1D's dense
        bytes down to 64 column-units of sweeps against 304, and 2D's
        narrow funnels and its per-row ``log_softmax`` statistic take
        2D's back below them from P = 9 (the crossover was P = 36 while
        2D all-gathered the 256-wide output rows before ``log_softmax``,
        and P = 100 while 2D's funnels broadcast the wide operand)."""
        for p, two_d_fewer in ((4, False), (9, True), (16, True),
                               (36, True), (64, True)):
            m1 = published("1d", "protein", p)
            m2 = published("2d", "protein", p)
            assert (
                m2.bytes_by_category[Category.DCOMM]
                < m1.bytes_by_category[Category.DCOMM]
            ) == two_d_fewer, p
        assert sum(map(sum, sweep_widths((128, 16, 16, 256)))) == 64

    def test_1d_dense_bytes_do_not_scale_with_p(self):
        """The all-gather's per-rank volume is ~n f regardless of P."""
        b16 = published("1d", "protein", 16)
        b256 = published("1d", "protein", 256)
        ratio = (
            (b16.bytes_by_category[Category.DCOMM] / 16)
            / (b256.bytes_by_category[Category.DCOMM] / 256)
        )
        assert ratio == pytest.approx(1.0, rel=0.1)

    def test_2d_dense_bytes_scale_with_sqrt_p(self):
        """Per rank, 2D's dense words fall by ``sqrt(256 / 16) = 4`` from
        P = 16 to 256 where they move the layers' operands, in two exact
        parts.  The SUMMA sweeps' relays move the whole ``n /
        sqrt(P)``-row block to every member (Protein's members read
        every row of a stage, but for a few at P = 256): 4.000.
        The funnels' row-group all-gathers and reduce-scatters charge
        each member the ``(Pc - 1) / Pc`` of its group's ``n / Pr`` rows
        it does not hold, ``(Pc - 1) / P`` of ``n f``: ``(3 / 16) / (15
        / 256) = 3.200``.
        The ``log_softmax`` statistic is ``2 (Pc - 1)`` words a row: a
        rank gets two from each other member of its row group for each
        of its ``n / Pr`` rows.  It grows with P, ``(3 / 4) / (15 / 16)
        = 0.8`` from P = 16 to 256, and stays small: it used to be the
        256-wide rows, ``(Pc - 1) / Pc`` of ``n f^L / Pr``, 32x this at
        P = 16.  (The gradient bucket's bands and their gather, the last
        two phases, are ``f x f``, nearly the same at every P.)"""
        n = GraphModel.from_published("protein").n

        def statistic(ph, q):
            rows = block_ranges(n, q)[0]
            return (isinstance(ph, CollectivePhase)
                    and ph.kind == "allgather"
                    and ph.nbytes[0] == (rows[1] - rows[0]) * 2 * q * 4)

        def per_rank(p, keep):
            schedule = DistGCN2D.emit_comm_schedule(
                GraphModel.from_published("protein"), PROTEIN_WIDTHS, p,
                word_bytes=FP32_BYTES)
            q = math.isqrt(p)
            part = CommSchedule(p, [
                ph for ph in schedule.phases[:-2]
                if getattr(ph, "category", None) == Category.DCOMM
                and keep(ph, q)])
            return evaluate_schedule(part, SUMMIT).bytes_by_category[
                Category.DCOMM] / p

        def relay(ph, q):
            return not isinstance(ph, CollectivePhase)

        def funnel(ph, q):
            return (isinstance(ph, CollectivePhase)
                    and ph.kind in ("allgather", "reduce_scatter")
                    and not statistic(ph, q))

        assert per_rank(16, relay) / per_rank(256, relay) == \
            pytest.approx(4.0, rel=1e-3)
        assert per_rank(16, funnel) / per_rank(256, funnel) == \
            pytest.approx(3.2, rel=1e-3)
        for p in (16, 256):
            q = math.isqrt(p)
            assert per_rank(p, statistic) == 2 * (q - 1) * 4 * n / q

    def test_slow_network_favours_2d(self):
        """Section I: slower networks 'increase the relative cost of
        communication, making our reduced-communication algorithms more
        beneficial'."""
        for p in (64, 256):
            fast = (
                published("2d", "protein", p, SUMMIT).seconds
                / published("1d", "protein", p, SUMMIT).seconds
            )
            slow = (
                published("2d", "protein", p, COMMODITY).seconds
                / published("1d", "protein", p, COMMODITY).seconds
            )
            assert slow < fast

    def test_2d_wins_seconds_on_slow_network_at_scale(self):
        m1 = published("1d", "protein", 4096, COMMODITY)
        m2 = published("2d", "protein", 4096, COMMODITY)
        assert m2.seconds < m1.seconds

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            predict_epoch("1d", GraphModel.uniform(10, 100), 0, widths=(4, 2))
