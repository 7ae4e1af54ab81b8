"""Step tracing: event capture, reports, and charge-neutrality."""

import numpy as np
import pytest

from repro.comm import VirtualRuntime
from repro.comm.trace import StepTracer
from repro.comm.tracker import Category, CommTracker
from repro.dist import make_algorithm
from repro.graph import make_synthetic


class TestEventCapture:
    def test_records_steps(self):
        t = CommTracker(3)
        tracer = StepTracer(t).install()
        with t.step_scope():
            t.charge(0, Category.SPMM, 1.0)
            t.charge(1, Category.SPMM, 3.0)
        with t.step_scope():
            t.charge(2, Category.DCOMM, 2.0)
        tracer.uninstall()
        assert len(tracer.events) == 2
        assert tracer.events[0].slowest_rank == 1
        assert tracer.events[0].seconds == pytest.approx(3.0)
        assert tracer.events[1].dominant_category == Category.DCOMM

    def test_empty_steps_skipped(self):
        t = CommTracker(2)
        tracer = StepTracer(t).install()
        with t.step_scope():
            pass
        assert tracer.events == []

    def test_nested_scopes_give_one_event(self):
        t = CommTracker(2)
        with StepTracer(t) as tracer:
            with t.step_scope():
                t.charge(0, Category.MISC, 1.0)
                with t.step_scope():
                    t.charge(1, Category.MISC, 2.0)
        assert len(tracer.events) == 1

    def test_tracing_does_not_change_charges(self):
        """Traced and untraced runs produce identical ledgers."""
        ds = make_synthetic(n=70, avg_degree=4, f=8, n_classes=3, seed=3)

        def run(trace):
            algo = make_algorithm("2d", 4, ds, hidden=8, seed=0)
            tracer = StepTracer(algo.rt.tracker) if trace else None
            if tracer:
                tracer.install()
            algo.setup(ds.features, ds.labels)
            st = algo.train_epoch(0)
            if tracer:
                tracer.uninstall()
            return st, tracer, algo.rt.tracker.wall_seconds()

        plain, _, plain_wall = run(False)
        traced, tracer, wall = run(True)
        assert traced.dcomm_bytes == plain.dcomm_bytes
        assert traced.modeled_seconds == pytest.approx(plain.modeled_seconds)
        assert wall == plain_wall
        # The trace's step total equals the ledger's wall clock: the
        # set-up aggregation plus the epoch.
        assert wall > traced.modeled_seconds
        assert tracer.total_seconds() == pytest.approx(wall, rel=1e-9)

    def test_uninstall_restores_scope(self):
        t = CommTracker(1)
        tracer = StepTracer(t).install()
        tracer.uninstall()
        with t.step_scope():
            t.charge(0, Category.MISC, 1.0)
        assert tracer.events == []


class TestReports:
    def _traced_epoch(self):
        ds = make_synthetic(n=90, avg_degree=5, f=10, n_classes=3, seed=5)
        algo = make_algorithm("2d", 4, ds, hidden=8, seed=0)
        tracer = StepTracer(algo.rt.tracker).install()
        algo.setup(ds.features, ds.labels)
        algo.train_epoch(0)
        tracer.uninstall()
        return tracer

    def test_top_steps_sorted(self):
        tracer = self._traced_epoch()
        top = tracer.top_steps(5)
        assert len(top) == 5
        secs = [e.seconds for e in top]
        assert secs == sorted(secs, reverse=True)
        assert top[0].seconds == max(e.seconds for e in tracer.events)

    def test_category_totals_match_breakdown(self):
        tracer = self._traced_epoch()
        by_cat = tracer.seconds_by_category()
        wall = tracer.tracker.breakdown()
        for c, s in by_cat.items():
            assert s == pytest.approx(wall[c], rel=1e-9)

    def test_straggler_counts_cover_events(self):
        tracer = self._traced_epoch()
        counts = tracer.straggler_counts()
        assert sum(counts.values()) == len(tracer.events)

    def test_timeline_renders(self):
        tracer = self._traced_epoch()
        text = tracer.timeline(width=20, max_rows=10)
        assert "timeline:" in text
        assert "step" in text

    def test_empty_timeline(self):
        t = CommTracker(1)
        tracer = StepTracer(t)
        assert "no steps" in tracer.timeline()


class TestEdgeCases:
    """The satellite-task edge cases: empty runs, single steps, failures."""

    def _one_step_tracer(self, seconds=2.5e-6):
        t = CommTracker(2)
        tracer = StepTracer(t).install()
        with t.step_scope():
            t.charge(0, Category.SPMM, seconds)
        tracer.uninstall()
        return tracer

    def test_empty_run_reports(self):
        t = CommTracker(3)
        tracer = StepTracer(t).install()
        tracer.uninstall()
        assert tracer.timeline() == "(no steps recorded)"
        assert tracer.top_steps() == []
        assert tracer.straggler_counts() == {}
        assert tracer.total_seconds() == 0.0
        assert tracer.seconds_by_category() == {}

    def test_single_step_timeline_fills_bar(self):
        tracer = self._one_step_tracer()
        text = tracer.timeline(width=24)
        assert "1 step," in text          # singular, one event
        assert "#" * 24 in text           # scaled against itself: full bar
        assert "more steps" not in text

    def test_single_step_reports(self):
        tracer = self._one_step_tracer()
        assert len(tracer.top_steps(10)) == 1
        assert tracer.top_steps(0) == []
        assert tracer.straggler_counts() == {0: 1}
        assert tracer.events[0].dominant_category == Category.SPMM

    def test_single_rank_steps_report_balanced_sentinel(self):
        # With one rank there is no one to straggle against: every step
        # must report -1, not rank 0.
        t = CommTracker(1)
        tracer = StepTracer(t).install()
        with t.step_scope():
            t.charge(0, Category.SPMM, 2.5e-6)
        tracer.uninstall()
        assert tracer.straggler_counts() == {-1: 1}
        assert tracer.events[0].balanced

    def test_timeline_rejects_degenerate_dimensions(self):
        tracer = self._one_step_tracer()
        with pytest.raises(ValueError, match="width"):
            tracer.timeline(width=0)
        with pytest.raises(ValueError, match="max_rows"):
            tracer.timeline(max_rows=0)

    def test_timeline_truncates_with_marker(self):
        t = CommTracker(1)
        tracer = StepTracer(t).install()
        for _ in range(5):
            with t.step_scope():
                t.charge(0, Category.MISC, 1e-6)
        tracer.uninstall()
        text = tracer.timeline(max_rows=2)
        assert "... 3 more steps" in text
        assert text.count("step ") == 2

    def test_top_steps_ranks_all_categories(self):
        t = CommTracker(2)
        tracer = StepTracer(t).install()
        for rank, cat, sec in (
            (0, Category.DCOMM, 3e-6),
            (1, Category.SPMM, 9e-6),
            (0, Category.MISC, 1e-6),
        ):
            with t.step_scope():
                t.charge(rank, cat, sec)
        tracer.uninstall()
        top = tracer.top_steps(2)
        assert [e.dominant_category for e in top] == [
            Category.SPMM, Category.DCOMM
        ]

    def test_straggler_counts_mark_balanced_steps(self):
        t = CommTracker(2)
        tracer = StepTracer(t).install()
        with t.step_scope():  # perfectly balanced: both ranks equal
            t.charge(0, Category.DCOMM, 5e-6)
            t.charge(1, Category.DCOMM, 5e-6)
        with t.step_scope():  # rank 1 straggles
            t.charge(0, Category.SPMM, 1e-6)
            t.charge(1, Category.SPMM, 8e-6)
        tracer.uninstall()
        assert tracer.straggler_counts() == {-1: 1, 1: 1}
        assert tracer.events[0].balanced
        assert not tracer.events[1].balanced

    def test_exception_mid_step_keeps_trace_and_ledger_aligned(self):
        """A failing step must itemise whatever it charged: the tracker's
        finally-block records the charges, so the tracer must too."""
        t = CommTracker(2)
        tracer = StepTracer(t).install()
        with pytest.raises(RuntimeError, match="boom"):
            with t.step_scope():
                t.charge(0, Category.DCOMM, 4e-6)
                raise RuntimeError("boom")
        tracer.uninstall()
        assert len(tracer.events) == 1
        assert tracer.total_seconds() == pytest.approx(t.wall_seconds())
