"""The kept ``A^T H^0``: lifetime, accounting, and worker agreement.

``H^0`` is the dataset, so ``T^0 = A^T H^0`` is aggregated once per
feature matrix (``DistAlgorithm._install_features``) and every epoch and
every ``predict()`` starts from it.  These tests pin what that promises:

* one door -- ``setup`` and ``predict(features)`` install features the
  same way; the decision "is this matrix new?" is taken on content, on a
  private copy, so an in-place edit is picked up exactly when the array
  is installed again and an unchanged matrix costs nothing;
* an epoch is ``L - 1`` SpMM sweeps each way on every family, the
  set-up one sweep at ``f^0`` -- counted from the widths;
* on the process backend every worker reaches the same verdict, also
  when only one worker's rows changed, and also across a kill-and-recover
  fit, with losses and the ledger digest (set-up charge included) equal
  to the virtual run's.
"""

from __future__ import annotations

import os
import time
from typing import NamedTuple

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.comm import cost_model as cm
from repro.comm.tracker import Category
from repro.dist import make_algorithm
from repro.graph import make_synthetic
from repro.nn.layers import sweep_widths
from repro.parallel import ledger_digest

HIDDEN = 8
K = 3

#: every family; 1D in each of its backward variants
FAMILIES = [
    pytest.param("1d", 4, {"variant": "symmetric"}, id="1d-symmetric"),
    pytest.param("1d", 4, {"variant": "outer"}, id="1d-outer"),
    pytest.param("1d", 4, {"variant": "outer_sparse"}, id="1d-outer_sparse"),
    pytest.param("1d", 4, {"variant": "transpose"}, id="1d-transpose"),
    pytest.param("1d", 4, {"variant": "ghost", "partition": "multilevel"},
                 id="1d-ghost"),
    pytest.param("1.5d", 8, {"replication": 2}, id="1.5d-c2"),
    pytest.param("2d", 6, {"grid": (2, 3)}, id="2d-2x3"),
    pytest.param("3d", 8, {}, id="3d-8"),
]


@pytest.fixture(scope="module")
def ds():
    return make_synthetic(n=61, avg_degree=4, f=10, n_classes=3, seed=11)


def make(ds, name, p, kw, **extra):
    return make_algorithm(name, p, ds, hidden=HIDDEN, seed=0, **kw, **extra)


def edited(features, rows=slice(None)):
    out = features.copy()
    out[rows] = out[rows] * 0.5 + 1.0
    return out


def clone_trained(ds, name, p, kw, src):
    """A fresh algorithm holding ``src``'s weights (plain SGD carries no
    other training state)."""
    algo = make(ds, name, p, kw)
    algo.model.set_weights([w.copy() for w in src.model.weights])
    return algo


# --------------------------------------------------------------------- #
# one door for features
# --------------------------------------------------------------------- #
class TestOneDoor:
    @pytest.mark.parametrize("name,p,kw", FAMILIES)
    def test_in_place_edit_between_fits_is_picked_up(self, ds, name, p, kw):
        x = ds.features.copy()
        algo = make(ds, name, p, kw)
        algo.fit(x, ds.labels, epochs=2)
        fresh = clone_trained(ds, name, p, kw, algo)
        x[:] = edited(x)                        # same array, new content
        again = algo.fit(x, ds.labels, epochs=2)
        ref = fresh.fit(x.copy(), ds.labels, epochs=2)
        assert again.losses == ref.losses
        assert again.setup.comm_bytes == ref.setup.comm_bytes > 0
        np.testing.assert_array_equal(algo.predict(), fresh.predict())

    @pytest.mark.parametrize("name,p,kw", FAMILIES)
    def test_edit_after_setup_changes_nothing(self, ds, name, p, kw):
        x = ds.features.copy()
        algo, ref = make(ds, name, p, kw), make(ds, name, p, kw)
        algo.setup(x, ds.labels)
        ref.setup(ds.features, ds.labels)
        x[:] = edited(x)                        # no setup() follows
        for epoch in range(2):
            assert algo.train_epoch(epoch).loss == \
                ref.train_epoch(epoch).loss
        np.testing.assert_array_equal(algo.predict(), ref.predict())

    @pytest.mark.parametrize("name,p,kw", FAMILIES)
    def test_predict_new_features_keeps_training_state(self, ds, name, p,
                                                       kw):
        mask = np.arange(ds.num_vertices) % 3 != 0
        algo = make(ds, name, p, kw)
        algo.fit(ds.features, ds.labels, epochs=2, mask=mask)
        labels, kept = algo._labels.copy(), algo._mask.copy()
        new = edited(ds.features)
        fresh = clone_trained(ds, name, p, kw, algo)
        out = algo.predict(new)
        np.testing.assert_array_equal(out, algo.predict())
        np.testing.assert_array_equal(out, fresh.predict(new))
        np.testing.assert_array_equal(algo._labels, labels)
        np.testing.assert_array_equal(algo._mask, kept)
        # ... and training goes on, on the features predict() installed
        fresh.setup(new, ds.labels, mask)
        assert algo.train_epoch(2).loss == fresh.train_epoch(2).loss

    @pytest.mark.parametrize("name,p,kw", FAMILIES)
    def test_unchanged_features_cost_nothing_again(self, ds, name, p, kw):
        algo = make(ds, name, p, kw)
        tracker = algo.rt.tracker
        first = algo.fit(ds.features, ds.labels, epochs=1)
        assert first.setup.comm_bytes > 0
        per_epoch = []
        for k in (K, 1):
            before = tracker.total_messages()
            # a fresh array every call, as the process backend delivers it
            hist = algo.fit(ds.features.copy(), ds.labels, epochs=k)
            per_epoch.append((tracker.total_messages() - before) / k)
            assert hist.setup.comm_bytes == 0
            assert hist.setup.modeled_seconds == 0.0
        assert per_epoch[0] == per_epoch[1] == int(per_epoch[0]) > 0
        before = tracker.total_messages()
        algo.predict(ds.features.copy())
        algo.predict()
        assert tracker.total_messages() - before < 2 * per_epoch[0]

    def test_noncontiguous_and_integer_inputs_are_compared_by_value(self, ds):
        algo = make(ds, "1d", 4, {})
        wide = np.zeros((ds.num_vertices, 2 * ds.feature_width))
        wide[:, ::2] = ds.features
        first = algo.fit(wide[:, ::2], ds.labels, epochs=1)   # a strided view
        assert first.setup.comm_bytes > 0
        assert algo.fit(ds.features, ds.labels, epochs=1).setup.comm_bytes == 0
        ints = np.arange(ds.num_vertices * ds.feature_width).reshape(
            ds.num_vertices, -1) % 7
        assert algo.fit(ints, ds.labels, epochs=1).setup.comm_bytes > 0
        assert algo.fit(ints.astype(np.float64), ds.labels,
                        epochs=1).setup.comm_bytes == 0

    @pytest.mark.parametrize("name,p,kw", FAMILIES)
    def test_t0_is_private_and_setup_scratch_is_released(self, ds, name, p,
                                                         kw):
        x = ds.features.copy()
        algo = make(ds, name, p, kw)
        san = sanitize.enable()
        try:
            algo.setup(x, ds.labels)
            assert not san._cow            # set-up receipts verified, drained
        finally:
            sanitize.disable()
        assert not algo.workspace          # nothing f^0-wide stays behind
        assert not np.may_share_memory(algo._features, x)
        for block in algo._t0.values():
            assert block.flags.owndata and block.flags.writeable
            assert not np.may_share_memory(block, x)
        # a failed install leaves nothing half-installed
        with pytest.raises(ValueError, match="features shape"):
            algo.setup(x[:, :-1], ds.labels)
        assert algo.fit(x, ds.labels, epochs=1).setup.comm_bytes == 0


# --------------------------------------------------------------------- #
# L - 1 sweeps each way, counted from the widths
# --------------------------------------------------------------------- #
class TestSweepCounts:
    @pytest.mark.parametrize("name,p,kw", FAMILIES)
    def test_spmm_flops_are_l_minus_one_sweeps_each_way(self, ds, name, p,
                                                        kw):
        """Every family's blocks tile the operand, so one sweep at width
        ``f`` is ``2 nnz f`` flops whatever the layout; the widths are
        the narrow side of each layer above the first."""
        algo = make(ds, name, p, kw)
        widths, nnz = algo.widths, ds.adjacency.nnz
        tracker = algo.rt.tracker
        algo.setup(ds.features, ds.labels)
        assert tracker.total_flops(Category.SPMM) == 2 * nnz * widths[0]
        forward, backward = sweep_widths(widths)
        assert forward == backward == tuple(
            min(a, b) for a, b in zip(widths[1:-1], widths[2:]))
        sweeps = forward + backward
        for epoch in range(2):
            before = tracker.total_flops(Category.SPMM)
            algo.train_epoch(epoch)
            assert tracker.total_flops(Category.SPMM) - before == \
                2 * nnz * sum(sweeps)
        before = tracker.total_flops(Category.SPMM)
        algo.predict()
        assert tracker.total_flops(Category.SPMM) - before == \
            2 * nnz * sum(forward)

    @pytest.mark.parametrize("p", [4, 8])
    def test_1d_symmetric_dcomm_from_the_widths(self, ds, p):
        """All-gathers at the sweep widths, all-reduces of the loss pair
        and of each ``f^{l-1} x f^l`` weight gradient -- nothing else."""
        algo = make(ds, "1d", p, {"variant": "symmetric"})
        profile, n, w = algo.rt.profile, ds.num_vertices, algo.widths

        def gathered(f):
            return p * cm.allgather_cost(profile, n * f * 8, p).bytes_critical

        def reduced(nbytes):
            return p * cm.allreduce_cost(profile, nbytes, p).bytes_critical

        hist = algo.fit(ds.features, ds.labels, epochs=2)
        assert hist.setup.dcomm_bytes == gathered(w[0])
        forward, backward = sweep_widths(w)
        expected = (sum(gathered(f) for f in forward + backward) + reduced(16)
                    + sum(reduced(a * b * 8) for a, b in zip(w, w[1:])))
        assert [e.dcomm_bytes for e in hist.epochs] == [expected] * 2


# --------------------------------------------------------------------- #
# process backend: every worker reaches the same verdict
# --------------------------------------------------------------------- #
PROCESS_CONFIGS = [
    pytest.param("1d", 4, {}, id="1d"),
    pytest.param("1d", 4, {"variant": "ghost", "partition": "multilevel"},
                 id="1d-ghost"),
    pytest.param("2d", 4, {}, id="2d"),
]
TRANSPORTS = ["shm", "tcp"]
WORKERS = 2
#: the backend's own watchdog while these tests run, and how much of it a
#: fit may use: a worker that skipped the collective would hang its peer
#: until the watchdog fired
TIMEOUT = 30.0
WELL_INSIDE = 10.0


@pytest.fixture
def watchdog():
    old = os.environ.get("REPRO_PARALLEL_TIMEOUT")
    os.environ["REPRO_PARALLEL_TIMEOUT"] = str(TIMEOUT)
    yield
    if old is None:
        os.environ.pop("REPRO_PARALLEL_TIMEOUT", None)
    else:
        os.environ["REPRO_PARALLEL_TIMEOUT"] = old


def worker1_rows_changed(ds):
    """Only rows of the second half change: with no relabelling those
    belong to worker 1's ranks alone (block ownership, W = 2)."""
    n = ds.num_vertices
    return edited(ds.features, slice(n - n // 4, n))


class TwoFits(NamedTuple):
    losses: list
    first_setup: object
    second_setup: object
    digest: str
    second_fit_seconds: float


def two_fits(algo, ds, second, **fit_kw) -> TwoFits:
    """fit, fit again on ``second``; returns what the oracles compare."""
    first = algo.fit(ds.features, ds.labels, epochs=1)
    t0 = time.perf_counter()
    again = algo.fit(second, ds.labels, epochs=K, **fit_kw)
    seconds = time.perf_counter() - t0
    return TwoFits(first.losses + again.losses, first.setup, again.setup,
                   ledger_digest(algo.rt.tracker), seconds)


class TestWorkersDecideAlike:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("name,p,kw", PROCESS_CONFIGS)
    def test_one_workers_rows_change(self, ds, watchdog, name, p, kw,
                                     transport):
        second = worker1_rows_changed(ds)
        want = two_fits(make(ds, name, p, kw), ds, second)
        algo = make(ds, name, p, kw, backend="process", workers=WORKERS,
                    transport=transport)
        try:
            got = two_fits(algo, ds, second)
            # ... and the unchanged matrix costs no worker anything
            before = algo.rt.tracker.total_messages()
            quiet = algo.fit(second.copy(), ds.labels, epochs=1)
            moved = algo.rt.tracker.total_messages() - before
        finally:
            algo.rt.close()
        assert got[:4] == want[:4]       # losses, both set-ups, digest
        assert got.second_setup.comm_bytes > 0      # it re-aggregated
        assert got.second_fit_seconds < WELL_INSIDE
        assert quiet.setup.comm_bytes == 0
        assert moved * K == want_messages(ds, name, p, kw, second)

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_kill_and_recover_reaggregates(self, ds, watchdog, tmp_path,
                                           transport):
        """The respawned pool holds no ``T^0``: it aggregates again, the
        checkpoint's ledger overwrites that charge, and the final digest
        is the fault-free run's."""
        name, p, kw = "1d", 4, {"variant": "ghost",
                                "partition": "multilevel"}
        second = worker1_rows_changed(ds)
        want = two_fits(make(ds, name, p, kw), ds, second)
        # the first fit never reaches epoch 1: the kill lands in the second
        algo = make(ds, name, p, kw, backend="process", workers=WORKERS,
                    transport=transport, max_restarts=3,
                    faults="kill:worker=1,epoch=1,attempt=1")
        try:
            got = two_fits(algo, ds, second,
                           checkpoint_path=str(tmp_path / "ck.npz"),
                           checkpoint_every=1)
            stats = algo.rt.backend_stats(workers=False)
        finally:
            algo.rt.close()
        # (the respawned pool measures its set-up from an empty ledger,
        # the fault-free run as a difference: equal in bytes, not to the
        # last bit in seconds -- the digest is the oracle for those)
        assert got.losses == want.losses and got.digest == want.digest
        assert got.second_setup.bytes_by_category == \
            want.second_setup.bytes_by_category
        assert got.second_setup.comm_bytes > 0
        assert stats["restarts"] == 1


def want_messages(ds, name, p, kw, features):
    """Messages of a ``K``-epoch fit on already-installed features."""
    algo = make(ds, name, p, kw)
    algo.fit(features, ds.labels, epochs=1)
    before = algo.rt.tracker.total_messages()
    algo.fit(features, ds.labels, epochs=K)
    return algo.rt.tracker.total_messages() - before
