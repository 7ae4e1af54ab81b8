"""Every sweep at the narrow side of its layer: the rule, its width
check, and what it must not cost.

``repro.nn.layers.sweep_order`` decides, once for the serial layer, both
shared distributed epochs and both schedule emitters, on which side of
its GEMM each SpMM sweep of a layer runs.  The generated-shapes
properties (``test_properties_dist.py``) hold the virtual runtime to
the serial reference and the simulator on arbitrary width tuples; this
file pins

* the rule itself, and the one width validation every entry point
  shares (trainer, simulator, CLI);
* the process backends: W = 2 over shm and tcp, a shrinking and a
  growing width tuple, 1D ghost and 2D -- losses and ledger digest equal
  the virtual run's bit for bit, also across a kill-and-recover fit;
* memory: a trained ``DistGCN1D`` holds its per-layer workspaces by
  design, so what it holds plus what an epoch adds stays within 10 % of
  the total before the rule (``H^{l-1}`` *replaces* ``T`` where a layer
  shrinks), an epoch adds under 1 MiB, and nothing ``f^0`` wide is kept
  but ``T^0`` and the private feature copy;
* an allocation-free block-row epoch: steady-state epochs page-fault
  (almost) never, on the virtual runtime and in each shm worker -- and a
  re-fit on an unchanged feature matrix does not ship it to the workers.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import tracemalloc
import types

import numpy as np
import pytest

from repro.cli import main
from repro.dist import ALGORITHMS, make_algorithm, make_runtime_for
from repro.graph import make_synthetic
from repro.nn import GCN
from repro.nn.layers import SweepOrder, check_widths, sweep_order, sweep_widths
from repro.parallel import ledger_digest
from repro.simulate import predict_epoch, sweep

EPOCHS = 3
WORKERS = 2
TRANSPORTS = ["shm", "tcp"]
#: 1D ghost exercises the partition-aware exchange, 2D the SUMMA path
#: (where a shrinking layer's ``_matmul_w`` stage loop now runs *before*
#: its sweep).
CONFIGS = [
    pytest.param("1d", {"variant": "ghost", "partition": "multilevel"},
                 id="1d-ghost"),
    pytest.param("2d", {}, id="2d"),
]
#: (hidden, classes): widths 10-6-6-3 (the last layer shrinks) and
#: 10-4-4-7 (it grows)
SHAPES = [pytest.param(6, 3, id="shrinking"), pytest.param(4, 7, id="growing")]


# --------------------------------------------------------------------- #
# the rule
# --------------------------------------------------------------------- #
class TestRule:
    def test_each_direction_projects_first_on_its_wide_side(self):
        assert sweep_order(64, 16) == SweepOrder(True, False)   # shrinking
        assert sweep_order(16, 64) == SweepOrder(False, True)   # growing
        assert sweep_order(16, 16) == SweepOrder(False, False)  # today's
        # the input layer is never reordered, whatever its shape
        assert sweep_order(128, 16, input_layer=True) == \
            SweepOrder(False, False)

    @pytest.mark.parametrize("widths,forward,backward", [
        ((128, 64, 64, 16), (64, 16), (64, 16)),      # v1d_dense: 160 units
        ((128, 16, 16, 256), (16, 16), (16, 16)),     # Protein: 64, was 304
        ((602, 16, 16, 41), (16, 16), (16, 16)),      # Reddit: 64, was 89
        ((12, 4, 9, 9, 3), (4, 9, 3), (4, 9, 3)),     # mixed
        ((10, 3), (), ()),                            # one layer: no sweep
    ])
    def test_sweep_widths_are_the_narrow_sides(self, widths, forward,
                                               backward):
        assert sweep_widths(widths) == (forward, backward)

    def test_serial_model_marks_only_its_first_layer(self):
        model = GCN((10, 6, 6, 3), seed=0)
        assert [layer.input_layer for layer in model.layers] == \
            [True, False, False]
        assert [layer.order.project_fwd for layer in model.layers] == \
            [False, False, True]


# --------------------------------------------------------------------- #
# widths are validated once, where the rule lives
# --------------------------------------------------------------------- #
MESSAGE = r"layer widths must be two or more integers >= 1"


@pytest.fixture(scope="module")
def tiny():
    return make_synthetic(n=30, avg_degree=3, f=6, n_classes=3, seed=7)


class TestWidthValidation:
    def test_accepts_and_normalises(self):
        assert check_widths([np.int64(4), 2]) == (4, 2)
        assert all(type(w) is int for w in check_widths([np.int64(4), 2]))

    @pytest.mark.parametrize("bad", [(4,), (), (4, 0), (4, -1, 2),
                                     (4, 2.0), (4, "2")])
    def test_rejects(self, bad):
        with pytest.raises(ValueError, match=MESSAGE):
            check_widths(bad)

    @pytest.mark.parametrize("hidden", [0, -1, 2.5])
    def test_trainer(self, tiny, hidden, monkeypatch):
        # ... before any rank is built
        monkeypatch.setattr(
            "repro.dist.registry.make_runtime_for",
            lambda *a, **k: pytest.fail("built a runtime first"))
        with pytest.raises(ValueError, match=MESSAGE):
            make_algorithm("1d", 4, tiny, hidden=hidden)
        with pytest.raises(ValueError, match=MESSAGE):
            GCN((6, hidden, 3))
        with pytest.raises(ValueError, match=MESSAGE):
            ALGORITHMS["2d"](make_runtime_for("2d", 4), tiny.adjacency,
                             (6, hidden, 3))

    @pytest.mark.parametrize("hidden", [0, -1, 2.5])
    def test_simulator(self, tiny, hidden):
        with pytest.raises(ValueError, match=MESSAGE):
            predict_epoch("1d", tiny, 4, hidden=hidden)
        with pytest.raises(ValueError, match=MESSAGE):
            sweep(tiny, ps=(4,), hidden=hidden)
        for name in sorted(ALGORITHMS):
            with pytest.raises(ValueError, match=MESSAGE):
                ALGORITHMS[name].emit_comm_schedule(tiny, (6, hidden, 3), 8)

    @pytest.mark.parametrize("hidden", ["0", "-1", "2.5"])
    @pytest.mark.parametrize("command", [
        ["simulate", "--algorithm", "1d", "--gpus", "4"],
        ["sweep", "--max-p", "16"],
        ["train", "--algorithm", "1d", "--gpus", "4", "--vertices", "40",
         "--epochs", "1"],
    ], ids=["simulate", "sweep", "train"])
    def test_cli(self, command, hidden, capsys):
        assert main(command + ["--hidden", hidden]) == 2
        captured = capsys.readouterr()
        assert "layer widths must be two or more integers >= 1" in \
            captured.err
        assert "sweeps:" not in captured.out

    def test_cli_prints_and_carries_the_sweep_widths(self, capsys, tmp_path):
        path = tmp_path / "sim.json"
        assert main(["simulate", "--algorithm", "1d", "--gpus", "4",
                     "--dataset", "protein", "--json", str(path)]) == 0
        assert ("sweeps: fwd 16,16  bwd 16,16 "
                "(narrow side of 128-16-16-256)") in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert doc["sweep_widths"] == {"forward": [16, 16],
                                       "backward": [16, 16]}
        # the last-layer backward sweep runs at 16, not at the 256 classes
        assert doc["bytes_by_category"]["dcomm"] == 13_433_459_808
        assert main(["sweep", "--dataset", "reddit", "--max-p", "16"]) == 0
        assert "sweeps: fwd 16,16  bwd 16,16 (narrow side of 602-16-16-41)" \
            in capsys.readouterr().out


# --------------------------------------------------------------------- #
# process backends: bit-equal to the virtual run on both shapes
# --------------------------------------------------------------------- #
def dataset(classes):
    return make_synthetic(n=61, avg_degree=4, f=10, n_classes=classes,
                          seed=11)


def run(ds, name, kw, hidden, fit_kw=None, **backend):
    """``(losses, digest)`` of an ``EPOCHS``-epoch fit, plus the pool's
    statistics (``None`` on the virtual runtime)."""
    algo = make_algorithm(name, 4, ds, hidden=hidden, seed=0, **kw,
                          **backend)
    try:
        hist = algo.fit(ds.features, ds.labels, epochs=EPOCHS,
                        **(fit_kw or {}))
        stats = algo.rt.backend_stats() if backend else None
        return (hist.losses, ledger_digest(algo.rt.tracker)), stats
    finally:
        if backend:
            algo.rt.close()


class TestProcessBackends:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("hidden,classes", SHAPES)
    @pytest.mark.parametrize("name,kw", CONFIGS)
    def test_bit_equal_to_virtual(self, name, kw, hidden, classes,
                                  transport):
        ds = dataset(classes)
        want, _ = run(ds, name, kw, hidden)
        got, _ = run(ds, name, kw, hidden, backend="process",
                     workers=WORKERS, transport=transport)
        assert got == want

    # each shape on each config and on each transport once
    @pytest.mark.parametrize("name,kw,hidden,classes,transport", [
        ("1d", {"variant": "ghost", "partition": "multilevel"}, 6, 3, "shm"),
        ("1d", {"variant": "ghost", "partition": "multilevel"}, 4, 7, "tcp"),
        ("2d", {}, 6, 3, "tcp"),
        ("2d", {}, 4, 7, "shm"),
    ], ids=["1d-ghost-shrinking-shm", "1d-ghost-growing-tcp",
            "2d-shrinking-tcp", "2d-growing-shm"])
    def test_kill_and_recover_ends_on_the_fault_free_digest(
            self, name, kw, hidden, classes, transport, tmp_path):
        ds = dataset(classes)
        want, _ = run(ds, name, kw, hidden)
        got, stats = run(
            ds, name, kw, hidden, backend="process", workers=WORKERS,
            transport=transport, max_restarts=3,
            faults="kill:worker=1,epoch=1,attempt=1",
            fit_kw=dict(checkpoint_path=str(tmp_path / "ck.npz"),
                        checkpoint_every=1))
        assert got == want
        assert stats["restarts"] == 1


# --------------------------------------------------------------------- #
# memory: workspaces held by design, nothing f^0 wide is kept
# --------------------------------------------------------------------- #
#: tracemalloc bytes of the workload below, measured by this test's own
#: procedure on the commit before the block-row workspaces (c0e7749,
#: Python 3.11 / NumPy 2.4): held by the trained algorithm (13 001 470)
#: plus the high-water mark of one more epoch above that (17 624 479).
#: The workspaces move the second into the first: 31 368 304 held, an
#: epoch adds 796 415.
PARENT_TOTAL_BYTES = 30_625_949
EPOCH_PEAK_BYTES = 1 << 20
WIDTHS = (128, 64, 64, 16)


@pytest.fixture(scope="module")
def dense4096():
    return make_synthetic(n=4096, avg_degree=8, f=WIDTHS[0],
                          n_classes=WIDTHS[-1], seed=0)


def reachable_arrays(root):
    """Every ndarray reachable from ``root`` through containers and
    instance attributes (not through modules, classes or code)."""
    skip = (type, types.ModuleType, types.FunctionType, types.MethodType,
            types.BuiltinFunctionType, types.CodeType, str, bytes, int,
            float)
    seen, stack, arrays = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            if obj.base is not None:
                stack.append(obj.base)
            continue
        stack.extend(gc.get_referents(obj))
    return arrays


def test_trained_1d_holds_no_more_than_before_the_rule(dense4096):
    ds = dense4096
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        algo = ALGORITHMS["1d"](make_runtime_for("1d", 4), ds.adjacency,
                                WIDTHS, seed=0)
        algo.fit(ds.features, ds.labels, epochs=2)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        algo.train_epoch(2)
        peak = tracemalloc.get_traced_memory()[1] - base - held
    finally:
        tracemalloc.stop()
    assert held + peak <= PARENT_TOTAL_BYTES * 1.10
    assert peak <= EPOCH_PEAK_BYTES
    kept = [a for a in reachable_arrays(algo)
            if a.ndim == 2 and a.shape[1] == WIDTHS[0]]
    allowed = {id(algo._features), *map(id, algo._t0.values())}
    assert kept and all(id(a) in allowed for a in kept)


# --------------------------------------------------------------------- #
# an epoch that allocates nothing: minor page faults per epoch
# --------------------------------------------------------------------- #
#: Ceiling on minor page faults per steady-state epoch.  Measured on the
#: workload above: virtual 1D P = 4 0, virtual 1.5D P = 8 0, each of two
#: shm workers (1D P = 4) 0-2.  Mutation check (run once, in a separate
#: copy of the tree): with the block-row workspaces reverted alone --
#: kernels allocating their outputs again, SpMM still compiled-only -- the
#: two virtual gates fail, at about 3 400 and 2 600 faults per epoch: glibc
#: trims the heap top the freed ``f``-wide arrays leave and the next
#: epoch faults it back in.  The shm workers' gate does not fire then
#: (0-3 per epoch; 1-4 on the commit before): a worker's heap is not
#: trimmed mid-fit.  What a worker did fault was each fit's shipped
#: feature matrix, about 1 000 faults per fit here, outside the window
#: (gated since by ``FAULTS_PER_REFIT``).  The shm form, a long fit's
#: faults less a short fit's per extra epoch, reads -0.4 to 0 per worker;
#: with ``_ws`` handing out (and keeping) a fresh workspace on every use
#: it reads about 3 700.
FAULTS_PER_EPOCH = 16
MEASURED_EPOCHS = 8


def minflt(pid=None) -> int:
    """Minor page faults so far of this process, or of process ``pid``
    (``/proc/<pid>/stat`` field 10)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with open(f"/proc/{pid}/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[7])


@pytest.mark.parametrize("name,p,kw", [
    ("1d", 4, {}),
    ("1.5d", 8, {"replication": 2}),
], ids=["1d", "1.5d-c2"])
def test_steady_state_epochs_do_not_fault(dense4096, name, p, kw):
    ds = dense4096
    algo = ALGORITHMS[name](make_runtime_for(name, p), ds.adjacency,
                            WIDTHS, seed=0, **kw)
    algo.fit(ds.features, ds.labels, epochs=2)
    before = minflt()
    for epoch in range(2, 2 + MEASURED_EPOCHS):
        algo.train_epoch(epoch)
    assert (minflt() - before) / MEASURED_EPOCHS <= FAULTS_PER_EPOCH


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                    reason="reads worker fault counts from /proc")
def test_steady_state_epochs_do_not_fault_in_shm_workers(dense4096):
    """Each worker's faults per epoch, as the difference of a short and
    a long fit on the same unchanged features after a warm-up fit: what
    a fit costs once (its set-up, its reply) is in both and cancels."""
    ds = dense4096
    short, long = 2, 2 + MEASURED_EPOCHS
    algo = make_algorithm("1d", 4, ds, hidden=WIDTHS[1], seed=0,
                          backend="process", workers=WORKERS,
                          transport="shm")
    try:
        algo.fit(ds.features, ds.labels, epochs=2)
        pids = [w["pid"] for w in algo.rt.backend_stats()["per_worker"]]
        deltas = []
        for epochs in (short, long):
            before = [minflt(pid) for pid in pids]
            algo.fit(ds.features, ds.labels, epochs=epochs)
            deltas.append([minflt(pid) - b for pid, b in zip(pids, before)])
    finally:
        algo.rt.close()
    per_epoch = [(d_long - d_short) / (long - short)
                 for d_short, d_long in zip(*deltas)]
    assert all(f <= FAULTS_PER_EPOCH for f in per_epoch), (per_epoch, deltas)


#: Ceiling on each shm worker's minor page faults per re-fit on an
#: unchanged feature matrix (a fresh array each time), averaged over
#: ``REFITS`` one-epoch re-fits after a first fit.  Measured on this
#: workload: 0-24 per re-fit and worker since an unchanged matrix ships
#: as the held marker; about 1 000 on the first re-fit before, when every
#: fit shipped the 4 MiB matrix and each worker copied it out of the
#: dispatch arena (later re-fits reused that heap: 2-7).
FAULTS_PER_REFIT = 16
REFITS = 4


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                    reason="reads worker fault counts from /proc")
def test_unchanged_features_are_not_shipped_to_shm_workers(dense4096):
    ds = dense4096
    algo = make_algorithm("1d", 4, ds, hidden=WIDTHS[1], seed=0,
                          backend="process", workers=WORKERS,
                          transport="shm")
    try:
        algo.fit(ds.features, ds.labels, epochs=2)
        pids = [w["pid"] for w in algo.rt.backend_stats()["per_worker"]]
        before = [minflt(pid) for pid in pids]
        for _ in range(REFITS):
            hist = algo.fit(ds.features.copy(), ds.labels, epochs=1)
            assert hist.setup.comm_bytes == 0
        faults = [minflt(pid) - b for pid, b in zip(pids, before)]
    finally:
        algo.rt.close()
    assert all(f / REFITS <= FAULTS_PER_REFIT for f in faults), faults
