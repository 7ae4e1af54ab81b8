"""The one serial reference both verification paths share.

:func:`repro.dist.base.serial_divergence` trains the serial GCN from the
distributed side's fresh weights, on the distributed side's internal
vertex order, and returns the largest of the per-epoch loss, final
weight and final log-probability differences.  Fed a distributed side
that is itself a serial run, it reads exactly 0; a planted offset in
any one of the three outputs is what it reads; and a relabelling
distribution is undone before the predictions are compared.  Both
``verify_against_serial`` methods -- the virtual runtime's and the
process backend's -- report what it returns.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dist import base, make_algorithm, make_distribution
from repro.graph import make_synthetic
from repro.nn.model import GCN, SerialTrainer
from repro.nn.optim import SGD

HIDDEN = 8
EPOCHS = 3
SEED = 4
OFFSET = 0.25


@pytest.fixture(scope="module")
def ds():
    return make_synthetic(n=60, avg_degree=4, f=8, n_classes=3, seed=11)


def serial_run(ds, widths):
    """A serial run in the original vertex order: ``(losses, weights,
    log_probs)``, the shape ``serial_divergence``'s callback returns."""
    trainer = SerialTrainer(GCN(widths, seed=SEED), ds.adjacency,
                            optimizer=SGD(lr=0.1))
    hist = trainer.train(ds.features, ds.labels, EPOCHS)
    return (list(hist.losses), trainer.model.weights,
            trainer.model.predict(ds.adjacency, ds.features))


def divergence(ds, distributed, distribution=None):
    widths = ds.layer_widths(hidden=HIDDEN, layers=3)
    a_t = (ds.adjacency if distribution is None
           else distribution.permute_matrix(ds.adjacency))
    return base.serial_divergence(
        widths, SEED, SGD(lr=0.1), a_t, a_t, distribution, ds.features,
        ds.labels, EPOCHS, None, distributed)


def test_a_serial_run_diverges_from_the_reference_by_zero(ds):
    widths = ds.layer_widths(hidden=HIDDEN, layers=3)
    assert divergence(ds, lambda: serial_run(ds, widths)) == 0.0


@pytest.mark.parametrize("output", ["loss", "weight", "log_probs"])
def test_an_offset_in_any_output_is_what_it_reads(ds, output):
    widths = ds.layer_widths(hidden=HIDDEN, layers=3)

    def distributed():
        losses, weights, log_probs = serial_run(ds, widths)
        weights = [w.copy() for w in weights]
        log_probs = log_probs.copy()
        if output == "loss":
            losses[-1] += OFFSET
        elif output == "weight":
            weights[1][0, 0] += OFFSET
        else:
            log_probs[7, 1] += OFFSET
        return losses, weights, log_probs

    assert divergence(ds, distributed) == pytest.approx(OFFSET, rel=1e-12)


def test_a_distribution_is_undone_before_predictions_are_compared(ds):
    """The reference trains on the relabelled operand and features and
    maps its predictions back: a serial run in the original order agrees
    up to summation order."""
    dist = make_distribution("multilevel", ds.adjacency, 4, seed=0)
    assert not np.array_equal(dist.permute_rows(ds.features), ds.features)
    widths = ds.layer_widths(hidden=HIDDEN, layers=3)
    assert divergence(ds, lambda: serial_run(ds, widths), dist) < 1e-10


@pytest.mark.parametrize("backend", ["virtual", "process"])
def test_both_verification_paths_report_the_shared_reference(
        ds, monkeypatch, backend):
    seen, real = [], base.serial_divergence

    def recording(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(base, "serial_divergence", recording)
    algo = make_algorithm("1d", 2, ds, hidden=HIDDEN, seed=SEED,
                          backend=backend,
                          **({"workers": 2} if backend == "process" else {}))
    try:
        got = algo.verify_against_serial(ds.features, ds.labels, EPOCHS)
    finally:
        if backend == "process":
            algo.rt.close()
    assert seen == [got]
    assert got < 1e-10
