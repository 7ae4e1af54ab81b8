"""Serial GCN reference: the paper's equations, gradient-checked."""

import numpy as np
import pytest

from repro.graph import make_synthetic
from repro.nn.activations import Identity, ReLU
from repro.nn.layers import GCNLayer
from repro.nn.loss import nll_loss
from repro.nn.model import GCN, SerialTrainer
from repro.nn.optim import SGD, Adam
from repro.sparse.csr import CSRMatrix
from repro.sparse.spmm import spmm


@pytest.fixture(scope="module")
def ds():
    return make_synthetic(n=48, avg_degree=4, f=10, n_classes=3, seed=9)


class TestGCNLayer:
    def test_forward_equation(self, ds):
        """Z = A^T H W, H' = sigma(Z) -- checked against dense algebra."""
        rng = np.random.default_rng(0)
        w = rng.standard_normal((10, 6))
        layer = GCNLayer(w, ReLU())
        h = ds.features
        out, cache = layer.forward(ds.adjacency, h)
        a_dense = ds.adjacency.to_dense()
        expected_z = a_dense @ h @ w
        np.testing.assert_allclose(cache.z, expected_z, atol=1e-10)
        np.testing.assert_allclose(out, np.maximum(expected_z, 0), atol=1e-10)

    def test_cache_reuses_spmm_product(self, ds):
        """The input layer, a growing and an equal-width layer aggregate
        first and keep ``T = A^T H`` for Equation 3's first form."""
        rng = np.random.default_rng(1)
        for layer in (
            GCNLayer(rng.standard_normal((10, 4)), Identity(),
                     input_layer=True),
            GCNLayer(rng.standard_normal((10, 12)), Identity()),
            GCNLayer(rng.standard_normal((10, 10)), Identity()),
        ):
            _, cache = layer.forward(ds.adjacency, ds.features)
            np.testing.assert_array_equal(
                cache.t, spmm(ds.adjacency, ds.features))

    def test_shrinking_layer_projects_first(self, ds):
        """``Z = A^T (H W)``: no ``A^T H`` at the wide width is formed or
        kept, and the weight gradient is Equation 3's second form."""
        rng = np.random.default_rng(1)
        w = rng.standard_normal((10, 4))
        layer = GCNLayer(w, Identity())
        _, cache = layer.forward(ds.adjacency, ds.features)
        assert cache.t is None
        np.testing.assert_array_equal(
            cache.z, spmm(ds.adjacency, ds.features @ w))
        g_out = rng.standard_normal((48, 4))
        grad_h, grad_w, _ = layer.backward(ds.adjacency, cache, g_out)
        ag = spmm(ds.adjacency, g_out)
        np.testing.assert_array_equal(grad_w, ds.features.T @ ag)
        np.testing.assert_array_equal(grad_h, ag @ w.T)

    def test_growing_layer_projects_first_backward(self, ds):
        """``A (G W^T)``: the backward aggregation runs at ``f_in``."""
        rng = np.random.default_rng(1)
        w = rng.standard_normal((10, 12))
        layer = GCNLayer(w, Identity())
        _, cache = layer.forward(ds.adjacency, ds.features)
        g_out = rng.standard_normal((48, 12))
        grad_h, _, _ = layer.backward(ds.adjacency, cache, g_out)
        np.testing.assert_array_equal(
            grad_h, spmm(ds.adjacency, g_out @ w.T))

    @pytest.mark.parametrize("shape", [(10, 4), (10, 12), (10, 10)])
    def test_both_orders_agree(self, ds, shape):
        """The rule picks between equal products: a reordered layer and
        the input-layer (never reordered) form of the same weight agree
        to reassociation."""
        rng = np.random.default_rng(3)
        w = rng.standard_normal(shape)
        g_out = rng.standard_normal((48, shape[1]))
        outs = []
        for input_layer in (False, True):
            layer = GCNLayer(w, ReLU(), input_layer=input_layer)
            h, cache = layer.forward(ds.adjacency, ds.features)
            outs.append((h,) + layer.backward(ds.adjacency, cache, g_out))
        for a, b in zip(*outs):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_width_mismatch_rejected(self, ds):
        layer = GCNLayer(np.zeros((7, 4)))
        with pytest.raises(ValueError, match="width"):
            layer.forward(ds.adjacency, ds.features)

    def test_backward_weight_gradient_identity_activation(self, ds):
        """For identity sigma, Y = (A^T H)^T G exactly."""
        rng = np.random.default_rng(2)
        layer = GCNLayer(rng.standard_normal((10, 4)), Identity())
        h = ds.features
        _, cache = layer.forward(ds.adjacency, h)
        g_out = rng.standard_normal((48, 4))
        _, grad_w, g = layer.backward(ds.adjacency, cache, g_out)
        a_dense = ds.adjacency.to_dense()
        np.testing.assert_allclose(
            grad_w, (a_dense @ h).T @ g_out, atol=1e-10
        )
        # Equation 3's reuse identity: (A^T H)^T G == H^T (A G).
        np.testing.assert_allclose(
            grad_w, h.T @ (a_dense @ g_out), atol=1e-10
        )


class TestGCNGradients:
    def _finite_diff_check(self, ds, widths, seed, n_probes=6):
        model = GCN(widths, seed=seed)
        a = ds.adjacency
        lp, caches = model.forward(a, ds.features)
        loss, gout = nll_loss(lp, ds.labels)
        grads = model.backward(a, caches, gout)
        rng = np.random.default_rng(seed)
        eps = 1e-6
        for li, w in enumerate(model.weights):
            for _ in range(n_probes):
                i = int(rng.integers(w.shape[0]))
                j = int(rng.integers(w.shape[1]))
                w[i, j] += eps
                lp2, _ = model.forward(a, ds.features)
                l2, _ = nll_loss(lp2, ds.labels)
                w[i, j] -= 2 * eps
                lp3, _ = model.forward(a, ds.features)
                l3, _ = nll_loss(lp3, ds.labels)
                w[i, j] += eps
                fd = (l2 - l3) / (2 * eps)
                assert grads[li][i, j] == pytest.approx(fd, abs=1e-6), (
                    f"layer {li} entry ({i},{j})"
                )

    def test_two_layer_gradients(self, ds):
        self._finite_diff_check(ds, (10, 6, 3), seed=1)

    def test_three_layer_gradients(self, ds):
        """The paper's L=3 architecture."""
        self._finite_diff_check(ds, (10, 16, 16, 3), seed=2)

    def test_deep_gradients(self):
        ds5 = make_synthetic(n=30, avg_degree=3, f=6, n_classes=2, seed=3)
        self._finite_diff_check(ds5, (6, 5, 5, 5, 2), seed=3, n_probes=3)


class TestTraining:
    def test_loss_decreases(self, ds):
        trainer = SerialTrainer.for_dataset(ds, hidden=8, optimizer=SGD(lr=0.5))
        hist = trainer.train(ds.features, ds.labels, epochs=30)
        assert hist.final_loss < hist.losses[0]

    def test_adam_trains(self, ds):
        trainer = SerialTrainer.for_dataset(ds, hidden=8, optimizer=Adam(lr=0.02))
        hist = trainer.train(ds.features, ds.labels, epochs=30)
        assert hist.final_loss < hist.losses[0]

    def test_deterministic_training(self, ds):
        h1 = SerialTrainer.for_dataset(ds, seed=4, optimizer=SGD(lr=0.1)).train(
            ds.features, ds.labels, epochs=5
        )
        h2 = SerialTrainer.for_dataset(ds, seed=4, optimizer=SGD(lr=0.1)).train(
            ds.features, ds.labels, epochs=5
        )
        np.testing.assert_array_equal(h1.losses, h2.losses)

    def test_directed_adjacency_distinct_transpose(self):
        """A vs A^T handled explicitly (the paper supports directed)."""
        from repro.graph.generators import erdos_renyi
        from repro.graph.normalize import row_normalize, add_self_loops

        adj = row_normalize(add_self_loops(erdos_renyi(40, 4.0, seed=5, directed=True)))
        at = adj.transpose()
        model = GCN((8, 6, 3), seed=0)
        rng = np.random.default_rng(6)
        feats = rng.standard_normal((40, 8))
        labels = rng.integers(0, 3, 40)
        trainer = SerialTrainer(model, at, a=adj, optimizer=SGD(lr=0.2))
        hist = trainer.train(feats, labels, epochs=15)
        assert hist.final_loss < hist.losses[0]

    def test_set_weights_validation(self):
        model = GCN((4, 3), seed=0)
        with pytest.raises(ValueError):
            model.set_weights([np.zeros((4, 2))])
        with pytest.raises(ValueError):
            model.set_weights([])

    def test_predict_matches_forward(self, ds):
        model = GCN(ds.layer_widths(hidden=8), seed=1)
        out, _ = model.forward(ds.adjacency, ds.features)
        np.testing.assert_array_equal(
            model.predict(ds.adjacency, ds.features), out
        )

    def test_history_empty_raises(self):
        from repro.nn.model import TrainHistory

        with pytest.raises(ValueError):
            TrainHistory().final_loss
