"""Activations: values and exact derivatives (finite-difference checks)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn.activations import Identity, LogSoftmax, ReLU, get_activation


def finite_diff_vjp(act, z, grad_h, eps=1e-6):
    """Numerical dL/dZ where L = sum(grad_h * act(z)) (VJP check)."""
    out = np.zeros_like(z)
    for idx in np.ndindex(z.shape):
        zp = z.copy()
        zp[idx] += eps
        zm = z.copy()
        zm[idx] -= eps
        out[idx] = np.sum(grad_h * (act.forward(zp) - act.forward(zm))) / (2 * eps)
    return out


class TestReLU:
    def test_forward_values(self):
        act = ReLU()
        z = np.array([[-1.0, 0.0, 2.0]])
        np.testing.assert_array_equal(act.forward(z), [[0.0, 0.0, 2.0]])

    def test_backward_masks_negatives(self):
        act = ReLU()
        z = np.array([[-1.0, 3.0]])
        g = np.array([[5.0, 7.0]])
        np.testing.assert_array_equal(act.backward(z, g), [[0.0, 7.0]])

    def test_backward_equals_where_reference(self):
        # The mask multiply against the np.where reference on every
        # sign combination, incl. z == 0 (subgradient 0), zero and
        # negative gradients.  Equal as values; where the reference has
        # +0.0 the fast form may hold -0.0 (masked-out negative
        # gradient), which is the documented -- invisible -- difference.
        act = ReLU()
        z = np.array([[-2.0, -0.0, 0.0, 1.5],
                      [3.0, -1.0, 0.0, 2.0],
                      [0.5, 0.5, -0.5, -0.5]])
        g = np.array([[-4.0, -1.0, 2.0, -3.0],
                      [0.0, 0.0, -0.0, 5.0],
                      [-0.0, -7.0, -7.0, 7.0]])
        got = act.backward(z, g)
        ref = np.where(z > 0.0, g, 0.0)
        np.testing.assert_array_equal(got, ref)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert not got[z <= 0.0].any()              # masked out, any sign
        np.testing.assert_array_equal(got[z > 0.0], g[z > 0.0])
        # the one representational difference, and that sums cannot see it
        assert np.signbit(got[0, 0]) and not np.signbit(ref[0, 0])
        assert (got.sum(axis=0) == ref.sum(axis=0)).all()
        assert (z.T @ got == z.T @ ref).all()

    def test_elementwise_flag(self):
        assert ReLU().elementwise

    @given(
        z=hnp.arrays(np.float64, (3, 4), elements=st.floats(-5, 5, allow_nan=False)),
        g=hnp.arrays(np.float64, (3, 4), elements=st.floats(-2, 2, allow_nan=False)),
    )
    @settings(max_examples=20, deadline=None)
    def test_vjp_matches_finite_difference(self, z, g):
        # Keep away from the kink at 0 where the subgradient is ambiguous.
        z = np.where(np.abs(z) < 1e-3, 0.5, z)
        act = ReLU()
        np.testing.assert_allclose(
            act.backward(z, g), finite_diff_vjp(act, z, g), atol=1e-5
        )


class TestLogSoftmax:
    def test_rows_are_log_probabilities(self):
        act = LogSoftmax()
        z = np.random.default_rng(0).standard_normal((5, 7))
        lp = act.forward(z)
        np.testing.assert_allclose(np.exp(lp).sum(axis=1), 1.0, atol=1e-12)

    def test_shift_invariance(self):
        act = LogSoftmax()
        z = np.random.default_rng(1).standard_normal((4, 6))
        np.testing.assert_allclose(
            act.forward(z), act.forward(z + 100.0), atol=1e-9
        )

    def test_numerically_stable_for_large_inputs(self):
        act = LogSoftmax()
        z = np.array([[1e4, 0.0], [0.0, -1e4]])
        lp = act.forward(z)
        assert np.all(np.isfinite(lp))

    def test_not_elementwise(self):
        """The flag that triggers the row all-gather in 2D/3D algorithms
        (Sections IV-C.2, IV-D.2)."""
        assert not LogSoftmax().elementwise

    @given(seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_vjp_matches_finite_difference(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((3, 5))
        g = rng.standard_normal((3, 5))
        act = LogSoftmax()
        np.testing.assert_allclose(
            act.backward(z, g), finite_diff_vjp(act, z, g), atol=1e-5
        )

    def test_row_locality(self):
        """log_softmax of a row depends only on that row -- the property
        the paper uses to limit communication to a row all-gather."""
        act = LogSoftmax()
        rng = np.random.default_rng(2)
        z = rng.standard_normal((4, 5))
        z2 = z.copy()
        z2[3] += 10.0  # perturb a different row
        np.testing.assert_array_equal(act.forward(z)[0], act.forward(z2)[0])


class TestIdentityAndRegistry:
    def test_identity(self):
        act = Identity()
        z = np.ones((2, 2))
        np.testing.assert_array_equal(act.forward(z), z)
        g = np.full((2, 2), 3.0)
        np.testing.assert_array_equal(act.backward(z, g), g)

    def test_registry_lookup(self):
        assert get_activation("relu").name == "relu"
        assert get_activation("log_softmax").name == "log_softmax"
        assert get_activation("identity").name == "identity"

    def test_registry_unknown(self):
        with pytest.raises(KeyError, match="unknown activation"):
            get_activation("gelu")
