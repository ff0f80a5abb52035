"""Layer behaviours beyond gradients: shapes, modes, running statistics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers import (
    AvgPool2d,
    Conv2d,
    Dropout,
    Linear,
    MaxPool2d,
    ReLU,
    Sigmoid,
)

from retired import BatchNorm1d, BatchNorm2d


class TestShapes:
    def test_conv_output_shape(self, rng):
        layer = Conv2d(3, 8, 5, rng, stride=2, padding=2)
        out = layer.forward(rng.standard_normal((4, 3, 32, 32)).astype(np.float32))
        assert out.shape == (4, 8, 16, 16)
        assert layer.output_shape(32, 32) == (16, 16)

    def test_conv_rejects_wrong_channels(self, rng):
        layer = Conv2d(3, 8, 3, rng)
        with pytest.raises(ValueError, match="expected"):
            layer.forward(np.zeros((1, 2, 8, 8), dtype=np.float32))

    def test_linear_rejects_wrong_width(self, rng):
        layer = Linear(4, 2, rng)
        with pytest.raises(ValueError, match="expected"):
            layer.forward(np.zeros((1, 5), dtype=np.float32))

    def test_pool_shapes(self, rng):
        x = rng.standard_normal((2, 3, 8, 8))
        assert MaxPool2d(2).forward(x).shape == (2, 3, 4, 4)
        assert AvgPool2d(4).forward(x).shape == (2, 3, 2, 2)
        assert MaxPool2d(3, stride=1).forward(x).shape == (2, 3, 6, 6)

    def test_pool_rejects_3d(self, rng):
        with pytest.raises(ValueError, match="N, C, H, W"):
            MaxPool2d(2).forward(rng.standard_normal((3, 8, 8)))


class TestPoolSemantics:
    def test_maxpool_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = MaxPool2d(2).forward(x)
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_avgpool_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = AvgPool2d(2).forward(x)
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_maxpool_gradient_routing(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        layer = MaxPool2d(2)
        layer.forward(x)
        grad = layer.backward(np.ones((1, 1, 2, 2)))
        # Gradient lands exactly on the four maxima.
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1
        np.testing.assert_allclose(grad[0, 0], expected)


class TestActivations:
    def test_relu_clamps(self):
        out = ReLU().forward(np.array([-2.0, 0.0, 3.0]))
        np.testing.assert_allclose(out, [0.0, 0.0, 3.0])

    def test_sigmoid_extreme_stability(self):
        out = Sigmoid().forward(np.array([-1e4, 0.0, 1e4]))
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)


class TestDropout:
    def test_train_scales_survivors(self, rng):
        layer = Dropout(0.5, rng)
        x = np.ones((200, 50))
        out = layer.forward(x)
        survivors = out[out > 0]
        np.testing.assert_allclose(survivors, 2.0)  # inverted scaling
        assert 0.3 < (out > 0).mean() < 0.7

    def test_eval_is_identity(self, rng):
        layer = Dropout(0.9, rng).eval()
        x = rng.standard_normal((5, 5))
        np.testing.assert_array_equal(layer.forward(x), x)

    def test_p_zero_is_identity(self, rng):
        layer = Dropout(0.0, rng)
        x = rng.standard_normal((5, 5))
        np.testing.assert_array_equal(layer.forward(x), x)

    def test_invalid_p(self, rng):
        with pytest.raises(ValueError):
            Dropout(1.0, rng)


class TestBatchNorm:
    def test_train_normalises_batch(self, rng):
        layer = BatchNorm1d(4)
        x = rng.standard_normal((64, 4)) * 5 + 3
        out = layer.forward(x)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_running_stats_track(self, rng):
        layer = BatchNorm1d(3)
        for _ in range(200):
            layer.forward(rng.standard_normal((32, 3)) * 2 + 1)
        np.testing.assert_allclose(layer.running_mean, 1.0, atol=0.2)
        np.testing.assert_allclose(layer.running_var, 4.0, rtol=0.25)

    def test_eval_uses_running_stats(self, rng):
        layer = BatchNorm1d(2)
        for _ in range(50):
            layer.forward(rng.standard_normal((32, 2)))
        layer.eval()
        x = rng.standard_normal((4, 2)) + 100  # wildly off-distribution
        out = layer.forward(x)
        # Eval mode must NOT renormalise with the batch's own stats.
        assert out.mean() > 10

    def test_running_stats_not_in_state_dict(self, rng):
        """FedBN convention: buffers stay local, only gamma/beta federate."""
        layer = BatchNorm2d(3)
        keys = [n for n, _ in layer.named_parameters()]
        assert keys == ["gamma", "beta"]

    def test_bn2d_shape_check(self, rng):
        with pytest.raises(ValueError, match="BatchNorm2d"):
            BatchNorm2d(3).forward(np.zeros((2, 4, 5, 5)))

    def test_eval_backward_raises(self, rng):
        layer = BatchNorm1d(2).eval()
        layer.forward(rng.standard_normal((4, 2)))
        with pytest.raises(RuntimeError, match="training-mode"):
            layer.backward(np.ones((4, 2)))

    def test_momentum_validation(self):
        with pytest.raises(ValueError, match="momentum"):
            BatchNorm1d(2, momentum=0.0)
