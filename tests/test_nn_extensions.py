"""Extensions beyond the paper's needs: Adam, schedulers, GroupNorm,
residual blocks and the tiny ResNet."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import SGD, GroupNorm, Residual, resnet_tiny
from repro.nn.layers import Conv2d, Linear, ReLU
from repro.nn.loss import CrossEntropyLoss
from repro.nn.module import Sequential
from repro.nn.parameter import Parameter

from helpers import check_module_gradients, to_float64
from retired import Adam, ConstantLR, CosineAnnealingLR, ExponentialLR, StepLR


def _param(value) -> Parameter:
    return Parameter(np.array(value, dtype=np.float64))


class TestAdam:
    def test_first_step_is_lr_sized(self):
        # Adam's bias correction makes |step 1| == lr for any gradient.
        p = _param([1.0])
        p.grad[:] = [123.0]
        Adam([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [0.9], atol=1e-6)

    def test_converges_on_quadratic(self):
        p = _param([5.0])
        opt = Adam([p], lr=0.2)
        for _ in range(400):
            p.grad[:] = 2 * p.data  # d/dx x^2
            opt.step()
        assert abs(p.data[0]) < 1e-2

    def test_adamw_decay_decoupled(self):
        p = _param([1.0])
        p.grad[:] = [0.0]
        opt = Adam([p], lr=0.1, weight_decay=0.1, decoupled_weight_decay=True)
        opt.step()
        # Zero gradient: only the decoupled decay moves the weight.
        np.testing.assert_allclose(p.data, [1.0 - 0.1 * 0.1 * 1.0], atol=1e-9)

    def test_reset_state(self):
        p = _param([1.0])
        opt = Adam([p], lr=0.1)
        p.grad[:] = [1.0]
        opt.step()
        opt.reset_state()
        assert opt._t == 0
        assert not opt._m[0].any()

    def test_validation(self):
        with pytest.raises(ValueError, match="betas"):
            Adam([_param([0.0])], betas=(1.0, 0.9))
        with pytest.raises(ValueError, match="eps"):
            Adam([_param([0.0])], eps=0.0)

    def test_trains_a_model(self, rng):
        model = Sequential(("fc", Linear(4, 3, rng)))
        loss = CrossEntropyLoss()
        opt = Adam(model.parameters(), lr=0.05)
        x = rng.standard_normal((16, 4)).astype(np.float32)
        y = rng.integers(0, 3, size=16)
        first = None
        for _ in range(60):
            model.zero_grad()
            value = loss.forward(model.forward(x), y)
            first = first if first is not None else value
            model.backward(loss.backward())
            opt.step()
        assert value < first * 0.5


class TestSchedulers:
    def _opt(self):
        return SGD([_param([0.0])], lr=1.0)

    def test_constant(self):
        sched = ConstantLR(self._opt())
        for _ in range(5):
            assert sched.step() == 1.0

    def test_step_lr(self):
        sched = StepLR(self._opt(), step_size=2, gamma=0.1)
        lrs = [sched.step() for _ in range(5)]
        np.testing.assert_allclose(lrs, [1.0, 0.1, 0.1, 0.01, 0.01])

    def test_exponential(self):
        sched = ExponentialLR(self._opt(), gamma=0.5)
        lrs = [sched.step() for _ in range(3)]
        np.testing.assert_allclose(lrs, [0.5, 0.25, 0.125])

    def test_cosine_endpoints(self):
        opt = self._opt()
        sched = CosineAnnealingLR(opt, t_max=10, eta_min=0.01)
        first = sched.lr_at(0)
        last = sched.lr_at(10)
        assert first == pytest.approx(1.0)
        assert last == pytest.approx(0.01)
        # Monotone decreasing over the horizon.
        lrs = [sched.lr_at(t) for t in range(11)]
        assert all(a >= b - 1e-12 for a, b in zip(lrs, lrs[1:]))

    def test_cosine_clamps_past_horizon(self):
        sched = CosineAnnealingLR(self._opt(), t_max=5, eta_min=0.01)
        assert sched.lr_at(50) == pytest.approx(0.01)

    def test_scheduler_writes_optimizer(self):
        opt = self._opt()
        sched = StepLR(opt, step_size=1, gamma=0.5)
        sched.step()
        assert opt.lr == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            StepLR(self._opt(), step_size=0)
        with pytest.raises(ValueError):
            CosineAnnealingLR(self._opt(), t_max=0)


class TestGroupNorm:
    def test_gradcheck(self, rng):
        layer = to_float64(GroupNorm(2, 4))
        check_module_gradients(
            layer, rng.standard_normal((3, 4, 3, 3)), rng, rtol=5e-4, atol=1e-5
        )

    def test_normalises_per_sample(self, rng):
        layer = GroupNorm(2, 6)
        x = rng.standard_normal((4, 6, 5, 5)) * 7 + 3
        out = layer.forward(x)
        grouped = out.reshape(4, 2, 3, 5, 5)
        np.testing.assert_allclose(grouped.mean(axis=(2, 3, 4)), 0.0, atol=1e-5)
        np.testing.assert_allclose(grouped.std(axis=(2, 3, 4)), 1.0, atol=1e-2)

    def test_no_batch_coupling(self, rng):
        """A sample's output is independent of its batch mates — the
        property that makes GroupNorm safe for non-IID FL."""
        layer = GroupNorm(1, 3)
        a = rng.standard_normal((1, 3, 4, 4))
        solo = layer.forward(a.copy())
        noisy_batch = np.concatenate([a, 100 * rng.standard_normal((5, 3, 4, 4))])
        together = layer.forward(noisy_batch)[:1]
        np.testing.assert_allclose(solo, together, rtol=1e-6)

    def test_all_params_federate(self):
        layer = GroupNorm(2, 4)
        assert [n for n, _ in layer.named_parameters()] == ["gamma", "beta"]
        # No running buffers exist at all.
        assert not hasattr(layer, "running_mean")

    def test_validation(self):
        with pytest.raises(ValueError, match="divide"):
            GroupNorm(3, 4)
        with pytest.raises(ValueError, match="positive"):
            GroupNorm(0, 4)
        with pytest.raises(ValueError, match="expected"):
            GroupNorm(2, 4).forward(np.zeros((1, 3, 2, 2)))


class TestResidual:
    def test_gradcheck(self, rng):
        body = Sequential(
            ("conv", Conv2d(2, 2, 3, rng, padding=1)),
            ("act", ReLU()),
        )
        block = to_float64(Residual(body))
        x = rng.standard_normal((2, 2, 4, 4))
        x[np.abs(x) < 0.05] += 0.2  # keep away from the ReLU kink
        check_module_gradients(block, x, rng)

    def test_identity_contribution(self, rng):
        """With a zeroed body the block is the identity."""
        body = Sequential(("conv", Conv2d(1, 1, 3, rng, padding=1)))
        body["conv"].weight.data[...] = 0
        body["conv"].bias.data[...] = 0
        block = Residual(body)
        x = rng.standard_normal((1, 1, 4, 4))
        np.testing.assert_allclose(block.forward(x), x)

    def test_shape_change_rejected(self, rng):
        block = Residual(Sequential(("conv", Conv2d(1, 2, 3, rng, padding=1))))
        with pytest.raises(ValueError, match="changed shape"):
            block.forward(rng.standard_normal((1, 1, 4, 4)))

    def test_train_eval_propagates(self, rng):
        block = Residual(Sequential(("act", ReLU())))
        block.eval()
        assert not block.body.training
        block.train()
        assert block.body.training


class TestResnetTiny:
    def test_forward_backward(self, rng):
        model = resnet_tiny((3, 16, 16), 10, rng, width=4, n_blocks=2, groups=2)
        x = rng.standard_normal((2, 3, 16, 16)).astype(np.float32)
        out = model.forward(x)
        assert out.shape == (2, 10)
        grad = model.backward(np.ones_like(out) / out.size)
        assert grad.shape == x.shape

    def test_learns(self, rng):
        model = resnet_tiny((1, 8, 8), 4, rng, width=4, n_blocks=1, groups=2)
        loss = CrossEntropyLoss()
        opt = SGD(model.parameters(), lr=0.1, momentum=0.9)
        x = rng.standard_normal((16, 1, 8, 8)).astype(np.float32)
        y = rng.integers(0, 4, size=16)
        for _ in range(40):
            model.zero_grad()
            value = loss.forward(model.forward(x), y)
            model.backward(loss.backward())
            opt.step()
        assert value < 0.2

    def test_in_registry_and_federates(self, planted_federation, fast_train_cfg):
        from repro.algorithms.fedavg import FedAvg
        from repro.fl.simulation import FederatedEnv

        env = FederatedEnv(
            planted_federation,
            model_name="resnet_tiny",
            model_kwargs={"width": 4, "n_blocks": 1, "groups": 2},
            train_cfg=fast_train_cfg,
            seed=0,
        )
        result = FedAvg().run(env, n_rounds=2, eval_every=2)
        assert 0.0 <= result.final_accuracy <= 1.0

    def test_width_groups_validation(self, rng):
        with pytest.raises(ValueError, match="divide"):
            resnet_tiny((1, 8, 8), 4, rng, width=5, groups=2)
