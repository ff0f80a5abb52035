"""Module system: registration, naming, state dicts, train/eval modes."""

from __future__ import annotations

import numpy as np
import pytest

import repro.nn.layers.conv as conv_module
from repro.data.synthetic import make_dataset
from repro.fl.client import local_train
from repro.fl.config import TrainConfig
from repro.nn.layers import Dropout, Linear, ReLU
from repro.nn.models import Residual, available_models, build_model, lenet5
from repro.nn.module import Module, Sequential, first_param_index
from repro.nn.parameter import Parameter


class TestParameter:
    def test_grad_starts_zero(self, rng):
        p = Parameter(rng.standard_normal((3, 2)))
        assert p.grad.shape == (3, 2)
        assert not p.grad.any()

    def test_accumulate(self, rng):
        p = Parameter(np.zeros((2, 2)))
        p.accumulate_grad(np.ones((2, 2)))
        p.accumulate_grad(np.ones((2, 2)))
        np.testing.assert_allclose(p.grad, 2.0)

    def test_accumulate_shape_mismatch_raises(self):
        p = Parameter(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="gradient shape"):
            p.accumulate_grad(np.ones((2, 3)))

    def test_copy_casts_dtype(self):
        p = Parameter(np.zeros((2,), dtype=np.float32))
        p.copy_(np.array([1.5, 2.5], dtype=np.float64))
        assert p.data.dtype == np.float32
        np.testing.assert_allclose(p.data, [1.5, 2.5])

    def test_copy_shape_mismatch_raises(self):
        p = Parameter(np.zeros((2,)))
        with pytest.raises(ValueError, match="cannot load"):
            p.copy_(np.zeros((3,)))

    def test_zero_grad_in_place(self):
        p = Parameter(np.zeros(3))
        buffer = p.grad
        p.grad += 5
        p.zero_grad()
        assert p.grad is buffer  # no reallocation
        assert not p.grad.any()


class TestModuleTree:
    def _model(self, rng) -> Sequential:
        return Sequential(
            ("fc1", Linear(4, 3, rng)),
            ("act", ReLU()),
            ("fc2", Linear(3, 2, rng)),
        )

    def test_named_parameters_qualified(self, rng):
        model = self._model(rng)
        names = [n for n, _ in model.named_parameters()]
        assert names == ["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]

    def test_finalize_names_stamps_parameters(self, rng):
        model = self._model(rng).finalize_names()
        assert model[0].weight.name == "fc1.weight"

    def test_num_parameters(self, rng):
        model = self._model(rng)
        assert model.num_parameters() == 4 * 3 + 3 + 3 * 2 + 2

    def test_zero_grad_recursive(self, rng):
        model = self._model(rng)
        for p in model.parameters():
            p.grad += 1.0
        model.zero_grad()
        assert all(not p.grad.any() for p in model.parameters())

    def test_state_dict_roundtrip(self, rng):
        model = self._model(rng)
        state = model.state_dict()
        for p in model.parameters():
            p.data[...] = 0
        model.load_state_dict(state)
        for name, p in model.named_parameters():
            np.testing.assert_array_equal(p.data, state[name])

    def test_state_dict_copy_semantics(self, rng):
        model = self._model(rng)
        state = model.state_dict(copy=True)
        model[0].weight.data += 99.0
        assert not np.allclose(state["fc1.weight"], model[0].weight.data)

    def test_load_state_dict_strict(self, rng):
        model = self._model(rng)
        state = model.state_dict()
        state.pop("fc2.bias")
        with pytest.raises(KeyError, match="missing"):
            model.load_state_dict(state)

    def test_load_state_dict_unexpected_key(self, rng):
        model = self._model(rng)
        state = model.state_dict()
        state["bogus"] = np.zeros(1)
        with pytest.raises(KeyError, match="unexpected"):
            model.load_state_dict(state)

    def test_train_eval_propagates(self, rng):
        model = Sequential(("drop", Dropout(0.5, rng)), ("fc", Linear(2, 2, rng)))
        model.eval()
        assert not model.training
        assert not model["drop"].training
        model.train()
        assert model["drop"].training

    def test_sequential_indexing(self, rng):
        model = self._model(rng)
        assert isinstance(model[0], Linear)
        assert model["fc2"] is model[2]
        assert len(model) == 3

    def test_sequential_duplicate_name_raises(self, rng):
        with pytest.raises(ValueError, match="duplicate"):
            Sequential(("a", ReLU()), ("a", ReLU()))

    def test_sequential_rejects_non_module(self):
        with pytest.raises(TypeError):
            Sequential(("a", 42))  # type: ignore[arg-type]

    def test_forward_backward_chain(self, rng):
        model = self._model(rng)
        x = rng.standard_normal((5, 4)).astype(np.float32)
        out = model.forward(x)
        assert out.shape == (5, 2)
        grad = model.backward(np.ones_like(out))
        assert grad.shape == x.shape


class TestCustomModule:
    def test_attribute_registration(self, rng):
        class Custom(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.ones((2, 2)))
                self.inner = Linear(2, 2, rng)

            def forward(self, x):
                return self.inner.forward(x @ self.w.data)

        module = Custom()
        names = [n for n, _ in module.named_parameters()]
        assert names == ["w", "inner.weight", "inner.bias"]
        mods = dict(module.named_modules())
        assert "" in mods and "inner" in mods


def _grad_bytes(model: Module) -> list[bytes]:
    return [p.grad.tobytes() for p in model.parameters()]


class TestSkipInputGrad:
    """``backward(..., needs_input_grad=False)``: the training step's backward."""

    @pytest.mark.parametrize("name", available_models())
    def test_parameter_grads_identical_and_none_returned(self, name, rng):
        model = build_model(name, (3, 32, 32), 4, rng)
        x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        probe = rng.standard_normal((2, 4)).astype(np.float32)

        model.zero_grad()
        model.forward(x)
        assert model.backward(probe.copy()).shape == x.shape
        reference = _grad_bytes(model)

        model.zero_grad()
        model.forward(x)
        assert model.backward(probe.copy(), needs_input_grad=False) is None
        assert _grad_bytes(model) == reference

    def test_first_param_index_skips_parameterless_layers(self, rng):
        layers = [Dropout(0.0, rng), ReLU(), Linear(4, 3, rng), Linear(3, 2, rng)]
        assert first_param_index(layers) == 2
        assert first_param_index([ReLU(), Dropout(0.0, rng)]) is None

    def test_first_layer_of_another_type_gets_plain_backward(self, rng):
        body = Sequential(("fc", Linear(4, 4, rng)))
        model = Sequential(("res", Residual(body)), ("head", Linear(4, 2, rng)))
        model.forward(rng.standard_normal((5, 4)).astype(np.float32))
        assert model.backward(np.ones((5, 2), np.float32), needs_input_grad=False) is None
        assert np.any(body[0].weight.grad != 0)

    def test_nested_chain_takes_the_flag(self, rng):
        inner = Sequential(("fc", Linear(4, 3, rng)), ("act", ReLU()))
        model = Sequential(("inner", inner), ("head", Linear(3, 2, rng)))
        model.forward(rng.standard_normal((5, 4)).astype(np.float32))
        assert model.backward(np.ones((5, 2), np.float32), needs_input_grad=False) is None
        assert np.any(inner[0].weight.grad != 0)

    def test_parameterless_chain_runs_nothing(self):
        assert Sequential(ReLU()).backward(np.ones(3), needs_input_grad=False) is None

    def test_local_train_runs_col2im_for_conv2_only(self, rng, monkeypatch):
        calls: list[tuple[int, ...]] = []
        original = conv_module.col2im

        def counting_col2im(dcols, x_shape, *args):
            calls.append(tuple(x_shape))
            return original(dcols, x_shape, *args)

        monkeypatch.setattr(conv_module, "col2im", counting_col2im)
        model = lenet5((3, 32, 32), 10, rng)
        data = make_dataset("cifar10_like", 24, 0)
        cfg = TrainConfig(local_epochs=1, batch_size=8)
        _, n_batches = local_train(model, data, cfg, np.random.default_rng(0))
        assert n_batches == 3
        # One call per step, on conv2's (N, 6, 14, 14) input; never on
        # conv1's input images.
        assert calls == [(8, 6, 14, 14)] * n_batches
