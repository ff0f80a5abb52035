"""The live dict-state helper, the dict-path oracles and the retired
state-dict arithmetic."""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest

from repro.nn.models import mlp
from repro.nn.state import flatten_state
from repro.nn.state_flat import StateLayout, unpack_state

from helpers import check_same_keys, state_axpy, state_zeros_like
from retired import (
    state_add,
    state_allclose,
    state_copy,
    state_dot,
    state_norm,
    state_scale,
    state_sub,
    unflatten_state,
)


def _state(rng) -> OrderedDict:
    return OrderedDict(
        [("a", rng.standard_normal((2, 3))), ("b", rng.standard_normal(4))]
    )


class TestArithmetic:
    def test_add_sub_roundtrip(self, rng):
        a, b = _state(rng), _state(rng)
        assert state_allclose(state_add(state_sub(a, b), b), a)

    def test_scale(self, rng):
        a = _state(rng)
        doubled = state_scale(a, 2.0)
        np.testing.assert_allclose(doubled["a"], 2 * a["a"])

    def test_axpy(self, rng):
        a, b = _state(rng), _state(rng)
        acc = OrderedDict((k, v.copy()) for k, v in a.items())
        state_axpy(acc, b, 0.5)
        np.testing.assert_allclose(acc["a"], a["a"] + 0.5 * b["a"])

    def test_zeros_like(self, rng):
        z = state_zeros_like(_state(rng))
        assert all(not v.any() for v in z.values())

    def test_copy_is_deep(self, rng):
        a = _state(rng)
        c = state_copy(a)
        c["a"][0, 0] = 1e9
        assert a["a"][0, 0] != 1e9

    def test_norm_matches_flat(self, rng):
        a = _state(rng)
        assert state_norm(a) == pytest.approx(
            float(np.linalg.norm(flatten_state(a)))
        )

    def test_dot_matches_flat(self, rng):
        a, b = _state(rng), _state(rng)
        assert state_dot(a, b) == pytest.approx(
            float(flatten_state(a) @ flatten_state(b))
        )

    def test_key_mismatch_raises(self, rng):
        a = _state(rng)
        b = OrderedDict([("a", a["a"])])
        with pytest.raises(KeyError):
            check_same_keys([a, b])
        with pytest.raises(KeyError):
            state_add(a, b)


class TestFlatten:
    def test_roundtrip(self, rng):
        a = _state(rng)
        flat = flatten_state(a)
        assert flat.shape == (10,)
        layout = StateLayout.from_state(a)
        np.testing.assert_array_equal(flat, layout.pack(a))
        back = unpack_state(flat, layout)
        for key in a:
            np.testing.assert_array_equal(back[key], a[key])

    def test_key_subset_order(self, rng):
        a = _state(rng)
        flat = flatten_state(a, keys=["b"])
        np.testing.assert_allclose(flat, a["b"].ravel())

    def test_missing_key_raises(self, rng):
        with pytest.raises(KeyError, match="not in state"):
            flatten_state(_state(rng), keys=["zzz"])

    def test_empty_selection_raises(self, rng):
        with pytest.raises(ValueError, match="no keys"):
            flatten_state(_state(rng), keys=[])

    def test_unflatten_wrong_length_raises(self, rng):
        a = _state(rng)
        with pytest.raises(ValueError, match="vector has shape"):
            unflatten_state(np.zeros(3), a)

    def test_model_state_roundtrip(self, rng):
        model = mlp((1, 4, 4), 3, rng, hidden=(5,))
        state = model.state_dict()
        flat = flatten_state(state)
        assert flat.shape == (model.num_parameters(),)
        layout = StateLayout.from_state(state)
        np.testing.assert_array_equal(flat, layout.pack(state))
        model.load_flat(flat, layout)  # dtype/shape compatible

    def test_allclose_asymmetric_keys(self, rng):
        a = _state(rng)
        assert not state_allclose(a, OrderedDict([("a", a["a"])]))
