"""Server-side aggregation arithmetic."""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest

from repro.fl.aggregation import packed_weighted_average

from helpers import packed_average
from retired import uniform_average


def _state(rng):
    return OrderedDict(
        [("w", rng.standard_normal((3, 2)).astype(np.float32)),
         ("b", rng.standard_normal(2).astype(np.float32))]
    )


class TestWeightedAverage:
    """The FedAvg rule, through the packed kernel over packed states."""

    def test_identity_for_single_state(self, rng):
        s = _state(rng)
        out = packed_average([s], [5.0])
        np.testing.assert_allclose(out["w"], s["w"])

    def test_identical_states_fixed_point(self, rng):
        s = _state(rng)
        out = packed_average([s, s, s], [1, 2, 3])
        np.testing.assert_allclose(out["w"], s["w"], rtol=1e-6)

    def test_weighting(self, rng):
        a, b = _state(rng), _state(rng)
        out = packed_average([a, b], [3, 1])
        np.testing.assert_allclose(
            out["w"], 0.75 * a["w"] + 0.25 * b["w"], rtol=1e-6
        )

    def test_matches_fedavg_formula(self, rng):
        states = [_state(rng) for _ in range(4)]
        weights = [10, 20, 30, 40]
        out = packed_average(states, weights)
        expected = sum(
            (w / 100.0) * s["b"].astype(np.float64) for s, w in zip(states, weights)
        )
        np.testing.assert_allclose(out["b"], expected, rtol=1e-6)

    def test_preserves_dtype(self, rng):
        out = packed_average([_state(rng), _state(rng)], [1, 1])
        assert out["w"].dtype == np.float32

    def test_zero_weight_client_ignored(self, rng):
        a, b = _state(rng), _state(rng)
        out = packed_average([a, b], [1, 0])
        np.testing.assert_allclose(out["w"], a["w"], rtol=1e-6)

    def test_validation(self, rng):
        s = _state(rng)
        with pytest.raises(ValueError, match="weights"):
            packed_average([s], [1, 2])
        with pytest.raises(ValueError, match="zero states"):
            packed_weighted_average(np.empty((0, 8)), [])
        with pytest.raises(ValueError, match="non-negative"):
            packed_average([s, s], [1, -1])
        with pytest.raises(ValueError, match="positive"):
            packed_average([s, s], [0, 0])

    def test_key_mismatch_raises(self, rng):
        a = _state(rng)
        b = OrderedDict([("w", a["w"])])
        with pytest.raises(KeyError):
            packed_average([a, b], [1, 1])

    def test_uniform_average(self, rng):
        a, b = _state(rng), _state(rng)
        out = uniform_average([a, b])
        np.testing.assert_allclose(out["w"], 0.5 * (a["w"] + b["w"]), rtol=1e-6)
