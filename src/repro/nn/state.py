"""Dict-state helpers.

The dict-path aggregation reference
(:func:`repro.fl.aggregation.weighted_average_dict`) and flattened
weight views build on these few primitives; everything else runs on the
flat plane (:mod:`repro.nn.state_flat`).

A *state* is an ordered ``dict[str, np.ndarray]`` as produced by
:meth:`repro.nn.module.Module.state_dict`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "state_zeros_like",
    "state_axpy",
    "flatten_state",
    "check_same_keys",
]


def check_same_keys(states: Sequence[Mapping[str, np.ndarray]]) -> list[str]:
    """Require all states to share an identical key sequence; return it."""
    if not states:
        raise ValueError("need at least one state dict")
    keys = list(states[0].keys())
    for i, s in enumerate(states[1:], start=1):
        if list(s.keys()) != keys:
            raise KeyError(
                f"state {i} keys differ from state 0: "
                f"{sorted(set(s) ^ set(keys))}"
            )
    return keys


def state_zeros_like(state: Mapping[str, np.ndarray]) -> "OrderedDict[str, np.ndarray]":
    """Zero-filled state with the same keys/shapes/dtypes."""
    return OrderedDict((k, np.zeros_like(v)) for k, v in state.items())


def state_axpy(
    acc: dict[str, np.ndarray], state: Mapping[str, np.ndarray], factor: float
) -> None:
    """In-place ``acc += factor * state`` (the aggregation inner loop)."""
    for k, v in state.items():
        acc[k] += factor * v


def flatten_state(
    state: Mapping[str, np.ndarray], keys: Iterable[str] | None = None
) -> np.ndarray:
    """Concatenate (a subset of) the state into one float64 vector.

    ``keys`` selects and orders the entries; default is the state's own
    order.  FedClust flattens the final-layer entries.
    """
    names = list(keys) if keys is not None else list(state.keys())
    missing = [k for k in names if k not in state]
    if missing:
        raise KeyError(f"keys not in state: {missing}")
    if not names:
        raise ValueError("no keys selected to flatten")
    return np.concatenate([np.asarray(state[k], dtype=np.float64).ravel() for k in names])
