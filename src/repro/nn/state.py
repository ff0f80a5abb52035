"""Dict-state helper: flatten (a subset of) a state into one vector.

FedClust's flattened weight views build on :func:`flatten_state`;
everything else runs on the flat plane (:mod:`repro.nn.state_flat`).

A *state* is an ordered ``dict[str, np.ndarray]`` as produced by
:meth:`repro.nn.module.Module.state_dict`.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

__all__ = ["flatten_state"]


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
