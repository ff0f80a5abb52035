"""Server-side parameter aggregation.

Implements the FedAvg rule — the weighted average of client states by
local sample count — which every algorithm in this reproduction uses
(globally for FedAvg/FedProx, per cluster for CFL/IFCA/PACFL/FedClust).

:func:`packed_weighted_average` is the kernel.  It operates on a cohort
packed into one ``(n_clients, n_params)`` float64 matrix (see
:mod:`repro.nn.state_flat`); the average is a single GEMV ``w @ X``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["packed_weighted_average"]


def _normalized_weights(weights: Sequence[float], n_states: int) -> np.ndarray:
    """Validate and normalise aggregation weights (shared by all paths)."""
    if n_states != len(weights):
        raise ValueError(f"{n_states} states but {len(weights)} weights")
    if not n_states:
        raise ValueError("cannot average zero states")
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0):
        raise ValueError(f"weights must be non-negative, got {w}")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    return w / total


def packed_weighted_average(
    matrix: np.ndarray,
    weights: Sequence[float],
) -> np.ndarray:
    """``Σ_i (w_i / Σw) · X[i]`` as one GEMV over a packed cohort.

    ``matrix`` is the ``(n_clients, n_params)`` float64 stack of the
    clients' packed rows (``ClientUpdate.flat``).  Returns the float64 average vector; use
    :func:`repro.nn.state_flat.unpack_state` to view it as a state dict.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError(f"packed cohort must be (n, p), got {matrix.shape}")
    w = _normalized_weights(weights, matrix.shape[0])
    return w @ matrix
