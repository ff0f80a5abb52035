"""Elementwise activation layers."""

from __future__ import annotations

import numpy as np

from repro.nn.functional import mask_select
from repro.nn.module import Module

__all__ = ["ReLU", "LeakyReLU", "Tanh", "Sigmoid"]


class ReLU(Module):
    """Rectified linear unit: ``max(x, 0)``."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return mask_select(x, self._mask)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        grad = mask_select(grad_output, self._mask)
        self._mask = None
        return grad


class LeakyReLU(Module):
    """Leaky ReLU with configurable negative slope."""

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        if negative_slope < 0:
            raise ValueError(f"negative_slope must be >= 0, got {negative_slope}")
        self.negative_slope = negative_slope
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, self.negative_slope * x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        grad = np.where(self._mask, grad_output, self.negative_slope * grad_output)
        self._mask = None
        return grad


class Tanh(Module):
    """Hyperbolic tangent (the classic LeNet-5 non-linearity)."""

    def __init__(self) -> None:
        super().__init__()
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._output = np.tanh(x)
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        grad = grad_output * (1.0 - self._output**2)
        self._output = None
        return grad


class Sigmoid(Module):
    """Logistic sigmoid."""

    def __init__(self) -> None:
        super().__init__()
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Stable piecewise evaluation avoids overflow in exp for large |x|.
        out = np.empty_like(x, dtype=x.dtype)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        self._output = out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        grad = grad_output * self._output * (1.0 - self._output)
        self._output = None
        return grad
