"""Group normalisation (used by ``resnet_tiny``).

``gamma``/``beta`` are trainable :class:`~repro.nn.parameter.Parameter`
objects and therefore participate in federated aggregation; there are no
running statistics, so nothing stays local to a client.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.nn.parameter import Parameter

__all__ = ["GroupNorm"]


class GroupNorm(Module):
    """Group normalisation (Wu & He, 2018) over ``(N, C, H, W)``.

    Normalises each sample's channels within ``num_groups`` groups using
    the sample's own statistics — no running buffers, no batch coupling.
    This makes it the norm of choice for federated learning: unlike
    BatchNorm there is no local statistic that diverges across non-IID
    clients, so *all* of its parameters can safely be averaged.
    """

    def __init__(
        self,
        num_groups: int,
        num_channels: int,
        eps: float = 1e-5,
        dtype: np.dtype | type = np.float32,
    ) -> None:
        super().__init__()
        if num_groups <= 0 or num_channels <= 0:
            raise ValueError("num_groups and num_channels must be positive")
        if num_channels % num_groups:
            raise ValueError(
                f"num_groups {num_groups} must divide num_channels {num_channels}"
            )
        self.num_groups = num_groups
        self.num_channels = num_channels
        self.eps = eps
        self.gamma = Parameter(np.ones(num_channels, dtype=dtype))
        self.beta = Parameter(np.zeros(num_channels, dtype=dtype))
        self._cache: tuple[np.ndarray, np.ndarray, tuple[int, ...]] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.num_channels:
            raise ValueError(
                f"GroupNorm expected (N, {self.num_channels}, H, W), got {x.shape}"
            )
        n, c, h, w = x.shape
        grouped = x.reshape(n, self.num_groups, c // self.num_groups, h, w)
        mean = grouped.mean(axis=(2, 3, 4), keepdims=True)
        var = grouped.var(axis=(2, 3, 4), keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = ((grouped - mean) * inv_std).reshape(n, c, h, w)
        self._cache = (x_hat, inv_std, x.shape)
        return self.gamma.data.reshape(1, c, 1, 1) * x_hat + self.beta.data.reshape(
            1, c, 1, 1
        )

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_hat, inv_std, shape = self._cache
        n, c, h, w = shape
        self.gamma.accumulate_grad((grad_output * x_hat).sum(axis=(0, 2, 3)))
        self.beta.accumulate_grad(grad_output.sum(axis=(0, 2, 3)))
        g = (grad_output * self.gamma.data.reshape(1, c, 1, 1)).reshape(
            n, self.num_groups, c // self.num_groups, h, w
        )
        x_hat_g = x_hat.reshape(n, self.num_groups, c // self.num_groups, h, w)
        mean_g = g.mean(axis=(2, 3, 4), keepdims=True)
        mean_gx = (g * x_hat_g).mean(axis=(2, 3, 4), keepdims=True)
        dx = inv_std * (g - mean_g - x_hat_g * mean_gx)
        self._cache = None
        return dx.reshape(n, c, h, w).astype(grad_output.dtype)
