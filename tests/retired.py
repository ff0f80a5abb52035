"""Library code retired from ``src/``, kept only for its own tests.

Nothing in the library, the CLI, ``perfbench/``, ``benchmarks/`` or
``examples/`` reaches these definitions any more (the reachability guard
in ``tests/test_public_api.py`` keeps it that way), so they were deleted
from ``src/``.  Their tests still import them from here; retire a
section together with the tests that import it.  Nothing outside
``tests/`` may import this module.
"""

from __future__ import annotations

import cProfile
import io
import math
import os
import pstats
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.cluster.distance import validate_distance_matrix
from repro.cluster.metrics import contingency_table
from repro.core.weights import final_layer_keys, weight_matrix
from repro.data.dataloader import DataLoader
from repro.data.dataset import ArrayDataset
from repro.fl.evaluation import evaluate_model
from repro.nn.loss import CrossEntropyLoss, Loss
from repro.nn.module import Module
from repro.nn.optim import Optimizer
from repro.nn.parameter import Parameter
from repro.utils.logging import get_logger
from repro.utils.rng import make_rng
from repro.utils.validation import check_array, check_fraction, check_positive

from helpers import check_same_keys, packed_average

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nn.state_flat import StateLayout


# ----------------------------------------------------------------------
# repro.nn.state
# ----------------------------------------------------------------------
def state_copy(state: Mapping[str, np.ndarray]) -> "OrderedDict[str, np.ndarray]":
    """Deep copy of a state dict."""
    return OrderedDict((k, v.copy()) for k, v in state.items())


def state_add(
    a: Mapping[str, np.ndarray], b: Mapping[str, np.ndarray]
) -> "OrderedDict[str, np.ndarray]":
    """Elementwise ``a + b``."""
    check_same_keys([a, b])
    return OrderedDict((k, a[k] + b[k]) for k in a)


def state_sub(
    a: Mapping[str, np.ndarray], b: Mapping[str, np.ndarray]
) -> "OrderedDict[str, np.ndarray]":
    """Elementwise ``a - b`` (e.g. client update = local − global)."""
    check_same_keys([a, b])
    return OrderedDict((k, a[k] - b[k]) for k in a)


def state_scale(
    state: Mapping[str, np.ndarray], factor: float
) -> "OrderedDict[str, np.ndarray]":
    """Elementwise ``factor * state``."""
    return OrderedDict((k, v * factor) for k, v in state.items())


def state_norm(state: Mapping[str, np.ndarray]) -> float:
    """Global L2 norm over all entries (CFL's split criterion)."""
    total = 0.0
    for v in state.values():
        total += float(np.square(v, dtype=np.float64).sum())
    return float(np.sqrt(total))


def state_dot(a: Mapping[str, np.ndarray], b: Mapping[str, np.ndarray]) -> float:
    """Inner product over all entries (for cosine similarities)."""
    check_same_keys([a, b])
    total = 0.0
    for k in a:
        total += float(np.multiply(a[k], b[k], dtype=np.float64).sum())
    return total


def unflatten_state(
    vector: np.ndarray, template: Mapping[str, np.ndarray]
) -> "OrderedDict[str, np.ndarray]":
    """Inverse of :func:`flatten_state` for a full-state vector."""
    vector = np.asarray(vector)
    total = sum(v.size for v in template.values())
    if vector.shape != (total,):
        raise ValueError(f"vector has shape {vector.shape}, expected ({total},)")
    out: "OrderedDict[str, np.ndarray]" = OrderedDict()
    offset = 0
    for k, v in template.items():
        chunk = vector[offset : offset + v.size]
        out[k] = chunk.reshape(v.shape).astype(v.dtype)
        offset += v.size
    return out


def state_allclose(
    a: Mapping[str, np.ndarray],
    b: Mapping[str, np.ndarray],
    rtol: float = 1e-5,
    atol: float = 1e-7,
) -> bool:
    """True when two states match elementwise within tolerances."""
    try:
        check_same_keys([a, b])
    except KeyError:
        return False
    return all(np.allclose(a[k], b[k], rtol=rtol, atol=atol) for k in a)




# ----------------------------------------------------------------------
# repro.nn.optim
# ----------------------------------------------------------------------
class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with optional decoupled weight decay.

    Used by the centralised-training utilities and available to FL local
    training as an alternative to SGD (momentum-free adaptive steps are
    sometimes preferred for very unbalanced local datasets).

    ``decoupled_weight_decay=True`` gives AdamW semantics (decay applied
    directly to the weights rather than folded into the gradient).
    """

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        decoupled_weight_decay: bool = False,
    ) -> None:
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must lie in [0, 1), got {betas}")
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.decoupled = decoupled_weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if self.weight_decay and not self.decoupled:
                g = g + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            m_hat = m / bias1
            v_hat = v / bias2
            if self.decoupled and self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def reset_state(self) -> None:
        """Zero the moment buffers and the step counter."""
        for m, v in zip(self._m, self._v):
            m[...] = 0
            v[...] = 0
        self._t = 0




# ----------------------------------------------------------------------
# repro.nn.loss
# ----------------------------------------------------------------------
class MSELoss(Loss):
    """Mean squared error over all elements (used by regression tests)."""

    def __init__(self) -> None:
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, outputs: np.ndarray, targets: np.ndarray) -> float:
        targets = np.asarray(targets, dtype=outputs.dtype)
        if targets.shape != outputs.shape:
            raise ValueError(
                f"targets shape {targets.shape} must match outputs {outputs.shape}"
            )
        self._cache = (outputs, targets)
        diff = outputs - targets
        return float((diff * diff).mean())

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        outputs, targets = self._cache
        grad = 2.0 * (outputs - targets) / outputs.size
        self._cache = None
        return grad.astype(outputs.dtype)




# ----------------------------------------------------------------------
# repro.nn.layers.norm
# ----------------------------------------------------------------------
class _BatchNorm(Module):
    """Shared implementation; subclasses fix the reduction axes."""

    def __init__(
        self,
        num_features: int,
        eps: float = 1e-5,
        momentum: float = 0.1,
        dtype: np.dtype | type = np.float32,
    ) -> None:
        super().__init__()
        if num_features <= 0:
            raise ValueError(f"num_features must be positive, got {num_features}")
        if not 0.0 < momentum <= 1.0:
            raise ValueError(f"momentum must be in (0, 1], got {momentum}")
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(num_features, dtype=dtype))
        self.beta = Parameter(np.zeros(num_features, dtype=dtype))
        # Local buffers — deliberately not Parameters (see module docstring).
        self.running_mean = np.zeros(num_features, dtype=dtype)
        self.running_var = np.ones(num_features, dtype=dtype)
        self._cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # Subclasses supply the axes that are reduced over and the broadcast shape.
    _axes: tuple[int, ...] = ()

    def _bshape(self) -> tuple[int, ...]:
        raise NotImplementedError

    def _check(self, x: np.ndarray) -> None:
        raise NotImplementedError

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._check(x)
        shape = self._bshape()
        if self.training:
            mean = x.mean(axis=self._axes)
            var = x.var(axis=self._axes)  # biased, as in standard BN training
            m = self.momentum
            n = x.size // self.num_features
            unbiased = var * n / max(n - 1, 1)
            self.running_mean = (1 - m) * self.running_mean + m * mean.astype(
                self.running_mean.dtype
            )
            self.running_var = (1 - m) * self.running_var + m * unbiased.astype(
                self.running_var.dtype
            )
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean.reshape(shape)) * inv_std.reshape(shape)
        if self.training:
            self._cache = (x_hat, inv_std, x_hat)  # inv_std reused in backward
        else:
            self._cache = None
        return self.gamma.data.reshape(shape) * x_hat + self.beta.data.reshape(shape)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(
                "BatchNorm backward requires a preceding training-mode forward"
            )
        x_hat, inv_std, _ = self._cache
        shape = self._bshape()
        self.gamma.accumulate_grad((grad_output * x_hat).sum(axis=self._axes))
        self.beta.accumulate_grad(grad_output.sum(axis=self._axes))
        # Standard batch-stat backward: project out the mean and the
        # component along x_hat before rescaling.
        g = grad_output
        mean_g = g.mean(axis=self._axes).reshape(shape)
        mean_gx = (g * x_hat).mean(axis=self._axes).reshape(shape)
        dx = (
            self.gamma.data.reshape(shape)
            * inv_std.reshape(shape)
            * (g - mean_g - x_hat * mean_gx)
        )
        self._cache = None
        return dx.astype(grad_output.dtype)


class BatchNorm1d(_BatchNorm):
    """Batch norm over ``(N, F)`` feature batches."""

    _axes = (0,)

    def _bshape(self) -> tuple[int, ...]:
        return (1, self.num_features)

    def _check(self, x: np.ndarray) -> None:
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm1d expected (N, {self.num_features}), got {x.shape}"
            )


class BatchNorm2d(_BatchNorm):
    """Batch norm over ``(N, C, H, W)`` image batches (per-channel)."""

    _axes = (0, 2, 3)

    def _bshape(self) -> tuple[int, ...]:
        return (1, self.num_features, 1, 1)

    def _check(self, x: np.ndarray) -> None:
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm2d expected (N, {self.num_features}, H, W), got {x.shape}"
            )




# ----------------------------------------------------------------------
# repro.nn.schedulers
# ----------------------------------------------------------------------
class Scheduler:
    """Base class: track step count, expose the current learning rate."""

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.step_count = 0

    def lr_at(self, step: int) -> float:
        """Learning rate for 0-based ``step`` (pure function of step)."""
        raise NotImplementedError

    def step(self) -> float:
        """Advance one step; write and return the new learning rate."""
        self.step_count += 1
        new_lr = self.lr_at(self.step_count)
        if new_lr <= 0:
            raise ValueError(f"scheduler produced non-positive lr {new_lr}")
        self.optimizer.lr = new_lr
        return new_lr

    @property
    def current_lr(self) -> float:
        return self.optimizer.lr


class ConstantLR(Scheduler):
    """No decay (the default behaviour, made explicit)."""

    def lr_at(self, step: int) -> float:
        return self.base_lr


class StepLR(Scheduler):
    """Multiply the rate by ``gamma`` every ``step_size`` steps."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.1) -> None:
        super().__init__(optimizer)
        check_positive("step_size", step_size)
        check_fraction("gamma", gamma)
        self.step_size = step_size
        self.gamma = gamma

    def lr_at(self, step: int) -> float:
        return self.base_lr * self.gamma ** (step // self.step_size)


class ExponentialLR(Scheduler):
    """Multiply the rate by ``gamma`` every step."""

    def __init__(self, optimizer: Optimizer, gamma: float = 0.99) -> None:
        super().__init__(optimizer)
        check_fraction("gamma", gamma)
        self.gamma = gamma

    def lr_at(self, step: int) -> float:
        return self.base_lr * self.gamma**step


class CosineAnnealingLR(Scheduler):
    """Cosine decay from the base rate to ``eta_min`` over ``t_max`` steps."""

    def __init__(self, optimizer: Optimizer, t_max: int, eta_min: float = 1e-5) -> None:
        super().__init__(optimizer)
        check_positive("t_max", t_max)
        if eta_min <= 0:
            raise ValueError(f"eta_min must be positive, got {eta_min}")
        self.t_max = t_max
        self.eta_min = eta_min

    def lr_at(self, step: int) -> float:
        t = min(step, self.t_max)
        return self.eta_min + 0.5 * (self.base_lr - self.eta_min) * (
            1 + math.cos(math.pi * t / self.t_max)
        )




# ----------------------------------------------------------------------
# repro.nn.training
# ----------------------------------------------------------------------
@dataclass
class FitResult:
    """Per-epoch history of a centralised fit."""

    train_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)

    @property
    def n_epochs(self) -> int:
        return len(self.train_loss)

    @property
    def final_val_accuracy(self) -> float:
        return self.val_accuracy[-1] if self.val_accuracy else float("nan")


def fit(
    model: Module,
    train: ArrayDataset,
    optimizer: Optimizer,
    epochs: int,
    batch_size: int = 64,
    seed: int | np.random.Generator = 0,
    val: ArrayDataset | None = None,
    loss_fn: Loss | None = None,
    scheduler: Scheduler | None = None,
) -> FitResult:
    """Train ``model`` on ``train`` for ``epochs`` full passes.

    The scheduler (if any) is stepped once per epoch.  Validation metrics
    are recorded per epoch when ``val`` is given.
    """
    if epochs <= 0:
        raise ValueError(f"epochs must be positive, got {epochs}")
    loss_fn = loss_fn if loss_fn is not None else CrossEntropyLoss()
    rng = make_rng(seed)
    loader = DataLoader(train, min(batch_size, len(train)), rng=rng, shuffle=True)
    result = FitResult()

    for _ in range(epochs):
        model.train()
        total, batches = 0.0, 0
        for images, labels in loader:
            model.zero_grad()
            logits = model.forward(images)
            total += loss_fn.forward(logits, labels)
            model.backward(loss_fn.backward())
            optimizer.step()
            batches += 1
        result.train_loss.append(total / max(batches, 1))
        if val is not None:
            stats = evaluate_model(model, val)
            result.val_accuracy.append(stats.accuracy)
            result.val_loss.append(stats.loss)
        if scheduler is not None:
            scheduler.step()
    return result


def accuracy(model: Module, dataset: ArrayDataset, batch_size: int = 512) -> float:
    """Shorthand for ``evaluate_model(...).accuracy``."""
    return evaluate_model(model, dataset, batch_size=batch_size).accuracy




# ----------------------------------------------------------------------
# repro.cluster.kmeans
# ----------------------------------------------------------------------
@dataclass
class KMeansResult:
    """Fitted k-means state."""

    centers: np.ndarray
    labels: np.ndarray
    inertia: float
    n_iter: int
    converged: bool


def kmeans_plus_plus_init(
    x: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: iteratively sample centres ∝ squared distance."""
    x = np.asarray(check_array("x", x, ndim=2), dtype=np.float64)
    n = x.shape[0]
    check_positive("k", k)
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:  # all points coincide with chosen centres
            centers[j:] = x[rng.integers(n, size=k - j)]
            break
        probs = d2 / total
        centers[j] = x[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, ((x - centers[j]) ** 2).sum(axis=1))
    return centers


def kmeans(
    x: np.ndarray,
    k: int,
    seed: int | np.random.Generator,
    max_iter: int = 100,
    tol: float = 1e-7,
) -> KMeansResult:
    """Lloyd's algorithm; empty clusters are re-seeded at the farthest point."""
    x = np.asarray(check_array("x", x, ndim=2), dtype=np.float64)
    rng = make_rng(seed)
    centers = kmeans_plus_plus_init(x, k, rng)
    labels = np.zeros(x.shape[0], dtype=np.int64)
    converged = False
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        # Assignment step (vectorised distance to all centres).
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        new_centers = centers.copy()
        for j in range(k):
            mask = labels == j
            if mask.any():
                new_centers[j] = x[mask].mean(axis=0)
            else:
                new_centers[j] = x[d2.min(axis=1).argmax()]
        shift = float(np.abs(new_centers - centers).max())
        centers = new_centers
        if shift <= tol:
            converged = True
            break
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(x.shape[0]), labels].sum())
    return KMeansResult(centers, labels, inertia, n_iter, converged)




# ----------------------------------------------------------------------
# repro.cluster.dendrogram
# ----------------------------------------------------------------------
def leaf_order(linkage_matrix: np.ndarray) -> list[int]:
    """Left-to-right leaf order of the dendrogram (recursive traversal)."""
    z = np.asarray(linkage_matrix)
    n = z.shape[0] + 1

    def leaves(node: int) -> list[int]:
        if node < n:
            return [node]
        row = z[node - n]
        return leaves(int(row[0])) + leaves(int(row[1]))

    return leaves(2 * n - 2) if n > 1 else [0]


def dendrogram_text(
    linkage_matrix: np.ndarray,
    labels: Sequence[str] | None = None,
    width: int = 60,
) -> str:
    """Render a linkage matrix as an ASCII dendrogram.

    Each merge is drawn as a bracket at a column proportional to its
    merge height; leaves are listed top-to-bottom in dendrogram order.
    Suited to the tens-of-clients scale of FL experiments.
    """
    z = np.asarray(linkage_matrix, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != 4:
        raise ValueError(f"linkage matrix must be (n-1, 4), got {z.shape}")
    n = z.shape[0] + 1
    names = list(labels) if labels is not None else [f"c{i}" for i in range(n)]
    if len(names) != n:
        raise ValueError(f"need {n} labels, got {len(names)}")

    order = leaf_order(z)
    row_of_leaf = {leaf: row for row, leaf in enumerate(order)}
    label_w = max(len(s) for s in names)
    max_h = float(z[:, 2].max()) or 1.0

    def col(height: float) -> int:
        return label_w + 2 + int(round((width - 1) * height / max_h))

    canvas_w = label_w + 2 + width + 12
    grid = [[" "] * canvas_w for _ in range(n)]
    for row, leaf in enumerate(order):
        for i, ch in enumerate(names[leaf].rjust(label_w)):
            grid[row][i] = ch

    # Track, per active cluster, its (row, column reached so far).
    position: dict[int, tuple[int, int]] = {
        leaf: (row_of_leaf[leaf], label_w + 1) for leaf in range(n)
    }
    for step in range(n - 1):
        a, b = int(z[step, 0]), int(z[step, 1])
        height = float(z[step, 2])
        target = min(col(height), canvas_w - 9)
        (row_a, col_a), (row_b, col_b) = position.pop(a), position.pop(b)
        top, bottom = min(row_a, row_b), max(row_a, row_b)
        for row, start in ((row_a, col_a), (row_b, col_b)):
            for c in range(start, target):
                if grid[row][c] == " ":
                    grid[row][c] = "─"
        for row in range(top, bottom + 1):
            if grid[row][target] == " ":
                grid[row][target] = "│"
        grid[row_a][target] = "┐" if row_a == top else "┘"
        grid[row_b][target] = "┐" if row_b == top else "┘"
        mid = (row_a + row_b) // 2
        annotation = f"◄ {height:.2f}"
        for i, ch in enumerate(annotation):
            c = target + 1 + i
            if c < canvas_w and grid[mid][c] == " ":
                grid[mid][c] = ch
        position[n + step] = (mid, target + 1)

    return "\n".join("".join(row).rstrip() for row in grid)




# ----------------------------------------------------------------------
# repro.cluster.distance
# ----------------------------------------------------------------------
def condensed_from_square(d: np.ndarray) -> np.ndarray:
    """Upper-triangle (scipy ``pdist``-style) vector of a square matrix."""
    d = validate_distance_matrix(d)
    iu = np.triu_indices(d.shape[0], k=1)
    return d[iu]


def square_from_condensed(condensed: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`condensed_from_square`."""
    condensed = np.asarray(condensed, dtype=np.float64)
    expected = n * (n - 1) // 2
    if condensed.shape != (expected,):
        raise ValueError(
            f"condensed length {condensed.shape} mismatches n={n} "
            f"(expected {expected})"
        )
    out = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    out[iu] = condensed
    out.T[iu] = condensed
    return out




# ----------------------------------------------------------------------
# repro.cluster.metrics
# ----------------------------------------------------------------------
def normalized_mutual_information(
    labels_true: np.ndarray, labels_pred: np.ndarray
) -> float:
    """NMI with arithmetic-mean normalisation, in [0, 1]."""
    table = contingency_table(labels_true, labels_pred).astype(np.float64)
    n = table.sum()
    p_ij = table / n
    p_i = p_ij.sum(axis=1, keepdims=True)
    p_j = p_ij.sum(axis=0, keepdims=True)
    nz = p_ij > 0
    mi = float((p_ij[nz] * np.log(p_ij[nz] / (p_i @ p_j)[nz])).sum())

    def entropy(p: np.ndarray) -> float:
        p = p[p > 0]
        return float(-(p * np.log(p)).sum())

    h_true, h_pred = entropy(p_i.ravel()), entropy(p_j.ravel())
    if h_true == 0.0 and h_pred == 0.0:
        return 1.0
    denom = 0.5 * (h_true + h_pred)
    if denom == 0.0:
        return 0.0
    # mi and denom are the same sums accumulated in different orders, so
    # identical labelings can land at mi/denom = 1 + O(eps); clamp to the
    # documented range.
    return float(min(max(mi, 0.0) / denom, 1.0))


def purity(labels_true: np.ndarray, labels_pred: np.ndarray) -> float:
    """Fraction of points in the majority true class of their cluster."""
    table = contingency_table(labels_true, labels_pred)
    return float(table.max(axis=0).sum() / table.sum())




# ----------------------------------------------------------------------
# repro.core.weights
# ----------------------------------------------------------------------
def final_layer_matrix(
    model: Module, states: Sequence[Mapping[str, np.ndarray]]
) -> np.ndarray:
    """Convenience: :func:`weight_matrix` over the classifier keys."""
    return weight_matrix(states, final_layer_keys(model))




# ----------------------------------------------------------------------
# repro.fl.aggregation
# ----------------------------------------------------------------------
def uniform_average(
    states: Sequence[Mapping[str, np.ndarray]],
) -> "OrderedDict[str, np.ndarray]":
    """Unweighted mean of states (used in ablations)."""
    return packed_average(states, np.ones(len(states)))




# ----------------------------------------------------------------------
# repro.fl.communication
# ----------------------------------------------------------------------
def params_in_state(state: Mapping[str, np.ndarray]) -> int:
    """Total scalar count of a state dict."""
    return int(sum(v.size for v in state.values()))


def params_in_keys(state: Mapping[str, np.ndarray], keys: Iterable[str]) -> int:
    """Scalar count of a key subset (e.g. the final layer)."""
    return int(sum(state[k].size for k in keys))


def params_in_layout(
    layout: "StateLayout", keys: Iterable[str] | None = None
) -> int:
    """Scalar count of a layout (or a key subset of it).

    The layout-based twin of :func:`params_in_state`/:func:`params_in_keys`
    — no state dict needed, the layout already knows every size.
    """
    if keys is None:
        return int(layout.n_params)
    return int(sum(layout.size_of(k) for k in keys))


def flat_payload_nbytes(layout: "StateLayout") -> int:
    """Bytes on the wire for one full-state flat payload."""
    return int(layout.n_params) * layout.wire_dtype.itemsize




# ----------------------------------------------------------------------
# repro.fl.sampling
# ----------------------------------------------------------------------
def full_participation(n_clients: int) -> np.ndarray:
    """Every client participates (the default at paper scale)."""
    check_positive("n_clients", n_clients)
    return np.arange(n_clients)




# ----------------------------------------------------------------------
# repro.algorithms.base
# ----------------------------------------------------------------------
def states_for_clients(
    cluster_states: Sequence[Mapping[str, np.ndarray]], labels: np.ndarray
) -> list[Mapping[str, np.ndarray]]:
    """Expand per-cluster states to a per-client list via ``labels``."""
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= len(cluster_states):
        raise ValueError(
            f"labels reference clusters outside [0, {len(cluster_states)})"
        )
    return [cluster_states[int(g)] for g in labels]




# ----------------------------------------------------------------------
# repro.utils.logging
# ----------------------------------------------------------------------
class RoundLogger:
    """Throttled per-round progress reporter for long simulations.

    Emits at most one log line every ``min_interval`` seconds (plus the
    final round), so a 500-round simulation does not flood the console
    while short runs still show every round.
    """

    def __init__(
        self,
        total_rounds: int,
        min_interval: float = 2.0,
        emit: Callable[[str], None] | None = None,
    ) -> None:
        self.total_rounds = total_rounds
        self.min_interval = min_interval
        self._emit = emit if emit is not None else get_logger("fl").info
        # None until the first emit: the first call must always log.  (The
        # old sentinel of 0.0 compared against time.monotonic(), whose
        # origin is arbitrary, so whether round 1 appeared depended on
        # system uptime.)
        self._last_emit: float | None = None

    def log(self, round_index: int, message: str) -> None:
        """Log ``message`` for 1-based ``round_index`` if not throttled."""
        now = time.monotonic()
        is_last = round_index >= self.total_rounds
        is_first = self._last_emit is None
        if is_first or is_last or now - self._last_emit >= self.min_interval:
            self._emit(f"round {round_index}/{self.total_rounds} {message}")
            self._last_emit = now




# ----------------------------------------------------------------------
# repro.utils.rng
# ----------------------------------------------------------------------
def spawn_seeds(seed: int | None, n: int) -> list[int]:
    """Derive ``n`` independent integer seeds from ``seed``.

    Useful when a seed (rather than a generator) must cross a process
    boundary, e.g. for the parallel client executors in
    :mod:`repro.fl.parallel`.
    """
    root = np.random.SeedSequence(seed)
    return [int(s.generate_state(1)[0] % (2**31 - 1)) for s in root.spawn(n)]


def batched_permutation(
    rng: np.random.Generator, n: int, batch_size: int
) -> Iterator[np.ndarray]:
    """Yield index batches of a fresh random permutation of ``range(n)``.

    The final batch may be smaller than ``batch_size``.  This is the
    canonical epoch-shuffling primitive used by the data loader.
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def check_seed_list(seeds: Sequence[int]) -> list[int]:
    """Validate a user-supplied list of experiment seeds."""
    out = [int(s) for s in seeds]
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate seeds in {out}")
    return out




# ----------------------------------------------------------------------
# repro.utils.serialization
# ----------------------------------------------------------------------
def save_arrays(path: str | os.PathLike[str], **arrays: np.ndarray) -> Path:
    """Save named arrays to a compressed ``.npz`` at ``path``."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(target, **arrays)
    return target


def load_arrays(path: str | os.PathLike[str]) -> dict[str, np.ndarray]:
    """Load the arrays saved by :func:`save_arrays` as a plain dict."""
    with np.load(Path(path)) as data:
        return {name: data[name] for name in data.files}




# ----------------------------------------------------------------------
# repro.utils.timer
# ----------------------------------------------------------------------
@dataclass
class Timer:
    """Accumulating stopwatch.

    >>> t = Timer()
    >>> with t:
    ...     _ = sum(range(100))
    >>> t.total >= 0.0
    True
    """

    total: float = 0.0
    calls: int = 0
    _started: float | None = None

    def __enter__(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        assert self._started is not None, "Timer.__exit__ without __enter__"
        self.total += time.perf_counter() - self._started
        self.calls += 1
        self._started = None

    @property
    def mean(self) -> float:
        """Mean seconds per timed call (0.0 before any call completes)."""
        return self.total / self.calls if self.calls else 0.0


@dataclass
class StageTimer:
    """Named collection of :class:`Timer` objects for pipeline stages.

    The FL simulator uses one of these with stages like ``local_train``,
    ``aggregate``, ``evaluate`` so benches can report where time goes.
    """

    stages: dict[str, Timer] = field(default_factory=dict)

    @contextmanager
    def stage(self, name: str) -> Iterator[Timer]:
        timer = self.stages.setdefault(name, Timer())
        with timer:
            yield timer

    def summary(self) -> dict[str, float]:
        """Total seconds per stage, insertion-ordered."""
        return {name: t.total for name, t in self.stages.items()}

    def report(self) -> str:
        """Human-readable one-line-per-stage breakdown."""
        lines = []
        for name, t in self.stages.items():
            lines.append(f"{name:<16s} {t.total:8.3f}s over {t.calls} calls")
        return "\n".join(lines)


@contextmanager
def profiled(sort: str = "cumulative", limit: int = 20) -> Iterator[io.StringIO]:
    """Profile the enclosed block with :mod:`cProfile`.

    Yields a :class:`io.StringIO` that holds the stats report after the
    block exits — handy for ad-hoc bottleneck hunts during development:

    >>> with profiled() as report:
    ...     _ = [i * i for i in range(1000)]
    >>> "function calls" in report.getvalue()
    True
    """
    profiler = cProfile.Profile()
    buffer = io.StringIO()
    profiler.enable()
    try:
        yield buffer
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.sort_stats(sort).print_stats(limit)




# ----------------------------------------------------------------------
# repro.utils.validation
# ----------------------------------------------------------------------
def check_probability_vector(name: str, value: np.ndarray, atol: float = 1e-8) -> np.ndarray:
    """Require a non-negative vector summing to 1 (within ``atol``)."""
    arr = check_array(name, value, ndim=1)
    if np.any(arr < -atol):
        raise ValueError(f"{name} must be non-negative")
    total = float(arr.sum())
    if abs(total - 1.0) > atol:
        raise ValueError(f"{name} must sum to 1, sums to {total}")
    return arr
