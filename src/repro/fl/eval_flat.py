"""Grouped, fused evaluation on the flat parameter plane.

The Table-I metric (mean local test accuracy) asks every client to
evaluate the model that serves it on its own held-out split.  At most
``k`` *distinct* models serve the ``n`` clients — the global model
(FedAvg/FedProx: ``k = 1``), or one model per cluster (FedClust, IFCA,
CFL, PACFL: ``k`` = cluster count) — yet the plain protocol loads one
state per client and runs each client's split as its own serial batch
loop (:func:`repro.fl.evaluation.evaluate_model` per client).

This module collapses that n-fold loop to a k-fold one:

* **Deduplicated loads** — clients are grouped by the model that serves
  them (an explicit label vector), and each distinct model is loaded
  exactly once per evaluation, via
  :meth:`repro.nn.module.Module.load_flat` from its packed row.
* **Fused forward passes** — the test splits of all clients sharing a
  model are streamed through the scratch model in shared, full-size
  batches (batch boundaries ignore client boundaries), and per-client
  accuracy/loss are recovered afterwards by segment reductions
  (``np.add.reduceat``) over the client-offset index.
* **Packed input** — :func:`evaluate_packed` accepts the serving models
  as rows of a ``(k, n_params)`` float64 matrix, so every algorithm
  evaluates straight from the flat plane without materialising dicts.

Exactness contract
------------------
Per-client **accuracy is bit-identical** to the per-client reference
loop: correctness is an integer count of argmax matches, and the fused
pass feeds the model the same rows in the same order (only batch
*composition* changes, which the forward pass is row-independent under).
Per-client **loss** is the same quantity summed in a different order
(per-sample instead of per-batch-mean), so it matches to float64
round-off, not bitwise.  ``tests/test_fl_eval_flat.py`` checks both
against the per-client loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.nn.functional import log_softmax
from repro.nn.module import Module

__all__ = [
    "CohortEval",
    "fused_evaluate",
    "members_of_labels",
    "evaluate_packed",
]


@dataclass
class CohortEval:
    """Per-client accuracy/loss vectors from one grouped evaluation.

    Arrays are indexed by client (or by dataset, for
    :func:`fused_evaluate`), in the order the caller supplied them.
    """

    accuracy: np.ndarray
    loss: np.ndarray
    n_samples: np.ndarray
    n_correct: np.ndarray

    @property
    def mean_accuracy(self) -> float:
        """Mean over clients — the Table-I statistic."""
        return float(self.accuracy.mean())


def _fused_batches(
    datasets: Sequence[ArrayDataset], batch_size: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield full-size ``(images, labels)`` batches across dataset bounds.

    Rows stream in dataset order; each batch is assembled from at most a
    few contiguous spans, so peak extra memory is one batch, not the
    concatenation of the whole group.
    """
    img_parts: list[np.ndarray] = []
    lab_parts: list[np.ndarray] = []
    filled = 0
    for dataset in datasets:
        start, size = 0, len(dataset)
        while start < size:
            take = min(batch_size - filled, size - start)
            img_parts.append(dataset.images[start : start + take])
            lab_parts.append(dataset.labels[start : start + take])
            filled += take
            start += take
            if filled == batch_size:
                yield (
                    img_parts[0] if len(img_parts) == 1 else np.concatenate(img_parts),
                    lab_parts[0] if len(lab_parts) == 1 else np.concatenate(lab_parts),
                )
                img_parts, lab_parts, filled = [], [], 0
    if filled:
        yield (
            img_parts[0] if len(img_parts) == 1 else np.concatenate(img_parts),
            lab_parts[0] if len(lab_parts) == 1 else np.concatenate(lab_parts),
        )


def fused_evaluate(
    model: Module, datasets: Sequence[ArrayDataset], batch_size: int = 512
) -> CohortEval:
    """Evaluate one model on several datasets in shared batches.

    The fused replacement for ``[evaluate_model(model, d) for d in
    datasets]``: rows from consecutive datasets share batches, and the
    per-dataset statistics are recovered by segment reductions over the
    dataset-offset index.  Runs in eval mode and restores the model's
    training flag, exactly like the reference loop.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    datasets = list(datasets)
    if not datasets:
        raise ValueError("need at least one dataset to evaluate")
    sizes = np.array([len(d) for d in datasets], dtype=np.int64)
    if (sizes == 0).any():
        raise ValueError("cannot evaluate on an empty dataset")
    was_training = model.training
    model.eval()
    total = int(sizes.sum())
    correct = np.empty(total, dtype=np.int64)
    nll = np.empty(total, dtype=np.float64)
    pos = 0
    for images, labels in _fused_batches(datasets, batch_size):
        logits = model.forward(images)
        log_probs = log_softmax(logits, axis=1)
        n = len(labels)
        nll[pos : pos + n] = -log_probs[np.arange(n), labels]
        correct[pos : pos + n] = logits.argmax(axis=1) == labels
        pos += n
    if was_training:
        model.train()
    offsets = np.zeros(len(sizes), dtype=np.intp)
    np.cumsum(sizes[:-1], out=offsets[1:])
    n_correct = np.add.reduceat(correct, offsets)
    return CohortEval(
        accuracy=n_correct / sizes,
        loss=np.add.reduceat(nll, offsets) / sizes,
        n_samples=sizes,
        n_correct=n_correct,
    )


def members_of_labels(labels: np.ndarray, n_groups: int) -> list[np.ndarray]:
    """Member-index arrays per group (possibly empty) with validation."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= n_groups):
        raise ValueError(f"labels reference groups outside [0, {n_groups})")
    return [np.flatnonzero(labels == g) for g in range(n_groups)]


def evaluate_packed(
    env, matrix: np.ndarray, labels: np.ndarray, batch_size: int | None = None
) -> tuple[float, np.ndarray]:
    """Table-I metric straight from packed cohort rows.

    ``matrix`` holds the serving models as ``(k, n_params)`` float64 rows
    on the environment's layout (a single packed global vector may be
    passed as shape ``(n_params,)``); ``labels[i]`` names the row serving
    client ``i``.  Each referenced row is loaded once via
    :meth:`repro.nn.module.Module.load_flat` — no state dict is ever
    materialised.  Returns ``(mean, per_client_accuracy)``.
    """
    matrix = np.atleast_2d(np.asarray(matrix))
    if matrix.shape[1] != env.layout.n_params:
        raise ValueError(
            f"matrix has {matrix.shape[1]} columns, layout expects "
            f"{env.layout.n_params}"
        )
    testsets = [c.test for c in env.federation.clients]
    labels = np.asarray(labels)
    if labels.shape != (len(testsets),):
        raise ValueError(
            f"labels shape {labels.shape} mismatches {len(testsets)} clients"
        )
    if batch_size is None:
        batch_size = env.train_cfg.eval_batch_size
    model = env.scratch_model
    accuracy = np.zeros(len(testsets))
    for g, members in enumerate(members_of_labels(labels, matrix.shape[0])):
        if members.size == 0:
            continue  # empty cluster: nothing to load, nothing to score
        model.load_flat(matrix[g], env.layout)
        accuracy[members] = fused_evaluate(
            model, [testsets[i] for i in members], batch_size=batch_size
        ).accuracy
    return float(accuracy.mean()), accuracy
