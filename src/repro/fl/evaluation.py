"""Single-model evaluation: one model on one dataset.

:func:`evaluate_model` is the serial primitive: deterministic, in eval
mode, one batch loop over the dataset.  The Table-I metric (mean local
test accuracy over clients) runs on the fused path in
:mod:`repro.fl.eval_flat`, which loads each distinct serving model once
and streams the test splits of all clients sharing it through shared
batches; its per-client accuracies are bit-identical to calling
:func:`evaluate_model` once per client, which the tests check.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.dataset import ArrayDataset
from repro.nn.loss import CrossEntropyLoss
from repro.nn.module import Module

__all__ = ["EvalResult", "evaluate_model"]


@dataclass
class EvalResult:
    """Accuracy/loss over one dataset."""

    accuracy: float
    loss: float
    n_samples: int
    n_correct: int


def evaluate_model(
    model: Module, dataset: ArrayDataset, batch_size: int = 512
) -> EvalResult:
    """Deterministic full-dataset evaluation (no shuffling, eval mode)."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    was_training = model.training
    model.eval()
    loss_fn = CrossEntropyLoss()
    n_correct = 0
    loss_sum = 0.0
    n = len(dataset)
    for start in range(0, n, batch_size):
        images = dataset.images[start : start + batch_size]
        labels = dataset.labels[start : start + batch_size]
        logits = model.forward(images)
        loss_sum += loss_fn.forward(logits, labels) * len(labels)
        n_correct += int((logits.argmax(axis=1) == labels).sum())
    if was_training:
        model.train()
    return EvalResult(
        accuracy=n_correct / n,
        loss=loss_sum / n,
        n_samples=n,
        n_correct=n_correct,
    )
