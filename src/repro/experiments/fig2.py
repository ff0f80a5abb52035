"""Experiment F2 — the paper's Fig. 2 (the FedClust workflow).

Executes the six-step workflow end to end on a planted-group federation
and produces a machine-checkable trace:

①  server broadcasts the initial global model;
②  clients train locally;
③  clients upload partial (final-layer) weights;
④  server computes the proximity matrix;
⑤  server clusters the clients (one-shot) and trains per cluster;
⑥  a *newcomer* — a client held out of the initial federation — joins
   later and is assigned to an existing cluster in real time.

The trace records, for each step, what was transferred and what the
server decided, so the claim tests can assert the workflow's claims: the
clustering used exactly one round, only partial weights were uploaded,
the planted groups were recovered, and the newcomer landed in its
ground-truth cluster with a model that serves it better than the global
initialisation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.metrics import adjusted_rand_index
from repro.core.fedclust import FedClust, FedClustConfig
from repro.data.federation import build_federation
from repro.experiments.presets import ExperimentScale, get_scale
from repro.fl.evaluation import evaluate_model
from repro.fl.simulation import FederatedEnv
from repro.utils.logging import get_logger

__all__ = ["WorkflowStep", "Fig2Result", "run_fig2", "format_fig2"]

_LOG = get_logger("experiments.fig2")


@dataclass
class WorkflowStep:
    """One numbered step of the Fig. 2 workflow."""

    number: int
    title: str
    detail: str


@dataclass
class Fig2Result:
    """Workflow trace plus the quantities the claims are checked on."""

    steps: list[WorkflowStep]
    cluster_labels: np.ndarray
    true_groups: np.ndarray
    ari: float
    newcomer_true_group: int
    newcomer_assigned_cluster: int
    newcomer_correct: bool
    newcomer_margin: float
    newcomer_acc_with_cluster: float
    newcomer_acc_with_init: float
    clustering_upload_params: int
    full_model_params: int
    final_accuracy: float

    @property
    def partial_upload_fraction(self) -> float:
        """Clustering-round upload relative to a full-model upload."""
        return self.clustering_upload_params / self.full_model_params


def run_fig2(
    dataset: str = "fmnist",
    scale: ExperimentScale | str | None = None,
    seed: int = 0,
    model_name: str = "lenet5",
) -> Fig2Result:
    """Run the full workflow with one held-out newcomer."""
    scale = scale if isinstance(scale, ExperimentScale) else get_scale(scale)
    total_clients = scale.n_clients + 1
    full_federation = build_federation(
        dataset,
        n_clients=total_clients,
        n_samples=scale.n_samples,
        seed=seed,
        partition="label_cluster",
    )
    assert full_federation.true_groups is not None
    # Hold out the last client as the newcomer.
    newcomer_id = total_clients - 1
    newcomer_data = full_federation.clients[newcomer_id]
    newcomer_group = int(full_federation.true_groups[newcomer_id])
    federation = full_federation.subset(list(range(scale.n_clients)))

    env = FederatedEnv(
        federation, model_name=model_name, train_cfg=scale.train, seed=seed
    )
    algorithm = FedClust(
        FedClustConfig(warmup_steps=20, warmup_lr=0.01, warm_start_final_layer=True)
    )
    steps: list[WorkflowStep] = []

    result = algorithm.run(env, n_rounds=scale.n_rounds, eval_every=scale.eval_every)
    fitted = result.extras["fitted"]
    m = federation.n_clients
    partial = len(
        np.concatenate([fitted.init_state[k].ravel() for k in fitted.selection_keys])
    )
    steps.append(
        WorkflowStep(1, "Broadcast global model", f"{env.n_params} params × {m} clients")
    )
    steps.append(
        WorkflowStep(
            2,
            "Local training",
            f"{algorithm.config.warmup_steps} SGD steps per client (one round)",
        )
    )
    steps.append(
        WorkflowStep(
            3,
            "Upload partial weights",
            f"final layer only: {partial} of {env.n_params} params "
            f"({100.0 * partial / env.n_params:.1f}%)",
        )
    )
    steps.append(
        WorkflowStep(
            4,
            "Proximity matrix",
            f"{m}×{m} Euclidean distances over final-layer weights",
        )
    )
    ari = adjusted_rand_index(federation.true_groups, result.cluster_labels)
    steps.append(
        WorkflowStep(
            5,
            "Hierarchical clustering",
            f"auto cut found {result.n_clusters} clusters, ARI vs planted "
            f"groups = {ari:.2f}; per-cluster FedAvg for "
            f"{scale.n_rounds - 1} rounds",
        )
    )

    # ⑥ the newcomer arrives.
    assignment, serving_state = algorithm.incorporate_newcomer(
        env, fitted, newcomer_data.train, newcomer_id=newcomer_id
    )
    # Which cluster do the newcomer's ground-truth peers live in?
    peers = np.flatnonzero(federation.true_groups == newcomer_group)
    peer_clusters = result.cluster_labels[peers]
    expected_cluster = int(np.bincount(peer_clusters).argmax())
    correct = assignment.cluster == expected_cluster

    batch = env.train_cfg.eval_batch_size
    env.scratch_model.load_state_dict(dict(serving_state))
    acc_cluster = evaluate_model(
        env.scratch_model, newcomer_data.test, batch_size=batch
    ).accuracy
    env.scratch_model.load_state_dict(fitted.init_state)
    acc_init = evaluate_model(
        env.scratch_model, newcomer_data.test, batch_size=batch
    ).accuracy
    steps.append(
        WorkflowStep(
            6,
            "Incorporate newcomer",
            f"assigned to cluster {assignment.cluster} (expected "
            f"{expected_cluster}, margin {assignment.margin:.2f}); "
            f"local-test accuracy {acc_cluster:.2f} with cluster model vs "
            f"{acc_init:.2f} with initial model",
        )
    )
    _LOG.info("fig2: %s", "; ".join(s.detail for s in steps))

    return Fig2Result(
        steps=steps,
        cluster_labels=result.cluster_labels,
        true_groups=federation.true_groups,
        ari=ari,
        newcomer_true_group=newcomer_group,
        newcomer_assigned_cluster=assignment.cluster,
        newcomer_correct=correct,
        newcomer_margin=assignment.margin,
        newcomer_acc_with_cluster=acc_cluster,
        newcomer_acc_with_init=acc_init,
        clustering_upload_params=partial * m,
        full_model_params=env.n_params * m,
        final_accuracy=result.final_accuracy,
    )


def format_fig2(result: Fig2Result) -> str:
    """Human-readable workflow trace."""
    lines = ["FedClust workflow (paper Fig. 2)"]
    marks = "①②③④⑤⑥"
    for step in result.steps:
        lines.append(f"{marks[step.number - 1]} {step.title}: {step.detail}")
    lines.append(
        f"summary: final accuracy {result.final_accuracy:.2f}, clustering "
        f"ARI {result.ari:.2f}, newcomer {'correct' if result.newcomer_correct else 'WRONG'}"
    )
    return "\n".join(lines)
