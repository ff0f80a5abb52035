"""The heterogeneity sweep (A3) and the communication-cost study (C1).

These go beyond the extended abstract's artefacts (``PAPER.md``):

* **A3 heterogeneity sweep** — FedClust vs FedAvg across Dirichlet α
  (the paper's future-work axis);
* **C1 communication** — total and clustering-phase traffic per method,
  plus traffic needed to first reach a target accuracy.

``repro sweep`` and ``repro comm`` run them; the paper's claims about
both are checked in ``tests/test_paper_claims.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algorithms.registry import make_algorithm
from repro.data.federation import build_federation
from repro.experiments.presets import ExperimentScale, algorithm_kwargs, get_scale
from repro.fl.simulation import FederatedEnv
from repro.utils.logging import get_logger
from repro.utils.tables import Table

__all__ = [
    "AlphaSweepResult",
    "run_alpha_sweep",
    "CommunicationResult",
    "run_communication_study",
]

_LOG = get_logger("experiments.ablations")


# ----------------------------------------------------------------------
# A3 — heterogeneity sweep
# ----------------------------------------------------------------------
@dataclass
class AlphaSweepResult:
    """FedClust vs FedAvg accuracy across Dirichlet α."""

    alphas: list[float]
    fedavg: list[float]
    fedclust: list[float]
    fedclust_k: list[int]

    def format(self) -> str:
        table = Table(
            title="A3 — heterogeneity sweep (Dirichlet α; higher α → closer to IID)",
            columns=["alpha", "FedAvg acc", "FedClust acc", "FedClust k"],
        )
        for i, alpha in enumerate(self.alphas):
            table.add_row(
                [
                    f"{alpha:g}",
                    f"{100 * self.fedavg[i]:.1f}",
                    f"{100 * self.fedclust[i]:.1f}",
                    str(self.fedclust_k[i]),
                ]
            )
        return table.render()


def run_alpha_sweep(
    alphas: tuple[float, ...] = (0.05, 0.1, 0.5, 1.0, 100.0),
    dataset: str = "cifar10",
    scale: ExperimentScale | str | None = None,
    seed: int = 0,
) -> AlphaSweepResult:
    """The paper's future-work axis: accuracy across heterogeneity levels."""
    scale = scale if isinstance(scale, ExperimentScale) else get_scale(scale)
    fedavg_acc, fedclust_acc, ks = [], [], []
    for alpha in alphas:
        federation = build_federation(
            dataset,
            n_clients=scale.n_clients,
            n_samples=scale.n_samples,
            seed=seed,
            partition="dirichlet",
            alpha=alpha,
        )
        env_a = FederatedEnv(
            federation, model_name="lenet5", train_cfg=scale.train, seed=seed
        )
        res_a = make_algorithm("fedavg").run(
            env_a, n_rounds=scale.n_rounds, eval_every=scale.eval_every
        )
        env_c = FederatedEnv(
            federation, model_name="lenet5", train_cfg=scale.train, seed=seed
        )
        res_c = make_algorithm(
            "fedclust", **algorithm_kwargs("fedclust", scale)
        ).run(env_c, n_rounds=scale.n_rounds, eval_every=scale.eval_every)
        fedavg_acc.append(res_a.final_accuracy)
        fedclust_acc.append(res_c.final_accuracy)
        ks.append(res_c.n_clusters)
        _LOG.info(
            "A3 alpha=%g fedavg=%.3f fedclust=%.3f k=%d",
            alpha,
            res_a.final_accuracy,
            res_c.final_accuracy,
            res_c.n_clusters,
        )
    return AlphaSweepResult(list(alphas), fedavg_acc, fedclust_acc, ks)


# ----------------------------------------------------------------------
# C1 — communication cost
# ----------------------------------------------------------------------
@dataclass
class CommunicationResult:
    """Traffic accounting per method."""

    rows: list[dict] = field(default_factory=list)
    target_accuracy: float = 0.0

    def format(self) -> str:
        table = Table(
            title=(
                "C1 — communication cost (params transferred; "
                f"target accuracy {100 * self.target_accuracy:.0f}%)"
            ),
            columns=[
                "Method",
                "Clustering up",
                "Total up",
                "Total down",
                "MB total",
                f"MB to {100 * self.target_accuracy:.0f}%",
                "Final acc",
            ],
        )
        for row in self.rows:
            table.add_row(
                [
                    row["method"],
                    str(row["clustering_upload"]),
                    str(row["total_upload"]),
                    str(row["total_download"]),
                    f"{row['total_mb']:.1f}",
                    "—" if row["mb_to_target"] is None else f"{row['mb_to_target']:.1f}",
                    f"{100 * row['final_accuracy']:.1f}",
                ]
            )
        return table.render()

    def row_of(self, method: str) -> dict:
        for row in self.rows:
            if row["method"] == method:
                return row
        raise KeyError(method)


def run_communication_study(
    methods: tuple[str, ...] = ("fedavg", "cfl", "ifca", "pacfl", "fedclust"),
    dataset: str = "fmnist",
    scale: ExperimentScale | str | None = None,
    seed: int = 0,
    target_accuracy: float = 0.8,
) -> CommunicationResult:
    """Run each method on a planted federation and account its traffic."""
    scale = scale if isinstance(scale, ExperimentScale) else get_scale(scale)
    federation = build_federation(
        dataset,
        n_clients=scale.n_clients,
        n_samples=scale.n_samples,
        seed=seed,
        partition="label_cluster",
    )
    result = CommunicationResult(target_accuracy=target_accuracy)
    from repro.fl.communication import BYTES_PER_PARAM

    for method in methods:
        env = FederatedEnv(
            federation, model_name="lenet5", train_cfg=scale.train, seed=seed
        )
        algo = make_algorithm(method, **algorithm_kwargs(method, scale))
        run = algo.run(env, n_rounds=scale.n_rounds, eval_every=1)
        comm_to_target = run.history.comm_to_accuracy(target_accuracy)
        result.rows.append(
            {
                "method": method,
                "clustering_upload": env.tracker.uploaded_in("clustering"),
                "total_upload": env.tracker.total_uploaded,
                "total_download": env.tracker.total_downloaded,
                "total_mb": env.tracker.total_bytes / 1e6,
                "mb_to_target": (
                    None
                    if comm_to_target is None
                    else comm_to_target * BYTES_PER_PARAM / 1e6
                ),
                "final_accuracy": run.final_accuracy,
            }
        )
        _LOG.info(
            "C1 %s total=%.1fMB final=%.3f",
            method,
            env.tracker.total_bytes / 1e6,
            run.final_accuracy,
        )
    return result
