"""The paper's headline claims, checked end to end at the quick scale.

Each test regenerates one artefact of the paper (see PAPER.md) or one
ablation of its design choices and asserts the *shape* claims that carry
over from the paper's testbed to this synthetic-data simulator: which
method wins, which layer separates the planted client groups, what the
clustering round uploads.  Absolute accuracies are never compared.

All of them are ``slow`` (together about ten minutes on two cores), so
they run in the nightly full suite, not in the fast lane.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.metrics import adjusted_rand_index, group_separability
from repro.core.clustering import ClusteringConfig, cluster_clients
from repro.core.fedclust import FedClust, FedClustConfig, resolve_selection_keys
from repro.core.proximity import proximity_matrix
from repro.core.weights import packed_weight_matrix
from repro.data.federation import build_federation
from repro.experiments.ablations import run_alpha_sweep, run_communication_study
from repro.experiments.fig1 import run_fig1
from repro.experiments.fig2 import run_fig2
from repro.experiments.presets import get_scale
from repro.experiments.table1 import run_table1
from repro.fl.parallel import UpdateTask
from repro.fl.simulation import FederatedEnv

pytestmark = pytest.mark.slow

QUICK = get_scale("quick")

#: The clustering warm-up the linkage and weight-selection ablations use.
WARMUP = FedClustConfig(warmup_steps=20, warmup_lr=0.01)


def _planted_env(train_cfg) -> FederatedEnv:
    """LeNet-5 on a planted 2-group FMNIST federation, seed 0."""
    federation = build_federation(
        "fmnist",
        n_clients=QUICK.n_clients,
        n_samples=QUICK.n_samples,
        seed=0,
        partition="label_cluster",
    )
    assert federation.true_groups is not None
    return FederatedEnv(federation, model_name="lenet5", train_cfg=train_cfg, seed=0)


def test_table1_fedclust_wins_every_column():
    """Table I: FedClust tops every dataset, and on the hardest one the
    clustered method clearly beats the global-model baseline."""
    result = run_table1(scale=QUICK)
    for dataset in result.datasets:
        assert result.winner(dataset) == "fedclust", (
            f"expected fedclust to win {dataset}, got {result.winner(dataset)} "
            f"(means: {[(m, round(result.cell(m, dataset).mean, 3)) for m in result.methods]})"
        )
    fedavg = result.cell("fedavg", "cifar10").mean
    fedclust = result.cell("fedclust", "cifar10").mean
    assert fedclust > fedavg + 0.02


def test_fig1_classifier_layer_separates_groups():
    """Fig. 1: the planted two-group structure shows in the final layer's
    distances and not in the early convolution's."""
    sep = run_fig1(scale=QUICK).separability
    assert sep[16] > 1.5, f"final layer separability too low: {sep[16]:.2f}"
    assert sep[16] > 1.5 * sep[1], f"16 vs 1: {sep[16]:.2f} vs {sep[1]:.2f}"
    assert min(sep[14], sep[16]) > max(sep[1], sep[7]), (
        f"FC layers {sep[14]:.2f}/{sep[16]:.2f} should dominate conv layers "
        f"{sep[1]:.2f}/{sep[7]:.2f}"
    )


def test_fig2_one_shot_clustering_and_newcomer():
    """Fig. 2: six steps, a partial upload, the planted groups recovered,
    and the newcomer routed to its own cluster, which serves it better
    than the initial model."""
    result = run_fig2(scale=QUICK)
    assert len(result.steps) == 6, "workflow must trace all six steps"
    assert result.partial_upload_fraction < 0.25
    assert result.ari == pytest.approx(1.0), f"ARI {result.ari}"
    assert result.newcomer_correct
    assert result.newcomer_margin > 0
    assert result.newcomer_acc_with_cluster > result.newcomer_acc_with_init


def test_alpha_sweep_gain_largest_under_severe_skew():
    """FedClust's gain over FedAvg is clear under severe Dirichlet skew,
    shrinks toward IID, and FedClust does not collapse near IID."""
    result = run_alpha_sweep(scale=QUICK)
    gains = [c - a for a, c in zip(result.fedavg, result.fedclust)]
    assert gains[0] > 0.02, f"no gain under severe skew: {gains}"
    assert gains[0] > gains[-1], f"gain did not shrink toward IID: {gains}"
    assert result.fedclust[-1] > result.fedavg[-1] - 0.10


def test_linkage_choice_recovers_planted_groups():
    """One clustering round, re-cut with each linkage: average, complete
    and Ward all recover the planted groups exactly."""
    env = _planted_env(QUICK.train)
    fitted = FedClust(WARMUP).clustering_round(env)
    for method in ("average", "complete", "ward"):
        clustering = cluster_clients(
            fitted.proximity.matrix, ClusteringConfig(linkage_method=method)
        )
        ari = adjusted_rand_index(env.federation.true_groups, clustering.labels)
        assert ari == pytest.approx(1.0), f"{method}: ARI {ari}"


def test_final_layer_upload_is_small_and_sufficient():
    """What clients upload for clustering: the final layer recovers the
    groups as well as the whole model at a fraction of the upload, while
    the first conv layer carries a weaker signature."""
    env = _planted_env(WARMUP.warmup_train_cfg(QUICK.train))
    init = env.layout.pack(env.init_state())
    updates = env.run_updates(
        [UpdateTask(cid, flat=init) for cid in range(env.federation.n_clients)], 1
    )
    updates.sort(key=lambda u: u.client_id)
    cohort = np.stack([u.flat for u in updates])
    truth = env.federation.true_groups

    rows = {}
    for selection in ("final_layer", "all", "index:1"):
        keys = resolve_selection_keys(env.scratch_model, selection)
        w = packed_weight_matrix(cohort, env.layout, keys)
        prox = proximity_matrix(w)
        labels = cluster_clients(prox.matrix, ClusteringConfig()).labels
        rows[selection] = {
            "upload": int(w.shape[1]),
            "separability": group_separability(prox.matrix, truth),
            "ari": adjusted_rand_index(truth, labels),
        }
    final, full, conv1 = rows["final_layer"], rows["all"], rows["index:1"]

    assert final["upload"] < 0.25 * full["upload"]
    assert final["ari"] >= full["ari"] - 1e-9
    assert final["ari"] == pytest.approx(1.0)
    assert conv1["separability"] < final["separability"]


def test_communication_clustering_upload_and_downloads():
    """FedClust's clustering upload is far below PACFL's, IFCA pays k
    downloads per round, and FedClust's download stays near FedAvg's."""
    result = run_communication_study(scale=QUICK)
    fedclust = result.row_of("fedclust")
    pacfl = result.row_of("pacfl")
    ifca = result.row_of("ifca")
    fedavg = result.row_of("fedavg")

    assert 0 < fedclust["clustering_upload"] < pacfl["clustering_upload"]
    assert ifca["total_download"] > 1.5 * fedavg["total_download"]
    assert fedclust["total_download"] <= 1.1 * fedavg["total_download"]
