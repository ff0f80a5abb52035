"""Failure injection and FedClust's straggler tolerance.

Failure policy lives in the round engine
(``ScenarioConfig(failure_rate=...)``); the drop-stream semantics are
pinned in ``tests/test_fl_rounds.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.fedavg import FedAvg
from repro.cluster.metrics import adjusted_rand_index
from repro.core.fedclust import FedClust, FedClustConfig
from repro.fl.rounds import RoundEngine, ScenarioConfig
from repro.fl.simulation import FederatedEnv

_FEDCLUST = FedClustConfig(warmup_steps=15, warmup_lr=0.01)


def _env(federation, cfg, seed=0):
    return FederatedEnv(
        federation,
        model_name="cnn_small",
        model_kwargs={"width": 4, "fc_dim": 16},
        train_cfg=cfg,
        seed=seed,
    )


def _engine(env, failure_rate):
    return RoundEngine(env, ScenarioConfig(failure_rate=failure_rate))


class TestFailureScenario:
    @pytest.mark.slow
    def test_fedavg_survives_failures(self, planted_federation, fast_train_cfg):
        env = _env(planted_federation, fast_train_cfg)
        result = FedAvg().run(
            env,
            n_rounds=3,
            eval_every=3,
            scenario=ScenarioConfig(failure_rate=0.3),
        )
        assert result.final_accuracy > 0.2
        # Failures actually happened.
        assert any(event.kind == "drop" for event in result.extras["events"])


@pytest.mark.slow
class TestStragglerClustering:
    def test_retries_recover_everyone(self, planted_federation, fast_train_cfg):
        """With moderate failures and 3 attempts, all clients usually
        report; labels must then have no fallback assignments."""
        env = _env(planted_federation, fast_train_cfg)
        fitted = FedClust(_FEDCLUST).clustering_round(
            env, engine=_engine(env, 0.3)
        )
        m = planted_federation.n_clients
        assert len(fitted.responders) + len(fitted.stragglers) == m
        assert (fitted.labels >= 0).all()
        # Responders' recovery should still be perfect on planted groups.
        ari = adjusted_rand_index(
            planted_federation.true_groups[fitted.responders],
            fitted.labels[fitted.responders],
        )
        assert ari == 1.0

    def test_heavy_failures_leave_stragglers_with_fallback(
        self, planted_federation, fast_train_cfg
    ):
        config = FedClustConfig(
            warmup_steps=15, warmup_lr=0.01, max_clustering_attempts=1
        )
        env = _env(planted_federation, fast_train_cfg, seed=1)
        fitted = FedClust(config).clustering_round(env, engine=_engine(env, 0.6))
        assert fitted.stragglers  # with one attempt at 60%, someone is dark
        # Stragglers hold a valid (fallback) cluster id.
        assert all(0 <= fitted.labels[s] < fitted.n_clusters for s in fitted.stragglers)

    def test_straggler_can_be_onboarded_as_newcomer(
        self, planted_federation, fast_train_cfg
    ):
        config = FedClustConfig(
            warmup_steps=15, warmup_lr=0.01, max_clustering_attempts=1
        )
        env = _env(planted_federation, fast_train_cfg, seed=1)
        algo = FedClust(config)
        fitted = algo.clustering_round(env, engine=_engine(env, 0.6))
        assert fitted.stragglers
        straggler = fitted.stragglers[0]
        assignment, _ = algo.incorporate_newcomer(
            env,
            fitted,
            planted_federation.clients[straggler].train,
            newcomer_id=straggler,
        )
        # The straggler's true group's responders live in one cluster; the
        # newcomer path must route it there.
        group = planted_federation.true_groups[straggler]
        peers = [
            int(c)
            for c in fitted.responders
            if planted_federation.true_groups[c] == group
        ]
        expected = int(np.bincount(fitted.labels[peers]).argmax())
        assert assignment.cluster == expected

    def test_no_failures_means_no_stragglers(self, small_env):
        fitted = FedClust(_FEDCLUST).clustering_round(small_env)
        assert fitted.stragglers == []
        assert len(fitted.responders) == small_env.federation.n_clients


class TestDendrogram:
    def test_renders_planted_structure(self, rng):
        from repro.cluster.dendrogram import dendrogram_text, leaf_order
        from repro.cluster.distance import pairwise_euclidean
        from repro.cluster.hierarchy import linkage

        points = np.vstack(
            [rng.standard_normal((3, 2)), rng.standard_normal((3, 2)) + 50]
        )
        z = linkage(pairwise_euclidean(points), "average")
        text = dendrogram_text(z)
        # All leaves appear, brackets drawn, heights annotated.
        for i in range(6):
            assert f"c{i}" in text
        assert "┐" in text and "◄" in text

        order = leaf_order(z)
        assert sorted(order) == list(range(6))
        # Planted halves are contiguous in dendrogram order.
        first_half = set(order[:3])
        assert first_half in ({0, 1, 2}, {3, 4, 5})

    def test_custom_labels_and_validation(self, rng):
        from repro.cluster.dendrogram import dendrogram_text
        from repro.cluster.distance import pairwise_euclidean
        from repro.cluster.hierarchy import linkage

        z = linkage(pairwise_euclidean(rng.standard_normal((3, 2))), "single")
        text = dendrogram_text(z, labels=["alpha", "beta", "gamma"])
        assert "alpha" in text
        with pytest.raises(ValueError, match="labels"):
            dendrogram_text(z, labels=["too", "few"])
        with pytest.raises(ValueError, match="linkage"):
            dendrogram_text(np.zeros((2, 3)))


class TestLocalOnly:
    @pytest.mark.slow
    def test_runs_with_zero_communication(self, small_env):
        from repro.algorithms.local_only import LocalOnly

        result = LocalOnly().run(small_env, n_rounds=3, eval_every=3)
        assert small_env.tracker.total_params == 0
        assert result.final_accuracy > 0.3  # local 5-class tasks are learnable
        assert result.n_clusters == small_env.federation.n_clients

    def test_in_registry(self):
        from repro.algorithms.registry import make_algorithm

        assert make_algorithm("local_only").name == "local_only"
