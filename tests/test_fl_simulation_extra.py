"""FederatedEnv details and shared algorithm-base helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.base import ClusteredRounds
from repro.fl.evaluation import evaluate_model
from repro.fl.history import RunHistory
from repro.fl.rounds import RoundEngine, ScenarioConfig


def _client_accuracy(env, row, client_id):
    """Reference: load one packed row, evaluate one client's test split."""
    env.scratch_model.load_flat(row, env.layout)
    return evaluate_model(
        env.scratch_model,
        env.federation.clients[client_id].test,
        batch_size=env.train_cfg.eval_batch_size,
    ).accuracy


def _run_clustered(env, labels, n_clusters, n_rounds, scenario=None):
    """Per-cluster FedAvg from the initial model; returns the strategy,
    the history and the last evaluation."""
    init = env.layout.pack(env.init_state())
    strategy = ClusteredRounds(np.tile(init, (n_clusters, 1)), labels)
    history = RunHistory("helper", "fmnist_like", 0)
    mean_acc, per_client = RoundEngine(env, scenario).run(
        strategy, n_rounds, history, first_round=1, eval_every=1
    )
    return strategy, history, mean_acc, per_client


class TestEnvEvaluation:
    def test_evaluate_state_bounds(self, small_env):
        init = small_env.layout.pack(small_env.init_state())
        acc = _client_accuracy(small_env, init, client_id=0)
        assert 0.0 <= acc <= 1.0

    def test_mean_local_accuracy_wrong_count_raises(self, small_env):
        init = small_env.layout.pack(small_env.init_state())
        with pytest.raises(ValueError):
            small_env.mean_local_accuracy(init[None, :])

    def test_server_rng_keyed_by_round(self, small_env):
        a = small_env.server_rng(1).integers(0, 1 << 30)
        a2 = small_env.server_rng(1).integers(0, 1 << 30)
        b = small_env.server_rng(2).integers(0, 1 << 30)
        assert a == a2
        assert a != b

    def test_n_params_matches_model(self, small_env):
        assert small_env.n_params == small_env.scratch_model.num_parameters()


@pytest.mark.slow
class TestClusteredTrainingHelper:
    def test_runs_each_cluster_and_records(self, small_env):
        m = small_env.federation.n_clients
        labels = np.array([i % 2 for i in range(m)])
        strategy, history, mean_acc, per_client = _run_clustered(
            small_env, labels, n_clusters=2, n_rounds=2
        )
        assert history.n_rounds == 2
        assert len(strategy.matrix) == 2
        assert per_client.shape == (m,)
        assert 0.0 <= mean_acc <= 1.0
        # The two cluster models must have diverged from each other
        # (different member distributions).
        assert not np.allclose(strategy.matrix[0], strategy.matrix[1])

    def test_empty_cluster_is_skipped(self, small_env):
        m = small_env.federation.n_clients
        labels = np.zeros(m, dtype=np.int64)  # everyone in cluster 0
        init = small_env.layout.pack(small_env.init_state())
        strategy, _, _, _ = _run_clustered(
            small_env, labels, n_clusters=2, n_rounds=1
        )
        # Cluster 1 had no members: its row must equal the initial one.
        np.testing.assert_array_equal(strategy.matrix[1], init)
        # Cluster 0 trained: its row must have moved.
        assert not np.array_equal(strategy.matrix[0], init)

    def test_client_fraction_subsamples(self, small_env):
        m = small_env.federation.n_clients
        labels = np.zeros(m, dtype=np.int64)
        before = small_env.tracker.total_uploaded
        _run_clustered(
            small_env, labels, n_clusters=1, n_rounds=1,
            scenario=ScenarioConfig(client_fraction=0.5),
        )
        uploaded = small_env.tracker.total_uploaded - before
        assert uploaded == (m // 2) * small_env.n_params

    def test_evaluate_assignment_matches_manual(self, small_env):
        m = small_env.federation.n_clients
        labels = np.array([i % 2 for i in range(m)])
        states = [small_env.init_state(), small_env.init_state()]
        mean_acc, per_client = small_env.evaluate_assignment(states, labels)
        manual = np.array(
            [
                _client_accuracy(small_env, small_env.layout.pack(states[labels[i]]), i)
                for i in range(m)
            ]
        )
        np.testing.assert_allclose(per_client, manual)
        assert mean_acc == pytest.approx(manual.mean())
