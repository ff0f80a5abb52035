"""Grouped-vs-per-client evaluation benchmark (``BENCH_eval.json``).

Times the Table-I metric at clustered-FL scale — 64 clients served by 4
cluster models — two ways:

* **per-client loop** (:func:`repro.fl.evaluation.mean_local_accuracy`):
  the reference protocol, one state load + one serial batch loop per
  client;
* **grouped (packed rows)** (:func:`repro.fl.eval_flat.evaluate_packed`):
  each cluster model, a row of a packed ``(k, n_params)`` matrix, loaded
  once, members' splits fused into shared batches, per-client stats by
  segment reduction.

Writes ``BENCH_eval.json`` at the repo root (grouped-vs-loop timings,
speedups, and the accuracy bit-identity flag) so the perf trajectory of
the eval path is recorded per PR, alongside ``BENCH_kernels.json`` for
aggregation.  Run via ``python benchmarks/bench_eval.py`` or
``scripts/bench.sh``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.data.synthetic import make_dataset
from repro.fl.config import TrainConfig
from repro.fl.eval_flat import evaluate_packed
from repro.fl.evaluation import mean_local_accuracy
from repro.fl.simulation import FederatedEnv
from repro.nn.state_flat import pack_states


def _time_ms(fn, reps: int, warmup: int = 1) -> float:
    """Median wall time of ``fn()`` over ``reps`` runs, in milliseconds."""
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    return float(np.median(samples))


def _federation_env(
    n_clients: int,
    samples_per_client: int,
    seed: int = 0,
    model_name: str = "mlp",
    model_kwargs: dict | None = None,
) -> FederatedEnv:
    """A federation at eval-benchmark scale.

    Built directly from one synthetic pool (equal slices) — partition
    shape is irrelevant to evaluation cost, and equal test splits make
    the work per client deterministic and comparable across runs.
    """
    from repro.data.federation import ClientData, Federation

    pool = make_dataset("cifar10", n_clients * samples_per_client, seed)
    clients = []
    for cid in range(n_clients):
        lo = cid * samples_per_client
        local = pool.subset(np.arange(lo, lo + samples_per_client))
        n_test = max(1, samples_per_client // 5)
        train = local.subset(np.arange(n_test, samples_per_client))
        test = local.subset(np.arange(n_test))
        clients.append(ClientData(cid, train, test))
    federation = Federation(
        clients=clients,
        n_classes=pool.n_classes,
        input_shape=pool.input_shape,
        dataset_name=pool.name,
    )
    return FederatedEnv(
        federation,
        model_name=model_name,
        model_kwargs=model_kwargs,
        train_cfg=TrainConfig(eval_batch_size=512),
        seed=seed,
    )


def run_grouped_vs_loop(
    n_clients: int = 64,
    n_clusters: int = 4,
    samples_per_client: int = 40,
    model_name: str = "mlp",
    model_kwargs: dict | None = None,
    out_path: str | Path | None = None,
) -> dict:
    """Time the per-client loop vs the grouped/fused eval path.

    Cluster models are ``n_clusters`` perturbations of the environment's
    init state; clients are assigned round-robin, so each model serves
    ``n_clients / n_clusters`` clients — the IFCA/FedClust Table-I shape.

    The headline model is a wide MLP (``hidden=(512,)``, ~1.6M params):
    its eval is GEMM-bound, which is exactly where the per-client
    protocol wastes the most — tiny per-client batches keep BLAS far
    below peak and every client pays a full 1.6M-param state load.  The
    standalone entry point also records a conv (LeNet-5) secondary: this
    library's im2col convolution is compute-bound at any batch size (and
    cache-unfriendly at very large ones), so fusion there mostly saves
    the duplicate loads — the honest counterpoint, kept in the record.
    """
    if model_kwargs is None and model_name == "mlp":
        model_kwargs = {"hidden": (512,)}
    env = _federation_env(
        n_clients, samples_per_client, model_name=model_name, model_kwargs=model_kwargs
    )
    testsets = [c.test for c in env.federation.clients]
    batch = env.train_cfg.eval_batch_size
    rng = np.random.default_rng(0)

    cluster_states = []
    for _ in range(n_clusters):
        cluster_states.append(
            {
                k: v + rng.standard_normal(v.shape).astype(v.dtype) * 0.05
                for k, v in env.init_state().items()
            }
        )
    labels = np.arange(n_clients, dtype=np.int64) % n_clusters
    states_per_client = [cluster_states[g] for g in labels]
    matrix, _ = pack_states(cluster_states, env.layout)

    loop_ms = _time_ms(
        lambda: mean_local_accuracy(
            env.scratch_model, states_per_client, testsets, batch_size=batch
        ),
        reps=5,
    )
    packed_ms = _time_ms(
        lambda: evaluate_packed(env, matrix, labels, batch_size=batch), reps=9
    )

    _, loop_acc = mean_local_accuracy(
        env.scratch_model, states_per_client, testsets, batch_size=batch
    )
    _, packed_acc = evaluate_packed(env, matrix, labels, batch_size=batch)

    n_test_total = int(sum(len(t) for t in testsets))
    record = {
        "benchmark": (
            "mean local accuracy: grouped/fused (k loads, shared batches, "
            "segment reduction) vs per-client loop"
        ),
        "model": f"{model_name}({model_kwargs})" if model_kwargs else model_name,
        "n_clients": n_clients,
        "n_cluster_models": n_clusters,
        "n_params": env.n_params,
        "test_samples_total": n_test_total,
        "eval_batch_size": batch,
        "per_client_loop_ms": round(loop_ms, 3),
        "packed_ms": round(packed_ms, 3),
        "speedup_packed": round(loop_ms / packed_ms, 2),
        # Per-client accuracies: fused vs serial reference, bit for bit.
        "bit_identical": bool(np.array_equal(loop_acc, packed_acc)),
    }
    if out_path is not None:
        Path(out_path).write_text(json.dumps(record, indent=2) + "\n")
    return record


# ----------------------------------------------------------------------
# pytest-benchmark hooks (optional, mirrors bench_kernels.py)
# ----------------------------------------------------------------------
try:  # pragma: no cover - pytest only needed for the suite entry point
    import pytest
except ImportError:  # pragma: no cover
    pytest = None

if pytest is not None:

    @pytest.fixture(scope="module")
    def eval_setup():
        env = _federation_env(32, 60)
        testsets = [c.test for c in env.federation.clients]
        rng = np.random.default_rng(0)
        states = [
            {
                k: v + rng.standard_normal(v.shape).astype(v.dtype) * 0.05
                for k, v in env.init_state().items()
            }
            for _ in range(4)
        ]
        labels = np.arange(32, dtype=np.int64) % 4
        return env, states, labels, testsets

    @pytest.mark.benchmark(group="evaluation")
    def test_bench_eval_per_client_loop(benchmark, eval_setup):
        env, states, labels, testsets = eval_setup
        per_client = [states[g] for g in labels]
        benchmark(
            mean_local_accuracy, env.scratch_model, per_client, testsets, 512
        )

    @pytest.mark.benchmark(group="evaluation")
    def test_bench_eval_packed(benchmark, eval_setup):
        env, states, labels, testsets = eval_setup
        matrix, _ = pack_states(states, env.layout)
        benchmark(evaluate_packed, env, matrix, labels, 512)


if __name__ == "__main__":
    import sys

    target = (
        Path(sys.argv[1])
        if len(sys.argv) > 1
        else Path(__file__).resolve().parent.parent / "BENCH_eval.json"
    )
    result = run_grouped_vs_loop()
    # Conv counterpoint at the same cohort shape: im2col convolution is
    # compute-bound per row, so fusion buys less there — recorded so the
    # trajectory shows both regimes, not just the favourable one.
    conv = run_grouped_vs_loop(model_name="lenet5", model_kwargs={})
    result["secondary_lenet5"] = {
        k: conv[k]
        for k in (
            "model",
            "per_client_loop_ms",
            "packed_ms",
            "speedup_packed",
            "bit_identical",
        )
    }
    Path(target).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    print(f"wrote {target}")
