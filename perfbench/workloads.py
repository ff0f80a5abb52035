"""The benchmark's workloads: one closed-loop FedClust-paper run each.

Every workload is the shape ``repro run`` executes — federation
synthesis, a :class:`~repro.fl.simulation.FederatedEnv`, an algorithm
from the registry with the ``quick`` preset's hyper-parameters — driven
from one process.  The seed reaches the program only through the
federation and environment seeds.

All three federations use planted label groups (the paper's Fig. 1
partition), not Dirichlet splits: with Dirichlet sizes and cluster
counts vary with the seed, and so do run time (lockstep cohorts pad to
their largest client), peak memory and accuracy, by more than any
regression bound could absorb across ten seeds.  Planted groups keep
client sizes near-equal and the recovered cluster count fixed, so the
seed changes the data but not the amount of work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.algorithms.registry import make_algorithm
from repro.data import federation as data_federation
from repro.experiments.presets import algorithm_kwargs, get_scale
from repro.fl.defense import CheckpointConfig, CorruptionConfig
from repro.fl.parallel import make_executor
from repro.fl.rounds import AsyncConfig, ScenarioConfig
from repro.fl.simulation import FederatedEnv

PRESET = get_scale("quick")


def _async_churn_scenario(n_clients: int, n_rounds: int, scratch: Path) -> ScenarioConfig:
    # The last quarter of the clients arrive spread over the middle half
    # of the run and are onboarded through FedClust's newcomer path.
    newcomers = range(n_clients - n_clients // 4, n_clients)
    spread = max(1, (n_rounds // 2) // len(newcomers))
    arrivals = {cid: n_rounds // 4 + i * spread for i, cid in enumerate(newcomers)}
    return ScenarioConfig(
        client_fraction=0.5,
        arrivals=arrivals,
        async_config=AsyncConfig(buffer_size=4, max_concurrency=10, duration_range=(1, 3)),
        staleness_decay=0.9,
        failure_rate=0.05,
        # Finite corruptions are left out of the draw: see CORRUPTION_KINDS.
        corruption=CorruptionConfig(rate=0.05, kinds=CORRUPTION_KINDS),
        norm_bound=5.0,
        robust_agg="trimmed_mean",
        checkpoint=CheckpointConfig(directory=scratch, every=1),
    )


#: Corruption kinds of ``fedclust_async_churn``: the non-finite kinds,
#: which admission always quarantines.  ``noise`` and ``sign_flip`` rows
#: are finite, and the async engine admits each delivery batch on its
#: own: a one-row batch is its own median, so ``norm_bound`` passes it,
#: and trimmed_mean over a K = 4 buffer split across clusters trims
#: nothing.  Such a row wrecks its cluster's model on some seeds and not
#: others (final accuracy 0.80-0.84 instead of 1.00 on 3 of seeds
#: 11-20 with ``noise``; 0.50 at seed 2 with ``sign_flip`` and two
#: groups) — a defect of ``repro.fl.defense`` under async delivery that
#: would make final_acc swing between seeds by more than its bound.
CORRUPTION_KINDS = ("nan", "inf")


@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str
    model: str
    n_clients: int
    groups: int
    executor: str
    n_rounds: int
    model_kwargs: dict = field(default_factory=dict)
    scenario: Callable[[int, int, Path], ScenarioConfig] | None = None
    #: Span and counter names the traced run must see at least once.
    required: tuple[str, ...] = ()

    @property
    def label_groups(self) -> list[list[int]]:
        return [list(range(10))[g :: self.groups] for g in range(self.groups)]

    def make_scenario(self, scratch: Path) -> ScenarioConfig:
        if self.scenario is None:
            return ScenarioConfig()
        return self.scenario(self.n_clients, self.n_rounds, scratch)


_COMMON = (
    "data.build_federation",
    "env.init",
    "train.run_updates",
    "eval",
    "algo.broadcast",
    "algo.aggregate",
    "algo.evaluate",
    "state.pack",
    "agg.packed_weighted_average",
)
_FEDCLUST = ("core.clustering_round", "core.warmup_train", "core.proximity", "core.cluster_clients")

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="table1_fedclust_lenet5",
            algorithm="fedclust",
            model="lenet5",
            n_clients=16,
            groups=4,
            executor="serial",
            n_rounds=PRESET.n_rounds,
            required=_COMMON
            + _FEDCLUST
            + tuple(
                f"nn.{layer}.{way}"
                for layer in ("conv2d", "maxpool2d", "relu", "linear")
                for way in ("fwd", "bwd")
            )
            + ("nn.sgd.step",),
        ),
        Workload(
            name="ifca_mlp_batched",
            algorithm="ifca",
            model="mlp",
            model_kwargs={"hidden": (256,)},
            n_clients=64,
            groups=3,
            executor="batched",
            n_rounds=PRESET.n_rounds,
            required=_COMMON
            + (
                "train_flat.cohort",
                "train.batched_tasks",
                "batched.fwd",
                "batched.bwd",
                "batched.sgd.step",
                "state.round_trip",
                "nn.linear.fwd",
                "nn.load_flat",
            ),
        ),
        Workload(
            name="fedclust_async_churn",
            algorithm="fedclust",
            model="mlp",
            n_clients=32,
            groups=4,
            executor="serial",
            n_rounds=40,
            scenario=_async_churn_scenario,
            required=_COMMON
            + _FEDCLUST
            + (
                "core.newcomer",
                "core.newcomers",
                "ckpt.write",
                "ckpt.bytes",
                "defense.admit",
                "defense.robust_agg",
                "nn.linear.fwd",
                "nn.linear.bwd",
                "nn.sgd.step",
            ),
        ),
    )
}


@dataclass
class Prepared:
    """One set-up workload, ready to run once."""

    env: FederatedEnv
    algorithm: object
    scenario: ScenarioConfig
    setup_s: float


def setup(workload: Workload, seed: int, scratch: Path) -> Prepared:
    """Federation synthesis + environment + algorithm construction, timed."""
    t0 = time.perf_counter()
    federation = data_federation.build_federation(
        "cifar10",
        n_clients=workload.n_clients,
        n_samples=PRESET.n_samples * workload.n_clients // 16,
        seed=seed,
        partition="label_cluster",
        groups=workload.label_groups,
    )
    env = FederatedEnv(
        federation,
        model_name=workload.model,
        model_kwargs=workload.model_kwargs,
        train_cfg=PRESET.train,
        seed=seed,
        executor=make_executor(workload.executor),
    )
    algorithm = make_algorithm(
        workload.algorithm, **algorithm_kwargs(workload.algorithm, PRESET)
    )
    setup_s = time.perf_counter() - t0
    return Prepared(env, algorithm, workload.make_scenario(scratch), setup_s)
