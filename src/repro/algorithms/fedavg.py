"""FedAvg (McMahan et al., AISTATS 2017) — the reference baseline.

One global model; every round the participants train it locally and the
server averages the results weighted by local sample count (Eq. 1 of the
FedClust paper).  Under severe label skew the single global model fits
no client's distribution well — the failure mode every clustered method
in Table I is built to fix.

The per-round lifecycle lives in :class:`repro.fl.rounds.RoundEngine`;
FedAvg is the engine driving :class:`repro.algorithms.base.GlobalModelRounds`.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.algorithms.base import FLAlgorithm, GlobalModelRounds, RunResult
from repro.fl.history import RunHistory
from repro.fl.rounds import RoundEngine, ScenarioConfig
from repro.fl.simulation import FederatedEnv
from repro.utils.validation import check_fraction

__all__ = ["FedAvg"]


class FedAvg(FLAlgorithm):
    """Single-global-model federated averaging.

    Parameters
    ----------
    client_fraction:
        Fraction ``C`` of clients sampled per round (1.0 = full
        participation, the paper-scale default).  Legacy sugar for
        ``ScenarioConfig(client_fraction=...)``: a ``scenario`` passed
        to :meth:`run` that leaves participation at its default merges
        with this value; setting a *different* fraction in both places
        is a loud configuration error.
    """

    name = "fedavg"

    def __init__(self, client_fraction: float = 1.0) -> None:
        self.client_fraction = check_fraction("client_fraction", client_fraction)

    #: Proximal coefficient; 0 for FedAvg, overridden by FedProx.
    prox_mu: float = 0.0

    def _scenario(self, scenario: ScenarioConfig | None) -> ScenarioConfig:
        if scenario is None:
            return ScenarioConfig(client_fraction=self.client_fraction)
        if self.client_fraction >= 1.0:
            return scenario
        if scenario.client_fraction >= 1.0:
            # A scenario that leaves participation at its default merges
            # with the constructor fraction — adding failure injection
            # must not silently revert a configured C to 1.0.
            return dataclasses.replace(
                scenario, client_fraction=self.client_fraction
            )
        if scenario.client_fraction != self.client_fraction:
            raise ValueError(
                "conflicting client fractions: constructor set "
                f"{self.client_fraction}, scenario set "
                f"{scenario.client_fraction} — configure it in one place"
            )
        return scenario

    def run(
        self,
        env: FederatedEnv,
        n_rounds: int,
        eval_every: int = 1,
        scenario: ScenarioConfig | None = None,
    ) -> RunResult:
        if n_rounds < 1:
            raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
        history = RunHistory(self.name, env.federation.dataset_name, env.seed)
        # The global model lives as one packed row for the whole run:
        # broadcast payload, aggregation result and evaluation input are
        # all the same buffer — no state dict on the round loop.
        strategy = GlobalModelRounds(
            env.layout.pack(env.init_state()), prox_mu=self.prox_mu
        )
        engine = RoundEngine(env, self._scenario(scenario))
        mean_acc, per_client = engine.run(
            strategy, n_rounds, history, eval_every=eval_every
        )
        m = env.federation.n_clients
        return RunResult(
            history=history,
            final_accuracy=mean_acc,
            accuracy_std=float(np.std(per_client)),
            per_client_accuracy=per_client,
            cluster_labels=np.zeros(m, dtype=np.int64),
            comm=env.tracker.by_phase() | {"total": env.tracker.snapshot()},
            extras={
                # Everything the scenario did, one typed record per
                # (round, kind, client) — see repro.fl.rounds.Event.
                "events": engine.events,
                # The schedule that actually happened (dispatches minus
                # seeded drops/deadline misses) — replayable through
                # ``ScenarioConfig(trace=...)``.
                "realized_trace": engine.realized_trace(),
                "engine_record": engine.run_record(),
            },
        )
