"""Output checks and the determinism digest of one workload run.

A run that raises or fails any check counts as a failed operation.
The digest covers what must repeat exactly for a seed — final accuracy,
traffic and cluster labels — so two runs of one seed, traced or not,
on one commit or two, can be compared by a single string.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass


@dataclass
class Observed:
    """What one run produced, reduced to what the checks read."""

    n_rounds: int
    history_rounds: int
    final_acc: float
    comm_total: dict
    engine_record: dict
    n_clusters: int
    labels: list[int]
    fedclust: bool
    #: Arrivals inside the horizon (client id → round) and the clients
    #: the newcomer path onboarded (client id → assigned cluster).
    arrivals: dict[int, int]
    onboarded: dict[int, int]

    @classmethod
    def from_result(cls, result, n_rounds: int, scenario, fedclust: bool) -> "Observed":
        labels = result.cluster_labels
        return cls(
            n_rounds=n_rounds,
            history_rounds=len(result.history.records),
            final_acc=float(result.final_accuracy),
            comm_total=dict(result.comm["total"]),
            engine_record=dict(result.extras["engine_record"]),
            n_clusters=int(result.n_clusters),
            labels=[] if labels is None else [int(x) for x in labels],
            fedclust=fedclust,
            arrivals={
                int(c): int(r)
                for c, r in (scenario.arrivals or {}).items()
                if int(r) <= n_rounds
            },
            onboarded={
                int(c): int(a.cluster)
                for c, a in result.extras.get("onboarded", {}).items()
            },
        )

    @property
    def traffic_mb(self) -> float:
        return self.comm_total["bytes"] / 1e6


def check(obs: Observed) -> list[str]:
    """Every failed output check, as a message (empty when all pass)."""
    problems = []
    if not (math.isfinite(obs.final_acc) and 0.0 <= obs.final_acc <= 1.0):
        problems.append(f"final_acc {obs.final_acc!r} is not a fraction")
    if obs.history_rounds != obs.n_rounds:
        problems.append(
            f"history has {obs.history_rounds} rounds, ran {obs.n_rounds}"
        )
    for comm_key, record_key in (
        ("uploaded", "uploaded_params"),
        ("downloaded", "downloaded_params"),
    ):
        if obs.comm_total.get(comm_key) != obs.engine_record.get(record_key):
            problems.append(
                f"traffic {comm_key} {obs.comm_total.get(comm_key)} != engine "
                f"{record_key} {obs.engine_record.get(record_key)}"
            )
    if obs.fedclust:
        if obs.n_clusters < 1:
            problems.append(f"n_clusters {obs.n_clusters} < 1")
        if any(not 0 <= label < obs.n_clusters for label in obs.labels):
            problems.append("a client holds a label outside the clusters")
        unassigned = sorted(set(obs.arrivals) - set(obs.onboarded))
        if unassigned:
            problems.append(f"arrivals never onboarded: {unassigned}")
        moved = sorted(
            cid
            for cid, cluster in obs.onboarded.items()
            if obs.labels[cid] != cluster
        )
        if moved:
            problems.append(f"onboarded clients not serving their cluster: {moved}")
    return problems


def digest(obs: Observed) -> str:
    """Short hash of final accuracy, traffic and cluster labels."""
    payload = json.dumps(
        {
            "final_acc": repr(obs.final_acc),
            "traffic": obs.comm_total,
            "labels": obs.labels,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
