"""Federation assembly: dataset + partitioner → per-client splits.

A :class:`Federation` is the complete data-side input to a federated
simulation: each client's local train/test datasets, the shared task
metadata, and (when the partition plants one) the ground-truth group of
every client for scoring cluster recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.data.partition import (
    check_partition,
    dirichlet_partition,
    iid_partition,
    label_cluster_partition,
    partition_report,
    shard_partition,
)
from repro.data.synthetic import make_dataset
from repro.utils.rng import spawn_rngs

__all__ = ["ClientData", "Federation", "build_federation"]


@dataclass
class ClientData:
    """One client's local data."""

    client_id: int
    train: ArrayDataset
    test: ArrayDataset

    @property
    def n_train(self) -> int:
        return len(self.train)

    @property
    def n_test(self) -> int:
        return len(self.test)


@dataclass
class Federation:
    """All clients plus shared task metadata."""

    clients: list[ClientData]
    n_classes: int
    input_shape: tuple[int, int, int]
    dataset_name: str
    true_groups: np.ndarray | None = None
    label_histograms: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))

    @property
    def n_clients(self) -> int:
        return len(self.clients)

    def client_sizes(self) -> np.ndarray:
        """Train-set size per client (the FedAvg aggregation weights)."""
        return np.array([c.n_train for c in self.clients], dtype=np.int64)

    def subset(self, client_ids: np.ndarray | list[int]) -> "Federation":
        """Federation restricted to ``client_ids`` (re-indexed 0..k-1).

        Used by the newcomer experiment: hold one client out of the
        initial federation and onboard it later via FedClust's step ⑥.
        """
        ids = [int(i) for i in client_ids]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate client ids: {ids}")
        bad = [i for i in ids if not 0 <= i < self.n_clients]
        if bad:
            raise ValueError(f"client ids out of range: {bad}")
        clients = [
            ClientData(new_id, self.clients[old_id].train, self.clients[old_id].test)
            for new_id, old_id in enumerate(ids)
        ]
        return Federation(
            clients=clients,
            n_classes=self.n_classes,
            input_shape=self.input_shape,
            dataset_name=self.dataset_name,
            true_groups=(
                self.true_groups[ids] if self.true_groups is not None else None
            ),
            label_histograms=(
                self.label_histograms[ids]
                if self.label_histograms.size
                else self.label_histograms
            ),
        )

    def summary(self) -> str:
        sizes = self.client_sizes()
        parts = [
            f"Federation({self.dataset_name}: {self.n_clients} clients, "
            f"{int(sizes.sum())} train samples, "
            f"sizes [{sizes.min()}..{sizes.max()}]"
        ]
        if self.true_groups is not None:
            n_groups = len(np.unique(self.true_groups))
            parts.append(f", {n_groups} planted groups")
        return "".join(parts) + ")"


def build_federation(
    dataset_name: str,
    n_clients: int,
    n_samples: int,
    seed: int,
    partition: str = "dirichlet",
    alpha: float = 0.1,
    shards_per_client: int = 2,
    groups: list[list[int]] | None = None,
    test_fraction: float = 0.2,
    dataset_overrides: dict[str, float] | None = None,
) -> Federation:
    """Generate a dataset and split it into a federation.

    Parameters
    ----------
    dataset_name:
        Registry name/alias (``"cifar10"``, ``"fmnist"``, ``"svhn"``, ...).
    n_clients:
        Number of participating clients.
    n_samples:
        Total pool size before partitioning.
    seed:
        Master seed; data generation, partitioning and per-client splits
        all derive independent streams from it.
    partition:
        ``"dirichlet"`` (paper's Table I, with ``alpha``), ``"shard"``,
        ``"label_cluster"`` (paper's Fig. 1, with ``groups``), or ``"iid"``.
    alpha:
        Dirichlet concentration (0.1 in the paper).
    groups:
        Label groups for ``label_cluster`` (default: two halves of the
        label set, the paper's G1/G2).
    test_fraction:
        Per-client local test split (the local-accuracy protocol).
    dataset_overrides:
        Optional spec overrides forwarded to the generator.
    """
    rng_data, rng_part, *rng_clients = spawn_rngs(seed, 2 + n_clients)
    dataset = make_dataset(
        dataset_name, n_samples, rng_data, **(dataset_overrides or {})
    )

    true_groups: np.ndarray | None = None
    if partition == "dirichlet":
        parts = dirichlet_partition(dataset.labels, n_clients, alpha, rng_part)
    elif partition == "shard":
        parts = shard_partition(dataset.labels, n_clients, shards_per_client, rng_part)
    elif partition == "label_cluster":
        if groups is None:
            half = dataset.n_classes // 2
            groups = [list(range(half)), list(range(half, dataset.n_classes))]
        parts, true_groups = label_cluster_partition(
            dataset.labels, n_clients, groups, rng_part
        )
    elif partition == "iid":
        parts = iid_partition(dataset.labels, n_clients, rng_part)
    else:
        raise ValueError(
            f"unknown partition {partition!r}; options: dirichlet, shard, "
            "label_cluster, iid"
        )
    check_partition(parts, len(dataset))

    clients = []
    for cid, (part, rng_c) in enumerate(zip(parts, rng_clients)):
        local = dataset.subset(part)
        train, test = local.split(test_fraction, rng_c)
        clients.append(ClientData(cid, train, test))

    return Federation(
        clients=clients,
        n_classes=dataset.n_classes,
        input_shape=dataset.input_shape,
        dataset_name=dataset.name,
        true_groups=true_groups,
        label_histograms=partition_report(dataset.labels, parts, dataset.n_classes),
    )
