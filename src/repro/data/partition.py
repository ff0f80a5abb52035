"""Federated partitioners: split a dataset's indices across clients.

All partitioners return ``list[np.ndarray]`` of **disjoint** index arrays
(one per client).  The Dirichlet partitioner implements the Non-IID
``Dir(alpha)`` protocol of Li et al., ICDE 2022 — the heterogeneity
setting used by the paper's Table I with ``alpha = 0.1``.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import make_rng
from repro.utils.validation import check_positive

__all__ = [
    "dirichlet_partition",
    "shard_partition",
    "label_cluster_partition",
    "iid_partition",
    "partition_report",
    "check_partition",
]


def check_partition(
    parts: list[np.ndarray], n_total: int, require_cover: bool = False
) -> None:
    """Validate disjointness (and optionally coverage) of a partition."""
    seen: set[int] = set()
    for i, part in enumerate(parts):
        ids = set(int(j) for j in part)
        if len(ids) != len(part):
            raise ValueError(f"client {i} has duplicate indices")
        overlap = seen & ids
        if overlap:
            raise ValueError(f"client {i} overlaps earlier clients: {sorted(overlap)[:5]}")
        if ids and (min(ids) < 0 or max(ids) >= n_total):
            raise ValueError(f"client {i} has out-of-range indices")
        seen |= ids
    if require_cover and len(seen) != n_total:
        raise ValueError(f"partition covers {len(seen)} of {n_total} samples")


def iid_partition(
    labels: np.ndarray, n_clients: int, seed: int | np.random.Generator
) -> list[np.ndarray]:
    """Uniformly shuffle and deal indices round-robin (the IID control)."""
    check_positive("n_clients", n_clients)
    rng = make_rng(seed)
    order = rng.permutation(len(labels))
    return [np.sort(order[i::n_clients]) for i in range(n_clients)]


def dirichlet_partition(
    labels: np.ndarray,
    n_clients: int,
    alpha: float,
    seed: int | np.random.Generator,
    min_samples: int = 2,
    max_retries: int = 100,
) -> list[np.ndarray]:
    """Label-skew partition via per-class Dirichlet proportions.

    For each class ``k``, draw ``p ~ Dir(alpha * 1_m)`` over the ``m``
    clients and split the class's indices proportionally.  Small ``alpha``
    (the paper uses 0.1) concentrates each class on few clients — extreme
    label skew; large ``alpha`` approaches IID.

    Resamples (up to ``max_retries``) until every client has at least
    ``min_samples`` samples, the standard fix-up in FL benchmarks so every
    client can hold a train/test split.
    """
    check_positive("n_clients", n_clients)
    check_positive("alpha", alpha)
    labels = np.asarray(labels)
    n = len(labels)
    if n < n_clients * min_samples:
        raise ValueError(
            f"{n} samples cannot give {n_clients} clients >= {min_samples} each"
        )
    rng = make_rng(seed)
    classes = np.unique(labels)

    for _ in range(max_retries):
        buckets: list[list[np.ndarray]] = [[] for _ in range(n_clients)]
        for k in classes:
            idx_k = np.flatnonzero(labels == k)
            rng.shuffle(idx_k)
            proportions = rng.dirichlet(np.full(n_clients, alpha))
            # Cumulative proportional cut points over this class's samples.
            cuts = (np.cumsum(proportions)[:-1] * len(idx_k)).astype(int)
            for client, chunk in enumerate(np.split(idx_k, cuts)):
                if len(chunk):
                    buckets[client].append(chunk)
        parts = [
            np.sort(np.concatenate(b)) if b else np.empty(0, dtype=np.int64)
            for b in buckets
        ]
        if min(len(p) for p in parts) >= min_samples:
            return parts
    raise RuntimeError(
        f"dirichlet_partition failed to give every client >= {min_samples} "
        f"samples after {max_retries} retries (alpha={alpha}, m={n_clients})"
    )


def shard_partition(
    labels: np.ndarray,
    n_clients: int,
    shards_per_client: int,
    seed: int | np.random.Generator,
) -> list[np.ndarray]:
    """McMahan et al.'s shard protocol: sort by label, deal shards.

    Sorting by label then dealing each client ``shards_per_client``
    contiguous shards gives each client at most that many classes — the
    original FedAvg pathological non-IID setting.
    """
    check_positive("n_clients", n_clients)
    check_positive("shards_per_client", shards_per_client)
    labels = np.asarray(labels)
    n = len(labels)
    n_shards = n_clients * shards_per_client
    if n < n_shards:
        raise ValueError(f"{n} samples cannot fill {n_shards} shards")
    rng = make_rng(seed)
    # Stable sort keeps within-class order random (we shuffle first).
    order = rng.permutation(n)
    order = order[np.argsort(labels[order], kind="stable")]
    shards = np.array_split(order, n_shards)
    shard_ids = rng.permutation(n_shards)
    parts = []
    for client in range(n_clients):
        mine = shard_ids[
            client * shards_per_client : (client + 1) * shards_per_client
        ]
        parts.append(np.sort(np.concatenate([shards[s] for s in mine])))
    return parts


def label_cluster_partition(
    labels: np.ndarray,
    n_clients: int,
    groups: list[list[int]],
    seed: int | np.random.Generator,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Planted-cluster partition: clients see only their group's labels.

    This is the paper's motivation setup (Fig. 1): e.g. two groups,
    ``G1 = {0..4}`` and ``G2 = {5..9}``, clients assigned round-robin.
    Returns ``(parts, group_of_client)`` — the second array is the ground
    truth that clustering metrics (ARI) are scored against.
    """
    check_positive("n_clients", n_clients)
    if not groups:
        raise ValueError("groups must be non-empty")
    flat = [label for group in groups for label in group]
    if len(set(flat)) != len(flat):
        raise ValueError("groups must have disjoint labels")
    if n_clients < len(groups):
        raise ValueError(f"need >= {len(groups)} clients for {len(groups)} groups")
    labels = np.asarray(labels)
    rng = make_rng(seed)
    group_of_client = np.array([i % len(groups) for i in range(n_clients)])

    parts: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * n_clients
    for g, group_labels in enumerate(groups):
        members = np.flatnonzero(group_of_client == g)
        idx = np.flatnonzero(np.isin(labels, group_labels))
        rng.shuffle(idx)
        for j, client in enumerate(members):
            parts[client] = np.sort(idx[j :: len(members)])
    return parts, group_of_client


def partition_report(
    labels: np.ndarray, parts: list[np.ndarray], n_classes: int
) -> np.ndarray:
    """Per-client class histogram, shape ``(n_clients, n_classes)``.

    Row ``i`` is client ``i``'s label count vector — the quantity whose
    similarity across clients FedClust recovers from weight space.
    """
    labels = np.asarray(labels)
    out = np.zeros((len(parts), n_classes), dtype=np.int64)
    for i, part in enumerate(parts):
        if len(part):
            out[i] = np.bincount(labels[part], minlength=n_classes)
    return out
