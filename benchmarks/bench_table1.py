"""Benchmark T1 — regenerate the paper's Table I.

Prints the regenerated accuracy table (ours vs the paper's reported
numbers) and asserts the *shape* claims that transfer from testbed to
simulator:

* FedClust wins every dataset column (the paper's headline), and
* clustered/personalised methods beat plain FedAvg on the hard dataset.

Absolute values are not compared — the substrate is a synthetic-data
simulator (see ``repro.data.synthetic``) — only ordering.
"""

from __future__ import annotations

import pytest

from repro.experiments.table1 import format_table1, run_table1

EXPERIMENT_ID = "T1"


def _table1(experiment_cache, scale):
    if EXPERIMENT_ID not in experiment_cache:
        experiment_cache[EXPERIMENT_ID] = run_table1(scale=scale)
    return experiment_cache[EXPERIMENT_ID]


@pytest.mark.benchmark(group="table1", min_rounds=1, max_time=1.0, warmup=False)
def test_bench_table1(benchmark, experiment_cache, scale, capsys):
    """Time the full Table-I regeneration and print the table."""

    def regenerate():
        return _table1(experiment_cache, scale)

    result = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_table1(result))

    # Shape assertion 1: FedClust tops every dataset column.
    for dataset in result.datasets:
        assert result.winner(dataset) == "fedclust", (
            f"expected fedclust to win {dataset}, got {result.winner(dataset)} "
            f"(means: {[(m, round(result.cell(m, dataset).mean, 3)) for m in result.methods]})"
        )
    # Shape assertion 2: on the hardest dataset the best clustered method
    # clearly beats the global-model baseline.
    fedavg = result.cell("fedavg", "cifar10").mean
    fedclust = result.cell("fedclust", "cifar10").mean
    assert fedclust > fedavg + 0.02
