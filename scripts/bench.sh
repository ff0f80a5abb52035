#!/usr/bin/env bash
# Benchmark refresh: regenerate the per-PR performance records.
#
#   scripts/bench.sh   # rewrites BENCH_train.json + BENCH_scenarios.json
#                      #        + BENCH_population.json
#
# BENCH_train.json      — batched lockstep vs serial cohort training
#                         (the baseline for lockstep conv training);
# BENCH_scenarios.json  — round-engine overhead vs the pre-engine loops,
#                         async throughput and trimmed-mean overhead
#                         (`--check` is the CI gate);
# BENCH_population.json — sharded-store rounds at 100k+ clients
#                         (O(cohort) wall-clock + resident-memory record;
#                         `--check` is the CI gate).
# The records carry parity/bit-identity fields; the correctness gates
# live in the test suite (scripts/tier1.sh), so a benchmark run is about
# timings, not correctness.  End-to-end timings of the paper's workload
# come from perfbench/run.py.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
python benchmarks/bench_train.py
python benchmarks/bench_scenarios.py
python benchmarks/bench_population.py
