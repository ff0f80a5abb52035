"""Round-engine overhead benchmark (``BENCH_scenarios.json``).

The engine refactor replaced the hand-rolled per-algorithm round loops
(PR 3 era) with one shared server loop plus scenario middleware
(:mod:`repro.fl.rounds`).  The middleware must be free when unused:
this benchmark times a full FedAvg training run two ways —

* **baseline**: an inline replica of the pre-engine FedAvg loop over
  the surviving primitive (:func:`repro.algorithms.base.fedavg_round_flat`
  + ``evaluate_packed`` on the same cadence);
* **engine**: :class:`repro.fl.rounds.RoundEngine` driving
  :class:`repro.algorithms.base.GlobalModelRounds` under the default
  scenario —

and pins the overhead **< 2 %** (wall-clock on this box is noisy;
medians over several full runs).  Both paths produce bit-identical
final vectors (recorded as ``bit_identical``).

In practice the engine measures *faster* than the legacy loop shape:
the old loop's ``vector, loss, _ = fedavg_round_flat(...)`` binding
kept the previous round's 64 full updates (state dicts + flat rows)
alive across the next round's cohort ``np.stack``, so the ~200 MB
cohort allocation always hit first-touch page faults; the engine
rebinds its dispatch result before aggregating, the allocator reuses
the warm arena, and the stack runs ~2× faster (profiled: identical
per-op times everywhere else).  The negative ``overhead_pct`` is that
buffer-lifetime win, not a measurement artefact — it is stable across
fresh processes.

A second record exercises the scenario path that did not exist before
the engine: C = 0.2 partial participation, with the engine's sampled
run checked bit-for-bit against an inline ``uniform_sample`` +
``fedavg_round_flat`` loop (the sampling semantics FedAvg's historical
``_participants`` used).  A third runs the v2 middleware stack (stale
folding × compute budgets × an availability trace) twice from fresh
state and records that the composition is deterministic bit-for-bit.

A fourth record covers the async (FedBuff-style) event streams: the
``buffer_size = m, duration = 1`` special case is gated bit-identical
to the synchronous engine, a genuinely-async config (K = 16, bounded
concurrency, durations U[1, 3]) is gated deterministic across fresh
runs, and its **updates-absorbed/sec** throughput is recorded.

A fifth record covers the robust-aggregation choke point (PR 7's
server hardening): ``robust_agg = "none"`` on the non-default C = 0.2
engine path is gated bit-identical to the inline sampled loop (the
robust dispatch with mode "none" IS the classic weighted average, down
to the last bit), and the wall-clock overhead of ``trimmed_mean`` over
the plain average is recorded **and gated** below
:data:`TRIMMED_OVERHEAD_GATE_PCT` — the blocked contiguous-lane
trimming kernel (see ``repro.fl.defense._trimmed_middle_mean``) cut
the original strided-sort overhead from ~72% to ~29%, and the ceiling
pins the improvement against regressions back to the strided path.

Run via ``python benchmarks/bench_scenarios.py`` or ``scripts/bench.sh``.
``--check`` is the CI mode: the bit-identity gates plus the overhead
gate from single best-of-N timings — no medians, no JSON written, exit
status is the verdict.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

try:  # package import (pytest) vs script import (scripts/bench.sh)
    from benchmarks.bench_eval import _federation_env
except ImportError:  # pragma: no cover - script entry point
    from bench_eval import _federation_env

from repro.algorithms.base import GlobalModelRounds, fedavg_round_flat
from repro.fl.config import TrainConfig
from repro.fl.history import RunHistory
from repro.fl.rounds import AsyncConfig, RoundEngine, ScenarioConfig
from repro.fl.sampling import uniform_sample
from repro.fl.trace import AvailabilityTrace

OVERHEAD_GATE_PCT = 2.0

#: Ceiling on trimmed_mean's wall-clock overhead over the plain
#: weighted average (full training runs, same cohort).  The blocked
#: trimming kernel measures ~29% on this box; the historical strided
#: ``np.sort(axis=0)`` measured ~72%, so the ceiling catches any
#: regression to a strided or copy-heavy kernel while leaving timing
#: noise headroom.
TRIMMED_OVERHEAD_GATE_PCT = 45.0


def _median_ms(fn, reps: int, warmup: int = 1) -> float:
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    return float(np.median(samples))


def _make_env(n_clients: int, samples_per_client: int, local_epochs: int):
    # mlp(128) (~395k params) keeps the per-round cohort stack at
    # ~200 MB: large enough that training dominates, small enough that
    # allocator effects do not drown the orchestration signal.
    env = _federation_env(
        n_clients, samples_per_client, model_name="mlp", model_kwargs={"hidden": (128,)}
    )
    env.train_cfg = TrainConfig(local_epochs=local_epochs, batch_size=32)
    return env


def _baseline_run(env, n_rounds: int, fraction: float = 1.0) -> np.ndarray:
    """Inline replica of the pre-engine FedAvg loop (PR 3 shape)."""
    m = env.federation.n_clients
    labels = np.zeros(m, dtype=np.int64)
    vector = env.layout.pack(env.init_state())
    for round_index in range(1, n_rounds + 1):
        if fraction >= 1.0:
            participants = np.arange(m)
        else:
            participants = uniform_sample(m, fraction, env.server_rng(round_index))
        vector, _, _ = fedavg_round_flat(env, vector, participants, round_index)
        env.evaluate_packed(vector, labels)
    return vector


def _engine_run(env, n_rounds: int, fraction: float = 1.0) -> np.ndarray:
    strategy = GlobalModelRounds(env.layout.pack(env.init_state()))
    engine = RoundEngine(env, ScenarioConfig(client_fraction=fraction))
    engine.run(strategy, n_rounds, RunHistory("bench", "synthetic", 0))
    return strategy.vector


def run_engine_overhead(
    n_clients: int = 64,
    samples_per_client: int = 40,
    local_epochs: int = 1,
    n_rounds: int = 3,
    reps: int = 5,
) -> dict:
    """Full-run timing: engine loop vs inline PR 3-style loop."""
    env = _make_env(n_clients, samples_per_client, local_epochs)
    baseline_ms = _median_ms(lambda: _baseline_run(env, n_rounds), reps=reps)
    engine_ms = _median_ms(lambda: _engine_run(env, n_rounds), reps=reps)
    overhead_pct = 100.0 * (engine_ms - baseline_ms) / baseline_ms
    identical = bool(
        np.array_equal(_baseline_run(env, n_rounds), _engine_run(env, n_rounds))
    )
    return {
        "n_clients": n_clients,
        "n_params": env.n_params,
        "local_epochs": local_epochs,
        "n_rounds": n_rounds,
        "baseline_ms": round(baseline_ms, 3),
        "engine_ms": round(engine_ms, 3),
        "overhead_pct": round(overhead_pct, 3),
        "overhead_gate_pct": OVERHEAD_GATE_PCT,
        "bit_identical": identical,
    }


def run_partial_participation(
    n_clients: int = 64,
    samples_per_client: int = 40,
    local_epochs: int = 1,
    n_rounds: int = 3,
    fraction: float = 0.2,
    reps: int = 3,
) -> dict:
    """The C = 0.2 scenario row: engine vs inline sampled loop."""
    env = _make_env(n_clients, samples_per_client, local_epochs)
    baseline_ms = _median_ms(
        lambda: _baseline_run(env, n_rounds, fraction), reps=reps
    )
    engine_ms = _median_ms(lambda: _engine_run(env, n_rounds, fraction), reps=reps)
    identical = bool(
        np.array_equal(
            _baseline_run(env, n_rounds, fraction),
            _engine_run(env, n_rounds, fraction),
        )
    )
    return {
        "client_fraction": fraction,
        "participants_per_round": int(round(fraction * n_clients)),
        "n_clients": n_clients,
        "n_rounds": n_rounds,
        "baseline_ms": round(baseline_ms, 3),
        "engine_ms": round(engine_ms, 3),
        "bit_identical": identical,
    }


def _middleware_scenario(n_clients: int) -> ScenarioConfig:
    """The composed v2 stack: stale folding × budgets × a trace."""
    return ScenarioConfig(
        client_fraction=0.5,
        straggler_rate=0.25,
        staleness_decay=0.5,
        compute_budget=(0, 4),
        trace=AvailabilityTrace({0: [2, 3], 1: [1, 3]}),
        departures={n_clients - 1: 3},
    )


def _middleware_run(env, n_rounds: int) -> tuple[np.ndarray, int]:
    strategy = GlobalModelRounds(env.layout.pack(env.init_state()))
    engine = RoundEngine(env, _middleware_scenario(env.federation.n_clients))
    engine.run(strategy, n_rounds, RunHistory("bench", "synthetic", 0))
    n_stale = engine.run_record()["n_stale_folded"]
    return strategy.vector, n_stale


def run_middleware_v2(
    n_clients: int = 64,
    samples_per_client: int = 40,
    local_epochs: int = 1,
    n_rounds: int = 3,
    reps: int = 3,
) -> dict:
    """The v2 scenario stack: determinism + wall-clock of the composition."""
    env = _make_env(n_clients, samples_per_client, local_epochs)
    ms = _median_ms(lambda: _middleware_run(env, n_rounds), reps=reps)
    first, n_stale = _middleware_run(env, n_rounds)
    second, _ = _middleware_run(env, n_rounds)
    return {
        "scenario": (
            "C=0.5, 25% stragglers folded at decay 0.5, budgets U[0,4] "
            "steps, 2-client trace, 1 departure"
        ),
        "n_clients": n_clients,
        "n_rounds": n_rounds,
        "stale_updates_folded": n_stale,
        "run_ms": round(ms, 3),
        "deterministic": bool(np.array_equal(first, second)),
    }


def _async_scenario(n_clients: int) -> ScenarioConfig:
    """A genuinely-async config: bounded concurrency, spread durations."""
    return ScenarioConfig(
        staleness_decay=0.9,
        async_config=AsyncConfig(
            buffer_size=16,
            max_concurrency=n_clients // 2,
            duration_range=(1, 3),
        ),
    )


def _async_run(
    env, n_rounds: int, scenario: ScenarioConfig
) -> tuple[np.ndarray, RoundEngine]:
    strategy = GlobalModelRounds(env.layout.pack(env.init_state()))
    engine = RoundEngine(env, scenario)
    engine.run(strategy, n_rounds, RunHistory("bench", "synthetic", 0))
    return strategy.vector, engine


def run_async_throughput(
    n_clients: int = 64,
    samples_per_client: int = 40,
    local_epochs: int = 1,
    n_rounds: int = 6,
    reps: int = 3,
) -> dict:
    """The async engine: sync-equivalence, determinism, absorb rate."""
    env = _make_env(n_clients, samples_per_client, local_epochs)
    # Gate 1: the K = m, duration = 1 special case IS the sync engine.
    sync_case = ScenarioConfig(
        async_config=AsyncConfig(buffer_size=n_clients, duration_range=1)
    )
    special, _ = _async_run(env, 3, sync_case)
    sync_equivalent = bool(np.array_equal(special, _engine_run(env, 3)))
    # Gate 2 + throughput: a genuinely-async config, twice from fresh
    # state; absorb rate = updates folded per wall-clock second.
    scenario = _async_scenario(n_clients)
    ms = _median_ms(lambda: _async_run(env, n_rounds, scenario), reps=reps)
    first, engine = _async_run(env, n_rounds, scenario)
    second, _ = _async_run(env, n_rounds, scenario)
    record = engine.run_record()
    return {
        "scenario": (
            f"K=16, M={n_clients // 2}, durations U[1,3], decay 0.9 "
            f"over {n_rounds} server steps"
        ),
        "n_clients": n_clients,
        "n_rounds": n_rounds,
        "aggregation_events": record["n_aggregation_events"],
        "updates_absorbed": record["n_updates_absorbed"],
        "run_ms": round(ms, 3),
        "updates_absorbed_per_sec": round(
            record["n_updates_absorbed"] / (ms / 1e3), 3
        ),
        "sync_equivalent": sync_equivalent,
        "deterministic": bool(np.array_equal(first, second)),
    }


def _robust_run(env, n_rounds: int, fraction: float, robust_agg: str) -> np.ndarray:
    strategy = GlobalModelRounds(env.layout.pack(env.init_state()))
    engine = RoundEngine(
        env, ScenarioConfig(client_fraction=fraction, robust_agg=robust_agg)
    )
    engine.run(strategy, n_rounds, RunHistory("bench", "synthetic", 0))
    return strategy.vector


def run_robust_aggregation(
    n_clients: int = 64,
    samples_per_client: int = 40,
    local_epochs: int = 1,
    n_rounds: int = 3,
    fraction: float = 0.2,
    reps: int = 3,
) -> dict:
    """The robust choke point: mode "none" bit-identity + trimmed cost.

    The C = 0.2 fraction keeps the scenario off the default fast path,
    so ``robust_weighted_average(mode="none")`` really runs at the
    aggregation choke point — and must still match the inline sampled
    loop exactly.
    """
    env = _make_env(n_clients, samples_per_client, local_epochs)
    identical = bool(
        np.array_equal(
            _robust_run(env, n_rounds, fraction, "none"),
            _baseline_run(env, n_rounds, fraction),
        )
    )
    none_ms = _median_ms(
        lambda: _robust_run(env, n_rounds, 1.0, "none"), reps=reps
    )
    trimmed_ms = _median_ms(
        lambda: _robust_run(env, n_rounds, 1.0, "trimmed_mean"), reps=reps
    )
    return {
        "n_clients": n_clients,
        "n_rounds": n_rounds,
        "client_fraction_for_gate": fraction,
        "none_bit_identical": identical,
        "none_ms": round(none_ms, 3),
        "trimmed_mean_ms": round(trimmed_ms, 3),
        "trimmed_mean_overhead_pct": round(
            100.0 * (trimmed_ms - none_ms) / none_ms, 3
        ),
        "trimmed_overhead_gate_pct": TRIMMED_OVERHEAD_GATE_PCT,
    }


def run_check(n_reps: int = 3) -> int:
    """CI gate: bit-identity + the overhead gate, no timing medians.

    Each loop is timed ``n_reps`` times and the **best** (minimum) run
    is compared — on shared CI machines the minimum is the stable
    statistic, and the engine historically runs ~10% *faster* than the
    inline loop, so the <2% gate has a wide margin.  Writes no JSON;
    returns a process exit code.
    """
    env = _make_env(n_clients=64, samples_per_client=40, local_epochs=1)
    failures = []

    def best_ms(fn) -> float:
        fn()  # warm-up
        samples = []
        for _ in range(n_reps):
            t0 = time.perf_counter()
            fn()
            samples.append((time.perf_counter() - t0) * 1e3)
        return min(samples)

    if not np.array_equal(_baseline_run(env, 3), _engine_run(env, 3)):
        failures.append("default scenario: engine diverged from inline loop")
    if not np.array_equal(
        _baseline_run(env, 3, 0.2), _engine_run(env, 3, 0.2)
    ):
        failures.append("C=0.2 scenario: engine diverged from inline loop")
    first, _ = _middleware_run(env, 3)
    second, _ = _middleware_run(env, 3)
    if not np.array_equal(first, second):
        failures.append("middleware v2 composition is not deterministic")
    if not np.array_equal(
        _robust_run(env, 3, 0.2, "none"), _baseline_run(env, 3, 0.2)
    ):
        failures.append(
            "robust_agg='none' diverged from the inline sampled loop"
        )
    baseline_ms = best_ms(lambda: _baseline_run(env, 3))
    engine_ms = best_ms(lambda: _engine_run(env, 3))
    overhead_pct = 100.0 * (engine_ms - baseline_ms) / baseline_ms
    print(
        f"check: baseline {baseline_ms:.1f} ms, engine {engine_ms:.1f} ms, "
        f"overhead {overhead_pct:+.2f}% (gate < {OVERHEAD_GATE_PCT}%)"
    )
    if overhead_pct >= OVERHEAD_GATE_PCT:
        failures.append(
            f"engine overhead {overhead_pct:.2f}% exceeds the "
            f"{OVERHEAD_GATE_PCT}% gate"
        )
    # The robust-mode timing comes after the overhead gate for the same
    # buffer-lifetime reason as the async gates below: trimmed-mean's
    # cohort-sized sorted copies held across the timed loops would
    # poison the overhead measurement.
    trimmed_ms = best_ms(lambda: _robust_run(env, 3, 1.0, "trimmed_mean"))
    none_ms = best_ms(lambda: _robust_run(env, 3, 1.0, "none"))
    trimmed_pct = 100.0 * (trimmed_ms - none_ms) / none_ms
    print(
        f"check: robust none {none_ms:.1f} ms, trimmed_mean {trimmed_ms:.1f} "
        f"ms ({trimmed_pct:+.2f}%, gate < {TRIMMED_OVERHEAD_GATE_PCT}%)"
    )
    if trimmed_pct >= TRIMMED_OVERHEAD_GATE_PCT:
        failures.append(
            f"trimmed_mean overhead {trimmed_pct:.2f}% exceeds the "
            f"{TRIMMED_OVERHEAD_GATE_PCT}% ceiling"
        )
    # Async gates come after the overhead timing: an async engine's
    # retained in-flight updates are exactly the buffer-lifetime hazard
    # the headline benchmark documents, and holding them alive across
    # the timed loops would poison the overhead measurement.
    m = env.federation.n_clients
    sync_case = ScenarioConfig(
        async_config=AsyncConfig(buffer_size=m, duration_range=1)
    )
    special, _ = _async_run(env, 3, sync_case)
    if not np.array_equal(special, _engine_run(env, 3)):
        failures.append(
            "async special case (K=m, duration=1) diverged from sync engine"
        )
    async_first, async_engine = _async_run(env, 3, _async_scenario(m))
    record = async_engine.run_record()
    absorbed = record["n_updates_absorbed"]
    events = record["n_aggregation_events"]
    async_second, _ = _async_run(env, 3, _async_scenario(m))
    if not np.array_equal(async_first, async_second):
        failures.append("async event streams are not deterministic")
    del async_engine, async_first, async_second, special
    async_ms = best_ms(lambda: _async_run(env, 3, _async_scenario(m)))
    print(
        f"check: async absorbed {absorbed} updates in {events} events, "
        f"{absorbed / (async_ms / 1e3):.1f} updates/s"
    )
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("check passed: bit-identical, deterministic, within the gate")
    return 1 if failures else 0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "target",
        nargs="?",
        default=Path(__file__).resolve().parent.parent / "BENCH_scenarios.json",
        help="output JSON path (full mode only)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="CI mode: bit-identity + overhead gate only, no JSON output",
    )
    args = parser.parse_args()
    if args.check:
        raise SystemExit(run_check())
    result = {
        "benchmark": (
            "round engine vs pre-engine inline loops: orchestration overhead "
            "at 64 clients (default scenario), the C=0.2 sampled scenario, "
            "the v2 middleware stack (stale x budget x trace), the async "
            "(FedBuff-style) event streams, and the robust-aggregation "
            "choke point (mode-none bit-identity + trimmed-mean cost)"
        )
    }
    headline = run_engine_overhead()
    result["headline"] = headline
    result["partial_participation_c02"] = run_partial_participation()
    result["middleware_v2"] = run_middleware_v2()
    result["async_engine"] = run_async_throughput()
    result["robust_aggregation"] = run_robust_aggregation()
    Path(args.target).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    print(f"wrote {args.target}")
    if not headline["bit_identical"]:
        raise SystemExit("engine run diverged from the baseline loop")
    if not result["middleware_v2"]["deterministic"]:
        raise SystemExit("middleware v2 composition is not deterministic")
    if not result["async_engine"]["sync_equivalent"]:
        raise SystemExit("async special case diverged from the sync engine")
    if not result["async_engine"]["deterministic"]:
        raise SystemExit("async event streams are not deterministic")
    if not result["robust_aggregation"]["none_bit_identical"]:
        raise SystemExit(
            "robust_agg='none' diverged from the inline sampled loop"
        )
    if headline["overhead_pct"] >= OVERHEAD_GATE_PCT:
        raise SystemExit(
            f"engine overhead {headline['overhead_pct']}% exceeds the "
            f"{OVERHEAD_GATE_PCT}% gate"
        )
    trimmed_pct = result["robust_aggregation"]["trimmed_mean_overhead_pct"]
    if trimmed_pct >= TRIMMED_OVERHEAD_GATE_PCT:
        raise SystemExit(
            f"trimmed_mean overhead {trimmed_pct}% exceeds the "
            f"{TRIMMED_OVERHEAD_GATE_PCT}% ceiling"
        )
