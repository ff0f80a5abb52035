#!/usr/bin/env python3
"""Benchmark of the FedClust reproduction as ``repro run`` executes it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the workload runs in a closed loop — set up, run,
check, repeat — until ``--seconds`` have passed (at least once), then
set-up alone repeats until it has been timed three times.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and the end-to-end metrics, each the median over the loop.

With ``--trace 1`` the workload runs plain, under
:mod:`perfbench.tracing`, and plain again; the result line carries the
per-layer metrics of the traced run and the tracing overhead (traced
minus the second plain run time).  The traced run must reproduce the
plain runs' digest and reach every layer its workload names
(:attr:`Workload.required`).

Earlier lines are JSON too: the provenance header (git SHA, cores,
BLAS, versions, seed), one line per run with its determinism digest,
and in traced mode the layer-coverage report.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up is timed at least this many times per run; its median is setup_s.
SETUP_REPS = 3
#: No further loop iteration starts once this many seconds have gone by
#: plus the last iteration's duration, so a run ends well within 180 s.
TIME_CAP_S = 140.0

#: Per-layer self times: metric name → span name.
SELF_TIMES = {
    "data.build_federation_s": "data.build_federation",
    "env.init_s": "env.init",
    "train.run_updates_s": "train.run_updates",
    **{
        f"nn.{layer}.{way}_s": f"nn.{layer}.{way}"
        for layer in ("conv2d", "maxpool2d", "relu", "linear")
        for way in ("fwd", "bwd")
    },
    "nn.sgd.step_s": "nn.sgd.step",
    "nn.load_flat_s": "nn.load_flat",
    "train_flat.cohort_s": "train_flat.cohort",
    "batched.fwd_s": "batched.fwd",
    "batched.bwd_s": "batched.bwd",
    "batched.sgd.step_s": "batched.sgd.step",
    "state.pack_s": "state.pack",
    "state.unpack_s": "state.unpack",
    "state.round_trip_s": "state.round_trip",
    "eval.s": "eval",
    "algo.broadcast_s": "algo.broadcast",
    "algo.aggregate_s": "algo.aggregate",
    "algo.evaluate_s": "algo.evaluate",
    "agg.packed_weighted_average_s": "agg.packed_weighted_average",
    "defense.admit_s": "defense.admit",
    "defense.robust_agg_s": "defense.robust_agg",
    "ckpt.write_s": "ckpt.write",
    "core.warmup_train_s": "core.warmup_train",
    "core.clustering_round_s": "core.clustering_round",
    "core.proximity_s": "core.proximity",
    "core.cluster_clients_s": "core.cluster_clients",
    "core.newcomer_s": "core.newcomer",
}
#: Per-layer call counts: metric name → span name.
CALLS = {
    "train.calls": "train.run_updates",
    **{
        f"nn.{layer}.{way}.calls": f"nn.{layer}.{way}"
        for layer in ("conv2d", "maxpool2d", "relu", "linear")
        for way in ("fwd", "bwd")
    },
    "nn.sgd.step.calls": "nn.sgd.step",
    "nn.load_flat.calls": "nn.load_flat",
    "train_flat.cohorts": "train_flat.cohort",
    "eval.calls": "eval",
    "engine.aggregation_events": "algo.aggregate",
    "ckpt.writes": "ckpt.write",
}
#: Counters the tracing hooks accumulate, reported as counts.
COUNTERS = (
    "train.updates",
    "train.samples",
    "train.batched_tasks",
    "train.serial_fallback_tasks",
    "defense.quarantined",
    "core.newcomers",
)


def _require_source() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        raise SystemExit(2)


def _git_sha(root: Path) -> str:
    """HEAD's commit from the ``.git`` files, or ``unknown`` outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count()
    return {
        "git_sha": _git_sha(ROOT),
        "nproc": cores,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
        },
        # Unset means the library default (OpenBLAS: one thread per core).
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "numpy": np.__version__,
        "python": platform.python_version(),
        "workload": workload,
        "seed": seed,
    }


@dataclass
class Sample:
    """One set-up + run of a workload and what it produced."""

    setup_s: float
    run_s: float
    updates: int
    observed: object
    root_span: int = -1


def run_once(workload, seed: int, scratch: Path, log=None) -> Sample:
    """Set up and run ``workload`` once; ``log`` traces the run's root."""
    from perfbench.checks import Observed
    from perfbench.workloads import PRESET, setup

    # Collect the previous run's cycles first, so peak memory never holds
    # two federations because the collector had not run yet.
    gc.collect()
    prepared = setup(workload, seed, scratch)
    env = prepared.env
    dispatch = env.run_updates
    updates = 0

    def counted_run_updates(tasks, round_index):
        nonlocal updates
        result = dispatch(tasks, round_index)
        updates += len(result)
        return result

    env.run_updates = counted_run_updates
    try:
        t0 = time.perf_counter()
        with nullcontext(-1) if log is None else log.span("engine") as root:
            result = prepared.algorithm.run(
                env,
                n_rounds=workload.n_rounds,
                eval_every=PRESET.eval_every,
                scenario=prepared.scenario,
            )
        run_s = time.perf_counter() - t0
    finally:
        env.close()
    observed = Observed.from_result(
        result, workload.n_rounds, prepared.scenario, workload.algorithm == "fedclust"
    )
    return Sample(prepared.setup_s, run_s, updates, observed, root)


def _metric(value: float, unit: str) -> dict:
    # JSON has no NaN; a non-finite value (a failed run's accuracy) is null.
    return {"value": value if math.isfinite(value) else None, "unit": unit}


def end_to_end_metrics(
    samples: list[Sample], setup_times: list[float], attempted: int, failed: int
) -> dict:
    median = statistics.median
    return {
        "setup_s": _metric(median(setup_times), "s"),
        "run_s": _metric(median(s.run_s for s in samples), "s"),
        "updates_per_s": _metric(median(s.updates / s.run_s for s in samples), "1/s"),
        "final_acc": _metric(median(s.observed.final_acc for s in samples), "fraction"),
        "traffic_mb": _metric(median(s.observed.traffic_mb for s in samples), "MB"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
        "ok_frac": _metric((attempted - failed) / attempted, "fraction"),
    }


def per_layer_metrics(log, traced: Sample, plain: Sample) -> dict:
    self_s, calls = log.summary()
    obs = traced.observed
    metrics = {
        name: _metric(self_s.get(span, 0.0), "s") for name, span in SELF_TIMES.items()
    }
    metrics.update(
        (name, _metric(calls.get(span, 0), "count")) for name, span in CALLS.items()
    )
    metrics.update(
        (name, _metric(log.counters.get(name, 0), "count")) for name in COUNTERS
    )
    metrics.update(
        {
            "engine.self_s": _metric(self_s["engine"], "s"),
            "engine.rounds": _metric(obs.history_rounds, "count"),
            "engine.dispatched": _metric(obs.engine_record["n_dispatched"], "count"),
            "engine.dropped": _metric(obs.engine_record["n_dropped"], "count"),
            "ckpt.bytes": _metric(log.counters.get("ckpt.bytes", 0), "bytes"),
            "core.n_clusters": _metric(obs.n_clusters, "count"),
            "comm.upload_mparams": _metric(obs.comm_total["uploaded"] / 1e6, "Mparams"),
            "comm.download_mparams": _metric(
                obs.comm_total["downloaded"] / 1e6, "Mparams"
            ),
            "trace.overhead_s": _metric(traced.run_s - plain.run_s, "s"),
            "trace.explained_frac": _metric(
                log.children_share(traced.root_span), "fraction"
            ),
        }
    )
    return metrics


def coverage_problems(log, workload) -> list[str]:
    _, calls = log.summary()
    return [
        f"layer {name} recorded no call"
        for name in workload.required
        if calls.get(name, 0) + log.counters.get(name, 0) < 1
    ]


def _emit(line: dict) -> None:
    print(json.dumps(line, sort_keys=True), flush=True)


def _observe(index: int, sample: Sample, problems: list[str], traced: bool) -> None:
    from perfbench.checks import digest

    obs = sample.observed
    _emit(
        {
            "run": index,
            "traced": traced,
            "setup_s": sample.setup_s,
            "run_s": sample.run_s,
            "digest": digest(obs),
            "final_acc": obs.final_acc,
            "traffic_bytes": obs.comm_total["bytes"],
            "labels": obs.labels,
            "problems": problems,
        }
    )


class Loop:
    """Counts attempted and failed operations over checked runs."""

    def __init__(self, workload, seed: int, scratch: Path) -> None:
        self.workload, self.seed, self.scratch = workload, seed, scratch
        self.attempted = 0
        self.failed = 0
        self.samples: list[Sample] = []
        self.first_digest: str | None = None

    def attempt(self, log=None, extra_checks=None) -> Sample | None:
        """One checked run: its sample, or None if it raised.  A run that
        fails a check still yields its measurements, and counts as failed."""
        from perfbench.checks import check, digest

        self.attempted += 1
        try:
            sample = run_once(self.workload, self.seed, self.scratch, log)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        problems = check(sample.observed)
        this = digest(sample.observed)
        if self.first_digest is None:
            self.first_digest = this
        elif this != self.first_digest:
            problems.append(f"digest {this} differs from {self.first_digest}")
        if extra_checks is not None:
            problems += extra_checks()
        _observe(self.attempted, sample, problems, log is not None)
        if problems:
            for problem in problems:
                print(f"perfbench: check failed: {problem}", file=sys.stderr)
            self.failed += 1
        self.samples.append(sample)
        return sample


def measure(workload, seed: int, seconds: float, scratch: Path) -> tuple[Loop, list[float]]:
    from perfbench.workloads import setup

    loop = Loop(workload, seed, scratch)
    start = time.perf_counter()
    last = 0.0
    while loop.attempted == 0 or (
        time.perf_counter() - start < seconds
        and time.perf_counter() - start + last < TIME_CAP_S
    ):
        t0 = time.perf_counter()
        loop.attempt()
        last = time.perf_counter() - t0
    setup_times = [s.setup_s for s in loop.samples]
    while len(setup_times) < SETUP_REPS:
        gc.collect()
        prepared = setup(workload, seed, scratch)
        prepared.env.close()
        setup_times.append(prepared.setup_s)
    return loop, setup_times


def trace(workload, seed: int, scratch: Path) -> tuple[Loop, dict | None]:
    from perfbench.tracing import Instrumentation, SpanLog

    loop = Loop(workload, seed, scratch)
    # The process's first run pays its cold start (first-touch memory,
    # thread pools), so the traced run is compared with a later plain one.
    loop.attempt()
    log = SpanLog()

    def coverage() -> list[str]:
        missing = coverage_problems(log, workload)
        _emit({"coverage": {"required": list(workload.required), "missing": missing}})
        return missing

    with Instrumentation(log):
        traced = loop.attempt(log, extra_checks=coverage)
    plain = loop.attempt()
    if plain is None or traced is None:
        return loop, None
    return loop, per_layer_metrics(log, traced, plain)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # perfbench's own modules import repro, so they load only after the
    # source check (here and inside the functions above).
    _require_source()
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; options: {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]
    _emit({"provenance": provenance(workload.name, args.seed)})
    scratch_parent = ROOT / ".perfbench_tmp"
    scratch_parent.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_parent))
    try:
        if args.trace:
            loop, metrics = trace(workload, args.seed, scratch)
        else:
            loop, setup_times = measure(workload, args.seed, args.seconds, scratch)
            metrics = (
                end_to_end_metrics(loop.samples, setup_times, loop.attempted, loop.failed)
                if loop.samples
                else None
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_parent.rmdir()
        except OSError:
            pass
    if metrics is None:
        print("perfbench: no run completed", file=sys.stderr)
        return 1
    _emit(
        {
            "correct": loop.failed == 0,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": metrics,
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
