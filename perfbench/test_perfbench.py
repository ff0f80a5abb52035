"""Tests of the benchmark's own code: span arithmetic, names, checks.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run  # noqa: E402
from perfbench.checks import Observed, check, digest  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    TARGETS,
    Instrumentation,
    MissingTarget,
    SpanLog,
    _run_updates_name,
)
from perfbench.workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_nested_children():
    # clustering round [0, 10] ⊃ warm-up dispatch [1, 7] ⊃ conv [2, 5],
    # then an evaluation [8, 9] directly under the clustering round.
    log = SpanLog(clock=FakeClock([0, 1, 2, 5, 7, 8, 9, 10]))
    with log.span("core.clustering_round"):
        with log.span(_run_updates_name(log)):
            with log.span("nn.conv2d.fwd"):
                pass
        with log.span("eval"):
            pass
    self_s, calls = log.summary()
    assert self_s == {
        "core.clustering_round": 10 - 6 - 1,
        "core.warmup_train": 6 - 3,
        "nn.conv2d.fwd": 3,
        "eval": 1,
    }
    assert calls == dict.fromkeys(self_s, 1)
    assert log.children_share(0) == pytest.approx(0.7)


def test_run_updates_outside_clustering_round_is_round_training():
    log = SpanLog(clock=FakeClock([0, 1]))
    with log.span(_run_updates_name(log)):
        pass
    assert log.summary()[0] == {"train.run_updates": 1}


def test_summary_refuses_open_spans():
    log = SpanLog(clock=FakeClock([0]))
    log.open("engine")
    with pytest.raises(RuntimeError):
        log.summary()


def test_instrumentation_wraps_and_restores_every_target():
    import importlib

    def resolve(module_name, path):
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        return owner

    before = [resolve(m, p) for m, p, _, _ in TARGETS]
    with Instrumentation(SpanLog()):
        during = [resolve(m, p) for m, p, _, _ in TARGETS]
        from repro.algorithms import base
        from repro.fl import aggregation

        # ``from ... import`` bindings elsewhere in repro follow the wrap.
        assert base.packed_weighted_average is aggregation.packed_weighted_average
    after = [resolve(m, p) for m, p, _, _ in TARGETS]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


def test_missing_target_fails_loudly():
    targets = (("repro.fl.rounds", "RoundEngine.no_such_method", "x", None),)
    with pytest.raises(MissingTarget, match="no_such_method"):
        with Instrumentation(SpanLog(), targets=targets):
            pass


def test_benchmark_json_matches_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _observed(**overrides) -> Observed:
    fields = dict(
        n_rounds=3,
        history_rounds=3,
        final_acc=0.75,
        comm_total={"uploaded": 10, "downloaded": 20, "bytes": 120},
        engine_record={
            "uploaded_params": 10,
            "downloaded_params": 20,
            "n_dispatched": 6,
            "n_dropped": 1,
        },
        n_clusters=2,
        labels=[0, 1, 1, 0],
        fedclust=True,
        arrivals={3: 2},
        onboarded={3: 0},
    )
    fields.update(overrides)
    return Observed(**fields)


def _emitted_units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def test_every_declared_metric_is_emitted_with_its_unit():
    sample = run.Sample(setup_s=1.0, run_s=2.0, updates=8, observed=_observed())
    end_to_end = run.end_to_end_metrics([sample], [1.0, 1.1, 0.9], 1, 0)
    assert _emitted_units(end_to_end) == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }

    log = SpanLog(clock=FakeClock([0, 1, 2, 3]))
    with log.span("engine") as root:
        with log.span("algo.aggregate"):
            pass
    traced = run.Sample(1.0, 3.0, 8, _observed(), root_span=root)
    per_layer = run.per_layer_metrics(log, traced, sample)
    assert _emitted_units(per_layer) == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert per_layer["engine.self_s"]["value"] == 2
    assert per_layer["engine.aggregation_events"]["value"] == 1
    assert per_layer["trace.overhead_s"]["value"] == 1.0


def test_required_layers_are_declared_metrics_or_spans():
    known_spans = set(run.SELF_TIMES.values()) | set(run.CALLS.values())
    known = known_spans | set(run.COUNTERS) | {"ckpt.bytes"}
    for workload in WORKLOADS.values():
        assert set(workload.required) <= known, workload.name


def test_checks_pass_a_good_result():
    assert check(_observed()) == []


@pytest.mark.parametrize(
    "doctored",
    [
        {"final_acc": float("nan")},
        {"final_acc": 1.5},
        {"history_rounds": 2},
        {"comm_total": {"uploaded": 11, "downloaded": 20, "bytes": 124}},
        {"n_clusters": 0, "labels": [0, 0, 0, 0], "onboarded": {3: 0}},
        {"labels": [0, 1, 2, 0]},
        {"onboarded": {}},
        {"onboarded": {3: 1}},
    ],
)
def test_checks_fail_a_doctored_result(doctored):
    assert check(_observed(**doctored))


def test_digest_moves_with_accuracy_traffic_and_labels():
    base = digest(_observed())
    assert digest(_observed()) == base
    assert digest(_observed(final_acc=0.7500001)) != base
    assert digest(_observed(comm_total={"uploaded": 10, "downloaded": 21, "bytes": 124})) != base
    assert digest(_observed(labels=[1, 0, 1, 0])) != base


def test_run_refuses_a_tree_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit) as exit_info:
        run.main(["--workload", "ifca_mlp_batched", "--seed", "0", "--seconds", "1"])
    assert exit_info.value.code != 0
