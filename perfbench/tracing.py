"""Out-of-tree span tracing for the benchmark's traced run.

Nothing under ``src/`` knows about this module.  :class:`Instrumentation`
wraps the public entry points of each layer (the :data:`TARGETS` table
plus every round-strategy hook) from the outside and records one span
per call — name, start, end, parent — into a :class:`SpanLog` held in
memory.  A layer's self time is its spans' durations minus the time
their child spans cover, so a FedClust clustering round reports its own
bookkeeping while the warm-up training nested inside it reports
separately.

A target that no longer exists in ``src/`` raises
:class:`MissingTarget` at install time instead of silently reading
zero: when a refactor moves a traced function, the benchmark fails
until this table follows it.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator


class MissingTarget(RuntimeError):
    """A traced entry point is not where :data:`TARGETS` says it is."""


class SpanLog:
    """Spans (name, start, end, parent) plus named counters, in memory.

    Spans nest strictly — every workload runs in one thread — so a
    child's interval always lies inside its parent's, and the parent's
    self time is its duration minus the sum of its children's.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counters: defaultdict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self._stack.append(index)
        self.starts.append(self._clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self._clock()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def is_open(self, name: str) -> bool:
        return any(self.names[i] == name for i in self._stack)

    def duration(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    def summary(self) -> tuple[dict[str, float], dict[str, int]]:
        """``(self seconds by name, calls by name)`` over every span."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} span(s) still open")
        covered = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.duration(i)
        self_s: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        for i, name in enumerate(self.names):
            self_s[name] += self.duration(i) - covered[i]
            calls[name] += 1
        return dict(self_s), dict(calls)

    def children_share(self, index: int) -> float:
        """Share of span ``index`` covered by its direct children."""
        covered = sum(
            self.duration(i) for i, p in enumerate(self.parents) if p == index
        )
        return covered / self.duration(index)


# ----------------------------------------------------------------------
# After-call hooks: counts recorded at the same boundaries as the spans
# ----------------------------------------------------------------------
def _count_updates(log: SpanLog, args: tuple, updates: list) -> None:
    env = args[0]
    log.counters["train.updates"] += len(updates)
    log.counters["train.samples"] += sum(u.n_samples for u in updates)
    dispatch = getattr(env.executor, "last_dispatch", None) or {}
    log.counters["train.batched_tasks"] += dispatch.get("batched", 0)
    log.counters["train.serial_fallback_tasks"] += dispatch.get("serial", 0)


def _count_quarantined(log: SpanLog, args: tuple, result: tuple) -> None:
    log.counters["defense.quarantined"] += len(result[1])


def _count_newcomers(log: SpanLog, args: tuple, result: None) -> None:
    log.counters["core.newcomers"] += len(args[3])


def _count_checkpoint_bytes(log: SpanLog, args: tuple, path) -> None:
    log.counters["ckpt.bytes"] += path.stat().st_size


def _run_updates_name(log: SpanLog) -> str:
    # The warm-up dispatch inside FedClust's clustering round is its own
    # layer metric; every other dispatch is round training.
    if log.is_open("core.clustering_round"):
        return "core.warmup_train"
    return "train.run_updates"


#: (module, attribute path, span name or naming function, after hook).
#: A class attribute must be defined on that very class, not inherited.
TARGETS: tuple = (
    ("repro.data.federation", "build_federation", "data.build_federation", None),
    ("repro.fl.simulation", "FederatedEnv.__init__", "env.init", None),
    ("repro.fl.simulation", "FederatedEnv.run_updates", _run_updates_name, _count_updates),
    ("repro.fl.simulation", "FederatedEnv.evaluate_packed", "eval", None),
    ("repro.fl.simulation", "FederatedEnv.evaluate_assignment", "eval", None),
    ("repro.fl.simulation", "FederatedEnv.mean_local_accuracy", "eval", None),
    ("repro.nn.layers.conv", "Conv2d.forward", "nn.conv2d.fwd", None),
    ("repro.nn.layers.conv", "Conv2d.backward", "nn.conv2d.bwd", None),
    ("repro.nn.layers.pool", "MaxPool2d.forward", "nn.maxpool2d.fwd", None),
    ("repro.nn.layers.pool", "MaxPool2d.backward", "nn.maxpool2d.bwd", None),
    ("repro.nn.layers.activation", "ReLU.forward", "nn.relu.fwd", None),
    ("repro.nn.layers.activation", "ReLU.backward", "nn.relu.bwd", None),
    ("repro.nn.layers.linear", "Linear.forward", "nn.linear.fwd", None),
    ("repro.nn.layers.linear", "Linear.backward", "nn.linear.bwd", None),
    ("repro.nn.optim", "SGD.step", "nn.sgd.step", None),
    ("repro.nn.module", "Module.load_flat", "nn.load_flat", None),
    ("repro.fl.train_flat", "train_cohort_flat", "train_flat.cohort", None),
    ("repro.nn.batched", "BatchedSequential.forward", "batched.fwd", None),
    ("repro.nn.batched", "BatchedSequential.backward", "batched.bwd", None),
    ("repro.nn.batched", "BatchedSGD.step", "batched.sgd.step", None),
    ("repro.nn.state_flat", "pack_state", "state.pack", None),
    ("repro.nn.state_flat", "unpack_state", "state.unpack", None),
    ("repro.nn.state_flat", "StateLayout.round_trip", "state.round_trip", None),
    ("repro.fl.aggregation", "packed_weighted_average", "agg.packed_weighted_average", None),
    ("repro.fl.defense", "admit_updates", "defense.admit", _count_quarantined),
    ("repro.fl.defense", "robust_weighted_average", "defense.robust_agg", None),
    ("repro.fl.rounds", "RoundEngine.checkpoint", "ckpt.write", _count_checkpoint_bytes),
    ("repro.core.fedclust", "FedClust.clustering_round", "core.clustering_round", None),
    ("repro.core.proximity", "proximity_matrix", "core.proximity", None),
    ("repro.core.clustering", "cluster_clients", "core.cluster_clients", None),
    ("repro.core.fedclust", "_FedClustRounds.on_arrivals", "core.newcomer", _count_newcomers),
)

#: Round-strategy hooks, wrapped on every RoundStrategy subclass that
#: defines them, as ``algo.<span>``.
STRATEGY_HOOKS = {
    "broadcast_for": "algo.broadcast",
    "aggregate": "algo.aggregate",
    "evaluate": "algo.evaluate",
}


def _wrap(fn: Callable, log: SpanLog, name, after) -> Callable:
    naming = name if callable(name) else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = log.open(naming(log) if naming else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            log.close(index)
        if after is not None:
            after(log, args, result)
        return result

    return traced


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


class Instrumentation:
    """Installs the span wrappers on entry and removes them on exit."""

    def __init__(self, log: SpanLog, targets: tuple = TARGETS) -> None:
        self.log = log
        self.targets = targets
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        try:
            for module_name, path, name, after in self.targets:
                self._install(module_name, path, name, after)
            self._install_strategy_hooks()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self._restore()

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _install(self, module_name: str, path: str, name, after) -> None:
        where = f"{module_name}.{path}"
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            raise MissingTarget(f"cannot trace {where}: {exc}") from exc
        *owners, attr = path.split(".")
        owner = module
        for part in owners:
            owner = getattr(owner, part, None)
            if owner is None:
                raise MissingTarget(f"cannot trace {where}: no {part!r}")
        if owners:
            if attr not in vars(owner):
                raise MissingTarget(f"cannot trace {where}: not defined there")
            self._set(owner, attr, _wrap(vars(owner)[attr], self.log, name, after))
            return
        original = getattr(module, attr, None)
        if original is None:
            raise MissingTarget(f"cannot trace {where}: not defined there")
        wrapped = _wrap(original, self.log, name, after)
        # ``from module import fn`` copies the binding, so every repro
        # module holding the original object gets the wrapper too.
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded_name != "repro" and not loaded_name.startswith("repro."):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, key, wrapped)

    def _install_strategy_hooks(self) -> None:
        # Import the strategy modules so every subclass is registered.
        importlib.import_module("repro.algorithms")
        importlib.import_module("repro.core")
        base = importlib.import_module("repro.fl.rounds").RoundStrategy
        found = dict.fromkeys(STRATEGY_HOOKS, 0)
        for cls in _subclasses(base):
            for hook, name in STRATEGY_HOOKS.items():
                if hook in vars(cls):
                    self._set(cls, hook, _wrap(vars(cls)[hook], self.log, name, None))
                    found[hook] += 1
        missing = [hook for hook, n in found.items() if n == 0]
        if missing:
            raise MissingTarget(f"no RoundStrategy subclass defines {missing}")
