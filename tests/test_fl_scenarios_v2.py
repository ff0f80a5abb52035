"""Property tests for the v2 scenario middleware primitives.

Two satellite contracts from the middleware-v2 work:

* **Trace round-trip** — an :class:`repro.fl.trace.AvailabilityTrace`
  survives ``to_dict → JSON → from_dict`` (and ``save → load``) with
  identical per-(client, round) eligibility.
* **Budget masks** — :func:`repro.fl.train_flat.plan_cohort_schedule`
  under per-client step caps: a zero-budget client provably has no
  active step anywhere in the lockstep schedule, every client takes
  exactly ``min(natural steps, budget)`` steps, and the sum of
  per-client steps is the FedNova renormalisation denominator the
  engine's steps-taken weights produce.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.config import TrainConfig
from repro.fl.train_flat import plan_cohort_schedule
from repro.fl.trace import AvailabilityTrace
from repro.utils.rng import rng_for

# ----------------------------------------------------------------------
# Trace round-trip
# ----------------------------------------------------------------------
trace_mappings = st.dictionaries(
    keys=st.integers(min_value=0, max_value=15),
    values=st.sets(st.integers(min_value=1, max_value=12), max_size=8),
    max_size=8,
)


class TestTraceRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(mapping=trace_mappings)
    def test_dict_round_trip_preserves_eligibility(self, mapping):
        trace = AvailabilityTrace(mapping)
        payload = json.loads(json.dumps(trace.to_dict()))
        loaded = AvailabilityTrace.from_dict(payload)
        assert loaded == trace
        for cid in range(16):
            for round_index in range(1, 14):
                assert loaded.available(cid, round_index) == trace.available(
                    cid, round_index
                )

    @settings(max_examples=20, deadline=None)
    @given(mapping=trace_mappings)
    def test_file_round_trip(self, mapping):
        trace = AvailabilityTrace(mapping)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.json"
            trace.save(path)
            assert AvailabilityTrace.load(path) == trace

    def test_unlisted_clients_are_always_available(self):
        trace = AvailabilityTrace({3: [2]})
        assert trace.available(0, 1) and trace.available(0, 99)
        assert trace.available(3, 2) and not trace.available(3, 1)

    def test_format_tag_is_validated(self):
        with pytest.raises(ValueError, match="unsupported trace format"):
            AvailabilityTrace.from_dict({"format": "bogus", "clients": {}})
        with pytest.raises(ValueError, match="'clients' mapping"):
            AvailabilityTrace.from_dict({})

    @settings(max_examples=30, deadline=None)
    @given(
        n_clients=st.integers(min_value=1, max_value=10),
        n_rounds=st.integers(min_value=1, max_value=8),
        data=st.data(),
    )
    def test_from_events_matches_event_semantics(self, n_clients, n_rounds, data):
        arrivals = data.draw(
            st.dictionaries(
                st.integers(0, n_clients - 1), st.integers(1, n_rounds), max_size=4
            )
        )
        departures = {}
        for cid, dep in data.draw(
            st.dictionaries(
                st.integers(0, n_clients - 1),
                st.integers(2, n_rounds + 1),
                max_size=4,
            )
        ).items():
            if dep > arrivals.get(cid, 1):
                departures[cid] = dep
        trace = AvailabilityTrace.from_events(
            n_clients, n_rounds, arrivals=arrivals, departures=departures
        )
        for cid in range(n_clients):
            first = arrivals.get(cid, 1)
            last = departures.get(cid, n_rounds + 1) - 1
            for r in range(1, n_rounds + 1):
                assert trace.available(cid, r) == (first <= r <= last)


# ----------------------------------------------------------------------
# Budget masks in the lockstep planner
# ----------------------------------------------------------------------
def _natural_steps(n: int, cfg: TrainConfig) -> int:
    """Steps the serial trainer takes for a size-``n`` dataset."""
    b = min(cfg.batch_size, n)
    per_epoch = -(-n // b)  # ceil
    if cfg.max_batches is not None:
        per_epoch = min(per_epoch, cfg.max_batches)
    total = per_epoch * cfg.local_epochs
    if cfg.max_steps is not None:
        total = min(total, cfg.max_steps)
    return total


cohorts = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=70),  # dataset size
        st.one_of(st.none(), st.integers(min_value=0, max_value=9)),  # budget
    ),
    min_size=1,
    max_size=6,
)


class TestBudgetMasks:
    @settings(max_examples=60, deadline=None)
    @given(
        cohort=cohorts,
        local_epochs=st.integers(min_value=1, max_value=3),
        batch_size=st.integers(min_value=1, max_value=32),
    )
    def test_budgets_truncate_schedules_exactly(
        self, cohort, local_epochs, batch_size
    ):
        sizes = [n for n, _ in cohort]
        budgets = [b for _, b in cohort]
        cfg = TrainConfig(local_epochs=local_epochs, batch_size=batch_size)
        rngs = [rng_for(0, 1, 1, cid) for cid in range(len(sizes))]
        steps, _ = plan_cohort_schedule(sizes, cfg, rngs, max_steps=budgets)

        taken = np.zeros(len(sizes), dtype=np.int64)
        for step in steps:
            for i, idx in enumerate(step.indices):
                assert step.active[i] == (idx is not None)
                if idx is not None:
                    taken[i] += 1
        for i, (n, budget) in enumerate(cohort):
            expected = _natural_steps(n, cfg)
            if budget is not None:
                expected = min(expected, budget)
            # Exactly min(natural, budget) steps — and a zero-budget
            # client is provably inactive at every lockstep position.
            assert taken[i] == expected
            if budget == 0:
                assert all(not step.active[i] for step in steps)
        # FedNova denominator: steps-taken weights sum to the cohort's
        # total step count.
        assert taken.sum() == sum(step.active.sum() for step in steps)

    @settings(max_examples=30, deadline=None)
    @given(
        cohort=cohorts,
        local_epochs=st.integers(min_value=1, max_value=2),
    )
    def test_none_budgets_match_unbudgeted_plan(self, cohort, local_epochs):
        """An all-``None`` budget vector is exactly the unbudgeted plan."""
        sizes = [n for n, _ in cohort]
        cfg = TrainConfig(local_epochs=local_epochs, batch_size=16)
        plain_steps, plain_width = plan_cohort_schedule(
            sizes, cfg, [rng_for(0, 1, 1, cid) for cid in range(len(sizes))]
        )
        none_steps, none_width = plan_cohort_schedule(
            sizes,
            cfg,
            [rng_for(0, 1, 1, cid) for cid in range(len(sizes))],
            max_steps=[None] * len(sizes),
        )
        assert plain_width == none_width
        assert len(plain_steps) == len(none_steps)
        for a, b in zip(plain_steps, none_steps):
            np.testing.assert_array_equal(a.active, b.active)
            for ia, ib in zip(a.indices, b.indices):
                if ia is None:
                    assert ib is None
                else:
                    np.testing.assert_array_equal(ia, ib)


# ----------------------------------------------------------------------
# Realized-trace capture and replay
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def trace_env_factory():
    from repro.data.federation import build_federation
    from repro.fl.simulation import FederatedEnv

    federation = build_federation(
        "cifar10", n_clients=8, n_samples=800, seed=5, partition="label_cluster"
    )

    def make():
        return FederatedEnv(
            federation,
            model_name="mlp",
            model_kwargs={"hidden": (96,)},
            train_cfg=TrainConfig(
                local_epochs=1, batch_size=32, lr=0.05, momentum=0.9
            ),
            seed=2,
        )

    return make


class TestRealizedTrace:
    def test_capture_lists_every_client(self, trace_env_factory):
        from repro.algorithms.registry import make_algorithm
        from repro.fl.rounds import ScenarioConfig

        env = trace_env_factory()
        result = make_algorithm("fedavg").run(
            env,
            n_rounds=4,
            scenario=ScenarioConfig(client_fraction=0.5, failure_rate=0.3),
        )
        trace = result.extras["realized_trace"]
        assert isinstance(trace, AvailabilityTrace)
        # Every client is listed, never-on-time ones with an empty set,
        # so replay treats absence as "unavailable", not "unrestricted".
        assert trace.clients == frozenset(range(8))
        # Survivors = dispatched minus dropped, per round.
        dropped = {
            (event.round, event.client)
            for event in result.extras["events"]
            if event.kind == "drop"
        }
        for cid in range(8):
            for r in trace.rounds_for(cid):
                assert (r, cid) not in dropped

    def test_replay_reproduces_survivor_cohorts_bit_for_bit(
        self, trace_env_factory
    ):
        """Replaying a captured schedule under a clean scenario (no
        failure/straggler/sampling dice) must put exactly the original
        survivors in every aggregation — same model, same per-client
        accuracy."""
        from repro.algorithms.registry import make_algorithm
        from repro.fl.rounds import ScenarioConfig

        env = trace_env_factory()
        original = make_algorithm("fedavg").run(
            env,
            n_rounds=4,
            scenario=ScenarioConfig(
                client_fraction=0.5, failure_rate=0.3, straggler_rate=0.2
            ),
        )
        trace = original.extras["realized_trace"]
        replay_env = trace_env_factory()
        replayed = make_algorithm("fedavg").run(
            replay_env, n_rounds=4, scenario=ScenarioConfig(trace=trace)
        )
        np.testing.assert_array_equal(
            original.per_client_accuracy, replayed.per_client_accuracy
        )
        # The replay rolled no dice at all.
        assert not [
            event
            for event in replayed.extras["events"]
            if event.kind in ("drop", "straggler")
        ]
        # Replay dispatches only the on-time cohort, so it never pays
        # for a dropped or late client's traffic.
        assert (
            replay_env.tracker.total_uploaded <= env.tracker.total_uploaded
        )
        assert (
            replay_env.tracker.total_downloaded
            <= env.tracker.total_downloaded
        )

    @settings(max_examples=40, deadline=None)
    @given(
        participation=st.dictionaries(
            st.integers(min_value=1, max_value=6),  # round
            st.sets(st.integers(min_value=0, max_value=7), min_size=1),
            max_size=6,
        ),
        data=st.data(),
    )
    def test_capture_arithmetic_round_trips(
        self, trace_env_factory, participation, data
    ):
        """realized = dispatches minus drops minus deadline misses, for
        arbitrary event logs — and the capture survives a JSON round
        trip."""
        from repro.fl.rounds import Event, RoundEngine, ScenarioConfig

        engine = RoundEngine(trace_env_factory(), ScenarioConfig())
        engine.events = [
            Event(r, "dispatch", cid)
            for r, ids in sorted(participation.items())
            for cid in sorted(ids)
        ]
        removed: dict[int, set[int]] = {}
        for kind in ("drop", "straggler"):
            for r, ids in participation.items():
                gone = data.draw(st.sets(st.sampled_from(sorted(ids))))
                engine.events.extend(Event(r, kind, cid) for cid in sorted(gone))
                for cid in gone:
                    removed.setdefault(cid, set()).add(r)
        trace = engine.realized_trace()
        assert trace.clients == frozenset(range(8))
        for cid in range(8):
            expected = {
                r for r, ids in participation.items() if cid in ids
            } - removed.get(cid, set())
            assert trace.rounds_for(cid) == frozenset(expected)
        assert AvailabilityTrace.from_dict(
            json.loads(json.dumps(trace.to_dict()))
        ) == trace
