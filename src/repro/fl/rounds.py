"""The round engine: one server loop shared by every algorithm.

:class:`RoundEngine` owns the per-round lifecycle once, for every
algorithm and both scheduling modes:

    departures/arrivals → select participants → broadcast packed rows →
    mode step → aggregate → evaluate → record → checkpoint

Algorithms are reduced to :class:`RoundStrategy` objects with three
required hooks — ``broadcast_for`` (participants → packed-row tasks),
``aggregate`` (the round's updates → new server state, returning the
round's train-loss statistic) and ``evaluate`` (the Table-I metric for
the current state) — plus optional ``on_arrivals``/``on_departures``
notifications.

The *mode step* is the only part that differs between the lockstep and
the FedBuff-style async schedule.  Both train through one primitive
(download charge, failures, budgets, ``run_updates``, corruption,
steps-taken weights); the synchronous step then collects survivors,
retries toward a quorum and folds stale work, while the async step
parks results in an in-flight ledger, delivers the due ones, admits
them and fires an aggregation whenever ``K`` updates are buffered.
Updates awaiting aggregation — sync stragglers banked for stale folding
and async deliveries alike — live in one client-keyed buffer.

Everything the scenario did lands in one append-only event log,
``engine.events``: typed ``(round, kind, client, reason)`` records
(:class:`Event`).  The per-round
:class:`repro.fl.history.RoundRecord` counters, :meth:`RoundEngine.run_record`,
:meth:`RoundEngine.realized_trace` and checkpoints all read from it.

Scenario policy lives in :class:`ScenarioConfig` and composes with
**every** strategy and every executor kind (serial/thread/process/
batched), because it acts on the engine's task lists and update lists,
never on the executor or the payload format:

* **participation** — FedAvg's client fraction ``C``, sampled per round
  via :func:`repro.fl.sampling.uniform_sample` from the server RNG
  stream (``env.server_rng(round_index)``), exactly as FedAvg's
  historical loop did;
* **failures** — seeded pre-training drops on the stateless
  ``(seed, round, client)`` stream of :data:`FAILURE_TAG`.  A failed
  client consumed the broadcast — the download is charged — but never
  trains or uploads;
* **stragglers** — seeded post-training drops on an independent stream.
  A straggler trains and uploads, but its update arrives after the
  aggregation deadline: both transfers are charged, the update misses
  this round, and aggregation weights renormalise over the survivors
  (``packed_weighted_average`` normalises by the surviving sample
  counts, so renormalisation is automatic);
* **stale updates** — with ``staleness_decay > 0`` a straggler's
  finished work is not discarded: the engine buffers the late update
  and folds it into the *next* round's aggregation with its weight
  multiplied by ``staleness_decay ** age`` (age in rounds).  A client
  that produces a fresh update before its stale one is folded
  supersedes it (the buffered copy is dropped), so aggregation never
  sees two updates from one client.  Weights renormalise over
  survivors + stale arrivals automatically;
* **compute budgets** — deadline as computation, not time: with
  ``compute_budget=(lo, hi)`` every participant draws a seeded
  per-(round, client) local step cap from ``[lo, hi]`` and its local
  training is truncated there.  Partial work is **kept** — the client
  uploads whatever it reached — and aggregation switches to
  FedNova-style renormalisation by steps actually taken (each update's
  weight is its step count, so the denominator is the cohort's total
  steps and a zero-budget client provably contributes nothing);
* **arrivals** — clients that join the federation mid-run.  They are
  ineligible for participation before their arrival round; strategies
  are told via ``on_arrivals`` (FedClust routes this into its newcomer
  onboarding);
* **departures** — the dual of arrivals: a client with departure round
  ``r`` is ineligible from round ``r`` on (it must depart strictly
  after it arrived).  Strategies are told via ``on_departures``; a
  departed client's already-uploaded stale update still folds (the
  server holds it), and evaluation keeps covering the client — its
  data did not leave the benchmark, only its participation;
* **availability traces** — the fully-explicit schedule: a replayable
  ``client_id → available-round-set`` mapping
  (:class:`repro.fl.trace.AvailabilityTrace`, JSON on disk, loadable
  from the CLI via ``--trace``) that subsumes arrivals, departures and
  recorded blackout rounds.  Traces compose with the other knobs by
  intersection; a trace absence charges no traffic (the client was
  never contacted — unlike a failure, which consumed the broadcast);
* **corruption** — seeded per-(dispatch round, client) events on their
  own stream (:data:`repro.fl.defense.CORRUPTION_TAG`) that mangle the
  *returned* update row (NaN/Inf poisoning, sign flips, scaled noise).
  The event acts on the update list at the executor boundary, so every
  executor kind and the async in-flight path see identical corruption;
* **admission + robust aggregation** — before aggregation every
  survivor row passes a finiteness guard (always on) and an optional
  norm-bound guard; rejects land in ``engine.events`` as
  ``"quarantine"`` events with reason codes, keep their upload charge
  (the bytes crossed the network), and are excluded from weight
  renormalisation.  ``robust_agg`` swaps the plain weighted average at
  the shared choke point
  (:func:`repro.algorithms.base.survivor_weighted_average`) for
  norm-clipping, a coordinate-wise trimmed mean, or the coordinate-wise
  median — ``"none"`` stays byte-for-byte the historical rule;
* **survivor quorum + retry** — ``min_survivors=q`` with
  ``max_retries=r`` redispatches the failed/quarantined remainder on a
  fresh seeded epoch (``round + 1_000_000 × attempt``, the retry
  derivation FedClust's clustering round pioneered — now an engine
  primitive, :meth:`RoundEngine.dispatch_with_retry`).  Still below
  quorum after the retries, the round degrades gracefully: server state
  frozen, NaN loss, ``RoundRecord.quorum_failed=True`` — never an
  aggregate over a cohort too small to trust;
* **checkpoint/resume** — with a
  :class:`repro.fl.defense.CheckpointConfig` on the scenario the engine
  writes a versioned single-file checkpoint on a round cadence (server
  rows at wire dtype, round counter, event log, update buffers,
  traffic, history) and can resume from it; a resumed run reproduces
  the uninterrupted one bit-identically because all middleware
  randomness is stateless in (seed, round, client) — the file only
  needs the round counter, never a generator state.

At least one participant always survives a *dispatched* round (a round
whose whole cohort fails or misses the deadline would deadlock
aggregation; a real server would re-broadcast instead) — the
deterministically-first client by id is kept.  The guarantee is about
the middleware, not the schedule: an availability trace may
legitimately leave a round with **no eligible clients at all** (a
replayed federation can go fully dark).  Such a round dispatches
nothing; every strategy keeps its state and logs a NaN train loss, and
evaluation still runs on its cadence.

Under the default scenario (full participation, no failures) the engine
performs exactly the tracker calls and aggregation arithmetic of the
pre-engine per-algorithm loops, so seeded runs are bit-identical — the
parity suite in ``tests/test_fl_rounds.py`` gates this per algorithm
and per executor kind.
"""

from __future__ import annotations

import abc
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.fl.client import ClientUpdate
from repro.fl.defense import (
    CORRUPTION_TAG,
    ROBUST_AGG_MODES,
    CheckpointConfig,
    CheckpointError,
    CorruptionConfig,
    admit_updates,
    load_checkpoint,
    maybe_corrupt,
    rebuild_update,
    save_checkpoint,
    update_row,
    update_to_meta,
)
from repro.fl.history import RoundRecord, RunHistory
from repro.fl.parallel import InFlightBuffer, UpdateTask
from repro.fl.sampling import sample_from, uniform_sample
from repro.fl.trace import AvailabilityTrace
from repro.utils.rng import rng_for
from repro.utils.validation import check_fraction, check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Callable
    from pathlib import Path

    from repro.fl.simulation import FederatedEnv

__all__ = [
    "FAILURE_TAG",
    "STRAGGLER_TAG",
    "BUDGET_TAG",
    "DURATION_TAG",
    "CORRUPTION_TAG",
    "AsyncConfig",
    "ScenarioConfig",
    "CorruptionConfig",
    "CheckpointConfig",
    "CheckpointError",
    "DispatchOutcome",
    "Event",
    "RoundStrategy",
    "RoundEngine",
    "aggregation_weights",
    "discounted_update",
]

#: rng_for namespace tag of the failure stream.  Value 13 is load-bearing:
#: every seeded failure pin (and the drop sets of historical faulty runs)
#: was drawn from it.
FAILURE_TAG = 13
#: Straggler draws use an independent stream.
STRAGGLER_TAG = 17
#: Per-(round, client) compute-budget draws use their own stream.
BUDGET_TAG = 19
#: Per-(dispatch round, client) training-duration draws for the async
#: engine use their own stream, so async interleavings are a pure
#: function of (seed, scenario) — deterministic and executor-invariant.
DURATION_TAG = 23


def aggregation_weights(updates: Sequence[ClientUpdate]) -> np.ndarray:
    """Effective aggregation weight per update, as a float64 vector.

    The one place scenario middleware bends the FedAvg weighting rule:
    an update whose ``weight`` is set carries it (compute budgets set it
    to the steps actually taken, stale folding multiplies in the
    staleness discount); everything else falls back to the historical
    sample count.  Strategies must renormalise over whatever subset they
    aggregate — :func:`repro.fl.aggregation.packed_weighted_average`
    normalises by the weight sum, so passing this vector does it.
    """
    return np.array(
        [
            u.weight if u.weight is not None else float(u.n_samples)
            for u in updates
        ],
        dtype=np.float64,
    )


def discounted_update(
    update: ClientUpdate, decay: float, age: int
) -> ClientUpdate:
    """A *copy* of ``update`` carrying the staleness-discounted weight.

    The folded weight is ``base × decay ** age`` where ``base`` is the
    update's effective aggregation weight (its ``weight`` if set —
    compute budgets set it to steps taken — else its sample count).
    The input object is never mutated: buffers that observe the same
    update twice (async re-buffering, trace replay, a strategy keeping
    a reference) must not compound the discount.  The copy is shallow —
    the flat row is shared, which is safe because aggregation only
    reads it.
    """
    import dataclasses

    base = update.weight if update.weight is not None else float(update.n_samples)
    return dataclasses.replace(update, weight=base * decay**age)


@dataclass(frozen=True)
class AsyncConfig:
    """FedBuff-style event-stream policy: dispatch ≠ aggregation.

    With an ``AsyncConfig`` on the scenario, the engine stops running
    lockstep rounds.  Each server step it dispatches fresh work to free
    clients (up to ``max_concurrency`` total in flight), every dispatch
    draws a seeded per-(dispatch round, client) *training duration* in
    server steps (tag :data:`DURATION_TAG`, uniform over
    ``duration_range``), and a client's update arrives at the server
    ``duration`` steps after dispatch.  Arrivals accumulate in a buffer;
    whenever ``buffer_size`` updates are buffered the server aggregates
    the whole buffer, discounting each update by ``decay ** age`` (age =
    aggregation round − dispatch round; ``staleness_decay == 0`` means
    undiscounted — async has no "discard stragglers" mode, lateness is
    the normal case).

    The synchronous engine is the exact special case
    ``buffer_size = |participants|``, ``duration_range = (1, 1)``,
    ``max_concurrency = None``: every dispatched update arrives in its
    own dispatch round and the buffer fills exactly once per round.

    Attributes
    ----------
    buffer_size:
        K: aggregate whenever this many updates are buffered.  The final
        round flushes a partially-filled buffer so arrived work is never
        discarded.
    max_concurrency:
        M: cap on clients concurrently in flight (``None`` = unbounded).
        When the cap binds, the deterministically-lowest client ids of
        the round's selection are dispatched.
    duration_range:
        ``(lo, hi)`` server-step training durations (an int is shorthand
        for ``(d, d)``); each dispatch draws uniformly from ``[lo, hi]``.
        A duration of 1 completes within its dispatch round.
    """

    buffer_size: int = 1
    max_concurrency: int | None = None
    duration_range: tuple[int, int] | int = (1, 3)

    def __post_init__(self) -> None:
        check_positive("buffer_size", self.buffer_size)
        if self.max_concurrency is not None:
            check_positive("max_concurrency", self.max_concurrency)
        duration = self.duration_range
        if isinstance(duration, (int, np.integer)):
            duration = (int(duration), int(duration))
        else:
            duration = tuple(int(d) for d in duration)
        if len(duration) != 2:
            raise ValueError(
                "duration_range must be an int or a (lo, hi) pair, "
                f"got {self.duration_range!r}"
            )
        lo, hi = duration
        if lo < 1 or hi < lo:
            raise ValueError(
                f"duration_range needs 1 <= lo <= hi, got ({lo}, {hi})"
            )
        object.__setattr__(self, "duration_range", (lo, hi))


@dataclass(frozen=True)
class ScenarioConfig:
    """System-heterogeneity policy for a run; composes with any strategy.

    Attributes
    ----------
    client_fraction:
        FedAvg's ``C``: fraction of eligible clients sampled per round
        (1.0 = full participation).
    min_clients:
        Participation floor passed to :func:`uniform_sample`.
    failure_rate:
        Per-(round, client) probability that a participant goes dark
        before training.  Download charged, no upload, no update.
    straggler_rate:
        Per-(round, client) probability that a participant finishes too
        late for aggregation.  Download and upload charged, update
        discarded; aggregation renormalises over the survivors.
    arrivals:
        ``client_id → arrival round`` for clients that join mid-run;
        unlisted clients are present from the start.  A client is
        ineligible for participation in rounds before its arrival round;
        strategies learn about arrivals via
        :meth:`RoundStrategy.on_arrivals`.
    staleness_decay:
        ``0`` (default) discards straggler updates exactly as before.
        A value in ``(0, 1]`` enables stale-update folding: a
        straggler's update is buffered and folded into the next round's
        aggregation with its weight multiplied by ``decay ** age``
        (age in rounds; normally 1).  ``1.0`` means "late but
        undiscounted".
    compute_budget:
        ``None`` (default) leaves local schedules untouched.  A pair
        ``(lo, hi)`` (or a single int, shorthand for ``(b, b)``) caps
        every participant's local SGD at a seeded per-(round, client)
        step count drawn uniformly from ``[lo, hi]``.  Partial work is
        kept and aggregation weights become the steps actually taken
        (FedNova-style); a zero-step draw contributes no update.
    departures:
        ``client_id → departure round``: the client is ineligible from
        that round on.  A departure must come strictly after the
        client's arrival round (default arrival: round 1), so the
        earliest legal departure is round 2 for a founding client.
    trace:
        An :class:`repro.fl.trace.AvailabilityTrace` (or a plain
        ``client_id → iterable-of-rounds`` mapping, coerced) naming
        exactly which rounds each listed client is reachable; unlisted
        clients are always on.  Composes with arrivals/departures by
        intersection.
    async_config:
        ``None`` (default) keeps the synchronous lockstep schedule.  An
        :class:`AsyncConfig` switches the engine's mode step to the
        FedBuff-style event stream: dispatch and aggregation decouple,
        clients stay in flight across server steps, and
        ``staleness_decay`` becomes the per-step-of-age buffer
        discount.  Incompatible with ``straggler_rate`` — stragglers
        are a synchronous-deadline concept; model latency via
        ``duration_range`` instead.  All other middleware
        (participation, failures, budgets, arrivals, departures,
        traces) composes unchanged.
    corruption:
        ``None`` (default) returns every update pristine.  A
        :class:`repro.fl.defense.CorruptionConfig` draws seeded
        per-(dispatch round, client) corruption events that mangle the
        returned update row (NaN/Inf poisoning, sign flip, scaled
        noise) before it reaches admission — the fault-injection dual
        of the admission/robust-aggregation defenses below.
    robust_agg:
        Aggregation rule at the shared choke point: one of
        ``("none", "clip", "trimmed_mean", "coordinate_median")``.
        ``"none"`` (default) is byte-for-byte the historical weighted
        average; see :func:`repro.fl.defense.robust_weighted_average`.
    trim_fraction:
        Per-side trim for ``robust_agg="trimmed_mean"`` (inert under
        any other mode).
    norm_bound:
        ``None`` (default) admits any finite update.  A positive factor
        quarantines rows whose L2 norm exceeds ``norm_bound ×`` the
        median norm of their dispatch batch (reason code
        ``"norm_bound"``).  Non-finite rows are always quarantined
        (reason code ``"non_finite"``), bound or no bound.
    min_survivors:
        Quorum: the minimum admitted on-time survivors a synchronous
        round needs before aggregating.  ``0`` (default) keeps the
        historical behaviour (any survivor folds).  Below quorum the
        engine retries the failed/quarantined remainder up to
        ``max_retries`` times on fresh seeded epochs; still short, the
        round freezes state and records ``quorum_failed``.  Async runs
        must leave this at 0 — ``AsyncConfig.buffer_size`` *is* the
        async quorum.
    max_retries:
        Redispatch attempts per round while below ``min_survivors``.
    checkpoint:
        ``None`` (default) never touches disk.  A
        :class:`repro.fl.defense.CheckpointConfig` (or a bare
        directory, coerced) makes the engine write a resumable
        checkpoint file every ``every`` rounds; with ``resume=True``
        :meth:`RoundEngine.run` restores from an existing file before
        its first round.
    """

    client_fraction: float = 1.0
    min_clients: int = 1
    failure_rate: float = 0.0
    straggler_rate: float = 0.0
    arrivals: Mapping[int, int] | None = None
    staleness_decay: float = 0.0
    compute_budget: tuple[int, int] | int | None = None
    departures: Mapping[int, int] | None = None
    trace: AvailabilityTrace | Mapping | None = None
    async_config: AsyncConfig | None = None
    corruption: CorruptionConfig | None = None
    robust_agg: str = "none"
    trim_fraction: float = 0.1
    norm_bound: float | None = None
    min_survivors: int = 0
    max_retries: int = 0
    checkpoint: CheckpointConfig | None = None

    def __post_init__(self) -> None:
        check_fraction("client_fraction", self.client_fraction)
        check_positive("min_clients", self.min_clients)
        for name in ("failure_rate", "straggler_rate"):
            rate = getattr(self, name)
            check_fraction(name, rate, inclusive_low=True)
            if rate >= 1.0:
                raise ValueError(f"{name} must be < 1 (someone must survive)")
        if self.arrivals:
            bad = {c: r for c, r in self.arrivals.items() if int(r) < 1}
            if bad:
                raise ValueError(f"arrival rounds must be >= 1, got {bad}")
        if not 0.0 <= self.staleness_decay <= 1.0:
            raise ValueError(
                f"staleness_decay must be in [0, 1], got {self.staleness_decay!r}"
            )
        if self.compute_budget is not None:
            budget = self.compute_budget
            if isinstance(budget, (int, np.integer)):
                budget = (int(budget), int(budget))
            else:
                budget = tuple(int(b) for b in budget)
            if len(budget) != 2:
                raise ValueError(
                    "compute_budget must be an int or a (lo, hi) pair, "
                    f"got {self.compute_budget!r}"
                )
            lo, hi = budget
            if lo < 0 or hi < lo:
                raise ValueError(
                    f"compute_budget needs 0 <= lo <= hi, got ({lo}, {hi})"
                )
            object.__setattr__(self, "compute_budget", (lo, hi))
        if self.departures:
            arrivals = self.arrivals or {}
            for cid, dep in self.departures.items():
                arrival = int(arrivals.get(cid, 1))
                if int(dep) <= arrival:
                    raise ValueError(
                        f"client {cid} departs in round {dep} but only arrives "
                        f"in round {arrival} — departures must come strictly "
                        "after arrival"
                    )
        if self.trace is not None and not isinstance(self.trace, AvailabilityTrace):
            object.__setattr__(self, "trace", AvailabilityTrace(self.trace))
        if self.async_config is not None and self.straggler_rate > 0.0:
            raise ValueError(
                "straggler_rate composes only with the synchronous engine "
                "— under async dispatch there is no aggregation deadline "
                "to miss; model client latency via "
                "AsyncConfig.duration_range instead"
            )
        if self.robust_agg not in ROBUST_AGG_MODES:
            raise ValueError(
                f"unknown robust_agg {self.robust_agg!r}; "
                f"options: {ROBUST_AGG_MODES}"
            )
        if not 0.0 < self.trim_fraction < 0.5:
            raise ValueError(
                f"trim_fraction must be in (0, 0.5), got {self.trim_fraction!r}"
            )
        if self.norm_bound is not None:
            check_positive("norm_bound", self.norm_bound)
        if self.min_survivors < 0:
            raise ValueError(
                f"min_survivors must be >= 0, got {self.min_survivors!r}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries!r}"
            )
        if self.async_config is not None and (
            self.min_survivors > 0 or self.max_retries > 0
        ):
            raise ValueError(
                "min_survivors/max_retries compose only with the "
                "synchronous engine — the async aggregation trigger "
                "(AsyncConfig.buffer_size) already is a survivor quorum, "
                "and lateness has no deadline to retry against"
            )
        if self.checkpoint is not None and not isinstance(
            self.checkpoint, CheckpointConfig
        ):
            # A bare directory is the common CLI shape.
            object.__setattr__(
                self, "checkpoint", CheckpointConfig(directory=self.checkpoint)
            )

    @property
    def is_default(self) -> bool:
        """True for the paper-scale scenario: everyone, every round."""
        return (
            self.client_fraction >= 1.0
            and self.failure_rate == 0.0
            and self.straggler_rate == 0.0
            and not self.arrivals
            and self.staleness_decay == 0.0
            and self.compute_budget is None
            and not self.departures
            and self.trace is None
            and self.async_config is None
            and (self.corruption is None or self.corruption.rate == 0.0)
            and self.robust_agg == "none"
            and self.norm_bound is None
            and self.min_survivors == 0
            and self.checkpoint is None
        )

    def validate_for(self, n_clients: int) -> None:
        """Reject client ids outside ``[0, n_clients)`` in any schedule.

        Called by the engine at construction (the config itself cannot
        know the federation size): a trace, arrival or departure that
        names an unknown client is a configuration error, not a client
        that silently never materialises.
        """
        for name, ids in (
            ("arrivals", self.arrivals or {}),
            ("departures", self.departures or {}),
            ("trace", self.trace.clients if self.trace is not None else ()),
        ):
            bad = sorted(int(c) for c in ids if not 0 <= int(c) < n_clients)
            if bad:
                raise ValueError(
                    f"{name} references unknown client ids {bad} — this "
                    f"federation has clients 0..{n_clients - 1}"
                )


class Event(NamedTuple):
    """One record of the engine's append-only event log.

    ``round`` is the round the event belongs to; dispatches of a quorum
    retry or a :meth:`RoundEngine.dispatch_with_retry` attempt log under
    their derived epoch (``round + 1_000_000 × attempt``).  ``client``
    is the client id (``-1`` for the server-side ``"aggregate"``
    event) and ``reason`` the quarantine reason code (empty for every
    other kind).  ``kind`` is one of, in lifecycle order:

    * ``"depart"`` — the client departed at the start of the round;
    * ``"dispatch"`` — the client was sent the round's primary work
      (quorum retries are recovery traffic and log no dispatch);
    * ``"drop"`` — a seeded failure before training (download charged);
    * ``"quarantine"`` — admission rejected the client's update
      (``reason`` holds the :mod:`repro.fl.defense` code);
    * ``"straggler"`` — the update missed the synchronous deadline;
    * ``"stale"`` — a buffered update from an earlier round folded into
      this round's aggregation;
    * ``"absorb"`` — the client's update entered this round's
      aggregation;
    * ``"aggregate"`` — the server ran ``strategy.aggregate``.
    """

    round: int
    kind: str
    client: int
    reason: str = ""


@dataclass
class DispatchOutcome:
    """What came back from one dispatched task list.

    ``late`` holds the straggler updates themselves — populated only
    when stale folding is on (the default path must not keep dead
    updates alive across the next round's cohort allocation).
    ``quarantined`` holds the admission rejects as ``(client id,
    reason)`` pairs; the same pairs are logged as ``"quarantine"``
    events.
    """

    survivors: list[ClientUpdate]
    failed: np.ndarray
    stragglers: np.ndarray
    late: list[ClientUpdate] = field(default_factory=list)
    quarantined: list[tuple[int, str]] = field(default_factory=list)


class RoundStrategy(abc.ABC):
    """An algorithm's per-round behaviour, driven by the engine.

    The engine owns participant selection, failure/straggler injection,
    communication accounting, evaluation cadence and history logging;
    the strategy owns only what is genuinely algorithm-specific.
    """

    #: Registry/reporting name; subclasses override.
    name: str = "abstract"
    #: False for methods with no server round-trip (local-only); the
    #: engine then skips the per-round download/upload accounting.
    charges_communication: bool = True

    @abc.abstractmethod
    def broadcast_for(
        self, engine: "RoundEngine", round_index: int, participants: np.ndarray
    ) -> list[UpdateTask]:
        """Build this round's task list (packed-row payloads).

        Tasks for clients sharing a server model must share the payload
        *object* so executors encode it once (and the batched executor
        groups them into one lockstep cohort).  Any extra traffic beyond
        the engine's one-download-per-participant baseline (e.g. IFCA's
        ``k×`` broadcast) is recorded here by the strategy.
        """

    @abc.abstractmethod
    def aggregate(
        self, engine: "RoundEngine", round_index: int, survivors: list[ClientUpdate]
    ) -> float:
        """Fold the surviving updates into the server state.

        Returns the round's train-loss statistic for the history record
        (NaN when nothing survived — the strategy keeps its state).
        Weighting must renormalise over ``survivors``.
        """

    @abc.abstractmethod
    def evaluate(
        self, engine: "RoundEngine", round_index: int
    ) -> tuple[float, np.ndarray]:
        """Table-I metric of the current server state: (mean, per-client)."""

    def current_n_clusters(self) -> int:
        """Cluster count for the history record."""
        return 1

    def on_arrivals(
        self, engine: "RoundEngine", round_index: int, arrived: np.ndarray
    ) -> None:
        """Clients newly present this round (before participant selection)."""

    def on_departures(
        self, engine: "RoundEngine", round_index: int, departed: np.ndarray
    ) -> None:
        """Clients gone from this round on (before participant selection).

        The dual of :meth:`on_arrivals`.  Departed clients stay in the
        evaluation population (their data still benchmarks the served
        model); strategies that key per-client server state may want to
        freeze or archive it here.
        """

    def checkpoint_payload(
        self, engine: "RoundEngine"
    ) -> tuple[dict, dict[str, np.ndarray]]:
        """Serialise the strategy's server state for a checkpoint.

        Returns ``(meta, arrays)``: JSON-ready scalars plus named numpy
        arrays.  Server model rows must be stored at the layout's wire
        dtype (``engine.env.layout.wire_dtype``) — every post-aggregate
        row is a ``round_trip`` result, so the narrow dtype round-trips
        it exactly and the file stays small.  The default refuses
        loudly: checkpointing a strategy that cannot rebuild its state
        would resume from garbage.
        """
        raise NotImplementedError(
            f"strategy {self.name!r} does not support checkpointing — "
            "it implements no checkpoint_payload()/restore_payload()"
        )

    def restore_payload(
        self, engine: "RoundEngine", meta: Mapping, arrays: Mapping[str, np.ndarray]
    ) -> None:
        """Inverse of :meth:`checkpoint_payload`."""
        raise NotImplementedError(
            f"strategy {self.name!r} does not support checkpointing — "
            "it implements no checkpoint_payload()/restore_payload()"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class RoundEngine:
    """The shared server loop over a :class:`FederatedEnv`.

    One engine instance runs one (or several consecutive) training
    phases; it holds no model state — that lives in the strategy — only
    the environment, the scenario policy, the event log and the update
    buffers.
    """

    def __init__(
        self,
        env: "FederatedEnv",
        scenario: ScenarioConfig | None = None,
        phase: str = "training",
    ) -> None:
        self.env = env
        self.scenario = scenario or ScenarioConfig()
        self.phase = phase
        if self.scenario.min_clients > env.federation.n_clients:
            # Fail at construction, not rounds into the run: a floor
            # above the whole federation can never be met.
            raise ValueError(
                f"scenario min_clients ({self.scenario.min_clients}) exceeds "
                f"the federation size ({env.federation.n_clients})"
            )
        if self.scenario.min_survivors > env.federation.n_clients:
            raise ValueError(
                f"scenario min_survivors ({self.scenario.min_survivors}) "
                f"exceeds the federation size ({env.federation.n_clients}) "
                "— the quorum could never be met"
            )
        self.scenario.validate_for(env.federation.n_clients)
        #: The append-only event log (:class:`Event` records, in the
        #: order they happened).  Round records, :meth:`run_record`,
        #: :meth:`realized_trace` and checkpoints all read from it.
        self.events: list[Event] = []
        #: client id → (round produced, update) awaiting aggregation —
        #: sync stragglers banked for stale folding, async deliveries
        #: waiting for the K trigger.  One entry per client; a newer
        #: update replaces (and moves behind) an older one, so the dict
        #: order is the async arrival order.
        self._buffer: dict[int, tuple[int, ClientUpdate]] = {}
        #: Async mode: dispatched-but-undelivered work (durations drawn
        #: on the DURATION_TAG stream decide the delivery round).
        self._in_flight = InFlightBuffer()
        #: Run-state stash so ``engine.checkpoint(path)`` works without
        #: arguments mid-run.
        self._run_strategy: RoundStrategy | None = None
        self._run_history: RunHistory | None = None
        self._next_round = 1
        self._last_eval: tuple[float, np.ndarray] = (
            float("nan"),
            np.full(env.federation.n_clients, np.nan),
        )

    @property
    def is_async(self) -> bool:
        """True when rounds run the FedBuff-style async mode step."""
        return self.scenario.async_config is not None

    @property
    def admission_active(self) -> bool:
        """True when updates pass the admission scan before aggregation.

        Admission guards are armed by any hardening knob — corruption
        injection (the scenario *creates* non-finite rows), a norm
        bound, a robust aggregation rule, or a survivor quorum.  The
        default scenario skips the scan: a full-cohort finiteness pass
        reads the whole ``(cohort, n_params)`` plane every round
        (~27 ms at 64 × 395k), which is pure overhead on the
        bit-identical fast path the engine-overhead gate pins.
        """
        s = self.scenario
        return (
            (s.corruption is not None and s.corruption.rate > 0.0)
            or s.norm_bound is not None
            or s.robust_agg != "none"
            or s.min_survivors > 0
        )

    @property
    def robust_kwargs(self) -> dict:
        """Keyword arguments carrying the scenario's aggregation rule.

        Strategies splat this into every
        :func:`repro.algorithms.base.survivor_weighted_average` call so
        the robust-aggregation policy reaches all choke-point call
        sites without each strategy growing its own plumbing.
        """
        return {
            "robust_agg": self.scenario.robust_agg,
            "trim_fraction": self.scenario.trim_fraction,
        }

    # ------------------------------------------------------------------
    # Scenario middleware
    # ------------------------------------------------------------------
    def eligible_clients(self, round_index: int) -> np.ndarray:
        """Clients present in the federation as of ``round_index``.

        Intersection of the three presence schedules: arrived (arrival
        round ≤ now), not yet departed (departure round > now), and
        available per the trace (unlisted clients are always on).
        """
        m = self.env.federation.n_clients
        scenario = self.scenario
        arrivals = scenario.arrivals
        departures = scenario.departures
        trace = scenario.trace
        if not arrivals and not departures and trace is None:
            return np.arange(m)
        eligible = []
        for cid in range(m):
            if arrivals and int(arrivals.get(cid, 1)) > round_index:
                continue
            if departures and cid in departures and int(departures[cid]) <= round_index:
                continue
            if trace is not None and not trace.available(cid, round_index):
                continue
            eligible.append(cid)
        return np.array(eligible, dtype=np.int64)

    def arrivals_at(self, round_index: int) -> np.ndarray:
        """Clients whose arrival round is exactly ``round_index``."""
        arrivals = self.scenario.arrivals
        if not arrivals:
            return np.empty(0, dtype=np.int64)
        return np.array(
            sorted(cid for cid, r in arrivals.items() if int(r) == round_index),
            dtype=np.int64,
        )

    def departures_at(self, round_index: int) -> np.ndarray:
        """Clients whose departure round is exactly ``round_index``."""
        departures = self.scenario.departures
        if not departures:
            return np.empty(0, dtype=np.int64)
        return np.array(
            sorted(cid for cid, r in departures.items() if int(r) == round_index),
            dtype=np.int64,
        )

    def select_participants(
        self, round_index: int, exclude: Sequence[int] | None = None
    ) -> np.ndarray:
        """This round's participant set (sorted client ids).

        Full participation returns the eligible set unchanged; otherwise
        sampling draws from ``env.server_rng(round_index)`` — the same
        stream (and, with every client eligible, the same call) FedAvg's
        historical ``_participants`` used, so seeded sampled runs are
        reproduced exactly.

        ``exclude`` removes clients from the eligible pool before
        sampling — async mode passes the in-flight set so a client
        is never dispatched twice concurrently.  An empty/None exclusion
        leaves the synchronous draw sequence untouched.
        """
        eligible = self.eligible_clients(round_index)
        if exclude is not None and len(exclude) and eligible.size:
            gone = np.asarray(sorted(int(c) for c in exclude), dtype=np.int64)
            eligible = eligible[~np.isin(eligible, gone)]
        fraction = self.scenario.client_fraction
        if fraction >= 1.0 or eligible.size <= 1:
            return eligible
        rng = self.env.server_rng(round_index)
        if eligible.size == self.env.federation.n_clients:
            return uniform_sample(
                eligible.size, fraction, rng, self.scenario.min_clients
            )
        return sample_from(eligible, fraction, rng, self.scenario.min_clients)

    def _apply_failures(
        self, tasks: Sequence[UpdateTask], round_index: int
    ) -> tuple[list[UpdateTask], list[int]]:
        """Seeded pre-training drops on the :data:`FAILURE_TAG` stream."""
        rate = self.scenario.failure_rate
        if rate <= 0.0 or not tasks:
            return list(tasks), []
        alive, failed = [], []
        for task in tasks:
            u = rng_for(
                self.env.seed, FAILURE_TAG, round_index, task.client_id
            ).random()
            (alive if u >= rate else failed).append(task)
        if not alive:
            # Guarantee progress: keep the deterministically-first client.
            keep = min(failed, key=lambda t: t.client_id)
            alive = [keep]
            failed = [t for t in failed if t is not keep]
        return alive, sorted(t.client_id for t in failed)

    def _apply_stragglers(
        self, updates: list[ClientUpdate], round_index: int
    ) -> tuple[list[ClientUpdate], list[ClientUpdate]]:
        """Seeded post-training deadline misses (independent stream)."""
        rate = self.scenario.straggler_rate
        if rate <= 0.0 or not updates:
            return updates, []
        on_time, late = [], []
        for update in updates:
            u = rng_for(
                self.env.seed, STRAGGLER_TAG, round_index, update.client_id
            ).random()
            (on_time if u >= rate else late).append(update)
        if not on_time:
            keep = min(late, key=lambda u: u.client_id)
            on_time = [keep]
            late = [u for u in late if u is not keep]
        return on_time, late

    def _apply_budgets(self, tasks: Sequence[UpdateTask], round_index: int) -> None:
        """Stamp each task with its seeded per-(round, client) step cap.

        Draws are uniform over the configured ``[lo, hi]`` on an
        independent stream (tag :data:`BUDGET_TAG`), so the budget
        schedule is reproducible across executors and compositions.  A
        caller-set ``max_steps`` on a task is only ever tightened.
        """
        budget = self.scenario.compute_budget
        if budget is None:
            return
        lo, hi = budget
        for task in tasks:
            drawn = int(
                rng_for(
                    self.env.seed, BUDGET_TAG, round_index, task.client_id
                ).integers(lo, hi + 1)
            )
            task.max_steps = (
                drawn if task.max_steps is None else min(task.max_steps, drawn)
            )

    def _log(
        self, round_index: int, kind: str, clients: Iterable[int]
    ) -> None:
        """Append one ``kind`` event per client id."""
        self.events.extend(Event(round_index, kind, int(c)) for c in clients)

    def _bank(self, entries: Iterable[tuple[int, ClientUpdate]]) -> None:
        """Park ``(round produced, update)`` entries until aggregation.

        One entry per client: a newer update pops the client's older
        entry and is set again, behind everything already buffered.
        """
        for produced, update in entries:
            self._buffer.pop(update.client_id, None)
            self._buffer[update.client_id] = (produced, update)

    def _drain(
        self, round_index: int, fresh: list[ClientUpdate], order: Iterable[int]
    ) -> list[ClientUpdate]:
        """This round's aggregation input: ``fresh`` then the buffer.

        Pops the buffered entries of the clients in ``order`` and
        appends them to ``fresh``.  An entry from an earlier round folds
        as a *copy* weighted by ``decay ** age`` (:func:`discounted_update`;
        ``staleness_decay == 0`` folds async lateness undiscounted) and
        is logged as a ``"stale"`` event.
        """
        decay = self.scenario.staleness_decay or 1.0
        stale = []
        for cid in order:
            produced, update = self._buffer.pop(cid)
            if produced < round_index:
                update = discounted_update(update, decay, round_index - produced)
                stale.append(cid)
            fresh.append(update)
        self._log(round_index, "stale", sorted(stale))
        return fresh

    # ------------------------------------------------------------------
    # Training and dispatch: broadcast accounting + middleware + executor
    # ------------------------------------------------------------------
    def _train(
        self,
        tasks: Sequence[UpdateTask],
        round_index: int,
        phase: str,
        charge_download: bool,
    ) -> tuple[list[ClientUpdate], list[int]]:
        """Train one task list: the first half every dispatch shares.

        Charges the download for **every** task (a client that fails
        mid-round already consumed the broadcast), draws failures and
        budgets, runs the executor, applies corruption and — under
        compute budgets — sets each update's weight to the steps it
        actually took.  Returns ``(updates, failed client ids)``.
        """
        env = self.env
        if charge_download and tasks:
            env.tracker.record_download(env.n_params * len(tasks), phase)
        alive, failed_ids = self._apply_failures(tasks, round_index)
        self._log(round_index, "drop", failed_ids)
        self._apply_budgets(alive, round_index)
        updates = env.run_updates(alive, round_index)
        updates = self._apply_corruption(updates, round_index)
        if self.scenario.compute_budget is not None:
            # FedNova-style renormalisation: weight by steps actually
            # taken, so a budget-truncated client counts for what it
            # computed and a zero-step client counts for nothing.
            for update in updates:
                update.weight = float(update.n_batches)
        return updates, failed_ids

    def dispatch(
        self,
        tasks: Sequence[UpdateTask],
        round_index: int,
        phase: str | None = None,
        charge_download: bool = True,
        charge_upload: bool = True,
    ) -> DispatchOutcome:
        """Run one task list through the synchronous middleware.

        :meth:`_train` first; then uploads are charged only for clients
        that finished training (stragglers uploaded too, just late).
        ``charge_upload=False`` lets callers with partial-weight uploads
        (FedClust's clustering round) account the upload themselves.

        Corruption fires before the upload charge (the corrupted bytes
        crossed the network); then — when any hardening knob arms
        :attr:`admission_active` — every update passes admission before
        the straggler split: quarantined clients are neither survivors
        nor stale candidates, and a quarantined straggler never reaches
        the update buffer.
        """
        env = self.env
        phase = self.phase if phase is None else phase
        updates, failed_ids = self._train(tasks, round_index, phase, charge_download)
        if charge_upload and updates:
            env.tracker.record_upload(env.n_params * len(updates), phase)
        updates, quarantined = self._admit(updates, round_index)
        survivors, late = self._apply_stragglers(updates, round_index)
        straggler_ids = sorted(u.client_id for u in late)
        self._log(round_index, "straggler", straggler_ids)
        return DispatchOutcome(
            survivors=survivors,
            failed=np.array(failed_ids, dtype=np.int64),
            stragglers=np.array(straggler_ids, dtype=np.int64),
            # Keep the late updates alive only when stale folding wants
            # them — otherwise they must die here (buffer-lifetime
            # hygiene: dead cohort-sized buffers cost page faults).
            late=late if self.scenario.staleness_decay > 0.0 else [],
            quarantined=quarantined,
        )

    def _apply_corruption(
        self, updates: list[ClientUpdate], round_index: int
    ) -> list[ClientUpdate]:
        """Corruption middleware: seeded per-(round, client) mangling."""
        corruption = self.scenario.corruption
        if corruption is None or corruption.rate <= 0.0 or not updates:
            return updates
        env = self.env
        return [
            maybe_corrupt(u, env.seed, round_index, corruption)
            for u in updates
        ]

    def _admit(
        self, updates: list[ClientUpdate], round_index: int
    ) -> tuple[list[ClientUpdate], list[tuple[int, str]]]:
        """Admission middleware: quarantine rows the server won't fold."""
        if not self.admission_active:
            return updates, []
        admitted, rejected = admit_updates(updates, self.scenario.norm_bound)
        self.events.extend(
            Event(round_index, "quarantine", int(cid), reason)
            for cid, reason in rejected
        )
        return admitted, rejected

    def dispatch_with_retry(
        self,
        make_tasks: "Callable[[list[int]], list[UpdateTask]]",
        targets: Sequence[int],
        round_index: int,
        max_attempts: int,
        phase: str | None = None,
        charge_download: bool = True,
        charge_upload: bool = True,
    ) -> tuple[dict[int, ClientUpdate], list[int]]:
        """Dispatch ``targets`` with up to ``max_attempts`` seeded epochs.

        The retry derivation FedClust's clustering round pioneered, as
        an engine primitive: attempt ``a`` dispatches the still-pending
        clients at epoch ``round_index + 1_000_000 × a``, so every
        attempt rolls fresh failure/straggler/budget/corruption dice on
        the stateless streams without colliding with any real round.
        ``make_tasks`` receives the pending client ids (in their
        original ``targets`` order) and builds the attempt's task list.

        Returns ``(collected, pending)``: one admitted update per
        responding client (first response wins) and the clients that
        never responded within the attempt budget.  Drop/straggler/
        quarantine events log under the derived epoch, exactly like a
        plain :meth:`dispatch`.
        """
        collected: dict[int, ClientUpdate] = {}
        pending = [int(c) for c in targets]
        for attempt in range(max_attempts):
            if not pending:
                break
            attempt_round = round_index + 1_000_000 * attempt
            outcome = self.dispatch(
                make_tasks(pending),
                attempt_round,
                phase=phase,
                charge_download=charge_download,
                charge_upload=charge_upload,
            )
            for update in outcome.survivors:
                collected[update.client_id] = update
            pending = [cid for cid in pending if cid not in collected]
        return collected, pending

    # ------------------------------------------------------------------
    # The round lifecycle
    # ------------------------------------------------------------------
    def run(
        self,
        strategy: RoundStrategy,
        n_rounds: int,
        history: RunHistory,
        first_round: int = 1,
        eval_every: int = 1,
    ) -> tuple[float, np.ndarray]:
        """Run ``n_rounds`` engine rounds, appending to ``history``.

        Returns the last evaluation ``(mean accuracy, per-client
        accuracies)``; the final round is always evaluated.  Rounds off
        the ``eval_every`` cadence record ``mean_local_accuracy`` as NaN
        with ``evaluated=False`` — a history distinguishes "measured"
        from "not measured this round" instead of silently carrying the
        previous evaluation forward.

        Each round runs the shared head (departures, arrivals,
        selection, broadcast), one mode step — :meth:`_sync_step`, or
        :meth:`_async_step` under an :class:`AsyncConfig` — and the
        shared tail (aggregate if the step produced an aggregation
        input, evaluate, record, checkpoint).  A round without an
        aggregation — an async step below the K trigger, a sync round
        below quorum — logs a NaN train loss with
        ``aggregation_event=False``.
        """
        if n_rounds < 1:
            raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
        env = self.env
        last_round = first_round + n_rounds - 1
        mean_acc, per_client = float("nan"), np.full(env.federation.n_clients, np.nan)
        start_round, restored = self._maybe_resume(strategy, history, first_round)
        if restored is not None:
            mean_acc, per_client = restored
        for round_index in range(start_round, last_round + 1):
            t0 = time.perf_counter()
            mark = len(self.events)
            departed = self.departures_at(round_index)
            if departed.size:
                self._log(round_index, "depart", departed)
                strategy.on_departures(self, round_index, departed)
            arrived = self.arrivals_at(round_index)
            if arrived.size:
                strategy.on_arrivals(self, round_index, arrived)
            participants = self._select(round_index)
            self._log(round_index, "dispatch", participants)
            tasks = strategy.broadcast_for(self, round_index, participants)
            if self.is_async:
                folded = self._async_step(strategy, round_index, tasks, last_round)
            else:
                folded = self._sync_step(strategy, round_index, participants, tasks)
            train_loss = float("nan")
            if folded is not None:
                train_loss = strategy.aggregate(self, round_index, folded)
                self._log(round_index, "absorb", [u.client_id for u in folded])
                self.events.append(Event(round_index, "aggregate", -1))
                # Release the round's updates before evaluation and the
                # next round's cohort allocation.
                folded = None
            evaluated = round_index == last_round or round_index % eval_every == 0
            if evaluated:
                mean_acc, per_client = strategy.evaluate(self, round_index)
            self._next_round = round_index + 1
            self._last_eval = (mean_acc, per_client)
            counts = Counter(event.kind for event in self.events[mark:])
            history.append(
                RoundRecord(
                    round_index=round_index,
                    mean_train_loss=train_loss,
                    mean_local_accuracy=mean_acc if evaluated else float("nan"),
                    n_participants=counts["dispatch"],
                    n_clusters=strategy.current_n_clusters(),
                    uploaded_params=env.tracker.total_uploaded,
                    downloaded_params=env.tracker.total_downloaded,
                    wall_seconds=time.perf_counter() - t0,
                    n_stale=counts["stale"],
                    n_departed=counts["depart"],
                    # Counts async deliveries awaiting the K trigger;
                    # stragglers banked for a sync stale fold are not
                    # arrived updates and are not counted.
                    n_buffered=len(self._buffer) if self.is_async else 0,
                    n_quarantined=counts["quarantine"],
                    aggregation_event=counts["aggregate"] > 0,
                    quorum_failed=not self.is_async and not counts["aggregate"],
                    evaluated=evaluated,
                )
            )
            self._maybe_checkpoint(round_index, last_round)
        return mean_acc, per_client

    def _select(self, round_index: int) -> np.ndarray:
        """The round's participants; async mode skips clients in flight
        and truncates to the free ``max_concurrency`` slots."""
        cfg = self.scenario.async_config
        if cfg is None:
            return self.select_participants(round_index)
        participants = self.select_participants(
            round_index, exclude=self._in_flight.client_ids
        )
        if cfg.max_concurrency is not None:
            slots = cfg.max_concurrency - len(self._in_flight)
            participants = participants[: max(0, slots)]
        return participants

    def _sync_step(
        self,
        strategy: RoundStrategy,
        round_index: int,
        participants: np.ndarray,
        tasks: list[UpdateTask],
    ) -> list[ClientUpdate] | None:
        """Lockstep: dispatch, quorum retry, stale fold.

        Returns the aggregation input — fresh survivors in dispatch
        order, then buffered stale work by ascending client id (a
        buffered update whose client delivered fresh work is dropped:
        one update per client per round) — or ``None`` for a round that
        stayed below quorum.  Such a round never aggregates: state stays
        frozen and buffered stale work stays buffered, but the round's
        own late work is still banked for a future healthy round.
        """
        charge = strategy.charges_communication
        dispatched = self.dispatch(
            tasks, round_index, charge_download=charge, charge_upload=charge
        )
        quorum = self.scenario.min_survivors
        folded: list[ClientUpdate] | None = dispatched.survivors
        if quorum > 0 and participants.size and len(folded) < quorum:
            self._retry_for_quorum(
                strategy, round_index, participants, dispatched, charge
            )
            if len(folded) < quorum:
                folded = None
        if folded is not None and self._buffer:
            for update in folded:
                self._buffer.pop(update.client_id, None)  # superseded
            folded = self._drain(round_index, folded, sorted(self._buffer))
        self._bank((round_index, update) for update in dispatched.late)
        return folded

    def _retry_for_quorum(
        self,
        strategy: RoundStrategy,
        round_index: int,
        participants: np.ndarray,
        dispatched: DispatchOutcome,
        charge: bool,
    ) -> None:
        """Redispatch the failed/quarantined remainder toward quorum.

        Each attempt re-broadcasts (download re-charged — a retry is a
        real network event) to the participants that have delivered
        nothing yet — neither an admitted update nor a buffered late
        one — on the fresh seeded epoch ``round + 1_000_000 × attempt``
        (attempt ≥ 1; the original dispatch was attempt 0).  Survivors
        and late work merge into ``dispatched`` in place.  Retries log
        no ``"dispatch"`` events: :meth:`realized_trace` captures the
        primary schedule, not the recovery traffic (their drop/
        straggler/quarantine events carry the derived epochs).
        """
        scenario = self.scenario
        delivered = {u.client_id for u in dispatched.survivors}
        delivered |= {u.client_id for u in dispatched.late}
        for attempt in range(1, scenario.max_retries + 1):
            if len(dispatched.survivors) >= scenario.min_survivors:
                break
            remainder = np.array(
                [int(c) for c in participants if int(c) not in delivered],
                dtype=np.int64,
            )
            if not remainder.size:
                break
            retry_round = round_index + 1_000_000 * attempt
            tasks = strategy.broadcast_for(self, retry_round, remainder)
            outcome = self.dispatch(
                tasks,
                retry_round,
                charge_download=charge,
                charge_upload=charge,
            )
            dispatched.survivors.extend(outcome.survivors)
            dispatched.late.extend(outcome.late)
            delivered |= {u.client_id for u in outcome.survivors}
            delivered |= {u.client_id for u in outcome.late}

    def _async_step(
        self,
        strategy: RoundStrategy,
        round_index: int,
        tasks: list[UpdateTask],
        last_round: int,
    ) -> list[ClientUpdate] | None:
        """FedBuff-style: in-flight ledger, delivery, admission, K trigger.

        Client results are computed eagerly at dispatch (they depend
        only on the seeded (dispatch round, client) stream and the
        broadcast payload, so executor kind cannot change them), parked
        in the in-flight ledger for a seeded duration, and *delivered*
        late: the upload is charged at delivery, then admission runs, so
        a corrupted row never enters the buffer.  Whenever the buffer
        holds ``buffer_size`` updates — or in the final round, which
        flushes a partial buffer — the whole buffer drains in arrival
        order into the aggregation input.  Work still in flight at the
        end of the run is abandoned (server shutdown).
        """
        cfg = self.scenario.async_config
        lo, hi = cfg.duration_range
        env = self.env
        charge = strategy.charges_communication
        # Corruption fires at dispatch (keyed by the dispatch round,
        # like the duration draw), so the ledger carries the corrupted
        # row and admission catches it at delivery.
        updates, _ = self._train(tasks, round_index, self.phase, charge)
        self._in_flight.add(
            updates,
            round_index,
            [
                round_index
                - 1
                + int(
                    rng_for(
                        env.seed, DURATION_TAG, round_index, update.client_id
                    ).integers(lo, hi + 1)
                )
                for update in updates
            ],
        )
        due = self._in_flight.collect_due(round_index)
        if due:
            if charge:
                env.tracker.record_upload(env.n_params * len(due), self.phase)
            # A client is never in flight twice, so rejected ids map
            # back unambiguously.
            _, rejected = self._admit([update for _, update in due], round_index)
            if rejected:
                gone = {cid for cid, _ in rejected}
                due = [entry for entry in due if entry[1].client_id not in gone]
            self._bank(due)
        if len(self._buffer) >= cfg.buffer_size or (
            round_index == last_round and self._buffer
        ):
            return self._drain(round_index, [], list(self._buffer))
        return None

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def _maybe_resume(
        self, strategy: RoundStrategy, history: RunHistory, first_round: int
    ) -> tuple[int, tuple[float, np.ndarray] | None]:
        """Resume from the configured checkpoint file if asked and present.

        Returns ``(start round, restored last-eval or None)``.  A
        missing file is not an error: the same invocation then runs
        from scratch, which is what a crash-restart wrapper wants.
        """
        self._run_strategy, self._run_history = strategy, history
        ckpt = self.scenario.checkpoint
        if ckpt is None or not ckpt.resume or not ckpt.path.exists():
            return first_round, None
        next_round, mean_acc, per_client = self.resume(
            ckpt.path, strategy, history
        )
        return max(first_round, next_round), (mean_acc, per_client)

    def _maybe_checkpoint(self, round_index: int, last_round: int) -> None:
        """Write the configured checkpoint on its cadence (final round
        always writes)."""
        ckpt = self.scenario.checkpoint
        if ckpt is None:
            return
        if round_index % ckpt.every == 0 or round_index == last_round:
            self.checkpoint(ckpt.path)

    def checkpoint(
        self,
        path: "str | Path | None" = None,
        strategy: RoundStrategy | None = None,
        history: RunHistory | None = None,
    ) -> "Path":
        """Write a resumable checkpoint of the whole run state.

        Serialised: the strategy's server rows (at wire dtype, via its
        :meth:`RoundStrategy.checkpoint_payload` hook), the round
        counter, the event log, the communication tracker's per-phase
        counters, the history records, the last evaluation, and both
        update sections (the aggregation buffer and the async in-flight
        ledger) — buffered update *rows* at float64, because a
        corrupted row awaiting admission need not survive a wire-dtype
        round-trip.  The rng "state" is just the seed and the round
        counter: every stream is stateless in (seed, tag, round,
        client), so resuming re-derives identical draws.

        Called automatically on the :class:`CheckpointConfig` cadence
        during :meth:`run`; callable directly mid-run (the strategy and
        history default to the ones of the active run) or standalone
        with explicit arguments.
        """
        strategy = strategy if strategy is not None else self._run_strategy
        history = history if history is not None else self._run_history
        if strategy is None or history is None:
            raise ValueError(
                "checkpoint() outside an active run needs explicit "
                "strategy/history arguments"
            )
        if path is None:
            if self.scenario.checkpoint is None:
                raise ValueError(
                    "checkpoint() needs a path: pass one or configure "
                    "ScenarioConfig.checkpoint"
                )
            path = self.scenario.checkpoint.path
        env = self.env
        meta, strategy_arrays = strategy.checkpoint_payload(self)
        arrays: dict[str, np.ndarray] = {
            f"strategy/{name}": array for name, array in strategy_arrays.items()
        }

        def section(
            entries: Iterable[tuple[dict, ClientUpdate]],
        ) -> tuple[list[dict], np.ndarray]:
            metas, rows = [], []
            for extra, update in entries:
                metas.append({**update_to_meta(update), **extra})
                rows.append(update_row(update))
            if not rows:
                return metas, np.empty((0, env.n_params), dtype=np.float64)
            return metas, np.stack(rows)

        buffer_meta, arrays["buffer_rows"] = section(
            ({"round": int(produced)}, update)
            for produced, update in self._buffer.values()
        )
        flight_meta, arrays["in_flight_rows"] = section(
            (
                {
                    "done": int(done),
                    "seq": int(seq),
                    "dispatch_round": int(dispatch_round),
                },
                update,
            )
            for done, seq, dispatch_round, update in self._in_flight.snapshot()
        )
        mean_acc, per_client = self._last_eval
        arrays["per_client_accuracy"] = np.asarray(per_client, dtype=np.float64)

        header = {
            "seed": int(env.seed),
            "strategy": strategy.name,
            "n_clients": int(env.federation.n_clients),
            "n_params": int(env.n_params),
            "next_round": int(self._next_round),
            "mean_accuracy": float(mean_acc),
            "strategy_meta": meta,
            "events": [list(event) for event in self.events],
            "traffic": {
                "uploads": {k: int(v) for k, v in env.tracker.uploads.items()},
                "downloads": {
                    k: int(v) for k, v in env.tracker.downloads.items()
                },
            },
            "history": {
                "algorithm": history.algorithm,
                "dataset": history.dataset,
                "seed": int(history.seed),
                "records": [asdict(record) for record in history.records],
            },
            "buffer": buffer_meta,
            "in_flight": flight_meta,
            "in_flight_seq": int(self._in_flight.next_seq),
        }
        return save_checkpoint(path, header, arrays)

    def resume(
        self,
        path: "str | Path",
        strategy: RoundStrategy,
        history: RunHistory,
    ) -> tuple[int, float, np.ndarray]:
        """Restore a checkpoint written by :meth:`checkpoint`.

        Validates that the file belongs to this run (seed, strategy
        name, federation size, parameter count — a mismatch raises
        :class:`repro.fl.defense.CheckpointError` quoting expected vs
        found), then restores the strategy state, event log, update
        buffers, tracker counters and history records **in place** and
        returns ``(next round, last mean accuracy, last per-client
        accuracies)``.  ``history.records`` is replaced wholesale, so a
        caller that pre-seeded records (FedClust re-runs its round-1
        clustering deterministically before resuming) converges on the
        checkpointed truth.
        """
        header, arrays = load_checkpoint(path)
        env = self.env
        expectations = (
            ("seed", int(env.seed)),
            ("strategy", strategy.name),
            ("n_clients", int(env.federation.n_clients)),
            ("n_params", int(env.n_params)),
        )
        for key, want in expectations:
            found = header.get(key)
            if found != want:
                raise CheckpointError(
                    f"checkpoint {key} mismatch in {path}: this run expects "
                    f"{want!r}, the file holds {found!r}"
                )
        strategy.restore_payload(
            self,
            header.get("strategy_meta", {}),
            {
                name.split("/", 1)[1]: array
                for name, array in arrays.items()
                if name.startswith("strategy/")
            },
        )
        self.events[:] = [
            Event(int(r), str(kind), int(cid), str(reason))
            for r, kind, cid, reason in header["events"]
        ]
        tracker = env.tracker
        tracker.uploads.clear()
        for phase, count in header["traffic"]["uploads"].items():
            tracker.uploads[phase] = int(count)
        tracker.downloads.clear()
        for phase, count in header["traffic"]["downloads"].items():
            tracker.downloads[phase] = int(count)
        history.records[:] = [
            RoundRecord(**record) for record in header["history"]["records"]
        ]
        self._buffer = {
            int(entry["client_id"]): (
                int(entry["round"]),
                rebuild_update(entry, row),
            )
            for entry, row in zip(header["buffer"], arrays["buffer_rows"])
        }
        self._in_flight.restore(
            [
                (
                    int(entry["done"]),
                    int(entry["seq"]),
                    int(entry["dispatch_round"]),
                    rebuild_update(entry, row),
                )
                for entry, row in zip(
                    header["in_flight"], arrays["in_flight_rows"]
                )
            ],
            int(header["in_flight_seq"]),
        )
        mean_acc = float(header["mean_accuracy"])
        per_client = arrays["per_client_accuracy"].astype(np.float64)
        self._next_round = int(header["next_round"])
        self._last_eval = (mean_acc, per_client)
        return self._next_round, mean_acc, per_client

    # ------------------------------------------------------------------
    # Views of the event log
    # ------------------------------------------------------------------
    def realized_trace(self) -> AvailabilityTrace:
        """The schedule this engine actually executed, as a trace.

        Per client, the rounds in which it *delivered on time*:
        ``"dispatch"`` events minus the seeded failures and deadline
        misses of the same round (``"drop"``/``"straggler"`` events).
        Every client of the federation is listed — including
        never-dispatched ones with an empty round set — so replaying the
        trace through a fresh ``ScenarioConfig(trace=...,
        client_fraction=1.0)`` reproduces exactly the original survivor
        cohorts without re-rolling any failure/straggler/sampling dice.
        (Replay equivalence covers the aggregation stream; scenarios
        that *fold* straggler work late — ``staleness_decay > 0`` —
        deliver extra stale updates the trace deliberately does not
        re-create.)
        """
        m = self.env.federation.n_clients
        missed = {
            (event.round, event.client)
            for event in self.events
            if event.kind in ("drop", "straggler")
        }
        rounds: dict[int, set[int]] = {cid: set() for cid in range(m)}
        for event in self.events:
            if event.kind == "dispatch" and (event.round, event.client) not in missed:
                rounds[event.client].add(event.round)
        return AvailabilityTrace(rounds)

    def run_record(self) -> dict:
        """Versioned JSON-ready summary of the engine's scenario counters.

        The export hook the ablation harness
        (:mod:`repro.experiments.ablation`) records per run: the count
        of each event kind (the events themselves stay on the engine for
        callers that need the per-round detail), the quarantine reasons
        broken out by code, and the traffic totals.  Algorithms attach
        it to ``RunResult.extras["engine_record"]`` so every run —
        regardless of strategy or scheduling mode — reports the same
        counter schema.
        """
        counts = Counter(event.kind for event in self.events)
        reasons: dict[str, int] = {}
        for event in self.events:
            if event.kind == "quarantine":
                reasons[event.reason] = reasons.get(event.reason, 0) + 1
        return {
            "schema": 1,
            "async": self.is_async,
            "n_dispatched": counts["dispatch"],
            "n_dropped": counts["drop"],
            "n_stragglers": counts["straggler"],
            "n_stale_folded": counts["stale"],
            "n_departed": counts["depart"],
            "n_quarantined": counts["quarantine"],
            "quarantine_reasons": reasons,
            "n_aggregation_events": counts["aggregate"],
            "n_updates_absorbed": counts["absorb"],
            "uploaded_params": int(self.env.tracker.total_uploaded),
            "downloaded_params": int(self.env.tracker.total_downloaded),
        }
