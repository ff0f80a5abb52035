"""Federated-learning simulation substrate."""

from repro.fl.aggregation import packed_weighted_average
from repro.fl.client import (
    ClientUpdate,
    local_train,
    run_client_update_flat,
)
from repro.fl.communication import (
    BYTES_PER_PARAM,
    CommunicationTracker,
    decode_flat_payload,
    encode_flat_payload,
)
from repro.fl.config import TrainConfig
from repro.fl.defense import (
    CORRUPTION_KINDS,
    ROBUST_AGG_MODES,
    CheckpointConfig,
    CheckpointError,
    CorruptionConfig,
    admit_updates,
    load_checkpoint,
    maybe_corrupt,
    robust_weighted_average,
    save_checkpoint,
)
from repro.fl.eval_flat import (
    CohortEval,
    evaluate_packed,
    fused_evaluate,
)
from repro.fl.evaluation import EvalResult, evaluate_model
from repro.fl.history import RoundRecord, RunHistory
from repro.fl.parallel import (
    BatchedClientExecutor,
    ProcessClientExecutor,
    SerialClientExecutor,
    ThreadClientExecutor,
    UpdateTask,
    make_executor,
)
from repro.fl.rounds import (
    AsyncConfig,
    Event,
    RoundEngine,
    RoundStrategy,
    ScenarioConfig,
    aggregation_weights,
)
from repro.fl.sampling import sample_from, uniform_sample
from repro.fl.trace import AvailabilityTrace
from repro.fl.simulation import FederatedEnv
from repro.fl.train_flat import plan_cohort_schedule, supports_batched, train_cohort_flat

__all__ = [
    "packed_weighted_average",
    "ClientUpdate",
    "local_train",
    "run_client_update_flat",
    "BYTES_PER_PARAM",
    "CommunicationTracker",
    "decode_flat_payload",
    "encode_flat_payload",
    "TrainConfig",
    "CORRUPTION_KINDS",
    "ROBUST_AGG_MODES",
    "CheckpointConfig",
    "CheckpointError",
    "CorruptionConfig",
    "admit_updates",
    "load_checkpoint",
    "maybe_corrupt",
    "robust_weighted_average",
    "save_checkpoint",
    "CohortEval",
    "evaluate_packed",
    "fused_evaluate",
    "EvalResult",
    "evaluate_model",
    "RoundRecord",
    "RunHistory",
    "BatchedClientExecutor",
    "ProcessClientExecutor",
    "SerialClientExecutor",
    "ThreadClientExecutor",
    "UpdateTask",
    "make_executor",
    "Event",
    "RoundEngine",
    "RoundStrategy",
    "ScenarioConfig",
    "AsyncConfig",
    "aggregation_weights",
    "AvailabilityTrace",
    "sample_from",
    "uniform_sample",
    "FederatedEnv",
    "plan_cohort_schedule",
    "supports_batched",
    "train_cohort_flat",
]
