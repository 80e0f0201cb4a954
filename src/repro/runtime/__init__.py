"""Batched/parallel experiment runtime.

This package is the execution layer *above* the simulator: where
:mod:`repro.simulator` makes one circuit cheap and
:mod:`repro.qnn.evaluation` makes one day cheap, the runtime makes whole
experiments cheap — it chunks per-day evaluations into vectorised
multi-binding backend calls, fans the chunks out over a supervised worker
pool, caches (model, day, subset) results by content digest, and persists
run records as JSONL artifacts.  Every experiment harness under
:mod:`repro.experiments` drives its day loops through
:class:`ExperimentRunner`.
"""

from repro.runtime.cache import (
    DEFAULT_CACHE_CAPACITY,
    EvaluationCache,
    array_digest,
    evaluation_key,
    model_digest,
    noise_model_digest,
)
from repro.runtime.records import RunRecord, RunRecordLog, load_run_records
from repro.runtime.store import (
    MESSAGE_TABLES,
    RunStore,
    StoreError,
    fleet_cell_digest,
)
from repro.runtime.runner import (
    RUNNER_MODES,
    ExperimentRunner,
    RunnerStats,
    default_runner,
)
from repro.runtime.workers import (
    ActorGroup,
    ActorStats,
    SharedArrayStore,
    WorkerPool,
    actor_main,
    attach_shared_array,
)

__all__ = [
    "ExperimentRunner",
    "RunnerStats",
    "RUNNER_MODES",
    "default_runner",
    "ActorGroup",
    "ActorStats",
    "SharedArrayStore",
    "WorkerPool",
    "actor_main",
    "attach_shared_array",
    "DEFAULT_CACHE_CAPACITY",
    "EvaluationCache",
    "RunRecord",
    "RunRecordLog",
    "load_run_records",
    "MESSAGE_TABLES",
    "RunStore",
    "StoreError",
    "fleet_cell_digest",
    "array_digest",
    "evaluation_key",
    "model_digest",
    "noise_model_digest",
]
