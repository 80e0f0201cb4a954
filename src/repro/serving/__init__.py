"""Online inference serving: the production face of the reproduction.

Where :mod:`repro.experiments` replays the paper as offline harnesses, this
package *serves* it: deployed :class:`~repro.qnn.model.QNNModel` versions
(:class:`ModelRegistry`), individual predict requests coalesced into
batched backend executions (:class:`MicroBatchScheduler`), drift-triggered
hot-swap adaptation (:class:`CalibrationWatcher`), and per-model telemetry
(:class:`ServingTelemetry`) — composed by :class:`InferenceService` and
driven end-to-end by :class:`LoadGenerator` /
``python -m repro.experiments serve``.

:class:`ShardedInferenceService` scales the same API across processes:
model names are pinned to shard workers by consistent hashing
(:class:`ConsistentHashRouter`), each shard runs a full single-process
stack, and a :class:`ShardSupervisor` restarts dead shards and replays
their state so a crash never loses a request —
``python -m repro.experiments serve --shards 4``.
"""

from repro.serving.registry import ModelRegistry, ModelVersion, deployment_key
from repro.serving.routing import DEFAULT_REPLICAS, ConsistentHashRouter, ring_point
from repro.serving.scheduler import (
    BatchPolicy,
    MicroBatchScheduler,
    PredictionResult,
    SchedulerStats,
)
from repro.serving.service import InferenceService, ShardedInferenceService
from repro.serving.shards import INLINE_WINDOW_BYTES, ShardSupervisor
from repro.serving.telemetry import (
    LATENCY_WINDOW,
    ServingTelemetry,
    merge_shard_snapshots,
)
from repro.serving.watcher import Adapter, CalibrationWatcher, SwapReport
from repro.serving.loadgen import LoadGenerator, LoadReport

__all__ = [
    "ModelRegistry",
    "ModelVersion",
    "deployment_key",
    "BatchPolicy",
    "MicroBatchScheduler",
    "PredictionResult",
    "SchedulerStats",
    "InferenceService",
    "ShardedInferenceService",
    "ConsistentHashRouter",
    "DEFAULT_REPLICAS",
    "ring_point",
    "ShardSupervisor",
    "INLINE_WINDOW_BYTES",
    "ServingTelemetry",
    "LATENCY_WINDOW",
    "merge_shard_snapshots",
    "CalibrationWatcher",
    "SwapReport",
    "Adapter",
    "LoadGenerator",
    "LoadReport",
]
