"""Shard worker processes and their supervisor.

A *shard* is one long-lived spawn-context process that owns a complete
single-process serving stack — its own
:class:`~repro.simulator.SimulationEngine`,
:class:`~repro.serving.registry.ModelRegistry` slice,
:class:`~repro.serving.scheduler.MicroBatchScheduler` and per-model
:class:`~repro.serving.watcher.CalibrationWatcher` — wrapped in the generic
actor loop from :mod:`repro.runtime.workers`.  The parent never touches a
shard's engine; it only exchanges small request/response messages:

========== ==========================================================
op          effect inside the shard
========== ==========================================================
``deploy``   publish a model (ships pickled bytes once per model digest;
             repeat deploys of the same digest cross as a digest reference)
``predict``  serve one coalesced window of requests for one model — the
             shard submits every row to its scheduler and force-flushes,
             so a window is exactly one registry resolution + one batched
             backend call (flush boundary = hot-swap boundary, as in PR 4)
``observe``  feed one calibration snapshot to the model's watcher
             (may hot-swap the deployment; never touches in-flight windows)
``rollback`` restore the previous registry version
``stats``    snapshot the shard's telemetry + scheduler + cache stats
``reset_telemetry`` zero the shard's telemetry between load runs
========== ==========================================================

Large request windows cross via the content-addressed shared-memory store
(:class:`~repro.runtime.workers.SharedArrayStore`); small windows (the
common case — a micro-batch of feature vectors is a few KiB) ship inline,
which is faster than a digest + block round-trip.

:class:`ShardSupervisor` owns the fleet of shards.  It is an
:class:`~repro.runtime.workers.ActorGroup` — the same supervised-actor
runtime as the evaluation worker pool — that adds only what is
shard-specific: the :class:`ShardHandler`, which ops mutate registry state
(deploy / observe / rollback), and their typed audit records.  The group
keeps, per shard, the ordered *state log* of those ops and the ordered set
of in-flight messages.  When a shard dies, it respawns it, replays the
state log (deterministic compilation + the registry's content-dedupe make
the replayed registry converge to the exact pre-crash state, including
version numbers), then resubmits the dead shard's unanswered messages in
their original order — so a crash costs clients latency, never an answer.
A predict racing a hot-swap may complete under the newer version after a
restart, which is the same nondeterminism a client already observes from
ordinary swap timing.
"""

from __future__ import annotations

import pickle
from collections import deque
from typing import Optional

import numpy as np

from repro.exceptions import ServingError
from repro.protocol import ProtocolError, ShardDeploy, ShardStateOp
from repro.runtime.workers import (
    MAX_MESSAGE_ATTEMPTS,
    ActorGroup,
    attach_shared_array,
    model_payload_digest,
)

__all__ = [
    "INLINE_WINDOW_BYTES",
    "MAX_MESSAGE_ATTEMPTS",
    "ShardHandler",
    "ShardSupervisor",
    "model_payload_digest",
]

#: Request windows smaller than this ship inline through the message queue;
#: larger windows cross via the content-addressed shared-memory store.  A
#: micro-batch of feature vectors is typically a few KiB, far below the
#: digest + attach overhead break-even.
INLINE_WINDOW_BYTES = 256 * 1024

#: How many shared-memory attachments a shard keeps mapped at once.
_ATTACH_CACHE_CAPACITY = 16


class ShardHandler:
    """Child-process actor handler: one complete serving stack per shard.

    Instantiated by :func:`repro.runtime.workers.actor_main` inside the
    spawned shard, so everything here runs single-threaded in the shard
    process; the parent's supervisor provides all cross-shard concurrency.
    """

    def __init__(self, shard_id: int, policy: Optional[dict] = None):
        # Local import: service.py imports this module for the sharded
        # front door, and __init__ only runs inside the child process.
        from repro.serving.scheduler import BatchPolicy
        from repro.serving.service import InferenceService

        self.shard_id = shard_id
        self.service = InferenceService(
            policy=BatchPolicy(**policy) if policy else None
        )
        self._models: dict[str, object] = {}  # model digest -> unpickled model
        self._blocks: dict[str, object] = {}
        self._block_order: deque[str] = deque()

    # ------------------------------------------------------------------
    def __call__(self, payload: dict):
        """Dispatch one message to its op handler."""
        op = payload.get("op")
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise ServingError(f"shard {self.shard_id}: unknown op {op!r}")
        return handler(payload)

    def _op_deploy(self, payload: dict) -> dict:
        digest = payload["model_digest"]
        model = self._models.get(digest)
        if model is None:
            model_bytes = payload.get("model_bytes")
            if model_bytes is None:
                raise ServingError(
                    f"shard {self.shard_id}: model digest {digest} not shipped"
                )
            self._models[digest] = model = pickle.loads(model_bytes)
        version = self.service.deploy(
            payload["name"],
            model,
            calibration=payload.get("calibration"),
            noise_model=payload.get("noise_model"),
            adapter=payload.get("adapter"),
        )
        return {
            "name": version.name,
            "version": version.version,
            "compilation_digest": version.compilation_digest,
            "shard": self.shard_id,
        }

    def _decode_window(self, features) -> np.ndarray:
        if isinstance(features, dict):
            window = attach_shared_array(features, self._blocks)
            # Bound the attachment cache: every window is content-addressed,
            # so a long-lived shard would otherwise map every block it saw.
            name = features["name"]
            if name in self._block_order:
                self._block_order.remove(name)
            self._block_order.append(name)
            while len(self._block_order) > _ATTACH_CACHE_CAPACITY:
                evicted = self._block_order.popleft()
                block = self._blocks.pop(evicted, None)
                if block is not None:
                    try:
                        block.close()
                    except Exception:
                        pass
            return window
        return np.asarray(features, dtype=float)

    def _op_predict(self, payload: dict) -> dict:
        window = self._decode_window(payload["features"])
        scheduler = self.service.scheduler
        futures = [scheduler.submit(payload["name"], row) for row in window]
        scheduler.flush_pending(force=True)
        results = [future.result(timeout=0) for future in futures]
        return {
            "logits": np.stack([r.logits for r in results]),
            "predictions": np.asarray([r.prediction for r in results]),
            "versions": [r.version for r in results],
            "batch_ids": [r.batch_id for r in results],
            "batch_sizes": [r.batch_size for r in results],
            "shard": self.shard_id,
        }

    def _op_observe(self, payload: dict):
        return self.service.observe_calibration(payload["name"], payload["snapshot"])

    def _op_rollback(self, payload: dict) -> int:
        return self.service.rollback(payload["name"]).version

    def _op_stats(self, payload: dict) -> dict:
        stats = self.service.stats()
        stats["shard"] = self.shard_id
        return stats

    def _op_reset_telemetry(self, payload: dict) -> None:
        self.service.telemetry.reset()

    def _op_ping(self, payload: dict) -> int:
        return self.shard_id

    def close(self) -> None:
        """Detach shared-memory blocks on process exit."""
        for block in self._blocks.values():
            try:
                block.close()
            except Exception:
                pass


#: Ops that mutate shard registry state and must be replayed on restart.
_STATE_OPS = frozenset({"deploy", "observe", "rollback"})


class ShardSupervisor(ActorGroup):
    """Spawns, monitors, restarts, and routes messages to shard processes.

    The supervisor is transport + supervision only: it never inspects model
    state.  All shard state it needs for recovery is the per-shard ordered
    state log (deploy/observe/rollback payloads, with model bytes retained)
    plus the in-flight messages, both kept by the
    :class:`~repro.runtime.workers.ActorGroup` it extends.
    """

    error = ServingError

    def __init__(
        self,
        num_shards: int,
        policy: Optional[dict] = None,
    ):
        if num_shards < 1:
            raise ServingError(f"num_shards must be >= 1, got {num_shards}")
        super().__init__(num_shards, ShardHandler, name="repro-shard")
        self.num_shards = num_shards
        self.policy = policy

    def handler_kwargs(self, actor_id: int) -> dict:
        """Each shard's handler knows its id and the batch policy."""
        return {"shard_id": actor_id, "policy": self.policy}

    def replay_record(self, payload: dict):
        """The typed audit record of one state-mutating payload.

        Model bytes, snapshots, and adapters travel out-of-band as python
        objects; the record pins the JSON-able identity (op, name, digests,
        dates) and *validates it at submit time*, so a malformed state op
        fails in the caller's stack trace instead of poisoning the replay
        log.  Non-state ops (predict, stats, ...) have no record.
        """
        op = payload.get("op")
        if op not in _STATE_OPS:
            return None
        try:
            if op == "deploy":
                return ShardDeploy(
                    name=payload["name"],
                    model_digest=payload["model_digest"],
                    calibration_date=getattr(payload.get("calibration"), "date", None),
                    has_model_bytes=payload.get("model_bytes") is not None,
                    has_noise_model=payload.get("noise_model") is not None,
                    has_adapter=payload.get("adapter") is not None,
                )
            return ShardStateOp(
                op=op,
                name=payload["name"],
                date=getattr(payload.get("snapshot"), "date", None),
            )
        except KeyError as error:
            raise ProtocolError(
                f"state op {op!r} payload is missing required key {error}"
            ) from error

    def state_log_records(self, shard_id: int) -> list[ShardStateOp]:
        """One shard's ordered state log as typed audit records.

        Each entry is a uniform :class:`~repro.protocol.ShardStateOp`
        (op, name, date, model digest) with the entry's live replay
        bookkeeping (``attempts``, ``quarantined``) folded in — the
        machine-readable view of exactly what a restarted shard will
        replay.
        """
        with self._lock:
            shard = self._actors.get(shard_id)
            if shard is None:
                raise ServingError(
                    f"unknown shard {shard_id}; shards: {self.actor_ids()}"
                )
            records = []
            for entry in shard.state_log:
                record = entry.record
                if isinstance(record, ShardDeploy):
                    record = ShardStateOp(
                        op="deploy",
                        name=record.name,
                        date=record.calibration_date,
                        model_digest=record.model_digest,
                    )
                records.append(
                    record.model_copy(
                        update={
                            "attempts": entry.attempts,
                            "quarantined": entry.quarantined,
                        }
                    )
                )
            return records

    def rollups(self) -> dict[int, dict]:
        """Supervisor-side per-shard rollups for the telemetry merge."""
        with self._lock:
            return {
                shard_id: {
                    "restarts": shard.restarts,
                    "in_flight": len(shard.in_flight),
                    "deployed_digests": len(shard.known_models),
                    "state_ops": len(shard.state_log),
                    "pid": shard.process.pid if shard.process else None,
                }
                for shard_id, shard in self._actors.items()
            }
