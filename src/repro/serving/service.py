"""The online inference service: registry + scheduler + watchers + telemetry.

:class:`InferenceService` is the front door that composes the serving
subsystem into one object with a small API:

* :meth:`deploy` publishes a model under a name (binding it to a device
  when a calibration snapshot is supplied);
* :meth:`predict` / :meth:`predict_async` / :meth:`predict_many` serve
  individual samples through the micro-batching scheduler;
* :meth:`observe_calibration` feeds drift snapshots to the per-model
  :class:`~repro.serving.watcher.CalibrationWatcher`, hot-swapping the
  deployment when the drift crosses the adaptation boundary;
* :meth:`stats` snapshots telemetry plus every cache layer the request
  path rides on (engine program cache, compilation pipeline artifacts).

The service is a context manager: entering starts the dispatch thread,
a clean exit drains queued work, and an exceptional exit (including
``KeyboardInterrupt``) cancels queued requests while letting in-flight
batches complete — no worker is orphaned and no future is left unresolved.

:class:`ShardedInferenceService` is the multi-process tier on top: the same
client API, but requests are routed by consistent hashing on the model name
(:class:`~repro.serving.routing.ConsistentHashRouter`) to N shard processes
(:mod:`repro.serving.shards`), each running its own complete
``InferenceService`` stack.  The front door is an asyncio event loop on a
dedicated thread: submissions land on the loop, coalesce per model under
the batch policy, ship to the owning shard as one window message, and
resolve without ever blocking the loop — so N shards execute N windows
truly in parallel while the front door stays single-threaded and lock-light.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import pickle
import threading
import time
from concurrent.futures import Future
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import ServingError
from repro.serving.registry import ModelRegistry, ModelVersion
from repro.serving.routing import DEFAULT_REPLICAS, ConsistentHashRouter
from repro.serving.scheduler import (
    BatchPolicy,
    MicroBatchScheduler,
    PredictionResult,
)
from repro.serving.shards import (
    INLINE_WINDOW_BYTES,
    ShardSupervisor,
    model_payload_digest,
)
from repro.serving.telemetry import ServingTelemetry, merge_shard_snapshots
from repro.serving.watcher import Adapter, CalibrationWatcher, SwapReport
from repro.simulator import NoiseModel
from repro.transpiler import Target
from repro.transpiler.pipeline import PassManager, default_pass_manager


class InferenceService:
    """Calibration-aware model serving with micro-batching and hot-swap."""

    def __init__(
        self,
        policy: Optional[BatchPolicy] = None,
        registry: Optional[ModelRegistry] = None,
        pass_manager: Optional[PassManager] = None,
        telemetry: Optional[ServingTelemetry] = None,
    ):
        self.registry = registry or ModelRegistry()
        self.telemetry = telemetry or ServingTelemetry()
        self.pass_manager = pass_manager or default_pass_manager()
        self.scheduler = MicroBatchScheduler(
            self.registry, policy=policy, telemetry=self.telemetry
        )
        self._watchers: dict[str, CalibrationWatcher] = {}
        self._adapters: dict[str, Optional[Adapter]] = {}

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def deploy(
        self,
        name: str,
        model,
        calibration=None,
        noise_model: Optional[NoiseModel] = None,
        adapter: Optional[Adapter] = None,
    ) -> ModelVersion:
        """Publish ``model`` as the current deployment of ``name``.

        With a ``calibration`` snapshot the model is (re)bound to its device
        through the staged pipeline and served under the derived noise
        model; with an explicit ``noise_model`` the existing binding is kept;
        with neither the model serves the ideal (noise-free) path.
        ``adapter`` (optional) maps future drift snapshots to re-adapted
        parameter vectors for the calibration watcher.
        """
        if calibration is not None:
            if noise_model is not None:
                raise ServingError(
                    "pass calibration or noise_model, not both; the calibration "
                    "path derives its own noise model"
                )
            if model.transpiled is None:
                raise ServingError(
                    f"cannot deploy {name!r} with a calibration snapshot: the "
                    "model has no device binding to recompile"
                )
            if model.transpiled.target is not None:
                target = model.transpiled.target.with_calibration(calibration)
            else:
                target = Target(
                    coupling=model.transpiled.coupling, calibration=calibration
                )
            transpiled = self.pass_manager.compile(model.ansatz, target)
            model = model.with_binding(transpiled)
            noise_model = NoiseModel.from_calibration(calibration)
        version = self.registry.publish(
            name,
            model,
            noise_model=noise_model,
            calibration_date=getattr(calibration, "date", None),
        )
        self._adapters[name] = adapter
        self._watchers.pop(name, None)  # rebuild lazily against the new deploy
        return version

    def _watcher(self, name: str) -> CalibrationWatcher:
        watcher = self._watchers.get(name)
        if watcher is None:
            watcher = CalibrationWatcher(
                self.registry,
                name,
                pass_manager=self.pass_manager,
                adapter=self._adapters.get(name),
                telemetry=self.telemetry,
            )
            self._watchers[name] = watcher
        return watcher

    def observe_calibration(self, name: str, snapshot) -> SwapReport:
        """Feed one drift snapshot to ``name``'s watcher (may hot-swap)."""
        return self._watcher(name).observe(snapshot)

    def rollback(self, name: str) -> ModelVersion:
        """Atomically restore ``name``'s previous version."""
        return self.registry.rollback(name)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def predict_async(self, name: str, sample: np.ndarray):
        """Submit one sample; returns a future of :class:`PredictionResult`.

        Fails fast when the dispatch thread is not running — otherwise the
        request would sit unserved until the caller's timeout expires.
        """
        if not self.scheduler.is_running:
            raise ServingError(
                "service is not started; use 'with service:' or service.start()"
            )
        return self.scheduler.submit(name, sample)

    def predict(
        self, name: str, sample: np.ndarray, timeout: Optional[float] = 60.0
    ) -> PredictionResult:
        """Serve one sample synchronously (micro-batched under the hood)."""
        return self.predict_async(name, sample).result(timeout=timeout)

    def predict_many(
        self,
        name: str,
        samples: Sequence[np.ndarray],
        timeout: Optional[float] = 60.0,
    ) -> list[PredictionResult]:
        """Serve a burst of samples; each is an independent request."""
        futures = [self.predict_async(name, sample) for sample in samples]
        return [future.result(timeout=timeout) for future in futures]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "InferenceService":
        """Start the dispatch thread (idempotent)."""
        self.scheduler.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Shut down; drain queued work (default) or cancel it."""
        self.scheduler.stop(drain=drain)

    def __enter__(self) -> "InferenceService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-ready snapshot: telemetry, scheduler, and cache layers.

        The telemetry block passes through the typed
        :class:`~repro.protocol.TelemetrySnapshot` model, so the single-
        process and sharded services emit the same validated shape.
        """
        engine = self.scheduler.engine
        return {
            "telemetry": self.telemetry.snapshot().to_canonical_dict(),
            "scheduler": {
                "submitted": self.scheduler.stats.submitted,
                "flushes": self.scheduler.stats.flushes,
                "full_flushes": self.scheduler.stats.full_flushes,
                "deadline_flushes": self.scheduler.stats.deadline_flushes,
                "drain_flushes": self.scheduler.stats.drain_flushes,
                "cancelled": self.scheduler.stats.cancelled,
            },
            # The ideal path rides the fused-program cache; the noisy walk
            # rides the bound-circuit cache.  Both are the "shared compiled
            # program" a model+calibration window reuses across flushes.
            "engine_cache": {
                "program_hits": engine.stats.program_hits,
                "program_builds": engine.stats.program_builds,
                "program_hit_rate": engine.stats.program_hit_rate,
                "bound_hits": engine.stats.bound_hits,
                "bound_builds": engine.stats.bound_builds,
                "bound_hit_rate": (
                    engine.stats.bound_hits
                    / (engine.stats.bound_hits + engine.stats.bound_builds)
                    if (engine.stats.bound_hits + engine.stats.bound_builds)
                    else 0.0
                ),
            },
            "compiler": self.pass_manager.stats.as_dict(),
            "deployments": {
                name: {
                    "current_version": self.registry.get(name).version,
                    # Version numbers are monotonic, so the newest retained
                    # number counts every publish even after pruning.
                    "versions_published": self.registry.history(name)[-1].version,
                    "versions_retained": len(self.registry.history(name)),
                    "compilation_digest": self.registry.get(name).compilation_digest,
                }
                for name in self.registry.names()
            },
        }


class _FrontRequest:
    """One client request waiting at the sharded front door."""

    __slots__ = ("name", "features", "future", "sequence", "enqueued_at")

    def __init__(self, name: str, features: np.ndarray, sequence: int):
        self.name = name
        self.features = features
        self.future: Future = Future()
        self.sequence = sequence
        self.enqueued_at = time.monotonic()


class ShardedInferenceService:
    """Multi-process serving: consistent-hash routing over shard workers.

    The client surface mirrors :class:`InferenceService` — ``deploy`` /
    ``predict`` / ``predict_async`` / ``predict_many`` /
    ``observe_calibration`` / ``stats`` — so load generators and harnesses
    drive either tier unchanged.  Internally every model name is pinned to
    one shard process; the front-door event loop coalesces submissions per
    model under the batch policy and ships each window as a single message,
    which the shard serves as exactly one scheduler flush (one registry
    resolution, one batched backend call).  Shard death is handled by the
    :class:`~repro.serving.shards.ShardSupervisor` restart protocol and is
    invisible to callers beyond latency.

    ``predict_aio`` exposes the same request as an awaitable for callers
    that already live on an asyncio loop.
    """

    def __init__(
        self,
        num_shards: int = 4,
        policy: Optional[BatchPolicy] = None,
        replicas: int = DEFAULT_REPLICAS,
    ):
        if num_shards < 1:
            raise ServingError(f"num_shards must be >= 1, got {num_shards}")
        self.policy = policy or BatchPolicy()
        self.router = ConsistentHashRouter(range(num_shards), replicas=replicas)
        self.supervisor = ShardSupervisor(
            num_shards,
            policy={
                "max_batch": self.policy.max_batch,
                "max_latency_ms": self.policy.max_latency_ms,
            },
        )
        self.num_shards = num_shards
        self._deployments: dict[str, dict] = {}
        # id(model) -> (model, pickled bytes, digest).  The model object is
        # retained in the tuple so its id stays pinned for the cache's
        # lifetime — otherwise CPython could reuse a freed model's id for a
        # different model and deploy() would ship the wrong bytes.
        self._model_bytes: dict[int, tuple[object, bytes, str]] = {}
        self._sequence = itertools.count()
        self._groups: dict[str, list[_FrontRequest]] = {}
        self._timers: dict[str, object] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._closed = False
        self._close_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def route(self, name: str) -> int:
        """The shard id that owns ``name`` (stable across restarts)."""
        return self.router.route(name)

    def deploy(
        self,
        name: str,
        model,
        calibration=None,
        noise_model: Optional[NoiseModel] = None,
        adapter: Optional[Adapter] = None,
    ) -> dict:
        """Publish ``model`` under ``name`` on its consistent-hash shard.

        Semantics match :meth:`InferenceService.deploy` — the shard performs
        the calibration-aware recompilation itself (deterministically, so a
        restarted shard reconverges to the same artifacts).  The pickled
        model crosses the process boundary once per content digest per
        shard; repeat deploys ship only the digest.  Returns the shard's
        deploy report (name, version, compilation digest, shard id).
        """
        self.supervisor.start()
        cached = self._model_bytes.get(id(model))
        if cached is None or cached[0] is not model:
            model_bytes = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
            cached = (model, model_bytes, model_payload_digest(model_bytes))
            self._model_bytes[id(model)] = cached
        _, model_bytes, digest = cached
        shard_id = self.route(name)
        payload = {
            "op": "deploy",
            "name": name,
            "model_digest": digest,
            "model_bytes": model_bytes,
            "calibration": calibration,
            "noise_model": noise_model,
            "adapter": adapter,
        }
        report = self.supervisor.submit(shard_id, payload).result(timeout=120.0)
        self._deployments[name] = report
        return report

    def observe_calibration(self, name: str, snapshot) -> SwapReport:
        """Feed one drift snapshot to ``name``'s shard-local watcher."""
        self._require_deployed(name)
        return self.supervisor.submit(
            self.route(name), {"op": "observe", "name": name, "snapshot": snapshot}
        ).result(timeout=120.0)

    def rollback(self, name: str) -> int:
        """Atomically restore ``name``'s previous version on its shard."""
        self._require_deployed(name)
        return self.supervisor.submit(
            self.route(name), {"op": "rollback", "name": name}
        ).result(timeout=120.0)

    def _require_deployed(self, name: str) -> None:
        if name not in self._deployments:
            raise ServingError(
                f"no model published under {name!r}; "
                f"known names: {sorted(self._deployments)}"
            )

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def predict_async(self, name: str, sample: np.ndarray) -> Future:
        """Submit one sample; returns a future of :class:`PredictionResult`."""
        self._require_deployed(name)
        if not self.is_running:
            raise ServingError(
                "service is not started; use 'with service:' or service.start()"
            )
        features = np.asarray(sample, dtype=float)
        if features.ndim != 1:
            raise ServingError(
                f"submit expects one feature vector, got shape {features.shape}"
            )
        with self._close_lock:
            if self._closed:
                raise ServingError("service is stopped; no new requests accepted")
            request = _FrontRequest(name, features, next(self._sequence))
            self._loop.call_soon_threadsafe(self._enqueue, request)
        return request.future

    async def predict_aio(self, name: str, sample: np.ndarray) -> PredictionResult:
        """Awaitable predict for callers already on an asyncio loop."""
        return await asyncio.wrap_future(self.predict_async(name, sample))

    def predict(
        self, name: str, sample: np.ndarray, timeout: Optional[float] = 60.0
    ) -> PredictionResult:
        """Serve one sample synchronously (coalesced under the hood)."""
        return self.predict_async(name, sample).result(timeout=timeout)

    def predict_many(
        self,
        name: str,
        samples: Sequence[np.ndarray],
        timeout: Optional[float] = 60.0,
    ) -> list[PredictionResult]:
        """Serve a burst of samples; each is an independent request."""
        futures = [self.predict_async(name, sample) for sample in samples]
        return [future.result(timeout=timeout) for future in futures]

    # ------------------------------------------------------------------
    # Front-door event loop (coalescing reactor)
    # ------------------------------------------------------------------
    def _enqueue(self, request: _FrontRequest) -> None:
        """Loop-thread: buffer one request; flush when the policy says so."""
        group = self._groups.setdefault(request.name, [])
        group.append(request)
        if len(group) >= self.policy.max_batch:
            self._flush_group(request.name)
        elif len(group) == 1:
            self._timers[request.name] = self._loop.call_later(
                self.policy.max_latency_ms / 1e3, self._flush_group, request.name
            )

    def _flush_group(self, name: str) -> None:
        """Loop-thread: ship one model's waiting requests as one window."""
        timer = self._timers.pop(name, None)
        if timer is not None:
            timer.cancel()
        group = self._groups.pop(name, None)
        if not group:
            return
        try:
            # np.stack raises on mixed-length feature vectors for one name;
            # fail the whole group instead of leaving its futures unresolved
            # (the event-loop callback would otherwise swallow the error).
            window = np.stack([request.features for request in group])
            if window.nbytes >= INLINE_WINDOW_BYTES:
                features = self.supervisor.share(window)
            else:
                features = window
        except Exception as error:
            for request in group:
                if not request.future.cancelled():
                    request.future.set_exception(error)
            return
        payload = {"op": "predict", "name": name, "features": features}
        shared = features if isinstance(features, dict) else None
        try:
            batch_future = self.supervisor.submit(self.route(name), payload, pin=shared)
        except Exception as error:
            if shared is not None:
                self.supervisor.release(shared)
            for request in group:
                if not request.future.cancelled():
                    request.future.set_exception(error)
            return
        batch_future.add_done_callback(
            lambda future, group=group, name=name: self._on_window_done(
                name, group, future
            )
        )

    def _on_window_done(self, name: str, group: list, batch_future: Future) -> None:
        """Collector-thread: fan one window reply out to request futures."""
        now = time.monotonic()
        if batch_future.cancelled():
            for request in group:
                request.future.cancel()
            return
        error = batch_future.exception()
        if error is not None:
            for request in group:
                if not request.future.cancelled():
                    request.future.set_exception(error)
            return
        reply = batch_future.result()
        logits = reply["logits"]
        predictions = reply["predictions"]
        for row, request in enumerate(group):
            result = PredictionResult(
                logits=logits[row],
                prediction=int(predictions[row]),
                model=name,
                version=reply["versions"][row],
                batch_id=reply["batch_ids"][row],
                batch_size=reply["batch_sizes"][row],
                latency_seconds=now - request.enqueued_at,
                sequence=request.sequence,
            )
            if not request.future.cancelled():
                request.future.set_result(result)

    def _flush_all(self) -> None:
        """Loop-thread: force-flush every buffered group (drain path)."""
        for name in list(self._groups):
            self._flush_group(name)

    def _cancel_buffered(self) -> None:
        """Loop-thread: cancel every buffered request (non-drain shutdown)."""
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        for group in self._groups.values():
            for request in group:
                request.future.cancel()
        self._groups.clear()

    def _run_on_loop(self, callback) -> None:
        """Run ``callback`` on the loop thread and wait for it."""
        done: Future = Future()

        def runner():
            try:
                callback()
                done.set_result(None)
            except BaseException as error:  # pragma: no cover - defensive
                done.set_exception(error)

        self._loop.call_soon_threadsafe(runner)
        done.result(timeout=30.0)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def is_running(self) -> bool:
        """Whether the front-door event loop is serving."""
        return (
            self._loop_thread is not None
            and self._loop_thread.is_alive()
            and not self._closed
        )

    def start(self) -> "ShardedInferenceService":
        """Spawn the shards and the front-door event loop (idempotent)."""
        if self._closed:
            raise ServingError(
                "service was stopped and cannot restart; create a new one"
            )
        self.supervisor.start()
        if self._loop_thread is None or not self._loop_thread.is_alive():
            self._loop = asyncio.new_event_loop()
            started = threading.Event()

            def run():
                asyncio.set_event_loop(self._loop)
                self._loop.call_soon(started.set)
                self._loop.run_forever()

            self._loop_thread = threading.Thread(
                target=run, name="serving-front-door", daemon=True
            )
            self._loop_thread.start()
            started.wait(timeout=10.0)
        return self

    def stop(self, drain: bool = True) -> None:
        """Shut down; drain buffered + in-flight work (default) or cancel it."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        if self._loop_thread is not None and self._loop_thread.is_alive():
            if drain:
                self._run_on_loop(self._flush_all)
                self.supervisor.drain()
            else:
                self._run_on_loop(self._cancel_buffered)
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._loop_thread.join(timeout=10.0)
            self._loop.close()
            self._loop_thread = None
        self.supervisor.close(drain=drain)

    def __enter__(self) -> "ShardedInferenceService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    # ------------------------------------------------------------------
    # Ops hooks + introspection
    # ------------------------------------------------------------------
    def kill_shard(self, shard_id: int) -> Optional[int]:
        """Hard-kill one shard (chaos hook); the supervisor restarts it."""
        return self.supervisor.kill(shard_id)

    def reset_telemetry(self) -> None:
        """Zero every shard's telemetry (back-to-back load runs)."""
        futures = [
            self.supervisor.submit(shard_id, {"op": "reset_telemetry"})
            for shard_id in self.supervisor.actor_ids()
        ]
        for future in futures:
            future.result(timeout=30.0)

    def stats(self) -> dict:
        """JSON-ready snapshot merged across every shard process.

        ``telemetry`` carries the cross-shard merge (per-model stats plus
        per-shard rollups including restarts and in-flight depth);
        ``shards`` keeps each shard's full single-process stats block; and
        ``supervisor`` exposes the lifecycle counters of the restart
        protocol.
        """
        futures = {
            shard_id: self.supervisor.submit(shard_id, {"op": "stats"})
            for shard_id in self.supervisor.actor_ids()
        }
        shard_stats = {
            shard_id: future.result(timeout=60.0)
            for shard_id, future in futures.items()
        }
        telemetry = merge_shard_snapshots(
            {sid: stats.get("telemetry", {}) for sid, stats in shard_stats.items()},
            shard_rollups=self.supervisor.rollups(),
        )
        return {
            "telemetry": telemetry,
            "shards": {str(sid): stats for sid, stats in shard_stats.items()},
            "supervisor": {
                **dataclasses.asdict(self.supervisor.stats),
                "restarts": {
                    str(sid): count
                    for sid, count in self.supervisor.restarts().items()
                },
            },
            "deployments": {
                name: dict(report) for name, report in self._deployments.items()
            },
            "routing": {
                name: self.route(name) for name in sorted(self._deployments)
            },
        }
