"""The parallel experiment runner: batched day evaluation + fan-out + cache.

Every longitudinal harness in this repository reduces to the same inner
loop: *for each day (and method), evaluate one parameter vector under one
noise model on one eval subset*.  :class:`ExperimentRunner` owns that loop:

* days are grouped into chunks and each chunk is evaluated as **one**
  vectorised multi-binding backend call
  (:func:`repro.qnn.evaluation.evaluate_noisy_batch`);
* chunks run in the calling process (``serial``) or fan out over a
  persistent :class:`~repro.runtime.workers.WorkerPool` (``pool``), each
  worker owning its own warm :class:`~repro.simulator.SimulationEngine`;
* results are keyed by content digests in an
  :class:`~repro.runtime.cache.EvaluationCache`, so repeated sweeps over
  the same (model, day, subset) triples skip simulation entirely;
* every unit of work leaves a :class:`~repro.runtime.records.RunRecord` in
  a JSONL artifact for machine-readable run history.

Chunking, pooling, and caching never change numbers: each day's result is
bit-identical to a standalone :func:`repro.qnn.evaluation.evaluate_noisy`
call with the same seed, in either mode.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.exceptions import ReproError
from repro.qnn.evaluation import DEFAULT_BATCH_BYTES, evaluate_noisy_batch
from repro.qnn.model import QNNModel
from repro.runtime.cache import (
    EvaluationCache,
    array_digest,
    evaluation_key,
    model_digest,
    noise_model_digest,
)
from repro.runtime.records import PathLike, RunRecord, RunRecordLog
from repro.simulator import DensityMatrixBackend, NoiseModel, SimulationEngine

#: Runner execution modes.
RUNNER_MODES = ("serial", "pool")


def _evaluate_chunk(
    model: QNNModel,
    features: np.ndarray,
    labels: np.ndarray,
    noise_models: Sequence[NoiseModel],
    parameter_sets: Sequence[Optional[np.ndarray]],
    shots: Optional[int],
    seeds: Sequence,
    max_batch_bytes: int,
    backend: DensityMatrixBackend,
) -> tuple[list[float], float]:
    """Evaluate one chunk of days on ``backend``; returns ``(accuracies, seconds)``.

    Serial execution passes the runner's long-lived backend and each pool
    worker passes its own per-model one, so compiled circuits stay warm
    across chunks and calls (the engine is not thread-safe, so no two
    callers share one).
    """
    start = time.perf_counter()
    results = evaluate_noisy_batch(
        model,
        features,
        labels,
        noise_models,
        parameter_sets=list(parameter_sets),
        shots=shots,
        seeds=list(seeds),
        backend=backend,
        max_batch_bytes=max_batch_bytes,
    )
    duration = time.perf_counter() - start
    return [result.accuracy for result in results], duration


@dataclass
class RunnerStats:
    """Counters across every :meth:`ExperimentRunner.evaluate_days` call."""

    days_requested: int = 0
    days_evaluated: int = 0
    cache_hits: int = 0
    chunks: int = 0
    wall_seconds: float = 0.0


class ExperimentRunner:
    """Fans batched per-day evaluations out over a worker pool.

    Parameters
    ----------
    mode:
        ``"serial"`` (default; in-process on one warm engine) or ``"pool"``
        (a persistent :class:`~repro.runtime.workers.WorkerPool`: long-lived
        workers that keep compiled engines warm across ``evaluate_days``
        calls and receive the eval subset via shared memory; call
        :meth:`close` when done).
    max_workers:
        Pool width; defaults to ``min(4, cpu_count)``.
    chunk_days:
        How many days each worker evaluates per task.  One chunk is one
        vectorised multi-binding backend call, so this also sets the
        vectorisation width (memory-capped by ``max_batch_bytes``).
    cache:
        Optional :class:`EvaluationCache` (or a path, to persist across
        processes); hits skip simulation and are guaranteed bit-identical.
    record_log:
        Optional :class:`RunRecordLog` (or a path) receiving one
        :class:`RunRecord` per day.
    """

    def __init__(
        self,
        mode: str = "serial",
        max_workers: Optional[int] = None,
        chunk_days: int = 16,
        cache: Union[EvaluationCache, PathLike, None] = None,
        record_log: Union[RunRecordLog, PathLike, None] = None,
        max_batch_bytes: int = DEFAULT_BATCH_BYTES,
    ):
        if mode not in RUNNER_MODES:
            raise ReproError(f"unknown runner mode {mode!r}; expected {RUNNER_MODES}")
        if chunk_days < 1:
            raise ReproError(f"chunk_days must be >= 1, got {chunk_days}")
        self.mode = mode
        self.max_workers = max_workers or min(4, os.cpu_count() or 1)
        self.chunk_days = chunk_days
        self.max_batch_bytes = max_batch_bytes
        if cache is not None and not isinstance(cache, EvaluationCache):
            cache = EvaluationCache(cache)
        self.cache = cache
        if record_log is not None and not isinstance(record_log, RunRecordLog):
            record_log = RunRecordLog(record_log)
        self.record_log = record_log
        self.stats = RunnerStats()
        # Long-lived backend for serial execution; pool workers build
        # their own (the engine is not thread-safe).
        self._serial_backend: Optional[DensityMatrixBackend] = None
        # Persistent worker pool for ``pool`` mode, created on first use and
        # reused across evaluate_days calls.
        self._pool = None

    # ------------------------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None or self._pool.closed:
            from repro.runtime.workers import WorkerPool

            self._pool = WorkerPool(max_workers=self.max_workers)
        return self._pool

    @property
    def pool(self):
        """The persistent worker pool (``pool`` mode only; ``None`` until used)."""
        return self._pool

    def close(self) -> None:
        """Release pooled resources (persistent workers, shared memory).

        Only ``pool`` mode holds any; in ``serial`` mode this is a no-op.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def evaluate_days(
        self,
        model: QNNModel,
        features: np.ndarray,
        labels: np.ndarray,
        noise_models: Sequence[NoiseModel],
        parameter_sets: Optional[Sequence[Optional[np.ndarray]]] = None,
        shots: Optional[int] = None,
        seeds: Optional[Sequence] = None,
        *,
        experiment: str = "experiment",
        dates: Optional[Sequence[Optional[str]]] = None,
        scenario: Optional[str] = None,
    ) -> np.ndarray:
        """Per-day accuracies of ``model`` across ``noise_models``.

        Day ``i`` is evaluated with ``parameter_sets[i]`` (``None`` → the
        model's own parameters) under ``noise_models[i]`` using
        ``seeds[i]`` / ``shots`` for measurement sampling — bit-identical to
        the equivalent :func:`repro.qnn.evaluation.evaluate_noisy` loop, but
        chunked, vectorised, optionally pooled, and cached.  ``scenario`` (the
        drift-scenario name of a fleet cell) is stamped onto every run
        record so JSONL rows stay attributable across scenario sweeps.
        """
        started = time.perf_counter()
        count = len(noise_models)
        parameter_sets = (
            [None] * count if parameter_sets is None else list(parameter_sets)
        )
        seeds = [None] * count if seeds is None else list(seeds)
        dates = [None] * count if dates is None else list(dates)
        if not (len(parameter_sets) == len(seeds) == len(dates) == count):
            raise ReproError("evaluate_days received mismatched per-day sequences")
        self.stats.days_requested += count

        seeds = [None if seed is None else int(seed) for seed in seeds]

        accuracies: list[Optional[float]] = [None] * count
        cache_hits: list[bool] = [False] * count
        keys: list[Optional[str]] = [None] * count
        pending = list(range(count))
        if self.cache is not None:
            subset_key = f"{array_digest(features)}/{array_digest(labels)}"
            # Digests hash the full parameter vector / channel map, so derive
            # each one once and pass it through: one model digest per distinct
            # parameter binding (day sweeps share a single binding object) and
            # one noise digest per distinct noise-model object, instead of
            # re-deriving both for every day in this hot loop.
            model_keys: dict[int, str] = {}
            noise_keys: dict[int, str] = {}
            pending = []
            for index in range(count):
                if shots is not None and seeds[index] is None:
                    # Unseeded sampling is meant to be a fresh random draw
                    # every time; replaying a cached draw would silently
                    # correlate evaluations.  Such bindings bypass the cache.
                    pending.append(index)
                    continue
                parameters = parameter_sets[index]
                model_key = model_keys.get(id(parameters))
                if model_key is None:
                    model_key = model_digest(model, parameters=parameters)
                    model_keys[id(parameters)] = model_key
                noise_key = noise_keys.get(id(noise_models[index]))
                if noise_key is None:
                    noise_key = noise_model_digest(noise_models[index])
                    noise_keys[id(noise_models[index])] = noise_key
                keys[index] = evaluation_key(
                    model_key,
                    noise_key,
                    subset_key,
                    shots,
                    seeds[index],
                )
                hit = self.cache.get(keys[index])
                if hit is not None:
                    accuracies[index] = float(hit["accuracy"])
                    cache_hits[index] = True
                    self.stats.cache_hits += 1
                else:
                    pending.append(index)

        chunks = [
            pending[start : start + self.chunk_days]
            for start in range(0, len(pending), self.chunk_days)
        ]
        durations: dict[int, float] = {}

        if not chunks:
            outcomes = []
        elif self.mode == "pool":
            # Persistent workers: even a single chunk goes through the pool
            # so engines stay warm for the next call.
            payloads = [
                {
                    "noise_models": [noise_models[i] for i in chunk],
                    "parameter_sets": [parameter_sets[i] for i in chunk],
                    "shots": shots,
                    "seeds": [seeds[i] for i in chunk],
                    "max_batch_bytes": self.max_batch_bytes,
                }
                for chunk in chunks
            ]
            results = self._ensure_pool().run_chunks(model, features, labels, payloads)
            outcomes = [(chunk, *result) for chunk, result in zip(chunks, results)]
        else:
            # One engine reused across chunks and calls keeps compiled
            # circuits warm.
            if self._serial_backend is None:
                self._serial_backend = DensityMatrixBackend(engine=SimulationEngine())
            outcomes = [
                (
                    chunk,
                    *_evaluate_chunk(
                        model,
                        features,
                        labels,
                        [noise_models[i] for i in chunk],
                        [parameter_sets[i] for i in chunk],
                        shots,
                        [seeds[i] for i in chunk],
                        self.max_batch_bytes,
                        self._serial_backend,
                    ),
                )
                for chunk in chunks
            ]

        for chunk, chunk_accuracies, duration in outcomes:
            self.stats.chunks += 1
            per_day = duration / max(len(chunk), 1)
            for index, value in zip(chunk, chunk_accuracies):
                accuracies[index] = value
                durations[index] = per_day
                self.stats.days_evaluated += 1
                if self.cache is not None and keys[index] is not None:
                    self.cache.put(keys[index], {"accuracy": float(value)})

        if self.record_log is not None:
            self.record_log.extend(
                RunRecord(
                    experiment=experiment,
                    index=index,
                    date=dates[index],
                    scenario=scenario,
                    accuracy=float(accuracies[index]),
                    cache_hit=cache_hits[index],
                    duration_seconds=durations.get(index, 0.0),
                    extra={
                        "shots": None if shots is None else int(shots),
                        "seed": seeds[index],
                    },
                )
                for index in range(count)
            )
        self.stats.wall_seconds += time.perf_counter() - started
        return np.asarray(accuracies, dtype=float)


def default_runner() -> ExperimentRunner:
    """The runner a harness uses when the caller passes none: ``serial``."""
    return ExperimentRunner()
