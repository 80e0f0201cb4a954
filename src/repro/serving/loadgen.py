"""Load generator: drives an :class:`InferenceService` with synthetic traffic.

The generator emulates the steady-state online workload the paper's system
targets — a stream of single-sample prediction requests against one or more
deployed models, optionally with calibration drift injected mid-stream so
hot-swaps happen *while* requests are queued.  It waits for every response,
verifies none were lost, and reduces the run to a JSON-ready
:class:`LoadReport` (throughput, latency percentiles, per-model counts,
swap actions).

Two arrival disciplines are supported:

* :meth:`LoadGenerator.run` — *burst*: every request is submitted at once
  (``predict_async`` never waits for a response), then every response is
  awaited.  The run measures peak throughput; its latency percentiles
  include each request's queueing behind the whole burst, so they grow
  with ``num_requests`` and are not per-request service latencies.  The
  report labels this mode ``"closed"``.
* :meth:`LoadGenerator.run_open_loop` — *open loop*: requests arrive on a
  fixed-rate or Poisson schedule that does **not** slow down when the
  service stalls, and each request's latency is measured from its
  *scheduled arrival*, not its actual submission.  That convention avoids
  coordinated omission: a service that freezes for a second accumulates
  that second into the latency of every request scheduled during the
  freeze, instead of silently deferring them.  The report's
  ``submit_lag_p99_ms`` shows how far the generator itself fell behind its
  own schedule (a sanity check that the measured p99 is the service's).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import ServingError
from repro.serving.service import InferenceService
from repro.serving.watcher import SwapReport
from repro.utils.rng import SeedLike, ensure_rng

import time


@dataclass
class LoadReport:
    """Summary of one load-generation run."""

    requests: int
    completed: int
    duration_seconds: float
    throughput_rps: float
    latency_p50_ms: Optional[float]
    latency_p99_ms: Optional[float]
    per_model: dict[str, int]
    versions_served: dict[str, list[int]]
    swaps: list[dict] = field(default_factory=list)
    #: Arrival discipline: ``"closed"`` (the default burst of :meth:`LoadGenerator.run`)
    #: or ``"open"``.
    mode: str = "closed"
    #: Target arrival rate of an open-loop run (requests/second).
    arrival_rate: Optional[float] = None
    #: Actually offered rate of an open-loop run (schedule span based).
    offered_rps: Optional[float] = None
    #: p99 of (actual submit − scheduled arrival); large values mean the
    #: generator, not the service, was the bottleneck.
    submit_lag_p99_ms: Optional[float] = None

    def as_dict(self) -> dict:
        """JSON-ready form for the CLI summary."""
        return {
            "requests": self.requests,
            "completed": self.completed,
            "duration_seconds": self.duration_seconds,
            "throughput_rps": self.throughput_rps,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "per_model": self.per_model,
            "versions_served": self.versions_served,
            "swaps": self.swaps,
            "mode": self.mode,
            "arrival_rate": self.arrival_rate,
            "offered_rps": self.offered_rps,
            "submit_lag_p99_ms": self.submit_lag_p99_ms,
        }


class LoadGenerator:
    """Synthesises request streams against a running service.

    ``service`` may be any object with the :class:`InferenceService` client
    surface (``predict_async`` / ``observe_calibration``) — the sharded
    tier's :class:`~repro.serving.service.ShardedInferenceService` drives
    through the exact same code path.
    """

    def __init__(
        self,
        service: InferenceService,
        feature_pool: np.ndarray,
        names: Sequence[str],
        seed: SeedLike = 0,
    ):
        self.service = service
        self.feature_pool = np.asarray(feature_pool, dtype=float)
        if self.feature_pool.ndim != 2 or not len(self.feature_pool):
            raise ServingError(
                f"feature_pool must be a non-empty (samples, features) matrix, "
                f"got shape {self.feature_pool.shape}"
            )
        self.names = list(names)
        if not self.names:
            raise ServingError("LoadGenerator needs at least one model name")
        self.rng = ensure_rng(seed)

    def run(
        self,
        num_requests: int,
        drift_history=None,
        observe_every: Optional[int] = None,
    ) -> LoadReport:
        """Submit ``num_requests`` single-sample requests at once, then await every reply.

        Submission never waits for a response, so the whole burst is queued
        up front: throughput is the service's peak, and each latency includes
        the time the request waited behind the burst ahead of it (the
        percentiles grow with ``num_requests``).  Use :meth:`run_open_loop`
        for latency at a fixed arrival rate.  Requests rotate round-robin
        over the deployed names with samples drawn uniformly from the
        feature pool.  When ``drift_history`` and
        ``observe_every`` are given, one snapshot is fed to each model's
        calibration watcher every ``observe_every`` requests — drift lands
        mid-stream, with requests in flight, exactly the hot-swap scenario
        the scheduler must survive.
        """
        if num_requests < 1:
            raise ServingError(f"num_requests must be >= 1, got {num_requests}")
        drift = list(drift_history) if drift_history is not None else []
        drift_cursor = 0
        swaps: list[SwapReport] = []
        started = time.perf_counter()
        futures = []
        for index in range(num_requests):
            name = self.names[index % len(self.names)]
            sample = self.feature_pool[int(self.rng.integers(len(self.feature_pool)))]
            futures.append((name, self.service.predict_async(name, sample)))
            if (
                observe_every
                and (index + 1) % observe_every == 0
                and drift_cursor < len(drift)
            ):
                snapshot = drift[drift_cursor]
                drift_cursor += 1
                for swap_name in self.names:
                    swaps.append(
                        self.service.observe_calibration(swap_name, snapshot)
                    )
        results = [future.result(timeout=120.0) for _, future in futures]
        duration = time.perf_counter() - started
        latencies = np.array([r.latency_seconds for r in results])
        return self._report(num_requests, results, latencies, duration, swaps)

    def run_open_loop(
        self,
        num_requests: int,
        arrival_rate: float,
        poisson: bool = True,
        drift_history=None,
        observe_every: Optional[int] = None,
        timeout: float = 120.0,
    ) -> LoadReport:
        """Send requests on a fixed schedule, immune to coordinated omission.

        Arrivals follow a Poisson process of rate ``arrival_rate`` requests
        per second (or exactly-spaced ticks with ``poisson=False``), drawn
        deterministically from the generator's seed.  Submission never
        waits for responses, and each request's latency runs from its
        *scheduled arrival* to its completion — a stalled service therefore
        pays for every request scheduled during the stall.  Drift injection
        (``drift_history`` / ``observe_every``) matches :meth:`run`.
        """
        if num_requests < 1:
            raise ServingError(f"num_requests must be >= 1, got {num_requests}")
        if arrival_rate <= 0:
            raise ServingError(f"arrival_rate must be > 0, got {arrival_rate}")
        if poisson:
            gaps = self.rng.exponential(1.0 / arrival_rate, size=num_requests)
        else:
            gaps = np.full(num_requests, 1.0 / arrival_rate)
        gaps[0] = 0.0  # first request fires immediately
        schedule = np.cumsum(gaps)

        drift = list(drift_history) if drift_history is not None else []
        drift_cursor = 0
        swaps: list[SwapReport] = []
        done_at: list[Optional[float]] = [None] * num_requests
        # future.result() returning does NOT guarantee its done-callback has
        # run (CPython notifies waiters before invoking callbacks), so the
        # callbacks count themselves down and the main thread waits on the
        # event before reading done_at.
        stamps_pending = num_requests
        stamps_lock = threading.Lock()
        all_stamped = threading.Event()

        def _stamp(completed_future, index):
            nonlocal stamps_pending
            done_at[index] = time.perf_counter()
            with stamps_lock:
                stamps_pending -= 1
                if stamps_pending == 0:
                    all_stamped.set()

        futures = []
        submit_lags = np.zeros(num_requests)
        started = time.perf_counter()
        for index in range(num_requests):
            name = self.names[index % len(self.names)]
            sample = self.feature_pool[int(self.rng.integers(len(self.feature_pool)))]
            # Sleep to the scheduled arrival; if the generator is behind
            # (the OS descheduled it, or drift observation blocked), record
            # the lag and submit immediately — never skip a request.
            wait = schedule[index] - (time.perf_counter() - started)
            if wait > 0:
                time.sleep(wait)
            submit_lags[index] = max(
                0.0, (time.perf_counter() - started) - schedule[index]
            )
            future = self.service.predict_async(name, sample)
            future.add_done_callback(
                lambda completed_future, index=index: _stamp(
                    completed_future, index
                )
            )
            futures.append(future)
            if (
                observe_every
                and (index + 1) % observe_every == 0
                and drift_cursor < len(drift)
            ):
                snapshot = drift[drift_cursor]
                drift_cursor += 1
                for swap_name in self.names:
                    swaps.append(
                        self.service.observe_calibration(swap_name, snapshot)
                    )
        results = [future.result(timeout=timeout) for future in futures]
        duration = time.perf_counter() - started
        if not all_stamped.wait(timeout=max(timeout, 1.0)):
            raise ServingError(
                "open-loop run: completion stamps missing after all results "
                "resolved (done-callbacks never fired)"
            )
        # Latency from *scheduled arrival* (the open-loop convention).
        latencies = np.array(
            [done_at[i] - started - schedule[i] for i in range(num_requests)]
        )
        offered_span = max(float(schedule[-1]), 1e-9)
        return self._report(
            num_requests,
            results,
            latencies,
            duration,
            swaps,
            mode="open",
            arrival_rate=float(arrival_rate),
            offered_rps=num_requests / offered_span,
            submit_lag_p99_ms=float(np.percentile(submit_lags, 99)) * 1e3,
        )

    def _report(
        self,
        num_requests: int,
        results,
        latencies: np.ndarray,
        duration: float,
        swaps: list[SwapReport],
        **extra,
    ) -> LoadReport:
        """Reduce one run's results to a :class:`LoadReport`."""
        per_model: dict[str, int] = {}
        versions: dict[str, set[int]] = {}
        for result in results:
            per_model[result.model] = per_model.get(result.model, 0) + 1
            versions.setdefault(result.model, set()).add(result.version)
        return LoadReport(
            requests=num_requests,
            completed=len(results),
            duration_seconds=duration,
            throughput_rps=len(results) / duration if duration > 0 else 0.0,
            latency_p50_ms=float(np.percentile(latencies, 50)) * 1e3
            if latencies.size
            else None,
            latency_p99_ms=float(np.percentile(latencies, 99)) * 1e3
            if latencies.size
            else None,
            per_model=per_model,
            versions_served={
                name: sorted(served) for name, served in versions.items()
            },
            swaps=[swap.as_dict() for swap in swaps],
            **extra,
        )
