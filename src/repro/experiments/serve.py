"""The ``serve`` harness: an end-to-end online-serving run with drift.

This is the serving counterpart of the figure/table harnesses: it prepares
the standard experiment setup (trained base model bound to a device),
deploys the model into an :class:`~repro.serving.InferenceService`, and
drives it with a :class:`~repro.serving.LoadGenerator` while feeding the
online calibration history to the service's watcher — micro-batching,
hot-swap adaptation, and telemetry all exercised in one run.  The CLI
(``python -m repro.experiments serve``) and the CI smoke test both call
:func:`run_serve`.

With ``shards > 1`` the harness builds a
:class:`~repro.serving.ShardedInferenceService` instead — same client API,
but requests are consistent-hash routed to that many shard worker
processes.  ``num_models`` deploys the trained model under several endpoint
names (``qnn-0`` … ``qnn-N``) so the load spreads across shards, and
``arrival_rate`` switches the load generator from one burst (every request
submitted at once, so latencies include queueing behind the burst) to
open-loop (fixed-rate Poisson) arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.experiments.config import ExperimentScale
from repro.experiments.context import ExperimentSetup, prepare_experiment
from repro.serving import (
    BatchPolicy,
    InferenceService,
    LoadGenerator,
    LoadReport,
    ShardedInferenceService,
)

#: Default endpoint name used by the serve harness (single-model runs).
SERVE_MODEL_NAME = "qnn"


def serve_model_names(num_models: int) -> list[str]:
    """Endpoint names for a serve run: ``qnn`` or ``qnn-0`` … ``qnn-N-1``."""
    if num_models < 1:
        raise ValueError(f"num_models must be >= 1, got {num_models}")
    if num_models == 1:
        return [SERVE_MODEL_NAME]
    return [f"{SERVE_MODEL_NAME}-{index}" for index in range(num_models)]


@dataclass
class ServeResult:
    """Everything a serve run produced."""

    report: LoadReport
    stats: dict
    device: str
    shards: int = 1
    model_names: Optional[list[str]] = None

    def summary(self) -> dict:
        """JSON-ready summary for the CLI payload."""
        return {
            "device": self.device,
            "shards": self.shards,
            "models": self.model_names or [SERVE_MODEL_NAME],
            "load": self.report.as_dict(),
            "serving": self.stats,
        }


def run_serve(
    scale: Optional[ExperimentScale] = None,
    setup: Optional[ExperimentSetup] = None,
    device: Optional[str] = None,
    num_requests: int = 256,
    max_batch: int = 16,
    max_latency_ms: float = 2.0,
    observe_every: Optional[int] = None,
    seed: int = 0,
    shards: int = 1,
    num_models: int = 1,
    arrival_rate: Optional[float] = None,
) -> ServeResult:
    """Serve a trained model under injected calibration drift.

    The model is deployed on the *last offline day*'s calibration; the
    online history then drips into the watcher every ``observe_every``
    requests (default: spread the whole online history evenly across the
    request stream), hot-swapping the deployment whenever drift crosses
    the adaptation boundary — while the load generator keeps requests in
    flight.

    ``shards > 1`` serves through that many shard processes;
    ``num_models > 1`` publishes the model under several endpoint names so
    the consistent-hash ring spreads them over the shards; a non-``None``
    ``arrival_rate`` (requests/second) drives the open-loop generator
    instead of the default burst.
    """
    scale = scale or ExperimentScale()
    if setup is None:
        setup = prepare_experiment(
            "mnist4", scale=scale, device=device if device is not None else "belem"
        )
    drift = list(setup.online_history)
    if observe_every is None and drift:
        observe_every = max(1, num_requests // (len(drift) + 1))
    policy = BatchPolicy(max_batch=max_batch, max_latency_ms=max_latency_ms)
    if shards > 1:
        service = ShardedInferenceService(num_shards=shards, policy=policy)
    else:
        service = InferenceService(policy=policy)
    names = serve_model_names(num_models)
    for name in names:
        service.deploy(
            name,
            setup.base_model,
            calibration=setup.offline_history[-1],
        )
    subset = setup.eval_subset()
    generator = LoadGenerator(service, subset.test_features, names=names, seed=seed)
    with service:
        if arrival_rate is not None:
            report = generator.run_open_loop(
                num_requests,
                arrival_rate=arrival_rate,
                drift_history=drift,
                observe_every=observe_every,
            )
        else:
            report = generator.run(
                num_requests,
                drift_history=drift,
                observe_every=observe_every,
            )
        stats = service.stats()
    return ServeResult(
        report=report,
        stats=stats,
        device=setup.device,
        shards=shards,
        model_names=names,
    )
