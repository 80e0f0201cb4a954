"""Model evaluation under ideal and noisy execution.

All evaluation routes through the unified :class:`~repro.simulator.Backend`
API (pass ``backend=`` to override the shared default), so the accuracy
sweeps of Fig. 2 / Table I — thousands of evaluations of the same circuit
structure — reuse compiled programs instead of re-materialising every gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.qnn.loss import accuracy
from repro.qnn.model import QNNModel
from repro.simulator import Backend, NoiseModel
from repro.utils.rng import SeedLike

#: Memory budget for one flattened multi-binding density super-batch.  A
#: binding costs ``batch * 4**active * 16`` bytes for the ``active`` qubits
#: the routed circuit touches, so at the default budget a 4-qubit model
#: with 96 eval samples batches ~170 days per backend call on any device.
DEFAULT_BATCH_BYTES: int = 64 * 1024 * 1024

#: Cache-friendliness cap: stacking bindings pays off while the flattened
#: super-batch stays within the fast cache levels; beyond roughly this many
#: density matrices the walk turns memory-bound and stacking stops helping,
#: so bindings with large per-binding sample batches run one per call.
CACHE_FRIENDLY_SAMPLES: int = 16


@dataclass(frozen=True)
class EvaluationResult:
    """Accuracy plus the raw logits of an evaluation run."""

    accuracy: float
    logits: np.ndarray
    predictions: np.ndarray


def evaluate_ideal(
    model: QNNModel,
    features: np.ndarray,
    labels: np.ndarray,
    parameters: Optional[np.ndarray] = None,
    backend: Optional[Backend] = None,
) -> EvaluationResult:
    """Accuracy under noise-free statevector simulation."""
    logits = model.forward_ideal(features, parameters=parameters, backend=backend)
    predictions = np.argmax(logits, axis=-1)
    return EvaluationResult(
        accuracy=accuracy(logits, labels), logits=logits, predictions=predictions
    )


def evaluate_noisy(
    model: QNNModel,
    features: np.ndarray,
    labels: np.ndarray,
    noise_model: NoiseModel,
    parameters: Optional[np.ndarray] = None,
    shots: Optional[int] = None,
    seed: SeedLike = None,
    backend: Optional[Backend] = None,
) -> EvaluationResult:
    """Accuracy under a calibration-derived noise model.

    ``shots`` switches from exact expectation values to sampled ones, which
    emulates execution on real hardware (Fig. 8).  A one-binding view of
    :func:`evaluate_noisy_batch`.
    """
    return evaluate_noisy_batch(
        model,
        features,
        labels,
        [noise_model],
        parameter_sets=[parameters],
        shots=shots,
        seeds=[seed],
        backend=backend,
    )[0]


def _shared_binding(parameter_sets) -> bool:
    """True when every binding resolves to one parameter vector (a day sweep)."""
    if parameter_sets is None:
        return True
    first = parameter_sets[0] if parameter_sets else None
    for item in parameter_sets[1:]:
        if item is first:
            continue
        if item is None or first is None:
            return False
        if not np.array_equal(item, first):
            return False
    return True


def _batch_chunk_size(
    model: QNNModel,
    num_samples: int,
    max_batch_bytes: int,
    shared_binding: bool = False,
) -> int:
    """How many bindings to stack per backend call.

    Bounded by the memory budget *and* by :data:`CACHE_FRIENDLY_SAMPLES`:
    small per-binding batches (single samples, tiny eval subsets) stack
    aggressively — that regime is overhead-dominated and vectorisation wins
    2x+ — while full-subset bindings of *distinct* parameter vectors run one
    per call, where stacking would only push the working set out of cache.
    ``shared_binding`` marks the day-sweep regime (one parameter vector,
    many noise models): there the engine's day-stacked in-place walk keeps
    stacking profitable at any subset size, so only the memory budget caps
    the chunk.
    """
    width = (
        len(model.transpiled.active_qubits)
        if model.transpiled is not None
        else model.num_qubits
    )
    samples = max(1, num_samples)
    bytes_per_binding = samples * (4**width) * 16
    by_memory = max(1, int(max_batch_bytes // bytes_per_binding))
    if shared_binding:
        return by_memory
    by_cache = max(1, CACHE_FRIENDLY_SAMPLES // samples)
    return min(by_memory, by_cache)


def evaluate_noisy_batch(
    model: QNNModel,
    features: np.ndarray,
    labels: np.ndarray,
    noise_models: Sequence[NoiseModel],
    parameter_sets: Optional[Sequence[Optional[np.ndarray]]] = None,
    shots: Optional[int] = None,
    seeds: Optional[Sequence[SeedLike]] = None,
    backend: Optional[Backend] = None,
    max_batch_bytes: int = DEFAULT_BATCH_BYTES,
) -> list[EvaluationResult]:
    """Evaluate many (parameters, noise model) bindings in bulk.

    The whole binding list — e.g. every day of a longitudinal sweep — is
    evaluated in a few vectorised backend calls instead of one call per
    binding, and entry ``p`` is bit-identical to the one-binding call
    (:func:`evaluate_noisy`) for binding ``p``.
    Bindings are chunked so one flattened density super-batch stays within
    ``max_batch_bytes`` and within the cache-friendly stacking regime (see
    :func:`_batch_chunk_size`).
    """
    count = len(noise_models)
    if parameter_sets is not None and len(parameter_sets) != count:
        raise ValueError(
            f"{len(parameter_sets)} parameter sets do not match {count} noise models"
        )
    if seeds is not None and len(seeds) != count:
        raise ValueError(f"{len(seeds)} seeds do not match {count} noise models")
    chunk = _batch_chunk_size(
        model,
        features.shape[0],
        max_batch_bytes,
        shared_binding=_shared_binding(parameter_sets),
    )
    results: list[EvaluationResult] = []
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        logits_stack = model.forward_noisy_batch(
            features,
            noise_models[start:stop],
            parameter_sets=None if parameter_sets is None else parameter_sets[start:stop],
            shots=shots,
            seeds=None if seeds is None else seeds[start:stop],
            backend=backend,
        )
        for logits in logits_stack:
            predictions = np.argmax(logits, axis=-1)
            results.append(
                EvaluationResult(
                    accuracy=accuracy(logits, labels),
                    logits=logits,
                    predictions=predictions,
                )
            )
    return results


def accuracy_over_days(
    model: QNNModel,
    features: np.ndarray,
    labels: np.ndarray,
    noise_models: list[NoiseModel],
    parameters: Optional[np.ndarray] = None,
    backend: Optional[Backend] = None,
) -> np.ndarray:
    """Accuracy of one fixed model across a sequence of noise models (days).

    All days share one parameter binding, so the whole sweep collapses into
    a handful of vectorised multi-day backend calls (see
    :func:`evaluate_noisy_batch`).
    """
    results = evaluate_noisy_batch(
        model,
        features,
        labels,
        noise_models,
        parameter_sets=[parameters] * len(noise_models),
        backend=backend,
    )
    return np.array([result.accuracy for result in results])
