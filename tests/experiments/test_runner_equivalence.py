"""The refactored harnesses must reproduce the historical per-day loops.

``run_longitudinal`` (and everything built on it) moved from a sequential
evaluate-one-day-at-a-time loop onto the batched/parallel runtime; these
tests re-implement the pre-runtime loop verbatim and require equality.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baselines import make_method
from repro.experiments import TEST_SCALE, prepare_experiment, run_fig2, run_longitudinal
from repro.qnn.evaluation import evaluate_noisy
from repro.runtime import ExperimentRunner
from repro.utils.rng import ensure_rng


@pytest.fixture(scope="module")
def setup():
    return prepare_experiment("mnist4", scale=TEST_SCALE)


def _legacy_longitudinal(setup, methods, shots):
    """The pre-runtime evaluation loop, verbatim."""
    online = setup.online_history
    noise_models = setup.noise_models(online)
    eval_subset = setup.eval_subset()
    context = setup.method_context()
    rng = ensure_rng(setup.scale.seed)
    per_method = {}
    for method in methods:
        method.prepare(context)
        accuracies = []
        for snapshot, noise_model in zip(online, noise_models):
            parameters = method.parameters_for_day(snapshot)
            accuracies.append(
                evaluate_noisy(
                    setup.base_model,
                    eval_subset.test_features,
                    eval_subset.test_labels,
                    noise_model,
                    parameters=parameters,
                    shots=shots,
                    seed=int(rng.integers(0, 2**31 - 1)),
                ).accuracy
            )
        per_method[method.name] = np.asarray(accuracies)
    return per_method


@pytest.mark.parametrize("mode", ["serial", "pool"])
def test_run_longitudinal_matches_legacy_loop(setup, mode):
    shots = setup.scale.shots
    legacy = _legacy_longitudinal(
        setup, [make_method("baseline"), make_method("noise_aware_train_once")], shots
    )
    with ExperimentRunner(mode=mode, chunk_days=2, max_workers=2) as runner:
        result = run_longitudinal(
            setup,
            [make_method("baseline"), make_method("noise_aware_train_once")],
            runner=runner,
        )
    for name, series in legacy.items():
        assert np.array_equal(result.run_for(name).daily_accuracy, series)


def test_run_fig2_deterministic_across_runner_modes(setup):
    serial = run_fig2(TEST_SCALE, setup=setup, runner=ExperimentRunner(mode="serial"))
    with ExperimentRunner(mode="pool", chunk_days=2, max_workers=2) as runner:
        pooled = run_fig2(TEST_SCALE, setup=setup, runner=runner)
    assert np.array_equal(
        serial.noise_aware_training_accuracy, pooled.noise_aware_training_accuracy
    )
    assert np.array_equal(serial.compression_accuracy, pooled.compression_accuracy)
    assert serial.dates == pooled.dates
