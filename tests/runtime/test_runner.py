"""The experiment runner: modes, chunking, caching, and run records."""

from __future__ import annotations

import numpy as np
import pytest

from repro.calibration import generate_belem_history
from repro.datasets import load_mnist4
from repro.exceptions import ReproError
from repro.qnn import QNNModel, evaluate_noisy
from repro.runtime import (
    RUNNER_MODES,
    EvaluationCache,
    ExperimentRunner,
    RunRecord,
    default_runner,
    load_run_records,
    model_digest,
    noise_model_digest,
)
from repro.simulator import NoiseModel
from repro.transpiler import belem_coupling


@pytest.fixture(scope="module")
def harness():
    rng = np.random.default_rng(17)
    history = generate_belem_history(6, seed=4)
    model = QNNModel.create(num_qubits=4, num_features=16, num_classes=4, repeats=1, seed=2)
    model.bind_to_device(belem_coupling(), calibration=history[0])
    dataset = load_mnist4(num_samples=60, seed=5)
    features, labels = dataset.test_features[:6], dataset.test_labels[:6]
    noise_models = [NoiseModel.from_calibration(s) for s in history]
    parameter_sets = [
        rng.uniform(-np.pi, np.pi, model.num_parameters) for _ in range(6)
    ]
    seeds = [int(rng.integers(0, 2**31 - 1)) for _ in range(6)]
    reference = np.array(
        [
            evaluate_noisy(
                model, features, labels, noise_model,
                parameters=parameters, shots=128, seed=seed,
            ).accuracy
            for noise_model, parameters, seed in zip(noise_models, parameter_sets, seeds)
        ]
    )
    return model, features, labels, noise_models, parameter_sets, seeds, reference


@pytest.mark.parametrize("mode", ["serial", "pool"])
def test_runner_matches_sequential_evaluation(harness, mode):
    model, features, labels, noise_models, parameter_sets, seeds, reference = harness
    with ExperimentRunner(mode=mode, chunk_days=2, max_workers=1) as runner:
        accuracies = runner.evaluate_days(
            model, features, labels, noise_models,
            parameter_sets=parameter_sets, shots=128, seeds=seeds,
        )
    assert np.array_equal(accuracies, reference)
    assert runner.stats.days_evaluated == len(noise_models)


def test_pool_runner_reuses_workers_and_recreates_after_close(harness):
    model, features, labels, noise_models, parameter_sets, seeds, reference = harness
    runner = ExperimentRunner(mode="pool", chunk_days=3, max_workers=1)
    try:
        first = runner.evaluate_days(
            model, features, labels, noise_models,
            parameter_sets=parameter_sets, shots=128, seeds=seeds,
        )
        pids = runner.pool.pids()
        second = runner.evaluate_days(
            model, features, labels, noise_models,
            parameter_sets=parameter_sets, shots=128, seeds=seeds,
        )
        assert np.array_equal(first, reference)
        assert np.array_equal(second, reference)
        # The persistent pool serves both calls with the same warm worker.
        assert runner.pool.pids() == pids
        assert runner.pool.stats.actors_spawned == 1

        # close() releases the pool; the next call transparently builds a
        # fresh one instead of failing on a closed pool.
        runner.close()
        assert runner.pool is None
        third = runner.evaluate_days(
            model, features, labels, noise_models,
            parameter_sets=parameter_sets, shots=128, seeds=seeds,
        )
        assert np.array_equal(third, reference)
        assert runner.pool is not None and not runner.pool.closed
    finally:
        runner.close()


def test_runner_cache_hits_skip_evaluation(harness, tmp_path):
    model, features, labels, noise_models, parameter_sets, seeds, reference = harness
    cache = EvaluationCache(tmp_path / "cache.jsonl")
    runner = ExperimentRunner(mode="serial", chunk_days=3, cache=cache)
    first = runner.evaluate_days(
        model, features, labels, noise_models,
        parameter_sets=parameter_sets, shots=128, seeds=seeds,
    )
    evaluated_after_first = runner.stats.days_evaluated
    second = runner.evaluate_days(
        model, features, labels, noise_models,
        parameter_sets=parameter_sets, shots=128, seeds=seeds,
    )
    assert np.array_equal(first, reference)
    assert np.array_equal(second, reference)
    assert runner.stats.days_evaluated == evaluated_after_first
    assert runner.stats.cache_hits == len(noise_models)

    # A fresh cache loaded from the same file warm-starts a new runner.
    warm = ExperimentRunner(
        mode="serial", cache=EvaluationCache(tmp_path / "cache.jsonl")
    )
    third = warm.evaluate_days(
        model, features, labels, noise_models,
        parameter_sets=parameter_sets, shots=128, seeds=seeds,
    )
    assert np.array_equal(third, reference)
    assert warm.stats.days_evaluated == 0


def test_runner_cache_distinguishes_bindings(harness):
    model, *_ = harness
    digest_a = model_digest(model)
    digest_b = model_digest(model, parameters=np.zeros(model.num_parameters))
    assert digest_a != digest_b
    history = generate_belem_history(2, seed=8)
    assert noise_model_digest(
        NoiseModel.from_calibration(history[0])
    ) != noise_model_digest(NoiseModel.from_calibration(history[1]))


def test_runner_writes_records(harness, tmp_path):
    model, features, labels, noise_models, parameter_sets, seeds, _ = harness
    record_path = tmp_path / "records.jsonl"
    runner = ExperimentRunner(mode="serial", chunk_days=4, record_log=record_path)
    runner.evaluate_days(
        model, features, labels, noise_models,
        parameter_sets=parameter_sets, shots=128, seeds=seeds,
        experiment="unit/records", dates=[f"day{i}" for i in range(len(noise_models))],
    )
    records = load_run_records(record_path)
    assert len(records) == len(noise_models)
    assert all(isinstance(record, RunRecord) for record in records)
    assert records[0].experiment == "unit/records"
    assert records[0].date == "day0"
    assert all(record.accuracy is not None for record in records)


def test_runner_accepts_numpy_seeds_with_records(harness, tmp_path):
    model, features, labels, noise_models, parameter_sets, _, _ = harness
    numpy_seeds = list(np.random.default_rng(0).integers(0, 2**31, len(noise_models)))
    runner = ExperimentRunner(mode="serial", record_log=tmp_path / "np_seeds.jsonl")
    accuracies = runner.evaluate_days(
        model, features, labels, noise_models,
        parameter_sets=parameter_sets, shots=64, seeds=numpy_seeds,
    )
    records = load_run_records(tmp_path / "np_seeds.jsonl")
    assert len(records) == len(noise_models)
    assert all(isinstance(record.extra["seed"], int) for record in records)
    assert np.all((accuracies >= 0.0) & (accuracies <= 1.0))


def test_runner_does_not_cache_unseeded_sampling(harness):
    model, features, labels, noise_models, parameter_sets, _, _ = harness
    runner = ExperimentRunner(mode="serial", cache=EvaluationCache())
    first = runner.evaluate_days(
        model, features, labels, noise_models,
        parameter_sets=parameter_sets, shots=16,
    )
    second = runner.evaluate_days(
        model, features, labels, noise_models,
        parameter_sets=parameter_sets, shots=16,
    )
    # Fresh random draws both times: nothing cached, nothing replayed.
    assert runner.stats.cache_hits == 0
    assert len(runner.cache) == 0
    # Exact expectations (shots=None) remain cacheable.
    runner.evaluate_days(
        model, features, labels, noise_models, parameter_sets=parameter_sets
    )
    assert len(runner.cache) == len(noise_models)
    del first, second


def test_cache_key_digests_computed_once_per_object(harness, monkeypatch):
    """The cache-key loop derives each digest once, not once per day.

    Day sweeps pass one shared parameter vector and D distinct noise
    models; before the memoization fix the runner re-hashed the full
    parameter vector (and channel map) for every single day.
    """
    import repro.runtime.runner as runner_module

    model, features, labels, noise_models, _parameter_sets, seeds, _ = harness
    calls = {"model": 0, "noise": 0}
    real_model_digest = runner_module.model_digest
    real_noise_digest = runner_module.noise_model_digest

    def counting_model_digest(*args, **kwargs):
        calls["model"] += 1
        return real_model_digest(*args, **kwargs)

    def counting_noise_digest(*args, **kwargs):
        calls["noise"] += 1
        return real_noise_digest(*args, **kwargs)

    monkeypatch.setattr(runner_module, "model_digest", counting_model_digest)
    monkeypatch.setattr(runner_module, "noise_model_digest", counting_noise_digest)

    shared = np.zeros(model.num_parameters)
    runner = ExperimentRunner(mode="serial", chunk_days=3, cache=EvaluationCache())
    runner.evaluate_days(
        model, features, labels, noise_models,
        parameter_sets=[shared] * len(noise_models), shots=128, seeds=seeds,
    )
    # One shared binding object → one model digest; D distinct noise-model
    # objects → exactly D noise digests.
    assert calls["model"] == 1
    assert calls["noise"] == len(noise_models)

    # A sweep that repeats one noise-model object hashes it only once too.
    calls["model"] = calls["noise"] = 0
    runner.evaluate_days(
        model, features, labels, [noise_models[0]] * len(noise_models),
        parameter_sets=[shared] * len(noise_models), shots=128, seeds=seeds,
    )
    assert calls["model"] == 1
    assert calls["noise"] == 1


def test_runner_rejects_bad_configuration():
    assert RUNNER_MODES == ("serial", "pool")
    assert ExperimentRunner().mode == "serial"
    assert default_runner().mode == "serial"
    for mode in ("quantum", "thread", "process"):
        with pytest.raises(ReproError):
            ExperimentRunner(mode=mode)
    with pytest.raises(ReproError):
        ExperimentRunner(chunk_days=0)
