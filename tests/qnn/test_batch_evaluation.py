"""Batch/reference equivalence of the qnn-layer batch APIs and ``QNNModel.copy``.

The single-binding APIs (``forward_ideal``, ``forward_noisy``,
``evaluate_noisy``, ``loss_and_gradient``) are views of their batch forms, so
each binding is pinned against the unbatched references of the
``references`` fixture (``tests/conftest.py``) or, for gradients, against a
batch of one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.calibration import generate_belem_history
from repro.datasets import load_mnist4
from repro.qnn import (
    NoiseInjector,
    QNNModel,
    accuracy_over_days,
    evaluate_noisy,
    evaluate_noisy_batch,
)
from repro.qnn.loss import accuracy
from repro.simulator import NoiseModel
from repro.transpiler import belem_coupling


@pytest.fixture(scope="module")
def harness():
    rng = np.random.default_rng(3)
    history = generate_belem_history(5, seed=21)
    model = QNNModel.create(num_qubits=4, num_features=16, num_classes=4, repeats=1, seed=13)
    model.bind_to_device(belem_coupling(), calibration=history[0])
    dataset = load_mnist4(num_samples=60, seed=5)
    features, labels = dataset.test_features[:8], dataset.test_labels[:8]
    noise_models = [NoiseModel.from_calibration(s) for s in history]
    parameter_sets = [
        rng.uniform(-np.pi, np.pi, model.num_parameters) for _ in range(5)
    ]
    seeds = [int(rng.integers(0, 2**31 - 1)) for _ in range(5)]
    return model, features, labels, noise_models, parameter_sets, seeds


def test_forward_ideal_batch_bitmatches_loop(references, harness):
    model, features, _, _, parameter_sets, _ = harness
    stacked = model.forward_ideal_batch(features, parameter_sets)
    for parameters, logits in zip(parameter_sets, stacked):
        reference = references.ideal_logits(model, features, parameters)
        assert np.array_equal(logits, reference)
        assert np.array_equal(model.forward_ideal(features, parameters=parameters), reference)


def test_forward_noisy_batch_bitmatches_loop(references, harness):
    model, features, _, noise_models, parameter_sets, seeds = harness
    stacked = model.forward_noisy_batch(
        features, noise_models, parameter_sets=parameter_sets, shots=256, seeds=seeds
    )
    for noise_model, parameters, seed, logits in zip(
        noise_models, parameter_sets, seeds, stacked
    ):
        reference = references.noisy_logits(
            model, features, noise_model, parameters, shots=256, seed=seed
        )
        assert np.array_equal(logits, reference)


def test_evaluate_noisy_batch_bitmatches_loop(references, harness):
    model, features, labels, noise_models, parameter_sets, seeds = harness
    batched = evaluate_noisy_batch(
        model, features, labels, noise_models,
        parameter_sets=parameter_sets, shots=512, seeds=seeds,
    )
    for noise_model, parameters, seed, result in zip(
        noise_models, parameter_sets, seeds, batched
    ):
        reference = references.noisy_logits(
            model, features, noise_model, parameters, shots=512, seed=seed
        )
        assert result.accuracy == accuracy(reference, labels)
        assert np.array_equal(result.logits, reference)
        assert np.array_equal(result.predictions, np.argmax(reference, axis=-1))
        single = evaluate_noisy(
            model, features, labels, noise_model,
            parameters=parameters, shots=512, seed=seed,
        )
        assert np.array_equal(single.logits, reference)


def test_evaluate_noisy_batch_chunking_preserves_results(harness):
    model, features, labels, noise_models, parameter_sets, seeds = harness
    wide = evaluate_noisy_batch(
        model, features, labels, noise_models,
        parameter_sets=parameter_sets, shots=512, seeds=seeds,
    )
    # Force ~1 binding per chunk; results must not move.
    narrow = evaluate_noisy_batch(
        model, features, labels, noise_models,
        parameter_sets=parameter_sets, shots=512, seeds=seeds,
        max_batch_bytes=1,
    )
    for a, b in zip(wide, narrow):
        assert np.array_equal(a.logits, b.logits)


def test_accuracy_over_days_matches_per_day_loop(references, harness):
    model, features, labels, noise_models, _, _ = harness
    batched = accuracy_over_days(model, features, labels, noise_models)
    loop = np.array(
        [
            accuracy(references.noisy_logits(model, features, m), labels)
            for m in noise_models
        ]
    )
    assert np.array_equal(batched, loop)


def test_loss_and_gradient_batch_bitmatches_loop(harness):
    model, features, labels, _, parameter_sets, _ = harness
    batched = model.loss_and_gradient_batch(features, labels, parameter_sets[:3])
    for parameters, (loss_value, gradient) in zip(parameter_sets, batched):
        [(ref_loss, ref_gradient)] = model.loss_and_gradient_batch(
            features, labels, [parameters]
        )
        assert loss_value == ref_loss
        assert np.array_equal(gradient, ref_gradient)


def test_noise_injected_batch_draws_jitter_in_binding_order(harness):
    """With a noise injector, binding ``p`` of a batch consumes the rng
    exactly like the ``p``-th of a sequence of one-binding calls."""
    model, features, labels, _, parameter_sets, _ = harness
    injector = NoiseInjector(attenuation=np.array([0.8, 0.85, 0.9, 0.95]), sigma=0.05)
    batched = model.loss_and_gradient_batch(
        features, labels, parameter_sets[:3],
        noise_injector=injector, rng=np.random.default_rng(17),
    )
    rng = np.random.default_rng(17)
    for parameters, (loss_value, gradient) in zip(parameter_sets, batched):
        ref_loss, ref_gradient = model.loss_and_gradient(
            features, labels, parameters=parameters,
            noise_injector=injector, rng=rng,
        )
        assert loss_value == ref_loss
        assert np.array_equal(gradient, ref_gradient)


def test_copy_is_independent_but_shares_binding(harness):
    model, *_ = harness
    clone = model.copy()
    assert clone.parameters is not model.parameters
    assert np.array_equal(clone.parameters, model.parameters)
    assert clone.transpiled is model.transpiled
    clone.parameters[:] = 0.0
    assert not np.array_equal(clone.parameters, model.parameters)


def test_copy_can_deep_copy_binding(harness):
    model, *_ = harness
    clone = model.copy(share_device_binding=False)
    assert clone.transpiled is not model.transpiled
    assert clone.transpiled.final_mapping == model.transpiled.final_mapping


def test_copy_with_parameters_delegates(harness):
    model, *_ = harness
    fresh = np.zeros(model.num_parameters)
    clone = model.copy_with_parameters(fresh, name="frozen")
    assert clone.name == "frozen"
    assert np.array_equal(clone.parameters, fresh)
    assert clone.transpiled is model.transpiled
