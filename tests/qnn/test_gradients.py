"""Tests for the adjoint and parameter-shift gradient engines."""

import numpy as np
import pytest

from repro.circuits import build_qucad_ansatz, build_two_parameter_vqc
from repro.exceptions import TrainingError
from repro.qnn import (
    QNNModel,
    adjoint_gradient,
    adjoint_gradient_batch,
    cross_entropy_loss,
    finite_difference_gradient,
    parameter_shift_gradient,
    shift_rules_for_circuit,
    z_diagonal,
)
from repro.simulator import StatevectorSimulator


def test_z_diagonal_values():
    diag = z_diagonal(0, 2)
    assert np.allclose(diag, [1, 1, -1, -1])
    diag = z_diagonal(1, 2)
    assert np.allclose(diag, [1, -1, 1, -1])


def test_shift_rules_for_qucad_ansatz():
    ansatz = build_qucad_ansatz(4, repeats=1)
    rules = shift_rules_for_circuit(ansatz)
    assert len(rules) == ansatz.num_parameters
    assert rules.count("four_term") == 16  # the controlled-rotation layers
    assert rules.count("two_term") == 24


def test_adjoint_matches_finite_difference_on_expectation():
    circuit = build_two_parameter_vqc()
    simulator = StatevectorSimulator(2)
    initial = simulator.zero_state(1)
    observable = z_diagonal(0, 2)[None, :]
    parameters = np.array([0.7, -0.4])

    gradient, final_states = adjoint_gradient(circuit, parameters, initial, observable)

    def expectation(p):
        result = simulator.run(circuit.bind_parameters(p), initial_states=initial)
        return float(result.expectation_z([0])[0, 0])

    numerical = finite_difference_gradient(expectation, parameters)
    assert np.allclose(gradient, numerical, atol=1e-6)
    assert np.allclose(np.abs(final_states[0]) ** 2,
                       simulator.run(circuit.bind_parameters(parameters), initial_states=initial).probabilities()[0])


def test_adjoint_matches_finite_difference_on_full_loss():
    model = QNNModel.create(4, 16, 4, repeats=1, seed=2)
    rng = np.random.default_rng(0)
    features = rng.uniform(size=(5, 16))
    labels = rng.integers(0, 4, size=5)
    _, analytic = model.loss_and_gradient(features, labels)

    def loss_fn(p):
        return cross_entropy_loss(model.forward_ideal(features, parameters=p), labels)[0]

    numerical = finite_difference_gradient(loss_fn, model.parameters)
    assert np.allclose(analytic, numerical, atol=1e-6)


def test_parameter_shift_matches_finite_difference_for_controlled_rotation():
    model = QNNModel.create(2, 2, 2, repeats=1, seed=4)
    features = np.array([[0.3, 0.8]])
    rules = shift_rules_for_circuit(model.ansatz)

    def expectation(p):
        return float(model.ideal_expectations(features, parameters=p)[0, 0])

    analytic = parameter_shift_gradient(expectation, model.parameters, rules)
    numerical = finite_difference_gradient(expectation, model.parameters)
    assert np.allclose(analytic, numerical, atol=1e-6)


def test_adjoint_batch_bitmatches_batches_of_one_and_parameter_shift():
    """Each binding of a G-binding stacked sweep equals a batch of one bit
    for bit, and tracks the parameter-shift gradient (an independent,
    simulator-agnostic reference) to numerical precision."""
    circuit = build_qucad_ansatz(3, repeats=1)
    simulator = StatevectorSimulator(3)
    rng = np.random.default_rng(21)
    initial = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
    initial /= np.linalg.norm(initial, axis=1, keepdims=True)
    observable = np.stack([z_diagonal(b % 3, 3) * (1.0 + 0.5 * b) for b in range(4)])
    parameter_sets = [
        rng.uniform(-np.pi, np.pi, circuit.num_parameters) for _ in range(3)
    ]
    rules = shift_rules_for_circuit(circuit)
    sweeps = adjoint_gradient_batch(circuit, parameter_sets, initial, observable)
    for parameters, (gradient, final_states) in zip(parameter_sets, sweeps):
        [(single_gradient, single_states)] = adjoint_gradient_batch(
            circuit, [parameters], initial, observable
        )
        assert np.array_equal(gradient, single_gradient)
        assert np.array_equal(final_states, single_states)

        def expectation(p):
            states = simulator.run(circuit.bind_parameters(p), initial_states=initial).states
            return float(np.sum(np.abs(states) ** 2 * observable))

        shifted = parameter_shift_gradient(expectation, parameters, rules)
        np.testing.assert_allclose(gradient, shifted, atol=1e-9)


def test_parameter_shift_validates_rule_count():
    with pytest.raises(TrainingError):
        parameter_shift_gradient(lambda p: 0.0, np.zeros(3), ["two_term"])


def test_parameter_shift_rejects_unknown_rule():
    with pytest.raises(TrainingError):
        parameter_shift_gradient(lambda p: 0.0, np.zeros(1), ["three_term"])


def test_adjoint_batch_mismatch_raises():
    circuit = build_two_parameter_vqc()
    simulator = StatevectorSimulator(2)
    with pytest.raises(TrainingError):
        adjoint_gradient(circuit, np.zeros(2), simulator.zero_state(2), np.ones((1, 4)))
