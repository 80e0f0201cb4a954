"""Property-based equivalence harness for day-stacked execution.

The day-stacked kernels (one fused walk over a ``(days, dim, dim)`` stack
of density matrices, per-gate noise strengths carried as per-day vectors)
are only allowed to exist because they are **bit-identical** to a
per-binding walk.  The single-binding APIs are views of the batch APIs, so
the references are the unbatched building blocks (the ``references``
fixture in ``tests/conftest.py``).  These tests pin that contract with
hypothesis across:

* randomly drawn devices, drift scenarios, day counts, and parameter
  vectors (density backend vs ``DensityMatrixSimulator.run``);
* shared and distinct parameter bindings (statevector backend vs
  ``ops.apply_compiled_statevector``);
* the full evaluation path (``evaluate_noisy_batch`` vs per-day logits
  rebuilt from the simulator walk), plus its one-binding view.

Everything asserts with ``np.array_equal`` — no tolerances.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.calibration.scenarios import get_scenario
from repro.circuits import build_qucad_ansatz
from repro.qnn import QNNModel, evaluate_noisy, evaluate_noisy_batch
from repro.simulator import (
    DensityMatrixBackend,
    NoiseModel,
    SimulationEngine,
    StatevectorBackend,
)
from repro.transpiler import get_device_coupling, transpile

#: Devices the property sweep draws from: both paper chips (5-qubit belem,
#: 7-qubit jakarta) and two library topologies with different connectivity.
DEVICES = ("belem", "jakarta", "ring_5", "line_5")
#: One gradual and one discontinuous drift family.
SCENARIOS = ("seasonal", "jump", "storm")

COMMON = dict(
    deadline=None,
    max_examples=10,
    suppress_health_check=[HealthCheck.too_slow],
)


def _physical_circuit(device: str, parameters_seed: int, history):
    """A 4-qubit ansatz routed onto ``device`` with random bound parameters."""
    ansatz = build_qucad_ansatz(4, repeats=1)
    rng = np.random.default_rng(parameters_seed)
    parameters = rng.uniform(-np.pi, np.pi, ansatz.num_parameters)
    transpiled = transpile(
        ansatz, get_device_coupling(device), calibration=history[0]
    )
    return transpiled.to_physical(parameters)


@settings(**COMMON)
@given(
    device=st.sampled_from(DEVICES),
    scenario_name=st.sampled_from(SCENARIOS),
    num_days=st.integers(min_value=2, max_value=4),
    drift_seed=st.integers(min_value=0, max_value=2**31 - 1),
    parameters_seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_density_day_stack_bitmatches_per_day_loop(
    references, device, scenario_name, num_days, drift_seed, parameters_seed
):
    """One bound circuit × a scenario-rendered noise history: the stacked
    walk must reproduce the per-day simulator walk bit for bit."""
    history = get_scenario(scenario_name).history(device, num_days, seed=drift_seed)
    noise_models = [NoiseModel.from_calibration(s) for s in history]
    physical = _physical_circuit(device, parameters_seed, history)
    backend = DensityMatrixBackend(engine=SimulationEngine())

    batched = backend.execute_batch(physical, noise_models=noise_models, batch=2)
    for model, result in zip(noise_models, batched):
        reference = references.density(physical, model, batch=2)
        assert np.array_equal(result.rho, reference.rho)
        assert np.array_equal(
            result.expectation_z(list(range(4))),
            reference.expectation_z(list(range(4))),
        )


@settings(**COMMON)
@given(
    scenario_name=st.sampled_from(SCENARIOS),
    num_days=st.integers(min_value=2, max_value=4),
    drift_seed=st.integers(min_value=0, max_value=2**31 - 1),
    parameters_seed=st.integers(min_value=0, max_value=2**31 - 1),
    shared=st.booleans(),
)
def test_density_explicit_parameter_sets_bitmatch_loop(
    references, scenario_name, num_days, drift_seed, parameters_seed, shared
):
    """Explicit ``parameter_sets`` — one shared vector (the stacked fast
    path) or distinct vectors (the grouped fallback) — both bit-match."""
    ansatz = build_qucad_ansatz(3, repeats=1)
    rng = np.random.default_rng(parameters_seed)
    if shared:
        vector = rng.uniform(-np.pi, np.pi, ansatz.num_parameters)
        parameter_sets = [vector] * num_days
    else:
        parameter_sets = [
            rng.uniform(-np.pi, np.pi, ansatz.num_parameters)
            for _ in range(num_days)
        ]
    history = get_scenario(scenario_name).history("belem", num_days, seed=drift_seed)
    noise_models = [NoiseModel.from_calibration(s) for s in history]
    backend = DensityMatrixBackend(engine=SimulationEngine())

    batched = backend.execute_batch(
        ansatz, parameter_sets, noise_models=noise_models, batch=2
    )
    for parameters, model, result in zip(parameter_sets, noise_models, batched):
        reference = references.density(
            ansatz.bind_parameters(parameters), model, batch=2
        )
        assert np.array_equal(result.rho, reference.rho)


@settings(**COMMON)
@given(
    parameters_seed=st.integers(min_value=0, max_value=2**31 - 1),
    count=st.integers(min_value=2, max_value=5),
    shared=st.booleans(),
)
def test_statevector_batch_bitmatches_loop(references, parameters_seed, count, shared):
    ansatz = build_qucad_ansatz(4, repeats=1)
    rng = np.random.default_rng(parameters_seed)
    if shared:
        vector = rng.uniform(-np.pi, np.pi, ansatz.num_parameters)
        parameter_sets = [vector] * count
    else:
        parameter_sets = [
            rng.uniform(-np.pi, np.pi, ansatz.num_parameters) for _ in range(count)
        ]
    initial = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
    initial /= np.linalg.norm(initial, axis=1, keepdims=True)
    backend = StatevectorBackend(engine=SimulationEngine())

    batched = backend.execute_batch(ansatz, parameter_sets, initial)
    for parameters, result in zip(parameter_sets, batched):
        reference = references.statevector(ansatz, initial, parameters)
        assert np.array_equal(result.states, reference)


@pytest.fixture(scope="module")
def bound_model():
    scenario = get_scenario("seasonal")
    history = scenario.history("belem", 5, seed=13)
    model = QNNModel.create(
        num_qubits=4, num_features=16, num_classes=4, repeats=1, seed=6
    )
    model.bind_to_device(
        get_device_coupling("belem"), calibration=history[0]
    )
    rng = np.random.default_rng(29)
    features = rng.standard_normal((6, 16))
    labels = rng.integers(0, 4, 6)
    noise_models = [NoiseModel.from_calibration(s) for s in history]
    return model, features, labels, noise_models


def test_full_path_day_sweep_bitmatches_evaluate_noisy_loop(references, bound_model):
    """``evaluate_noisy_batch`` over a shared binding (the day-stacked
    regime the runner drives) returns the exact per-day logits, and so does
    its one-binding view ``evaluate_noisy``."""
    model, features, labels, noise_models = bound_model
    shared = np.asarray(model.parameters, dtype=float)
    batched = evaluate_noisy_batch(
        model,
        features,
        labels,
        noise_models,
        parameter_sets=[shared] * len(noise_models),
        shots=128,
        seeds=list(range(len(noise_models))),
    )
    for index, (noise_model, result) in enumerate(zip(noise_models, batched)):
        reference = references.noisy_logits(
            model, features, noise_model, shared, shots=128, seed=index
        )
        assert np.array_equal(result.logits, reference)
        single = evaluate_noisy(
            model,
            features,
            labels,
            noise_model,
            parameters=shared,
            shots=128,
            seed=index,
        )
        assert np.array_equal(single.logits, reference)
        assert result.accuracy == single.accuracy


def test_full_path_exact_expectations_bitmatch(references, bound_model):
    """Same contract without shot sampling (exact expectation values)."""
    model, features, labels, noise_models = bound_model
    batched = evaluate_noisy_batch(model, features, labels, noise_models)
    for noise_model, result in zip(noise_models, batched):
        reference = references.noisy_logits(model, features, noise_model)
        assert np.array_equal(result.logits, reference)
