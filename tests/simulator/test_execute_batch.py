"""Batch/reference equivalence of ``Backend.execute_batch`` on every backend.

``execute_batch`` is the only execution path (``execute`` is a one-binding
view of it), so each binding is pinned (``np.array_equal``, not
``allclose``) against the unbatched per-binding references of the
``references`` fixture: the compiled statevector walk and the per-gate
density-matrix simulator.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.calibration import generate_belem_history
from repro.circuits import build_qucad_ansatz
from repro.simulator import (
    DensityMatrixBackend,
    ops,
    NoiseModel,
    SimulationEngine,
    StatevectorBackend,
)
from repro.transpiler import belem_coupling, transpile


@pytest.fixture()
def bindings():
    rng = np.random.default_rng(7)
    ansatz = build_qucad_ansatz(4, repeats=1)
    parameter_sets = [
        rng.uniform(-np.pi, np.pi, ansatz.num_parameters) for _ in range(5)
    ]
    initial = rng.standard_normal((6, 16)) + 1j * rng.standard_normal((6, 16))
    initial /= np.linalg.norm(initial, axis=1, keepdims=True)
    return ansatz, parameter_sets, initial


def test_statevector_batch_bitmatches_loop(references, bindings):
    ansatz, parameter_sets, initial = bindings
    backend = StatevectorBackend(engine=SimulationEngine())
    batched = backend.execute_batch(ansatz, parameter_sets, initial)
    for parameters, result in zip(parameter_sets, batched):
        reference = references.statevector(ansatz, initial, parameters)
        assert np.array_equal(result.states, reference)
        # The one-binding view runs the same path.
        single = backend.execute(ansatz, initial, parameters=parameters)
        assert np.array_equal(single.states, reference)


def test_statevector_batch_shared_binding(references, bindings):
    ansatz, parameter_sets, initial = bindings
    backend = StatevectorBackend(engine=SimulationEngine())
    batched = backend.execute_batch(ansatz, [parameter_sets[0]] * 3, initial)
    reference = references.statevector(ansatz, initial, parameter_sets[0])
    for result in batched:
        assert np.array_equal(result.states, reference)


def test_statevector_batch_heterogeneous_structures_fall_back(references, bindings):
    ansatz, parameter_sets, initial = bindings
    other = build_qucad_ansatz(4, repeats=2)
    other_parameters = np.linspace(-1.0, 1.0, other.num_parameters)
    backend = StatevectorBackend(engine=SimulationEngine())
    batched = backend.execute_batch(
        [ansatz, other], [parameter_sets[0], other_parameters], initial
    )
    ref_a = references.statevector(ansatz, initial, parameter_sets[0])
    ref_b = references.statevector(other, initial, other_parameters)
    assert np.array_equal(batched[0].states, ref_a)
    assert np.array_equal(batched[1].states, ref_b)


def test_density_batch_bitmatches_loop_across_noise_models(references, bindings):
    ansatz, parameter_sets, _ = bindings
    history = generate_belem_history(len(parameter_sets), seed=5)
    noise_models = [NoiseModel.from_calibration(s) for s in history]
    transpiled = transpile(ansatz, belem_coupling(), calibration=history[0])
    physical = [transpiled.to_physical(p) for p in parameter_sets]
    backend = DensityMatrixBackend(engine=SimulationEngine())
    batched = backend.execute_batch(physical, noise_models=noise_models, batch=3)
    for circuit, model, result in zip(physical, noise_models, batched):
        reference = references.density(circuit, model, batch=3)
        assert np.array_equal(result.rho, reference.rho)
        # Per-binding readout confusion must survive the batched path.
        assert np.array_equal(
            result.expectation_z([0, 1]), reference.expectation_z([0, 1])
        )


def test_density_batch_same_parameters_many_days(references, bindings):
    """The accuracy-over-days shape: one binding, many noise models."""
    ansatz, parameter_sets, _ = bindings
    history = generate_belem_history(4, seed=6)
    noise_models = [NoiseModel.from_calibration(s) for s in history]
    transpiled = transpile(ansatz, belem_coupling(), calibration=history[0])
    physical = transpiled.to_physical(parameter_sets[0])
    backend = DensityMatrixBackend(engine=SimulationEngine())
    batched = backend.execute_batch(physical, noise_models=noise_models, batch=2)
    for model, result in zip(noise_models, batched):
        reference = references.density(physical, model, batch=2)
        assert np.array_equal(result.rho, reference.rho)
        single = backend.execute(physical, noise_model=model, batch=2)
        assert np.array_equal(single.rho, reference.rho)


def test_density_batch_noise_free(bindings):
    """Noise-free bindings walk the fused program: pin each against the
    fused per-binding density walk."""
    ansatz, parameter_sets, _ = bindings
    engine = SimulationEngine()
    backend = DensityMatrixBackend(engine=engine)
    batched = backend.execute_batch(ansatz, parameter_sets, batch=2)
    zero = backend.simulator(ansatz.num_qubits).zero_state(2)
    for parameters, result in zip(parameter_sets, batched):
        program = engine.compile(ansatz, parameters)
        reference = ops.apply_fused_density(zero, program.operations, ansatz.num_qubits)
        assert np.array_equal(result.rho, reference)


def test_execute_batch_rejects_mismatched_lengths(bindings):
    ansatz, parameter_sets, initial = bindings
    backend = StatevectorBackend(engine=SimulationEngine())
    from repro.exceptions import SimulationError

    with pytest.raises(SimulationError):
        backend.execute_batch(ansatz, parameter_sets, initial, seeds=[1, 2])
