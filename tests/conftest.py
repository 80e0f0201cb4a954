"""Shared fixtures for the test suite.

Fixtures are deliberately tiny (few qubits, few samples, few days) so the
whole suite stays fast while still exercising the real code paths.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.calibration import (
    CalibrationSnapshot,
    belem_backend,
    generate_belem_history,
)
from repro.circuits import build_qucad_ansatz
from repro.datasets import load_mnist4
from repro.qnn import QNNModel
from repro.transpiler import belem_coupling


@pytest.fixture(scope="session")
def coupling():
    """The belem coupling map used by most transpiler tests."""
    return belem_coupling()


@pytest.fixture(scope="session")
def backend():
    return belem_backend()


@pytest.fixture(scope="session")
def history():
    """A short deterministic calibration history."""
    return generate_belem_history(12, seed=123)


@pytest.fixture(scope="session")
def calibration(history) -> CalibrationSnapshot:
    """One calibration snapshot."""
    return history[0]


@pytest.fixture(scope="session")
def small_dataset():
    """A small MNIST-4 dataset (fast to evaluate)."""
    return load_mnist4(num_samples=120, seed=5)


@pytest.fixture()
def ansatz():
    """A single-block QuCAD ansatz on 4 qubits (40 parameters)."""
    return build_qucad_ansatz(4, repeats=1)


@pytest.fixture()
def model(coupling, calibration) -> QNNModel:
    """A small untrained model bound to the belem device."""
    qnn = QNNModel.create(
        num_qubits=4, num_features=16, num_classes=4, repeats=1, seed=11
    )
    qnn.bind_to_device(coupling, calibration=calibration)
    return qnn


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0)


# ---------------------------------------------------------------------------
# Per-binding references for the batch-first execution paths
# ---------------------------------------------------------------------------
#
# Every execution API is batch-first: its single-binding form is a view of
# the batch form, so batch-vs-single comparisons would compare a path with
# itself.  These references rebuild one binding from the unbatched building
# blocks instead — the compiled statevector walk of
# ``ops.apply_compiled_statevector`` and the per-gate noisy walk of
# ``DensityMatrixSimulator.run`` — and the equivalence suites pin the batch
# paths against them with ``np.array_equal``.


def reference_statevector(circuit, initial_states, parameters=None, dtype=np.complex128):
    """One binding's evolved states through the unstacked compiled walk."""
    from repro.simulator import SimulationEngine, ops

    engine = SimulationEngine(dtype=np.dtype(dtype).name)
    program = engine.compile(circuit, parameters)
    states = np.asarray(initial_states).astype(engine.complex_dtype)
    return ops.apply_compiled_statevector(states, program.steps, circuit.num_qubits)


def reference_density(circuit, noise_model=None, initial_rho=None, batch=1):
    """One binding's density matrices through the per-gate simulator walk."""
    from repro.simulator import DensityMatrixSimulator

    simulator = DensityMatrixSimulator(circuit.num_qubits)
    return simulator.run(circuit, noise_model, initial_rho=initial_rho, batch=batch)


def reference_ideal_logits(model, features, parameters=None):
    """Noise-free logits of one binding, built without the batch APIs."""
    from repro.simulator import StatevectorResult, StatevectorSimulator

    parameters = model.parameters if parameters is None else parameters
    encoded = model.encoder.encode_statevectors(
        features, StatevectorSimulator(model.num_qubits)
    )
    states = reference_statevector(model.ansatz, encoded, parameters)
    result = StatevectorResult(states=states, num_qubits=model.num_qubits)
    return model.logit_scale * result.expectation_z(model.readout_qubits)


def reference_noisy_logits(
    model, features, noise_model, parameters=None, shots=None, seed=None
):
    """Noisy logits of one binding, built without the batch APIs."""
    from repro.simulator import DensityMatrixSimulator

    parameters = model.parameters if parameters is None else parameters
    transpiled = model.transpiled
    simulator = DensityMatrixSimulator(transpiled.coupling.num_qubits)
    mapping = [
        transpiled.encoding_physical_qubit(logical)
        for logical in range(model.num_qubits)
    ]
    initial = model.encoder.encode_density_matrices(
        features, simulator, noise_model=noise_model, qubit_mapping=mapping
    )
    result = simulator.run(
        transpiled.to_physical(parameters), noise_model, initial_rho=initial
    )
    measured = transpiled.measured_physical_qubits(model.readout_qubits)
    if shots is None:
        expectations = result.expectation_z(measured)
    else:
        expectations = result.sample_expectation_z(measured, shots=shots, seed=seed)
    return model.logit_scale * expectations


@pytest.fixture(scope="session")
def references():
    """The per-binding reference functions above, for the equivalence suites."""
    return SimpleNamespace(
        statevector=reference_statevector,
        density=reference_density,
        ideal_logits=reference_ideal_logits,
        noisy_logits=reference_noisy_logits,
    )
