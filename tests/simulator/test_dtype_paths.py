"""Every backend path must honour the engine's precision tier.

PR 8 swept the hardwired ``dtype=complex`` / implicit float64 allocations
out of the simulator; this regression pins the output dtype of each
execution path under both tiers so a future allocation can't silently
promote a float32 walk back to double precision (NEP 50 makes that easy:
one float64 coefficient array upcasts the whole batch).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.calibration import generate_belem_history
from repro.circuits import build_qucad_ansatz
from repro.simulator import (
    DensityMatrixBackend,
    NoiseModel,
    SimulationEngine,
    StatevectorBackend,
)
from repro.transpiler import belem_coupling, transpile

COMPLEX_OF = {"float64": np.dtype(np.complex128), "float32": np.dtype(np.complex64)}
REAL_OF = {"float64": np.dtype(np.float64), "float32": np.dtype(np.float32)}


@pytest.fixture(params=["float64", "float32"])
def tier(request):
    return request.param


@pytest.fixture()
def workload():
    rng = np.random.default_rng(3)
    ansatz = build_qucad_ansatz(4, repeats=1)
    theta = rng.uniform(-np.pi, np.pi, ansatz.num_parameters)
    thetas = [rng.uniform(-np.pi, np.pi, ansatz.num_parameters) for _ in range(3)]
    return ansatz, theta, thetas


def test_statevector_paths(tier, workload):
    ansatz, theta, thetas = workload
    backend = StatevectorBackend(engine=SimulationEngine(dtype=tier))
    result = backend.execute(ansatz, parameters=theta)
    assert result.states.dtype == COMPLEX_OF[tier]
    assert result.probabilities().dtype == REAL_OF[tier]
    for item in backend.execute_batch(ansatz, thetas):
        assert item.states.dtype == COMPLEX_OF[tier]


def test_simulator_fallback_paths(tier, workload):
    """The unfused simulator walk (fusion off) follows the tier too."""
    ansatz, theta, _ = workload
    backend = StatevectorBackend(engine=SimulationEngine(fusion=False, dtype=tier))
    result = backend.execute(ansatz, parameters=theta)
    assert result.states.dtype == COMPLEX_OF[tier]


def test_density_paths(tier, workload):
    ansatz, theta, thetas = workload
    backend = DensityMatrixBackend(engine=SimulationEngine(dtype=tier))
    result = backend.execute(ansatz, parameters=theta, batch=2)
    assert result.rho.dtype == COMPLEX_OF[tier]
    assert result.probabilities().dtype == REAL_OF[tier]
    for item in backend.execute_batch(ansatz, thetas, batch=2):
        assert item.rho.dtype == COMPLEX_OF[tier]


def test_noisy_density_paths(tier, workload):
    """Kraus, depolarizing and readout-confusion channels preserve the tier."""
    ansatz, theta, thetas = workload
    history = generate_belem_history(len(thetas), seed=8)
    models = [NoiseModel.from_calibration(s) for s in history]
    transpiled = transpile(ansatz, belem_coupling(), calibration=history[0])
    physical = transpiled.to_physical(theta)
    backend = DensityMatrixBackend(engine=SimulationEngine(dtype=tier))
    result = backend.execute(physical, noise_model=models[0], batch=2)
    assert result.rho.dtype == COMPLEX_OF[tier]
    measured = transpiled.measured_physical_qubits([0, 1])
    assert result.probabilities().dtype == REAL_OF[tier]
    assert result.expectation_z(measured).dtype == REAL_OF[tier]
    batched = backend.execute_batch(
        [transpiled.to_physical(p) for p in thetas], noise_models=models, batch=2
    )
    for item in batched:
        assert item.rho.dtype == COMPLEX_OF[tier]


def test_multi_group_walks(tier, workload):
    ansatz, _, thetas = workload
    engine = SimulationEngine(dtype=tier)
    rng = np.random.default_rng(5)
    states = rng.normal(size=(len(thetas), 4, 16)) + 1j * rng.normal(
        size=(len(thetas), 4, 16)
    )
    states /= np.linalg.norm(states, axis=-1, keepdims=True)
    evolved = engine.run_statevector_multi([ansatz] * len(thetas), states, thetas)
    assert evolved.dtype == COMPLEX_OF[tier]


def test_compiled_programs_materialise_in_tier(tier, workload):
    ansatz, theta, _ = workload
    engine = SimulationEngine(dtype=tier)
    program = engine.compile(ansatz, theta)
    for operation in program.operations:
        assert operation.matrix.dtype == COMPLEX_OF[tier]
