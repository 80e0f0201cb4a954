"""The noisy walk plan: bit-identity, sharing, bounded tables, range check.

``SimulationEngine.run_density_multi`` walks every noisy binding through a
plan built once: a skeleton per structure (placement indices shared by
every binding), bound steps per binding, and a channel table per
(structure, noise model) in a bounded LRU.  Each group is pinned
``np.array_equal`` to the per-gate ``DensityMatrixSimulator.run``
reference.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.exceptions import SimulationError
from repro.simulator import NoiseModel, SimulationEngine
from repro.simulator.engine import build_walk_skeleton


def _circuit(num_qubits: int) -> QuantumCircuit:
    """Diagonal, monomial and dense gates, parametric and fixed."""
    circuit = QuantumCircuit(num_qubits)
    ref = 0
    for qubit in range(num_qubits):
        circuit.rx(0.0, qubit, param_ref=ref)
        circuit.rz(0.0, qubit, param_ref=ref + 1)
        ref += 2
    circuit.sx(0)
    circuit.cx(0, 1)
    circuit.x(1)
    circuit.cz(0, 1)
    circuit.rx(0.0, 1)  # identity: classified diagonal
    circuit.cry(0.0, 1, 0, param_ref=ref)
    circuit.swap(0, 1)
    if num_qubits == 3:
        circuit.cx(1, 2)
        circuit.sx(2)
        circuit.crx(0.0, 2, 0, param_ref=ref + 1)
        circuit.swap(2, 0)
        circuit.rz(0.0, 2, param_ref=ref + 2)
    return circuit


def _noise_model(num_qubits: int, rng) -> NoiseModel:
    # Qubit 1's single-qubit gates stay noiseless, so the table mixes
    # zero and non-zero rows.
    return NoiseModel(
        num_qubits=num_qubits,
        single_qubit_error={
            q: float(rng.uniform(1e-3, 5e-2)) for q in range(num_qubits) if q != 1
        },
        two_qubit_error={
            (q, q + 1): float(rng.uniform(1e-2, 1e-1)) for q in range(num_qubits - 1)
        },
    )


def _mixed_states(rng, groups: int, batch: int, num_qubits: int) -> np.ndarray:
    dim = 2**num_qubits
    amplitudes = rng.standard_normal((groups, batch, dim, dim)) + 1j * rng.standard_normal(
        (groups, batch, dim, dim)
    )
    rho = amplitudes @ np.conj(np.swapaxes(amplitudes, -1, -2))
    return rho / np.trace(rho, axis1=-2, axis2=-1)[..., None, None]


@pytest.mark.parametrize("num_qubits", [2, 3])
@pytest.mark.parametrize("groups, distinct", [(1, False), (4, False), (4, True)])
def test_plan_walk_matches_reference(references, num_qubits, groups, distinct):
    rng = np.random.default_rng(100 * num_qubits + groups)
    circuit = _circuit(num_qubits)
    thetas = [rng.uniform(-np.pi, np.pi, circuit.num_parameters) for _ in range(2)]
    if distinct:
        parameter_sets = [thetas[index % 2] for index in range(groups)]
    else:
        parameter_sets = [thetas[0]] * groups
    models = [_noise_model(num_qubits, rng) for _ in range(groups)]
    if groups > 1:
        models[-1] = None  # a noise-free group rides along
    rho = _mixed_states(rng, groups, 3, num_qubits)
    walked = SimulationEngine().run_density_multi(
        [circuit] * groups, rho, noise_models=models, parameter_sets=parameter_sets
    )
    for group in range(groups):
        reference = references.density(
            circuit.bind_parameters(parameter_sets[group]),
            models[group],
            initial_rho=rho[group],
        )
        assert np.array_equal(walked[group], reference.rho)


def test_bindings_share_the_skeleton():
    rng = np.random.default_rng(3)
    circuit = _circuit(3)
    engine = SimulationEngine()
    model = _noise_model(3, rng)
    rho = _mixed_states(rng, 1, 2, 3)
    plans = []
    for _ in range(2):
        theta = rng.uniform(-np.pi, np.pi, circuit.num_parameters)
        engine.run_density(circuit, rho[0], noise_model=model, parameters=theta)
        plans.append(engine.bound_circuit(circuit, theta)._walk_plan)
    first, second = plans
    assert first is not second
    assert first.skeleton is second.skeleton
    for a, b in zip(first.skeleton.placements, second.skeleton.placements):
        assert a.blocks is b.blocks and a.sub is b.sub
    # Gates on one placement share its indices within the structure too.
    by_qubits = {}
    for placement in first.skeleton.placements:
        assert by_qubits.setdefault(placement.qubits, placement) is placement
    assert engine.cache_sizes()["skeletons"] == 1


def test_channel_tables_are_bounded():
    rng = np.random.default_rng(4)
    circuit = _circuit(2)
    theta = rng.uniform(-np.pi, np.pi, circuit.num_parameters)
    engine = SimulationEngine(max_programs=2)
    rho = _mixed_states(rng, 1, 1, 2)[0]
    for _ in range(engine.max_programs + 3):
        engine.run_density(
            circuit, rho, noise_model=_noise_model(2, rng), parameters=theta
        )
    assert engine.cache_sizes()["tables"] == engine.max_programs
    engine.clear()
    assert engine.cache_sizes()["tables"] == 0
    assert engine.cache_sizes()["skeletons"] == 0


class _OutOfRange(NoiseModel):
    """A noise model whose channels report an unphysical strength."""

    def channel_for_gate(self, gate):
        channel = super().channel_for_gate(gate)
        if channel is None:
            return None
        return SimpleNamespace(probability=1.5)


def test_out_of_range_table_raises_at_build():
    rng = np.random.default_rng(5)
    circuit = _circuit(2)
    theta = rng.uniform(-np.pi, np.pi, circuit.num_parameters)
    base = _noise_model(2, rng)
    model = _OutOfRange(
        num_qubits=2,
        single_qubit_error=base.single_qubit_error,
        two_qubit_error=base.two_qubit_error,
    )
    engine = SimulationEngine()
    with pytest.raises(SimulationError, match=r"outside \[0, 1\]"):
        engine.run_density(
            circuit, _mixed_states(rng, 1, 1, 2)[0], noise_model=model, parameters=theta
        )
    assert engine.cache_sizes()["tables"] == 0


def test_register_past_the_einsum_alphabet_raises_at_plan_build():
    circuit = QuantumCircuit(24)
    circuit.cx(0, 1)
    with pytest.raises(SimulationError, match="einsum labels"):
        build_walk_skeleton(circuit)
