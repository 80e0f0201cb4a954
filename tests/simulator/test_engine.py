"""Tests for the compiled-circuit engine and the unified Backend API."""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit, build_qucad_ansatz
from repro.exceptions import SimulationError
from repro.gates.matrices import rotation_stack
from repro.simulator import (
    DensityMatrixBackend,
    DensityMatrixSimulator,
    SimulationEngine,
    StatevectorBackend,
    StatevectorSimulator,
    build_fusion_plan,
    circuit_structure_digest,
    default_engine,
    parameter_digest,
)
from repro.simulator.noise_model import NoiseModel


def _random_states(rng, batch, num_qubits):
    dim = 2**num_qubits
    states = rng.normal(size=(batch, dim)) + 1j * rng.normal(size=(batch, dim))
    return states / np.linalg.norm(states, axis=1, keepdims=True)


def _random_circuit(rng, num_qubits, num_gates):
    one_q = ["x", "y", "z", "h", "s", "t", "sx", "rx", "ry", "rz", "p"]
    two_q = ["cx", "cz", "cy", "swap", "crx", "cry", "crz", "cp", "rzz"]
    parametric = {"rx", "ry", "rz", "p", "crx", "cry", "crz", "cp", "rzz"}
    circuit = QuantumCircuit(num_qubits)
    for _ in range(num_gates):
        if rng.random() < 0.6:
            name = one_q[rng.integers(len(one_q))]
            qubits = [int(rng.integers(num_qubits))]
        else:
            name = two_q[rng.integers(len(two_q))]
            qubits = [int(q) for q in rng.choice(num_qubits, size=2, replace=False)]
        param = float(rng.uniform(-3, 3)) if name in parametric else None
        circuit.add(name, qubits, param=param)
    return circuit


# ---------------------------------------------------------------------------
# Fusion correctness
# ---------------------------------------------------------------------------


class TestFusionCorrectness:
    def test_fused_equals_unfused_on_random_circuits(self):
        rng = np.random.default_rng(7)
        engine = SimulationEngine()
        for num_qubits in (2, 3, 4, 5):
            simulator = StatevectorSimulator(num_qubits)
            for _ in range(5):
                circuit = _random_circuit(rng, num_qubits, 40)
                states = _random_states(rng, 6, num_qubits)
                expected = simulator.run(circuit, initial_states=states).states
                fused = engine.run_statevector(circuit, states)
                np.testing.assert_allclose(fused, expected, atol=1e-10)

    def test_fused_equals_unfused_on_qucad_ansatz(self):
        rng = np.random.default_rng(3)
        ansatz = build_qucad_ansatz(4, 2)
        theta = rng.uniform(-np.pi, np.pi, ansatz.num_parameters)
        states = _random_states(rng, 5, 4)
        expected = StatevectorSimulator(4).run(
            ansatz.bind_parameters(theta), initial_states=states
        ).states
        fused = SimulationEngine().run_statevector(ansatz, states, parameters=theta)
        np.testing.assert_allclose(fused, expected, atol=1e-10)

    def test_fusion_reduces_gate_count(self):
        ansatz = build_qucad_ansatz(4, 2)
        plan = build_fusion_plan(ansatz)
        assert plan.source_gate_count == len(ansatz.gates)
        assert plan.fused_gate_count < plan.source_gate_count / 2
        # Every source gate lands in exactly one block.
        covered = sorted(i for b in plan.blocks for i in b.gate_indices)
        assert covered == list(range(len(ansatz.gates)))

    def test_single_qubit_run_merges_to_one_block(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).ry(0.3, 0).rz(0.5, 0).x(0)
        plan = build_fusion_plan(circuit)
        assert plan.fused_gate_count == 1
        assert plan.blocks[0].qubits == (0,)

    def test_two_qubit_run_contracts_to_one_block(self):
        # cx(0,1), cx(1,0) and interleaved 1q gates all share support {0,1}.
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1).ry(0.2, 0).cx(1, 0).rz(0.4, 1).cz(0, 1)
        plan = build_fusion_plan(circuit)
        assert plan.fused_gate_count == 1
        rng = np.random.default_rng(0)
        states = _random_states(rng, 4, 2)
        expected = StatevectorSimulator(2).run(circuit, initial_states=states).states
        fused = SimulationEngine().run_statevector(circuit, states)
        np.testing.assert_allclose(fused, expected, atol=1e-12)

    def test_conflicting_supports_stay_ordered(self):
        # cx(0,1) then cx(1,2) share wire 1 and must not be reordered.
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).cx(1, 2).ry(0.7, 1).cx(0, 1)
        rng = np.random.default_rng(1)
        states = _random_states(rng, 4, 3)
        expected = StatevectorSimulator(3).run(circuit, initial_states=states).states
        fused = SimulationEngine().run_statevector(circuit, states)
        np.testing.assert_allclose(fused, expected, atol=1e-12)

    def test_fusion_disabled_engine_matches(self):
        rng = np.random.default_rng(11)
        circuit = _random_circuit(rng, 3, 30)
        states = _random_states(rng, 4, 3)
        engine = SimulationEngine(fusion=False)
        plan = engine.plan_for(circuit)[1]
        assert plan.fused_gate_count == len(circuit.gates)
        expected = StatevectorSimulator(3).run(circuit, initial_states=states).states
        np.testing.assert_allclose(
            engine.run_statevector(circuit, states), expected, atol=1e-12
        )


# ---------------------------------------------------------------------------
# Cache behaviour
# ---------------------------------------------------------------------------


class TestCaching:
    def test_program_cache_hit_on_repeat(self):
        rng = np.random.default_rng(5)
        ansatz = build_qucad_ansatz(4, 1)
        theta = rng.uniform(-1, 1, ansatz.num_parameters)
        engine = SimulationEngine()
        states = _random_states(rng, 3, 4)
        engine.run_statevector(ansatz, states, parameters=theta)
        assert engine.stats.program_builds == 1
        engine.run_statevector(ansatz, states, parameters=theta)
        engine.run_statevector(ansatz, states, parameters=theta)
        assert engine.stats.program_builds == 1
        assert engine.stats.program_hits == 2
        assert engine.stats.plan_builds == 1

    def test_parameter_change_invalidates_program_but_not_plan(self):
        rng = np.random.default_rng(6)
        ansatz = build_qucad_ansatz(4, 1)
        theta_a = rng.uniform(-1, 1, ansatz.num_parameters)
        theta_b = theta_a.copy()
        theta_b[0] += 0.25
        engine = SimulationEngine()
        states = _random_states(rng, 3, 4)
        out_a = engine.run_statevector(ansatz, states, parameters=theta_a)
        out_b = engine.run_statevector(ansatz, states, parameters=theta_b)
        assert engine.stats.program_builds == 2  # distinct bindings compile twice
        assert engine.stats.plan_builds == 1  # structure plan is shared
        assert np.abs(out_a - out_b).max() > 1e-6  # genuinely different programs
        # Re-running either binding now hits the cache.
        engine.run_statevector(ansatz, states, parameters=theta_a)
        assert engine.stats.program_hits == 1

    def test_digests_distinguish_structure_and_binding(self):
        ansatz = build_qucad_ansatz(4, 1)
        other = build_qucad_ansatz(4, 2)
        assert circuit_structure_digest(ansatz) != circuit_structure_digest(other)
        theta = np.linspace(-1, 1, ansatz.num_parameters)
        assert parameter_digest(ansatz, theta) != parameter_digest(ansatz, theta + 0.1)
        assert parameter_digest(ansatz, theta) == parameter_digest(ansatz, theta.copy())

    def test_lru_eviction(self):
        rng = np.random.default_rng(8)
        ansatz = build_qucad_ansatz(2, 1)
        engine = SimulationEngine(max_programs=2)
        states = _random_states(rng, 2, 2)
        thetas = [rng.uniform(-1, 1, ansatz.num_parameters) for _ in range(3)]
        for theta in thetas:
            engine.run_statevector(ansatz, states, parameters=theta)
        assert engine.cache_sizes()["programs"] == 2
        # The oldest binding was evicted and recompiles.
        engine.run_statevector(ansatz, states, parameters=thetas[0])
        assert engine.stats.program_builds == 4

    def test_bound_circuit_cache(self):
        rng = np.random.default_rng(9)
        ansatz = build_qucad_ansatz(3, 1)
        theta = rng.uniform(-1, 1, ansatz.num_parameters)
        engine = SimulationEngine()
        first = engine.bound_circuit(ansatz, theta)
        second = engine.bound_circuit(ansatz, theta)
        assert first is second
        assert engine.stats.bound_builds == 1
        assert engine.stats.bound_hits == 1

    def test_clear_resets_caches(self):
        rng = np.random.default_rng(10)
        ansatz = build_qucad_ansatz(2, 1)
        engine = SimulationEngine()
        theta = rng.uniform(-1, 1, ansatz.num_parameters)
        engine.run_statevector(ansatz, _random_states(rng, 2, 2), parameters=theta)
        assert engine.cache_sizes()["programs"] == 1
        engine.clear()
        assert engine.cache_sizes() == {
            "plans": 0, "programs": 0, "bound": 0, "skeletons": 0, "tables": 0
        }


# ---------------------------------------------------------------------------
# Backend parity
# ---------------------------------------------------------------------------


class TestBackends:
    def test_statevector_density_parity_ideal(self):
        rng = np.random.default_rng(12)
        ansatz = build_qucad_ansatz(3, 1)
        theta = rng.uniform(-np.pi, np.pi, ansatz.num_parameters)
        states = _random_states(rng, 4, 3)
        engine = SimulationEngine()
        sv = StatevectorBackend(engine=engine)
        dm = DensityMatrixBackend(engine=engine)
        sv_result = sv.execute(ansatz, states, parameters=theta)
        rho0 = DensityMatrixSimulator.from_statevectors(states)
        dm_result = dm.execute(ansatz, rho0, parameters=theta)
        np.testing.assert_allclose(
            dm_result.probabilities(apply_readout_error=False),
            sv_result.probabilities(),
            atol=1e-10,
        )
        np.testing.assert_allclose(
            dm_result.expectation_z([0, 1], apply_readout_error=False),
            sv_result.expectation_z([0, 1]),
            atol=1e-10,
        )

    def test_density_backend_noisy_matches_simulator(self):
        rng = np.random.default_rng(13)
        ansatz = build_qucad_ansatz(3, 1)
        bound = ansatz.bind_parameters(rng.uniform(-1, 1, ansatz.num_parameters))
        noise = NoiseModel(
            num_qubits=3,
            single_qubit_error={q: 0.01 for q in range(3)},
            two_qubit_error={(q, (q + 1) % 3): 0.03 for q in range(3)},
        )
        expected = DensityMatrixSimulator(3).run(bound, noise_model=noise, batch=2).rho
        result = DensityMatrixBackend().execute(bound, noise_model=noise, batch=2)
        np.testing.assert_allclose(result.rho, expected, atol=1e-12)

    def test_backend_list_dispatch(self):
        rng = np.random.default_rng(15)
        ansatz = build_qucad_ansatz(2, 1)
        thetas = rng.uniform(-1, 1, ansatz.num_parameters)
        backend = StatevectorBackend()
        circuits = [ansatz.bind_parameters(thetas), ansatz.bind_parameters(thetas + 0.5)]
        results = backend.execute(circuits, batch=2)
        assert isinstance(results, list) and len(results) == 2
        assert np.abs(results[0].states - results[1].states).max() > 1e-6

    def test_statevector_backend_rejects_noise(self):
        ansatz = build_qucad_ansatz(2, 1).bind_parameters(
            np.zeros(build_qucad_ansatz(2, 1).num_parameters)
        )
        noise = NoiseModel.ideal(2)
        with pytest.raises(SimulationError):
            StatevectorBackend().execute(ansatz, noise_model=noise)

    def test_trainable_flag_distinguishes_cached_bound_circuits(self):
        # Two circuits with identical structure and angles but different
        # trainable flags must not share adjoint gradient behaviour.
        from repro.qnn.gradients import adjoint_gradient, z_diagonal

        engine = SimulationEngine()
        trainable = QuantumCircuit(2)
        trainable.add("ry", [0], param_ref=0, trainable=True)
        trainable.add("ry", [1], param_ref=1, trainable=True)
        frozen = QuantumCircuit(2)
        frozen.add("ry", [0], param_ref=0, trainable=True)
        frozen.add("ry", [1], param_ref=1, trainable=False)
        theta = np.array([0.4, -0.7])
        initial = StatevectorSimulator(2).zero_state(batch=1)
        diagonals = z_diagonal(1, 2)[None, :]
        grad_trainable, _ = adjoint_gradient(
            trainable, theta, initial, diagonals, engine=engine
        )
        grad_frozen, _ = adjoint_gradient(
            frozen, theta, initial, diagonals, engine=engine
        )
        assert abs(grad_trainable[1]) > 1e-6
        assert grad_frozen[1] == 0.0

    def test_default_engine_is_shared(self):
        from repro.simulator import default_statevector_backend

        assert default_statevector_backend().engine is default_engine()


# ---------------------------------------------------------------------------
# Vectorised feature rotations (bugfix regression)
# ---------------------------------------------------------------------------


class TestRotationStack:
    @pytest.mark.parametrize("name", ["rx", "ry", "rz", "p"])
    def test_stack_matches_scalar_factories(self, name):
        from repro.gates import GATE_REGISTRY

        angles = np.linspace(-2 * np.pi, 2 * np.pi, 17)
        stack = rotation_stack(name, angles)
        expected = np.stack([GATE_REGISTRY[name].matrix_fn(float(a)) for a in angles])
        np.testing.assert_allclose(stack, expected, atol=1e-14)

    def test_unknown_name_raises_keyerror(self):
        with pytest.raises(KeyError):
            rotation_stack("cx", np.zeros(3))

    def test_apply_feature_rotations_statevector(self):
        rng = np.random.default_rng(16)
        simulator = StatevectorSimulator(2)
        states = _random_states(rng, 8, 2)
        angles = rng.uniform(-np.pi, np.pi, 8)
        out = simulator.apply_feature_rotations(states, "ry", 1, angles)
        # Reference: per-sample loop.
        from repro.gates import GATE_REGISTRY
        from repro.simulator import ops

        matrices = np.stack([GATE_REGISTRY["ry"].matrix_fn(float(a)) for a in angles])
        expected = ops.apply_unitary_statevector(states, matrices, [1], 2)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_apply_feature_rotations_density(self):
        rng = np.random.default_rng(17)
        simulator = DensityMatrixSimulator(2)
        states = _random_states(rng, 4, 2)
        rho = DensityMatrixSimulator.from_statevectors(states)
        angles = rng.uniform(-np.pi, np.pi, 4)
        out = simulator.apply_feature_rotations(rho, "rx", 0, angles)
        from repro.gates import GATE_REGISTRY
        from repro.simulator import ops

        matrices = np.stack([GATE_REGISTRY["rx"].matrix_fn(float(a)) for a in angles])
        expected = ops.apply_unitary_density(rho, matrices, [0], 2)
        np.testing.assert_allclose(out, expected, atol=1e-12)


def test_engine_stays_picklable():
    """Worker pools and shard processes receive engines by pickle."""
    import pickle

    engine = SimulationEngine(dtype="float32", fusion_width=3)
    clone = pickle.loads(pickle.dumps(engine))
    assert clone.complex_dtype == np.dtype(np.complex64)
    assert clone.fusion_width == 3
