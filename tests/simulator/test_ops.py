"""Tests for the low-level batched tensor operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.gates import matrices as mat
from repro.simulator import ops


def _random_state(num_qubits: int, batch: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    state = rng.normal(size=(batch, 2**num_qubits)) + 1j * rng.normal(
        size=(batch, 2**num_qubits)
    )
    return state / np.linalg.norm(state, axis=1, keepdims=True)


def _random_density(num_qubits: int, batch: int, seed: int = 0) -> np.ndarray:
    states = _random_state(num_qubits, batch, seed)
    return np.einsum("bi,bj->bij", states, states.conj())


def test_apply_unitary_statevector_preserves_norm():
    states = _random_state(3, 5)
    out = ops.apply_unitary_statevector(states, mat.H, [1], 3)
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0)


def test_apply_unitary_statevector_matches_full_kron():
    states = _random_state(2, 3)
    expected = states @ np.kron(mat.I2, mat.X).T
    out = ops.apply_unitary_statevector(states, mat.X, [1], 2)
    assert np.allclose(out, expected)


def test_apply_two_qubit_unitary_on_reversed_qubits():
    # CX with control=1, target=0 should differ from control=0, target=1.
    state = np.zeros((1, 4), dtype=complex)
    state[0, 1] = 1.0  # |01>: qubit 1 is set
    out = ops.apply_unitary_statevector(state, mat.CX, [1, 0], 2)
    assert np.allclose(np.abs(out[0]), np.eye(4)[3])


def test_apply_unitary_batched_matrices():
    states = _random_state(1, 4)
    thetas = np.array([0.1, 0.5, 1.0, 2.0])
    matrices = np.stack([mat.ry(t) for t in thetas])
    out = ops.apply_unitary_statevector(states, matrices, [0], 1)
    for i, theta in enumerate(thetas):
        assert np.allclose(out[i], mat.ry(theta) @ states[i])


def test_apply_unitary_rejects_bad_qubits():
    states = _random_state(2, 1)
    with pytest.raises(SimulationError):
        ops.apply_unitary_statevector(states, mat.H, [2], 2)
    with pytest.raises(SimulationError):
        ops.apply_unitary_statevector(states, mat.CX, [0, 0], 2)


@pytest.mark.parametrize("qubits", [(0,), (2,), (0, 2), (2, 1), (3, 0)])
def test_apply_unitary_statevector_bitmatches_moveaxis_form(qubits):
    """The cached axis permutations view the batch exactly as moveaxis does."""
    states = _random_state(4, 3, seed=7)
    rng = np.random.default_rng(1)
    dim = 2 ** len(qubits)
    unitary = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    axes = [1 + q for q in qubits]
    tensor = np.moveaxis(states.reshape((3,) + (2,) * 4), axes, range(1, 1 + len(qubits)))
    tensor = np.einsum("ij,bjr->bir", unitary, tensor.reshape(3, dim, -1))
    tensor = np.moveaxis(
        tensor.reshape((3,) + (2,) * 4), range(1, 1 + len(qubits)), axes
    )
    out = ops.apply_unitary_statevector(states, unitary, list(qubits), 4)
    assert np.array_equal(out, tensor.reshape(3, 16))


def test_register_scatter_index_places_compact_states_big_endian():
    # Compact qubits (0, 1) stand for register qubits (1, 3) of 4.
    index = ops.register_scatter_index((1, 3), 4)
    assert index.tolist() == [0b0000, 0b0001, 0b0100, 0b0101]
    assert ops.register_scatter_index((0, 1, 2), 3).tolist() == list(range(8))
    with pytest.raises(SimulationError):
        ops.register_scatter_index((4,), 4)


def test_density_and_statevector_agree_on_unitaries():
    states = _random_state(3, 2)
    rho = np.einsum("bi,bj->bij", states, states.conj())
    evolved_states = ops.apply_unitary_statevector(states, mat.CX, [0, 2], 3)
    evolved_rho = ops.apply_unitary_density(rho, mat.CX, [0, 2], 3)
    expected = np.einsum("bi,bj->bij", evolved_states, evolved_states.conj())
    assert np.allclose(evolved_rho, expected)


def test_kraus_identity_channel_is_noop():
    rho = _random_density(2, 3)
    out = ops.apply_kraus_density(rho, [np.eye(2)], [1], 2)
    assert np.allclose(out, rho)


def test_kraus_preserves_trace_for_valid_channel():
    rho = _random_density(2, 3)
    gamma = 0.3
    kraus = [
        np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex),
        np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex),
    ]
    out = ops.apply_kraus_density(rho, kraus, [0], 2)
    assert np.allclose(np.einsum("bii->b", out), 1.0)


def test_depolarizing_zero_probability_is_noop():
    rho = _random_density(2, 2)
    assert np.allclose(ops.apply_depolarizing_density(rho, 0.0, [0], 2), rho)


def test_depolarizing_full_probability_gives_maximally_mixed_marginal():
    rho = _random_density(1, 2)
    out = ops.apply_depolarizing_density(rho, 1.0, [0], 1)
    assert np.allclose(out, np.broadcast_to(np.eye(2) / 2, out.shape))


def test_depolarizing_preserves_trace_and_hermiticity():
    rho = _random_density(3, 2)
    out = ops.apply_depolarizing_density(rho, 0.37, [0, 2], 3)
    assert np.allclose(np.einsum("bii->b", out), 1.0)
    assert np.allclose(out, np.conj(np.transpose(out, (0, 2, 1))))


def test_depolarizing_rejects_bad_probability():
    rho = _random_density(1, 1)
    with pytest.raises(SimulationError):
        ops.apply_depolarizing_density(rho, 1.5, [0], 1)


def test_partial_trace_of_product_state():
    zero = np.array([1, 0], dtype=complex)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    state = np.kron(zero, plus)[None, :]
    rho = np.einsum("bi,bj->bij", state, state.conj())
    reduced = ops.partial_trace(rho, [1], 2)
    assert np.allclose(reduced[0], np.outer(plus, plus.conj()))


def test_partial_trace_of_bell_state_is_maximally_mixed():
    bell = np.zeros((1, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = 1 / np.sqrt(2)
    rho = np.einsum("bi,bj->bij", bell, bell.conj())
    reduced = ops.partial_trace(rho, [0], 2)
    assert np.allclose(reduced[0], np.eye(2) / 2)


def test_expectation_z_signs():
    probs = np.zeros((2, 4))
    probs[0, 0] = 1.0  # |00>
    probs[1, 3] = 1.0  # |11>
    assert np.allclose(ops.expectation_z(probs, 0, 2), [1.0, -1.0])
    assert np.allclose(ops.expectation_z(probs, 1, 2), [1.0, -1.0])


def test_readout_confusion_mixes_probabilities():
    probs = np.array([[1.0, 0.0]])
    confusion = {0: np.array([[0.9, 0.2], [0.1, 0.8]])}
    out = ops.apply_readout_confusion(probs, confusion, 1)
    assert np.allclose(out, [[0.9, 0.1]])
    assert np.allclose(out.sum(axis=1), 1.0)


def test_readout_confusion_rejects_bad_qubit():
    with pytest.raises(SimulationError):
        ops.apply_readout_confusion(np.ones((1, 2)), {3: np.eye(2)}, 1)


def test_marginal_probabilities_sum_to_one():
    probs = np.full((2, 8), 1 / 8)
    marginal = ops.marginal_probabilities(probs, [0, 2], 3)
    assert marginal.shape == (2, 4)
    assert np.allclose(marginal.sum(axis=1), 1.0)


def test_sample_counts_sums_to_shots():
    rng = np.random.default_rng(1)
    probs = np.array([[0.5, 0.25, 0.25, 0.0], [0.1, 0.2, 0.3, 0.4]])
    counts = ops.sample_counts(probs, 100, rng)
    assert counts.shape == probs.shape
    assert np.all(counts.sum(axis=1) == 100)
    assert counts[0, 3] == 0


def test_sample_counts_requires_positive_shots():
    with pytest.raises(SimulationError):
        ops.sample_counts(np.array([[1.0]]), 0, np.random.default_rng(0))


@settings(max_examples=25, deadline=None)
@given(
    theta=st.floats(-2 * np.pi, 2 * np.pi),
    qubit=st.integers(0, 2),
    probability=st.floats(0.0, 1.0),
)
def test_noisy_single_qubit_expectations_stay_physical(theta, qubit, probability):
    """Property: expectations remain in [-1, 1] under any rotation + noise."""
    states = _random_state(3, 2, seed=7)
    rho = np.einsum("bi,bj->bij", states, states.conj())
    rho = ops.apply_unitary_density(rho, mat.ry(theta), [qubit], 3)
    rho = ops.apply_depolarizing_density(rho, probability, [qubit], 3)
    probs = ops.density_probabilities(rho)
    values = ops.expectation_z(probs, qubit, 3)
    assert np.all(values <= 1.0 + 1e-9)
    assert np.all(values >= -1.0 - 1e-9)
