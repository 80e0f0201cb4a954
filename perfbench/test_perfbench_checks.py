"""Self-tests of the benchmark's output checks.

Each check is fed a correct value, which it must accept, and a deliberately
wrong one, which it must reject.  The reference simulation is also tested
against independent constructions (Pauli twirl, closed-form single-qubit
results).  Plain NumPy only; the whole file runs in well under a second.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import bench_checks as checks

PAULIS = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.diag([1.0, -1.0]).astype(complex),
]


def random_density(num_qubits: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dim = 2**num_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return (rho / np.trace(rho))[None]


@pytest.mark.parametrize("qubits", [(1,), (0, 2), (2, 0)])
def test_depolarize_equals_pauli_twirl(qubits):
    n = 3
    rho = random_density(n, seed=len(qubits))
    p = 0.3
    twirl = np.zeros_like(rho[0])
    for paulis in itertools.product(PAULIS, repeat=len(qubits)):
        operator = paulis[0]
        for pauli in paulis[1:]:
            operator = np.kron(operator, pauli)
        full = checks.embed(operator, qubits, n)
        twirl += full @ rho[0] @ full.conj().T
    expected = (1 - p) * rho[0] + p * twirl / 4 ** len(qubits)
    np.testing.assert_allclose(checks.depolarize(rho, p, qubits, n)[0], expected, atol=1e-12)


def test_embed_orders_qubits_big_endian():
    cx = checks.gate_matrix("cx")
    # control on qubit 1, target on qubit 0 of a 2-qubit register
    flipped = checks.embed(cx, (1, 0), 2)
    state = np.zeros(4)
    state[0b01] = 1.0  # qubit 1 set
    assert np.argmax(np.abs(flipped @ state)) == 0b11


def test_reference_single_qubit_closed_form():
    # RX(theta) then a depolarizing channel and readout flips on one qubit:
    # <Z> = (1 - p) cos(theta), reported through (1 - 2e).
    theta, rate, readout = 0.7, 0.01, 0.05
    logits = checks.reference_logits(
        num_qubits=1,
        encoding=[[("rx", 0, theta)]],
        gates=[],
        single_qubit_error={0: rate},
        two_qubit_error={},
        readout_error={0: (readout, readout)},
        measured=[0],
        logit_scale=2.0,
    )
    p = checks.depolarizing_probability(rate, 1)
    assert logits[0, 0] == pytest.approx(2.0 * (1 - 2 * readout) * (1 - p) * np.cos(theta), abs=1e-12)


def test_noisy_logits_check():
    reference = np.array([[0.5, -0.25]])
    checks.check_noisy_logits(reference + 1e-10, reference)
    with pytest.raises(checks.CheckFailure):
        checks.check_noisy_logits(reference + 1e-6, reference)
    with pytest.raises(checks.CheckFailure):
        checks.check_noisy_logits(reference[:, :1], reference)


def test_sampled_predictions_check():
    reference = np.array([[5.0, -5.0], [0.01, 0.0]])
    assert checks.check_sampled_predictions(np.array([[4.9, -4.8], [-1.0, 1.0]]), reference, 1024, 6.0) == 1
    with pytest.raises(checks.CheckFailure):
        checks.check_sampled_predictions(np.array([[-4.9, 4.8], [0.0, 0.0]]), reference, 1024, 6.0)


def test_accuracy_checks():
    checks.check_accuracy_counts([0.25, 0.5, 1.0], 8)
    with pytest.raises(checks.CheckFailure):
        checks.check_accuracy_counts([0.3], 8)
    checks.check_accuracy_matches(0.5, np.array([1, 0]), np.array([1, 1]))
    with pytest.raises(checks.CheckFailure):
        checks.check_accuracy_matches(1.0, np.array([1, 0]), np.array([1, 1]))


def online_case():
    weights = np.array([1.0, 2.0])
    entries = [np.array([0.0, 0.0]), np.array([1.0, 1.0])]
    parameters = [np.array([0.1]), np.array([0.2])]
    days = [np.array([0.1, 0.0]), np.array([5.0, 5.0]), np.array([0.9, 1.0])]
    new_entry = days[1]
    decisions = [
        ("reuse", 0, parameters[0]),
        ("new", 2, np.array([0.3])),
        ("reuse", 1, parameters[1]),
    ]
    return dict(
        decisions=decisions,
        day_vectors=days,
        weights=weights,
        threshold=0.5,
        entry_vectors=entries + [new_entry],
        entry_parameters=parameters + [np.array([0.3])],
        offline_entries=2,
        optimizations=1,
    )


def test_online_decisions_check_accepts_guidance_1():
    checks.check_online_decisions(**online_case())


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda case: case["decisions"].__setitem__(0, ("new", 2, np.array([0.1]))),
        lambda case: case["decisions"].__setitem__(1, ("reuse", 0, np.array([0.1]))),
        lambda case: case["decisions"].__setitem__(2, ("reuse", 0, np.array([0.1]))),
        lambda case: case["decisions"].__setitem__(2, ("reuse", 1, np.array([9.9]))),
        lambda case: case.__setitem__("optimizations", 2),
        lambda case: case.__setitem__("entry_vectors", case["entry_vectors"] + [np.zeros(2)]),
    ],
)
def test_online_decisions_check_rejects(corrupt):
    case = online_case()
    corrupt(case)
    with pytest.raises(checks.CheckFailure):
        checks.check_online_decisions(**case)


def test_offline_clusters_check():
    points = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
    centroids = np.array([[0.05, 0.0], [5.0, 5.0]])
    weights = np.ones(2)
    checks.check_offline_clusters(points, np.array([0, 0, 1]), centroids, weights, 2)
    with pytest.raises(checks.CheckFailure):
        checks.check_offline_clusters(points, np.array([0, 1, 1]), centroids, weights, 2)
    with pytest.raises(checks.CheckFailure):
        checks.check_offline_clusters(points, np.array([0, 0, 1]), centroids, weights, 3)


def test_compression_check():
    levels = (0.0, np.pi / 2, np.pi, 3 * np.pi / 2)
    parameters = np.array([2 * np.pi + np.pi / 2, -np.pi, 0.3])
    mask = np.array([1, 1, 0])
    checks.check_compression(parameters, mask, levels, 10, 8)
    with pytest.raises(checks.CheckFailure):
        checks.check_compression(parameters, np.array([1, 1, 1]), levels, 10, 8)
    with pytest.raises(checks.CheckFailure):
        checks.check_compression(parameters, mask, levels, 8, 10)


def test_serving_checks():
    checks.check_serving(3, [1, 1, 1], [(0, "m", 1), (1, "m", 2), (2, "m", 2)])
    with pytest.raises(checks.CheckFailure):
        checks.check_serving(3, [1, 2, 1], [(0, "m", 1), (1, "m", 2), (2, "m", 2)])
    with pytest.raises(checks.CheckFailure):
        checks.check_serving(3, [1, 1, 1], [(0, "m", 1), (1, "m", 2)])
    with pytest.raises(checks.CheckFailure):
        checks.check_serving(3, [1, 1, 1], [(0, "m", 2), (1, "m", 1), (2, "m", 2)])
    checks.check_served_logits(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(checks.CheckFailure):
        checks.check_served_logits(np.array([1.0, 2.0]), np.array([1.0, 2.1]))
