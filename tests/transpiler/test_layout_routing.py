"""Tests for layout selection and SWAP routing."""

import numpy as np
import pytest

from repro.calibration.synthetic import generate_device_history
from repro.circuits import QuantumCircuit, build_qucad_ansatz
from repro.exceptions import TranspilerError
from repro.transpiler import (
    Layout,
    belem_coupling,
    get_device_coupling,
    linear_coupling,
    noise_aware_layout,
    route_circuit,
    transpile,
    trivial_layout,
)


def test_layout_rejects_duplicate_physical_qubits():
    with pytest.raises(TranspilerError):
        Layout((0, 0, 1))


def test_layout_lookups_and_inverse():
    layout = Layout((2, 0, 1))
    assert layout.physical(0) == 2
    assert layout.as_dict() == {0: 2, 1: 0, 2: 1}
    assert layout.inverse() == {2: 0, 0: 1, 1: 2}


def test_trivial_layout_identity():
    layout = trivial_layout(3, belem_coupling())
    assert layout.logical_to_physical == (0, 1, 2)


def test_trivial_layout_rejects_oversized_circuit():
    with pytest.raises(TranspilerError):
        trivial_layout(6, belem_coupling())


def test_noise_aware_layout_avoids_noisy_region(calibration):
    """The layout should use a connected region and avoid the worst coupler
    when the interaction graph allows it."""
    circuit = QuantumCircuit(2)
    circuit.cry(0.4, 0, 1, param_ref=0, trainable=True)
    layout = noise_aware_layout(circuit, belem_coupling(), calibration)
    pair = tuple(sorted((layout.physical(0), layout.physical(1))))
    errors = {p: calibration.cx_error(*p) for p in [(0, 1), (1, 2), (1, 3), (3, 4)]}
    assert pair in errors
    assert errors[pair] == min(errors.values())


def test_routing_makes_all_two_qubit_gates_adjacent(calibration):
    coupling = belem_coupling()
    ansatz = build_qucad_ansatz(4, repeats=1)
    layout = noise_aware_layout(ansatz, coupling, calibration)
    routed = route_circuit(ansatz, coupling, layout)
    for gate in routed.circuit.gates:
        if gate.num_qubits == 2:
            assert coupling.is_adjacent(*gate.qubits), gate
    assert routed.num_swaps > 0


def test_routing_records_physical_association(calibration):
    coupling = belem_coupling()
    ansatz = build_qucad_ansatz(4, repeats=1)
    routed = route_circuit(ansatz, coupling)
    assert len(routed.gate_physical_qubits) == len(ansatz)
    assert set(routed.ref_physical_qubits) == set(range(ansatz.num_parameters))
    for qubits in routed.ref_physical_qubits.values():
        assert all(0 <= q < coupling.num_qubits for q in qubits)


def test_routing_final_mapping_is_injective():
    coupling = belem_coupling()
    ansatz = build_qucad_ansatz(4, repeats=2)
    routed = route_circuit(ansatz, coupling)
    values = list(routed.final_mapping.values())
    assert len(set(values)) == len(values)
    assert routed.measured_physical_qubits([0, 1]) == [
        routed.final_mapping[0],
        routed.final_mapping[1],
    ]


def test_routing_preserves_param_refs():
    coupling = belem_coupling()
    ansatz = build_qucad_ansatz(4, repeats=1)
    routed = route_circuit(ansatz, coupling)
    original_refs = [g.param_ref for g in ansatz if g.param_ref is not None]
    routed_refs = [g.param_ref for g in routed.circuit if g.param_ref is not None]
    assert routed_refs == original_refs


def test_routing_without_swaps_on_line_topology():
    circuit = QuantumCircuit(3)
    circuit.cx(0, 1).cx(1, 2)
    routed = route_circuit(circuit, linear_coupling(3))
    assert routed.num_swaps == 0
    assert routed.final_mapping == {0: 0, 1: 1, 2: 2}


def test_routing_rejects_layout_size_mismatch():
    circuit = QuantumCircuit(3)
    circuit.cx(0, 2)
    with pytest.raises(TranspilerError):
        route_circuit(circuit, belem_coupling(), Layout((0, 1)))


def test_routed_circuit_is_unitarily_equivalent_on_small_case():
    """Routing only inserts SWAPs, so the routed circuit equals the original
    up to the recorded final qubit permutation."""
    from repro.simulator import StatevectorSimulator

    circuit = QuantumCircuit(3)
    circuit.h(0).cx(0, 2).ry(0.7, 2).cx(2, 1)
    coupling = linear_coupling(3)
    routed = route_circuit(circuit, coupling)
    original = StatevectorSimulator(3).run(circuit).probabilities()[0]
    routed_probs = StatevectorSimulator(3).run(routed.circuit).probabilities()[0]

    # Map routed probabilities back through the final logical->physical mapping.
    mapping = routed.final_mapping
    remapped = np.zeros_like(routed_probs)
    for index in range(len(routed_probs)):
        bits = [(index >> (3 - 1 - q)) & 1 for q in range(3)]
        original_index = 0
        for logical in range(3):
            original_index |= bits[mapping[logical]] << (3 - 1 - logical)
        remapped[original_index] += routed_probs[index]
    assert np.allclose(remapped, original, atol=1e-9)


@pytest.mark.parametrize(
    "device, active",
    [
        ("jakarta", (0, 1, 2, 3)),
        ("line_7", (3, 4, 5, 6)),
        ("ring_5", (0, 1, 2, 3, 4)),
    ],
)
def test_active_qubits_cover_gates_layout_and_readout(device, active):
    calibration = generate_device_history(device, 1, seed=0)[0]
    transpiled = transpile(
        build_qucad_ansatz(4, repeats=2), get_device_coupling(device),
        calibration=calibration,
    )
    assert transpiled.active_qubits == active
    touched = {q for gate in transpiled.routed.circuit.gates for q in gate.qubits}
    touched |= set(transpiled.initial_layout.logical_to_physical)
    touched |= set(transpiled.final_mapping.values())
    assert set(active) == touched


def test_to_active_is_to_physical_on_compact_wires():
    calibration = generate_device_history("line_7", 1, seed=0)[0]
    ansatz = build_qucad_ansatz(4, repeats=1)
    transpiled = transpile(ansatz, get_device_coupling("line_7"), calibration=calibration)
    parameters = np.linspace(-1.0, 1.0, ansatz.num_parameters)
    physical = transpiled.to_physical(parameters)
    compact = transpiled.to_active(parameters)
    active = transpiled.active_qubits
    assert compact.num_qubits == len(active)
    assert [(g.name, g.param) for g in compact.gates] == [
        (g.name, g.param) for g in physical.gates
    ]
    assert [tuple(active[q] for q in g.qubits) for g in compact.gates] == [
        g.qubits for g in physical.gates
    ]
    assert transpiled.to_active(parameters) is compact  # memoised
