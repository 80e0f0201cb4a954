"""Tests for the calibration-derived noise model."""

import numpy as np
import pytest

from repro.calibration import CalibrationSnapshot
from repro.exceptions import SimulationError
from repro.gates import Gate
from repro.simulator import NoiseModel, VIRTUAL_GATES


@pytest.fixture()
def snapshot():
    return CalibrationSnapshot(
        num_qubits=3,
        single_qubit_error={0: 1e-3, 1: 2e-3, 2: 3e-3},
        two_qubit_error={(0, 1): 0.01, (1, 2): 0.02},
        readout_error={0: 0.03, 1: 0.04, 2: 0.05},
    )


def test_from_calibration_copies_rates(snapshot):
    model = NoiseModel.from_calibration(snapshot)
    assert model.single_qubit_error[2] == pytest.approx(3e-3)
    assert model.two_qubit_error[(1, 2)] == pytest.approx(0.02)
    assert model.readout_error[0].prob_1_given_0 == pytest.approx(0.03)


def test_ideal_model_is_noiseless():
    model = NoiseModel.ideal(4)
    assert model.is_noiseless()
    assert model.channel_for_gate(Gate("x", (0,))) is None


def test_virtual_gates_have_zero_error(snapshot):
    model = NoiseModel.from_calibration(snapshot)
    for name in ("rz", "id"):
        assert name in VIRTUAL_GATES
        gate = Gate(name, (1,), param=0.5) if name == "rz" else Gate(name, (1,))
        assert model.gate_error_rate(gate) == 0.0


def test_two_qubit_lookup_works_both_orientations(snapshot):
    model = NoiseModel.from_calibration(snapshot)
    assert model.gate_error_rate(Gate("cx", (0, 1))) == pytest.approx(0.01)
    assert model.gate_error_rate(Gate("cx", (1, 0))) == pytest.approx(0.01)


def test_unknown_qubit_has_zero_error(snapshot):
    model = NoiseModel.from_calibration(snapshot)
    assert model.gate_error_rate(Gate("x", (2,))) == pytest.approx(3e-3)
    assert model.gate_error_rate(Gate("cx", (0, 2))) == 0.0


def test_channel_for_gate_converts_to_depolarizing(snapshot):
    model = NoiseModel.from_calibration(snapshot)
    channel = model.channel_for_gate(Gate("cx", (1, 2)))
    assert channel is not None
    assert channel.num_qubits == 2
    assert channel.probability == pytest.approx(0.02 * 4 / 3)


def test_readout_confusion_only_for_listed_qubits(snapshot):
    model = NoiseModel.from_calibration(snapshot)
    confusion = model.readout_confusion()
    assert set(confusion) == {0, 1, 2}
    assert confusion[1].shape == (2, 2)


def test_scaled_multiplies_and_clips(snapshot):
    model = NoiseModel.from_calibration(snapshot).scaled(100.0)
    assert model.two_qubit_error[(0, 1)] == 1.0
    assert model.readout_error[2].prob_1_given_0 == 1.0
    with pytest.raises(SimulationError):
        model.scaled(-1.0)


def test_mean_error_summary(snapshot):
    summary = NoiseModel.from_calibration(snapshot).mean_error_summary()
    assert summary["mean_single_qubit_error"] == pytest.approx(2e-3)
    assert summary["mean_two_qubit_error"] == pytest.approx(0.015)
    assert summary["mean_readout_error"] == pytest.approx(0.04)


def test_restricted_renumbers_every_table(snapshot):
    model = NoiseModel.from_calibration(snapshot)
    restricted = model.restricted((1, 2))
    assert restricted.num_qubits == 2
    assert restricted.single_qubit_error == {0: 2e-3, 1: 3e-3}
    # (0, 1) touches the dropped qubit 0; only (1, 2) survives, as (0, 1).
    assert restricted.two_qubit_error == {(0, 1): 0.02}
    assert restricted.readout_error == {
        0: model.readout_error[1],
        1: model.readout_error[2],
    }
    # Channels follow the gates onto the compact wires unchanged.
    assert restricted.gate_error_rate(Gate("cx", (1, 0))) == model.gate_error_rate(
        Gate("cx", (2, 1))
    )
