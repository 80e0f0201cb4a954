"""Pins the active-register noisy walk against the device-width walk.

Noisy evaluation walks a density register of only the qubits the routed
circuit touches (``TranspiledCircuit.active_qubits``) and scatters the
diagonal back onto the device register before readout.  The oracle here is
the device-width walk it replaced: ``backend.execute_batch`` on
``to_physical(...)`` with every device qubit in the register.  Every
comparison is ``np.array_equal`` — exact logits, 1024-shot logits (same
``rng.multinomial`` categories) and readout-free expectations alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.calibration.synthetic import generate_device_history
from repro.qnn import QNNModel
from repro.simulator import DensityMatrixBackend, NoiseModel, SimulationEngine
from repro.transpiler import get_device_coupling

#: Devices and the active register their seed-0 layout lands on: a 5-qubit
#: paper chip, the 7-qubit Fig. 8 chip, a line whose layout sits at the far
#: end, and a ring where routing touches every qubit (nothing to compact).
ACTIVE = {
    "belem": (0, 1, 2, 3),
    "jakarta": (0, 1, 2, 3),
    "line_7": (3, 4, 5, 6),
    "ring_5": (0, 1, 2, 3, 4),
}
DAYS = 3


@pytest.fixture(scope="module", params=sorted(ACTIVE))
def bound(request):
    """A model bound to one device, its inputs, and the full-width walks."""
    device = request.param
    history = generate_device_history(device, DAYS, seed=0)
    model = QNNModel.create(
        num_qubits=4, num_features=16, num_classes=4, repeats=2, seed=7
    )
    model.bind_to_device(get_device_coupling(device), calibration=history[0])
    rng = np.random.default_rng(11)
    features = rng.random((5, 16))
    noise_models = [NoiseModel.from_calibration(day) for day in history]
    bindings = {
        "shared": [model.parameters] * DAYS,
        "distinct": [
            model.parameters + 0.1 * rng.standard_normal(model.num_parameters)
            for _ in range(DAYS)
        ],
    }
    oracles = {
        name: full_width_walk(model, features, noise_models, parameter_sets)
        for name, parameter_sets in bindings.items()
    }
    return device, model, features, noise_models, bindings, oracles


def full_width_walk(model, features, noise_models, parameter_sets):
    """The device-width walk: every device qubit in the density register."""
    transpiled = model.transpiled
    backend = DensityMatrixBackend(engine=SimulationEngine())
    simulator = backend.simulator(transpiled.coupling.num_qubits)
    mapping = [
        transpiled.encoding_physical_qubit(logical)
        for logical in range(model.num_qubits)
    ]
    initial = model.encoder.encode_density_matrices_multi(
        features, simulator, noise_models=noise_models, qubit_mapping=mapping
    )
    physical = [transpiled.to_physical(parameters) for parameters in parameter_sets]
    return backend.execute_batch(
        physical, initial_states=initial, noise_models=noise_models
    )


def read_out(model, results, shots=None, seeds=None, apply_readout_error=True):
    """Readout qubits' Z expectations of device-width walk results."""
    measured = model.transpiled.measured_physical_qubits(model.readout_qubits)
    if shots is None:
        return np.stack(
            [
                result.expectation_z(measured, apply_readout_error=apply_readout_error)
                for result in results
            ]
        )
    return np.stack(
        [
            result.sample_expectation_z(
                measured, shots=shots, seed=seed,
                apply_readout_error=apply_readout_error,
            )
            for result, seed in zip(results, seeds)
        ]
    )


def test_active_register_matches_device(bound):
    device, model, *_ = bound
    assert model.transpiled.active_qubits == ACTIVE[device]


@pytest.mark.parametrize("binding", ["shared", "distinct"])
@pytest.mark.parametrize("mode", ["exact", "shots", "no_readout"])
def test_noisy_forward_bitmatches_full_width_walk(bound, mode, binding):
    _, model, features, noise_models, bindings, oracles = bound
    backend = DensityMatrixBackend(engine=SimulationEngine())
    if mode == "no_readout":
        compact = model.noisy_expectations_batch(
            features, noise_models, parameter_sets=bindings[binding],
            apply_readout_error=False, backend=backend,
        )
        oracle = read_out(model, oracles[binding], apply_readout_error=False)
    else:
        shots = 1024 if mode == "shots" else None
        seeds = [101, 202, 303] if mode == "shots" else None
        compact = model.forward_noisy_batch(
            features, noise_models, parameter_sets=bindings[binding],
            shots=shots, seeds=seeds, backend=backend,
        )
        oracle = model.logit_scale * read_out(
            model, oracles[binding], shots=shots, seeds=seeds
        )
    assert np.array_equal(compact, oracle)


def test_one_binding_walks_the_active_register(bound):
    """A single noisy binding (one serving flush) takes the compact walk too."""
    _, model, features, noise_models, _, _ = bound
    engine = SimulationEngine()
    logits = model.forward_noisy(
        features, noise_models[0], shots=1024, seed=5,
        backend=DensityMatrixBackend(engine=engine),
    )
    oracle = model.logit_scale * read_out(
        model,
        full_width_walk(model, features, noise_models[:1], [model.parameters]),
        shots=1024, seeds=[5],
    )[0]
    assert np.array_equal(logits, oracle)
    (walked,) = engine._bound.values()
    assert walked.num_qubits == len(model.transpiled.active_qubits)


def test_compact_result_reads_out_on_the_device_register(bound):
    """``on_register`` scatters the compact diagonal to device indices."""
    _, model, _, noise_models, _, _ = bound
    transpiled = model.transpiled
    active = transpiled.active_qubits
    device_qubits = transpiled.coupling.num_qubits
    backend = DensityMatrixBackend(engine=SimulationEngine())
    (result,) = backend.execute_batch(
        [transpiled.to_active(model.parameters)],
        noise_models=[noise_models[0].restricted(active)], batch=2,
    )
    lifted = result.on_register(active, device_qubits, noise_models[0])
    (full,) = backend.execute_batch(
        [transpiled.to_physical(model.parameters)],
        noise_models=[noise_models[0]], batch=2,
    )
    raw = lifted.probabilities(apply_readout_error=False)
    assert raw.shape == (2, 2**device_qubits)
    assert np.array_equal(raw, full.probabilities(apply_readout_error=False))
    assert np.array_equal(lifted.probabilities(), full.probabilities())
