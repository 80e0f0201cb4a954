"""Fig. 3: loss/performance landscape of a two-parameter VQC.

The figure sweeps the two rotation angles of a tiny VQC over a grid and
compares the landscape in a noise-free environment with the landscape under
device noise.  The difference exposes "breakpoints" along the compression
levels (0, pi/2, pi, 3pi/2): at those angles the transpiled circuit is
shorter, so the noisy deviation drops sharply — the observation that
motivates compression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.calibration import CalibrationSnapshot, generate_belem_history
from repro.circuits import build_two_parameter_vqc
from repro.experiments.config import ExperimentScale
from repro.simulator import (
    NoiseModel,
    default_density_backend,
    default_statevector_backend,
)
from repro.transpiler import belem_coupling, transpile


@dataclass
class Fig3Result:
    """Noise-free and noisy landscapes over the parameter grid."""

    grid: np.ndarray
    ideal_surface: np.ndarray
    noisy_surface: np.ndarray

    @property
    def difference(self) -> np.ndarray:
        """The deviation ``N(theta) = W_n(theta) - W_p(theta)`` (Fig. 3c)."""
        return self.noisy_surface - self.ideal_surface

    def breakpoint_gain(self, atol: float = 1e-6) -> float:
        """How much smaller the mean absolute deviation is on the breakpoints.

        Returns ``mean(|N| off-grid) - mean(|N| on-grid)``; a positive value
        confirms that parameters sitting on compression levels suffer less
        from noise.
        """
        levels = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2, 2 * np.pi])
        on_level = np.array(
            [np.min(np.abs(levels - value)) <= atol for value in self.grid]
        )
        deviation = np.abs(self.difference)
        on_mask = np.logical_or.outer(on_level, on_level)
        off_mean = float(deviation[~on_mask].mean())
        on_mean = float(deviation[on_mask].mean())
        return off_mean - on_mean


def run_fig3(
    scale: Optional[ExperimentScale] = None,
    calibration: Optional[CalibrationSnapshot] = None,
    grid_points: int = 17,
    observable_qubit: int = 0,
) -> Fig3Result:
    """Sweep the 2-parameter VQC landscape under ideal and noisy execution.

    The whole grid goes through two ``execute_batch`` calls.  The ideal
    surface genuinely vectorises (one stacked-matmul sweep over every
    ``(theta_0, theta_1)`` binding); the noisy surface batches the
    bindings through one call but — every grid point being a distinct
    parameter binding — evolves them group-by-group at per-point cost.
    """
    scale = scale or ExperimentScale()
    if calibration is None:
        history = generate_belem_history(30, seed=scale.seed)
        calibration = history[len(history) - 1]
    coupling = belem_coupling()
    circuit = build_two_parameter_vqc()
    transpiled = transpile(circuit, coupling, calibration=calibration)
    noise_model = NoiseModel.from_calibration(calibration)

    grid = np.linspace(0.0, 2 * np.pi, grid_points)
    parameter_sets = [
        np.array([theta_0, theta_1]) for theta_0 in grid for theta_1 in grid
    ]
    measured = transpiled.measured_physical_qubits([observable_qubit])

    sv_backend = default_statevector_backend()
    ideal_results = sv_backend.execute_batch(circuit, parameter_sets, batch=1)
    ideal_surface = np.array(
        [
            float(result.expectation_z([observable_qubit])[0, 0])
            for result in ideal_results
        ]
    ).reshape(grid_points, grid_points)

    # Walk the qubits the routed VQC touches; read out on the device.
    active = transpiled.active_qubits
    dm_backend = default_density_backend()
    compact = [transpiled.to_active(parameters) for parameters in parameter_sets]
    noisy_results = dm_backend.execute_batch(
        compact, noise_models=noise_model.restricted(active), batch=1
    )
    noisy_surface = np.array(
        [
            float(
                result.on_register(active, coupling.num_qubits, noise_model)
                .expectation_z(measured)[0, 0]
            )
            for result in noisy_results
        ]
    ).reshape(grid_points, grid_points)
    return Fig3Result(grid=grid, ideal_surface=ideal_surface, noisy_surface=noisy_surface)
