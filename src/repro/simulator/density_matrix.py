"""Batched density-matrix simulator with calibrated noise channels.

This is the 'noisy environment' ``W_n(theta)`` of the paper: every physical
gate is followed by a depolarizing channel whose strength comes from the
day's calibration snapshot, and measurement applies per-qubit readout
confusion matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.circuits import QuantumCircuit
from repro.exceptions import SimulationError
from repro.simulator import ops
from repro.simulator.noise_model import NoiseModel
from repro.utils.rng import SeedLike, ensure_rng


@dataclass
class DensityMatrixResult:
    """Final density matrices of a batched noisy simulation.

    Measurement reads out the ``num_qubits`` register.  ``rho`` spans that
    register unless ``scatter`` is set: then ``rho`` holds only a compact
    register of the qubits a circuit touches (see :meth:`on_register`) and
    ``scatter[i]`` is the ``num_qubits``-register basis index of compact
    basis index ``i``.
    """

    rho: np.ndarray
    num_qubits: int
    noise_model: Optional[NoiseModel] = None
    scatter: Optional[np.ndarray] = None

    def on_register(
        self,
        qubits: Sequence[int],
        num_qubits: int,
        noise_model: Optional[NoiseModel] = None,
    ) -> "DensityMatrixResult":
        """Read this compact-register result out on a ``num_qubits`` register.

        Compact qubit ``i`` is register qubit ``qubits[i]`` (sorted), every
        other register qubit is ``|0>``; ``noise_model`` carries the
        readout errors in register indices.
        """
        return DensityMatrixResult(
            rho=self.rho,
            num_qubits=num_qubits,
            noise_model=noise_model,
            scatter=ops.register_scatter_index(qubits, num_qubits),
        )

    def probabilities(self, apply_readout_error: bool = True) -> np.ndarray:
        """Measurement probabilities, optionally through readout confusion.

        A compact result's diagonal is scattered into a zeroed
        register-width vector first, so normalisation, readout confusion
        and sampling see exactly the register-width distribution.
        """
        probs = ops.density_probabilities(self.rho)
        if self.scatter is not None:
            register = np.zeros((probs.shape[0], 2**self.num_qubits), dtype=probs.dtype)
            register[:, self.scatter] = probs
            probs = register
        totals = probs.sum(axis=-1, keepdims=True)
        probs = np.divide(probs, totals, out=np.zeros_like(probs), where=totals > 0)
        if apply_readout_error and self.noise_model is not None:
            confusion = self.noise_model.readout_confusion()
            if confusion:
                probs = ops.apply_readout_confusion(probs, confusion, self.num_qubits)
        return probs

    def expectation_z(
        self, qubits: Sequence[int], apply_readout_error: bool = True
    ) -> np.ndarray:
        """Pauli-Z expectations on ``qubits``, shape ``(batch, len(qubits))``."""
        probs = self.probabilities(apply_readout_error=apply_readout_error)
        columns = [ops.expectation_z(probs, q, self.num_qubits) for q in qubits]
        return np.stack(columns, axis=1)

    def sample_expectation_z(
        self,
        qubits: Sequence[int],
        shots: int,
        seed: SeedLike = None,
        apply_readout_error: bool = True,
    ) -> np.ndarray:
        """Shot-noise estimate of Pauli-Z expectations (hardware emulation)."""
        rng = ensure_rng(seed)
        probs = self.probabilities(apply_readout_error=apply_readout_error)
        counts = ops.sample_counts(probs, shots, rng)
        empirical = counts / float(shots)
        columns = [ops.expectation_z(empirical, q, self.num_qubits) for q in qubits]
        return np.stack(columns, axis=1)


class DensityMatrixSimulator:
    """Apply a bound physical circuit to a batch of density matrices.

    ``dtype`` is the complex working precision; the float64 default
    (complex128) is bit-identical to the historical behaviour, while
    complex64 is the engine's fast tier.
    """

    def __init__(self, num_qubits: int, dtype=np.complex128):
        if num_qubits <= 0:
            raise SimulationError(f"num_qubits must be positive, got {num_qubits}")
        self.num_qubits = num_qubits
        self.dim = 2**num_qubits
        self.dtype = np.dtype(dtype)
        if self.dtype.kind != "c":
            raise SimulationError(f"density dtype must be complex, got {dtype!r}")

    def zero_state(self, batch: int = 1) -> np.ndarray:
        """Density matrix of ``|0...0><0...0|`` replicated ``batch`` times."""
        rho = np.zeros((batch, self.dim, self.dim), dtype=self.dtype)
        rho[:, 0, 0] = 1.0
        return rho

    @staticmethod
    def from_statevectors(states: np.ndarray) -> np.ndarray:
        """Outer products ``|psi><psi|`` for a batch of statevectors."""
        return np.einsum("bi,bj->bij", states, states.conj())

    def run(
        self,
        circuit: QuantumCircuit,
        noise_model: Optional[NoiseModel] = None,
        initial_rho: Optional[np.ndarray] = None,
        batch: int = 1,
    ) -> DensityMatrixResult:
        """Execute ``circuit`` under ``noise_model``.

        Each gate is applied as a unitary, then (if the noise model assigns
        the gate a non-zero error rate) followed by a depolarizing channel on
        the gate's qubits.
        """
        if circuit.num_qubits != self.num_qubits:
            raise SimulationError(
                f"circuit has {circuit.num_qubits} qubits, simulator expects "
                f"{self.num_qubits}"
            )
        if initial_rho is None:
            rho = self.zero_state(batch)
        else:
            rho = np.array(initial_rho, dtype=self.dtype, copy=True)
            if rho.ndim == 2:
                rho = rho[None, :, :]
            if rho.shape[-1] != self.dim:
                raise SimulationError(
                    f"initial density matrices of dimension {rho.shape[-1]} do not "
                    f"match {self.num_qubits} qubits"
                )
        for gate in circuit.gates:
            rho = ops.apply_unitary_density(
                rho,
                gate.matrix().astype(self.dtype, copy=False),
                gate.qubits,
                self.num_qubits,
            )
            if noise_model is not None:
                channel = noise_model.channel_for_gate(gate)
                if channel is not None:
                    rho = channel.apply(rho, gate.qubits, self.num_qubits)
        return DensityMatrixResult(
            rho=rho, num_qubits=self.num_qubits, noise_model=noise_model
        )

    def apply_feature_rotations(
        self,
        rho: np.ndarray,
        gate_name: str,
        qubit: int,
        angles: np.ndarray,
        noise_model: Optional[NoiseModel] = None,
    ) -> np.ndarray:
        """Apply one encoding rotation with per-sample angles plus its noise.

        The ``(batch, 2, 2)`` unitary stack is built vectorised (see
        :func:`repro.gates.matrices.rotation_stack`) rather than one sample
        at a time.
        """
        from repro.gates import Gate
        from repro.simulator.statevector import _feature_rotation_stack

        matrices = _feature_rotation_stack(gate_name, angles)
        matrices = matrices.astype(rho.dtype, copy=False)
        rho = ops.apply_unitary_density(rho, matrices, [qubit], self.num_qubits)
        if noise_model is not None:
            probe = Gate(gate_name, (qubit,), param=0.0)
            channel = noise_model.channel_for_gate(probe)
            if channel is not None:
                rho = channel.apply(rho, [qubit], self.num_qubits)
        return rho
