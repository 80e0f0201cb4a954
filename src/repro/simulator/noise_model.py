"""Device noise model assembled from calibration data.

A :class:`NoiseModel` answers one question for the density-matrix simulator:
*which channels follow this physical gate?*  It is built from a
:class:`~repro.calibration.CalibrationSnapshot` so that every day of the
fluctuating-noise history yields its own noise model, exactly as the paper
builds Qiskit noise models from pulled IBM calibrations.
"""

from __future__ import annotations

import hashlib

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.exceptions import SimulationError
from repro.gates import Gate
from repro.simulator.noise_channels import DepolarizingChannel, ReadoutError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.calibration.snapshot import CalibrationSnapshot

#: Gates executed virtually (frame changes) on IBM-style hardware; they are
#: noiseless and cost zero pulses.
VIRTUAL_GATES = frozenset({"rz", "id", "z", "s", "sdg", "t", "tdg", "p"})


@dataclass
class NoiseModel:
    """Per-qubit / per-coupler error channels for a device.

    Attributes
    ----------
    num_qubits:
        Number of physical qubits on the device.
    single_qubit_error:
        Map physical qubit -> average single-qubit gate error rate.
    two_qubit_error:
        Map directed or undirected qubit pair -> CNOT error rate.  Lookups
        fall back to the reversed pair so both orientations work.
    readout_error:
        Map physical qubit -> :class:`ReadoutError`.
    """

    num_qubits: int
    single_qubit_error: dict[int, float] = field(default_factory=dict)
    two_qubit_error: dict[tuple[int, int], float] = field(default_factory=dict)
    readout_error: dict[int, ReadoutError] = field(default_factory=dict)

    def is_noiseless(self) -> bool:
        """True if the model carries no error channels at all."""
        return (
            not self.single_qubit_error
            and not self.two_qubit_error
            and not self.readout_error
        )

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def gate_error_rate(self, gate: Gate) -> float:
        """Raw error rate associated with a physical gate (0 for virtual)."""
        if gate.name in VIRTUAL_GATES:
            return 0.0
        if gate.num_qubits == 1:
            return float(self.single_qubit_error.get(gate.qubits[0], 0.0))
        pair = (gate.qubits[0], gate.qubits[1])
        if pair in self.two_qubit_error:
            return float(self.two_qubit_error[pair])
        reversed_pair = (pair[1], pair[0])
        if reversed_pair in self.two_qubit_error:
            return float(self.two_qubit_error[reversed_pair])
        return 0.0

    def channel_for_gate(self, gate: Gate) -> Optional[DepolarizingChannel]:
        """Depolarizing channel following ``gate``, or ``None`` if noiseless."""
        error_rate = self.gate_error_rate(gate)
        if error_rate <= 0.0:
            return None
        return DepolarizingChannel.from_gate_error(error_rate, gate.num_qubits)

    def readout_confusion(self) -> dict[int, np.ndarray]:
        """Per-qubit confusion matrices for measured qubits."""
        return {
            qubit: error.confusion_matrix()
            for qubit, error in self.readout_error.items()
        }

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def ideal(cls, num_qubits: int) -> "NoiseModel":
        """A noise model with no errors (useful as an explicit 'perfect' device)."""
        return cls(num_qubits=num_qubits)

    @classmethod
    def from_calibration(cls, snapshot: "CalibrationSnapshot") -> "NoiseModel":
        """Build the channel set for one calibration snapshot."""
        single = {q: float(e) for q, e in snapshot.single_qubit_error.items()}
        two = {tuple(pair): float(e) for pair, e in snapshot.two_qubit_error.items()}
        readout = {
            q: ReadoutError.symmetric(float(e))
            for q, e in snapshot.readout_error.items()
        }
        return cls(
            num_qubits=snapshot.num_qubits,
            single_qubit_error=single,
            two_qubit_error=two,
            readout_error=readout,
        )

    def scaled(self, factor: float) -> "NoiseModel":
        """Return a copy with every error rate multiplied by ``factor``.

        Used by ablations that sweep the overall noise level.
        """
        if factor < 0:
            raise SimulationError(f"scale factor must be non-negative, got {factor}")
        return NoiseModel(
            num_qubits=self.num_qubits,
            single_qubit_error={q: min(1.0, e * factor) for q, e in self.single_qubit_error.items()},
            two_qubit_error={p: min(1.0, e * factor) for p, e in self.two_qubit_error.items()},
            readout_error={
                q: ReadoutError(
                    min(1.0, r.prob_1_given_0 * factor),
                    min(1.0, r.prob_0_given_1 * factor),
                )
                for q, r in self.readout_error.items()
            },
        )

    def restricted(self, qubits: Sequence[int]) -> "NoiseModel":
        """This model's channels on ``qubits`` only, renumbered compactly.

        Device qubit ``qubits[i]`` becomes qubit ``i`` of a
        ``len(qubits)``-qubit model: the single-qubit, two-qubit and readout
        tables keep the entries whose qubits all lie in ``qubits``, under
        the new indices.

        Exactness invariant: every channel is gate-local — a gate's
        depolarizing channel acts on that gate's qubits alone and a readout
        error on its own qubit alone.  A walk over a register of just the
        qubits a circuit touches therefore applies exactly the channels the
        device-width walk applies, while the dropped qubits — in ``|0>``,
        never gated, never read — stay a product factor it never changes.
        """
        wire = {qubit: index for index, qubit in enumerate(qubits)}
        return NoiseModel(
            num_qubits=len(wire),
            single_qubit_error={
                wire[q]: e for q, e in self.single_qubit_error.items() if q in wire
            },
            two_qubit_error={
                (wire[a], wire[b]): e
                for (a, b), e in self.two_qubit_error.items()
                if a in wire and b in wire
            },
            readout_error={
                wire[q]: r for q, r in self.readout_error.items() if q in wire
            },
        )

    def mean_error_summary(self) -> dict[str, float]:
        """Aggregate statistics used in reports and noise-injection training."""
        single = list(self.single_qubit_error.values())
        two = list(self.two_qubit_error.values())
        readout = [
            0.5 * (r.prob_1_given_0 + r.prob_0_given_1)
            for r in self.readout_error.values()
        ]
        return {
            "mean_single_qubit_error": float(np.mean(single)) if single else 0.0,
            "mean_two_qubit_error": float(np.mean(two)) if two else 0.0,
            "mean_readout_error": float(np.mean(readout)) if readout else 0.0,
        }


def noise_model_digest(noise_model: Optional[NoiseModel]) -> str:
    """Digest of a noise model's channel strengths (order-independent)."""
    hasher = hashlib.blake2b(digest_size=16)
    if noise_model is None:
        hasher.update(b"<ideal>")
        return hasher.hexdigest()
    hasher.update(str(noise_model.num_qubits).encode())
    for qubit, error in sorted(noise_model.single_qubit_error.items()):
        hasher.update(f"sq:{qubit}:{error!r};".encode())
    for pair, error in sorted(noise_model.two_qubit_error.items()):
        hasher.update(f"cx:{pair}:{error!r};".encode())
    for qubit, error in sorted(noise_model.readout_error.items()):
        hasher.update(
            f"ro:{qubit}:{error.prob_1_given_0!r}:{error.prob_0_given_1!r};".encode()
        )
    return hasher.hexdigest()
