"""Angle encoding of classical features onto qubits.

Features are encoded as rotation angles, one qubit per feature per layer:
with ``n`` qubits and ``m`` features, the encoder uses ``ceil(m / n)``
rotation layers whose axes cycle through RY, RX, RZ (the robust data
encoding of LaRose & Coyle that the paper cites).  A 4x4 MNIST image
(16 features) on 4 qubits therefore becomes 4 rotation layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import DatasetError

#: Rotation axes cycled across encoding layers.
ENCODING_AXES: tuple[str, ...] = ("ry", "rx", "rz")


@dataclass(frozen=True)
class EncodingOp:
    """One encoding rotation: which gate, on which logical qubit, from which feature."""

    gate: str
    logical_qubit: int
    feature_index: int


@dataclass(frozen=True)
class AngleEncoder:
    """Maps a feature vector to a sequence of per-qubit rotations.

    Attributes
    ----------
    num_qubits:
        Number of logical qubits available.
    num_features:
        Length of the feature vectors to encode.
    scale:
        Features are multiplied by this factor before being used as angles.
        Datasets in this package are normalized to ``[0, 1]``, so the default
        ``pi`` spreads them over half a rotation.
    """

    num_qubits: int
    num_features: int
    scale: float = float(np.pi)

    def __post_init__(self) -> None:
        if self.num_qubits <= 0:
            raise DatasetError(f"num_qubits must be positive, got {self.num_qubits}")
        if self.num_features <= 0:
            raise DatasetError(f"num_features must be positive, got {self.num_features}")

    @property
    def num_layers(self) -> int:
        """Number of rotation layers needed to encode every feature."""
        return int(np.ceil(self.num_features / self.num_qubits))

    def operations(self) -> list[EncodingOp]:
        """The ordered list of encoding rotations."""
        ops: list[EncodingOp] = []
        for layer in range(self.num_layers):
            axis = ENCODING_AXES[layer % len(ENCODING_AXES)]
            for qubit in range(self.num_qubits):
                feature = layer * self.num_qubits + qubit
                if feature >= self.num_features:
                    break
                ops.append(EncodingOp(gate=axis, logical_qubit=qubit, feature_index=feature))
        return ops

    def angles(self, features: np.ndarray) -> np.ndarray:
        """Scaled angles for a batch of feature vectors, shape ``(batch, m)``."""
        features = np.asarray(features, dtype=float)
        if features.ndim == 1:
            features = features[None, :]
        if features.shape[1] != self.num_features:
            raise DatasetError(
                f"feature vectors of length {features.shape[1]} do not match the "
                f"encoder configured for {self.num_features} features"
            )
        return features * self.scale

    def encode_statevectors(
        self,
        features: np.ndarray,
        simulator,
        qubit_mapping: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Prepare encoded statevectors on ``simulator``.

        ``qubit_mapping[logical]`` gives the physical qubit hosting each
        logical qubit (identity if omitted), so the same encoder works both
        on the logical register used for training and on the laid-out
        physical register used for noisy evaluation.
        """
        angles = self.angles(features)
        batch = angles.shape[0]
        states = simulator.zero_state(batch)
        for op in self.operations():
            qubit = op.logical_qubit if qubit_mapping is None else qubit_mapping[op.logical_qubit]
            states = simulator.apply_feature_rotations(
                states, op.gate, qubit, angles[:, op.feature_index]
            )
        return states

    def encode_density_matrices(
        self,
        features: np.ndarray,
        simulator,
        noise_model=None,
        qubit_mapping: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Prepare encoded density matrices, including encoding-gate noise."""
        angles = self.angles(features)
        batch = angles.shape[0]
        rho = simulator.zero_state(batch)
        for op in self.operations():
            qubit = op.logical_qubit if qubit_mapping is None else qubit_mapping[op.logical_qubit]
            rho = simulator.apply_feature_rotations(
                rho, op.gate, qubit, angles[:, op.feature_index], noise_model=noise_model
            )
        return rho

    def encode_density_matrices_multi(
        self,
        features: np.ndarray,
        simulator,
        noise_models: Sequence,
        qubit_mapping: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Encode one feature batch under many noise models at once.

        Returns a ``(len(noise_models), batch, dim, dim)`` stack — group ``g``
        equals :meth:`encode_density_matrices` under ``noise_models[g]``
        (entries may be ``None`` for noise-free encoding).  Every rotation is
        applied to the flattened group super-batch in one contraction, and
        each rotation's depolarizing channel carries per-group strengths, so
        encoding a year of calibration days costs one pass instead of one
        pass per day.
        """
        from repro.gates import Gate
        from repro.simulator import ops
        from repro.simulator.statevector import _feature_rotation_stack

        groups = len(noise_models)
        angles = self.angles(features)
        batch = angles.shape[0]
        num_qubits = simulator.num_qubits
        rho = simulator.zero_state(groups * batch)
        for op in self.operations():
            qubit = op.logical_qubit if qubit_mapping is None else qubit_mapping[op.logical_qubit]
            stack = _feature_rotation_stack(op.gate, angles[:, op.feature_index])
            stack = stack.astype(rho.dtype, copy=False)
            rho = ops.apply_unitary_density(
                rho, np.tile(stack, (groups, 1, 1)), [qubit], num_qubits
            )
            probe = Gate(op.gate, (qubit,), param=0.0)
            probabilities = np.zeros(groups)
            for index, model in enumerate(noise_models):
                if model is None:
                    continue
                channel = model.channel_for_gate(probe)
                if channel is not None:
                    probabilities[index] = channel.probability
            if np.any(probabilities):
                rho = ops.apply_depolarizing_density(
                    rho, np.repeat(probabilities, batch), [qubit], num_qubits
                )
        return rho.reshape(groups, batch, simulator.dim, simulator.dim)
