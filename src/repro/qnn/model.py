"""The quantum-neural-network model: encoder + ansatz + measurement head.

A :class:`QNNModel` owns the trainable-parameter vector and knows how to run
itself in two environments:

* **ideal** (``forward_ideal``): noise-free statevector simulation of the
  logical circuit — the paper's ``W_p(theta)``;
* **noisy** (``forward_noisy``): density-matrix simulation of the circuit
  transpiled onto a physical device under a calibration-derived noise model —
  the paper's ``W_n(theta)``.

Class logits are Pauli-Z expectations of the readout qubits scaled by a
constant factor and fed to a softmax, following the TorchQuantum convention
used in the paper.
"""

from __future__ import annotations

import copy as copy_module

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from repro.circuits import QuantumCircuit, build_qucad_ansatz
from repro.exceptions import TrainingError
from repro.qnn.encoding import AngleEncoder
from repro.qnn.gradients import adjoint_gradient_batch, z_diagonal
from repro.qnn.loss import get_loss
from repro.simulator import (
    Backend,
    NoiseModel,
    default_density_backend,
    default_statevector_backend,
)
from repro.transpiler import CouplingMap, Target, TranspiledCircuit
from repro.utils.rng import SeedLike, ensure_rng


@dataclass
class QNNModel:
    """A variational quantum classifier.

    Attributes
    ----------
    ansatz:
        Parameterized circuit with ``param_ref`` annotations.
    encoder:
        Angle encoder mapping feature vectors onto the logical qubits.
    readout_qubits:
        Logical qubits whose Z expectations become class logits (one per class).
    parameters:
        Current trainable-parameter vector.
    logit_scale:
        Multiplier applied to expectations before the softmax.
    transpiled:
        Optional device binding (layout + routing); set by :meth:`bind_to_device`.
    """

    ansatz: QuantumCircuit
    encoder: AngleEncoder
    readout_qubits: list[int]
    parameters: np.ndarray
    logit_scale: float = 6.0
    name: str = "qnn"
    transpiled: Optional[TranspiledCircuit] = None

    def __post_init__(self) -> None:
        self.parameters = np.asarray(self.parameters, dtype=float)
        if self.parameters.shape != (self.ansatz.num_parameters,):
            raise TrainingError(
                f"parameter vector of shape {self.parameters.shape} does not match "
                f"ansatz with {self.ansatz.num_parameters} parameters"
            )
        for qubit in self.readout_qubits:
            if not 0 <= qubit < self.ansatz.num_qubits:
                raise TrainingError(f"readout qubit {qubit} outside the register")

    # ------------------------------------------------------------------
    # Constructors and copies
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        num_qubits: int,
        num_features: int,
        num_classes: int,
        repeats: int = 2,
        seed: SeedLike = 0,
        logit_scale: float = 6.0,
        name: str = "qnn",
    ) -> "QNNModel":
        """Build the paper's model: QuCAD ansatz + angle encoding.

        ``num_classes`` readout qubits are taken from the front of the
        register, so ``num_classes`` must not exceed ``num_qubits``.
        """
        if num_classes > num_qubits:
            raise TrainingError(
                f"{num_classes} classes need at least that many readout qubits, "
                f"got {num_qubits}"
            )
        rng = ensure_rng(seed)
        ansatz = build_qucad_ansatz(num_qubits, repeats, name=f"{name}_ansatz")
        encoder = AngleEncoder(num_qubits=num_qubits, num_features=num_features)
        parameters = rng.uniform(-np.pi, np.pi, size=ansatz.num_parameters)
        return cls(
            ansatz=ansatz,
            encoder=encoder,
            readout_qubits=list(range(num_classes)),
            parameters=parameters,
            logit_scale=logit_scale,
            name=name,
        )

    @property
    def num_qubits(self) -> int:
        """Number of logical qubits of the ansatz."""
        return self.ansatz.num_qubits

    @property
    def num_classes(self) -> int:
        """Number of readout classes (one qubit per class)."""
        return len(self.readout_qubits)

    @property
    def num_parameters(self) -> int:
        """Size of the trainable-parameter vector."""
        return self.ansatz.num_parameters

    def copy(
        self,
        parameters: Optional[np.ndarray] = None,
        name: Optional[str] = None,
        share_device_binding: bool = True,
    ) -> "QNNModel":
        """An independent copy of this model.

        The parameter vector is always deep-copied, so training or
        compressing the copy never touches the original.  The device binding
        (``transpiled``) is *shared immutably* by default — and since PR 3
        the pipeline's result cache already shares one
        :class:`~repro.transpiler.TranspiledCircuit` across identically
        compiled models, so the whole binding graph is read-only by
        contract: ``bind`` returns a fresh circuit, ``to_physical`` returns
        a *memoised shared* circuit that callers must not mutate, and
        :meth:`bind_to_device` rebinds by assignment.  Pass
        ``share_device_binding=False`` to deep-copy the binding for callers
        that intend to mutate it (the deep copy detaches the routed
        artifact and its memo, not the pipeline's cached original).

        This replaces the old two-step pattern
        ``copy_with_parameters(...)`` + ``copy.transpiled = base.transpiled``,
        which aliased one mutable attribute across two models implicitly.
        """
        transpiled = self.transpiled
        if not share_device_binding and transpiled is not None:
            transpiled = copy_module.deepcopy(transpiled)
            # The detachment is about mutation safety, not cache transfer:
            # start the copy with an empty basis-translation memo instead of
            # duplicating up to PHYSICAL_CACHE_SIZE translated circuits.
            transpiled.routed._physical_cache.clear()
        return replace(
            self,
            parameters=np.asarray(
                self.parameters if parameters is None else parameters, dtype=float
            ).copy(),
            name=name or self.name,
            transpiled=transpiled,
        )

    def with_binding(
        self,
        transpiled: TranspiledCircuit,
        parameters: Optional[np.ndarray] = None,
        name: Optional[str] = None,
    ) -> "QNNModel":
        """A copy of this model served under a different device binding.

        This is the hot-swap constructor used by the serving layer: the
        original model keeps serving in-flight work untouched while the
        returned copy carries the freshly compiled ``transpiled`` artifact
        (and optionally re-adapted ``parameters``).  The binding is attached
        by assignment — compiled artifacts are immutable by contract, so the
        copy may share them with the pipeline's caches.
        """
        swapped = self.copy(parameters=parameters, name=name)
        swapped.transpiled = transpiled
        return swapped

    def copy_with_parameters(self, parameters: np.ndarray, name: Optional[str] = None) -> "QNNModel":
        """A copy of this model with a different parameter vector.

        Thin wrapper over :meth:`copy`; the device binding is shared because
        it only depends on the circuit structure, not on the parameter values.
        """
        return self.copy(parameters=parameters, name=name)

    # ------------------------------------------------------------------
    # Device binding
    # ------------------------------------------------------------------
    def bind_to_device(
        self,
        coupling: "CouplingMap | Target",
        calibration=None,
        initial_layout=None,
        pass_manager=None,
    ) -> TranspiledCircuit:
        """Transpile the ansatz onto a device and remember the result.

        ``coupling`` may be a bare :class:`~repro.transpiler.CouplingMap`
        (optionally with a ``calibration`` snapshot for the noise-aware
        layout) or a full :class:`~repro.transpiler.Target`.  Compilation
        runs through the staged pipeline, so rebinding the same ansatz for a
        new calibration day reuses the layout/routing artifacts whenever the
        snapshot sits inside the previous layout decision's optimality
        boundary; pass an explicit ``pass_manager`` to control the artifact
        pool (default: the process-wide one).
        """
        if isinstance(coupling, Target):
            if calibration is not None:
                raise TrainingError(
                    "pass the calibration inside the Target, not alongside it"
                )
            target = coupling
        else:
            target = Target(coupling=coupling, calibration=calibration)
        from repro.transpiler.pipeline import default_pass_manager

        manager = pass_manager if pass_manager is not None else default_pass_manager()
        self.transpiled = manager.compile(
            self.ansatz, target, initial_layout=initial_layout
        )
        return self.transpiled

    def _require_transpiled(self) -> TranspiledCircuit:
        if self.transpiled is None:
            raise TrainingError(
                "model is not bound to a device; call bind_to_device(coupling, ...) first"
            )
        return self.transpiled

    # ------------------------------------------------------------------
    # Forward passes
    # ------------------------------------------------------------------
    def ideal_expectations(
        self,
        features: np.ndarray,
        parameters: Optional[np.ndarray] = None,
        backend: Optional[Backend] = None,
        initial_states: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Noise-free Z expectations of the readout qubits.

        A one-binding view of :meth:`ideal_expectations_batch`.
        """
        return self.ideal_expectations_batch(
            features, [parameters], backend=backend, initial_states=initial_states
        )[0]

    def forward_ideal(
        self,
        features: np.ndarray,
        parameters: Optional[np.ndarray] = None,
        backend: Optional[Backend] = None,
        initial_states: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Noise-free class logits (a one-binding view of :meth:`forward_ideal_batch`)."""
        return self.forward_ideal_batch(
            features, [parameters], backend=backend, initial_states=initial_states
        )[0]

    def _normalize_parameter_sets(
        self, parameter_sets, count: Optional[int] = None
    ) -> list[np.ndarray]:
        """Per-binding parameter vectors (``None`` entries → own parameters)."""
        if parameter_sets is None:
            if count is None:
                raise TrainingError("parameter_sets or an item count is required")
            return [self.parameters] * count
        normalized = [
            self.parameters if item is None else np.asarray(item, dtype=float)
            for item in parameter_sets
        ]
        if count is not None and len(normalized) != count:
            raise TrainingError(
                f"{len(normalized)} parameter sets do not match {count} bindings"
            )
        return normalized

    def ideal_expectations_batch(
        self,
        features: np.ndarray,
        parameter_sets: Sequence[Optional[np.ndarray]],
        backend: Optional[Backend] = None,
        initial_states: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Noise-free Z expectations under many parameter bindings at once.

        One encode plus one vectorised ``execute_batch`` serves every
        binding; the result has shape ``(len(parameter_sets), batch,
        num_classes)``.  The ansatz is compiled once per (structure,
        parameters) pair and reused across calls, so evaluating many data
        batches at fixed parameters — the dominant workload of the online
        phase — costs only the fused matrix applications.
        ``initial_states`` skips the encoding step when the caller already
        holds the encoded states (the trainer pre-encodes the dataset once
        per ``train`` call); encoding is per-sample, so a row-slice of a
        previously encoded set is bit-identical to encoding the slice.
        """
        parameter_sets = self._normalize_parameter_sets(parameter_sets)
        backend = backend if backend is not None else default_statevector_backend()
        if initial_states is None:
            simulator = backend.simulator(self.num_qubits)
            initial_states = self.encoder.encode_statevectors(features, simulator)
        results = backend.execute_batch(self.ansatz, parameter_sets, initial_states)
        return np.stack(
            [result.expectation_z(self.readout_qubits) for result in results]
        )

    def forward_ideal_batch(
        self,
        features: np.ndarray,
        parameter_sets: Sequence[Optional[np.ndarray]],
        backend: Optional[Backend] = None,
        initial_states: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Noise-free class logits for many parameter bindings, stacked."""
        return self.logit_scale * self.ideal_expectations_batch(
            features, parameter_sets, backend=backend, initial_states=initial_states
        )

    def noisy_expectations(
        self,
        features: np.ndarray,
        noise_model: NoiseModel,
        parameters: Optional[np.ndarray] = None,
        shots: Optional[int] = None,
        seed: SeedLike = None,
        apply_readout_error: bool = True,
        backend: Optional[Backend] = None,
    ) -> np.ndarray:
        """Z expectations under a device noise model (density-matrix simulation).

        A one-binding view of :meth:`noisy_expectations_batch`.
        """
        return self.noisy_expectations_batch(
            features,
            [noise_model],
            parameter_sets=[parameters],
            shots=shots,
            seeds=[seed],
            apply_readout_error=apply_readout_error,
            backend=backend,
        )[0]

    def forward_noisy(
        self,
        features: np.ndarray,
        noise_model: NoiseModel,
        parameters: Optional[np.ndarray] = None,
        shots: Optional[int] = None,
        seed: SeedLike = None,
        backend: Optional[Backend] = None,
    ) -> np.ndarray:
        """Class logits under a device noise model (a one-binding view of :meth:`forward_noisy_batch`)."""
        return self.forward_noisy_batch(
            features,
            [noise_model],
            parameter_sets=[parameters],
            shots=shots,
            seeds=[seed],
            backend=backend,
        )[0]

    def noisy_expectations_batch(
        self,
        features: np.ndarray,
        noise_models: Sequence[NoiseModel],
        parameter_sets: Optional[Sequence[Optional[np.ndarray]]] = None,
        shots: Optional[int] = None,
        seeds: Optional[Sequence[SeedLike]] = None,
        apply_readout_error: bool = True,
        backend: Optional[Backend] = None,
    ) -> np.ndarray:
        """Noisy Z expectations for many (parameters, noise model) bindings.

        The whole set of bindings — e.g. every calibration day of a Fig. 2
        sweep — is one backend call: encoding runs once over the flattened
        binding super-batch (per-binding channel strengths) and the physical
        circuit walk applies each gate once across all bindings.  Returns
        shape ``(len(noise_models), batch, num_classes)``; row ``p`` is
        bit-identical to the one-binding call for ``noise_models[p]``,
        ``parameter_sets[p]`` and ``seeds[p]``.  ``shots`` switches from exact
        expectation values to sampled ones (hardware emulation, Fig. 8).
        """
        count = len(noise_models)
        parameter_sets = self._normalize_parameter_sets(parameter_sets, count)
        if seeds is not None and len(seeds) != count:
            raise TrainingError(f"{len(seeds)} seeds do not match {count} bindings")
        transpiled = self._require_transpiled()
        # Encode and walk on the active register only (exact: every channel
        # is gate-local, see NoiseModel.restricted); read out on the device
        # register so readout confusion and shot sampling see the
        # device-width distribution.
        active = transpiled.active_qubits
        wire = {qubit: index for index, qubit in enumerate(active)}
        walk_models = [model.restricted(active) for model in noise_models]
        backend = backend if backend is not None else default_density_backend()
        simulator = backend.simulator(len(active))
        mapping = [
            wire[transpiled.encoding_physical_qubit(logical)]
            for logical in range(self.num_qubits)
        ]
        initial = self.encoder.encode_density_matrices_multi(
            features, simulator, noise_models=walk_models, qubit_mapping=mapping
        )
        compact = [transpiled.to_active(item) for item in parameter_sets]
        results = backend.execute_batch(
            compact, initial_states=initial, noise_models=walk_models
        )
        device_qubits = transpiled.coupling.num_qubits
        measured = transpiled.measured_physical_qubits(self.readout_qubits)
        rows = []
        for index, (result, noise_model) in enumerate(zip(results, noise_models)):
            result = result.on_register(active, device_qubits, noise_model)
            if shots is None:
                rows.append(
                    result.expectation_z(
                        measured, apply_readout_error=apply_readout_error
                    )
                )
            else:
                rows.append(
                    result.sample_expectation_z(
                        measured,
                        shots=shots,
                        seed=None if seeds is None else seeds[index],
                        apply_readout_error=apply_readout_error,
                    )
                )
        return np.stack(rows)

    def forward_noisy_batch(
        self,
        features: np.ndarray,
        noise_models: Sequence[NoiseModel],
        parameter_sets: Optional[Sequence[Optional[np.ndarray]]] = None,
        shots: Optional[int] = None,
        seeds: Optional[Sequence[SeedLike]] = None,
        backend: Optional[Backend] = None,
    ) -> np.ndarray:
        """Stacked noisy class logits for many bindings (one backend call)."""
        return self.logit_scale * self.noisy_expectations_batch(
            features,
            noise_models,
            parameter_sets=parameter_sets,
            shots=shots,
            seeds=seeds,
            backend=backend,
        )

    # ------------------------------------------------------------------
    # Loss and gradient (noise-free path used for training / compression)
    # ------------------------------------------------------------------
    def loss_and_gradient(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        parameters: Optional[np.ndarray] = None,
        loss: str = "cross_entropy",
        noise_injector=None,
        rng: Optional[np.random.Generator] = None,
        backend: Optional[Backend] = None,
        initial_states: Optional[np.ndarray] = None,
    ) -> tuple[float, np.ndarray]:
        """Training loss and its gradient w.r.t. the trainable parameters.

        A one-binding view of :meth:`loss_and_gradient_batch`.
        """
        return self.loss_and_gradient_batch(
            features,
            labels,
            [parameters],
            loss=loss,
            noise_injector=noise_injector,
            rng=rng,
            backend=backend,
            initial_states=initial_states,
        )[0]

    def loss_and_gradient_batch(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        parameter_sets: Sequence[Optional[np.ndarray]],
        loss: str = "cross_entropy",
        noise_injector=None,
        rng: Optional[np.random.Generator] = None,
        backend: Optional[Backend] = None,
        initial_states: Optional[np.ndarray] = None,
    ) -> list[tuple[float, np.ndarray]]:
        """Loss and gradient for many parameter bindings in one forward pass.

        The forward evolutions of every binding run as a single vectorised
        ``execute_batch`` call on the noise-free backend, and the adjoint
        backward sweeps of *all* bindings run as one stacked sweep
        (:func:`repro.qnn.gradients.adjoint_gradient_batch`): each gate's
        dagger is applied once across the binding super-batch instead of
        once per binding.  Entry ``p`` is bit-identical to the one-binding
        call for ``parameter_sets[p]``.

        If a ``noise_injector`` is given (noise-aware training, ref [12]),
        each binding's expectations are attenuated and jittered before the
        loss, and the attenuation is chained into the gradient.  The jitter
        is drawn from ``rng`` per binding, in binding order.
        ``initial_states`` skips encoding when the caller already holds the
        encoded batch.
        """
        parameter_sets = self._normalize_parameter_sets(parameter_sets)
        backend = backend if backend is not None else default_statevector_backend()
        loss_fn = get_loss(loss)
        # One encode + one compiled forward serves both the loss values and
        # (via the final states) the adjoint backward sweep below.
        if initial_states is None:
            simulator = backend.simulator(self.num_qubits)
            initial = self.encoder.encode_statevectors(features, simulator)
        else:
            initial = initial_states
        forwards = backend.execute_batch(self.ansatz, parameter_sets, initial)
        engine = getattr(backend, "engine", None)
        num_qubits = self.num_qubits
        losses: list[float] = []
        diagonal_stack: list[np.ndarray] = []
        for forward in forwards:
            expectations = forward.expectation_z(self.readout_qubits)
            if noise_injector is not None:
                expectations, attenuation = noise_injector.apply(expectations, rng=rng)
            else:
                attenuation = np.ones(self.num_classes)
            logits = self.logit_scale * expectations
            loss_value, dloss_dlogits = loss_fn(logits, labels)
            dloss_dexpectations = self.logit_scale * attenuation * dloss_dlogits
            diagonals = np.zeros((features.shape[0], 2**num_qubits))
            for column, qubit in enumerate(self.readout_qubits):
                diagonals += dloss_dexpectations[:, column : column + 1] * z_diagonal(
                    qubit, num_qubits
                )
            losses.append(loss_value)
            diagonal_stack.append(diagonals)
        sweeps = adjoint_gradient_batch(
            self.ansatz,
            parameter_sets,
            initial,
            np.stack(diagonal_stack),
            engine=engine,
            final_states=[forward.states for forward in forwards],
        )
        return [
            (loss_value, gradient)
            for loss_value, (gradient, _) in zip(losses, sweeps)
        ]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-friendly snapshot of the model configuration and parameters."""
        return {
            "name": self.name,
            "num_qubits": self.num_qubits,
            "num_features": self.encoder.num_features,
            "num_classes": self.num_classes,
            "logit_scale": self.logit_scale,
            "parameters": self.parameters.tolist(),
        }
