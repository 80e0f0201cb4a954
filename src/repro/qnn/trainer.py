"""Mini-batch training loop for QNN models.

The same trainer serves three roles in the paper's pipeline:

* baseline training in a noise-free environment,
* noise-aware training with a :class:`~repro.qnn.noise_injection.NoiseInjector`,
* the theta-update of ADMM compression, via the proximal term
  ``rho/2 * ||theta - target||^2`` and the frozen-parameter mask used during
  fine-tuning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.exceptions import TrainingError
from repro.qnn.loss import accuracy
from repro.qnn.model import QNNModel
from repro.qnn.noise_injection import NoiseInjector
from repro.qnn.optimizers import get_optimizer
from repro.simulator import Backend, default_statevector_backend
from repro.utils.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of a training run."""

    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 0.08
    optimizer: str = "adam"
    loss: str = "cross_entropy"
    shuffle: bool = True
    seed: SeedLike = 0
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise TrainingError(f"epochs must be positive, got {self.epochs}")
        if self.batch_size <= 0:
            raise TrainingError(f"batch_size must be positive, got {self.batch_size}")


@dataclass
class TrainResult:
    """Outcome of a training run."""

    parameters: np.ndarray
    loss_history: list[float] = field(default_factory=list)
    accuracy_history: list[float] = field(default_factory=list)
    epochs_run: int = 0

    @property
    def final_loss(self) -> float:
        """Loss of the last epoch (NaN before any epoch ran)."""
        return self.loss_history[-1] if self.loss_history else float("nan")

    @property
    def final_accuracy(self) -> float:
        """Training accuracy of the last epoch (NaN before any epoch ran)."""
        return self.accuracy_history[-1] if self.accuracy_history else float("nan")


class Trainer:
    """Mini-batch gradient-descent trainer.

    All forward/backward passes route through one execution backend (the
    shared default when ``backend`` is omitted), so gate matrices and fused
    programs are cached across mini-batches and epochs.
    """

    def __init__(
        self,
        model: QNNModel,
        config: Optional[TrainConfig] = None,
        backend: Optional[Backend] = None,
    ):
        self.model = model
        self.config = config or TrainConfig()
        self.backend = backend

    def train(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        noise_injector: Optional[NoiseInjector] = None,
        frozen_mask: Optional[np.ndarray] = None,
        prox_rho: float = 0.0,
        prox_target: Optional[np.ndarray] = None,
        initial_parameters: Optional[np.ndarray] = None,
        update_model: bool = True,
    ) -> TrainResult:
        """Run the training loop.

        Parameters
        ----------
        noise_injector:
            Optional measurement-noise injector (noise-aware training).
        frozen_mask:
            Boolean array; ``True`` entries are held fixed (fine-tuning of a
            compressed model freezes the compressed parameters).
        prox_rho / prox_target:
            Add ``rho/2 * ||theta - prox_target||^2`` to the loss (the ADMM
            theta-update).
        initial_parameters:
            Starting point; defaults to the model's current parameters.
        update_model:
            Write the trained parameters back into ``self.model``.
        """
        config = self.config
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels, dtype=int)
        if features.shape[0] != labels.shape[0]:
            raise TrainingError("features and labels disagree on the number of samples")
        if features.shape[0] == 0:
            raise TrainingError("cannot train on an empty dataset")

        parameters = np.array(
            self.model.parameters if initial_parameters is None else initial_parameters,
            dtype=float,
        )
        if frozen_mask is not None:
            frozen_mask = np.asarray(frozen_mask, dtype=bool)
            if frozen_mask.shape != parameters.shape:
                raise TrainingError("frozen_mask shape does not match the parameters")
        if prox_rho < 0:
            raise TrainingError(f"prox_rho must be non-negative, got {prox_rho}")
        if prox_rho > 0 and prox_target is None:
            raise TrainingError("prox_target is required when prox_rho > 0")

        rng = ensure_rng(config.seed)
        optimizer = get_optimizer(config.optimizer, config.learning_rate)
        result = TrainResult(parameters=parameters)
        num_samples = features.shape[0]

        # Encode the whole dataset once per ``train`` call: encoding is
        # per-sample, so row-slicing the encoded set is bit-identical to
        # encoding each minibatch — and every optimiser step below becomes
        # one fully batched forward/backward instead of encode + evaluate.
        backend = self.backend if self.backend is not None else default_statevector_backend()
        encoded = self.model.encoder.encode_statevectors(
            features, backend.simulator(self.model.num_qubits)
        )

        for epoch in range(config.epochs):
            order = rng.permutation(num_samples) if config.shuffle else np.arange(num_samples)
            epoch_losses = []
            for start in range(0, num_samples, config.batch_size):
                batch_index = order[start : start + config.batch_size]
                # The fully batched step: one ``execute_batch`` forward and
                # one stacked adjoint sweep per optimiser step.  Noise-aware
                # training draws its jitter from the epoch rng inside the
                # step, after this epoch's shuffle.
                [(loss_value, gradient)] = self.model.loss_and_gradient_batch(
                    features[batch_index],
                    labels[batch_index],
                    [parameters],
                    loss=config.loss,
                    noise_injector=noise_injector,
                    rng=rng,
                    backend=backend,
                    initial_states=encoded[batch_index],
                )
                if prox_rho > 0:
                    loss_value += 0.5 * prox_rho * float(
                        np.sum((parameters - prox_target) ** 2)
                    )
                    gradient = gradient + prox_rho * (parameters - prox_target)
                if frozen_mask is not None:
                    gradient = np.where(frozen_mask, 0.0, gradient)
                parameters = optimizer.step(parameters, gradient)
                if frozen_mask is not None and prox_target is not None:
                    # Keep frozen entries exactly at their target values.
                    parameters = np.where(frozen_mask, prox_target, parameters)
                epoch_losses.append(loss_value)
            logits = self.model.forward_ideal(
                features,
                parameters=parameters,
                backend=backend,
                initial_states=encoded,
            )
            result.loss_history.append(float(np.mean(epoch_losses)))
            result.accuracy_history.append(accuracy(logits, labels))
            result.epochs_run = epoch + 1
            if config.verbose:  # pragma: no cover - logging only
                print(
                    f"epoch {epoch + 1:3d}/{config.epochs}  "
                    f"loss={result.loss_history[-1]:.4f}  "
                    f"train_acc={result.accuracy_history[-1]:.3f}"
                )

        result.parameters = parameters
        if update_model:
            self.model.parameters = parameters.copy()
        return result
