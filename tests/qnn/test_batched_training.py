"""The fully batched training step and the observable-diagonal cache.

Every optimiser step of ``Trainer.train`` — noise-aware or not — is one
``loss_and_gradient_batch`` call over the pre-encoded minibatch instead of
an encode + per-sample forward/backward.  That is only allowed because it
is *bit-identical* at float64 to a literal per-step loop that encodes each
minibatch itself and scores each epoch through the unbatched reference
walk (pinned below), and because the noise-aware run consumes its rng
stream exactly as before (pinned by a committed parameter digest).  The
second group pins the ``z_diagonal`` memoisation by counting cache builds.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.datasets import load_mnist4
from repro.qnn import (
    NoiseInjector,
    QNNModel,
    TrainConfig,
    Trainer,
    clear_z_diagonal_cache,
    z_diagonal,
    z_diagonal_cache_info,
)
from repro.qnn.loss import accuracy
from repro.qnn.optimizers import get_optimizer
from repro.simulator import SimulationEngine, StatevectorBackend
from repro.utils.rng import ensure_rng


@pytest.fixture(scope="module")
def dataset():
    data = load_mnist4(num_samples=80, seed=11)
    return data.train_features[:24], data.train_labels[:24]


#: SHA-256 of the little-endian float64 parameter vector after the seeded
#: 2-epoch noise-aware run in ``test_noise_aware_training_digest_is_pinned``,
#: recorded when noise-aware steps still ran one per-call loss/gradient.
NOISE_AWARE_DIGEST = "b35b2facc9ade6493810c4df244688e03d37f924ff71513e8658571ee9273e53"


def _reference_training_loop(references, model, config, features, labels):
    """A literal per-step loop: encode + one-binding loss/gradient per
    minibatch, epoch accuracy through the unbatched reference walk."""
    parameters = np.array(model.parameters, dtype=float)
    rng = ensure_rng(config.seed)
    optimizer = get_optimizer(config.optimizer, config.learning_rate)
    num_samples = features.shape[0]
    backend = StatevectorBackend(engine=SimulationEngine())
    loss_history, accuracy_history = [], []
    for _ in range(config.epochs):
        order = rng.permutation(num_samples) if config.shuffle else np.arange(num_samples)
        epoch_losses = []
        for start in range(0, num_samples, config.batch_size):
            batch_index = order[start : start + config.batch_size]
            [(loss_value, gradient)] = model.loss_and_gradient_batch(
                features[batch_index],
                labels[batch_index],
                [parameters],
                loss=config.loss,
                backend=backend,
            )
            parameters = optimizer.step(parameters, gradient)
            epoch_losses.append(loss_value)
        logits = references.ideal_logits(model, features, parameters)
        loss_history.append(float(np.mean(epoch_losses)))
        accuracy_history.append(accuracy(logits, labels))
    return parameters, loss_history, accuracy_history


class TestBatchedStepBitIdentity:
    @pytest.mark.parametrize("shuffle", [True, False])
    def test_train_bitmatches_reference_loop(self, references, dataset, shuffle):
        features, labels = dataset
        config = TrainConfig(
            epochs=2, batch_size=8, learning_rate=0.05, seed=7, shuffle=shuffle
        )
        model = QNNModel.create(4, 16, 4, repeats=1, seed=3)
        expected_parameters, expected_losses, expected_accuracy = (
            _reference_training_loop(references, model, config, features, labels)
        )
        trainer = Trainer(
            model, config, backend=StatevectorBackend(engine=SimulationEngine())
        )
        result = trainer.train(features, labels, update_model=False)
        assert np.array_equal(result.parameters, expected_parameters)
        assert result.loss_history == expected_losses
        assert result.accuracy_history == expected_accuracy

    def test_uneven_final_minibatch(self, references, dataset):
        """A trailing partial batch slices the pre-encoded set correctly."""
        features, labels = dataset
        config = TrainConfig(epochs=1, batch_size=7, seed=5)
        model = QNNModel.create(4, 16, 4, repeats=1, seed=4)
        expected_parameters, expected_losses, _ = _reference_training_loop(
            references, model, config, features, labels
        )
        result = Trainer(
            model, config, backend=StatevectorBackend(engine=SimulationEngine())
        ).train(features, labels, update_model=False)
        assert np.array_equal(result.parameters, expected_parameters)
        assert result.loss_history == expected_losses

    def test_noise_injected_path_reproducible(self, dataset):
        """The noise-aware batched step stays seed-reproducible."""
        features, labels = dataset
        config = TrainConfig(epochs=1, batch_size=8, seed=9)
        injector = NoiseInjector(attenuation=np.full(4, 0.9), sigma=0.02)
        first = Trainer(QNNModel.create(4, 16, 4, repeats=1, seed=6), config).train(
            features, labels, noise_injector=injector, update_model=False
        )
        second = Trainer(QNNModel.create(4, 16, 4, repeats=1, seed=6), config).train(
            features, labels, noise_injector=injector, update_model=False
        )
        assert np.array_equal(first.parameters, second.parameters)
        assert first.loss_history == second.loss_history

    def test_noise_aware_training_digest_is_pinned(self, dataset):
        """Noise-aware training draws its jitter inside the batched step in
        the order the earlier per-call step drew it: the trained parameters
        match the digest recorded from the per-call implementation."""
        features, labels = dataset
        config = TrainConfig(epochs=2, batch_size=8, learning_rate=0.05, seed=9)
        injector = NoiseInjector(attenuation=np.array([0.82, 0.88, 0.91, 0.95]), sigma=0.03)
        result = Trainer(
            QNNModel.create(4, 16, 4, repeats=1, seed=6),
            config,
            backend=StatevectorBackend(engine=SimulationEngine()),
        ).train(features, labels, noise_injector=injector, update_model=False)
        parameters = np.ascontiguousarray(result.parameters, dtype="<f8")
        assert hashlib.sha256(parameters.tobytes()).hexdigest() == NOISE_AWARE_DIGEST

    def test_float32_batched_step_tracks_float64(self, dataset):
        """One batched loss/gradient step in the fast tier stays within
        tolerance of the float64 reference (full training runs diverge
        chaotically under Adam, so the pin is on the step, not the run)."""
        features, labels = dataset
        model = QNNModel.create(4, 16, 4, repeats=1, seed=8)
        [(exact_loss, exact_gradient)] = model.loss_and_gradient_batch(
            features[:8], labels[:8], [None],
            backend=StatevectorBackend(engine=SimulationEngine()),
        )
        [(fast_loss, fast_gradient)] = model.loss_and_gradient_batch(
            features[:8], labels[:8], [None],
            backend=StatevectorBackend(engine=SimulationEngine(dtype="float32")),
        )
        assert abs(fast_loss - exact_loss) < 1e-4
        np.testing.assert_allclose(fast_gradient, exact_gradient, atol=1e-4)


class TestZDiagonalCache:
    def test_builds_count_distinct_keys_only(self):
        clear_z_diagonal_cache()
        for _ in range(3):
            for qubit in range(4):
                z_diagonal(qubit, 4)
        info = z_diagonal_cache_info()
        assert info["builds"] == 4
        assert info["entries"] == 4
        z_diagonal(0, 5)
        assert z_diagonal_cache_info()["builds"] == 5

    def test_cached_arrays_are_read_only_and_correct(self):
        clear_z_diagonal_cache()
        diag = z_diagonal(1, 3)
        assert not diag.flags.writeable
        with pytest.raises(ValueError):
            diag[0] = 0.0
        expected = np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
        assert np.array_equal(diag, expected)
        assert z_diagonal(1, 3) is diag

    def test_gradient_calls_reuse_cached_diagonals(self, dataset):
        features, labels = dataset
        model = QNNModel.create(4, 16, 4, repeats=1, seed=12)
        clear_z_diagonal_cache()
        model.loss_and_gradient(features[:8], labels[:8])
        builds_after_first = z_diagonal_cache_info()["builds"]
        assert builds_after_first == model.num_classes
        model.loss_and_gradient(features[8:16], labels[8:16])
        model.loss_and_gradient_batch(features[:8], labels[:8], [None, None])
        assert z_diagonal_cache_info()["builds"] == builds_after_first
