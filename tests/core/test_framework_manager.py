"""Tests for the offline constructor, online manager, QuCAD framework, and baselines."""

import numpy as np
import pytest

from repro.calibration import CalibrationHistory, generate_belem_history
from repro.core import (
    CompressionConfig,
    ModelRepository,
    NoiseAwareCompressor,
    QuCAD,
    QuCADConfig,
    RepositoryConstructor,
    RepositoryManager,
    make_method,
    noise_aware_train,
    train_noise_free,
)
from repro.core.baselines import MethodContext, TABLE1_METHODS
from repro.datasets import load_mnist4
from repro.exceptions import RepositoryError, TrainingError
from repro.qnn import QNNModel, TrainConfig
from repro.transpiler import belem_coupling

FAST_COMPRESSION = CompressionConfig(
    admm_iterations=1, theta_epochs=1, finetune_epochs=1, target_fraction=0.5, seed=0
)


@pytest.fixture(scope="module")
def task():
    return load_mnist4(num_samples=100, seed=4)


@pytest.fixture(scope="module")
def short_history():
    return generate_belem_history(8, seed=3)


@pytest.fixture(scope="module")
def trained_model(task, short_history):
    model = QNNModel.create(4, 16, 4, repeats=1, seed=11)
    model.bind_to_device(belem_coupling(), calibration=short_history[0])
    train_noise_free(model, task.train_features[:48], task.train_labels[:48], TrainConfig(epochs=3, seed=0))
    return model


# ---------------------------------------------------------------------------
# Training entry points
# ---------------------------------------------------------------------------
def test_noise_aware_train_requires_binding(task, short_history):
    unbound = QNNModel.create(4, 16, 4, repeats=1, seed=1)
    with pytest.raises(TrainingError):
        noise_aware_train(unbound, task.train_features[:16], task.train_labels[:16], short_history[0])


def test_noise_aware_train_changes_parameters(trained_model, task, short_history):
    result = noise_aware_train(
        trained_model,
        task.train_features[:32],
        task.train_labels[:32],
        short_history[0],
        config=TrainConfig(epochs=1, seed=0),
        update_model=False,
    )
    assert not np.allclose(result.parameters, trained_model.parameters)


# ---------------------------------------------------------------------------
# Offline constructor
# ---------------------------------------------------------------------------
def test_constructor_builds_repository(trained_model, task, short_history):
    constructor = RepositoryConstructor(
        compressor=NoiseAwareCompressor(FAST_COMPRESSION),
        num_clusters=2,
        eval_test_samples=16,
        train_samples=32,
        seed=0,
    )
    report = constructor.build(trained_model, task, short_history)
    assert report.num_models >= 1
    assert report.repository.threshold > 0
    assert report.day_accuracies.shape == (len(short_history),)
    assert all(entry.source == "offline" for entry in report.repository.entries)
    assert len(report.compression_results) == report.num_models


def test_constructor_rejects_empty_history(trained_model, task):
    constructor = RepositoryConstructor(num_clusters=2)
    with pytest.raises(RepositoryError):
        constructor.build(trained_model, task, CalibrationHistory([]))


def test_constructor_validation():
    with pytest.raises(RepositoryError):
        RepositoryConstructor(num_clusters=0)


# ---------------------------------------------------------------------------
# Online manager
# ---------------------------------------------------------------------------
def _manager(trained_model, task, weights, threshold):
    repository = ModelRepository(weights=weights, threshold=threshold)
    return RepositoryManager(
        repository=repository,
        compressor=NoiseAwareCompressor(FAST_COMPRESSION),
        model=trained_model,
        train_features=task.train_features[:32],
        train_labels=task.train_labels[:32],
    )


def test_manager_bootstrap_then_reuse(trained_model, task, short_history):
    vector_size = short_history[0].to_vector().shape[0]
    manager = _manager(trained_model, task, np.ones(vector_size), threshold=0.0)
    first = manager.adapt(short_history[0])
    assert first.action == "bootstrap"
    assert manager.stats.optimizations == 1
    # The same calibration again must be served from the repository.
    second = manager.adapt(short_history[0])
    assert second.action == "reuse"
    assert manager.stats.optimizations == 1
    assert np.allclose(first.parameters, second.parameters)


def test_manager_creates_new_entry_for_distant_calibration(trained_model, task, short_history):
    vector_size = short_history[0].to_vector().shape[0]
    manager = _manager(trained_model, task, np.ones(vector_size), threshold=1e-6)
    manager.repository.threshold = 1e-6
    manager.adapt(short_history[0])
    far = short_history[0]
    # Scale the calibration up substantially so it exceeds the tiny threshold.
    from repro.calibration import CalibrationSnapshot

    scaled = CalibrationSnapshot.from_vector(
        far.to_vector() * 3.0, far, date="scaled"
    )
    decision = manager.adapt(scaled)
    assert decision.action == "new"
    assert len(manager.repository) == 2


def test_manager_reports_invalid_cluster(trained_model, task, short_history):
    vector_size = short_history[0].to_vector().shape[0]
    repository = ModelRepository(weights=np.ones(vector_size), threshold=1e9)
    repository.add(
        __import__("repro.core.repository", fromlist=["RepositoryEntry"]).RepositoryEntry(
            parameters=np.zeros(trained_model.num_parameters),
            calibration_vector=short_history[0].to_vector(),
            mean_accuracy=0.2,
            valid=False,
            label="bad_cluster",
        )
    )
    manager = RepositoryManager(
        repository=repository,
        compressor=NoiseAwareCompressor(FAST_COMPRESSION),
        model=trained_model,
        train_features=task.train_features[:32],
        train_labels=task.train_labels[:32],
        accuracy_requirement=0.5,
    )
    decision = manager.adapt(short_history[1])
    assert decision.action == "invalid"
    assert decision.failure_report is not None
    assert manager.stats.invalid_matches == 1


# ---------------------------------------------------------------------------
# QuCAD framework
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def qucad_config():
    return QuCADConfig(
        compression=FAST_COMPRESSION,
        num_clusters=2,
        eval_test_samples=16,
        train_samples=32,
        seed=0,
    )


def test_qucad_offline_then_online(trained_model, task, short_history, qucad_config):
    offline, online = short_history.split(6)
    qucad = QuCAD(trained_model, task, belem_coupling(), config=qucad_config)
    report = qucad.offline(offline)
    assert report.num_models >= 1
    decisions = qucad.adapt_over(online)
    assert len(decisions) == len(online)
    assert all(d.parameters.shape == (trained_model.num_parameters,) for d in decisions)
    assert qucad.manager.stats.steps == len(online)


def test_qucad_without_offline_bootstraps(trained_model, task, short_history, qucad_config):
    qucad = QuCAD(trained_model, task, belem_coupling(), config=qucad_config)
    with pytest.raises(RepositoryError):
        _ = qucad.manager
    decision = qucad.online(short_history[0])
    assert decision.action == "bootstrap"
    again = qucad.online(short_history[0])
    assert again.action == "reuse"


def test_qucad_accepts_target_and_honours_its_calibration(task, short_history, qucad_config):
    """A Target pins the compilation snapshot for an unbound model."""
    from repro.transpiler import PassManager, Target, legacy_transpile

    model = QNNModel.create(num_qubits=4, num_features=16, num_classes=4, repeats=1, seed=6)
    pinned = short_history[3]
    manager = PassManager()
    qucad = QuCAD(
        model,
        task,
        Target(coupling=belem_coupling(), calibration=pinned),
        config=qucad_config,
        pass_manager=manager,
    )
    assert qucad.coupling.name == "ibmq_belem"
    qucad.online(short_history[0])  # binds the model on first use
    expected = legacy_transpile(model.ansatz, belem_coupling(), calibration=pinned)
    assert (
        model.transpiled.initial_layout.logical_to_physical
        == expected.initial_layout.logical_to_physical
    )
    assert manager.stats.compile_calls >= 1
    assert qucad.compile_stats()["compile_calls"] == manager.stats.compile_calls


# ---------------------------------------------------------------------------
# Baseline methods
# ---------------------------------------------------------------------------
def test_table1_method_registry():
    names = [cls.name for cls in TABLE1_METHODS]
    assert names == [
        "baseline",
        "noise_aware_train_once",
        "noise_aware_train_everyday",
        "one_time_compression",
        "qucad_without_offline",
        "qucad",
    ]
    with pytest.raises(TrainingError):
        make_method("gradient_free_magic")


def test_methods_produce_parameters_and_count_optimizations(trained_model, task, short_history, qucad_config):
    offline, online = short_history.split(6)
    context = MethodContext(
        base_model=trained_model,
        dataset=task,
        coupling=belem_coupling(),
        offline_history=offline,
        compression_config=FAST_COMPRESSION,
        retrain_config=TrainConfig(epochs=1, seed=0),
        qucad_config=qucad_config,
        train_samples=32,
        seed=0,
    )
    expectations = {
        "baseline": 0,
        "noise_aware_train_once": 1,
        "noise_aware_train_everyday": 2,
        "one_time_compression": 1,
    }
    for name, expected_runs in expectations.items():
        method = make_method(name)
        method.prepare(context)
        for snapshot in online:
            parameters = method.parameters_for_day(snapshot)
            assert parameters.shape == (trained_model.num_parameters,)
        assert method.optimization_runs == expected_runs, name


def test_method_requires_prepare(trained_model, short_history):
    method = make_method("baseline")
    with pytest.raises(TrainingError):
        method.parameters_for_day(short_history[0])


def test_qucad_backends_share_one_engine(task):
    """Training runs on a statevector backend, noisy evaluation on a
    density-matrix backend, both over the framework's own engine."""
    model = QNNModel.create(num_qubits=4, num_features=16, num_classes=4, seed=0)
    qucad = QuCAD(model, task, belem_coupling(), QuCADConfig())
    assert qucad.backend.name == "statevector"
    assert qucad.backend.engine is qucad.engine
    assert qucad.noisy_backend.engine is qucad.engine
