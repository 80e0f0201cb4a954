"""Graceful shutdown of the ``pool`` runner: failures and interrupts.

A chunk that raises inside a worker fails the call with the worker's
traceback and leaves the pool serving; a ``KeyboardInterrupt`` while
chunks are in flight, followed by ``close()``, leaves no worker process and
no shared-memory block behind.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import repro.runtime.workers as workers_module
from repro.calibration import generate_belem_history
from repro.datasets import load_mnist4
from repro.exceptions import ReproError
from repro.qnn import QNNModel
from repro.runtime import ExperimentRunner
from repro.simulator import NoiseModel


@pytest.fixture(scope="module")
def small_harness():
    history = generate_belem_history(4, seed=4)
    model = QNNModel.create(
        num_qubits=4, num_features=16, num_classes=4, repeats=1, seed=2
    )
    from repro.transpiler import belem_coupling

    model.bind_to_device(belem_coupling(), calibration=history[0])
    dataset = load_mnist4(num_samples=40, seed=5)
    features, labels = dataset.test_features[:4], dataset.test_labels[:4]
    noise_models = [NoiseModel.from_calibration(s) for s in history]
    return model, features, labels, noise_models


def _assert_reaped(pids, names):
    """Every worker process is gone and every shared block unlinked."""
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    shm_root = Path("/dev/shm")
    if shm_root.exists():
        for name in names:
            assert not (shm_root / name.lstrip("/")).exists()


def test_failed_chunk_raises_worker_traceback_and_pool_stays_usable(small_harness):
    """A chunk that raises in its worker fails the call with the worker's
    traceback; the same warm workers then serve the next call."""
    model, features, labels, noise_models = small_harness
    too_short = [np.zeros(model.num_parameters - 1)] * len(noise_models)
    serial = ExperimentRunner(mode="serial", chunk_days=1)
    expected = serial.evaluate_days(model, features, labels, noise_models)
    with ExperimentRunner(mode="pool", max_workers=2, chunk_days=1) as runner:
        with pytest.raises(ReproError, match="Traceback") as failure:
            runner.evaluate_days(
                model, features, labels, noise_models, parameter_sets=too_short
            )
        assert "CircuitError" in str(failure.value)
        pids = runner.pool.pids()
        accuracies = runner.evaluate_days(model, features, labels, noise_models)
        assert np.array_equal(accuracies, expected)
        assert runner.pool.pids() == pids
        assert runner.pool.stats.actors_restarted == 0


def test_interrupt_cancels_pending_chunks_and_drains_workers(
    small_harness, monkeypatch
):
    """A KeyboardInterrupt while chunks are in flight propagates and the
    chunks not yet dispatched never start; close() then drains the running
    ones and reaps every worker and shared-memory block."""
    model, features, labels, noise_models = small_harness

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    runner = ExperimentRunner(mode="pool", max_workers=2, chunk_days=1)
    monkeypatch.setattr(workers_module, "_wait_futures", interrupted)
    with pytest.raises(KeyboardInterrupt):
        runner.evaluate_days(model, features, labels, noise_models)
    pool = runner.pool
    pids = pool.pids()
    names = pool.shared_memory_names()
    assert len(pids) == 2 and len(names) == 2
    runner.close()
    assert pool.closed
    assert pool.stats.messages_completed == 2  # one chunk per worker, no more
    assert pool.pids() == []
    _assert_reaped(pids, names)
