"""Lifecycle tests for the persistent evaluation worker pool.

Covers the contracts the ``pool`` runner mode leans on: workers stay warm
across :meth:`~repro.runtime.workers.WorkerPool.run_chunks` calls (same
PIDs, model shipped once), shutdown drains in-flight chunks, a crashed
worker is respawned without losing the run, a worker SIGKILLed while
replies are in flight — even halfway through writing a large reply —
neither loses a chunk nor blocks the other worker's replies, and every
shared-memory block is released on close.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.calibration import generate_belem_history
from repro.datasets import load_mnist4
from repro.exceptions import ReproError
from repro.qnn import QNNModel, evaluate_noisy
from repro.runtime import WorkerPool
from repro.runtime.workers import _CRASH_KEY, ChunkEvaluator
from repro.simulator import NoiseModel
from repro.transpiler import belem_coupling


@pytest.fixture(scope="module")
def workload():
    """A small 4-day belem workload plus its sequential reference."""
    rng = np.random.default_rng(23)
    history = generate_belem_history(4, seed=11)
    model = QNNModel.create(
        num_qubits=4, num_features=16, num_classes=4, repeats=1, seed=3
    )
    model.bind_to_device(belem_coupling(), calibration=history[0])
    dataset = load_mnist4(num_samples=40, seed=9)
    features, labels = dataset.test_features[:4], dataset.test_labels[:4]
    noise_models = [NoiseModel.from_calibration(s) for s in history]
    parameters = rng.uniform(-np.pi, np.pi, model.num_parameters)
    seeds = [int(rng.integers(0, 2**31 - 1)) for _ in range(4)]
    reference = [
        evaluate_noisy(
            model, features, labels, noise_model,
            parameters=parameters, shots=64, seed=seed,
        ).accuracy
        for noise_model, seed in zip(noise_models, seeds)
    ]
    return model, features, labels, noise_models, parameters, seeds, reference


def _payloads(noise_models, parameters, seeds, chunk_days=2):
    """Chunk the workload into ``run_chunks`` payload dicts."""
    indices = list(range(len(noise_models)))
    chunks = [
        indices[start : start + chunk_days]
        for start in range(0, len(indices), chunk_days)
    ]
    return [
        {
            "noise_models": [noise_models[i] for i in chunk],
            "parameter_sets": [parameters for _ in chunk],
            "shots": 64,
            "seeds": [seeds[i] for i in chunk],
            "max_batch_bytes": 64 * 1024 * 1024,
        }
        for chunk in chunks
    ], chunks


def _flatten(results, chunks, count):
    flat = [None] * count
    for chunk, (accuracies, _duration) in zip(chunks, results):
        for index, value in zip(chunk, accuracies):
            flat[index] = value
    return flat


def test_warm_workers_are_reused_across_calls(workload):
    model, features, labels, noise_models, parameters, seeds, reference = workload
    payloads, chunks = _payloads(noise_models, parameters, seeds)
    with WorkerPool(max_workers=1) as pool:
        first = pool.run_chunks(model, features, labels, payloads)
        pids_after_first = pool.pids()
        second = pool.run_chunks(model, features, labels, payloads)
        pids_after_second = pool.pids()

        assert _flatten(first, chunks, 4) == reference
        assert _flatten(second, chunks, 4) == reference
        # Same long-lived process serves both calls...
        assert pids_after_first == pids_after_second
        assert pool.stats.actors_spawned == 1
        assert pool.stats.actors_restarted == 0
        # ...and the model pickles over the wire exactly once: the second
        # call strips model_bytes because the worker already holds it.
        assert pool.stats.models_shipped == 1
        assert pool.stats.messages_completed == 2 * len(payloads)
        # One eval subset → one features block + one labels block, cached
        # across calls by content digest.
        assert pool.stats.arrays_shared == 2


def test_graceful_shutdown_waits_for_in_flight_chunks(workload):
    model, features, labels, noise_models, parameters, seeds, reference = workload
    payloads, chunks = _payloads(noise_models, parameters, seeds)
    pool = WorkerPool(max_workers=1)
    results: list = []

    def run():
        results.append(pool.run_chunks(model, features, labels, payloads))

    runner_thread = threading.Thread(target=run)
    runner_thread.start()
    time.sleep(0.05)  # let run_chunks take the pool lock and dispatch
    pool.close(drain=True)  # must block until the in-flight call drains
    runner_thread.join(timeout=60.0)

    assert not runner_thread.is_alive()
    assert pool.closed
    assert results, "run_chunks must complete before close() returns"
    assert _flatten(results[0], chunks, 4) == reference
    assert pool.pids() == []
    with pytest.raises(ReproError):
        pool.run_chunks(model, features, labels, payloads)


def test_worker_crash_respawns_without_losing_the_run(workload):
    model, features, labels, noise_models, parameters, seeds, reference = workload
    payloads, chunks = _payloads(noise_models, parameters, seeds)
    # The crash hook kills the worker before it evaluates the first chunk;
    # the parent must respawn it and resubmit the chunk (crash-free).
    payloads[0] = dict(payloads[0], **{_CRASH_KEY: True})
    with WorkerPool(max_workers=1) as pool:
        results = pool.run_chunks(model, features, labels, payloads)
        assert _flatten(results, chunks, 4) == reference
        assert pool.stats.actors_restarted >= 1
        assert pool.stats.messages_resubmitted >= 1
        # The respawned worker still finished every chunk.
        assert pool.stats.messages_completed == len(payloads)


def test_shared_memory_blocks_released_on_close(workload):
    model, features, labels, noise_models, parameters, seeds, _ = workload
    payloads, _chunks = _payloads(noise_models, parameters, seeds)
    pool = WorkerPool(max_workers=1)
    pool.run_chunks(model, features, labels, payloads)
    names = pool.shared_memory_names()
    assert len(names) == 2  # features + labels
    shm_root = Path("/dev/shm")
    if shm_root.exists():
        for name in names:
            assert (shm_root / name.lstrip("/")).exists()
    pool.close()
    assert pool.shared_memory_names() == []
    if shm_root.exists():
        for name in names:
            assert not (shm_root / name.lstrip("/")).exists()


def test_close_is_idempotent_and_context_managed(workload):
    model, features, labels, noise_models, parameters, seeds, _ = workload
    payloads, _chunks = _payloads(noise_models, parameters, seeds, chunk_days=4)
    pool = WorkerPool(max_workers=1)
    pool.run_chunks(model, features, labels, payloads)
    pool.close()
    pool.close()  # second close is a no-op
    assert pool.closed


#: Padding carried by every reply of :class:`_LargeReplyEvaluator` — far
#: past a pipe's 64 KiB buffer, so writing one reply takes many syscalls.
_REPLY_PAD_BYTES = 4 * 1024 * 1024


def _die_halfway_through_next_large_write() -> None:
    """Make this process SIGKILL itself halfway through its next large write.

    Patches the connection write primitive every multiprocessing channel
    sends through, so the cut lands inside a reply frame whatever carries
    it, leaving a half-written frame (and any lock the writer held) behind.
    """
    from multiprocessing import connection

    original = connection.Connection._send

    def send(self, buf, *args):
        if len(buf) > _REPLY_PAD_BYTES // 2:
            original(self, memoryview(buf)[: len(buf) // 2], *args)
            os.kill(os.getpid(), signal.SIGKILL)
        original(self, buf, *args)

    connection.Connection._send = send


class _LargeReplyEvaluator(ChunkEvaluator):
    """Chunk evaluator (worker side) whose replies are padded past a pipe
    buffer and stamped with the replying worker's PID.

    A payload's ``_die_mid_reply`` names a marker file: the first worker
    to create it dies halfway through writing that chunk's reply; the
    resubmitted chunk finds the marker and replies normally.
    """

    def __call__(self, payload):
        accuracies, duration = super().__call__(payload)
        marker = payload.get("_die_mid_reply")
        if marker is not None:
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                _die_halfway_through_next_large_write()
        return accuracies, duration, os.getpid(), np.zeros(_REPLY_PAD_BYTES // 8)


class _LargeReplyPool(WorkerPool):
    def __init__(self, max_workers):
        super().__init__(max_workers)
        self.handler_cls = _LargeReplyEvaluator


def _start_run(pool, *args):
    """Start ``pool.run_chunks(*args)`` on a helper thread."""
    outcome: list = []
    thread = threading.Thread(
        target=lambda: outcome.append(pool.run_chunks(*args)), daemon=True
    )
    thread.start()
    return thread, outcome


def _finish_run(thread, outcome, timeout=120.0):
    """The run's results; fails (instead of hanging) if it never returns."""
    thread.join(timeout=timeout)
    assert not thread.is_alive(), "run_chunks hung after a worker was killed"
    assert outcome, "run_chunks raised instead of recovering"
    return outcome[0]


def _check_large_replies(results, chunks, reference):
    """Complete, bit-identical results; returns the PIDs that replied."""
    assert np.array_equal(
        _flatten([reply[:2] for reply in results], chunks, len(reference)), reference
    )
    assert all(reply[3].nbytes == _REPLY_PAD_BYTES for reply in results)
    return {reply[2] for reply in results}


def test_worker_killed_halfway_through_a_large_reply(workload, tmp_path):
    """A SIGKILL cuts worker 0's reply frame in half while worker 1 is
    replying too: the parent must see the cut as the worker's death (not
    wait on the rest of the frame), resubmit the chunk, and keep taking
    worker 1's replies, which never shared worker 0's channel."""
    model, features, labels, noise_models, parameters, seeds, reference = workload
    payloads, chunks = _payloads(noise_models, parameters, seeds, chunk_days=1)
    marker = tmp_path / "died-mid-reply"
    payloads[0] = dict(payloads[0], _die_mid_reply=str(marker))
    pool = _LargeReplyPool(max_workers=2)
    try:
        results = _finish_run(*_start_run(pool, model, features, labels, payloads))
        assert marker.exists()
        repliers = _check_large_replies(results, chunks, reference)
        # The killed worker never finished a reply; its replacement and
        # worker 1 answered everything.
        assert repliers <= set(pool.pids())
        assert pool.pids()[1] in repliers
        assert pool.stats.actors_spawned == 3  # worker 1 was never replaced
        assert pool.stats.actors_restarted == 1
        assert pool.stats.messages_resubmitted == 1
        assert pool.stats.messages_completed == len(payloads)
    finally:
        pool.close(drain=False)


def test_worker_sigkilled_while_replies_are_in_flight(workload):
    """SIGKILL one of two workers from outside once replies are flowing;
    the run still returns every chunk bit-identical to the reference."""
    model, features, labels, noise_models, parameters, seeds, reference = workload
    payloads, chunks = _payloads(noise_models, parameters, seeds, chunk_days=1)
    rounds = 3
    payloads = payloads * rounds
    chunks = [[i + 4 * r for i in chunk] for r in range(rounds) for chunk in chunks]
    pool = _LargeReplyPool(max_workers=2)
    try:
        run = _start_run(pool, model, features, labels, payloads)
        deadline = time.monotonic() + 60.0
        while pool.stats.messages_completed < 1:
            assert time.monotonic() < deadline, "no reply ever arrived"
            time.sleep(0.001)
        victim, survivor = pool.pids()
        os.kill(victim, signal.SIGKILL)
        results = _finish_run(*run)
        repliers = _check_large_replies(results, chunks, reference * rounds)
        assert survivor in repliers
        assert repliers <= {victim, *pool.pids()}
        deadline = time.monotonic() + 10.0
        while pool.stats.actors_restarted < 1:
            assert time.monotonic() < deadline, "killed worker was never replaced"
            time.sleep(0.01)
        assert victim not in pool.pids()
    finally:
        pool.close(drain=False)


def test_failed_respawn_fails_the_run_instead_of_hanging(workload, monkeypatch):
    """If a killed worker cannot be respawned, the running call fails with
    that error instead of waiting forever for a reply nobody will collect,
    and the pool closes without leaving a process or block behind."""
    model, features, labels, noise_models, parameters, seeds, _ = workload
    payloads, _chunks = _payloads(noise_models, parameters, seeds)
    payloads[0] = dict(payloads[0], **{_CRASH_KEY: True})
    pool = WorkerPool(max_workers=1)
    try:
        pool.start()

        def cannot_spawn(actor):
            raise OSError("no process could be started")

        monkeypatch.setattr(pool, "_spawn", cannot_spawn)
        errors: list = []

        def run():
            try:
                pool.run_chunks(model, features, labels, payloads)
            except BaseException as error:
                errors.append(error)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=60.0)
        assert not thread.is_alive(), "run_chunks hung after a failed respawn"
        assert len(errors) == 1 and isinstance(errors[0], ReproError)
        assert isinstance(errors[0].__cause__, OSError)
        assert pool.closed
        assert pool.pids() == []
        assert pool.shared_memory_names() == []
        with pytest.raises(ReproError, match="closed"):
            pool.run_chunks(model, features, labels, payloads)
    finally:
        pool.close(drain=False)
