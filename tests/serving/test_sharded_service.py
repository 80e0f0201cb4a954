"""Integration tests for the sharded serving tier.

These spawn real shard processes (spawn context, like production), so the
module keeps one 2-shard service alive across tests and orders the
state-mutating scenarios last:

* results are bit-identical to the single-process service, whatever the
  batch composition (PR 6 made the appliers batch-size independent);
* the asyncio surface (``predict_aio``) serves from a foreign event loop;
* killing a shard mid-stream loses nothing: every in-flight request
  completes, exactly once, bit-identical to the unsharded reference, and
  the supervisor records the restart;
* hot-swap through a shard matches the single-process swap decision and
  post-swap results stay bit-identical.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.exceptions import ServingError
from repro.serving import (
    BatchPolicy,
    InferenceService,
    ShardedInferenceService,
)

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

NAMES = ("alpha", "beta")


@pytest.fixture(scope="module")
def reference(bound_model, history):
    """Single-process service with the same deployments (expected results)."""
    service = InferenceService(
        policy=BatchPolicy(max_batch=4, max_latency_ms=5.0)
    )
    for name in NAMES:
        service.deploy(name, bound_model, calibration=history[0])
    with service:
        yield service


@pytest.fixture(scope="module")
def sharded(bound_model, history):
    """A live 2-shard service with two deployed endpoints."""
    service = ShardedInferenceService(
        num_shards=2, policy=BatchPolicy(max_batch=4, max_latency_ms=5.0)
    )
    for name in NAMES:
        report = service.deploy(name, bound_model, calibration=history[0])
        assert report["version"] == 1
    with service:
        yield service


def test_deploy_reports_shard_and_digest(sharded):
    """Deploy replies carry the owning shard and the compilation digest."""
    stats = sharded.stats()
    for name in NAMES:
        report = stats["deployments"][name]
        assert report["shard"] == sharded.route(name)
        assert report["compilation_digest"]
    assert stats["routing"] == {name: sharded.route(name) for name in NAMES}


def test_sharded_results_bit_identical_to_single_process(
    sharded, reference, features
):
    """Same logits as the unsharded service, request for request."""
    for name in NAMES:
        expected = reference.predict_many(name, list(features[:10]))
        observed = sharded.predict_many(name, list(features[:10]))
        for exp, obs in zip(expected, observed):
            np.testing.assert_array_equal(obs.logits, exp.logits)
            assert obs.prediction == exp.prediction
            assert obs.version == exp.version == 1


def test_predict_aio_serves_from_an_event_loop(sharded, reference, features):
    """The awaitable surface resolves to the same results."""

    async def drive():
        return await asyncio.gather(
            *(sharded.predict_aio("alpha", sample) for sample in features[:6])
        )

    observed = asyncio.run(drive())
    expected = reference.predict_many("alpha", list(features[:6]))
    for exp, obs in zip(expected, observed):
        np.testing.assert_array_equal(obs.logits, exp.logits)


def test_shard_kill_mid_stream_loses_nothing(sharded, reference, features):
    """Chaos: hard-kill the owning shard with requests in flight.

    Every submitted future must resolve exactly once with results
    bit-identical to the unsharded reference — the supervisor replays the
    dead shard's registry state and resubmits its in-flight windows.
    """
    name = "alpha"
    shard_id = sharded.route(name)
    samples = list(features[:16])
    expected = reference.predict_many(name, samples)

    futures = [sharded.predict_async(name, sample) for sample in samples]
    old_pid = sharded.kill_shard(shard_id)
    assert old_pid is not None
    # More traffic *after* the kill must also survive the restart window.
    futures += [sharded.predict_async(name, sample) for sample in samples[:4]]
    results = [future.result(timeout=120.0) for future in futures]

    assert len(results) == 20  # nothing lost
    assert all(future.done() for future in futures)  # nothing duplicated/stuck
    for exp, obs in zip(expected, results[:16]):
        np.testing.assert_array_equal(obs.logits, exp.logits)
    for exp, obs in zip(expected[:4], results[16:]):
        np.testing.assert_array_equal(obs.logits, exp.logits)

    deadline = time.monotonic() + 10.0
    while sharded.supervisor.restarts()[shard_id] < 1:
        assert time.monotonic() < deadline, "supervisor never recorded restart"
        time.sleep(0.05)
    stats = sharded.stats()
    assert stats["supervisor"]["actors_restarted"] >= 1
    assert stats["supervisor"]["restarts"][str(shard_id)] >= 1
    # The restarted shard replayed its deployments and serves version 1.
    assert stats["deployments"][name]["version"] == 1


def test_hot_swap_through_a_shard_matches_single_process(
    sharded, reference, history, features
):
    """Drift observation hot-swaps inside the shard; results track."""
    name = "beta"
    reference_report = reference.observe_calibration(name, history[3])
    sharded_report = sharded.observe_calibration(name, history[3])
    assert sharded_report.action == reference_report.action
    assert sharded_report.version == reference_report.version
    assert sharded_report.digest_changed == reference_report.digest_changed
    expected = reference.predict_many(name, list(features[:6]))
    observed = sharded.predict_many(name, list(features[:6]))
    for exp, obs in zip(expected, observed):
        np.testing.assert_array_equal(obs.logits, exp.logits)
        assert obs.version == exp.version


def test_stats_merge_and_reset(sharded):
    """Telemetry merges across shards and reset() zeroes every shard."""
    stats = sharded.stats()
    assert set(stats["telemetry"]["shards"]) == {"0", "1"}
    assert stats["telemetry"]["models"]  # traffic from earlier tests
    for rollup in stats["telemetry"]["shards"].values():
        assert "restarts" in rollup
        assert "qps" in rollup
    sharded.reset_telemetry()
    cleared = sharded.stats()
    assert cleared["telemetry"]["models"] == {}


def test_deploy_cache_pins_the_model_object(sharded, bound_model):
    """The payload cache must hold the model so its id cannot be recycled.

    Keyed by ``id(model)`` alone, CPython could hand a freed model's id to
    a different model and a later deploy would ship the wrong bytes; the
    cached tuple therefore retains the model object itself.
    """
    cached = sharded._model_bytes[id(bound_model)]
    assert cached[0] is bound_model


def test_mixed_length_group_fails_fast_instead_of_hanging(sharded):
    """Mixed feature lengths for one name fail the group, never hang it."""
    good = sharded.predict_async("alpha", np.ones(6))
    bad = sharded.predict_async("alpha", np.ones(5))
    with pytest.raises((ValueError, ServingError)):
        bad.result(timeout=30.0)
    # The coalesced partner must also resolve (either way), never hang.
    try:
        good.result(timeout=30.0)
    except (ValueError, ServingError):
        pass


def test_front_door_validation_errors(bound_model, history, features):
    """Bad requests fail fast, before any shard sees them."""
    with pytest.raises(ServingError):
        ShardedInferenceService(num_shards=0)
    service = ShardedInferenceService(num_shards=1)
    try:
        with pytest.raises(ServingError):
            service.predict("missing", features[0])
        service.deploy("qnn", bound_model, calibration=history[0])
        with pytest.raises(ServingError):
            # Deployed, but the front-door loop was never started.
            service.predict("qnn", features[0])
        service.start()
        with pytest.raises(ServingError):
            service.predict("qnn", features[:2])  # matrix, not a vector
    finally:
        service.stop()
    with pytest.raises(ServingError):
        service.predict("qnn", features[0])  # stopped service rejects work
    with pytest.raises(ServingError):
        service.start()  # a stopped service cannot restart
