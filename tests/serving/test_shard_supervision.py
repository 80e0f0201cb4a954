"""Supervisor-level recovery: a poison state op must not crash-loop a shard.

State ops (deploy/observe/rollback) are replayed from the state log on every
restart; without an attempt cap, a deploy payload that kills the shard on
apply would respawn-and-crash forever.  The supervisor quarantines such an
entry after :data:`~repro.serving.shards.MAX_MESSAGE_ATTEMPTS` crashes,
fails the caller's future loudly, and keeps serving everything else.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.exceptions import ServingError
from repro.serving.shards import (
    MAX_MESSAGE_ATTEMPTS,
    ShardSupervisor,
    model_payload_digest,
)

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


class _ExitOnUnpickle:
    """Pickles fine; unpickling kills the host process (poison payload)."""

    def __reduce__(self):
        return (os._exit, (13,))


def test_poison_deploy_is_quarantined_not_crash_looped():
    poison = pickle.dumps(_ExitOnUnpickle(), protocol=pickle.HIGHEST_PROTOCOL)
    supervisor = ShardSupervisor(1)
    try:
        supervisor.start()
        assert supervisor.submit(0, {"op": "ping"}).result(timeout=120.0) == 0
        future = supervisor.submit(
            0,
            {
                "op": "deploy",
                "name": "poison",
                "model_digest": model_payload_digest(poison),
                "model_bytes": poison,
            },
        )
        with pytest.raises(ServingError, match="quarantined"):
            future.result(timeout=120.0)
        assert supervisor.stats.state_ops_quarantined == 1
        assert supervisor.stats.actors_restarted == MAX_MESSAGE_ATTEMPTS
        # The shard came back without the poison op and serves again.
        assert supervisor.submit(0, {"op": "ping"}).result(timeout=120.0) == 0
        # Later restarts skip the quarantined entry outright.
        supervisor.kill(0)
        assert supervisor.submit(0, {"op": "ping"}).result(timeout=120.0) == 0
        assert supervisor.stats.state_ops_quarantined == 1
    finally:
        supervisor.close(drain=False)


def test_cancelled_future_does_not_stop_the_collector():
    """A caller may cancel a message's future before its reply arrives; the
    reply is then dropped, and every later message is still answered."""
    supervisor = ShardSupervisor(1)
    try:
        supervisor.start()
        assert supervisor.submit(0, {"op": "ping"}).result(timeout=120.0) == 0
        abandoned = supervisor.submit(0, {"op": "ping"})
        assert abandoned.cancel()
        assert supervisor.submit(0, {"op": "ping"}).result(timeout=60.0) == 0
        assert supervisor.stats.messages_completed == 3
    finally:
        supervisor.close(drain=False)
