"""Pin semantics of the SharedArrayStore LRU.

The serving supervisor pins every in-flight request window
(:meth:`~repro.runtime.workers.ActorGroup.share`), so a block
must never be unlinked while a consumer may still attach it — no matter how
many other arrays pass through the store in between.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.workers import SharedArrayStore, attach_shared_array


def test_pinned_blocks_survive_lru_overflow():
    """A pinned block outlives arbitrarily many newer shares."""
    store = SharedArrayStore(capacity=2)
    try:
        pinned = store.share(np.full(4, 1.0), pin=True)
        for value in range(5):
            store.share(np.full(4, float(value + 2)))
        assert pinned["name"] in store.names()
        blocks: dict[str, object] = {}
        view = attach_shared_array(pinned, blocks)
        np.testing.assert_array_equal(view, np.full(4, 1.0))
        for block in blocks.values():
            block.close()
        store.release(pinned["name"])
        store.share(np.full(4, 99.0))  # overflow now evicts the unpinned block
        assert pinned["name"] not in store.names()
    finally:
        store.close()


def test_pin_refcounts_per_consumer():
    """Identical content pinned twice needs two releases to become evictable."""
    store = SharedArrayStore(capacity=1)
    try:
        array = np.arange(8.0)
        first = store.share(array, pin=True)
        second = store.share(array, pin=True)
        assert first["name"] == second["name"]
        store.release(first["name"])
        store.share(np.ones(8))  # overflow; the block holds its second pin
        assert first["name"] in store.names()
        store.release(first["name"])
        store.share(np.full(8, 2.0))
        assert first["name"] not in store.names()
    finally:
        store.close()


def test_release_of_unknown_name_is_a_noop():
    """Releasing an unpinned or unknown name never raises."""
    store = SharedArrayStore(capacity=2)
    try:
        meta = store.share(np.zeros(3))
        store.release(meta["name"])
        store.release("never-shared")
        store.release(None)
        assert meta["name"] in store.names()
    finally:
        store.close()
