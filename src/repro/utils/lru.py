"""A minimal thread-tolerant LRU discipline over :class:`~collections.OrderedDict`.

Shared by the content-addressed caches that may be touched from runner
worker threads (the transpiler pipeline's pass-artifact caches,
``TranspiledCircuit``'s basis-translation memo and the simulator's
process-wide monomial-gather cache).  Operations tolerate the
benign interleavings CPython's GIL leaves possible — a key evicted between
a ``get`` and its recency bump, or two threads evicting concurrently —
without locking; per-entry work is tiny and the worst case is one lost
recency update or one extra eviction.
"""

from __future__ import annotations

from collections import OrderedDict


def lru_get(cache: OrderedDict, key):
    """Fetch ``key`` and mark it most-recently-used; ``None`` on miss."""
    value = cache.get(key)
    if value is not None:
        try:
            cache.move_to_end(key)
        except KeyError:  # pragma: no cover - thread interleaving only
            pass
    return value


def lru_put(cache: OrderedDict, key, value, capacity: int) -> int:
    """Insert ``key`` as most-recently-used and evict down to ``capacity``.

    Returns the number of entries evicted, so capacity-aware callers (the
    runtime's :class:`~repro.runtime.cache.EvaluationCache`) can keep
    eviction statistics without re-deriving them.
    """
    cache[key] = value
    try:
        cache.move_to_end(key)
    except KeyError:  # pragma: no cover - thread interleaving only
        pass
    evicted = 0
    while len(cache) > capacity:
        try:
            cache.popitem(last=False)
        except KeyError:  # pragma: no cover - thread interleaving only
            break
        evicted += 1
    return evicted
