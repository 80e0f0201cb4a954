"""Digest helpers and the evaluation-result cache used by the runner.

The longitudinal harnesses repeatedly evaluate the *same* (model
parameters, calibration day, eval subset) triples — e.g. Table I and
Fig. 7 share every QuCAD day, and reruns at the same scale repeat all of
them.  The cache keys each evaluation on content digests of exactly the
inputs that determine its outcome, so a hit is guaranteed to reproduce the
original numbers bit-for-bit, and can optionally persist to a JSONL file so
later processes warm-start from earlier runs.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.circuits import circuit_structure_digest
from repro.qnn.model import QNNModel
# noise_model_digest lives beside NoiseModel (the simulator keys its channel
# tables on it) and is re-exported here for existing callers.
from repro.simulator.noise_model import noise_model_digest
from repro.utils.lru import lru_get, lru_put


def array_digest(array: Optional[np.ndarray]) -> str:
    """Content digest of an array (shape-aware; ``None`` digests distinctly)."""
    hasher = hashlib.blake2b(digest_size=16)
    if array is None:
        hasher.update(b"<none>")
    else:
        array = np.ascontiguousarray(array)
        hasher.update(str(array.shape).encode())
        hasher.update(str(array.dtype).encode())
        hasher.update(array.tobytes())
    return hasher.hexdigest()


def model_digest(model: QNNModel, parameters: Optional[np.ndarray] = None) -> str:
    """Digest of everything about ``model`` that affects an evaluation.

    Covers the ansatz structure, the effective parameter vector (an explicit
    ``parameters`` argument overrides the model's own, mirroring the
    evaluation APIs), the readout/logit configuration, the encoder, and —
    via :meth:`repro.transpiler.TranspiledCircuit.compilation_digest` — the
    device binding (routed structure, initial layout, final mapping, device
    topology).  Joining the compilation digest means a recompilation that
    landed on different artifacts changes every evaluation key, while an
    incremental recompile that provably reused yesterday's layout keeps
    yesterday's cache entries valid.
    """
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(circuit_structure_digest(model.ansatz).encode())
    effective = model.parameters if parameters is None else np.asarray(parameters)
    hasher.update(array_digest(effective).encode())
    hasher.update(str(model.readout_qubits).encode())
    hasher.update(repr(float(model.logit_scale)).encode())
    hasher.update(
        f"{model.encoder.num_qubits}|{model.encoder.num_features}|{model.encoder.scale!r}".encode()
    )
    if model.transpiled is not None:
        hasher.update(model.transpiled.compilation_digest().encode())
    return hasher.hexdigest()


def evaluation_key(
    model_key: str,
    noise_key: str,
    subset_key: str,
    shots: Optional[int],
    seed,
) -> str:
    """Compose the cache key for one (model, day, subset, sampling) binding."""
    return f"{model_key}/{noise_key}/{subset_key}/shots={shots}/seed={seed}"


PathLike = Union[str, Path]


#: Default in-memory entry bound of an :class:`EvaluationCache`.  An entry
#: is one small dict, so the bound is generous — its job is keeping a
#: long-lived server process from growing without limit, not squeezing
#: memory.
DEFAULT_CACHE_CAPACITY: int = 4096


class EvaluationCache:
    """Thread-safe (model, day, subset) → result cache with JSONL persistence.

    Values are JSON-serialisable dicts (the runner stores
    ``{"accuracy": float}``).  When constructed with a ``path``, existing
    entries are loaded eagerly and every ``put`` is appended, so a cache file
    doubles as a machine-readable record of all distinct evaluations.  The
    runner never caches unseeded sampled evaluations (``shots`` set,
    ``seed`` ``None``) — those are fresh random draws by contract.

    The in-memory side is bounded: at most ``capacity`` entries are held
    under an LRU discipline (shared :mod:`repro.utils.lru` helpers), so a
    long-lived process — the serving loop, a paper-scale sweep — cannot grow
    without bound.  Eviction only drops the *memory* copy; the JSONL backing
    file keeps every entry ever written (an evicted key re-misses and is
    recomputed, never served stale).
    """

    def __init__(
        self,
        path: Optional[PathLike] = None,
        capacity: int = DEFAULT_CACHE_CAPACITY,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._entries: OrderedDict[str, dict] = OrderedDict()
        self._lock = threading.Lock()
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.path = Path(path) if path is not None else None
        if self.path is not None and self.path.is_file():
            with self.path.open("r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    payload = json.loads(line)
                    # Replaying the append-only file in order leaves the
                    # most recently written entries resident.  Load-time
                    # trims are not runtime evictions, so the counter
                    # starts at zero below.
                    lru_put(
                        self._entries, payload["key"], payload["value"], capacity
                    )
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[dict]:
        """The cached value for ``key``, or ``None`` (counts hit/miss stats)."""
        with self._lock:
            value = lru_get(self._entries, key)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
            return value

    def put(self, key: str, value: dict) -> None:
        """Store ``value`` under ``key`` (and append to the backing file)."""
        with self._lock:
            self.evictions += lru_put(self._entries, key, value, self.capacity)
            if self.path is not None:
                with self.path.open("a", encoding="utf-8") as handle:
                    handle.write(json.dumps({"key": key, "value": value}) + "\n")

    def stats(self) -> dict:
        """JSON-ready counters for the CLI stats block."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hits / total if total else 0.0,
            }
