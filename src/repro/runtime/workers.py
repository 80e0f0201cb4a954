"""Supervised spawn-context actor processes and the chunk-evaluation pool.

Long-lived worker processes serve two workloads here: day-chunk evaluation
for the ``pool`` runner mode (:class:`WorkerPool`) and the serving shards
(:class:`repro.serving.shards.ShardSupervisor`).  Both run on one runtime:

* **A generic actor loop** — :func:`actor_main` runs in a spawned child
  process, instantiates a picklable *handler* class once, and then serves
  ``(task_id, payload) → (task_id, ok, result)`` request/response messages
  until the stop sentinel arrives.  The chunk-evaluation workload is one
  handler (:class:`ChunkEvaluator`); the serving shards are another.
* **Content-addressed shared memory** — :class:`SharedArrayStore` (parent
  side) exposes numpy arrays through ``multiprocessing.shared_memory``
  blocks keyed by content digest with LRU eviction; workers attach by name
  via :func:`attach_shared_array` and cache the mapping, so a payload that
  crosses twice ships zero bytes the second time.
* **One supervisor** — :class:`ActorGroup` spawns the actors, ships each
  model once per digest, tracks every unanswered message in one in-flight
  map of futures, and collects replies from per-actor outboxes through
  ``multiprocessing.connection.wait``.  When an actor dies it respawns it,
  replays its ordered state log (empty for evaluation workers), and
  resubmits its unanswered messages in order, under one attempt cap that
  also quarantines a poison state op.

Each actor's outbox is a one-way pipe whose only write end lives in the
child, written synchronously from the child's main thread.  A child that
dies — even halfway through a large reply — therefore closes its end, and
the parent reads end-of-file instead of blocking on a lock or a frame the
dead process held; no other actor's replies share that channel.

Actors are daemonic ``spawn`` processes: ``spawn`` keeps the groups safe to
create from threaded harnesses (the fleet cells fan out over threads), and
daemonic actors can never outlive the parent even if ``close`` is skipped.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import threading
import time
import traceback
import weakref
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, Future
from concurrent.futures import wait as _wait_futures
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.connection import wait as _wait_readers
from multiprocessing.shared_memory import SharedMemory
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import ReproError

__all__ = [
    "MAX_MESSAGE_ATTEMPTS",
    "ActorGroup",
    "ActorStats",
    "ChunkEvaluator",
    "SharedArrayStore",
    "WorkerPool",
    "actor_main",
    "attach_shared_array",
    "model_payload_digest",
]

#: How many distinct (features, labels) arrays the pool keeps shared at once.
#: Day sweeps reuse one eval subset, so this only needs to absorb a few
#: concurrent subsets before the oldest block is unlinked.
SHARED_ARRAY_CAPACITY = 8

#: Exit code of the test-only crash hook (see ``_CRASH_KEY``).
_CRASH_EXIT_CODE = 17

#: Payload key that makes an actor die before handling the message — a
#: deterministic stand-in for a segfaulting worker, used by the lifecycle
#: tests.  The group strips the key when it resubmits the message to the
#: respawned actor, so the message crashes exactly once.
_CRASH_KEY = "_crash"

#: How many times one message may take its actor down before it is given
#: up: a resubmitted message's future fails, and a state-log entry is
#: quarantined from every later replay.  Keeps a message that
#: deterministically kills its actor (or an environment where actors cannot
#: start at all) from respawning forever.
MAX_MESSAGE_ATTEMPTS = 3

#: How long the idle collector waits on the outboxes before it rechecks
#: whether its group was closed or garbage-collected.  Actor death needs no
#: polling: it surfaces at once as end-of-file on the dead actor's outbox.
_COLLECT_WAIT_SECONDS = 0.2

_logger = logging.getLogger(__name__)


def model_payload_digest(model_bytes: bytes) -> str:
    """Content digest identifying one pickled model payload."""
    return hashlib.blake2b(model_bytes, digest_size=16).hexdigest()


def attach_shared_array(meta: dict, cache: dict) -> np.ndarray:
    """Attach to a parent-owned shared-memory array (worker side, cached).

    ``meta`` is the descriptor produced by :meth:`SharedArrayStore.share`;
    ``cache`` maps block names to attached ``SharedMemory`` objects and is
    owned by the calling handler so repeat payloads skip the re-attach.
    """
    name = meta["name"]
    entry = cache.get(name)
    if entry is None:
        try:
            block = SharedMemory(name=name, track=False)  # Python >= 3.13
        except TypeError:
            # Older Pythons register every attach with the resource tracker
            # (shared with the parent), which would erase the parent's own
            # registration when this process exits and then double-unlink.
            # The parent owns the block — suppress registration entirely.
            from multiprocessing import resource_tracker

            original_register = resource_tracker.register
            resource_tracker.register = lambda *args, **kwargs: None
            try:
                block = SharedMemory(name=name)
            finally:
                resource_tracker.register = original_register
        cache[name] = entry = block
    array = np.ndarray(
        tuple(meta["shape"]), dtype=np.dtype(meta["dtype"]), buffer=entry.buf
    )
    # Worker-side consumers must never scribble on the parent's buffer.
    array.flags.writeable = False
    return array


class ChunkEvaluator:
    """Actor handler for day-chunk evaluation (the :class:`WorkerPool` job).

    One instance lives per worker process; it caches the unpickled model and
    a warm engine per model digest, so compiled programs, bound circuits,
    and day-stacked walk plans survive across chunks *and* across
    ``evaluate_days`` calls.
    """

    def __init__(self) -> None:
        self._models: dict[str, tuple] = {}
        self._blocks: dict[str, SharedMemory] = {}

    def __call__(self, payload: dict):
        """Evaluate one chunk payload; returns ``(accuracies, duration)``."""
        from repro.runtime.runner import _evaluate_chunk
        from repro.simulator import DensityMatrixBackend, SimulationEngine

        digest = payload["model_digest"]
        entry = self._models.get(digest)
        if entry is None:
            model = pickle.loads(payload["model_bytes"])
            backend = DensityMatrixBackend(engine=SimulationEngine())
            self._models[digest] = entry = (model, backend)
        model, backend = entry
        features = attach_shared_array(payload["features"], self._blocks)
        labels = attach_shared_array(payload["labels"], self._blocks)
        return _evaluate_chunk(
            model,
            features,
            labels,
            payload["noise_models"],
            payload["parameter_sets"],
            payload["shots"],
            payload["seeds"],
            payload["max_batch_bytes"],
            backend=backend,
        )

    def close(self) -> None:
        """Detach from every shared-memory block (process exit)."""
        for block in self._blocks.values():
            try:
                block.close()
            except Exception:
                pass


def actor_main(inbox, outbox, handler_cls, handler_kwargs: Optional[dict] = None):
    """Generic child-process loop: serve request/response messages.

    ``handler_cls`` is instantiated once (with ``handler_kwargs``) inside the
    child; each ``(task_id, payload)`` message from ``inbox`` is answered on
    the ``outbox`` connection with ``(task_id, True, handler(payload))`` or
    ``(task_id, False, traceback)``.  A ``None`` message stops the loop; the
    test-only ``_CRASH_KEY`` payload kills the process without replying,
    emulating a segfault.
    """
    handler = handler_cls(**(handler_kwargs or {}))
    try:
        while True:
            message = inbox.get()
            if message is None:
                break
            task_id, payload = message
            if isinstance(payload, dict) and payload.get(_CRASH_KEY):
                os._exit(_CRASH_EXIT_CODE)
            try:
                outbox.send((task_id, True, handler(payload)))
            except BaseException:
                outbox.send((task_id, False, traceback.format_exc()))
    finally:
        close = getattr(handler, "close", None)
        if close is not None:
            try:
                close()
            except Exception:
                pass


class SharedArrayStore:
    """Parent-side content-addressed shared-memory LRU for numpy arrays.

    :meth:`share` exposes an array through a ``SharedMemory`` block keyed by
    its content digest and returns the small descriptor dict workers pass to
    :func:`attach_shared_array`.  Re-sharing identical content returns the
    cached descriptor without copying; the oldest blocks are unlinked once
    ``capacity`` distinct arrays are held.

    ``share(..., pin=True)`` additionally takes a reference on the block
    that exempts it from LRU eviction until a matching :meth:`release` — so
    a block with an in-flight consumer can never be unlinked before the
    consumer attaches, no matter how many other arrays are shared in
    between.  Pinned blocks may hold the store above ``capacity``; the
    excess is trimmed as pins are released.
    """

    def __init__(self, capacity: int = SHARED_ARRAY_CAPACITY):
        if capacity < 1:
            raise ReproError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: dict[str, tuple[SharedMemory, dict]] = {}
        self._order: deque[str] = deque()
        #: block name -> outstanding pin count (eviction exemptions).
        self._pins: dict[str, int] = {}
        #: Distinct arrays shared since construction (monotonic counter).
        self.arrays_shared = 0

    def share(self, array: np.ndarray, pin: bool = False) -> dict:
        """Expose ``array`` via shared memory (content-addressed, cached).

        With ``pin=True`` the returned block is protected from eviction
        until :meth:`release` is called with its name; each pinned share
        takes one reference, so concurrent consumers of identical content
        each release independently.
        """
        array = np.ascontiguousarray(array)
        digest = hashlib.blake2b(
            array.tobytes() + str(array.dtype).encode() + str(array.shape).encode(),
            digest_size=16,
        ).hexdigest()
        cached = self._entries.get(digest)
        if cached is not None:
            if pin:
                name = cached[1]["name"]
                self._pins[name] = self._pins.get(name, 0) + 1
            return cached[1]
        block = SharedMemory(create=True, size=max(1, array.nbytes))
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=block.buf)
        view[...] = array
        meta = {
            "name": block.name,
            "shape": tuple(int(s) for s in array.shape),
            "dtype": str(array.dtype),
        }
        self._entries[digest] = (block, meta)
        self._order.append(digest)
        if pin:
            self._pins[block.name] = 1
        self.arrays_shared += 1
        self._trim()
        return meta

    def release(self, name: Optional[str]) -> None:
        """Drop one pin on the named block (no-op for unknown names)."""
        count = self._pins.get(name)
        if count is None:
            return
        if count <= 1:
            del self._pins[name]
            self._trim()
        else:
            self._pins[name] = count - 1

    def _trim(self) -> None:
        """Unlink oldest unpinned blocks until within capacity."""
        while len(self._order) > self.capacity:
            evicted = next(
                (
                    digest
                    for digest in self._order
                    if self._entries[digest][1]["name"] not in self._pins
                ),
                None,
            )
            if evicted is None:
                return  # every block has an in-flight consumer; stay over
            self._order.remove(evicted)
            old_block, _ = self._entries.pop(evicted)
            self._unlink(old_block)

    def names(self) -> list[str]:
        """Names of the shared-memory blocks the store currently owns."""
        return [meta["name"] for _block, meta in self._entries.values()]

    @staticmethod
    def _unlink(block: SharedMemory) -> None:
        try:
            block.close()
        except Exception:
            pass
        try:
            block.unlink()
        except Exception:
            pass

    def close(self) -> None:
        """Unlink every block the store owns (idempotent)."""
        for block, _ in self._entries.values():
            self._unlink(block)
        self._entries.clear()
        self._order.clear()
        self._pins.clear()


@dataclass
class ActorStats:
    """Cumulative lifecycle counters of one :class:`ActorGroup`."""

    actors_spawned: int = 0
    actors_restarted: int = 0
    messages_completed: int = 0
    messages_resubmitted: int = 0
    state_ops_replayed: int = 0
    state_ops_quarantined: int = 0
    models_shipped: int = 0
    arrays_shared: int = 0


class _LogEntry:
    """One state-mutating payload retained for crash replay.

    ``record`` is the audit record :meth:`ActorGroup.replay_record` built
    (and validated) at submit time.  ``attempts`` counts how many times the
    actor died while this entry was in flight (originally or as a replay);
    once it reaches :data:`MAX_MESSAGE_ATTEMPTS` the entry is quarantined —
    skipped by every subsequent replay — so a poison state op cannot
    crash-loop the actor forever.
    """

    __slots__ = ("payload", "record", "attempts", "quarantined")

    def __init__(self, payload: dict, record):
        self.payload = payload
        self.record = record
        self.attempts = 0
        self.quarantined = False


class _Envelope:
    """One shipped message: payload, resolution future, delivery bookkeeping."""

    __slots__ = ("task_id", "payload", "future", "pin", "log_entry", "replay", "attempts")

    def __init__(
        self,
        task_id: int,
        payload: dict,
        pin: Optional[str] = None,
        log_entry: Optional[_LogEntry] = None,
        replay: bool = False,
    ):
        self.task_id = task_id
        self.payload = payload
        self.future: Future = Future()
        #: Shared-memory block whose pin drops when the message resolves.
        self.pin = pin
        #: The state-log entry this envelope applies (state ops only).
        self.log_entry = log_entry
        #: Internal envelope regenerated from the state log during a
        #: restart; dropped (and regenerated again) if the actor dies twice.
        self.replay = replay
        self.attempts = 1


class _Actor:
    """Parent-side view of one actor process."""

    __slots__ = (
        "actor_id",
        "process",
        "inbox",
        "outbox",
        "known_models",
        "state_log",
        "in_flight",
        "restarts",
    )

    def __init__(self, actor_id: int):
        self.actor_id = actor_id
        self.process = None
        self.inbox = None
        #: Read end of the actor's private reply pipe.
        self.outbox = None
        self.known_models: set[str] = set()
        #: Ordered entries of every state-mutating op ever shipped.
        self.state_log: list[_LogEntry] = []
        #: task_id -> _Envelope of every unanswered message, ship order.
        self.in_flight: "OrderedDict[int, _Envelope]" = OrderedDict()
        self.restarts = 0


class ActorGroup:
    """Spawns, monitors, restarts, and routes messages to actor processes.

    Every actor runs :func:`actor_main` over one ``handler_cls`` instance.
    :meth:`submit` ships a message to one actor and returns a future that a
    collector thread resolves with the reply.  The group is transport and
    supervision only; subclasses supply the workload through two hooks —
    :meth:`handler_kwargs` (per-actor handler arguments) and
    :meth:`replay_record` (which messages mutate actor state and must be
    replayed after a restart).

    Parameters
    ----------
    size:
        Number of actor processes (ids ``0 .. size-1``).
    handler_cls:
        Picklable handler class instantiated once inside each actor.
    name:
        Process-name prefix (``<name>-<actor id>``).

    If the collector thread itself fails (say a respawn cannot start a
    process), every unanswered future fails with that error and the group
    closes, so no caller waits forever on a reply nobody will collect.
    """

    #: Exception type raised for a closed group, an unknown actor, or a
    #: failed message.
    error = ReproError

    def __init__(
        self,
        size: int,
        handler_cls,
        name: str = "repro-actor",
    ):
        self.handler_cls = handler_cls
        self.name = name
        self.stats = ActorStats()
        self._context = get_context("spawn")
        self._store = SharedArrayStore()
        self._actors = {actor_id: _Actor(actor_id) for actor_id in range(size)}
        self._lock = threading.RLock()
        self._idle = threading.Condition(self._lock)
        self._task_counter = 0
        self._envelopes: dict[int, _Envelope] = {}
        self._collector: Optional[threading.Thread] = None
        self._closed = False
        #: The error that stopped the collector, if one did.
        self._failure: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def handler_kwargs(self, actor_id: int) -> dict:
        """Constructor arguments of actor ``actor_id``'s handler (none by default)."""
        return {}

    def replay_record(self, payload: dict):
        """The audit record of a state-mutating ``payload``, else ``None``.

        A message with a record joins its actor's ordered state log and is
        replayed into every restarted process.  The default replays nothing
        (stateless evaluation workers).
        """
        return None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ActorGroup":
        """Spawn every actor process and the collector thread (idempotent)."""
        with self._lock:
            if self._closed:
                raise self.error(f"{self.name} group is closed") from self._failure
            for actor in self._actors.values():
                if actor.process is None:
                    self._spawn(actor)
            if self._collector is None or not self._collector.is_alive():
                # The thread holds the group weakly, so an unreferenced
                # group is still collected and closed by __del__.
                self._collector = threading.Thread(
                    target=_collect_loop,
                    args=(weakref.ref(self),),
                    name=f"{self.name}-collector",
                    daemon=True,
                )
                self._collector.start()
        return self

    def _spawn(self, actor: _Actor) -> None:
        reader, writer = self._context.Pipe(duplex=False)
        inbox = self._context.Queue()
        process = self._context.Process(
            target=actor_main,
            args=(inbox, writer, self.handler_cls, self.handler_kwargs(actor.actor_id)),
            daemon=True,
            name=f"{self.name}-{actor.actor_id}",
        )
        process.start()
        # The child now holds the only write end, so its death — even in
        # the middle of a reply — reads as end-of-file here.
        writer.close()
        actor.process, actor.inbox, actor.outbox = process, inbox, reader
        actor.known_models = set()
        self.stats.actors_spawned += 1

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run; a closed group rejects work."""
        return self._closed

    def actor_ids(self) -> list[int]:
        """Ids of the supervised actors."""
        return sorted(self._actors)

    def pids(self) -> list[int]:
        """PIDs of the current actor processes (empty before :meth:`start`)."""
        with self._lock:
            return [
                actor.process.pid
                for actor in self._actors.values()
                if actor.process is not None
            ]

    def shared_memory_names(self) -> list[str]:
        """Names of the shared-memory blocks the group currently owns."""
        return self._store.names()

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def submit(self, actor_id: int, payload: dict, pin: Optional[dict] = None) -> Future:
        """Ship one message to an actor; the future resolves with its reply.

        ``pin`` is a descriptor from :meth:`share` that the message
        references; its pin is dropped once the message resolves, fails, or
        the group closes.
        """
        with self._lock:
            if self._closed:
                raise self.error(
                    f"{self.name} group is closed; no new messages accepted"
                ) from self._failure
            actor = self._actors.get(actor_id)
            if actor is None:
                raise self.error(f"unknown actor {actor_id}; actors: {self.actor_ids()}")
            if actor.process is None:
                raise self.error(f"{self.name} group is not started; call start() first")
            record = self.replay_record(payload)
            self._task_counter += 1
            envelope = _Envelope(
                self._task_counter, payload, pin=pin["name"] if pin else None
            )
            if record is not None:
                envelope.log_entry = _LogEntry(payload, record)
                actor.state_log.append(envelope.log_entry)
            self._ship(actor, envelope)
            return envelope.future

    def share(self, array: np.ndarray) -> dict:
        """Expose ``array`` to the actors via the content-addressed store.

        The block is pinned against LRU eviction until a matching
        :meth:`release` (or the resolution of a message submitted with
        ``pin=``), so an actor can never find it unlinked before attaching.
        """
        with self._lock:
            meta = self._store.share(array, pin=True)
            self.stats.arrays_shared = self._store.arrays_shared
            return meta

    def release(self, meta: dict) -> None:
        """Drop one pin :meth:`share` took."""
        with self._lock:
            self._store.release(meta.get("name"))

    def _ship(self, actor: _Actor, envelope: _Envelope) -> None:
        """Deliver one envelope (lock held), sending model bytes once per digest."""
        payload = envelope.payload
        digest = payload.get("model_digest")
        if digest is not None:
            if digest in actor.known_models:
                payload = {k: v for k, v in payload.items() if k != "model_bytes"}
            else:
                actor.known_models.add(digest)
                self.stats.models_shipped += 1
        actor.in_flight[envelope.task_id] = envelope
        self._envelopes[envelope.task_id] = envelope
        actor.inbox.put((envelope.task_id, payload))

    def _settle(self, envelope: _Envelope, value=None, error=None) -> None:
        """Release the envelope's pin and resolve its future, unless the
        caller cancelled it (setting a cancelled future would raise here and
        stop the collector)."""
        self._store.release(envelope.pin)
        if envelope.future.set_running_or_notify_cancel():
            if error is None:
                envelope.future.set_result(value)
            else:
                envelope.future.set_exception(error)

    # ------------------------------------------------------------------
    # Collection + supervision
    # ------------------------------------------------------------------
    def _collect_once(self) -> None:
        """Wait briefly for replies; resolve them; recover the dead."""
        with self._lock:
            readers = {
                actor.outbox: actor
                for actor in self._actors.values()
                if actor.outbox is not None
            }
        try:
            ready = _wait_readers(list(readers), timeout=_COLLECT_WAIT_SECONDS)
        except OSError:  # an outbox was closed mid-wait
            return
        replies, dead = [], []
        for reader in ready:
            # Read outside the lock: a large reply must not stall submitters.
            try:
                replies.append(reader.recv())
            except (EOFError, OSError):
                dead.append((readers[reader], reader))
        with self._lock:
            for task_id, ok, value in replies:
                self._resolve(task_id, ok, value)
            for actor, reader in dead:
                # Guarded on _closed: stopped actors close their outboxes
                # too, and close() must not see them resurrected.
                if not self._closed and actor.outbox is reader:
                    self._recover(actor)
            if not self._envelopes:
                self._idle.notify_all()

    def _resolve(self, task_id: int, ok: bool, value) -> None:
        envelope = self._envelopes.pop(task_id, None)
        if envelope is None:
            return  # straggler from before a restart
        for actor in self._actors.values():
            actor.in_flight.pop(task_id, None)
        self.stats.messages_completed += 1
        if ok:
            self._settle(envelope, value)
        else:
            self._settle(envelope, error=self.error(f"{self.name} message failed:\n{value}"))

    def _recover(self, actor: _Actor) -> None:
        """Respawn a dead actor; replay its state; resubmit unanswered work.

        The state log is replayed *first* (in original submission order) so
        the new process reconstructs the exact state the old one held.
        Unanswered non-state messages are then resubmitted in their original
        order.  In-flight state ops are resolved by their own replay, so
        nothing is applied twice.

        Every message in flight at crash time — state op or not — counts
        one attempt; a state-log entry whose attempts reach
        :data:`MAX_MESSAGE_ATTEMPTS` is quarantined (skipped by this and
        every later replay, its caller's future failed), and any other
        message past the cap fails its future.
        """
        try:
            if actor.process.is_alive():
                actor.process.kill()
            actor.process.join(timeout=5.0)
        except Exception:
            pass
        # Discard the dead actor's channels wholesale: anything unread in
        # them is covered by replay + resubmission.  cancel_join_thread,
        # not join_thread: the inbox feeder may be blocked writing into the
        # dead actor's full pipe.
        try:
            actor.inbox.cancel_join_thread()
            actor.inbox.close()
            actor.outbox.close()
        except Exception:
            pass
        old_in_flight = actor.in_flight
        actor.in_flight = OrderedDict()
        for envelope in old_in_flight.values():
            if envelope.replay:
                # Internal replays are regenerated from the log below.
                self._envelopes.pop(envelope.task_id, None)
            if envelope.log_entry is not None:
                envelope.log_entry.attempts += 1
        # Caller envelopes stay in the group's in-flight map until they are
        # reshipped or settled, so a failed respawn still fails them.
        self._spawn(actor)
        actor.restarts += 1
        self.stats.actors_restarted += 1

        # Map in-flight state-log entries to their caller envelopes so the
        # replay resolves the caller's original future.
        pending_state = {
            id(envelope.log_entry): envelope
            for envelope in old_in_flight.values()
            if envelope.log_entry is not None and not envelope.replay
        }
        for entry in actor.state_log:
            if entry.quarantined:
                continue
            envelope = pending_state.get(id(entry))
            if entry.attempts >= MAX_MESSAGE_ATTEMPTS:
                entry.quarantined = True
                self.stats.state_ops_quarantined += 1
                error = self.error(
                    f"state op {entry.payload.get('op')!r} "
                    f"(name={entry.payload.get('name')!r}) killed "
                    f"{self.name}-{actor.actor_id} {entry.attempts} times; "
                    "quarantined from replay — the actor restarts without it"
                )
                _logger.error("%s", error)
                if envelope is not None:
                    self._envelopes.pop(envelope.task_id, None)
                    self._settle(envelope, error=error)
                continue
            if envelope is None:
                self._task_counter += 1
                envelope = _Envelope(
                    self._task_counter, entry.payload, log_entry=entry, replay=True
                )
                envelope.future.add_done_callback(_log_failed_replay)
            else:
                envelope.attempts += 1
            self.stats.state_ops_replayed += 1
            self._ship(actor, envelope)
        for envelope in old_in_flight.values():
            if envelope.log_entry is not None:
                continue  # state ops were replayed from the log above
            envelope.attempts += 1
            if envelope.attempts > MAX_MESSAGE_ATTEMPTS:
                self._envelopes.pop(envelope.task_id, None)
                self._settle(
                    envelope,
                    error=self.error(
                        f"message killed {self.name}-{actor.actor_id} "
                        f"{MAX_MESSAGE_ATTEMPTS} times; giving up"
                    ),
                )
                continue
            if _CRASH_KEY in envelope.payload:
                envelope.payload = {
                    k: v for k, v in envelope.payload.items() if k != _CRASH_KEY
                }
            self.stats.messages_resubmitted += 1
            self._ship(actor, envelope)

    def _fail(self, failure: BaseException) -> None:
        """The collector died: fail every unanswered future, then close."""
        _logger.error("%s collector failed: %r", self.name, failure)
        with self._lock:
            self._failure = failure
            envelopes = list(self._envelopes.values())
            self._envelopes.clear()
            for actor in self._actors.values():
                actor.in_flight.clear()
        error = self.error(f"{self.name} collector failed: {failure!r}")
        error.__cause__ = failure
        try:
            # Close first, so a caller woken by the error finds the group shut.
            self.close(drain=False)
        finally:
            for envelope in envelopes:
                self._settle(envelope, error=error)

    # ------------------------------------------------------------------
    # Ops hooks
    # ------------------------------------------------------------------
    def kill(self, actor_id: int) -> Optional[int]:
        """Hard-kill one actor process (chaos hook); returns the old PID.

        The collector sees the dead actor's outbox close and runs the
        restart protocol — callers observe nothing but latency.
        """
        with self._lock:
            actor = self._actors[actor_id]
            if actor.process is None:
                return None
            pid = actor.process.pid
            actor.process.kill()
        return pid

    def restarts(self) -> dict[int, int]:
        """Restart count per actor id."""
        with self._lock:
            return {actor_id: actor.restarts for actor_id, actor in self._actors.items()}

    def drain(self, timeout: float = 60.0) -> bool:
        """Wait until no message is in flight; returns False on timeout."""
        deadline = time.monotonic() + timeout
        with self._idle:
            while self._envelopes:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(timeout=min(remaining, 0.1))
        return True

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Stop every actor and release shared resources (idempotent).

        With ``drain=True`` the call first waits for in-flight messages to
        be answered, then stops the actors via their sentinel; with
        ``drain=False`` unanswered futures are cancelled and the processes
        are terminated immediately.
        """
        if self._closed:
            return
        if drain:
            self.drain()
        with self._lock:
            self._closed = True
            for envelope in self._envelopes.values():
                envelope.future.cancel()
            self._envelopes.clear()
            actors = [a for a in self._actors.values() if a.process is not None]
        for actor in actors:
            if drain and actor.process.is_alive():
                try:
                    actor.inbox.put(None)
                except Exception:
                    pass
        for actor in actors:
            if drain:
                actor.process.join(timeout=5.0)
            if actor.process.is_alive():
                actor.process.terminate()
                actor.process.join(timeout=5.0)
            actor.process = None
        collector = self._collector
        if collector is not None and collector is not threading.current_thread():
            collector.join(timeout=5.0)
        self._collector = None
        for actor in actors:
            try:
                actor.inbox.close()
                actor.outbox.close()
            except Exception:
                pass
            actor.inbox = actor.outbox = None
        self._store.close()

    def __enter__(self) -> "ActorGroup":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            if not self._closed:
                self.close(drain=False)
        except Exception:
            pass


def _collect_loop(group_ref) -> None:
    """Collector thread body; exits once the group closes or is collected."""
    while True:
        group = group_ref()
        if group is None or group._closed:
            return
        try:
            group._collect_once()
        except BaseException as failure:
            group._fail(failure)
            return
        del group


def _log_failed_replay(future: Future) -> None:
    """Surface a failed state replay loudly instead of swallowing it."""
    if not future.cancelled() and future.exception() is not None:
        _logger.error("actor state replay failed: %s", future.exception())


class WorkerPool(ActorGroup):
    """Long-lived evaluation workers fed one chunk at a time.

    An :class:`ActorGroup` of :class:`ChunkEvaluator` actors that adds only
    chunk fan-out: the pool keeps the queue of pending chunks in the parent
    and hands each worker its next chunk only when the previous result
    arrives; a worker that dies is respawned by the group and its chunk
    resubmitted.

    Parameters
    ----------
    max_workers:
        Number of worker processes; defaults to ``min(4, cpu_count)``.
    """

    def __init__(self, max_workers: Optional[int] = None):
        self.max_workers = max_workers or min(4, os.cpu_count() or 1)
        if self.max_workers < 1:
            raise ReproError(f"max_workers must be >= 1, got {self.max_workers}")
        super().__init__(self.max_workers, ChunkEvaluator, name="repro-eval-worker")
        # Serialises run_chunks calls, and lets a draining close() wait for
        # the whole call rather than for the gap between two of its chunks.
        self._run_lock = threading.Lock()

    def run_chunks(
        self,
        model,
        features: np.ndarray,
        labels: np.ndarray,
        chunk_payloads: Sequence[dict],
    ) -> list:
        """Evaluate chunks on the pool; returns one ``(accuracies, duration)``
        per chunk, in submission order.

        Each payload dict carries ``noise_models`` / ``parameter_sets`` /
        ``shots`` / ``seeds`` / ``max_batch_bytes`` for one chunk (the
        argument set of :func:`repro.runtime.runner._evaluate_chunk`).  A
        worker that dies mid-chunk is respawned and its chunk resubmitted,
        so the call always returns complete results; a chunk that raises
        fails the call with the worker's traceback.
        """
        with self._run_lock:
            self.start()
            model_bytes = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
            shared = {"features": self.share(features), "labels": self.share(labels)}
            try:
                common = dict(
                    shared,
                    model_digest=model_payload_digest(model_bytes),
                    model_bytes=model_bytes,
                )
                pending = deque(enumerate(chunk_payloads))
                idle = deque(self.actor_ids())
                running: dict[Future, tuple[int, int]] = {}
                results: list = [None] * len(pending)
                while pending or running:
                    while pending and idle:
                        index, chunk_payload = pending.popleft()
                        actor_id = idle.popleft()
                        future = self.submit(actor_id, {**chunk_payload, **common})
                        running[future] = (actor_id, index)
                    done, _ = _wait_futures(running, return_when=FIRST_COMPLETED)
                    for future in done:
                        actor_id, index = running.pop(future)
                        results[index] = future.result()
                        idle.append(actor_id)
                return results
            finally:
                for meta in shared.values():
                    self.release(meta)

    def close(self, drain: bool = True) -> None:
        """Stop the workers and release every shared-memory block.

        With ``drain=True`` (default) the call first waits for any running
        :meth:`run_chunks` to finish, so no chunk is ever dropped
        mid-evaluation; ``drain=False`` terminates the workers immediately.
        """
        if not drain:
            super().close(drain=False)
            return
        with self._run_lock:
            super().close(drain=True)
