"""Iteration-level memoization: reuse whole-iteration simulation results.

The operator-level :class:`~repro.engine.cache.SimulationCache` reuses the
hardware estimate of *one operator*; this module lifts the paper's
computation-reuse idea one level up the hierarchy.  Serving workloads are
highly repetitive at iteration granularity: in steady-state decode the same
batch geometry (phases, context lengths, memory traffic) recurs across
requests, across batch waves and — in a cluster — across same-class
replicas.  When an iteration's *signature* has been simulated before, the
entire pipeline behind the scheduler (iteration-graph build, engine stack,
graph converter, system simulation) can be skipped and the memoized latency
replayed.

The signature deliberately excludes request identifiers: two iterations with
the same per-sequence ``(phase, context_length, new_tokens)`` composition,
the same KV-migration traffic and the same sub-batch partitioning produce
bit-identical execution graphs and therefore bit-identical latencies, no
matter which requests they serve.  That makes a hit *exact*, not
approximate — memoization on/off changes simulation wall-clock, never the
simulated serving behaviour.

One cache serves one hardware/software configuration: latencies depend on
the full :class:`~repro.core.config.ServingSimConfig`, so a cache may only
be shared between simulators built from the same configuration (the cluster
layer shares one cache per :class:`~repro.core.config.ReplicaSpec` class).

Two sharing tiers build on the thread-safe :class:`IterationReuseCache`:

* :class:`IterationCacheService` / :class:`RemoteIterationCache` — serve a
  master-hosted cache to worker *processes* over pipes with
  **singleflight** deduplication (concurrent misses on one signature elect
  a single leader to simulate it while the others wait for its entry),
  restoring the serial backend's cross-replica hit rate under the
  ``process-pool`` execution backend (worker-private caches would re-miss
  every signature once per worker).
* :func:`save_iteration_cache` / :func:`load_iteration_cache` — optional
  on-disk persistence (``ClusterConfig.cache_dir``) keyed by the owning
  serving configuration, so parameter sweeps revisiting a configuration
  warm-start instead of re-simulating known signatures.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_for_connections
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..models.graph import BatchComposition
from ..scheduler.kv_cache import KVMemoryEvent
from .stack import EngineStackReport

__all__ = ["IterationCacheStats", "IterationCacheEntry", "IterationReuseCache",
           "RemoteIterationCache", "IterationCacheService",
           "iteration_signature", "iteration_cache_file", "save_iteration_cache",
           "load_iteration_cache"]


def iteration_signature(batch: BatchComposition,
                        memory_events: Sequence[KVMemoryEvent] = (),
                        num_sub_batches: int = 1) -> Tuple:
    """Hashable signature of one iteration's simulation input.

    Captures everything the engine stack, graph converter and system
    simulator see (for a fixed serving configuration):

    * the batch composition — per-sequence ``(phase, context_length,
      new_tokens)`` in batch order, *without* request ids;
    * the KV migration traffic — per-event ``(kind, bytes)`` in order,
      again without request ids (the converter sizes memory operators by
      payload, not by owner);
    * the sub-batch partitioning degree (the partition itself is a
      deterministic function of the batch and this count).
    """
    return (
        tuple((s.phase.value, s.context_length, s.new_tokens)
              for s in batch.sequences),
        tuple((e.event_type.value, e.num_bytes) for e in memory_events),
        num_sub_batches,
    )


@dataclass
class IterationCacheStats:
    """Hit/miss counters of the iteration-level cache."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


@dataclass(frozen=True)
class IterationCacheEntry:
    """Memoized outcome of simulating one iteration signature.

    ``latency`` is the system simulator's makespan (independent of the
    scheduler clock the iteration started at); ``engine_report`` is the
    engine stack's work accounting from the original simulation, kept so a
    hit can still expose what the simulated iteration looked like.
    """

    latency: float
    engine_report: EngineStackReport


class IterationReuseCache:
    """Memoizes whole-iteration latencies per iteration signature.

    One cache is shared by every same-class replica of a cluster, and under
    the ``process-pool`` backend it is read and written by the
    :class:`IterationCacheService` thread, so ``lookup``/``peek``/``store``
    take a lock around the entry map.
    """

    #: Lock discipline, enforced statically by `repro lint` rule REP006:
    #: these attributes may only be touched inside `with self._lock:` (or in
    #: a method documented as lock-held).
    _LOCK_GUARDED = ("_entries",)

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[Tuple, IterationCacheEntry] = {}
        self.stats = IterationCacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(self, signature: Tuple) -> Optional[IterationCacheEntry]:
        """Return the memoized entry or ``None``, updating hit/miss counters."""
        with self._lock:
            entry = self._entries.get(signature)
            if entry is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
            return entry

    def peek(self, signature: Tuple) -> Optional[IterationCacheEntry]:
        """Return the memoized entry or ``None`` without touching the counters."""
        with self._lock:
            return self._entries.get(signature)

    def store(self, signature: Tuple, entry: IterationCacheEntry) -> None:
        """Insert (or replace) the entry of one signature."""
        with self._lock:
            self._entries[signature] = entry


class RemoteIterationCache:
    """Worker-process proxy of a master-hosted :class:`IterationReuseCache`.

    Duck-types the ``lookup``/``store``/``stats`` surface that
    :class:`~repro.core.simulator.LLMServingSim` consumes, forwarding every
    operation over a pipe to the master's :class:`IterationCacheService`.
    ``lookup`` blocks while another worker leads the same signature (the
    singleflight wait happens server-side: the reply is simply deferred
    until the leader stores), so a worker never re-simulates a signature a
    sibling is already computing.  ``store`` is fire-and-forget — the
    in-order pipe guarantees the service applies it before the worker's
    next lookup.
    """

    def __init__(self, connection) -> None:
        self._connection = connection
        self.stats = IterationCacheStats()

    def lookup(self, signature: Tuple) -> Optional[IterationCacheEntry]:
        self._connection.send(("get", signature))
        status, entry = self._connection.recv()
        if status == "hit":
            self.stats.hits += 1
            return entry
        self.stats.misses += 1
        return None

    def store(self, signature: Tuple, entry: IterationCacheEntry) -> None:
        self._connection.send(("put", signature, entry))

    def close(self) -> None:
        self._connection.close()


class IterationCacheService:
    """Serve shared iteration caches to worker processes over pipes.

    The master process hosts one :class:`IterationReuseCache` per replica
    class; this service runs a daemon thread multiplexing the workers'
    cache pipes onto those caches:

    * ``("get", signature)`` replies ``("hit", entry)`` when the signature
      is cached, ``("lead", None)`` when the asking worker should simulate
      it, and *defers the reply* when another worker already leads it — the
      asker blocks in its ``recv`` until the leader's ``put`` fans the
      entry out to every waiter (singleflight across processes);
    * ``("put", signature, entry)`` stores the entry and releases the
      waiters; no reply is sent.

    A worker can lead at most one signature at a time (its ``store`` always
    precedes its next ``lookup``), so the wait graph is a star around the
    service and cannot deadlock.  If a leader's process dies, its pipe
    drops and the first waiter is promoted to leader, so a crash never
    strands the queue.
    """

    def __init__(self, caches: Dict[str, IterationReuseCache]) -> None:
        import multiprocessing

        self._multiprocessing = multiprocessing
        self._caches = dict(caches)
        self._connections: List = []
        #: Connection -> replica class; keyed by the connection object itself
        #: (never by id(): ids are reused after garbage collection).
        self._class_of: Dict[object, str] = {}
        #: (class_name, signature) -> list of connections awaiting the entry.
        self._waiters: Dict[Tuple[str, Tuple], List] = {}
        #: connection -> keys it currently leads (for crash promotion).
        self._leading: Dict[object, set] = {}
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    def register(self, class_name: str):
        """Create the cache pipe of one worker; returns the worker-side end."""
        if class_name not in self._caches:
            raise ValueError(f"no shared cache for replica class {class_name!r}")
        if self._thread is not None:
            raise RuntimeError("register() must precede start()")
        parent, child = self._multiprocessing.Pipe()
        self._connections.append(parent)
        self._class_of[parent] = class_name
        return child

    def start(self) -> None:
        if self._thread is not None or not self._connections:
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._serve, daemon=True,
                                        name="iteration-cache-service")
        self._thread.start()

    def close(self) -> None:
        """Stop serving and drop the pipes; must be idempotent."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        for connection in self._connections:
            connection.close()
        self._connections = []
        self._waiters.clear()
        self._leading.clear()

    # -- the serving loop ------------------------------------------------------

    def _serve(self) -> None:
        live = list(self._connections)
        while live and not self._stop.is_set():
            try:
                ready = _wait_for_connections(live, timeout=0.05)
            except OSError:  # pragma: no cover - close() raced the wait
                return
            for connection in ready:
                try:
                    message = connection.recv()
                except (EOFError, OSError):
                    live.remove(connection)
                    self._handle_disconnect(connection)
                    continue
                try:
                    self._handle(connection, message)
                except Exception:  # pragma: no cover - defensive: keep serving
                    traceback.print_exc()

    def _handle(self, connection, message) -> None:
        kind, signature = message[0], message[1]
        class_name = self._class_of[connection]
        cache = self._caches[class_name]
        key = (class_name, signature)
        if kind == "get":
            entry = cache.peek(signature)
            if entry is not None:
                cache.stats.hits += 1
                connection.send(("hit", entry))
            elif key in self._waiters:
                self._waiters[key].append(connection)  # reply deferred to the put
            else:
                self._waiters[key] = []
                self._leading.setdefault(connection, set()).add(key)
                cache.stats.misses += 1
                connection.send(("lead", None))
        elif kind == "put":
            entry = message[2]
            cache.store(signature, entry)
            self._leading.get(connection, set()).discard(key)
            for waiter in self._waiters.pop(key, []):
                cache.stats.hits += 1
                waiter.send(("hit", entry))
        else:
            raise ValueError(f"unknown cache-service command {kind!r}")

    def _handle_disconnect(self, connection) -> None:
        """Promote a waiter for every signature the dead worker led."""
        for key in self._leading.pop(connection, set()):
            waiters = self._waiters.get(key)
            if waiters:
                promoted = waiters.pop(0)
                self._leading.setdefault(promoted, set()).add(key)
                promoted.send(("lead", None))
            else:
                self._waiters.pop(key, None)
        for waiters in self._waiters.values():
            while connection in waiters:
                waiters.remove(connection)


# -- on-disk persistence ---------------------------------------------------------

_CACHE_SCHEMA = "iteration-cache/v1"


def iteration_cache_file(cache_dir: Union[str, Path], config) -> Path:
    """Cache file for one serving configuration inside ``cache_dir``.

    Entries are only valid for the exact configuration that produced them,
    so the file name carries a digest of the configuration's repr — two
    replica classes (or two sweep points) never collide.
    """
    digest = hashlib.sha256(repr(config).encode()).hexdigest()[:16]
    return Path(cache_dir) / f"iteration-cache-{digest}.pkl"


def save_iteration_cache(cache: IterationReuseCache, path: Union[str, Path],
                         config) -> Path:
    """Persist a cache's entries atomically (write-then-rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"schema": _CACHE_SCHEMA, "config": repr(config),
               "entries": dict(cache._entries)}
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)
    return path


def load_iteration_cache(cache: IterationReuseCache, path: Union[str, Path],
                         config) -> int:
    """Warm-start a cache from disk; returns the number of entries loaded.

    A missing, corrupt, or configuration-mismatched file loads nothing — a
    stale cache directory must never poison a run, so every failure mode
    degrades to a cold start.
    """
    path = Path(path)
    if not path.is_file():
        return 0
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        if (payload.get("schema") != _CACHE_SCHEMA
                or payload.get("config") != repr(config)):
            return 0
        entries = payload["entries"]
    except Exception:
        return 0
    loaded = 0
    for signature, entry in entries.items():
        if cache.peek(signature) is None:
            cache.store(signature, entry)
            loaded += 1
    return loaded
