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
be shared between simulators built from the same configuration.  The
cluster layer shares one cache per :class:`~repro.core.config.ReplicaSpec`
class among the replicas of one process; a ``process-pool`` worker serves
its replica from a private copy of its class's cache and hands the entries
back when the master collects results.  :func:`save_iteration_cache` /
:func:`load_iteration_cache` persist a cache on disk
(``ClusterConfig.cache_dir``), keyed by the owning serving configuration,
so parameter sweeps revisiting a configuration warm-start instead of
re-simulating known signatures.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

from ..models.graph import BatchComposition
from ..scheduler.kv_cache import KVMemoryEvent

__all__ = ["IterationReuseCache", "iteration_signature", "iteration_cache_file",
           "save_iteration_cache", "load_iteration_cache"]


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


class IterationReuseCache:
    """Map from iteration signature to the simulated iteration latency.

    The latency is the system simulator's makespan, which does not depend on
    the scheduler clock the iteration started at.  ``entries`` is the map
    itself; persistence and the process-pool backend copy and merge it.
    """

    def __init__(self) -> None:
        self.entries: Dict[Tuple, float] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def lookup(self, signature: Tuple) -> Optional[float]:
        """The memoized latency of ``signature``, or ``None``."""
        return self.entries.get(signature)

    def store(self, signature: Tuple, latency: float) -> None:
        """Memoize the latency of one signature."""
        self.entries[signature] = latency


# -- on-disk persistence ---------------------------------------------------------

_CACHE_SCHEMA = "iteration-cache/v2"


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
               "entries": cache.entries}
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
    for signature, latency in entries.items():
        if signature not in cache.entries:
            cache.entries[signature] = latency
            loaded += 1
    return loaded
