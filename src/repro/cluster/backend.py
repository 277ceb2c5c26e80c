"""Pluggable execution backends for the cluster simulation loop.

:class:`~repro.cluster.simulator.ClusterSimulator` interleaves its replicas
on arrival boundaries: between two arrivals the stale replicas are advanced
independently until their local clocks catch up.  Those advances are
embarrassingly parallel — replicas only interact through the router (which
runs between them) and the per-class iteration cache (which is exact, so
sharing it never changes results) — so this module factors *how* they
execute behind an :class:`ExecutionBackend`:

* :class:`SerialBackend` (``"serial"``) steps every replica in-process, in
  index order.  This is the reference implementation.
* :class:`ProcessPoolBackend` (``"process-pool"``) hosts each replica in a
  persistent worker process and drives it with **batched event windows**:
  one ``("window", submits, advance_to, cap)`` round-trip delivers every
  submit routed to a replica since its last advance *and* the advance
  itself, instead of one pipe round-trip per tick.  Routed submits are
  deferred master-side — ``submit`` costs zero round-trips; the master
  patches its local :class:`ReplicaLoadSnapshot` (one more outstanding
  request, ``has_work`` true — exactly what ``scheduler.submit`` changes)
  and the requests piggyback on the replica's next window.  Replicas that
  are idle or already caught up get no round-trip at all, because the
  cluster loop only calls :meth:`ExecutionBackend.advance` on stale
  replicas.

Both backends produce **bit-identical** simulation results: the per-replica
simulations are deterministic, a worker applies its window's submits in
routing order before advancing (the same order the serial backend runs
them), and the router sees the same load views at the same points of the
arrival loop.  When iteration-level reuse is enabled each worker serves its
replica from a private copy of the master's per-class
:class:`~repro.engine.iteration_cache.IterationReuseCache`, taken at
``bind``, and returns its entries with its result at ``collect``, where the
master merges them into the class cache.  A worker therefore re-simulates a
signature that only a sibling worker has seen: hit and miss counts depend
on how signatures fall across workers, the simulated output does not.

A backend is chosen by name (``ClusterConfig.execution_backend``) from the
two built-ins; any other :class:`ExecutionBackend` can be passed to
:class:`~repro.cluster.simulator.ClusterSimulator` directly.
"""

from __future__ import annotations

import dataclasses
import math
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, TYPE_CHECKING

from ..core.results import ServingResult
from ..workload.request import Request

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .simulator import Replica

__all__ = ["ReplicaLoadSnapshot", "ExecutionBackend", "SerialBackend",
           "ProcessPoolBackend", "available_backends", "build_backend"]


@dataclass(frozen=True)
class ReplicaLoadSnapshot:
    """Compact, picklable load view of one replica at a sync point.

    Carries every *dynamic* signal of the
    :class:`~repro.cluster.router.ReplicaView` protocol (static capability
    signals live on the master-side replica, derived from its
    configuration) plus the progress counters the cluster loop needs.
    """

    clock: float
    has_work: bool
    outstanding_requests: int
    kv_utilization: float
    iterations_run: int
    latency_sum: float


def snapshot_replica(replica: "Replica") -> ReplicaLoadSnapshot:
    """Capture a replica's dynamic load state (used by both backends)."""
    return ReplicaLoadSnapshot(
        clock=replica.clock,
        has_work=replica.has_work,
        outstanding_requests=replica.outstanding_requests,
        kv_utilization=replica.kv_utilization,
        iterations_run=replica.iterations_run,
        latency_sum=replica.latency_sum,
    )


class ExecutionBackend:
    """How the cluster loop executes its independent replica simulations.

    A backend is bound to the master's replica list once per run and then
    driven through the arrival loop: ``advance`` (stale replicas only)
    between arrivals, ``submit`` after routing, ``drain_all`` once every
    request is placed,
    ``collect_results`` for the per-replica outcomes, ``close`` for
    teardown.  Implementations must keep each master replica's load view
    current (the router reads it right after an advance), though ``submit``
    may defer the actual hand-off as long as the load view reflects it.
    """

    name = "base"

    def bind(self, replicas: Sequence["Replica"]) -> None:
        """Attach to the master's replicas for a run."""
        raise NotImplementedError

    def advance(self, indices: Sequence[int], time: float,
                max_iterations: Optional[int] = None) -> None:
        """Advance the listed replicas until their clocks reach ``time``."""
        raise NotImplementedError

    def submit(self, index: int, request: Request) -> None:
        """Hand a routed request to one replica."""
        raise NotImplementedError

    def drain_all(self, max_iterations: Optional[int] = None) -> None:
        """Run every replica until it has no work left (or hits the cap)."""
        raise NotImplementedError

    def collect_results(self) -> List[ServingResult]:
        """Per-replica results; the replicas' class caches hold every entry after."""
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources; must be idempotent."""


class SerialBackend(ExecutionBackend):
    """Step replicas one after another in the master process (reference)."""

    name = "serial"

    def __init__(self) -> None:
        self._replicas: List["Replica"] = []

    def bind(self, replicas: Sequence["Replica"]) -> None:
        self._replicas = list(replicas)

    def advance(self, indices: Sequence[int], time: float,
                max_iterations: Optional[int] = None) -> None:
        for index in indices:
            self._replicas[index].advance_until(time, max_iterations)

    def submit(self, index: int, request: Request) -> None:
        self._replicas[index].submit(request)

    def drain_all(self, max_iterations: Optional[int] = None) -> None:
        for replica in self._replicas:
            replica.advance_until(math.inf, max_iterations)

    def collect_results(self) -> List[ServingResult]:
        return [replica.simulator.collect_result() for replica in self._replicas]


def _replica_worker_main(conn, config, replica_id: int, class_name: str,
                         iteration_cache=None, check_invariants: bool = False) -> None:
    """Command loop of one persistent replica worker process.

    Builds a fresh replica from its configuration (state must start clean
    regardless of the start method), announces readiness with its pristine
    load snapshot, and serves commands until ``close`` or the pipe drops.
    Replies are ``("ok", payload)`` or ``("error", traceback_text)``; the
    master re-raises the latter.

    The one substantive command is the batched event window
    ``("window", submits, advance_to, max_iterations)``: apply the deferred
    submits in routing order, advance to ``advance_to`` (``math.inf``
    drains), reply with the post-window snapshot.  ``collect`` replies with
    the replica's result and its iteration cache's entries.

    ``iteration_cache`` is this worker's private copy of the master's class
    cache (``None`` with iteration reuse off).
    """
    from .simulator import Replica

    try:
        replica = Replica(replica_id, config, class_name=class_name,
                          iteration_cache=iteration_cache,
                          check_invariants=check_invariants)
        conn.send(("ok", snapshot_replica(replica)))
    except Exception:
        conn.send(("error", traceback.format_exc()))
        conn.close()
        return
    try:
        while True:
            message = conn.recv()
            command = message[0]
            try:
                if command == "window":
                    _, submits, advance_to, max_iterations = message
                    for request in submits:
                        replica.submit(request)
                    replica.advance_until(advance_to, max_iterations)
                    conn.send(("ok", snapshot_replica(replica)))
                elif command == "collect":
                    entries = (iteration_cache.entries
                               if iteration_cache is not None else None)
                    conn.send(("ok", (replica.simulator.collect_result(), entries)))
                elif command == "close":
                    return
                else:
                    conn.send(("error", f"unknown worker command {command!r}"))
            except Exception:
                conn.send(("error", traceback.format_exc()))
                return
    except (EOFError, KeyboardInterrupt):  # master went away
        return
    finally:
        conn.close()


class ProcessPoolBackend(ExecutionBackend):
    """Host each replica in a persistent worker process.

    Workers execute batched event windows received over a pipe and reply
    with the compact :class:`ReplicaLoadSnapshot` the router selects on.
    ``submit`` never touches a pipe: the request is queued master-side, the
    master's snapshot is patched with exactly the state change
    ``scheduler.submit`` would make, and the queued requests ride along
    with the replica's next window (its next advance, or the final drain).
    ``advance`` fans windows out to the stale replicas only and gathers
    their snapshots concurrently; ``drain_all`` broadcasts to everyone.

    Worker replicas are rebuilt from their configuration in the worker
    process; the master-side :class:`~repro.cluster.simulator.Replica`
    objects stay snapshot-backed and never build their simulators.  Each
    worker starts with a copy of its replica's class cache and no pipe
    traffic on a lookup; ``collect_results`` merges the workers' entries back
    into the master's class caches.
    """

    name = "process-pool"

    def __init__(self, start_method: Optional[str] = None) -> None:
        import multiprocessing

        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._context = multiprocessing.get_context(start_method)
        self._replicas: List["Replica"] = []
        self._connections: list = []
        self._processes: list = []
        self._pending_submits: List[List[Request]] = []

    def bind(self, replicas: Sequence["Replica"]) -> None:
        self.close()
        self._replicas = list(replicas)
        self._connections = []
        self._processes = []
        self._pending_submits = [[] for _ in self._replicas]
        for replica in self._replicas:
            parent_conn, child_conn = self._context.Pipe()
            process = self._context.Process(
                target=_replica_worker_main,
                args=(child_conn, replica.config, replica.replica_id,
                      replica.class_name, replica.iteration_cache,
                      replica.check_invariants),
                daemon=True,
                name=f"replica-worker-{replica.replica_id}",
            )
            process.start()
            child_conn.close()
            self._connections.append(parent_conn)
            self._processes.append(process)
        # Gather the ready handshakes: the workers' pristine snapshots detach
        # the master replicas from their (never-built) local simulators.
        for index, replica in enumerate(self._replicas):
            replica.attach_snapshot(self._receive(index))

    # -- pipe plumbing ---------------------------------------------------------

    def _receive(self, index: int):
        try:
            status, payload = self._connections[index].recv()
        except EOFError:
            raise RuntimeError(
                f"replica worker {index} exited unexpectedly") from None
        if status != "ok":
            raise RuntimeError(f"replica worker {index} failed:\n{payload}")
        return payload

    def _send_window(self, index: int, advance_to: float,
                     max_iterations: Optional[int]) -> None:
        """Ship one replica's deferred submits plus an advance order."""
        submits = self._pending_submits[index]
        self._pending_submits[index] = []
        self._connections[index].send(
            ("window", submits, advance_to, max_iterations))

    def _gather(self, indices: Sequence[int]) -> None:
        for index in indices:
            self._replicas[index].attach_snapshot(self._receive(index))

    # -- ExecutionBackend interface --------------------------------------------

    def advance(self, indices: Sequence[int], time: float,
                max_iterations: Optional[int] = None) -> None:
        for index in indices:
            self._send_window(index, time, max_iterations)
        self._gather(indices)

    def submit(self, index: int, request: Request) -> None:
        # Defer the hand-off (it piggybacks on the next window) but reflect
        # it in the load view immediately: ``scheduler.submit`` appends to
        # the pending queue, so exactly ``outstanding_requests`` and
        # ``has_work`` change — the clock, KV occupancy and iteration
        # counters do not.
        self._pending_submits[index].append(request)
        snapshot = self._replicas[index]._snapshot
        self._replicas[index].attach_snapshot(dataclasses.replace(
            snapshot,
            outstanding_requests=snapshot.outstanding_requests + 1,
            has_work=True))

    def drain_all(self, max_iterations: Optional[int] = None) -> None:
        self.advance(range(len(self._replicas)), math.inf, max_iterations)

    def collect_results(self) -> List[ServingResult]:
        for connection in self._connections:
            connection.send(("collect",))
        results = []
        for index, replica in enumerate(self._replicas):
            result, entries = self._receive(index)
            if entries:
                replica.iteration_cache.entries.update(entries)
            results.append(result)
        return results

    def close(self) -> None:
        for connection in self._connections:
            try:
                connection.send(("close",))
            except (BrokenPipeError, OSError):
                pass
            connection.close()
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - defensive teardown
                process.terminate()
                process.join(timeout=5.0)
        self._connections = []
        self._processes = []
        self._pending_submits = []


_BACKEND_FACTORIES: Dict[str, Callable[[], ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    ProcessPoolBackend.name: ProcessPoolBackend,
}


def available_backends() -> list:
    """Names of the built-in execution backends."""
    return sorted(_BACKEND_FACTORIES)


def build_backend(name: str) -> ExecutionBackend:
    """Create a backend by name (the cluster config's ``execution_backend``)."""
    try:
        factory = _BACKEND_FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown execution backend {name!r}; "
                         f"expected one of {available_backends()}") from None
    return factory()
