"""System-level simulator (the ASTRA-sim substitute).

Takes the execution graph produced by the graph converter (whose nodes
already name the topology's devices they occupy) and the network model,
and replays the graph in simulated time:
every device executes one node at a time, a node starts once all its
dependencies finished, collectives occupy every participating device, and
point-to-point and host transfers occupy their endpoints for the duration
computed by the network model.

The replay is one loop over the graph's per-node lists with a heap of
``(end, sequence, node)`` entries.  Its dispatch rules decide which waiting
node gets a device first, so every simulated time depends on them:

* a finishing node first releases its dependents, in ascending node id,
  while its own devices are still marked busy; only then does it free its
  devices, one at a time, in the node's device order;
* a freed device first serves the waiting multi-device nodes (collectives
  and P2P transfers) that include it, in the order they started waiting,
  then the FIFO queue of ready single-device nodes on it;
* a waiting multi-device node counts its busy devices when it starts
  waiting and loses one count per release of any of its devices; at zero it
  recounts and starts only if none is busy;
* finishes at equal simulated times are processed in the order the nodes
  started, and each end time is ``start + duration``.

The output is the iteration's end-to-end latency (makespan) plus per-device
utilization and a communication/computation breakdown — the statistics the
LLMServingSim scheduler feeds back into its clock to schedule the next
iteration.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..graph.execgraph import ExecutionGraph, GraphNodeType
from .network import NetworkModel

__all__ = ["NodeTiming", "SystemSimulationResult", "SystemSimulator"]


@dataclass(frozen=True)
class NodeTiming:
    """Start / end time assigned to one graph node during system simulation."""

    node_id: int
    name: str
    node_type: GraphNodeType
    start: float
    end: float
    devices: Tuple[int, ...]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SystemSimulationResult:
    """Outcome of simulating one execution graph.

    The replay records only each node's start and end and the order nodes
    finished in; everything else is derived from those on first access.

    Attributes
    ----------
    makespan:
        End-to-end latency of the graph in seconds.
    num_events:
        Number of node completions processed (one per node).
    compute_time:
        Total device-seconds spent in compute nodes.
    comm_time:
        Total device-seconds spent in communication (collective, P2P) nodes.
    memory_time:
        Total device-seconds spent in host<->device memory transfers.
    device_busy_time:
        Busy seconds per device id.
    node_timings:
        Per-node start/end times in completion order.
    """

    def __init__(self, graph: ExecutionGraph, start_time: float = 0.0,
                 order: Sequence[int] = (), starts: Sequence[float] = (),
                 ends: Sequence[float] = (), makespan: float = 0.0) -> None:
        self.makespan = makespan
        self.num_events = len(order)
        self._graph = graph
        self._start_time = start_time
        self._order = order
        self._starts = starts
        self._ends = ends

    @cached_property
    def _totals(self) -> Tuple[float, float, float, Dict[int, float]]:
        # Summed in completion order: float sums depend on the order.
        compute = comm = memory = 0.0
        busy: Dict[int, float] = {}
        types, occupied = self._graph.types, self._graph.occupied
        for node_id in self._order:
            duration = self._ends[node_id] - self._starts[node_id]
            devices = occupied[node_id]
            for device in devices:
                busy[device] = busy.get(device, 0.0) + duration
            node_type = types[node_id]
            if node_type is GraphNodeType.COMPUTE:
                compute += duration
            elif node_type is GraphNodeType.MEMORY:
                memory += duration
            else:
                comm += duration * len(devices)
        return compute, comm, memory, busy

    @property
    def compute_time(self) -> float:
        return self._totals[0]

    @property
    def comm_time(self) -> float:
        return self._totals[1]

    @property
    def memory_time(self) -> float:
        return self._totals[2]

    @property
    def device_busy_time(self) -> Dict[int, float]:
        return self._totals[3]

    @property
    def node_timings(self) -> List[NodeTiming]:
        graph, offset = self._graph, self._start_time
        return [NodeTiming(node_id=node_id, name=graph.names[node_id],
                           node_type=graph.types[node_id],
                           start=offset + self._starts[node_id],
                           end=offset + self._ends[node_id],
                           devices=graph.occupied[node_id])
                for node_id in self._order]

    def utilization(self, device_id: int) -> float:
        """Fraction of the makespan a device spent busy."""
        if self.makespan <= 0:
            return 0.0
        return self.device_busy_time.get(device_id, 0.0) / self.makespan

    def mean_utilization(self) -> float:
        """Average utilization across devices that did any work."""
        busy = [t for t in self.device_busy_time.values() if t > 0]
        if not busy or self.makespan <= 0:
            return 0.0
        return sum(busy) / (len(busy) * self.makespan)


class SystemSimulator:
    """Replays an :class:`ExecutionGraph` on the system's devices.

    Parameters
    ----------
    network:
        Timing model for communication nodes.
    """

    def __init__(self, network: Optional[NetworkModel] = None) -> None:
        self.network = network or NetworkModel()

    # -- public API ----------------------------------------------------------

    def simulate(self, graph: ExecutionGraph, start_time: float = 0.0) -> SystemSimulationResult:
        """Run the graph to completion and return timing statistics.

        ``start_time`` offsets all reported times (the serving scheduler
        passes its current clock so node timings are absolute).
        """
        num_nodes = len(graph)
        if num_nodes == 0:
            return SystemSimulationResult(graph, start_time)
        occupied = graph.occupied
        durations = self._durations(graph)
        remaining = [len(deps) for deps in graph.deps]
        dependents: List[List[int]] = [[] for _ in range(num_nodes)]
        for node_id, deps in enumerate(graph.deps):
            for dep in deps:
                dependents[dep].append(node_id)

        busy: Dict[int, bool] = dict.fromkeys(
            [device for devices in sorted(set(occupied)) for device in devices], False)
        # Ready single-device nodes queued behind their busy device.
        ready: Dict[int, Deque[int]] = {device: deque() for device in busy}
        # Ready multi-device nodes waiting for endpoints: node id -> count of
        # its busy devices, and per device the nodes waiting on it.
        waiting: Dict[int, int] = {}
        waiters: Dict[int, List[int]] = {device: [] for device in busy}

        starts = [0.0] * num_nodes
        ends = [0.0] * num_nodes
        order: List[int] = []
        heap: List[Tuple[float, int, int]] = []
        push, pop = heapq.heappush, heapq.heappop
        sequence = 0
        now = 0.0

        # Nodes with no dependencies become ready at time zero, in id order;
        # then each finish makes its dependents ready.  ``released`` holds
        # the nodes a step makes ready, ``freed`` the devices it frees.
        released: Sequence[int] = [node_id for node_id in range(num_nodes)
                                   if not remaining[node_id]]
        freed: Tuple[int, ...] = ()
        while True:
            for node_id in released:
                devices = occupied[node_id]
                if len(devices) == 1:
                    device = devices[0]
                    if busy[device]:
                        ready[device].append(node_id)
                        continue
                    busy[device] = True
                else:
                    busy_count = sum(busy[device] for device in devices)
                    if busy_count:
                        waiting[node_id] = busy_count
                        for device in devices:
                            waiters[device].append(node_id)
                        continue
                    for device in devices:
                        busy[device] = True
                starts[node_id] = now
                push(heap, (now + durations[node_id], sequence, node_id))
                sequence += 1

            for device in freed:
                busy[device] = False
                device_waiters = waiters[device]
                if device_waiters:
                    still_waiting: List[int] = []
                    for node_id in device_waiters:
                        if node_id not in waiting:
                            continue
                        busy_count = waiting[node_id] - 1
                        if busy_count <= 0:
                            # Every endpoint reported free; start unless one
                            # was taken again since (then keep waiting).
                            devices = occupied[node_id]
                            busy_count = sum(busy[d] for d in devices)
                            if not busy_count:
                                del waiting[node_id]
                                for d in devices:
                                    busy[d] = True
                                starts[node_id] = now
                                push(heap, (now + durations[node_id], sequence, node_id))
                                sequence += 1
                                continue
                        waiting[node_id] = busy_count
                        still_waiting.append(node_id)
                    waiters[device] = [node_id for node_id in still_waiting
                                       if node_id in waiting]
                if not busy[device]:
                    queue = ready[device]
                    if queue:
                        node_id = queue.popleft()
                        busy[device] = True
                        starts[node_id] = now
                        push(heap, (now + durations[node_id], sequence, node_id))
                        sequence += 1

            if not heap:
                break
            now, _, node_id = pop(heap)
            ends[node_id] = now
            order.append(node_id)
            released = []
            for child in dependents[node_id]:
                remaining[child] -= 1
                if not remaining[child]:
                    released.append(child)
            freed = occupied[node_id]

        if len(order) != num_nodes:
            missing = num_nodes - len(order)
            raise RuntimeError(f"system simulation deadlocked with {missing} unfinished nodes")
        return SystemSimulationResult(graph, start_time, order, starts, ends, makespan=now)

    # -- helpers ---------------------------------------------------------------

    def _durations(self, graph: ExecutionGraph) -> List[float]:
        """Every node's duration: compute time, or the network model's transfer time."""
        durations = list(graph.durations)
        network = self.network
        payloads, occupied, metadata = graph.payloads, graph.occupied, graph.metadata
        for node_id, node_type in enumerate(graph.types):
            if node_type is GraphNodeType.COMPUTE:
                continue
            payload = payloads[node_id]
            if node_type is GraphNodeType.COLLECTIVE:
                durations[node_id] = network.allreduce_time(payload, len(occupied[node_id]))
            elif node_type is GraphNodeType.P2P:
                if metadata[node_id].get("pool_transfer"):
                    durations[node_id] = network.pool_transfer_time(payload)
                else:
                    durations[node_id] = network.p2p_time(payload)
            else:
                durations[node_id] = network.host_transfer_time(payload)
        return durations
