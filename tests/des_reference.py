"""Reference discrete-event replay of an execution graph (test-only).

This is the system simulator the flat replay in
:mod:`repro.system.simulator` replaced: a closure per node, an
:class:`EventQueue` of timed events, and :class:`~repro.graph.GraphNode`
objects read one at a time.  It is kept verbatim, reading graphs through
the on-demand ``GraphNode`` views, so the differential tests can check the
replay against it with exact float equality.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.graph.execgraph import ExecutionGraph, GraphNode, GraphNodeType
from repro.system.network import NetworkModel
from repro.system.simulator import NodeTiming

__all__ = ["Event", "EventQueue", "ReferenceResult", "reference_simulate"]


@dataclass(order=True)
class Event:
    """One scheduled event.

    Events compare by ``(time, sequence)`` so two events scheduled for the
    same instant fire in scheduling order.
    """

    time: float
    sequence: int
    action: Callable[[], Any] = field(compare=False)
    label: str = field(default="", compare=False)


class EventQueue:
    """A deterministic priority queue of timed events."""

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._counter = itertools.count()
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulated time (time of the last popped event)."""
        return self._now

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def schedule(self, time: float, action: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``action`` to run at simulated ``time``.

        Raises
        ------
        ValueError
            If the event is scheduled in the past.
        """
        if time < self._now - 1e-12:
            raise ValueError(f"cannot schedule event at {time} before current time {self._now}")
        event = Event(time=max(time, self._now), sequence=next(self._counter),
                      action=action, label=label)
        heapq.heappush(self._heap, event)
        return event

    def schedule_after(self, delay: float, action: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule(self._now + delay, action, label)

    def pop(self) -> Event:
        """Remove and return the next event, advancing simulated time."""
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        event = heapq.heappop(self._heap)
        self._now = event.time
        return event

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Drain the queue, executing event actions in time order.

        Parameters
        ----------
        until:
            Stop once the next event is later than this time (the event stays
            queued).
        max_events:
            Safety limit on the number of events processed.

        Returns
        -------
        int
            The number of events executed.
        """
        executed = 0
        while self._heap:
            if until is not None and self._heap[0].time > until:
                break
            if max_events is not None and executed >= max_events:
                break
            event = self.pop()
            event.action()
            executed += 1
        return executed


@dataclass
class ReferenceResult:
    """The reference's statistics, with ``node_timings`` filled eagerly."""

    makespan: float = 0.0
    compute_time: float = 0.0
    comm_time: float = 0.0
    memory_time: float = 0.0
    device_busy_time: Dict[int, float] = field(default_factory=dict)
    node_timings: List[NodeTiming] = field(default_factory=list)
    num_events: int = 0


def reference_simulate(graph: ExecutionGraph, network: Optional[NetworkModel] = None,
                       start_time: float = 0.0) -> ReferenceResult:
    """Run the graph to completion with the discrete-event engine."""
    network = network or NetworkModel()
    graph.validate()
    result = ReferenceResult()
    if len(graph) == 0:
        return result
    views = {node.node_id: node for node in graph}

    queue = EventQueue()
    remaining_deps: Dict[int, int] = {}
    dependents: Dict[int, List[int]] = {}
    for node in views.values():
        remaining_deps[node.node_id] = len(node.deps)
        for dep in node.deps:
            dependents.setdefault(dep, []).append(node.node_id)

    device_busy: Dict[int, bool] = {}
    # FIFO of ready single-device nodes per busy device.
    ready_per_device: Dict[int, Deque[int]] = {}
    # Ready multi-device nodes (collectives, P2P) waiting for endpoints:
    # node id -> number of its devices currently busy, plus a reverse index
    # from each device to the waiting nodes that include it.
    waiting_multi_busy: Dict[int, int] = {}
    multi_waiters_by_device: Dict[int, List[int]] = {}
    finished: Set[int] = set()

    def devices_of(node: GraphNode) -> Tuple[int, ...]:
        if node.node_type is GraphNodeType.COLLECTIVE:
            return tuple(node.comm_group)
        if node.node_type is GraphNodeType.P2P and node.peer_device is not None:
            return (node.device, node.peer_device)
        return (node.device,)

    def node_duration(node: GraphNode) -> float:
        if node.node_type is GraphNodeType.COMPUTE:
            return node.duration
        if node.node_type is GraphNodeType.COLLECTIVE:
            return network.allreduce_time(node.comm_bytes, len(node.comm_group))
        if node.node_type is GraphNodeType.P2P:
            if node.metadata.get("pool_transfer"):
                return network.pool_transfer_time(node.comm_bytes)
            return network.p2p_time(node.comm_bytes)
        if node.node_type is GraphNodeType.MEMORY:
            return network.host_transfer_time(node.comm_bytes)
        raise ValueError(f"unknown node type {node.node_type}")

    def start_node(node: GraphNode, devices: Tuple[int, ...]) -> None:
        duration = node_duration(node)
        start = queue.now
        for d in devices:
            device_busy[d] = True
        queue.schedule_after(duration, lambda n=node, s=start, devs=devices: finish(n, s, devs),
                             label=node.name)

    def make_ready(node_id: int) -> None:
        node = views[node_id]
        devices = devices_of(node)
        if len(devices) > 1:
            busy_count = sum(1 for d in devices if device_busy.get(d, False))
            if busy_count == 0:
                start_node(node, devices)
            else:
                waiting_multi_busy[node_id] = busy_count
                for d in devices:
                    multi_waiters_by_device.setdefault(d, []).append(node_id)
        else:
            device = devices[0]
            if device_busy.get(device, False):
                ready_per_device.setdefault(device, deque()).append(node_id)
            else:
                start_node(node, devices)

    def release_device(device: int) -> None:
        """Hand a freed device to the next waiter (multi-device first)."""
        device_busy[device] = False
        # Multi-device waiters that include this device lose one busy count.
        waiters = multi_waiters_by_device.get(device)
        if waiters:
            still_waiting: List[int] = []
            for node_id in waiters:
                if node_id not in waiting_multi_busy:
                    continue
                waiting_multi_busy[node_id] -= 1
                if waiting_multi_busy[node_id] <= 0:
                    node = views[node_id]
                    devices = devices_of(node)
                    # All endpoints reported free; start unless a race
                    # re-occupied one (then it re-enters waiting).
                    busy_count = sum(1 for d in devices if device_busy.get(d, False))
                    if busy_count == 0:
                        del waiting_multi_busy[node_id]
                        start_node(node, devices)
                        continue
                    waiting_multi_busy[node_id] = busy_count
                still_waiting.append(node_id)
            multi_waiters_by_device[device] = [n for n in still_waiting
                                               if n in waiting_multi_busy]
        # Single-device queue of this device.
        if not device_busy.get(device, False):
            ready = ready_per_device.get(device)
            if ready:
                node_id = ready.popleft()
                node = views[node_id]
                start_node(node, devices_of(node))

    def finish(node: GraphNode, start: float, devices: Tuple[int, ...]) -> None:
        end = queue.now
        duration = end - start
        for d in devices:
            result.device_busy_time[d] = result.device_busy_time.get(d, 0.0) + duration
        if node.node_type is GraphNodeType.COMPUTE:
            result.compute_time += duration
        elif node.node_type is GraphNodeType.MEMORY:
            result.memory_time += duration
        else:
            result.comm_time += duration * len(devices)
        result.node_timings.append(NodeTiming(
            node_id=node.node_id, name=node.name, node_type=node.node_type,
            start=start_time + start, end=start_time + end, devices=devices))
        finished.add(node.node_id)
        for child in dependents.get(node.node_id, ()):  # release dependents
            remaining_deps[child] -= 1
            if remaining_deps[child] == 0:
                make_ready(child)
        for d in devices:
            release_device(d)

    # Seed: every node with no dependencies is ready at time zero.
    for node in views.values():
        if remaining_deps[node.node_id] == 0:
            make_ready(node.node_id)

    result.num_events = queue.run()
    if len(finished) != len(graph):
        missing = len(graph) - len(finished)
        raise RuntimeError(f"system simulation deadlocked with {missing} unfinished nodes")
    result.makespan = queue.now
    return result
