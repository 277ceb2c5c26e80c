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

Copies of a template block (:meth:`ExecutionGraph.repeat`) are replayed as
straight-line code where that is provably what the heap would do.  Call a
pop *quiescent* when, once it is taken, the heap is empty, no multi-device
node waits, no node is queued and the popped node's devices are still
marked busy, so that the replay's whole state is known.  When the pops of a
template's entry (the node just before it) and exit (its last node) are
both quiescent, the heap replay of the template is recorded: each node's
*trigger* (the node whose pop dispatched it), its push sequence relative to
the entry, and the pop order.  Each copy is then evaluated in that pop
order as ``start[n] = end[trigger[n]]`` and ``end[n] = start[n] +
duration[n]``, and accepted only if its ``(end, relative sequence)`` keys
strictly increase along the order: then the heap would pop the same
sequence, so every dispatch decision and every float operation is the same.
A copy whose entry is not quiescent, or whose keys are out of order (a
near-tie that rounds the other way), is replayed by the heap from its
entry; the next copy is tried again.

The output is the iteration's end-to-end latency (makespan) plus per-device
utilization and a communication/computation breakdown — the statistics the
LLMServingSim scheduler feeds back into its clock to schedule the next
iteration.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
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

    The replay records each node's end, the start of each node the heap
    dispatched, the order the heap popped nodes in, and where accepted
    copies of a template finished; the completion order, the copies'
    starts and everything else are derived from those on first access.

    Attributes
    ----------
    makespan:
        End-to-end latency of the graph in seconds.
    num_events:
        Number of node completions processed (one per node, copies included).
    accepted_copies / heap_replayed_copies:
        Copies of template blocks evaluated as straight-line code, and
        copies the heap replayed instead.
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
                 ends: Sequence[float] = (), makespan: float = 0.0,
                 copies: Sequence[Tuple[int, int, "_Recording"]] = (),
                 heap_replayed_copies: int = 0) -> None:
        self.makespan = makespan
        self.num_events = len(order) + sum(len(recording.steps) for _, _, recording in copies)
        self.accepted_copies = len(copies)
        self.heap_replayed_copies = heap_replayed_copies
        self._graph = graph
        self._start_time = start_time
        self._heap_order = order
        self._starts = starts
        self._ends = ends
        #: ``(position in the heap order, first node, recording)`` per accepted copy.
        self._copies = copies

    @cached_property
    def _order(self) -> List[int]:
        """Every node in completion order; also fills in the accepted copies' starts."""
        if not self._copies:
            return list(self._heap_order)
        order: List[int] = []
        starts, ends, heap_order = self._starts, self._ends, self._heap_order
        done = 0
        for position, base, recording in self._copies:
            order.extend(heap_order[done:position])
            done = position
            order.extend([base + node for node in recording.pop_order])
            for node, trigger in enumerate(recording.triggers):
                starts[base + node] = ends[base + trigger]
        order.extend(heap_order[done:])
        return order

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
        order = self._order
        names = graph.names
        return [NodeTiming(node_id=node_id, name=names[node_id],
                           node_type=graph.types[node_id],
                           start=offset + self._starts[node_id],
                           end=offset + self._ends[node_id],
                           devices=graph.occupied[node_id])
                for node_id in order]

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


class _Recording:
    """A straight-line program learnt from one quiescent heap replay of a copy.

    ``steps`` holds one ``(node + 1, trigger + 1, duration, later)`` per node
    in pop order, with node and trigger relative to the copy (trigger ``-1``
    is the copy's entry) and ``later`` telling whether the node was pushed
    after the node popped before it.
    """

    def __init__(self, nodes: Sequence[int], pops: Sequence[Tuple[int, int]],
                 entry_sequence: int, base: int, durations: Sequence[float]) -> None:
        """Learn from one heap replay of the copy whose first node is ``base``.

        ``nodes`` are the copy's nodes in pop order; ``pops`` holds per pop
        the node's push sequence and the sequence counter when it was
        popped; ``entry_sequence`` is the counter at the entry's pop.  A
        node was dispatched by the last pop at or below its push sequence.
        """
        counters = [entry_sequence] + [counter for _, counter in pops]
        self.steps: List[Tuple[int, int, float, bool]] = []
        #: Relative nodes in pop order, and per relative node its trigger.
        self.pop_order = [node - base for node in nodes]
        self.triggers = [0] * len(nodes)
        previous = -1
        for node, (pushed, _) in zip(nodes, pops):
            popped_before = bisect_right(counters, pushed) - 1
            trigger = nodes[popped_before - 1] - base if popped_before else -1
            self.steps.append((node - base + 1, trigger + 1, durations[node], pushed > previous))
            self.triggers[node - base] = trigger
            previous = pushed
        self._ends = [0.0] * (len(nodes) + 1)

    def evaluate(self, entry_end: float) -> Optional[List[float]]:
        """A copy's end times (index 0 is its entry's), or None if its pop order differs."""
        ends = self._ends
        ends[0] = last = entry_end
        for node, trigger, duration, later in self.steps:
            end = ends[trigger] + duration
            if end <= last and (end < last or not later):
                return None
            ends[node] = end
            last = end
        return ends


class _Template:
    """Replay state of one template and its copies (see the module docstring).

    Copy ``k`` (``0`` is the template itself) is nodes ``start + k * size``
    to ``start + (k + 1) * size - 1``; its entry is the node just before.
    """

    def __init__(self, start: int, size: int, copies: int) -> None:
        self.start = start
        self.size = size
        self.copies = copies
        #: The latest quiescent heap replay of the template or a copy.
        self.recording: Optional[_Recording] = None
        #: Per relative node ``-1..size-1`` (index + 1), the relative nodes
        #: that depend on it; built when a copy is first handed to the heap.
        self._children: Optional[List[List[int]]] = None
        self._remaining: List[int] = []

    def prepare_heap_copy(self, base: int, deps: Sequence[Tuple[int, ...]],
                          remaining: List[int], dependents: List[Sequence[int]]) -> None:
        """Give the heap copy ``base``'s dependency counts and dependents."""
        size = self.size
        if self._children is None:
            start = self.start
            children: List[List[int]] = [[] for _ in range(size + 1)]
            for node in range(size):
                for dep in deps[start + node]:
                    children[dep - start + 1].append(node)
            self._children = children
            self._remaining = [len(deps[start + node]) for node in range(size)]
        remaining[base:base + size] = self._remaining
        for node, nodes in enumerate(self._children, start=base - 1):
            if nodes:
                dependents[node] = [base + child for child in nodes]


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
        deps_of = graph.stored_deps
        # Dependency counts and dependents of every node outside the copies;
        # a copy gets its own only if the heap replays it.
        originals = _originals(graph)
        durations = self._durations(graph, originals)
        remaining = [0] * num_nodes
        dependents: List[Sequence[int]] = [()] * num_nodes
        for first, last in originals:
            remaining[first:last] = [len(deps) for deps in deps_of[first:last]]
            for node_id in range(first, last):
                for dep in deps_of[node_id]:
                    if dependents[dep]:
                        dependents[dep].append(node_id)
                    else:
                        dependents[dep] = [node_id]
        # Entry node of copy k of a template -> (template, k); k = 0 is the
        # template itself.
        entries: Dict[int, Tuple[_Template, int]] = {}
        for start, size, copies in graph.repeats:
            template = _Template(start, size, copies)
            for copy in range(copies + 1):
                entries[start + copy * size - 1] = (template, copy)

        placements = {devices for first, last in originals for devices in occupied[first:last]}
        busy: Dict[int, bool] = dict.fromkeys(
            [device for devices in sorted(placements) for device in devices], False)
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
        # Accepted copies as (position in ``order``, first node, recording),
        # and the count of copies the heap replayed.
        accepted: List[Tuple[int, int, _Recording]] = []
        heap_copies = 0
        # The copy whose heap replay is being recorded: its template, copy
        # number, entry sequence counter and position in ``order``; and per
        # pop since its entry, the popped node's push sequence and the
        # counter at the pop.
        recording: Optional[Tuple[_Template, int, int, int]] = None
        pops: Optional[List[Tuple[int, int]]] = None

        # Nodes with no dependencies become ready at time zero, in id order;
        # then each finish makes its dependents ready.  ``released`` holds
        # the nodes a step makes ready, ``freed`` the devices it frees.
        released: Sequence[int] = [node_id for first, last in originals
                                   for node_id in range(first, last) if not remaining[node_id]]
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
            now, pushed, node_id = pop(heap)
            ends[node_id] = now
            order.append(node_id)
            if pops is not None:
                pops.append((pushed, sequence))
            if node_id in entries:
                template, copy = entries[node_id]
                # Nothing else in flight, and the popped node's devices still
                # marked busy (a node that lists a device twice frees it twice).
                quiescent = (not heap and not waiting and not any(ready.values())
                             and all(busy[device] for device in occupied[node_id]))
                if recording is not None:
                    # This pop ends the recorded copy if it is that copy's
                    # exit, quiescent, and the copy's nodes were all it popped.
                    recorded, recorded_copy, entry_sequence, position = recording
                    base = recorded.start + recorded_copy * recorded.size
                    nodes = order[position:]
                    if (recorded is template and recorded_copy == copy - 1 and quiescent
                            and len(nodes) == template.size
                            and all(base <= node < base + template.size for node in nodes)):
                        template.recording = _Recording(nodes, pops, entry_sequence, base,
                                                        durations)
                    recording = pops = None
                size = template.size
                while 0 < copy <= template.copies:
                    # The pop of ``node_id`` is copy ``copy``'s entry.
                    base = template.start + copy * size
                    program = template.recording
                    copy_ends = (program.evaluate(now)
                                 if quiescent and program is not None else None)
                    if copy_ends is None:
                        heap_copies += 1
                        template.prepare_heap_copy(base, deps_of, remaining, dependents)
                        break
                    ends[base:base + size] = copy_ends[1:]
                    accepted.append((len(order), base, program))
                    sequence += size
                    node_id = base + size - 1
                    now = ends[node_id]
                    copy += 1
                # Record a heap replay of the template (unless its entry and
                # exit occupy different devices) or of a copy, for the copies
                # after it.
                if (quiescent and copy < template.copies
                        and (copy or occupied[node_id] == occupied[node_id + size])):
                    recording = (template, copy, sequence, len(order))
                    pops = []
            released = []
            for child in dependents[node_id]:
                remaining[child] -= 1
                if not remaining[child]:
                    released.append(child)
            freed = occupied[node_id]

        result = SystemSimulationResult(graph, start_time, order, starts, ends, makespan=now,
                                        copies=accepted, heap_replayed_copies=heap_copies)
        if result.num_events != num_nodes:
            missing = num_nodes - result.num_events
            raise RuntimeError(f"system simulation deadlocked with {missing} unfinished nodes")
        return result

    # -- helpers ---------------------------------------------------------------

    def _durations(self, graph: ExecutionGraph,
                   originals: Sequence[Tuple[int, int]]) -> List[float]:
        """Every node's duration: compute time, or the network model's transfer time.

        Computed for the nodes in ``originals`` and repeated for the copies.
        """
        durations = list(graph.durations)
        network = self.network
        types, payloads, occupied = graph.types, graph.payloads, graph.occupied
        metadata = graph.stored_metadata
        for first, last in originals:
            for node_id in range(first, last):
                node_type = types[node_id]
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
        for start, size, copies in graph.repeats:
            durations[start + size:start + (copies + 1) * size] = (
                durations[start:start + size] * copies)
        return durations


def _originals(graph: ExecutionGraph) -> List[Tuple[int, int]]:
    """The ``[first, last)`` node ranges outside every template's copies."""
    ranges: List[Tuple[int, int]] = []
    first = 0
    for start, size, copies in graph.repeats:
        ranges.append((first, start + size))
        first = start + (copies + 1) * size
    ranges.append((first, len(graph)))
    return ranges
