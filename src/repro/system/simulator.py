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
pop *settled* when, once it is taken, the heap is empty, no node is queued,
the popped node's devices are still marked busy and every waiting
multi-device node belongs to a template or one of its copies.  The
replay's whole state is then the popped node plus the waiting nodes, in
the order they started waiting, with their busy counts.  A *window* of a
template runs from the pop of one copy's entry (the node just before it)
to the pop of that copy's exit (its last node); its pops may include nodes
of other templates' copies, such as a second sub-batch chain that shares
the devices.  When both ends of a window are settled and every node it
pops belongs to a template or a copy, its heap replay is recorded: each
node's *trigger* (the pop that dispatched it), its push sequence relative
to the entry, the pop order and the waiting sets at both ends.  A later
window, whose nodes are the recorded ones shifted by the same number of
copies in every template involved, is evaluated in that pop order as
``start[n] = end[trigger[n]]`` and ``end[n] = start[n] + duration[n]``,
and accepted only if its entry's waiting set (with the busy counts) is the
recorded one shifted the same way and its ``(end, relative sequence)``
keys strictly increase along the order: then the heap would pop the same
sequence, so every dispatch decision and every float operation is the
same.  Otherwise the heap resumes from the window's entry; when accepted
windows came before, the waiting nodes and the dependency counts of every
partly run copy are restored first.  With one sub-batch chain the waiting
sets are empty.

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

    The replay records each node's end and start where the heap popped it,
    the order the heap popped nodes in, and the end times of each window it
    evaluated as straight-line code; the completion order, those windows'
    starts and ends per node and everything else are derived from them on
    first access.

    Attributes
    ----------
    makespan:
        End-to-end latency of the graph in seconds.
    num_events:
        Number of node completions processed (one per node, copies included).
    accepted_windows / accepted_nodes:
        Windows evaluated as straight-line code, and the nodes they covered.
    heap_replayed_windows:
        Copies whose entry the heap popped and whose window it replayed.
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
                 windows: Sequence[Tuple[int, "_Recording", int, List[float]]] = (),
                 heap_replayed_windows: int = 0) -> None:
        self.makespan = makespan
        self.accepted_windows = len(windows)
        self.accepted_nodes = sum(len(program.nodes) for _, program, _, _ in windows)
        self.num_events = len(order) + self.accepted_nodes
        self.heap_replayed_windows = heap_replayed_windows
        self._graph = graph
        self._start_time = start_time
        self._heap_order = order
        self._starts = starts
        self._ends = ends
        #: ``(position in the heap order, recording, shift, end times)`` per
        #: accepted window (see :meth:`_Recording.evaluate`).
        self._windows = windows

    @cached_property
    def _order(self) -> List[int]:
        """Every node in completion order; also fills in the windows' starts and ends."""
        if not self._windows:
            return list(self._heap_order)
        order: List[int] = []
        starts, ends, heap_order = self._starts, self._ends, self._heap_order
        done = 0
        for position, program, shift, window_ends in self._windows:
            order.extend(heap_order[done:position])
            done = position
            nodes = program.shifted(shift)
            order.extend(nodes)
            for index, (node, trigger) in enumerate(zip(nodes, program.triggers), start=1):
                starts[node] = window_ends[trigger]
                ends[node] = window_ends[index]
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


class _Template:
    """Replay state of one template and its copies (see the module docstring).

    Copy ``k`` (``0`` is the template itself) is nodes ``start + k * size``
    to ``start + (k + 1) * size - 1``; its entry is the node just before.
    """

    def __init__(self, start: int, size: int, copies: int) -> None:
        self.start = start
        self.size = size
        self.copies = copies
        #: One past the last copy's last node.
        self.end = start + (copies + 1) * size
        #: The latest recorded heap replay of one of this template's windows.
        self.recording: Optional[_Recording] = None
        #: Per relative node ``-1..size-1`` (index + 1), the relative nodes
        #: that depend on it, and per relative node its dependencies inside
        #: the template; built when a copy is first handed to the heap.
        self._children: Optional[List[List[int]]] = None
        self._inner_deps: List[Tuple[int, ...]] = []
        self._remaining: List[int] = []

    def _structure(self, deps: Sequence[Tuple[int, ...]]) -> None:
        if self._children is None:
            start, size = self.start, self.size
            children: List[List[int]] = [[] for _ in range(size + 1)]
            for node in range(size):
                for dep in deps[start + node]:
                    children[dep - start + 1].append(node)
            self._children = children
            self._inner_deps = [tuple(dep - start for dep in deps[start + node] if dep >= start)
                                for node in range(size)]
            self._remaining = [len(deps[start + node]) for node in range(size)]

    def _give_dependents(self, base: int, dependents: List[Sequence[int]]) -> None:
        for node, nodes in enumerate(self._children, start=base - 1):
            if nodes:
                dependents[node] = [base + child for child in nodes]

    def prepare_heap_copy(self, copy: int, deps: Sequence[Tuple[int, ...]],
                          remaining: List[int], dependents: List[Sequence[int]]) -> None:
        """Give the heap copy ``copy``'s dependency counts and dependents as its entry pops."""
        self._structure(deps)
        base = self.start + copy * self.size
        remaining[base:base + self.size] = self._remaining
        self._give_dependents(base, dependents)

    def restore_heap_copy(self, copy: int, waiting: Sequence[int],
                          deps: Sequence[Tuple[int, ...]], remaining: List[int],
                          dependents: List[Sequence[int]]) -> None:
        """Hand the heap the rest of copy ``copy``, partly run as straight-line code.

        ``waiting`` are the copy's waiting nodes, relative to the copy.  Its
        unfinished nodes are those and the nodes that depend on them inside
        the copy; each of the latter counts its unfinished dependencies.
        """
        self._structure(deps)
        base = self.start + copy * self.size
        unfinished = [False] * self.size
        for node in waiting:
            unfinished[node] = True
        inner_deps = self._inner_deps
        for node in range(min(waiting) + 1, self.size):
            if not unfinished[node]:
                count = sum(unfinished[dep] for dep in inner_deps[node])
                if count:
                    unfinished[node] = True
                    remaining[base + node] = count
        if copy:
            self._give_dependents(base, dependents)


class _Recording:
    """A straight-line program learnt from one settled heap replay of a window.

    ``steps`` holds one ``(i, trigger, duration, later)`` per pop, the
    ``i``-th, with ``trigger`` the position of the pop that dispatched the
    node (``0`` is the window's entry) and ``later`` telling
    whether the node was pushed after the node popped before it.  The window
    ``shift`` copies later pops node ``nodes[i] + shift * sizes[i]``, where
    ``sizes[i]`` is the size of the template that node belongs to.
    """

    def __init__(self, copy: int, nodes: List[int], sizes: List[int], reach: int,
                 pops: Sequence[Tuple[int, int]], entry_sequence: int,
                 durations: Sequence[float], waiting: List[Tuple[int, int, int]],
                 exit_waiting: List[Tuple[int, int, int]]) -> None:
        #: The anchor template's copy whose window this is.
        self.copy = copy
        self.nodes = nodes
        self.sizes = sizes
        #: The largest shift at which every node stays inside its template's copies.
        self.reach = reach
        #: ``(node, template size, busy count)`` per node waiting at the
        #: entry and at the exit, in the order they started waiting.
        self.waiting = waiting
        self.exit_waiting = exit_waiting
        #: Whether each window's exit state is the next window's entry state.
        self.periodic = _shifted(exit_waiting, 0) == _shifted(waiting, 1)
        counters = [entry_sequence] + [counter for _, counter in pops]
        self.steps: List[Tuple[int, int, float, bool]] = []
        self.triggers: List[int] = []
        previous = -1
        for index, (node, (pushed, _)) in enumerate(zip(nodes, pops), start=1):
            # A node was dispatched by the last pop at or below its push sequence.
            trigger = bisect_right(counters, pushed) - 1
            self.steps.append((index, trigger, durations[node], pushed > previous))
            self.triggers.append(trigger)
            previous = pushed

    def shifted(self, shift: int) -> List[int]:
        """The nodes the window ``shift`` copies later pops, in pop order."""
        return [node + shift * size for node, size in zip(self.nodes, self.sizes)]

    def evaluate(self, entry_end: float) -> Optional[List[float]]:
        """A window's end times in pop order (index 0 is its entry's); None if the order differs."""
        ends = [entry_end] * (len(self.steps) + 1)
        last = entry_end
        for index, trigger, duration, later in self.steps:
            end = ends[trigger] + duration
            if end <= last and (end < last or not later):
                return None
            ends[index] = end
            last = end
        return ends


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
        templates = [_Template(start, size, copies) for start, size, copies in graph.repeats]
        entries: Dict[int, Tuple[_Template, int]] = {}
        for template in templates:
            for copy in range(template.copies + 1):
                entries[template.start + copy * template.size - 1] = (template, copy)

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
        # Accepted windows as (position in ``order``, recording, shift, end
        # times), and the count of windows the heap replayed.
        accepted: List[Tuple[int, _Recording, int, List[float]]] = []
        heap_windows = 0
        # The window whose heap replay is being recorded: its template, copy
        # number, entry sequence counter, position in ``order`` and waiting
        # set at the entry; and per pop since its entry, the popped node's
        # push sequence and the counter at the pop.
        recording: Optional[Tuple[_Template, int, int, int, List[Tuple[int, int, int]]]] = None
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
                # Nothing else in flight but waiting copy nodes, and the
                # popped node's devices still marked busy (a node that lists
                # a device twice frees it twice).
                state = (_copy_waiting(templates, waiting)
                         if (not heap and not any(ready.values())
                             and all(busy[device] for device in occupied[node_id]))
                         else None)
                if recording is not None and recording[0] is template:
                    # This pop ends the recorded window if it is the window's
                    # exit and settled.
                    _, recorded_copy, entry_sequence, position, entry_state = recording
                    if state is not None and copy == recorded_copy + 1:
                        program = _learn(templates, template, recorded_copy, order[position:],
                                         pops, entry_sequence, durations, entry_state, state)
                        if program is not None:
                            template.recording = program
                    recording = pops = None
                program = template.recording
                if state is not None and copy and program is not None:
                    shift = copy - program.copy
                    if (shift <= program.reach
                            and _shifted(state, 0) == _shifted(program.waiting, shift)):
                        first = len(accepted)
                        while True:
                            window_ends = program.evaluate(now)
                            if window_ends is None:
                                break
                            accepted.append((len(order), program, shift, window_ends))
                            sequence += len(program.steps)
                            now = window_ends[-1]
                            copy += 1
                            if not (program.periodic and shift < program.reach):
                                break
                            shift += 1
                        if len(accepted) > first:
                            # The replay now stands at the settled pop of the
                            # last accepted window's exit.
                            recording = pops = None
                            node_id = template.start + copy * template.size - 1
                            shift = accepted[-1][2]
                            state = [(node + shift * size, size, count)
                                     for node, size, count in program.exit_waiting]
                            if state or waiting:
                                _restore(templates, state, waiting, waiters, occupied,
                                         deps_of, remaining, dependents)
                if 0 < copy <= template.copies:
                    heap_windows += 1
                    template.prepare_heap_copy(copy, deps_of, remaining, dependents)
                # Record the heap replay of this window (unless the template's
                # entry and exit occupy different devices), for the windows
                # after it.
                if (state is not None and recording is None and copy < template.copies
                        and (copy or occupied[node_id] == occupied[node_id + template.size])):
                    recording = (template, copy, sequence, len(order), state)
                    pops = []
            released = []
            for child in dependents[node_id]:
                remaining[child] -= 1
                if not remaining[child]:
                    released.append(child)
            freed = occupied[node_id]

        result = SystemSimulationResult(graph, start_time, order, starts, ends, makespan=now,
                                        windows=accepted, heap_replayed_windows=heap_windows)
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


def _locate(templates: Sequence[_Template], node: int) -> Optional[Tuple[_Template, int, int]]:
    """The template, copy and position of a template or copy node; None for other nodes."""
    for template in templates:
        if template.start <= node < template.end:
            copy, position = divmod(node - template.start, template.size)
            return template, copy, position
    return None


def _copy_waiting(templates: Sequence[_Template], waiting: Dict[int, int]
                  ) -> Optional[List[Tuple[int, int, int]]]:
    """``(node, template size, busy count)`` per waiting node; None if one is outside every copy."""
    state: List[Tuple[int, int, int]] = []
    for node, count in waiting.items():
        place = _locate(templates, node)
        if place is None:
            return None
        state.append((node, place[0].size, count))
    return state


def _shifted(state: Sequence[Tuple[int, int, int]], shift: int) -> List[Tuple[int, int]]:
    """Waiting nodes and busy counts ``shift`` copies later."""
    return [(node + shift * size, count) for node, size, count in state]


def _learn(templates: Sequence[_Template], template: _Template, copy: int, nodes: List[int],
           pops: Sequence[Tuple[int, int]], entry_sequence: int, durations: Sequence[float],
           waiting: List[Tuple[int, int, int]], exit_waiting: List[Tuple[int, int, int]]
           ) -> Optional[_Recording]:
    """Record the heap replay of ``template``'s window ``copy``, if later windows can use it.

    Every popped and waiting node must belong to a template or a copy.  A
    window ``shift`` copies later must keep each of them inside its
    template's copies, and each exit it pops before its own exit (whose
    dependents the next copy of that template holds) before the last copy's.
    """
    reach = template.copies - copy
    base = template.start + copy * template.size
    if base <= min(nodes) and max(nodes) < base + template.size:
        # Only the copy's own nodes, the exit last.
        sizes = [template.size] * len(nodes)
    else:
        sizes = []
        exit_node = nodes[-1]
        for node in nodes:
            place = _locate(templates, node)
            if place is None:
                return None
            owner, owner_copy, position = place
            sizes.append(owner.size)
            reach = min(reach, owner.copies - owner_copy
                        - (position == owner.size - 1 and node != exit_node))
    for node, size, _ in waiting + exit_waiting:
        owner, owner_copy, _ = _locate(templates, node)
        reach = min(reach, owner.copies - owner_copy)
    if reach < 1:
        return None
    return _Recording(copy, nodes, sizes, reach, pops, entry_sequence, durations, waiting,
                      exit_waiting)


def _restore(templates: Sequence[_Template], state: Sequence[Tuple[int, int, int]],
             waiting: Dict[int, int], waiters: Dict[int, List[int]],
             occupied: Sequence[Tuple[int, ...]], deps: Sequence[Tuple[int, ...]],
             remaining: List[int], dependents: List[Sequence[int]]) -> None:
    """Give the heap the state after accepted windows: ``state`` waits, in that order.

    Rebuilds the waiting nodes with their busy counts, the per-device
    waiter lists, and the dependency counts and dependents of every copy
    the windows left partly run: the copies that hold a waiting node.
    """
    waiting.clear()
    for device_waiters in waiters.values():
        device_waiters.clear()
    partly_run: Dict[Tuple[_Template, int], List[int]] = {}
    for node, _, count in state:
        waiting[node] = count
        for device in occupied[node]:
            waiters[device].append(node)
        owner, copy, position = _locate(templates, node)
        partly_run.setdefault((owner, copy), []).append(position)
    for (owner, copy), positions in partly_run.items():
        owner.restore_heap_copy(copy, positions, deps, remaining, dependents)


def _originals(graph: ExecutionGraph) -> List[Tuple[int, int]]:
    """The ``[first, last)`` node ranges outside every template's copies."""
    ranges: List[Tuple[int, int]] = []
    first = 0
    for start, size, copies in graph.repeats:
        ranges.append((first, start + size))
        first = start + (copies + 1) * size
    ranges.append((first, len(graph)))
    return ranges
