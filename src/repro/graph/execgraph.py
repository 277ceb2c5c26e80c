"""Execution graph representation (the Chakra-graph substitute).

The graph converter lowers hardware-simulation traces into an execution
graph whose nodes are compute intervals, collective communications,
point-to-point transfers and host<->device memory movements, each placed on
a specific device of the system topology.  The system simulator
(:mod:`repro.system.simulator`) replays this graph to produce the
iteration's end-to-end latency.

The representation intentionally mirrors Chakra execution traces: nodes have
explicit data dependencies and a device placement, and communication nodes
carry byte counts rather than durations (the network model assigns their
timing during system simulation).

Nodes are stored as parallel per-node lists indexed by node id, so building
and replaying a graph allocates no object per node.  A dependency may only
point at an earlier node, which makes every graph acyclic by construction
and node-id order a topological order.

A run of identical decoder blocks is stored as one laid-out *template* and
a count of *copies* (:meth:`ExecutionGraph.repeat`).  The copies have node
ids and their types, devices, durations and payloads are filled in by list
repetition; their dependencies, names and metadata are built only when
something reads them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence,
                    Set, Tuple)

__all__ = ["GraphNodeType", "GraphNode", "ExecutionGraph"]

#: ``relabel(copy, names, metadata)`` gives copy ``copy``'s node names and
#: metadata from the template's (see :meth:`ExecutionGraph.repeat`).
Relabel = Callable[[int, List[str], List[Mapping[str, object]]],
                   Tuple[List[str], List[Mapping[str, object]]]]


class GraphNodeType(enum.Enum):
    """Kind of work a graph node represents."""

    COMPUTE = "compute"          # fixed-duration compute on one device
    COLLECTIVE = "collective"    # all-reduce / all-gather across a device group
    P2P = "p2p"                  # point-to-point activation transfer
    MEMORY = "memory"            # host<->device KV-page transfer


@dataclass
class GraphNode:
    """A snapshot view of one node, built on demand by :class:`ExecutionGraph`.

    Attributes
    ----------
    node_id:
        Unique integer id within the graph.
    name:
        Human-readable label (operator name, collective name, ...).
    node_type:
        The :class:`GraphNodeType`.
    device:
        Id of the device executing the node.  For collectives this is the
        device *initiating* the collective; the participating group is given
        by ``comm_group``.
    duration:
        Pre-computed execution time in seconds for COMPUTE nodes (assigned by
        the execution engine stack).  Zero for communication nodes, whose
        timing is derived from ``comm_bytes`` by the network model.
    comm_bytes:
        Payload size for COLLECTIVE / P2P / MEMORY nodes.
    comm_group:
        Devices participating in a collective.
    peer_device:
        Destination device for P2P nodes (source is ``device``).
    deps:
        Ids of nodes that must complete before this node may start.
    metadata:
        Free-form annotations (phase, block index, request id, ...).
    """

    node_id: int
    name: str
    node_type: GraphNodeType
    device: int
    duration: float = 0.0
    comm_bytes: float = 0.0
    comm_group: Sequence[int] = field(default_factory=tuple)
    peer_device: Optional[int] = None
    deps: Set[int] = field(default_factory=set)
    metadata: Dict[str, object] = field(default_factory=dict)


class ExecutionGraph:
    """A DAG of device-placed nodes stored as parallel per-node lists.

    Node ``i`` is described by ``types[i]``, ``occupied[i]`` (the devices it
    occupies while it runs: one for compute and memory nodes, the group for
    a collective, source and destination for a P2P transfer),
    ``durations[i]`` (compute time; zero for communication), ``payloads[i]``
    (communication bytes; zero for compute), ``deps[i]``, ``names[i]`` and
    ``metadata[i]``.  Metadata mappings may be shared between nodes and are
    read-only.

    Build graphs with :meth:`add_compute`, :meth:`add_collective`,
    :meth:`add_p2p` and :meth:`add_memory`; each rejects a dependency on a
    node that does not exist yet.  :meth:`repeat` appends copies of the
    nodes added last.  The graph converter appends to the lists directly
    under the same rule, writing dependencies, names and metadata to
    ``stored_deps``, ``stored_names`` and ``stored_metadata``: the lists
    behind ``deps``, ``names`` and ``metadata``, which hold ``None`` for a
    copy until one of those three is read.
    """

    def __init__(self) -> None:
        self.types: List[GraphNodeType] = []
        self.occupied: List[Tuple[int, ...]] = []
        self.durations: List[float] = []
        self.payloads: List[float] = []
        self.stored_deps: List[Optional[Tuple[int, ...]]] = []
        self.stored_names: List[Optional[str]] = []
        self.stored_metadata: List[Optional[Mapping[str, object]]] = []
        #: ``(template_start, size, copies)`` per template, in node order:
        #: nodes ``template_start + k * size + i`` for ``k`` in
        #: ``1..copies`` are copies of template node ``template_start + i``.
        self.repeats: List[Tuple[int, int, int]] = []
        self._relabels: List[Optional[Relabel]] = []
        #: How many entries of ``repeats`` have their copies built.
        self._built = 0

    # -- construction -------------------------------------------------------

    def _add(self, node_type: GraphNodeType, occupied: Tuple[int, ...], duration: float,
             payload: float, deps: Iterable[int], name: str,
             metadata: Mapping[str, object]) -> GraphNode:
        if duration < 0:
            raise ValueError("duration must be non-negative")
        if payload < 0:
            raise ValueError("comm_bytes must be non-negative")
        node_id = len(self.types)
        deps = tuple(deps)
        _check_deps(node_id, deps)
        self._check_outside_copies(node_id, deps)
        self.types.append(node_type)
        self.occupied.append(occupied)
        self.durations.append(duration)
        self.payloads.append(payload)
        self.stored_deps.append(deps)
        self.stored_names.append(name)
        self.stored_metadata.append(metadata)
        return self.node(node_id)

    def add_compute(self, name: str, device: int, duration: float,
                    deps: Iterable[int] = (), **metadata: object) -> GraphNode:
        """Add a fixed-duration compute node."""
        return self._add(GraphNodeType.COMPUTE, (device,), duration, 0.0, deps, name, metadata)

    def add_collective(self, name: str, devices: Sequence[int], comm_bytes: float,
                       deps: Iterable[int] = (), **metadata: object) -> GraphNode:
        """Add a collective (all-reduce style) communication across devices."""
        devices = tuple(devices)
        if not devices:
            raise ValueError("a collective needs at least one participating device")
        return self._add(GraphNodeType.COLLECTIVE, devices, 0.0, comm_bytes, deps, name,
                         metadata)

    def add_p2p(self, name: str, src: int, dst: int, comm_bytes: float,
                deps: Iterable[int] = (), **metadata: object) -> GraphNode:
        """Add a point-to-point transfer from ``src`` to ``dst``."""
        return self._add(GraphNodeType.P2P, (src, dst), 0.0, comm_bytes, deps, name, metadata)

    def add_memory(self, name: str, device: int, comm_bytes: float, direction: str,
                   deps: Iterable[int] = (), **metadata: object) -> GraphNode:
        """Add a host<->device memory transfer (KV-page eviction or reload).

        ``direction`` is ``"store"`` (device to host) or ``"load"`` (host to
        device).
        """
        if direction not in ("store", "load"):
            raise ValueError("direction must be 'store' or 'load'")
        metadata["direction"] = direction
        return self._add(GraphNodeType.MEMORY, (device,), 0.0, comm_bytes, deps, name,
                         metadata)

    def repeat(self, template_start: int, copies: int, relabel: Optional[Relabel] = None) -> None:
        """Append ``copies`` copies of the template, the nodes from ``template_start`` on.

        With ``size`` template nodes, copy ``k`` (``1 <= k <= copies``) of
        template node ``template_start + i`` is node ``template_start +
        k * size + i``.  It has the template node's type, devices, duration
        and payload, and its dependencies shifted by ``k * size``.  So every
        template node must depend on earlier template nodes or on node
        ``template_start - 1``, which each copy replaces by the last node of
        the copy before it, and on nothing else; and a node added after the
        copies may depend on the template and its copies only through the
        last copy's last node.
        ``relabel(k, names, metadata)`` gives copy ``k``'s names and metadata
        from the template's; by default a copy keeps the template's.

        Raises
        ------
        ValueError
            If the template is empty, has no node before it, starts inside
            an earlier template's copies, or has a node that depends on
            nothing or on another node.
        """
        end = len(self.types)
        size = end - template_start
        if copies < 1:
            raise ValueError("a repeat needs at least one copy")
        if size < 1 or template_start < 1:
            raise ValueError("a template needs at least one node and a node before it")
        if self.repeats:
            start, last_size, last_copies = self.repeats[-1]
            if template_start - 1 < start + (last_copies + 1) * last_size:
                raise ValueError(f"the node before template {template_start} belongs to the "
                                 f"repeated blocks from node {start}")
        for node_id in range(template_start, end):
            deps = self.stored_deps[node_id]
            if not deps or min(deps) < template_start - 1:
                raise ValueError(
                    f"template node {node_id} depends on {list(deps)}; a template node must "
                    f"depend on its own nodes or on node {template_start - 1}, and only on them")
        for column in (self.types, self.occupied, self.durations, self.payloads):
            column.extend(column[template_start:end] * copies)
        unbuilt = [None] * (size * copies)
        self.stored_deps.extend(unbuilt)
        self.stored_names.extend(unbuilt)
        self.stored_metadata.extend(unbuilt)
        self.repeats.append((template_start, size, copies))
        self._relabels.append(relabel)

    def _build_copies(self) -> None:
        """Build the dependencies, names and metadata of every copy not built yet."""
        deps_column, names_column = self.stored_deps, self.stored_names
        metadata_column = self.stored_metadata
        for index in range(self._built, len(self.repeats)):
            start, size, copies = self.repeats[index]
            relabel = self._relabels[index]
            deps = deps_column[start:start + size]
            names = names_column[start:start + size]
            metadata = metadata_column[start:start + size]
            for copy in range(1, copies + 1):
                shift = copy * size
                first = start + shift
                deps_column[first:first + size] = [
                    tuple([dep + shift for dep in node_deps]) for node_deps in deps]
                copy_names, copy_metadata = (
                    (names, metadata) if relabel is None else relabel(copy, names, metadata))
                if len(copy_names) != size or len(copy_metadata) != size:
                    raise ValueError(f"relabel gave copy {copy} of template {start} the wrong "
                                     f"number of names or metadata")
                names_column[first:first + size] = copy_names
                metadata_column[first:first + size] = copy_metadata
        self._built = len(self.repeats)

    def _check_outside_copies(self, node_id: int, deps: Tuple[int, ...]) -> None:
        for start, size, copies in self.repeats:
            last = start + (copies + 1) * size - 1
            if node_id <= last:
                continue
            for dep in deps:
                if start <= dep < last:
                    raise ValueError(
                        f"node {node_id} depends on node {dep} of the repeated blocks "
                        f"{start}..{last}; only their last node may be depended on")

    # -- queries ------------------------------------------------------------

    @property
    def deps(self) -> List[Tuple[int, ...]]:
        """Every node's dependencies (builds the copies' on first read)."""
        self._build_copies()
        return self.stored_deps

    @property
    def names(self) -> List[str]:
        """Every node's name (builds the copies' on first read)."""
        self._build_copies()
        return self.stored_names

    @property
    def metadata(self) -> List[Mapping[str, object]]:
        """Every node's metadata (builds the copies' on first read)."""
        self._build_copies()
        return self.stored_metadata

    def __len__(self) -> int:
        return len(self.types)

    def __iter__(self) -> Iterator[GraphNode]:
        return (self.node(node_id) for node_id in range(len(self.types)))

    def node(self, node_id: int) -> GraphNode:
        """A :class:`GraphNode` snapshot of one node."""
        if self.stored_deps[node_id] is None:
            self._build_copies()
        node_type = self.types[node_id]
        occupied = self.occupied[node_id]
        return GraphNode(
            node_id=node_id, name=self.stored_names[node_id], node_type=node_type,
            device=occupied[0], duration=self.durations[node_id],
            comm_bytes=self.payloads[node_id],
            comm_group=occupied if node_type is GraphNodeType.COLLECTIVE else (),
            peer_device=occupied[1] if node_type is GraphNodeType.P2P else None,
            deps=set(self.stored_deps[node_id]), metadata=dict(self.stored_metadata[node_id]))

    @property
    def nodes(self) -> List[GraphNode]:
        """Snapshots of every node, in node-id (topological) order."""
        return list(self)

    def devices(self) -> Set[int]:
        """All devices referenced by the graph."""
        devices: Set[int] = set()
        for occupied in self.occupied:
            devices.update(occupied)
        return devices

    def validate(self) -> None:
        """Check that every dependency points at an earlier node.

        Builds the copies of every template first.

        Raises
        ------
        ValueError
            If a dependency points at a missing or later node, or at a node
            of repeated blocks other than their last.
        """
        for node_id, deps in enumerate(self.deps):
            _check_deps(node_id, deps)
            self._check_outside_copies(node_id, deps)

    def count(self, node_type: GraphNodeType) -> int:
        """Number of nodes of one type, copies included (counted once per template)."""
        types = self.types
        total = first = 0
        for start, size, copies in self.repeats:
            total += (types[first:start].count(node_type)
                      + types[start:start + size].count(node_type) * (copies + 1))
            first = start + (copies + 1) * size
        return total + types[first:].count(node_type)

    @property
    def total_compute_time(self) -> float:
        """Sum of all compute-node durations (serial execution upper bound)."""
        return sum(duration for node_type, duration in zip(self.types, self.durations)
                   if node_type is GraphNodeType.COMPUTE)

    def critical_path_compute_time(self) -> float:
        """Longest chain of compute durations ignoring communication costs.

        A cheap lower bound on iteration latency, used by tests and by the
        operator scheduler's heuristics.
        """
        finish: List[float] = []
        for deps, duration in zip(self.deps, self.durations):
            start = max((finish[d] for d in deps), default=0.0)
            finish.append(start + duration)
        return max(finish, default=0.0)


def _check_deps(node_id: int, deps: Tuple[int, ...]) -> None:
    for dep in deps:
        if not 0 <= dep < node_id:
            raise ValueError(f"node {node_id} depends on node {dep}, which does not exist yet")
