"""Graph converter: engine traces -> device-placed execution graphs.

The converter is the third component of the LLMServingSim workflow
(Figure 4): it takes the per-operator latency trace produced by the
execution engine stack for one representative transformer block, replicates
it across every block of the model, places the work onto the devices of the
system topology according to the configured parallelism strategy, and
inserts the communication operators the strategy requires.  Each
sub-batch chain lays out the first two blocks of each stage and records
the rest as copies of the second (block replication, Section IV-C; see
:meth:`ExecutionGraph.repeat`).  The strategies:

* tensor parallelism — each batched operator is sharded across the group and
  two ALL-REDUCE collectives are inserted per block;
* selective batching — per-request attention operators are assigned to
  different devices of the group based on their request identifier;
* pipeline parallelism — consecutive stages are chained with point-to-point
  activation transfers;
* heterogeneous pools — PIM-mapped operators run on PIM devices, with
  inter-pool transfer operators inserted around them when the PIM devices
  form a separate pool;
* KV-cache paging — eviction / reload decisions of the scheduler become
  host<->device memory operators.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Sequence, Tuple

from ..engine.trace import TraceEntry
from ..models.architectures import ModelConfig
from ..scheduler.kv_cache import KVMemoryEvent, KVMemoryEventType
from ..system.topology import DeviceType, PIMMode, SystemTopology
from .collectives import CollectiveSizing
from .execgraph import ExecutionGraph, GraphNodeType
from .parallelism import ParallelismPlan

__all__ = ["GraphGranularity", "GraphConverter", "ConversionStats"]


class GraphGranularity(enum.Enum):
    """Level of detail of the produced execution graph.

    ``OPERATOR`` creates one node per operator per device, the faithful
    setting used for validation experiments.  ``BLOCK`` merges runs of
    consecutive non-attention operators into a single node per device, which
    keeps graphs tractable when sweeping to thousands of devices
    (the Figure 10 scalability experiment).
    """

    OPERATOR = "operator"
    BLOCK = "block"


@dataclass
class ConversionStats:
    """Size statistics of a converted graph (used by simulation-time accounting)."""

    compute_nodes: int = 0
    collective_nodes: int = 0
    collective_participants: int = 0
    p2p_nodes: int = 0
    memory_nodes: int = 0

    @property
    def total_nodes(self) -> int:
        return (self.compute_nodes + self.collective_nodes
                + self.p2p_nodes + self.memory_nodes)


class GraphConverter:
    """Builds execution graphs from engine traces.

    Parameters
    ----------
    topology:
        The system topology (devices, groups, PIM provisioning).
    plan:
        The resolved parallelism plan.
    granularity:
        Graph detail level (see :class:`GraphGranularity`).
    """

    def __init__(self, topology: SystemTopology, plan: ParallelismPlan,
                 granularity: GraphGranularity = GraphGranularity.OPERATOR) -> None:
        if plan.pipeline_parallel != topology.num_groups:
            raise ValueError(
                f"parallelism plan expects {plan.pipeline_parallel} pipeline stages but the "
                f"topology has {topology.num_groups} groups")
        if plan.tensor_parallel != topology.tensor_parallel_degree:
            raise ValueError(
                f"parallelism plan expects tensor width {plan.tensor_parallel} but the topology "
                f"groups have {topology.tensor_parallel_degree} devices")
        self.topology = topology
        self.plan = plan
        self.granularity = granularity
        self.stats = ConversionStats()

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _coarsen(entries: Sequence[TraceEntry]) -> List[TraceEntry]:
        """Merge runs of consecutive non-attention entries into single entries."""
        merged: List[TraceEntry] = []
        run: List[TraceEntry] = []

        def flush() -> None:
            if not run:
                return
            first = run[0]
            # Plain left-to-right float addition: ``sum()`` of floats is
            # compensated from Python 3.12 on, which would make simulated
            # output depend on the interpreter version.
            latency = compute_time = memory_time = 0.0
            for e in run:
                latency += e.latency
                compute_time += e.compute_time
                memory_time += e.memory_time
            merged.append(TraceEntry(
                operator=replace(first.operator, name=first.operator.name + "+fused"),
                engine=first.engine,
                latency=latency,
                compute_time=compute_time,
                memory_time=memory_time,
                cached=all(e.cached for e in run),
                sub_batch=first.sub_batch))
            run.clear()

        for entry in entries:
            if entry.operator.is_attention:
                flush()
                merged.append(entry)
            else:
                run.append(entry)
        flush()
        return merged

    def _sub_batch_tokens(self, entries: Sequence[TraceEntry], fallback: int) -> int:
        for entry in entries:
            if not entry.operator.is_attention and entry.operator.m > 0:
                return entry.operator.m
        return fallback

    # -- main conversion -----------------------------------------------------

    def convert(self,
                model: ModelConfig,
                sub_batch_block_traces: Sequence[Sequence[TraceEntry]],
                embedding_trace: Sequence[TraceEntry],
                head_trace: Sequence[TraceEntry],
                memory_events: Sequence[KVMemoryEvent] = (),
                total_new_tokens: int = 0) -> ExecutionGraph:
        """Build the execution graph of one iteration.

        Parameters
        ----------
        model:
            The model being served (for communication payload sizing).
        sub_batch_block_traces:
            Per sub-batch trace of the representative transformer block, in
            layer order; replicated across all ``plan.num_blocks`` blocks.
        embedding_trace / head_trace:
            Traces of the embedding and LM-head operators (full batch).
        memory_events:
            KV-cache migrations decided by the scheduler for this iteration.
        total_new_tokens:
            Total tokens processed this iteration (payload fallback).

        Nodes are appended straight to the graph's per-node lists; every
        dependency names a node appended earlier.  In every sub-batch
        chain, the third and later blocks of each stage are recorded as
        copies of its second block.
        """
        graph = ExecutionGraph()
        sizing = CollectiveSizing(model)
        tp = self.plan.tensor_parallel
        groups = self.topology.compute_groups

        if self.granularity is GraphGranularity.BLOCK:
            sub_batch_block_traces = [self._coarsen(entries) for entries in sub_batch_block_traces]

        # KV-cache migrations execute on the first device of the first group;
        # reloads gate the iteration's compute, evictions merely occupy the link.
        reload_ids: Tuple[int, ...] = ()
        for index, event in enumerate(memory_events):
            reload = event.event_type is KVMemoryEventType.RELOAD
            if reload:
                reload_ids += (len(graph),)
            _append(graph, GraphNodeType.MEMORY, (groups[0][0],), 0.0, event.num_bytes, (),
                    f"kv_{event.event_type.value}.r{event.request_id}.{index}",
                    {"request_id": event.request_id, "direction": "load" if reload else "store"})

        # Embedding on the first stage (sharded across its devices).
        embed_start = len(graph)
        for entry in embedding_trace:
            _add_sharded(graph, entry, groups[0], [reload_ids] * tp,
                         [f"{entry.operator.name}.d{device}" for device in groups[0]],
                         {"phase": entry.operator.phase.value})
        embed_ids = tuple(range(embed_start, len(graph)))

        # Per sub-batch chains through every block of every stage.
        final_ids: List[int] = []
        for sub_batch_index, entries in enumerate(sub_batch_block_traces):
            if not entries:
                continue
            tokens = self._sub_batch_tokens(entries, total_new_tokens)
            allreduce_bytes = sizing.allreduce_bytes(tokens)
            # The dependency frontier of this sub-batch on each device of the
            # current group, by position in the group.
            frontier: List[Tuple[int, ...]] = [embed_ids] * tp
            prev_stage_tail: Tuple[int, ...] = ()

            for stage_index, group in enumerate(groups):
                block_start, block_end = self.plan.blocks_for_stage(stage_index)
                if stage_index > 0:
                    # Pipeline hand-off from the previous stage.
                    frontier = [(len(graph),)] * tp
                    _append(graph, GraphNodeType.P2P, (groups[stage_index - 1][0], group[0]),
                            0.0, sizing.pipeline_transfer_bytes(tokens), prev_stage_tail,
                            f"sb{sub_batch_index}.stage{stage_index}.recv",
                            {"sub_batch": sub_batch_index})

                layout = _StageLayout(entries, group, self.topology)
                for block in range(block_start, block_end):
                    start = len(graph)
                    entry = frontier
                    frontier = self._convert_block(
                        graph, layout, model, allreduce_bytes, sub_batch_index, block,
                        frontier)
                    copies = block_end - block - 1
                    # The second block is the template if it hangs off the
                    # first block's last node and ends in its own last node.
                    if (block == block_start + 1 and copies
                            and entry == [(start - 1,)] * tp
                            and frontier == [(len(graph) - 1,)] * tp):
                        graph.repeat(start, copies, _BlockRelabel(sub_batch_index, block))
                        frontier = [(len(graph) - 1,)] * tp
                        break

                prev_stage_tail = _union(frontier)

            final_ids.extend(prev_stage_tail)

        # LM head on the last stage, after every sub-batch finished.
        final_deps = [tuple(final_ids)] * tp
        for entry in head_trace:
            _add_sharded(graph, entry, groups[-1], final_deps,
                         [f"{entry.operator.name}.d{device}" for device in groups[-1]],
                         {"phase": entry.operator.phase.value})

        collectives = graph.count(GraphNodeType.COLLECTIVE)
        self.stats = ConversionStats(
            compute_nodes=graph.count(GraphNodeType.COMPUTE),
            collective_nodes=collectives,
            collective_participants=collectives * tp,
            p2p_nodes=graph.count(GraphNodeType.P2P),
            memory_nodes=graph.count(GraphNodeType.MEMORY))
        return graph

    # -- per-block conversion --------------------------------------------------

    def _convert_block(self, graph: ExecutionGraph, layout: "_StageLayout",
                       model: ModelConfig, allreduce_bytes: float, sub_batch_index: int,
                       block: int, frontier: List[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
        """Lay out one transformer block of one sub-batch onto a device group."""
        group = layout.group
        tp = len(group)
        pim_mode = self.topology.pim_mode
        pim_pool = self.topology.pim_pool
        pending_attention: List[int] = []
        attention_index = 0
        allreduce_count = 0
        prefix = f"sb{sub_batch_index}.b{block}"
        block_meta = {"sub_batch": sub_batch_index, "block": block}
        pool_meta = {"pool_transfer": True, "sub_batch": sub_batch_index}

        def add_allreduce(deps: Tuple[int, ...], label: int) -> List[Tuple[int, ...]]:
            ar = _append(graph, GraphNodeType.COLLECTIVE, layout.group_tuple, 0.0,
                         allreduce_bytes, deps, f"{prefix}.allreduce{label}", block_meta)
            return [(ar,)] * tp

        for entry, suffixes in zip(layout.entries, layout.suffixes):
            op = entry.operator
            if op.is_attention:
                position = attention_index % tp
                npu_device = group[position]
                deps = frontier[position]
                name = prefix + suffixes
                if entry.engine is DeviceType.PIM and pim_mode is PIMMode.LOCAL:
                    pending_attention.append(_append(
                        graph, GraphNodeType.COMPUTE, layout.pim_targets[position],
                        entry.latency, 0.0, deps, name, block_meta))
                elif entry.engine is DeviceType.PIM and pim_mode is PIMMode.POOL and pim_pool:
                    pim_device = pim_pool[attention_index % len(pim_pool)]
                    send_bytes = max(1.0, float(op.m * model.hidden_size * model.dtype_bytes))
                    send = _append(graph, GraphNodeType.P2P, (npu_device, pim_device), 0.0,
                                   send_bytes, deps, name + ".send", pool_meta)
                    compute = _append(graph, GraphNodeType.COMPUTE, (pim_device,),
                                      entry.latency, 0.0, (send,), name, block_meta)
                    pending_attention.append(_append(
                        graph, GraphNodeType.P2P, (pim_device, npu_device), 0.0,
                        max(1.0, op.output_bytes), (compute,), name + ".recv", pool_meta))
                else:
                    pending_attention.append(_append(
                        graph, GraphNodeType.COMPUTE, (npu_device,), entry.latency, 0.0, deps,
                        name, block_meta))
                attention_index += 1
                continue

            # Batched (non-attention) operator: sharded across the group.
            if pending_attention:
                attention = tuple(pending_attention)
                frontier = [deps + attention for deps in frontier]
            first = _add_sharded(graph, entry, group, frontier,
                                 [prefix + suffix for suffix in suffixes], block_meta)
            frontier = [(node_id,) for node_id in range(first, first + tp)]

            if pending_attention:
                # This is the first batched operator after the attention
                # layers (the output projection): synchronize with a
                # tensor-parallel all-reduce.
                pending_attention = []
                if tp > 1:
                    allreduce_count += 1
                    frontier = add_allreduce(tuple(range(first, first + tp)), allreduce_count)

        # End-of-block all-reduce after the FFN down projection.
        if tp > 1:
            allreduce_count += 1
            frontier = add_allreduce(_union(frontier), allreduce_count)
        return frontier


class _StageLayout:
    """What every block of one sub-batch on one device group shares.

    Built once per stage: node-name suffixes per trace entry (``".{name}"``
    for attention, one ``".{name}.d{device}"`` per group device for batched
    operators) and the device each group position's PIM-mapped attention
    runs on.
    """

    def __init__(self, entries: Sequence[TraceEntry], group: Sequence[int],
                 topology: SystemTopology) -> None:
        self.entries = entries
        self.group = group
        self.group_tuple = tuple(group)
        self.pim_targets = [(topology.pim_partner(device) or device,) for device in group]
        self.suffixes = [
            f".{entry.operator.name}" if entry.operator.is_attention
            else [f".{entry.operator.name}.d{device}" for device in group]
            for entry in entries]


class _BlockRelabel:
    """Names and metadata of the copies of one stage's template block.

    Copy ``k`` stands for block ``template_block + k``: its names carry that
    block's ``sb{i}.b{block}`` prefix and its per-block metadata that block
    index; pool-transfer metadata is shared unchanged.
    """

    def __init__(self, sub_batch_index: int, template_block: int) -> None:
        self.sub_batch_index = sub_batch_index
        self.template_block = template_block

    def __call__(self, copy: int, names: List[str], metadata: List[Mapping[str, object]]
                 ) -> Tuple[List[str], List[Mapping[str, object]]]:
        block = self.template_block + copy
        cut = len(f"sb{self.sub_batch_index}.b{self.template_block}")
        prefix = f"sb{self.sub_batch_index}.b{block}"
        block_meta = {"sub_batch": self.sub_batch_index, "block": block}
        return ([prefix + name[cut:] for name in names],
                [block_meta if "block" in meta else meta for meta in metadata])


def _append(graph: ExecutionGraph, node_type: GraphNodeType, occupied: Tuple[int, ...],
            duration: float, payload: float, deps: Tuple[int, ...], name: str,
            metadata: Dict[str, object]) -> int:
    """Append one node to ``graph``'s lists and return its id."""
    node_id = len(graph.types)
    graph.types.append(node_type)
    graph.occupied.append(occupied)
    graph.durations.append(duration)
    graph.payloads.append(payload)
    graph.stored_deps.append(deps)
    graph.stored_names.append(name)
    graph.stored_metadata.append(metadata)
    return node_id


def _add_sharded(graph: ExecutionGraph, entry: TraceEntry, group: Sequence[int],
                 deps: List[Tuple[int, ...]], names: List[str],
                 metadata: Dict[str, object]) -> int:
    """Append one node per group device for a batched operator; return the first id."""
    tp = len(group)
    first = len(graph.types)
    graph.types.extend([GraphNodeType.COMPUTE] * tp)
    graph.occupied.extend([(device,) for device in group])
    graph.durations.extend([entry.latency / tp] * tp)
    graph.payloads.extend([0.0] * tp)
    graph.stored_deps.extend(deps)
    graph.stored_names.extend(names)
    graph.stored_metadata.extend([metadata] * tp)
    return first


def _union(frontier: List[Tuple[int, ...]]) -> Tuple[int, ...]:
    """Sorted distinct node ids of a dependency frontier."""
    return tuple(sorted({node_id for deps in frontier for node_id in deps}))
