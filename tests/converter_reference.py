"""Reference graph converter: the full block layout (test-only).

This is :meth:`repro.graph.GraphConverter.convert` as it was before block
templates: it lays out every block of every stage node by node, appending
to the graph's per-node lists.  It is kept verbatim so the tests can check
that the templated graph, read through ``types`` ... ``metadata`` and
``graph.nodes``, equals it list by list, and that ``stats`` are unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.engine.trace import TraceEntry
from repro.graph.collectives import CollectiveSizing
from repro.graph.converter import ConversionStats, GraphConverter, GraphGranularity
from repro.graph.execgraph import ExecutionGraph, GraphNodeType
from repro.models.architectures import ModelConfig
from repro.scheduler.kv_cache import KVMemoryEvent, KVMemoryEventType
from repro.system.topology import DeviceType, PIMMode, SystemTopology

__all__ = ["ReferenceConverter"]


class ReferenceConverter(GraphConverter):
    """A :class:`GraphConverter` whose ``convert`` lays out every block."""

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
        dependency names a node appended earlier.
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
                    frontier = self._convert_block(
                        graph, layout, model, allreduce_bytes, sub_batch_index, block,
                        frontier)

                prev_stage_tail = _union(frontier)

            final_ids.extend(prev_stage_tail)

        # LM head on the last stage, after every sub-batch finished.
        final_deps = [tuple(final_ids)] * tp
        for entry in head_trace:
            _add_sharded(graph, entry, groups[-1], final_deps,
                         [f"{entry.operator.name}.d{device}" for device in groups[-1]],
                         {"phase": entry.operator.phase.value})

        types = graph.types
        collectives = types.count(GraphNodeType.COLLECTIVE)
        self.stats = ConversionStats(
            compute_nodes=types.count(GraphNodeType.COMPUTE),
            collective_nodes=collectives,
            collective_participants=collectives * tp,
            p2p_nodes=types.count(GraphNodeType.P2P),
            memory_nodes=types.count(GraphNodeType.MEMORY))
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


def _append(graph: ExecutionGraph, node_type: GraphNodeType, occupied: Tuple[int, ...],
            duration: float, payload: float, deps: Tuple[int, ...], name: str,
            metadata: Dict[str, object]) -> int:
    """Append one node to ``graph``'s lists and return its id."""
    node_id = len(graph.types)
    graph.types.append(node_type)
    graph.occupied.append(occupied)
    graph.durations.append(duration)
    graph.payloads.append(payload)
    graph.deps.append(deps)
    graph.names.append(name)
    graph.metadata.append(metadata)
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
    graph.deps.extend(deps)
    graph.names.extend(names)
    graph.metadata.extend([metadata] * tp)
    return first


def _union(frontier: List[Tuple[int, ...]]) -> Tuple[int, ...]:
    """Sorted distinct node ids of a dependency frontier."""
    return tuple(sorted({node_id for deps in frontier for node_id in deps}))
