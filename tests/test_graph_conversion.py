"""Unit tests for execution graphs, parallelism plans and the graph converter."""

import pytest

from repro.engine import ExecutionEngineStack, HeterogeneousMapper, NPUEngine, PIMEngine
from repro.graph import (CollectiveSizing, ExecutionGraph, GraphConverter, GraphGranularity,
                         GraphNodeType, ParallelismPlan, ParallelismStrategy, make_plan)
from repro.models import BatchComposition, Phase, SequenceSpec, build_iteration_graph, get_model
from repro.scheduler.kv_cache import KVMemoryEvent, KVMemoryEventType
from repro.system import DeviceType, PIMMode, build_topology

MODEL = get_model("gpt2")


def block_trace_for(batch, pim=False):
    """Run the engine stack once and return the per-sub-batch traces."""
    engines = {DeviceType.NPU: NPUEngine()}
    mapper = None
    if pim:
        engines[DeviceType.PIM] = PIMEngine()
        mapper = HeterogeneousMapper()
    stack = ExecutionEngineStack(engines=engines, mapper=mapper)
    graph = build_iteration_graph(MODEL, batch)
    result = stack.simulate_iteration(graph)
    return result, graph


class TestExecutionGraph:
    def test_dependency_validation(self):
        graph = ExecutionGraph()
        with pytest.raises(ValueError, match="does not exist yet"):
            graph.add_compute("a", device=1, duration=1.0, deps=[42])
        assert len(graph) == 0

    def test_cycle_detection(self):
        # A cycle needs a dependency on a node added later (or on itself);
        # every add_* rejects both, so graphs are acyclic by construction.
        graph = ExecutionGraph()
        a = graph.add_compute("a", device=1, duration=1.0)
        with pytest.raises(ValueError, match="does not exist yet"):
            graph.add_compute("b", device=1, duration=1.0, deps=[a.node_id + 1])
        with pytest.raises(ValueError, match="does not exist yet"):
            graph.add_collective("ar", devices=[1, 2], comm_bytes=1.0, deps=[a.node_id, 5])
        with pytest.raises(ValueError, match="does not exist yet"):
            graph.add_p2p("p", src=1, dst=2, comm_bytes=1.0, deps=[-1])
        with pytest.raises(ValueError, match="does not exist yet"):
            graph.add_memory("m", device=1, comm_bytes=1.0, direction="load", deps=[1])
        assert len(graph) == 1
        graph.validate()

    def test_topological_order_respects_deps(self):
        # Node-id order is a topological order.
        graph = ExecutionGraph()
        a = graph.add_compute("a", device=1, duration=1.0)
        b = graph.add_compute("b", device=2, duration=1.0, deps=[a.node_id])
        c = graph.add_compute("c", device=1, duration=1.0, deps=[b.node_id])
        order = [n.node_id for n in graph.nodes]
        assert order == [a.node_id, b.node_id, c.node_id]
        assert all(dep < node.node_id for node in graph.nodes for dep in node.deps)

    def test_devices_include_peers_and_groups(self):
        graph = ExecutionGraph()
        graph.add_p2p("p", src=1, dst=2, comm_bytes=1.0)
        graph.add_collective("ar", devices=[3, 4], comm_bytes=1.0)
        assert graph.devices() == {1, 2, 3, 4}

    def test_memory_direction_validation(self):
        graph = ExecutionGraph()
        with pytest.raises(ValueError):
            graph.add_memory("bad", device=1, comm_bytes=1.0, direction="sideways")

    def test_critical_path(self):
        graph = ExecutionGraph()
        a = graph.add_compute("a", device=1, duration=1.0)
        graph.add_compute("b", device=2, duration=5.0)
        graph.add_compute("c", device=1, duration=1.0, deps=[a.node_id])
        assert graph.critical_path_compute_time() == pytest.approx(5.0)
        assert graph.total_compute_time == pytest.approx(7.0)


class TestParallelismPlan:
    def test_make_plan_tensor(self):
        topology = build_topology(8, 1)
        plan = make_plan(ParallelismStrategy.TENSOR, topology, num_blocks=12)
        assert plan.tensor_parallel == 8
        assert plan.pipeline_parallel == 1

    def test_make_plan_pipeline(self):
        topology = build_topology(4, 4)
        plan = make_plan(ParallelismStrategy.PIPELINE, topology, num_blocks=12)
        assert plan.tensor_parallel == 1
        assert plan.pipeline_parallel == 4

    def test_make_plan_hybrid_uses_topology_groups(self):
        topology = build_topology(8, 2)
        plan = make_plan(ParallelismStrategy.HYBRID, topology, num_blocks=12)
        assert plan.tensor_parallel == 4
        assert plan.pipeline_parallel == 2

    def test_tensor_plan_rejects_multi_group_topology(self):
        with pytest.raises(ValueError):
            make_plan(ParallelismStrategy.TENSOR, build_topology(8, 2), 12)

    def test_pipeline_plan_rejects_wide_groups(self):
        with pytest.raises(ValueError):
            make_plan(ParallelismStrategy.PIPELINE, build_topology(8, 2), 12)

    def test_block_assignment_covers_all_blocks(self):
        plan = ParallelismPlan(ParallelismStrategy.HYBRID, tensor_parallel=2,
                               pipeline_parallel=3, num_blocks=10)
        covered = []
        for stage in range(3):
            start, end = plan.blocks_for_stage(stage)
            covered.extend(range(start, end))
        assert covered == list(range(10))
        assert sum(plan.blocks_per_stage()) == 10

    def test_stage_of_block_consistent(self):
        plan = ParallelismPlan(ParallelismStrategy.HYBRID, 2, 4, num_blocks=12)
        for block in range(12):
            stage = plan.stage_of_block(block)
            start, end = plan.blocks_for_stage(stage)
            assert start <= block < end

    def test_more_stages_than_blocks_allowed(self):
        plan = ParallelismPlan(ParallelismStrategy.PIPELINE, 1, 16, num_blocks=12)
        assert sum(plan.blocks_per_stage()) == 12
        assert plan.blocks_per_stage().count(0) == 4


class TestCollectiveSizing:
    def test_payloads(self):
        sizing = CollectiveSizing(MODEL)
        assert sizing.allreduce_bytes(10) == 10 * MODEL.hidden_size * MODEL.dtype_bytes
        assert sizing.allreduces_per_block(1) == 0
        assert sizing.allreduces_per_block(4) == 2
        assert sizing.iteration_allreduce_bytes(10, 4, 12) == \
            2 * 12 * sizing.allreduce_bytes(10)


class TestGraphConverter:
    def _convert(self, batch, devices=4, groups=1, granularity=GraphGranularity.OPERATOR,
                 pim_mode=PIMMode.NONE, memory_events=()):
        topology = build_topology(devices, groups, pim_mode=pim_mode)
        strategy = ParallelismStrategy.HYBRID
        plan = make_plan(strategy, topology, MODEL.num_layers)
        converter = GraphConverter(topology, plan, granularity)
        stack_result, graph = block_trace_for(batch, pim=pim_mode is not PIMMode.NONE)
        exec_graph = converter.convert(
            model=MODEL,
            sub_batch_block_traces=stack_result.sub_batch_traces,
            embedding_trace=list(stack_result.embedding_and_head_trace)[:1],
            head_trace=list(stack_result.embedding_and_head_trace)[1:],
            memory_events=memory_events,
            total_new_tokens=batch.total_new_tokens)
        return exec_graph, converter

    def _batch(self, n_gen=4, ctx=64):
        return BatchComposition([SequenceSpec(i, ctx, 1, Phase.GENERATION) for i in range(n_gen)])

    def test_graph_is_valid_dag(self):
        exec_graph, _ = self._convert(self._batch())
        exec_graph.validate()
        assert len(exec_graph) > 0

    def test_tensor_parallel_inserts_two_allreduces_per_block(self):
        exec_graph, converter = self._convert(self._batch(), devices=4, groups=1)
        collectives = [n for n in exec_graph if n.node_type is GraphNodeType.COLLECTIVE]
        assert len(collectives) == 2 * MODEL.num_layers
        assert converter.stats.collective_participants == 2 * MODEL.num_layers * 4

    def test_single_device_has_no_collectives(self):
        exec_graph, _ = self._convert(self._batch(), devices=1, groups=1)
        assert all(n.node_type is not GraphNodeType.COLLECTIVE for n in exec_graph)

    def test_pipeline_parallel_inserts_stage_transfers(self):
        exec_graph, _ = self._convert(self._batch(), devices=4, groups=4)
        p2p = [n for n in exec_graph if n.node_type is GraphNodeType.P2P]
        # 3 stage hand-offs per sub-batch (1 sub-batch here).
        assert len(p2p) == 3

    def test_selective_batching_spreads_attention_across_devices(self):
        exec_graph, _ = self._convert(self._batch(n_gen=8), devices=4, groups=1)
        attention_devices = {n.device for n in exec_graph
                             if n.node_type is GraphNodeType.COMPUTE and ".score" in n.name}
        assert len(attention_devices) == 4

    def test_memory_events_become_memory_nodes(self):
        events = [KVMemoryEvent(KVMemoryEventType.EVICT, request_id=1, num_bytes=1e6),
                  KVMemoryEvent(KVMemoryEventType.RELOAD, request_id=2, num_bytes=2e6)]
        exec_graph, converter = self._convert(self._batch(), memory_events=events)
        memory_nodes = [n for n in exec_graph if n.node_type is GraphNodeType.MEMORY]
        assert len(memory_nodes) == 2
        assert converter.stats.memory_nodes == 2
        directions = {n.metadata["direction"] for n in memory_nodes}
        assert directions == {"store", "load"}

    def test_local_pim_places_attention_on_pim_devices(self):
        exec_graph, _ = self._convert(self._batch(), devices=2, groups=1, pim_mode=PIMMode.LOCAL)
        topology_pim_devices = {n.device for n in exec_graph
                                if n.node_type is GraphNodeType.COMPUTE and ".score" in n.name}
        # NPU devices are 1..2, their PIM partners have higher ids.
        assert all(d > 2 for d in topology_pim_devices)

    def test_pool_pim_inserts_pool_transfers(self):
        exec_graph, _ = self._convert(self._batch(), devices=2, groups=1, pim_mode=PIMMode.POOL)
        pool_p2p = [n for n in exec_graph if n.node_type is GraphNodeType.P2P
                    and n.metadata.get("pool_transfer")]
        assert pool_p2p, "expected NPU<->PIM pool transfer operators"

    def test_block_granularity_produces_smaller_graph(self):
        fine, _ = self._convert(self._batch(), granularity=GraphGranularity.OPERATOR)
        coarse, _ = self._convert(self._batch(), granularity=GraphGranularity.BLOCK)
        assert len(coarse) < len(fine)
        coarse.validate()

    def test_mismatched_plan_rejected(self):
        topology = build_topology(4, 2)
        plan = ParallelismPlan(ParallelismStrategy.HYBRID, tensor_parallel=4,
                               pipeline_parallel=1, num_blocks=MODEL.num_layers)
        with pytest.raises(ValueError):
            GraphConverter(topology, plan)

    def test_stats_total_nodes_matches_graph(self):
        exec_graph, converter = self._convert(self._batch())
        assert converter.stats.total_nodes == len(exec_graph)
