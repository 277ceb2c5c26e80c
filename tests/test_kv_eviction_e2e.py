"""End-to-end test of the KV evict -> reload path through a real simulation.

A deliberately tiny KV budget forces the paged manager to evict and reload
request caches during a full :class:`LLMServingSim` run.  The drained
:class:`KVMemoryEvent`s must surface in three places that the seed code only
exercised separately: the per-iteration ``IterationRecord.evictions`` /
``reloads`` counters, the scheduler's aggregate stats, and the execution
graph handed to the system simulator (as MEMORY transfer nodes).
"""


from repro import LLMServingSim, ServingSimConfig
from repro.graph.execgraph import GraphNodeType
from repro.models import get_model
from repro.workload import Request


def tiny_kv_simulator(capacity_tokens=160):
    model = get_model("gpt2")
    config = ServingSimConfig(
        model_name="gpt2", npu_num=1, npu_mem_gb=4.0,
        kv_capacity_bytes=capacity_tokens * model.kv_bytes_per_token(),
    )
    return LLMServingSim(config)


class TestEvictReloadEndToEnd:
    def test_memory_events_surface_everywhere(self):
        sim = tiny_kv_simulator()
        converted_graphs = []
        original_convert = sim.converter.convert

        def capturing_convert(*args, **kwargs):
            graph = original_convert(*args, **kwargs)
            converted_graphs.append(graph)
            return graph

        sim.converter.convert = capturing_convert
        sim.submit([Request(i, 64, 64, arrival_time=0.0) for i in range(3)])

        iterations = 0
        while iterations < 400:
            record = sim.step()
            if record is None:
                break
            iterations += 1
            # The record's counters must match the MEMORY nodes of the
            # execution graph simulated for the same iteration.
            memory_nodes = [n for n in converted_graphs[-1].nodes
                            if n.node_type is GraphNodeType.MEMORY]
            assert len(memory_nodes) == record.evictions + record.reloads
            assert sim.converter.stats.memory_nodes == len(memory_nodes)
            stores = [n for n in memory_nodes if n.metadata["direction"] == "store"]
            loads = [n for n in memory_nodes if n.metadata["direction"] == "load"]
            assert len(stores) == record.evictions
            assert len(loads) == record.reloads
            assert all(n.comm_bytes > 0 for n in memory_nodes)

        result = sim.collect_result()
        assert len(result.finished_requests) == 3
        total_evictions = sum(r.evictions for r in result.iterations)
        total_reloads = sum(r.reloads for r in result.iterations)
        assert total_evictions > 0, "tiny KV budget must force evictions"
        assert total_reloads > 0, "evicted requests must be reloaded"
        assert sim.scheduler.stats.evictions == total_evictions
        assert sim.scheduler.stats.reloads == total_reloads

    def test_kv_budget_override_applied(self):
        model = get_model("gpt2")
        sim = tiny_kv_simulator(capacity_tokens=160)
        assert sim.kv_manager.capacity_bytes == 160 * model.kv_bytes_per_token()

    def test_run_terminates_when_request_exceeds_budget(self):
        # A request larger than the whole KV budget can never be admitted;
        # run() must stop instead of spinning on the stalled arrival.
        sim = tiny_kv_simulator(capacity_tokens=32)
        result = sim.run([Request(0, 64, 4, arrival_time=0.0)])
        assert result.finished_requests == []
        assert sim.has_work  # the request is still pending, but we returned

    def test_reload_onto_a_full_page_boundary_retries_instead_of_raising(self):
        # A reload can leave no free page for a request whose tokens sit on a
        # page boundary; growing it anyway raised MemoryError out of run().
        # The request must stay resident and grow on a later iteration.
        config = ServingSimConfig(model_name="gpt2", npu_num=1, npu_mem_gb=4.0,
                                  kv_capacity_bytes=2_949_120)
        requests = [Request(0, 30, 31), Request(1, 13, 32), Request(2, 13, 37)]
        result = LLMServingSim(config).run(requests)
        assert len(result.finished_requests) == 3
        assert [r.generated_tokens for r in requests] == [31, 32, 37]
        assert sum(r.evictions for r in result.iterations) == 2
        assert sum(r.reloads for r in result.iterations) == 2
