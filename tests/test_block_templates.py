"""Block templates: the graph's repeat record, the converter's use of it, and its replay.

The converter lays out the first two blocks of each stage and records the
rest as copies of the second.  :mod:`converter_reference` keeps the full
layout it replaced; on a matrix of configurations every converted graph,
read through its per-node lists and its node views, must equal the
reference's list by list, with the same conversion statistics.
"""

import pytest
from converter_reference import ReferenceConverter

from repro import LLMServingSim, ServingSimConfig
from repro.graph import ExecutionGraph, GraphNodeType
from repro.models import get_model
from repro.system import SystemSimulator
from repro.workload import Request

GPT2_KV_TOKEN_BYTES = get_model("gpt2").kv_bytes_per_token()

#: (configuration, requests as (input, output, arrival)).
SHORT = [(16 + 8 * i, 4, 0.0005 * i) for i in range(5)]
MATRIX = {
    "tp1": dict(model_name="gpt2", npu_num=1, npu_mem_gb=4.0),
    "tp2": dict(model_name="gpt2", npu_num=2, npu_mem_gb=4.0, parallel="tensor"),
    "tp4": dict(model_name="gpt3-7b", npu_num=4, parallel="tensor"),
    "pipeline4": dict(model_name="gpt3-7b", npu_num=4, parallel="pipeline"),
    "hybrid2x2": dict(model_name="gpt3-7b", npu_num=4, npu_group=2, parallel="hybrid"),
    "pim-local": dict(model_name="gpt2", npu_num=2, npu_mem_gb=4.0, parallel="tensor",
                      pim_type="local"),
    "pim-pool": dict(model_name="gpt2", npu_num=2, npu_mem_gb=4.0, parallel="tensor",
                     pim_type="pool"),
    "pim-local-subbatch": dict(model_name="gpt2", npu_num=2, npu_mem_gb=4.0,
                               parallel="tensor", pim_type="local", sub_batch=True),
    "pim-pool-subbatch": dict(model_name="gpt2", npu_num=2, npu_mem_gb=4.0,
                              parallel="tensor", pim_type="pool", sub_batch=True),
    "tp4-block": dict(model_name="gpt3-7b", npu_num=4, parallel="tensor",
                      graph_granularity="block"),
    "evict-reload": dict(model_name="gpt2", npu_num=1, npu_mem_gb=4.0,
                         kv_capacity_bytes=160 * GPT2_KV_TOKEN_BYTES),
}
REQUESTS = {"evict-reload": [(64, 64, 0.0)] * 3}

COLUMNS = ("types", "occupied", "durations", "payloads", "deps", "names", "metadata")


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_templated_graph_equals_full_layout(name):
    sim = LLMServingSim(ServingSimConfig(**MATRIX[name]))
    converter = sim.converter
    reference = ReferenceConverter(converter.topology, converter.plan, converter.granularity)
    convert = converter.convert
    seen = {"graphs": 0, "templated": 0, "multi_chain": 0, "memory": 0}

    def checking_convert(model, sub_batch_block_traces, embedding_trace, head_trace,
                         memory_events=(), total_new_tokens=0):
        args = (model, sub_batch_block_traces, embedding_trace, head_trace, memory_events,
                total_new_tokens)
        graph = convert(*args)
        stats = converter.stats
        expected = reference.convert(*args)
        # The replay needs nothing the copies have not built yet.
        assert graph.stored_deps.count(None) == sum(size * copies
                                                    for _, size, copies in graph.repeats)
        for column in COLUMNS:
            assert getattr(graph, column) == getattr(expected, column), column
        assert graph.nodes == expected.nodes
        assert stats == reference.stats
        graph.validate()
        seen["graphs"] += 1
        seen["templated"] += bool(graph.repeats)
        seen["multi_chain"] += sum(1 for trace in sub_batch_block_traces if trace) > 1
        seen["memory"] += graph.types.count(GraphNodeType.MEMORY)
        return graph

    converter.convert = checking_convert
    spec = REQUESTS.get(name, SHORT)
    sim.run([Request(i, inp, out, arrival_time=t) for i, (inp, out, t) in enumerate(spec)])
    assert seen["graphs"] >= 4
    # Every iteration is templated, whatever its number of sub-batch chains.
    assert seen["templated"] == seen["graphs"]
    if name.endswith("subbatch"):
        assert seen["multi_chain"] > 0
    if name == "evict-reload":
        assert seen["memory"] > 0


def chain_with_template(copies=3):
    """first -> entry -> [a, b] template, then its copies."""
    graph = ExecutionGraph()
    graph.add_compute("first", 1, 0.5)
    entry = graph.add_collective("entry", [1, 2], 1024.0, [0]).node_id
    a = graph.add_compute("a", 1, 0.25, [entry]).node_id
    graph.add_collective("b", [1, 2], 1024.0, [a, entry])
    graph.repeat(a, copies)
    return graph


class TestRepeat:
    def test_copies_shift_dependencies_and_fill_columns_by_repetition(self):
        graph = chain_with_template(copies=3)
        assert len(graph) == 2 + 2 * 4
        assert graph.repeats == [(2, 2, 3)]
        assert graph.durations[2:] == [0.25, 0.0] * 4
        assert graph.occupied[1:] == [(1, 2)] + [(1,), (1, 2)] * 4
        assert graph.stored_deps[4:] == [None] * 6
        assert graph.deps[2:] == [(1,), (2, 1), (3,), (4, 3), (5,), (6, 5), (7,), (8, 7)]
        assert graph.names[2:] == ["a", "b"] * 4  # copies keep the template's names
        graph.validate()

    def test_relabel_names_copies(self):
        graph = ExecutionGraph()
        graph.add_compute("first", 1, 0.5)
        graph.add_compute("entry", 1, 1.0, [0])
        graph.add_compute("a", 1, 0.25, [1], block=0)
        graph.add_compute("b", 1, 0.25, [2], block=0)
        graph.repeat(2, 2, lambda copy, names, metadata: (
            [f"{name}{copy}" for name in names], [{"block": copy}] * len(names)))
        assert graph.names[2:] == ["a", "b", "a1", "b1", "a2", "b2"]
        assert graph.node(7).metadata == {"block": 2}

    def test_relabel_must_keep_the_template_size(self):
        graph = ExecutionGraph()
        graph.add_compute("entry", 1, 1.0)
        graph.add_compute("a", 1, 0.25, [0])
        graph.add_compute("b", 1, 0.25, [1])
        graph.repeat(1, 1, lambda copy, names, metadata: (names[:1], metadata))
        with pytest.raises(ValueError, match="wrong number"):
            graph.names

    def test_template_may_depend_only_on_itself_and_the_node_before(self):
        graph = ExecutionGraph()
        graph.add_compute("first", 1, 0.5)
        graph.add_compute("entry", 1, 1.0, [0])
        graph.add_compute("a", 1, 0.25, [0])
        with pytest.raises(ValueError, match="must depend on its own nodes or on node 1"):
            graph.repeat(2, 3)
        assert len(graph) == 3 and not graph.repeats
        graph.add_compute("root", 1, 0.25)
        with pytest.raises(ValueError, match=r"depends on \[\]"):
            graph.repeat(3, 3)

    def test_refuses_degenerate_templates(self):
        graph = ExecutionGraph()
        graph.add_compute("first", 1, 0.5)
        with pytest.raises(ValueError, match="a node before it"):
            graph.repeat(0, 2)
        with pytest.raises(ValueError, match="a node before it"):
            graph.repeat(1, 2)
        with pytest.raises(ValueError, match="at least one copy"):
            graph.repeat(0, 0)

    def test_refuses_a_template_hanging_off_copies(self):
        graph = chain_with_template(copies=2)
        graph.add_compute("next", 1, 0.1, [len(graph) - 1])
        with pytest.raises(ValueError, match="belongs to the repeated blocks"):
            graph.repeat(len(graph) - 1, 2)

    def test_later_nodes_see_copies_only_through_the_last_node(self):
        graph = chain_with_template(copies=2)
        last = len(graph) - 1
        graph.add_compute("tail", 2, 0.1, [last, 1])
        with pytest.raises(ValueError, match="only their last node"):
            graph.add_compute("bad", 2, 0.1, [last - 1])
        with pytest.raises(ValueError, match="only their last node"):
            graph.add_compute("bad", 2, 0.1, [2])
        # Nodes appended straight to the lists, as the converter does, are
        # checked by validate().
        graph.types.append(GraphNodeType.COMPUTE)
        graph.occupied.append((2,))
        graph.durations.append(0.1)
        graph.payloads.append(0.0)
        graph.stored_deps.append((last - 1,))
        graph.stored_names.append("bad")
        graph.stored_metadata.append({})
        with pytest.raises(ValueError, match="only their last node"):
            graph.validate()


class TestTemplatedReplay:
    def test_copies_are_accepted_and_counted_as_events(self):
        graph = chain_with_template(copies=5)
        graph.add_compute("tail", 2, 0.1, [len(graph) - 1])
        result = SystemSimulator().simulate(graph)
        assert result.accepted_windows == 5
        assert result.heap_replayed_windows == 0
        assert result.num_events == len(graph)
        assert graph.stored_deps.count(None) == 10
        # Derived on demand: one timing per node, in completion order.
        timings = result.node_timings
        assert sorted(t.node_id for t in timings) == list(range(len(graph)))
        assert [t.end for t in timings] == sorted(t.end for t in timings)
        assert graph.stored_deps.count(None) == 0  # reading node names built the copies
