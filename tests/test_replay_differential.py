"""Differential tests: the flat replay against the reference discrete-event simulator.

:mod:`des_reference` is the event-queue simulator the replay replaced, kept
verbatim.  On random DAGs that contend for devices (compute on shared
devices, collectives over overlapping device sets, device-link and pool
P2P, memory transfers, zero durations, fan-outs) and on graphs the
converter builds for real serving iterations, the replay must reproduce
the reference's makespan, event count, statistics and every node's start
and end exactly, compared with ``==``.
"""

from des_reference import reference_simulate
from hypothesis import given, settings, strategies as st

from repro import LLMServingSim, ServingSimConfig
from repro.graph import ExecutionGraph
from repro.system import SystemSimulator
from repro.workload import Request

DEVICES = (1, 2, 3, 4)
POOL_DEVICES = (5, 6)
#: Few distinct values, so equal end times and float rounding both occur.
DURATIONS = (0.0, 0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 1e-6)
PAYLOADS = (0.0, 1.0, 4096.0, 64e6, 3e9)


def assert_replay_matches_reference(graph: ExecutionGraph, start_time: float = 0.0,
                                    simulator: SystemSimulator = None) -> None:
    simulator = simulator or SystemSimulator()
    expected = reference_simulate(graph, simulator.network, start_time)
    actual = simulator.simulate(graph, start_time)
    assert actual.makespan == expected.makespan
    assert actual.num_events == expected.num_events == len(graph)
    assert actual.node_timings == expected.node_timings
    assert actual.compute_time == expected.compute_time
    assert actual.comm_time == expected.comm_time
    assert actual.memory_time == expected.memory_time
    assert actual.device_busy_time == expected.device_busy_time


@st.composite
def contended_graphs(draw) -> ExecutionGraph:
    graph = ExecutionGraph()
    for node_id in range(draw(st.integers(1, 40))):
        if node_id and draw(st.booleans()):
            # Fan-outs: many nodes hang off a few recent or early nodes.
            window = draw(st.sampled_from((3, node_id)))
            candidates = range(max(0, node_id - window), node_id)
            deps = draw(st.lists(st.sampled_from(candidates), max_size=3))
        else:
            deps = []
        kind = draw(st.sampled_from(("compute", "compute", "compute", "collective", "p2p",
                                     "pool", "memory")))
        name = f"n{node_id}"
        if kind == "compute":
            device = draw(st.sampled_from(DEVICES + POOL_DEVICES))
            graph.add_compute(name, device, draw(st.sampled_from(DURATIONS)), deps)
        elif kind == "collective":
            group = draw(st.lists(st.sampled_from(DEVICES), min_size=1, max_size=4,
                                  unique=True))
            graph.add_collective(name, group, draw(st.sampled_from(PAYLOADS)), deps)
        elif kind == "p2p":
            src, dst = draw(st.sampled_from(DEVICES)), draw(st.sampled_from(DEVICES))
            graph.add_p2p(name, src, dst, draw(st.sampled_from(PAYLOADS)), deps)
        elif kind == "pool":
            npu, pim = draw(st.sampled_from(DEVICES)), draw(st.sampled_from(POOL_DEVICES))
            src, dst = (npu, pim) if draw(st.booleans()) else (pim, npu)
            graph.add_p2p(name, src, dst, draw(st.sampled_from(PAYLOADS)), deps,
                          pool_transfer=True)
        else:
            graph.add_memory(name, draw(st.sampled_from(DEVICES)),
                             draw(st.sampled_from(PAYLOADS)),
                             draw(st.sampled_from(("store", "load"))), deps)
    return graph


@given(graph=contended_graphs(), start_time=st.sampled_from((0.0, 0.3, 12.345)))
@settings(max_examples=400, deadline=None)
def test_replay_matches_reference_on_random_dags(graph, start_time):
    assert_replay_matches_reference(graph, start_time)


def test_replay_matches_reference_on_converted_iterations():
    """Every graph of short runs with sub-batch and PIM-pool contention."""
    configs = [
        dict(model_name="gpt2", npu_num=2, npu_mem_gb=4.0, parallel="tensor",
             pim_type="local", sub_batch=True),
        dict(model_name="gpt2", npu_num=2, npu_mem_gb=4.0, parallel="tensor",
             pim_type="pool", sub_batch=True),
        dict(model_name="gpt3-7b", npu_num=4, npu_group=2, parallel="hybrid",
             graph_granularity="block"),
    ]
    checked = 0
    for overrides in configs:
        sim = LLMServingSim(ServingSimConfig(**overrides))
        replay = SystemSimulator(sim.system_simulator.network)
        original = sim.system_simulator.simulate

        def checking_simulate(graph, start_time=0.0, original=original, replay=replay):
            assert_replay_matches_reference(graph, start_time, replay)
            return original(graph, start_time)

        sim.system_simulator.simulate = checking_simulate
        sim.run([Request(i, 16 + 8 * i, 4, arrival_time=0.0005 * i) for i in range(5)])
        checked += len(sim.result.iterations)
    assert checked >= 3 * 4
