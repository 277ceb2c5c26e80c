"""Differential tests: the flat replay against the reference discrete-event simulator.

:mod:`des_reference` is the event-queue simulator the replay replaced, kept
verbatim.  On random DAGs that contend for devices (compute on shared
devices, collectives over overlapping device sets, device-link and pool
P2P, memory transfers, zero durations, fan-outs), on random graphs built
from repeated blocks, and on graphs the converter builds for real serving
iterations, the replay must reproduce the reference's makespan, event
count, statistics and every node's start and end exactly, compared with
``==``.  The replay runs first, so copies of template blocks are replayed
before anything builds their dependencies.
"""

from des_reference import reference_simulate
from hypothesis import given, settings, strategies as st

from repro import LLMServingSim, ServingSimConfig
from repro.graph import ExecutionGraph
from repro.system import SystemSimulationResult, SystemSimulator
from repro.workload import Request

DEVICES = (1, 2, 3, 4)
POOL_DEVICES = (5, 6)
#: Few distinct values, so equal end times and float rounding both occur.
DURATIONS = (0.0, 0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 1e-6)
PAYLOADS = (0.0, 1.0, 4096.0, 64e6, 3e9)


def assert_replay_matches_reference(graph: ExecutionGraph, start_time: float = 0.0,
                                    simulator: SystemSimulator = None) -> SystemSimulationResult:
    simulator = simulator or SystemSimulator()
    actual = simulator.simulate(graph, start_time)
    expected = reference_simulate(graph, simulator.network, start_time)
    assert actual.makespan == expected.makespan
    assert actual.num_events == expected.num_events == len(graph)
    assert actual.node_timings == expected.node_timings
    assert actual.compute_time == expected.compute_time
    assert actual.comm_time == expected.comm_time
    assert actual.memory_time == expected.memory_time
    assert actual.device_busy_time == expected.device_busy_time
    return actual


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
        add_node(draw, graph, f"n{node_id}", deps)
    return graph


def add_node(draw, graph: ExecutionGraph, name: str, deps) -> int:
    """Add one node of a drawn kind, placement and duration or payload; return its id."""
    kind = draw(st.sampled_from(("compute", "compute", "compute", "collective", "p2p",
                                 "pool", "memory")))
    if kind == "compute":
        device = draw(st.sampled_from(DEVICES + POOL_DEVICES))
        graph.add_compute(name, device, draw(st.sampled_from(DURATIONS)), deps)
    elif kind == "collective":
        group = draw(st.lists(st.sampled_from(DEVICES), min_size=1, max_size=4, unique=True))
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
        graph.add_memory(name, draw(st.sampled_from(DEVICES)), draw(st.sampled_from(PAYLOADS)),
                         draw(st.sampled_from(("store", "load"))), deps)
    return len(graph) - 1


#: Long enough to overlap a template and some of its copies.
CONCURRENT_DURATIONS = (0.4, 1.5, 6.0)
#: Whether a long node overlaps a template: one time in four.
OVERLAP = (False, False, False, True)
#: Copies per template, and template compute durations: many copies let the
#: entry time grow, so that sums such as ``(e + 0.1) + 0.2`` and ``e + 0.3``
#: tie in some copies and round apart in others.
COPIES = (1, 2, 3, 8, 30)
TIE_DURATIONS = (0.1, 0.2, 0.3)


@st.composite
def repeated_block_graphs(draw) -> ExecutionGraph:
    """A prefix, one or two templates recorded as copies, and a suffix.

    Each template hangs off an entry node and is recorded with
    :meth:`ExecutionGraph.repeat`, the call the graph converter makes.  The
    suffix depends on the last copy.  Sometimes a node overlaps a template,
    so that its entry or its exit is not quiescent: a long prefix node that
    starts early, or a node after the copies that hangs off a template's
    entry, a prefix node or that early node.
    """
    graph = ExecutionGraph()
    prefix = draw(st.integers(1, 4))
    for node_id in range(prefix):
        deps = draw(st.lists(st.sampled_from(range(node_id)), max_size=2)) if node_id else []
        add_node(draw, graph, f"p{node_id}", deps)
    anchors = list(range(prefix))
    if draw(st.sampled_from(OVERLAP)):
        anchors.append(graph.add_compute("early", draw(st.sampled_from(DEVICES)),
                                         draw(st.sampled_from(CONCURRENT_DURATIONS)),
                                         [prefix - 1]).node_id)
    tail = prefix - 1
    entries = []
    for region in range(draw(st.integers(1, 2))):
        # The entry continues the chain, or starts a parallel one off the prefix.
        anchor = draw(st.sampled_from((tail, tail, draw(st.integers(0, prefix - 1)))))
        entries.append(add_node(draw, graph, f"r{region}.entry", [anchor]))
        template_start = len(graph)
        if draw(st.booleans()):
            # Two paths whose ends tie up to rounding: (e + 0.1) + 0.2 and e + 0.3.
            first = graph.add_compute(f"r{region}.a", 1, 0.1, [template_start - 1]).node_id
            graph.add_compute(f"r{region}.b", 2, 0.3, [template_start - 1])
            graph.add_compute(f"r{region}.c", 1, 0.2, [first])
        for index in range(draw(st.integers(1, 6))):
            own = range(template_start - 1, len(graph))
            deps = draw(st.lists(st.sampled_from(own), min_size=1, max_size=3, unique=True))
            if draw(st.booleans()):
                add_node(draw, graph, f"r{region}.t{index}", deps)
            else:
                graph.add_compute(f"r{region}.t{index}", draw(st.sampled_from(DEVICES[:2])),
                                  draw(st.sampled_from(TIE_DURATIONS)), deps)
        graph.repeat(template_start, draw(st.sampled_from(COPIES)))
        tail = len(graph) - 1
    for index in range(draw(st.integers(0, 3))):
        deps = [tail] + draw(st.lists(st.integers(0, prefix - 1), max_size=1))
        tail = add_node(draw, graph, f"s{index}", deps)
    if draw(st.sampled_from(OVERLAP)):
        # Starts with a template's entry, or before it, or once "early" ends.
        graph.add_compute("late", draw(st.sampled_from(DEVICES)),
                          draw(st.sampled_from(DURATIONS + CONCURRENT_DURATIONS)),
                          [draw(st.sampled_from(entries + anchors))])
    return graph


@given(graph=contended_graphs(), start_time=st.sampled_from((0.0, 0.3, 12.345)))
@settings(max_examples=400, deadline=None)
def test_replay_matches_reference_on_random_dags(graph, start_time):
    assert_replay_matches_reference(graph, start_time)


def test_templated_replay_matches_reference_on_repeated_blocks():
    """Both accepted and heap-replayed copies occur over the run."""
    copies = {"accepted": 0, "heap": 0}

    @given(graph=repeated_block_graphs(), start_time=st.sampled_from((0.0, 0.3, 12.345)))
    @settings(max_examples=300, deadline=None)
    def check(graph, start_time):
        result = assert_replay_matches_reference(graph, start_time)
        copies["accepted"] += result.accepted_copies
        copies["heap"] += result.heap_replayed_copies

    check()
    assert copies["accepted"] > 0 and copies["heap"] > 0


def test_copy_whose_near_tie_rounds_the_other_way_is_replayed_by_the_heap():
    """``(e + 0.1) + 0.2`` and ``e + 0.3`` tie or not depending on ``e``."""
    graph = ExecutionGraph()
    graph.add_compute("first", 1, 0.3)
    entry = graph.add_collective("entry", [1, 2], 4096.0, [0]).node_id
    template_start = len(graph)
    a = graph.add_compute("a", 1, 0.1, [entry]).node_id
    b = graph.add_compute("b", 2, 0.3, [entry]).node_id
    c = graph.add_compute("c", 1, 0.2, [a]).node_id
    graph.add_collective("exit", [1, 2], 4096.0, [b, c])
    graph.repeat(template_start, 40)
    result = assert_replay_matches_reference(graph)
    # Nothing else runs, so every entry is quiescent: the fallback is a rejection.
    assert result.heap_replayed_copies >= 1
    assert result.accepted_copies + result.heap_replayed_copies == 40


def test_copies_overlapped_by_a_running_node_are_replayed_by_the_heap():
    """A copy's entry is not quiescent while another node runs, even elsewhere."""
    graph = ExecutionGraph()
    graph.add_compute("first", 1, 0.5)
    entry = graph.add_collective("entry", [1, 2], 4096.0, [0]).node_id
    template_start = len(graph)
    a = graph.add_compute("a", 1, 0.25, [entry]).node_id
    graph.add_collective("exit", [1, 2], 4096.0, [a])
    graph.repeat(template_start, 12)
    graph.add_compute("overlap", 3, 2.2, [entry])
    result = assert_replay_matches_reference(graph)
    assert result.heap_replayed_copies >= 2
    assert result.accepted_copies >= 1
    assert result.accepted_copies + result.heap_replayed_copies == 12


def test_template_entered_from_other_devices_is_not_recorded():
    """Released nodes queue behind the entry's devices, so their push order differs."""
    graph = ExecutionGraph()
    entry = graph.add_compute("entry", 1, 0.5).node_id
    template_start = len(graph)
    a = graph.add_compute("a", 1, 0.5, [entry]).node_id
    b = graph.add_compute("b", 2, 0.5, [entry]).node_id
    graph.add_collective("exit", [1, 2], 4096.0, [a, b])
    graph.repeat(template_start, 5)
    result = assert_replay_matches_reference(graph)
    # Copy 1 is replayed by the heap and recorded; the rest follow it.
    assert (result.accepted_copies, result.heap_replayed_copies) == (4, 1)


def test_entry_whose_devices_were_freed_twice_is_not_quiescent():
    """A transfer from a device to itself frees it twice, so it is marked free
    while the next node still runs; a copy entered in that state differs from
    the template."""
    graph = ExecutionGraph()
    entry = graph.add_compute("entry", 1, 0.0).node_id
    template_start = len(graph)
    graph.add_p2p("loop", 1, 1, 0.0, [entry])
    graph.add_compute("a", 1, 0.1, [entry])
    graph.repeat(template_start, 3)
    result = assert_replay_matches_reference(graph)
    assert result.heap_replayed_copies >= 1


def test_replay_matches_reference_on_converted_iterations():
    """Every graph of short runs with sub-batch and PIM-pool contention."""
    configs = [
        dict(model_name="gpt2", npu_num=2, npu_mem_gb=4.0, parallel="tensor",
             pim_type="local", sub_batch=True),
        dict(model_name="gpt2", npu_num=2, npu_mem_gb=4.0, parallel="tensor",
             pim_type="pool", sub_batch=True),
        dict(model_name="gpt3-7b", npu_num=4, npu_group=2, parallel="hybrid",
             graph_granularity="block"),
        dict(model_name="gpt3-7b", npu_num=4, parallel="tensor"),
    ]
    checked = accepted = 0
    for overrides in configs:
        sim = LLMServingSim(ServingSimConfig(**overrides))
        replay = SystemSimulator(sim.system_simulator.network)
        original = sim.system_simulator.simulate

        def checking_simulate(graph, start_time=0.0, original=original, replay=replay):
            nonlocal accepted
            accepted += assert_replay_matches_reference(graph, start_time,
                                                        replay).accepted_copies
            return original(graph, start_time)

        sim.system_simulator.simulate = checking_simulate
        sim.run([Request(i, 16 + 8 * i, 4, arrival_time=0.0005 * i) for i in range(5)])
        checked += len(sim.result.iterations)
    assert checked >= 4 * 4
    assert accepted > 0
