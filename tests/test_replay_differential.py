"""Differential tests: the flat replay against the reference discrete-event simulator.

:mod:`des_reference` is the event-queue simulator the replay replaced, kept
verbatim.  On random DAGs that contend for devices (compute on shared
devices, collectives over overlapping device sets, device-link and pool
P2P, memory transfers, zero durations, fan-outs), on random graphs built
from repeated blocks, on random sub-batch chains of such blocks, on one
small graph per acceptance check of the straight-line replay, and on
graphs the converter builds for real serving iterations, the replay must
reproduce the reference's makespan, event count, statistics and every
node's start and end exactly, compared with ``==``.  The replay runs first,
so copies of template blocks are replayed before anything builds their
dependencies.
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


def waiting_windows(result: SystemSimulationResult) -> int:
    """Accepted windows whose entry had waiting nodes (read from the replay's own record)."""
    return sum(1 for _, program, _, _ in result._windows if program.waiting)


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


#: The devices sub-batch chains share: two compute devices and a third.
CHAIN_DEVICES = (1, 2, 3)
#: Collective groups over them.  A node waiting on three devices can carry a
#: busy count that changes when it starts; on two it cannot.
CHAIN_GROUPS = ((1, 2), (1, 2), (1, 2, 3))


@st.composite
def chain_blocks(draw):
    """One block of a sub-batch chain as ``(kind, devices, amount, deps)`` per node.

    ``amount`` is a duration or a payload; ``deps`` are positions in the
    block, ``-1`` being its entry.  Like the converter's blocks, each starts
    with one node per compute device and ends in an all-reduce, which
    usually depends on every node nothing else in the block depends on.
    """
    first = draw(st.sampled_from(TIE_DURATIONS))
    nodes = [("compute", (1,), first, (-1,)), ("compute", (2,), first, (-1,))]
    if draw(st.booleans()):
        # Two paths whose ends tie up to rounding: (e + 0.1) + 0.2 and e + 0.3.
        nodes += [("compute", (1,), 0.1, (-1,)), ("compute", (2,), 0.3, (-1,)),
                  ("compute", (1,), 0.2, (len(nodes),))]
    for _ in range(draw(st.integers(0, 4))):
        deps = tuple(draw(st.lists(st.integers(-1, len(nodes) - 1), min_size=1, max_size=3,
                                   unique=True)))
        kind = draw(st.sampled_from(("compute", "compute", "collective", "p2p")))
        if kind == "compute":
            nodes.append((kind, (draw(st.sampled_from(CHAIN_DEVICES)),),
                          draw(st.sampled_from(TIE_DURATIONS + (0.0, 1e-6))), deps))
        elif kind == "collective":
            nodes.append((kind, draw(st.sampled_from(CHAIN_GROUPS)),
                          draw(st.sampled_from(PAYLOADS)), deps))
        else:
            nodes.append((kind, draw(st.sampled_from(((1, 3), (3, 2), (2, 3)))),
                          draw(st.sampled_from(PAYLOADS)), deps))
    used = {dep for _, _, _, deps in nodes for dep in deps}
    open_ends = tuple(position for position in range(len(nodes)) if position not in used)
    exit_deps = open_ends if draw(st.sampled_from((True, True, True, False))) else open_ends[-1:]
    nodes.append(("collective", draw(st.sampled_from(CHAIN_GROUPS)),
                  draw(st.sampled_from(PAYLOADS)), exit_deps))
    return nodes


def add_block(graph: ExecutionGraph, block, entry: int, name: str) -> int:
    """Lay out one block after ``entry``; return its last node."""
    first = len(graph)
    for position, (kind, devices, amount, deps) in enumerate(block):
        ids = [entry if dep < 0 else first + dep for dep in deps]
        label = f"{name}.n{position}"
        if kind == "compute":
            graph.add_compute(label, devices[0], amount, ids)
        elif kind == "collective":
            graph.add_collective(label, devices, amount, ids)
        else:
            graph.add_p2p(label, devices[0], devices[1], amount, ids)
    return len(graph) - 1


@st.composite
def sub_batch_chain_graphs(draw) -> ExecutionGraph:
    """Two or three sub-batch chains, laid out the way the graph converter lays them out.

    After a shared first node, each chain lays out one block per stage and
    records the stage's later blocks as copies of a second one
    (:meth:`ExecutionGraph.repeat`); the chains contend for the same
    devices, and a final node waits for every chain.  A chain may hang off
    another chain's first block instead of the first node (a lag), a
    hand-off transfer may join two stages, and a long node on the third
    device may overlap some windows, so that their ends are not settled.
    """
    graph = ExecutionGraph()
    root = graph.add_collective("embed", (1, 2), draw(st.sampled_from(PAYLOADS))).node_id
    stages = draw(st.integers(1, 2))
    handoff = draw(st.booleans())
    copies = draw(st.sampled_from(COPIES))
    shared = draw(chain_blocks()) if draw(st.booleans()) else None
    first_blocks: list = []
    tails = []
    for chain in range(draw(st.integers(2, 3))):
        block = shared or draw(chain_blocks())
        entry = root
        if first_blocks and draw(st.booleans()):
            entry = draw(st.sampled_from(first_blocks))
        for stage in range(stages):
            if stage and handoff:
                entry = graph.add_p2p(f"c{chain}.s{stage}.recv", 1, 3, 4096.0, [entry]).node_id
            entry = add_block(graph, block, entry, f"c{chain}.s{stage}.b0")
            if not stage:
                first_blocks.append(entry)
            template_start = len(graph)
            add_block(graph, block, entry, f"c{chain}.s{stage}.b1")
            graph.repeat(template_start, copies)
            entry = len(graph) - 1
        tails.append(entry)
    if draw(st.sampled_from(OVERLAP)):
        graph.add_compute("overlap", 3, draw(st.sampled_from(CONCURRENT_DURATIONS)),
                          [draw(st.sampled_from([root] + first_blocks))])
    graph.add_compute("head", 1, 0.1, tails)
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
        copies["accepted"] += result.accepted_windows
        copies["heap"] += result.heap_replayed_windows

    check()
    assert copies["accepted"] > 0 and copies["heap"] > 0


def test_replay_matches_reference_on_sub_batch_chains():
    """Both accepted and heap-replayed windows occur over the run."""
    windows = {"accepted": 0, "heap": 0}

    @given(graph=sub_batch_chain_graphs(), start_time=st.sampled_from((0.0, 0.3, 12.345)))
    @settings(max_examples=300, deadline=None)
    def check(graph, start_time):
        result = assert_replay_matches_reference(graph, start_time)
        windows["accepted"] += result.accepted_windows
        windows["heap"] += result.heap_replayed_windows

    check()
    assert windows["accepted"] > 0 and windows["heap"] > 0


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
    assert result.heap_replayed_windows >= 1
    assert result.accepted_windows + result.heap_replayed_windows == 40


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
    assert result.heap_replayed_windows >= 2
    assert result.accepted_windows >= 1
    assert result.accepted_windows + result.heap_replayed_windows == 12


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
    assert (result.accepted_windows, result.heap_replayed_windows) == (4, 1)


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
    assert result.heap_replayed_windows >= 1


def chains_of_blocks(blocks, copies, lag=False) -> ExecutionGraph:
    """One sub-batch chain per block; each lays out one block and a template.

    ``blocks`` holds per chain the nodes of its block as ``(kind, devices,
    amount, deps)``, ``-1`` in ``deps`` being the block's entry; with
    ``lag`` every later chain hangs off the first chain's first block.
    """
    graph = ExecutionGraph()
    root = graph.add_collective("embed", (1, 2), 4096.0).node_id
    tails = []
    first_block = None
    for chain, block in enumerate(blocks):
        entry = first_block if lag and first_block is not None else root
        for index in range(2):
            template_start = len(graph)
            entry = add_block(graph, block, entry, f"c{chain}.b{index}")
            first_block = first_block if first_block is not None else entry
        graph.repeat(template_start, copies)
        tails.append(len(graph) - 1)
    graph.add_compute("head", 1, 0.1, tails)
    return graph


#: A block with one all-reduce, and one that all-reduces twice.
ONE_ALLREDUCE = [("compute", (1,), 0.1, (-1,)), ("compute", (2,), 0.1, (-1,)),
                 ("collective", (1, 2), 4096.0, (0, 1))]
TWO_ALLREDUCES = [("compute", (1,), 0.1, (-1,)), ("compute", (2,), 0.1, (-1,)),
                  ("collective", (1, 2), 4096.0, (0,)), ("collective", (1, 2), 4096.0, (1, 2))]


def test_window_whose_exit_waits_on_other_nodes_is_replayed_by_the_heap():
    """The second chain moves on by more than one block per window of the
    first, so a window's exit waits on other nodes than the next window's
    entry would need: the heap replays that window."""
    graph = chains_of_blocks([ONE_ALLREDUCE, TWO_ALLREDUCES], copies=6)
    result = assert_replay_matches_reference(graph)
    assert (result.accepted_windows, result.heap_replayed_windows) == (3, 9)


def test_window_with_a_waiting_node_whose_near_tie_rounds_the_other_way():
    """Two chains of ``(e + 0.1) + 0.2`` against ``e + 0.3`` blocks: windows
    with a waiting node are accepted, and those whose keys fall out of
    order are replayed by the heap."""
    block = [("compute", (1,), 0.1, (-1,)), ("compute", (2,), 0.3, (-1,)),
             ("compute", (1,), 0.2, (0,)), ("collective", (1, 2), 4096.0, (1, 2))]
    result = assert_replay_matches_reference(chains_of_blocks([block, block], copies=40))
    assert waiting_windows(result) > 0
    assert result.heap_replayed_windows >= 1


def test_window_that_pops_a_node_outside_every_copy_is_not_recorded():
    """A node on a third device hangs off the second chain's template entry
    and finishes inside the template's window: that window is not recorded."""
    graph = chains_of_blocks([ONE_ALLREDUCE, ONE_ALLREDUCE], copies=3)
    template_start = graph.repeats[-1][0]
    graph.add_compute("side", 3, 0.15, [template_start - 1])
    result = assert_replay_matches_reference(graph)
    assert (result.accepted_windows, result.heap_replayed_windows) == (1, 4)


def test_window_entered_with_another_busy_count_is_replayed_by_the_heap():
    """The second chain's all-reduce over three devices waits at each exit of
    the first chain's.  Once, a short node on the third device runs while
    the first chain's all-reduce does, so that exit leaves the waiting node
    one busy count lower than the next exit does, and the window after it
    is replayed by the heap.  (Dispatch never depends on the count: a
    waiting node starts at the first release that leaves all its devices
    free.  Comparing the counts only keeps the check strict.)"""
    graph = ExecutionGraph()
    root = graph.add_collective("embed", (1, 2), 4096.0).node_id
    tails = []
    for chain, (group, payload) in enumerate((((1, 2), 3e9), ((1, 2, 3), 64e6))):
        entry = root
        for index in range(2):
            template_start = len(graph)
            x = graph.add_compute(f"c{chain}.b{index}.x", 1, 0.3, [entry]).node_id
            y = graph.add_compute(f"c{chain}.b{index}.y", 2, 0.3, [entry]).node_id
            entry = graph.add_collective(f"c{chain}.b{index}.exit", group, payload,
                                         [x, y]).node_id
        graph.repeat(template_start, 8)
        tails.append(len(graph) - 1)
    timer = graph.add_compute("timer", 4, 1.25, [root]).node_id
    graph.add_compute("blip", 3, 0.001, [timer])
    graph.add_compute("head", 1, 0.1, tails)
    result = assert_replay_matches_reference(graph)
    assert (result.accepted_windows, result.heap_replayed_windows) == (6, 4)


def test_window_whose_exit_state_differs_from_its_entry_is_not_chained():
    """The lagging chain's entries cycle through three states: the other
    chain's all-reduce over two devices waits with two busy, then its
    all-reduce over three devices waits with three, then the entry is not
    settled.  The first window is recorded, and no later one is, since each
    ends unsettled; the recording is accepted at every third entry.  Its exit
    state is not its entry state one copy on, so each accepted window is
    evaluated alone, never chained into the next."""
    block = [("compute", (1,), 0.1, (-1,)), ("compute", (2,), 0.3, (-1,)),
             ("collective", (1, 2), 64e6, (-1, 0)), ("compute", (3,), 0.2, (1, 2)),
             ("collective", (1, 2, 3), 64e6, (3,))]
    result = assert_replay_matches_reference(chains_of_blocks([block, block], copies=12,
                                                              lag=True))
    assert (result.accepted_windows, result.heap_replayed_windows) == (3, 18)
    assert [shift for _, _, shift, _ in result._windows] == [3, 6, 9]
    assert not any(program.periodic for _, program, _, _ in result._windows)


def test_replay_matches_reference_on_converted_iterations():
    """Every graph of short runs with sub-batch and PIM-pool contention.

    The last configuration is the PIM sub-batch benchmark's shape: two
    chains share each stage's NPUs, so its accepted windows start with a
    node of the other chain waiting.
    """
    configs = [
        dict(model_name="gpt2", npu_num=2, npu_mem_gb=4.0, parallel="tensor",
             pim_type="local", sub_batch=True),
        dict(model_name="gpt2", npu_num=2, npu_mem_gb=4.0, parallel="tensor",
             pim_type="pool", sub_batch=True),
        dict(model_name="gpt3-7b", npu_num=4, npu_group=2, parallel="hybrid",
             graph_granularity="block"),
        dict(model_name="gpt3-7b", npu_num=4, parallel="tensor"),
        dict(model_name="gpt3-7b", npu_num=4, npu_group=2, parallel="hybrid",
             pim_type="local", sub_batch=True),
    ]
    checked = accepted = waiting = 0
    for overrides in configs:
        sim = LLMServingSim(ServingSimConfig(**overrides))
        replay = SystemSimulator(sim.system_simulator.network)
        original = sim.system_simulator.simulate
        waiting = 0

        def checking_simulate(graph, start_time=0.0, original=original, replay=replay):
            nonlocal accepted, waiting
            result = assert_replay_matches_reference(graph, start_time, replay)
            accepted += result.accepted_windows
            waiting += waiting_windows(result)
            return original(graph, start_time)

        sim.system_simulator.simulate = checking_simulate
        sim.run([Request(i, 16 + 8 * i, 4, arrival_time=0.0005 * i) for i in range(5)])
        checked += len(sim.result.iterations)
    assert checked >= 5 * 4
    assert accepted > 0
    assert waiting > 0
