"""Unit tests for the system substrate: topology, network and the replay.

``TestEventQueue`` covers the event queue of the test-only reference
simulator (``des_reference.py``) that the replay is checked against.
"""

import pytest
from des_reference import EventQueue
from hypothesis import given, settings, strategies as st

from repro.graph import ExecutionGraph
from repro.system import (DeviceType, NetworkConfig, NetworkModel, PCIE_GEN4_X16,
                          LinkSpec, PIMMode, SystemSimulator, build_topology)


class TestEventQueue:
    def test_events_fire_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule(2.0, lambda: fired.append("b"))
        queue.schedule(1.0, lambda: fired.append("a"))
        queue.schedule(3.0, lambda: fired.append("c"))
        queue.run()
        assert fired == ["a", "b", "c"]
        assert queue.now == 3.0

    def test_same_time_fires_in_schedule_order(self):
        queue = EventQueue()
        fired = []
        for label in ("first", "second", "third"):
            queue.schedule(1.0, lambda l=label: fired.append(l))
        queue.run()
        assert fired == ["first", "second", "third"]

    def test_schedule_after(self):
        queue = EventQueue()
        queue.schedule(1.0, lambda: queue.schedule_after(0.5, lambda: None))
        queue.run()
        assert queue.now == pytest.approx(1.5)

    def test_cannot_schedule_in_past(self):
        queue = EventQueue()
        queue.schedule(5.0, lambda: None)
        queue.pop()
        with pytest.raises(ValueError):
            queue.schedule(1.0, lambda: None)
        with pytest.raises(ValueError):
            queue.schedule_after(-1.0, lambda: None)

    def test_run_until(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, lambda: fired.append(1))
        queue.schedule(10.0, lambda: fired.append(2))
        executed = queue.run(until=5.0)
        assert executed == 1
        assert fired == [1]
        assert len(queue) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()


class TestTopology:
    def test_homogeneous(self):
        topology = build_topology(num_devices=8, num_groups=2)
        assert topology.num_compute_devices == 8
        assert topology.num_groups == 2
        assert topology.tensor_parallel_degree == 4
        assert topology.pim_mode is PIMMode.NONE
        assert topology.device(topology.host_id).device_type is DeviceType.HOST

    def test_group_membership(self):
        topology = build_topology(num_devices=4, num_groups=2)
        for group_index, group in enumerate(topology.compute_groups):
            for device_id in group:
                assert topology.group_of(device_id) == group_index

    def test_local_pim_pairs_every_npu(self):
        topology = build_topology(num_devices=4, pim_mode=PIMMode.LOCAL)
        for npu_id in topology.compute_devices:
            partner = topology.pim_partner(npu_id)
            assert partner is not None
            assert topology.device(partner).device_type is DeviceType.PIM
            assert topology.device(partner).paired_device == npu_id

    def test_pim_pool(self):
        topology = build_topology(num_devices=4, pim_mode=PIMMode.POOL, num_pim_devices=2)
        assert len(topology.pim_pool) == 2
        assert all(topology.device(d).device_type is DeviceType.PIM for d in topology.pim_pool)

    def test_indivisible_groups_rejected(self):
        with pytest.raises(ValueError):
            build_topology(num_devices=6, num_groups=4)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            build_topology(num_devices=0)
        with pytest.raises(ValueError):
            build_topology(num_devices=4, num_groups=0)

    @given(devices=st.integers(1, 64), groups=st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_device_count_invariant(self, devices, groups):
        if devices % groups != 0:
            with pytest.raises(ValueError):
                build_topology(devices, groups)
            return
        topology = build_topology(devices, groups)
        assert topology.num_compute_devices == devices
        assert len(set(topology.compute_devices)) == devices
        topology.validate()


class TestNetworkModel:
    def test_link_transfer_time(self):
        link = LinkSpec("x", bandwidth_gbs=10.0, latency_s=1e-6)
        assert link.transfer_time(10e9) == pytest.approx(1.0 + 1e-6)
        with pytest.raises(ValueError):
            link.transfer_time(-1)

    def test_table1_link(self):
        assert PCIE_GEN4_X16.bandwidth_gbs == 64.0
        assert PCIE_GEN4_X16.latency_s == pytest.approx(100e-9)

    def test_allreduce_single_device_free(self):
        assert NetworkModel().allreduce_time(1e9, 1) == 0.0

    def test_allreduce_grows_with_devices_latency_term(self):
        model = NetworkModel()
        assert model.allreduce_time(1e6, 16) > model.allreduce_time(1e6, 2)

    def test_allreduce_bandwidth_term_saturates(self):
        """The ring bandwidth term approaches 2*bytes/bw for large groups."""
        model = NetworkModel(NetworkConfig(sync_overhead_s=0.0))
        big = model.allreduce_time(1e9, 1024)
        bound = 2 * 1e9 / (model.config.device_link.bandwidth_gbs * 1e9)
        assert big >= bound * 0.9

    def test_allgather_cheaper_than_allreduce(self):
        model = NetworkModel()
        assert model.allgather_time(1e8, 8) < model.allreduce_time(1e8, 8)

    def test_invalid_device_count(self):
        with pytest.raises(ValueError):
            NetworkModel().allreduce_time(1e6, 0)


class TestSystemSimulator:
    def test_empty_graph(self):
        result = SystemSimulator().simulate(ExecutionGraph())
        assert result.makespan == 0.0

    def test_serial_chain_on_one_device(self):
        graph = ExecutionGraph()
        a = graph.add_compute("a", device=1, duration=1.0)
        b = graph.add_compute("b", device=1, duration=2.0, deps=[a.node_id])
        result = SystemSimulator().simulate(graph)
        assert result.makespan == pytest.approx(3.0)
        assert result.compute_time == pytest.approx(3.0)
        assert result.utilization(1) == pytest.approx(1.0)

    def test_independent_nodes_on_different_devices_overlap(self):
        graph = ExecutionGraph()
        graph.add_compute("a", device=1, duration=2.0)
        graph.add_compute("b", device=2, duration=2.0)
        result = SystemSimulator().simulate(graph)
        assert result.makespan == pytest.approx(2.0)

    def test_same_device_serializes_independent_nodes(self):
        graph = ExecutionGraph()
        graph.add_compute("a", device=1, duration=2.0)
        graph.add_compute("b", device=1, duration=2.0)
        result = SystemSimulator().simulate(graph)
        assert result.makespan == pytest.approx(4.0)

    def test_collective_occupies_all_participants(self):
        graph = ExecutionGraph()
        a = graph.add_compute("a", device=1, duration=1.0)
        b = graph.add_compute("b", device=2, duration=1.0)
        ar = graph.add_collective("allreduce", devices=[1, 2], comm_bytes=64e6,
                                  deps=[a.node_id, b.node_id])
        graph.add_compute("after", device=1, duration=1.0, deps=[ar.node_id])
        sim = SystemSimulator()
        result = sim.simulate(graph)
        expected_ar = sim.network.allreduce_time(64e6, 2)
        assert result.makespan == pytest.approx(2.0 + expected_ar, rel=1e-6)
        assert result.comm_time > 0

    def test_p2p_transfer_timed_by_link(self):
        graph = ExecutionGraph()
        a = graph.add_compute("a", device=1, duration=1.0)
        p = graph.add_p2p("send", src=1, dst=2, comm_bytes=64e9, deps=[a.node_id])
        graph.add_compute("b", device=2, duration=1.0, deps=[p.node_id])
        sim = SystemSimulator()
        result = sim.simulate(graph)
        assert result.makespan == pytest.approx(2.0 + sim.network.p2p_time(64e9), rel=1e-6)

    def test_memory_node_counts_as_memory_time(self):
        graph = ExecutionGraph()
        graph.add_memory("evict", device=1, comm_bytes=1e9, direction="store")
        result = SystemSimulator().simulate(graph)
        assert result.memory_time > 0

    def test_start_time_offsets_node_timings(self):
        graph = ExecutionGraph()
        graph.add_compute("a", device=1, duration=1.0)
        result = SystemSimulator().simulate(graph, start_time=100.0)
        assert result.node_timings[0].start == pytest.approx(100.0)
        assert result.node_timings[0].end == pytest.approx(101.0)

    def test_all_nodes_complete(self):
        graph = ExecutionGraph()
        prev = None
        for i in range(20):
            deps = [prev.node_id] if prev else []
            prev = graph.add_compute(f"n{i}", device=1 + i % 3, duration=0.1, deps=deps)
        result = SystemSimulator().simulate(graph)
        assert len(result.node_timings) == 20
        assert result.num_events == 20

    def test_makespan_at_least_critical_path(self):
        graph = ExecutionGraph()
        a = graph.add_compute("a", device=1, duration=1.0)
        b = graph.add_compute("b", device=2, duration=2.0, deps=[a.node_id])
        graph.add_compute("c", device=1, duration=3.0, deps=[b.node_id])
        result = SystemSimulator().simulate(graph)
        assert result.makespan >= graph.critical_path_compute_time() - 1e-9

    def test_large_single_device_graph_fifo_order_and_speed(self):
        # Regression for the O(n^2) `ready.pop(0)` FIFO: a large fan-out on
        # one device enqueues every node in the per-device ready queue.  The
        # deque must preserve FIFO dispatch order (nodes run in the order
        # they became ready) and keep the simulation linear-ish in the node
        # count.
        import time as _time

        num_nodes = 4000
        graph = ExecutionGraph()
        root = graph.add_compute("root", device=1, duration=1.0)
        for i in range(num_nodes):
            graph.add_compute(f"fan{i}", device=1, duration=0.5,
                              deps=[root.node_id])
        started = _time.perf_counter()
        result = SystemSimulator().simulate(graph)
        elapsed = _time.perf_counter() - started
        assert result.makespan == pytest.approx(1.0 + 0.5 * num_nodes)
        assert len(result.node_timings) == num_nodes + 1
        # FIFO: fan-out nodes start in creation order, back to back.
        fan_timings = [t for t in result.node_timings if t.name.startswith("fan")]
        names_in_start_order = [t.name for t in sorted(fan_timings, key=lambda t: t.start)]
        assert names_in_start_order == [f"fan{i}" for i in range(num_nodes)]
        # Loose wall-clock bound: the quadratic version is far slower.
        assert elapsed < 10.0

    @given(durations=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=15),
           devices=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_makespan_bounds_random_chains(self, durations, devices):
        """Makespan lies between the critical path and the serial sum."""
        graph = ExecutionGraph()
        prev_ids = []
        for i, duration in enumerate(durations):
            node = graph.add_compute(f"n{i}", device=1 + (i % devices), duration=duration,
                                     deps=prev_ids[-1:] if i % 3 == 0 and prev_ids else [])
            prev_ids.append(node.node_id)
        result = SystemSimulator().simulate(graph)
        assert result.makespan <= sum(durations) + 1e-6
        assert result.makespan >= max(durations) - 1e-9
