"""Determinism suite: backends and the cluster event loop must be bit-identical.

The cluster loop's parallel fan-out is only admissible because the replica
simulations are deterministic and independent between arrivals, and the
event loop's skipped advances are only admissible because they are no-ops;
these tests pin both contracts across every routing policy, under
autoscaling, on trace-replay workloads, and with iteration-level
memoization on and off.  The second contract is checked against
:class:`LockstepClusterSimulator`, a test-only reference that advances every
replica at every arrival.  "Bit-identical" covers everything
the cluster *simulated* — routing assignments, per-replica iteration
records, request latency milestones, SLO metrics, the scaling timeline.
Simulator-side accounting is backend dependent: wall clock, and under
``process-pool`` the iteration-cache hit and miss counts, because each
worker serves its replica from a private cache.  The memoization tests pin
those counts on a case where they are known exactly.
"""

import dataclasses

import pytest

from repro import (AutoscaleConfig, ClusterConfig, ClusterSimulator, ReplicaSpec,
                   ServingSimConfig, TraceReplayConfig, generate_trace)
from repro.bench import SAMPLE_TRACE
from repro.cluster import (ProcessPoolBackend, SerialBackend, available_backends,
                           available_routers, build_backend)
from repro.workload import Request


def replica_config(**overrides):
    defaults = dict(model_name="gpt2", npu_num=1, npu_mem_gb=4.0)
    defaults.update(overrides)
    return ServingSimConfig(**defaults)


def bursty_trace(num_requests=12, seed=3):
    return generate_trace("alpaca", num_requests, arrival="poisson-burst",
                          rate_per_second=6.0, seed=seed)


class LockstepClusterSimulator(ClusterSimulator):
    """Reference cluster loop: advance *every* replica at every arrival.

    This is the retired lockstep engine.  It never skips an advance, so it
    checks that the event loop skips only advances that do nothing.
    """

    def _serve_arrivals(self, backend, requests, max_iterations_per_replica):
        for request in requests:
            backend.advance(range(len(self.replicas)), request.arrival_time,
                            max_iterations_per_replica)
            self._handle_arrival(backend, request)


def run_cluster(config, make_workload):
    """Run one cluster arm on a *fresh* workload.

    ``Request`` objects are mutated by the simulation, so each arm of a
    comparison must replay its own copy of the trace.
    """
    return ClusterSimulator(config).run(make_workload())


def assert_cluster_results_equal(a, b):
    """Assert two cluster runs simulated exactly the same thing."""
    assert a.routing == b.routing
    assert a.assignments == b.assignments
    assert a.replica_classes == b.replica_classes
    assert len(a.replica_results) == len(b.replica_results)
    for res_a, res_b in zip(a.replica_results, b.replica_results):
        assert res_a.iterations == res_b.iterations  # frozen dataclasses, exact
        req_a = sorted((r.request_id, r.arrival_time, r.first_token_time,
                        r.finish_time, r.generated_tokens, r.state)
                       for r in res_a.requests)
        req_b = sorted((r.request_id, r.arrival_time, r.first_token_time,
                        r.finish_time, r.generated_tokens, r.state)
                       for r in res_b.requests)
        assert req_a == req_b
    assert a.slo_metrics() == b.slo_metrics()
    assert a.scaling_timeline == b.scaling_timeline


class TestBackendRegistry:
    def test_builtin_backends_available(self):
        assert {"serial", "process-pool"} <= set(available_backends())
        assert isinstance(build_backend("serial"), SerialBackend)
        assert isinstance(build_backend("process-pool"), ProcessPoolBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            build_backend("gpu-farm")
        with pytest.raises(ValueError):
            ClusterSimulator(ClusterConfig(replica=replica_config(),
                                           execution_backend="gpu-farm"))
        with pytest.raises(ValueError):
            ClusterConfig(replica=replica_config(), execution_backend="")

    def test_register_custom_backend(self):
        """A custom backend is handed to the simulator, not registered by name."""
        class CountingSerial(SerialBackend):
            name = "counting-serial"

            def __init__(self):
                super().__init__()
                self.advances = 0

            def advance(self, indices, time, max_iterations=None):
                self.advances += 1
                super().advance(indices, time, max_iterations)

        backend = CountingSerial()
        simulator = ClusterSimulator(ClusterConfig(num_replicas=2, replica=replica_config()),
                                     backend=backend)
        result = simulator.run(bursty_trace(4))
        assert simulator.backend is backend and backend.advances > 0
        assert len(result.finished_requests) == 4
        assert "counting-serial" not in available_backends()


class TestBackendDeterminism:
    @pytest.mark.parametrize("routing", sorted(available_routers()))
    def test_process_pool_matches_serial_across_routing_policies(self, routing):
        results = {}
        for backend in ("serial", "process-pool"):
            config = ClusterConfig(num_replicas=2, routing=routing,
                                   replica=replica_config(),
                                   execution_backend=backend)
            results[backend] = run_cluster(config, bursty_trace)
        assert_cluster_results_equal(results["serial"], results["process-pool"])
        assert len(results["serial"].finished_requests) == 12

    def test_process_pool_matches_serial_on_heterogeneous_fleet(self):
        results = {}
        for backend in ("serial", "process-pool"):
            config = ClusterConfig(
                routing="weighted-capacity",
                replicas=[ReplicaSpec(replica_config(), count=1, name="small"),
                          ReplicaSpec(replica_config(npu_num=4), count=1, name="large")],
                execution_backend=backend)
            results[backend] = run_cluster(
                config, lambda: bursty_trace(num_requests=16, seed=23))
        assert_cluster_results_equal(results["serial"], results["process-pool"])

    def test_process_pool_matches_serial_on_autoscaled_run(self):
        def diurnal_trace():
            return generate_trace("alpaca", 24, arrival="diurnal", rate_per_second=4.0,
                                  amplitude=0.8, period_seconds=20.0, seed=42)

        results = {}
        for backend in ("serial", "process-pool"):
            config = ClusterConfig(
                num_replicas=3, routing="slo-ttft", replica=replica_config(),
                autoscale=AutoscaleConfig(min_replicas=1, max_replicas=3,
                                          window_seconds=3.0,
                                          target_rate_per_replica=1.5,
                                          warmup_seconds=0.5, cooldown_seconds=1.0),
                execution_backend=backend)
            results[backend] = run_cluster(config, diurnal_trace)
        assert results["serial"].scaling_timeline, "scenario must actually scale"
        assert_cluster_results_equal(results["serial"], results["process-pool"])

    def test_process_pool_respects_iteration_cap(self):
        config = ClusterConfig(num_replicas=2, routing="round-robin",
                               replica=replica_config(),
                               execution_backend="process-pool")
        result = ClusterSimulator(config).run(bursty_trace(8, seed=1),
                                              max_iterations_per_replica=2)
        assert all(len(res.iterations) <= 2 for res in result.replica_results)


class TestMemoizationDeterminism:
    def test_reuse_on_off_identical_cluster_results(self):
        results = {}
        for reuse in (False, True):
            config = ClusterConfig(num_replicas=2, routing="least-outstanding",
                                   replica=replica_config(enable_iteration_reuse=reuse))
            results[reuse] = run_cluster(
                config, lambda: bursty_trace(num_requests=16, seed=9))
        assert_cluster_results_equal(results[False], results[True])
        hits = sum(r.iteration_cache_hits for r in results[True].replica_results)
        assert hits > 0
        assert all(r.iteration_cache_hits == 0
                   for r in results[False].replica_results)

    def test_reuse_with_process_pool_matches_serial(self):
        results = {}
        for backend in ("serial", "process-pool"):
            config = ClusterConfig(num_replicas=2, routing="round-robin",
                                   replica=replica_config(enable_iteration_reuse=True),
                                   execution_backend=backend)
            results[backend] = run_cluster(
                config, lambda: bursty_trace(num_requests=12, seed=5))
        assert_cluster_results_equal(results["serial"], results["process-pool"])

    def test_cache_shared_per_replica_class(self):
        fleet = [ReplicaSpec(replica_config(enable_iteration_reuse=True),
                             count=2, name="small"),
                 ReplicaSpec(replica_config(npu_num=4, enable_iteration_reuse=True),
                             count=2, name="large")]
        sim = ClusterSimulator(ClusterConfig(routing="round-robin", replicas=fleet))
        assert set(sim.iteration_caches) == {"small", "large"}
        small_a, small_b, large_a, large_b = sim.replicas
        assert small_a.simulator.iteration_cache is small_b.simulator.iteration_cache
        assert large_a.simulator.iteration_cache is large_b.simulator.iteration_cache
        assert (small_a.simulator.iteration_cache
                is not large_a.simulator.iteration_cache)

    def test_sibling_replicas_hit_each_others_entries(self):
        # Identical requests round-robined over two same-class replicas: the
        # second replica's whole trace replays the first's cache entries.
        config = ClusterConfig(num_replicas=2, routing="round-robin",
                               replica=replica_config(enable_iteration_reuse=True))
        requests = [Request(i, 24, 16, arrival_time=4.0 * i) for i in range(2)]
        result = ClusterSimulator(config).run(requests)
        second = result.replica_results[1]
        assert len(second.iterations) > 0
        assert second.iteration_cache_misses == 0
        assert second.iteration_cache_hits == len(second.iterations)

    def test_no_cache_without_reuse_flag(self):
        sim = ClusterSimulator(ClusterConfig(num_replicas=2,
                                             replica=replica_config()))
        assert sim.iteration_caches == {}
        assert all(r.simulator.iteration_cache is None for r in sim.replicas)

    def test_process_pool_workers_keep_private_caches(self):
        """Each worker misses every signature once; the simulated output is serial's.

        Round-robin deals identical requests to two replicas.  Serially the
        second replica replays the first's entries; under process-pool each
        worker simulates the 28 signatures itself, so cluster-wide misses
        double while every replica still looks up once per iteration.
        """
        results, counts = {}, {}
        for backend in ("serial", "process-pool"):
            config = ClusterConfig(num_replicas=2, routing="round-robin",
                                   replica=replica_config(enable_iteration_reuse=True),
                                   execution_backend=backend)
            results[backend] = ClusterSimulator(config).run(
                [Request(i, 24, 28, arrival_time=2.0 * i) for i in range(8)])
            counts[backend] = [(r.iteration_cache_hits, r.iteration_cache_misses)
                               for r in results[backend].replica_results]
        assert counts["serial"] == [(84, 28), (112, 0)]
        assert counts["process-pool"] == [(84, 28), (84, 28)]
        assert_cluster_results_equal(results["serial"], results["process-pool"])

    def test_spawned_workers_match_serial_and_warm_start(self, tmp_path):
        """Spawned workers unpickle the seeded cache: identical output, no misses."""
        config = ClusterConfig(num_replicas=2, routing="round-robin",
                               replica=replica_config(enable_iteration_reuse=True),
                               cache_dir=str(tmp_path))
        requests = lambda: [Request(i, 24, 16, arrival_time=2.0 * i) for i in range(4)]
        serial = ClusterSimulator(config).run(requests())
        spawned = ClusterSimulator(
            config, backend=ProcessPoolBackend(start_method="spawn")).run(requests())
        assert_cluster_results_equal(serial, spawned)
        assert sum(r.iteration_cache_misses for r in serial.replica_results) > 0
        assert sum(r.iteration_cache_misses for r in spawned.replica_results) == 0


class TestEngineDeterminism:
    """Event loop == lockstep reference, under both backends, on every scenario shape."""

    ARMS = ((LockstepClusterSimulator, "serial"), (ClusterSimulator, "serial"),
            (ClusterSimulator, "process-pool"))

    def run_arms(self, make_config, make_workload):
        results = []
        for simulator_type, backend in self.ARMS:
            config = dataclasses.replace(make_config(), execution_backend=backend)
            results.append(simulator_type(config).run(make_workload()))
        for other in results[1:]:
            assert_cluster_results_equal(results[0], other)
        return results[0]

    @pytest.mark.parametrize("routing", sorted(available_routers()))
    def test_engines_match_across_routing_policies(self, routing):
        base = self.run_arms(
            lambda: ClusterConfig(num_replicas=2, routing=routing,
                                  replica=replica_config()),
            bursty_trace)
        assert len(base.finished_requests) == 12

    def test_engines_match_on_autoscaled_run(self):
        def diurnal_trace():
            return generate_trace("alpaca", 24, arrival="diurnal",
                                  rate_per_second=4.0, amplitude=0.8,
                                  period_seconds=20.0, seed=42)

        base = self.run_arms(
            lambda: ClusterConfig(
                num_replicas=3, routing="slo-ttft", replica=replica_config(),
                autoscale=AutoscaleConfig(min_replicas=1, max_replicas=3,
                                          window_seconds=3.0,
                                          target_rate_per_replica=1.5,
                                          warmup_seconds=0.5,
                                          cooldown_seconds=1.0)),
            diurnal_trace)
        assert base.scaling_timeline, "scenario must actually scale"

    def test_engines_match_on_trace_replay_run(self):
        base = self.run_arms(
            lambda: ClusterConfig(
                num_replicas=2, routing="least-outstanding",
                replica=replica_config(),
                trace_replay=TraceReplayConfig(path=str(SAMPLE_TRACE),
                                               format="azure", rate_scale=2.0,
                                               window=(0.0, 30.0))),
            lambda: None)
        assert base.finished_requests

    @pytest.mark.parametrize("reuse", [False, True])
    def test_engines_match_with_and_without_cache(self, reuse):
        self.run_arms(
            lambda: ClusterConfig(num_replicas=2, routing="round-robin",
                                  replica=replica_config(
                                      enable_iteration_reuse=reuse)),
            lambda: bursty_trace(num_requests=10, seed=5))

    def test_event_driven_respects_iteration_cap(self):
        config = ClusterConfig(num_replicas=2, routing="round-robin",
                               replica=replica_config(),
                               execution_backend="process-pool")
        result = ClusterSimulator(config).run(bursty_trace(8, seed=1),
                                              max_iterations_per_replica=2)
        assert all(len(res.iterations) <= 2 for res in result.replica_results)


class TestLazyMasterReplicas:
    """Under process-pool the master must never build its own simulators."""

    def test_master_simulators_not_built_under_process_pool(self):
        config = ClusterConfig(num_replicas=2, routing="least-outstanding",
                               replica=replica_config(enable_iteration_reuse=True),
                               execution_backend="process-pool")
        sim = ClusterSimulator(config)
        assert all(r._simulator is None for r in sim.replicas)
        result = sim.run(bursty_trace(6, seed=2))
        assert len(result.finished_requests) == 6
        assert all(r._simulator is None for r in sim.replicas), \
            "process-pool run built redundant master-side simulators"

    def test_capability_signals_without_simulator(self):
        replica = ClusterSimulator(ClusterConfig(
            num_replicas=1, replica=replica_config())).replicas[0]
        assert replica.device_throughput_tflops > 0
        assert replica.kv_budget_bytes > 0
        assert replica.engine_kind == "npu"
        assert replica.model.name == "gpt2"
        assert replica._simulator is None, \
            "capability signals must derive from the config alone"
