"""Unit tests for the multi-replica cluster serving layer and SLO metrics."""

import pytest

from repro import (AutoscaleConfig, ClusterConfig, ClusterSimulator, ReplicaSpec,
                   ServingSimConfig, generate_trace)
from repro.analysis import (percentile, request_slo_metrics, slo_attainment, slo_summary,
                            time_between_tokens)
from repro.cli import main as cli_main
from repro.cluster import (ClusterResult, LeastKVUtilizationRouter,
                           LeastOutstandingRouter, ReplicaLifecycle, RequestRouter,
                           RoundRobinRouter, SLOTTFTRouter, WeightedCapacityRouter,
                           available_routers, build_router, register_router,
                           routable_indices)
from repro.workload import Request


def replica_config(**overrides):
    defaults = dict(model_name="gpt2", npu_num=1, npu_mem_gb=4.0)
    defaults.update(overrides)
    return ServingSimConfig(**defaults)


class FakeReplicaView:
    def __init__(self, outstanding, kv, latency=0.0, capability=0.0, routable=True):
        self.outstanding_requests = outstanding
        self.kv_utilization = kv
        self.mean_iteration_latency = latency
        self.device_throughput_tflops = capability
        self.is_routable = routable


class TestRouters:
    def test_round_robin_cycles(self):
        router = RoundRobinRouter()
        views = [FakeReplicaView(0, 0.0)] * 3
        request = Request(0, 8, 2)
        picks = [router.select(views, request) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_least_outstanding_picks_emptiest(self):
        router = LeastOutstandingRouter()
        views = [FakeReplicaView(5, 0.1), FakeReplicaView(2, 0.9), FakeReplicaView(2, 0.5)]
        assert router.select(views, Request(0, 8, 2)) == 1  # ties break to lowest index

    def test_least_kv_picks_most_free_memory(self):
        router = LeastKVUtilizationRouter()
        views = [FakeReplicaView(1, 0.8), FakeReplicaView(9, 0.2), FakeReplicaView(1, 0.5)]
        assert router.select(views, Request(0, 8, 2)) == 1

    def test_round_robin_no_reskew_when_active_set_changes(self):
        # Regression: a `cursor % len(replicas)` round-robin silently re-skews
        # (and can pick a non-routable replica) when the active-replica count
        # changes mid-run under autoscaling.
        router = RoundRobinRouter()
        views = [FakeReplicaView(0, 0.0) for _ in range(3)]
        request = Request(0, 8, 2)
        assert [router.select(views, request) for _ in range(3)] == [0, 1, 2]
        views[1].is_routable = False  # autoscaler drained replica 1
        picks = [router.select(views, request) for _ in range(4)]
        assert picks == [0, 2, 0, 2]  # fair over the active set, 1 never chosen
        views[1].is_routable = True   # replica 1 comes back
        assert [router.select(views, request) for _ in range(3)] == [0, 1, 2]

    def test_all_builtin_routers_skip_non_routable_replicas(self):
        request = Request(0, 8, 2)
        for name in available_routers():
            router = build_router(name)
            views = [FakeReplicaView(0, 0.0, routable=False),
                     FakeReplicaView(9, 0.9, latency=5.0, capability=0.1)]
            assert router.select(views, request) == 1, name

    def test_routable_indices_defaults_and_empty_error(self):
        views = [FakeReplicaView(0, 0.0), FakeReplicaView(0, 0.0, routable=False)]
        assert routable_indices(views) == [0]
        assert routable_indices([object(), object()]) == [0, 1]  # no lifecycle attr
        with pytest.raises(ValueError):
            routable_indices([FakeReplicaView(0, 0.0, routable=False)] * 2)

    def test_slo_ttft_prefers_lowest_predicted_ttft(self):
        router = SLOTTFTRouter()
        # Replica 0: short queue but slow iterations; replica 1: deeper queue,
        # fast iterations -> lower predicted TTFT wins.
        views = [FakeReplicaView(2, 0.0, latency=1.0),
                 FakeReplicaView(5, 0.0, latency=0.1)]
        assert router.select(views, Request(0, 8, 2)) == 1
        assert SLOTTFTRouter.predicted_ttft(views[0]) == pytest.approx(3.0)
        assert SLOTTFTRouter.predicted_ttft(views[1]) == pytest.approx(0.6)

    def test_slo_ttft_cold_replicas_ranked_by_capability(self):
        router = SLOTTFTRouter()
        views = [FakeReplicaView(0, 0.0, capability=1.0),
                 FakeReplicaView(0, 0.0, capability=4.0)]
        assert router.select(views, Request(0, 8, 2)) == 1

    def test_weighted_capacity_is_capability_proportional(self):
        router = WeightedCapacityRouter()
        views = [FakeReplicaView(0, 0.0, capability=1.0),
                 FakeReplicaView(0, 0.0, capability=3.0)]
        picks = [router.select(views, Request(i, 8, 2)) for i in range(40)]
        assert picks.count(1) == 30 and picks.count(0) == 10

    def test_weighted_capacity_defaults_to_uniform_without_capability(self):
        router = WeightedCapacityRouter()
        views = [FakeReplicaView(0, 0.0), FakeReplicaView(0, 0.0)]
        picks = [router.select(views, Request(i, 8, 2)) for i in range(10)]
        assert picks.count(0) == picks.count(1) == 5

    def test_build_router_dispatch(self):
        assert isinstance(build_router("round-robin"), RoundRobinRouter)
        assert isinstance(build_router("least-outstanding"), LeastOutstandingRouter)
        assert isinstance(build_router("least-kv"), LeastKVUtilizationRouter)
        assert isinstance(build_router("slo-ttft"), SLOTTFTRouter)
        assert isinstance(build_router("weighted-capacity"), WeightedCapacityRouter)
        with pytest.raises(ValueError):
            build_router("random")

    def test_register_custom_router(self):
        class AlwaysFirstRouter(RequestRouter):
            name = "always-first"

            def select(self, replicas, request):
                return 0

        register_router("always-first", AlwaysFirstRouter)
        try:
            assert "always-first" in available_routers()
            config = ClusterConfig(num_replicas=2, routing="always-first",
                                   replica=replica_config())
            trace = generate_trace("alpaca", 4, arrival="burst", seed=0)
            result = ClusterSimulator(config).run(trace)
            assert result.requests_per_replica() == [4, 0]
        finally:
            from repro.cluster.router import _ROUTER_FACTORIES
            _ROUTER_FACTORIES.pop("always-first", None)


class TestClusterConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_replicas=0)
        with pytest.raises(ValueError):
            ClusterConfig(routing="")

    def test_unknown_routing_rejected_at_build(self):
        with pytest.raises(ValueError):
            ClusterSimulator(ClusterConfig(routing="magic", replica=replica_config()))

    def test_single_template_expands_to_one_spec(self):
        config = ClusterConfig(num_replicas=3, replica=replica_config())
        specs = config.replica_specs()
        assert len(specs) == 1 and specs[0].count == 3
        expanded = config.expanded_replicas()
        assert len(expanded) == 3
        assert all(name == specs[0].name for name, _ in expanded)

    def test_heterogeneous_specs_drive_num_replicas(self):
        config = ClusterConfig(
            num_replicas=99,  # overridden by the explicit spec list
            replicas=[ReplicaSpec(replica_config(), count=2, name="small"),
                      ReplicaSpec(replica_config(npu_num=4), count=1, name="large")])
        assert config.num_replicas == 3
        assert [name for name, _ in config.expanded_replicas()] == ["small", "small", "large"]
        assert config.expanded_replicas()[2][1].npu_num == 4

    def test_replica_spec_default_name_from_hardware(self):
        assert ReplicaSpec(replica_config()).name == "gpt2-npu1"
        assert ReplicaSpec(replica_config(npu_num=2, pim_type="pool")).name == "gpt2-npu2-pim-pool"

    def test_replica_spec_validation(self):
        with pytest.raises(ValueError):
            ReplicaSpec(replica_config(), count=0)
        with pytest.raises(ValueError):
            ClusterConfig(replicas=[])

    def test_autoscale_bounds_validation(self):
        with pytest.raises(ValueError):
            AutoscaleConfig(min_replicas=0)
        with pytest.raises(ValueError):
            AutoscaleConfig(min_replicas=3, max_replicas=2)
        with pytest.raises(ValueError):
            AutoscaleConfig(target_rate_per_replica=0.0)
        with pytest.raises(ValueError):
            ClusterConfig(num_replicas=2, replica=replica_config(),
                          autoscale=AutoscaleConfig(min_replicas=3))
        with pytest.raises(ValueError):
            ClusterConfig(num_replicas=2, replica=replica_config(),
                          autoscale=AutoscaleConfig(min_replicas=1, max_replicas=4))

    def test_slo_target_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(replica=replica_config(), ttft_slo=0.0)
        with pytest.raises(ValueError):
            ClusterConfig(replica=replica_config(), e2e_slo=-1.0)


class TestClusterSimulator:
    def _run(self, routing, num_requests=12, num_replicas=2, arrival="poisson-burst",
             rate=6.0, seed=3):
        config = ClusterConfig(num_replicas=num_replicas, routing=routing,
                               replica=replica_config())
        trace = generate_trace("alpaca", num_requests, arrival=arrival,
                               rate_per_second=rate, seed=seed)
        return ClusterSimulator(config).run(trace)

    @pytest.mark.parametrize("routing", ["round-robin", "least-outstanding", "least-kv"])
    def test_all_requests_finish_under_every_policy(self, routing):
        result = self._run(routing)
        assert len(result.finished_requests) == 12
        assert result.num_replicas == 2
        assert sum(result.requests_per_replica()) == 12
        assert result.makespan > 0
        assert result.generation_throughput > 0

    def test_rejected_requests_are_counted(self):
        config = ClusterConfig(num_replicas=2, routing="round-robin",
                               replica=replica_config(kv_capacity_bytes=4 * 2**20))
        requests = [Request(0, 16, 8, 0.0), Request(1, 900, 8, 0.1), Request(2, 16, 8, 0.2)]
        result = ClusterSimulator(config).run(requests)
        assert [r.request_id for r in result.rejected_requests] == [1]
        assert len(result.finished_requests) == 2
        assert ["requests rejected", "1"] in result.summary_rows()

    def test_assignment_covers_every_request(self):
        result = self._run("least-outstanding")
        assert sorted(result.assignments) == sorted(r.request_id for r in result.requests)
        assert set(result.assignments.values()) <= {0, 1}

    def test_round_robin_balances_counts(self):
        result = self._run("round-robin", num_requests=10)
        assert result.requests_per_replica() == [5, 5]
        assert result.assignment_imbalance() == pytest.approx(1.0)

    def test_replica_results_are_independent(self):
        result = self._run("round-robin")
        for replica_result, count in zip(result.replica_results,
                                         result.requests_per_replica()):
            assert len(replica_result.requests) == count
            assert all(r.is_finished for r in replica_result.requests)

    def test_policies_differ_under_bursty_load(self):
        # Round-robin alternates blindly while least-outstanding reacts to
        # queue depth, so on a bursty trace the two must route at least some
        # requests differently (they'd coincide only on perfectly smooth load).
        rr = self._run("round-robin", num_requests=24, rate=12.0, seed=11)
        lo = self._run("least-outstanding", num_requests=24, rate=12.0, seed=11)
        assert rr.assignments != lo.assignments
        assert len(lo.finished_requests) == 24

    def test_slo_metrics_structure(self):
        result = self._run("least-kv")
        slos = result.slo_metrics()
        assert set(slos) == {"ttft", "tbt", "e2e"}
        for summary in slos.values():
            assert summary.count > 0
            assert summary.p50 <= summary.p95 <= summary.p99 <= summary.maximum
        # E2E latency dominates TTFT by construction.
        assert slos["e2e"].p50 >= slos["ttft"].p50

    def test_summary_rows_render(self):
        result = self._run("round-robin", num_requests=6)
        rows = result.summary_rows()
        labels = [row[0] for row in rows]
        assert "TTFT p50/p95/p99 (s)" in labels
        assert "E2E latency p50/p95/p99 (s)" in labels

    def test_single_replica_matches_standalone_simulator(self):
        from repro import LLMServingSim
        trace = generate_trace("alpaca", 8, arrival="poisson", rate_per_second=2.0, seed=5)
        cluster = ClusterSimulator(ClusterConfig(num_replicas=1, routing="round-robin",
                                                 replica=replica_config()))
        cluster_result = cluster.run(trace)
        standalone = LLMServingSim(replica_config()).run(
            generate_trace("alpaca", 8, arrival="poisson", rate_per_second=2.0, seed=5))
        assert cluster_result.makespan == pytest.approx(standalone.makespan)
        assert cluster_result.total_generated_tokens == standalone.total_generated_tokens

    def test_max_iterations_cap(self):
        config = ClusterConfig(num_replicas=2, routing="round-robin",
                               replica=replica_config())
        trace = generate_trace("alpaca", 8, arrival="burst", seed=1)
        result = ClusterSimulator(config).run(trace, max_iterations_per_replica=2)
        assert all(len(res.iterations) <= 2 for res in result.replica_results)

    def test_empty_cluster_result_metrics(self):
        result = ClusterResult(routing="round-robin")
        assert result.makespan == 0.0
        assert result.generation_throughput == 0.0
        assert result.assignment_imbalance() == 1.0


class TestReplicaCapabilitySignals:
    def test_capability_scales_with_npu_num(self):
        sim = ClusterSimulator(ClusterConfig(
            replicas=[ReplicaSpec(replica_config(), count=1, name="small"),
                      ReplicaSpec(replica_config(npu_num=4), count=1, name="large")]))
        small, large = sim.replicas
        assert small.device_throughput_tflops > 0
        assert large.device_throughput_tflops > small.device_throughput_tflops
        assert large.estimated_iteration_latency < small.estimated_iteration_latency
        assert small.kv_budget_bytes > 0
        assert small.engine_kind == "npu"
        assert small.class_name == "small" and large.class_name == "large"

    def test_engine_kind_reports_pim(self):
        sim = ClusterSimulator(ClusterConfig(
            num_replicas=1, replica=replica_config(pim_type="local")))
        assert sim.replicas[0].engine_kind == "npu+pim"

    def test_throughput_estimate_built_once_per_replica_class(self, monkeypatch):
        import repro.cluster.simulator as cluster_simulator

        calls = []
        original = cluster_simulator.build_iteration_graph

        def counting(model, batch):
            calls.append(model.name)
            return original(model, batch)

        monkeypatch.setattr(cluster_simulator, "build_iteration_graph", counting)
        cluster_simulator._THROUGHPUT_ESTIMATES.clear()
        ClusterSimulator(ClusterConfig(num_replicas=4, replica=replica_config()))
        assert len(calls) == 1  # one roofline graph build for 4 identical replicas
        ClusterSimulator(ClusterConfig(
            replicas=[ReplicaSpec(replica_config(), count=2, name="small"),
                      ReplicaSpec(replica_config(npu_num=4), count=2, name="large")]))
        assert len(calls) == 2  # the small class reuses the memoized estimate

    def test_mean_iteration_latency_measured(self):
        sim = ClusterSimulator(ClusterConfig(num_replicas=1, replica=replica_config()))
        replica = sim.replicas[0]
        assert replica.mean_iteration_latency == 0.0
        sim.run(generate_trace("alpaca", 2, arrival="burst", seed=0))
        assert replica.mean_iteration_latency > 0.0


class TestHeterogeneousRouting:
    """A 2-class fleet where capability-aware routing must pay off."""

    @staticmethod
    def _fleet():
        small = ServingSimConfig(model_name="gpt3-7b", npu_num=1, max_batch=4,
                                 graph_granularity="block")
        large = ServingSimConfig(model_name="gpt3-7b", npu_num=4, max_batch=4,
                                 graph_granularity="block")
        return [ReplicaSpec(config=small, count=2, name="small"),
                ReplicaSpec(config=large, count=2, name="large")]

    @staticmethod
    def _trace():
        return generate_trace("alpaca", 32, arrival="poisson-burst",
                              rate_per_second=24.0, burst_size_mean=6.0, seed=23)

    def test_weighted_capacity_beats_round_robin_on_p95_ttft(self):
        results = {}
        for routing in ("round-robin", "weighted-capacity"):
            config = ClusterConfig(routing=routing, replicas=self._fleet())
            results[routing] = ClusterSimulator(config).run(self._trace())
        rr = results["round-robin"].slo_metrics()["ttft"].p95
        wc = results["weighted-capacity"].slo_metrics()["ttft"].p95
        assert wc < rr
        # The win comes from shifting load to the large replicas.
        split = results["weighted-capacity"].requests_per_replica()
        assert sum(split[2:]) > sum(split[:2])
        assert results["round-robin"].requests_per_replica() == [8, 8, 8, 8]

    def test_per_class_slo_views(self):
        config = ClusterConfig(routing="weighted-capacity", replicas=self._fleet(),
                               ttft_slo=5.0, e2e_slo=60.0)
        result = ClusterSimulator(config).run(self._trace())
        per_class = result.per_class_slo_metrics()
        assert set(per_class) == {"small", "large"}
        assert per_class["large"]["ttft"].count > per_class["small"]["ttft"].count
        attained = result.slo_attainment()
        assert set(attained) == {"small", "large", "cluster"}
        for attainment in attained.values():
            assert attainment.ttft_rate is not None and 0.0 <= attainment.ttft_rate <= 1.0
            assert attainment.e2e_rate is not None and 0.0 <= attainment.e2e_rate <= 1.0


def autoscaled_cluster(routing="round-robin", min_replicas=1, max_replicas=4,
                       window=2.0, target_rate=1.0, warmup=0.5, cooldown=0.5,
                       replicas=None):
    config = ClusterConfig(
        num_replicas=4, routing=routing, replica=replica_config(),
        replicas=replicas,
        autoscale=AutoscaleConfig(min_replicas=min_replicas, max_replicas=max_replicas,
                                  window_seconds=window,
                                  target_rate_per_replica=target_rate,
                                  warmup_seconds=warmup, cooldown_seconds=cooldown))
    return ClusterSimulator(config)


class TestAutoscaler:
    def test_starts_with_min_replicas_active(self):
        sim = autoscaled_cluster(min_replicas=2)
        states = [r.lifecycle for r in sim.replicas]
        assert states == [ReplicaLifecycle.ACTIVE, ReplicaLifecycle.ACTIVE,
                          ReplicaLifecycle.STOPPED, ReplicaLifecycle.STOPPED]

    def test_warming_replica_accepts_no_routes_until_warm(self):
        sim = autoscaled_cluster(min_replicas=1, warmup=2.0)
        replica = sim.replicas[1]
        replica.activate(now=10.0, warmup_seconds=2.0)
        assert replica.lifecycle is ReplicaLifecycle.WARMING
        assert not replica.is_routable
        replica.update_lifecycle(11.9)
        assert not replica.is_routable
        replica.update_lifecycle(12.0)
        assert replica.lifecycle is ReplicaLifecycle.ACTIVE
        assert replica.is_routable

    def test_deactivated_replica_drains_then_stops(self):
        sim = autoscaled_cluster(min_replicas=2)
        replica = sim.replicas[0]
        replica.submit(Request(0, 8, 2, arrival_time=0.0))
        replica.deactivate()
        assert replica.lifecycle is ReplicaLifecycle.DRAINING
        assert not replica.is_routable
        while replica.has_work:
            assert replica.step()
        replica.update_lifecycle(replica.clock)
        assert replica.lifecycle is ReplicaLifecycle.STOPPED

    def test_reactivating_draining_replica_skips_warmup(self):
        sim = autoscaled_cluster(min_replicas=2)
        replica = sim.replicas[0]
        replica.submit(Request(0, 8, 2, arrival_time=0.0))
        replica.deactivate()
        replica.activate(now=1.0, warmup_seconds=5.0)
        assert replica.lifecycle is ReplicaLifecycle.ACTIVE

    def test_scaling_timeline_follows_diurnal_load_up_and_down(self):
        sim = autoscaled_cluster(min_replicas=1, window=4.0, target_rate=1.0,
                                 warmup=0.5, cooldown=1.0)
        # A hand-written diurnal day: sparse trough, dense midday peak,
        # sparse evening tail.
        arrivals = ([1.0, 4.0, 7.0]                                  # ~0.3 req/s
                    + [10.0 + 0.25 * i for i in range(16)]           # ~4 req/s peak
                    + [25.0, 32.0, 39.0, 46.0])                      # back to trough
        requests = [Request(i, 8, 2, arrival_time=t) for i, t in enumerate(arrivals)]
        result = sim.run(requests)
        assert len(result.finished_requests) == len(requests)
        actions = [event.action for event in result.scaling_timeline]
        assert "scale-up" in actions and "scale-down" in actions
        assert result.peak_provisioned_replicas() >= 2
        # The fleet returns to the trough size by the end of the day.
        assert result.scaling_timeline[-1].action == "scale-down"
        assert result.scaling_timeline[-1].provisioned_after == 1
        series = result.provisioned_series()
        assert series[0] == (0.0, 1)
        counts = [count for _, count in series]
        assert max(counts) == result.peak_provisioned_replicas()

    def test_peak_provisioned_accounts_for_initial_count(self):
        from repro import ScalingEvent
        # A run that starts at 3 provisioned and only scales down: the peak
        # is the initial count, not the largest event value.
        result = ClusterResult(
            routing="round-robin",
            scaling_timeline=[ScalingEvent(5.0, "scale-down", 2, "default", 2),
                              ScalingEvent(9.0, "scale-down", 1, "default", 1)],
            initial_provisioned=3)
        assert result.peak_provisioned_replicas() == 3
        assert result.provisioned_series() == [(0.0, 3), (5.0, 2), (9.0, 1)]
        # An autoscaled run that never scaled: the peak is min_replicas, not
        # the parked fleet size.
        sim = autoscaled_cluster(min_replicas=1, window=100.0, target_rate=100.0)
        run = sim.run(generate_trace("alpaca", 4, arrival="poisson",
                                     rate_per_second=2.0, seed=1))
        assert run.peak_provisioned_replicas() == 1

    def test_router_never_routes_to_parked_replicas(self):
        sim = autoscaled_cluster(min_replicas=1, routing="round-robin",
                                 window=100.0, target_rate=100.0)  # never scales up
        trace = generate_trace("alpaca", 8, arrival="poisson", rate_per_second=2.0, seed=1)
        result = sim.run(trace)
        assert set(result.assignments.values()) == {0}
        assert result.scaling_timeline == []

    def test_draining_replica_stops_after_final_drain(self):
        # Regression: a replica scaled down while it still holds outstanding
        # requests enters DRAINING; once the arrival loop ends, only the
        # final drain phase finishes its work — without a lifecycle refresh
        # there, the run ends with the replica stuck in DRAINING and the
        # terminal state under-reported.
        config = ClusterConfig(
            num_replicas=2, routing="least-outstanding",
            replica=replica_config(),
            autoscale=AutoscaleConfig(min_replicas=1, max_replicas=2,
                                      window_seconds=1.0,
                                      target_rate_per_replica=1.0,
                                      warmup_seconds=0.0, cooldown_seconds=0.0))
        # An opening burst scales up to 2 replicas and the long outputs keep
        # both busy; a lone late arrival drops the window rate to 1 req/s,
        # scaling replica 1 down mid-flight.
        requests = [Request(i, 16, 64, arrival_time=0.05 * i) for i in range(4)]
        requests.append(Request(99, 16, 8, arrival_time=5.0))
        sim = ClusterSimulator(config)
        result = sim.run(requests)
        actions = [(event.action, event.replica_id) for event in result.scaling_timeline]
        assert ("scale-up", 1) in actions and ("scale-down", 1) in actions
        assert len(result.finished_requests) == len(requests)
        # The drained replica finished its outstanding work during the final
        # drain phase and must be recorded as STOPPED, not DRAINING.
        assert sim.replicas[1].lifecycle is ReplicaLifecycle.STOPPED
        assert all(r.lifecycle is not ReplicaLifecycle.DRAINING
                   for r in sim.replicas)
        # The timeline agrees with the terminal state: after the last
        # scale-down only replica 0 is provisioned.
        assert result.scaling_timeline[-1].action == "scale-down"
        assert result.scaling_timeline[-1].provisioned_after == 1

    def test_heterogeneous_slo_ttft_autoscaled_fleet(self):
        # The acceptance scenario: a 4-replica 2-class fleet under slo-ttft
        # routing with autoscaling bounds must produce a populated scaling
        # timeline and per-class SLO attainment.
        fleet = [ReplicaSpec(replica_config(max_batch=8), count=2, name="small"),
                 ReplicaSpec(replica_config(npu_num=4, max_batch=8), count=2, name="large")]
        config = ClusterConfig(
            routing="slo-ttft", replicas=fleet,
            autoscale=AutoscaleConfig(min_replicas=2, max_replicas=4,
                                      window_seconds=5.0, target_rate_per_replica=1.25,
                                      warmup_seconds=2.0, cooldown_seconds=3.0),
            ttft_slo=2.0, e2e_slo=30.0)
        trace = generate_trace("alpaca", 90, arrival="diurnal", rate_per_second=3.0,
                               amplitude=0.85, period_seconds=30.0, seed=42)
        result = ClusterSimulator(config).run(trace)
        assert len(result.finished_requests) == 90
        assert result.scaling_timeline, "diurnal load must trigger scaling"
        assert {event.replica_class for event in result.scaling_timeline} <= {"small", "large"}
        attained = result.slo_attainment()
        assert set(attained) == {"small", "large", "cluster"}
        assert attained["cluster"].total == 90
        assert attained["cluster"].ttft_rate is not None
        assert attained["cluster"].e2e_rate is not None
        rows = dict((row[0], row[1]) for row in result.summary_rows())
        assert "scaling events" in rows
        assert "SLO attainment [small]" in rows


class TestSLOAttainment:
    def test_counts_and_rates(self):
        done = Request(0, 8, 2, arrival_time=0.0)
        done.record_prompt_done(0.5)
        done.record_generated_token(1.0)
        slow = Request(1, 8, 2, arrival_time=0.0)
        slow.record_prompt_done(3.0)
        slow.record_generated_token(9.0)
        attained = slo_attainment([done, slow], ttft_target=1.0, e2e_target=5.0)
        assert attained.total == 2
        assert attained.ttft_met == 1 and attained.ttft_rate == pytest.approx(0.5)
        assert attained.e2e_met == 1 and attained.e2e_rate == pytest.approx(0.5)

    def test_unserved_requests_count_as_misses(self):
        waiting = Request(0, 8, 2, arrival_time=0.0)
        attained = slo_attainment([waiting], ttft_target=10.0, e2e_target=10.0)
        assert attained.ttft_rate == 0.0 and attained.e2e_rate == 0.0

    def test_untargeted_metrics_are_none(self):
        attained = slo_attainment([], ttft_target=1.0)
        assert attained.total == 0
        assert attained.ttft_rate == 1.0  # vacuously met
        assert attained.e2e_met is None and attained.e2e_rate is None

    def test_invalid_targets_raise(self):
        with pytest.raises(ValueError):
            slo_attainment([], ttft_target=0.0)
        with pytest.raises(ValueError):
            slo_attainment([], e2e_target=-1.0)


class TestSLOMetrics:
    def test_percentile_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile(values, 120)

    def test_slo_summary_statistics(self):
        summary = slo_summary([0.1] * 99 + [10.0])
        assert summary.count == 100
        assert summary.p50 == pytest.approx(0.1)
        assert summary.p99 < summary.maximum == 10.0

    def test_slo_summary_empty(self):
        summary = slo_summary([])
        assert summary.count == 0
        assert summary.p99 == 0.0

    def test_time_between_tokens(self):
        request = Request(0, 8, 5, arrival_time=0.0)
        request.record_prompt_done(1.0)
        for t in (1.5, 2.0, 2.5, 3.0):
            request.record_generated_token(t)
        assert time_between_tokens(request) == pytest.approx(0.5)

    def test_time_between_tokens_undefined_for_single_token(self):
        request = Request(0, 8, 1)
        request.record_prompt_done(1.0)
        assert time_between_tokens(request) is None

    def test_request_slo_metrics_excludes_unfinished(self):
        done = Request(0, 8, 2, arrival_time=0.0)
        done.record_prompt_done(1.0)
        done.record_generated_token(1.5)
        waiting = Request(1, 8, 2, arrival_time=0.0)
        slos = request_slo_metrics([done, waiting])
        assert slos["ttft"].count == 1
        assert slos["e2e"].count == 1
        assert slos["e2e"].p50 == pytest.approx(1.5)


class TestClusterCLI:
    def test_cluster_subcommand_end_to_end(self, capsys):
        exit_code = cli_main([
            "cluster", "--replicas", "2", "--routing", "least-kv",
            "--model-name", "gpt2", "--npu-num", "1", "--npu-mem", "4",
            "--dataset", "alpaca", "--num-requests", "6", "--rate", "4.0",
        ])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "least-kv" in captured
        assert "6/6" in captured
        assert "TTFT p50/p95/p99" in captured

    def test_flat_interface_still_works(self, capsys):
        exit_code = cli_main(["--model-name", "gpt2", "--npu-num", "1", "--npu-mem", "4",
                              "--dataset", "alpaca", "--num-requests", "2", "--rate", "5.0"])
        assert exit_code == 0
        assert "generation throughput" in capsys.readouterr().out

    def test_replica_spec_and_autoscale_flags(self, capsys):
        exit_code = cli_main([
            "cluster", "--routing", "slo-ttft",
            "--model-name", "gpt2", "--npu-mem", "4", "--dataset", "alpaca",
            "--replica-spec", "count=1,npu_num=1,name=small",
            "--replica-spec", "count=1,npu_num=4,name=large",
            "--autoscale", "1:2", "--autoscale-window", "2",
            "--autoscale-target-rate", "2", "--autoscale-warmup", "0.5",
            "--autoscale-cooldown", "0.5", "--ttft-slo", "2.0",
            "--num-requests", "8", "--rate", "8.0", "--arrival", "poisson-burst",
        ])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "1x small, 1x large" in captured
        assert "8/8" in captured
        assert "SLO attainment [cluster]" in captured

    def test_replica_spec_parsing(self):
        import argparse
        from repro.cli import parse_autoscale_bounds, parse_replica_spec
        base = replica_config()
        spec = parse_replica_spec("count=3,npu-num=4,name=big,scheduling=static", base)
        assert spec.count == 3 and spec.name == "big"
        assert spec.config.npu_num == 4 and spec.config.scheduling == "static"
        assert spec.config.model_name == base.model_name  # inherited
        assert base.npu_num == 1  # base untouched
        with pytest.raises(argparse.ArgumentTypeError):
            parse_replica_spec("bogus_field=1", base)
        with pytest.raises(argparse.ArgumentTypeError):
            parse_replica_spec("npu_num", base)
        with pytest.raises(argparse.ArgumentTypeError):
            parse_replica_spec("count=abc", base)
        with pytest.raises(argparse.ArgumentTypeError):
            parse_replica_spec("npu_num=four", base)
        with pytest.raises(argparse.ArgumentTypeError):
            parse_replica_spec("npu_num=0", base)  # rejected by config validation
        with pytest.raises(argparse.ArgumentTypeError):
            parse_autoscale_bounds("3")
        assert parse_autoscale_bounds("1:4") == (1, 4)

    def test_bad_replica_spec_is_clean_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["cluster", "--model-name", "gpt2", "--npu-mem", "4",
                      "--replica-spec", "bogus=1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "Traceback" not in err
