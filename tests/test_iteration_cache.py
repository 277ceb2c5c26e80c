"""Unit tests for iteration-level memoization (the reuse hierarchy's top level)."""

import dataclasses
import pickle
import sys
import threading

import pytest

from repro import LLMServingSim, ServingSimConfig
from repro.engine import (EngineStackReport, IterationCacheEntry,
                          IterationCacheService, IterationReuseCache,
                          RemoteIterationCache,
                          iteration_cache_file, iteration_signature,
                          load_iteration_cache, save_iteration_cache)
from repro.models import BatchComposition, Phase, SequenceSpec
from repro.scheduler.kv_cache import KVMemoryEvent, KVMemoryEventType
from repro.workload import Request


def small_config(**overrides):
    defaults = dict(model_name="gpt2", npu_num=1, npu_mem_gb=4.0)
    defaults.update(overrides)
    return ServingSimConfig(**defaults)


def steady_requests(n, input_tokens=24, output_tokens=16, gap=2.0):
    return [Request(i, input_tokens, output_tokens, arrival_time=gap * i)
            for i in range(n)]


class TestIterationSignature:
    def test_ignores_request_ids(self):
        batch_a = BatchComposition([SequenceSpec(1, 32, 1, Phase.GENERATION),
                                    SequenceSpec(2, 0, 16, Phase.INITIATION)])
        batch_b = BatchComposition([SequenceSpec(7, 32, 1, Phase.GENERATION),
                                    SequenceSpec(9, 0, 16, Phase.INITIATION)])
        assert iteration_signature(batch_a) == iteration_signature(batch_b)

    def test_sensitive_to_geometry(self):
        base = BatchComposition([SequenceSpec(0, 32, 1, Phase.GENERATION)])
        longer = BatchComposition([SequenceSpec(0, 33, 1, Phase.GENERATION)])
        other_phase = BatchComposition([SequenceSpec(0, 32, 1, Phase.INITIATION)])
        assert iteration_signature(base) != iteration_signature(longer)
        assert iteration_signature(base) != iteration_signature(other_phase)

    def test_sensitive_to_memory_events_and_partitioning(self):
        batch = BatchComposition([SequenceSpec(0, 32, 1, Phase.GENERATION)])
        evict = KVMemoryEvent(KVMemoryEventType.EVICT, request_id=5, num_bytes=1e6)
        reload = KVMemoryEvent(KVMemoryEventType.RELOAD, request_id=6, num_bytes=1e6)
        assert iteration_signature(batch) != iteration_signature(batch, [evict])
        assert iteration_signature(batch, [evict]) != iteration_signature(batch, [reload])
        # ...but the *owner* of the migration does not matter, only the payload.
        evict_other = KVMemoryEvent(KVMemoryEventType.EVICT, request_id=9, num_bytes=1e6)
        assert iteration_signature(batch, [evict]) == iteration_signature(batch, [evict_other])
        assert (iteration_signature(batch, num_sub_batches=1)
                != iteration_signature(batch, num_sub_batches=2))


class TestIterationReuseCache:
    def _entry(self, latency=1.0):
        return IterationCacheEntry(latency=latency, engine_report=EngineStackReport())

    def test_lookup_store_and_stats(self):
        cache = IterationReuseCache()
        signature = ("sig",)
        assert cache.lookup(signature) is None
        cache.store(signature, self._entry(2.5))
        hit = cache.lookup(signature)
        assert hit is not None and hit.latency == 2.5
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)
        assert len(cache) == 1

    def test_lookup_and_store_are_thread_safe(self):
        # Same-class replicas and the cache-service thread share one cache;
        # a lost counter update would break the lookup total.
        cache = IterationReuseCache()
        signatures = [(i,) for i in range(50)]

        def worker(offset):
            for step in range(400):
                signature = signatures[(offset + step) % len(signatures)]
                if cache.lookup(signature) is None:
                    cache.store(signature, self._entry(float(signature[0])))

        threads = [threading.Thread(target=worker, args=(7 * k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert cache.stats.lookups == 8 * 400
        assert cache.stats.misses >= len(signatures)
        assert len(cache) == len(signatures)
        assert all(cache.peek(s).latency == float(s[0]) for s in signatures)


def _entry(latency=1.0):
    return IterationCacheEntry(latency=latency, engine_report=EngineStackReport())


class TestIterationCacheService:
    """The master-side pipe server workers reach shared caches through."""

    def run_service(self, num_clients=2):
        cache = IterationReuseCache()
        service = IterationCacheService({"default": cache})
        remotes = [RemoteIterationCache(service.register("default"))
                   for _ in range(num_clients)]
        service.start()
        return cache, service, remotes

    def test_miss_then_hit_through_the_pipe(self):
        cache, service, (remote, other) = self.run_service()
        try:
            assert remote.lookup(("sig",)) is None          # leads
            remote.store(("sig",), _entry(4.0))
            assert other.lookup(("sig",)).latency == 4.0    # served from master
            assert remote.stats.misses == 1 and other.stats.hits == 1
            assert cache.peek(("sig",)).latency == 4.0
            assert cache.stats.misses == 1 and cache.stats.hits == 1
        finally:
            service.close()

    def test_follower_blocks_until_leader_stores(self):
        cache, service, (leader, follower) = self.run_service()
        try:
            assert leader.lookup(("sig",)) is None
            results = []
            thread = threading.Thread(
                target=lambda: results.append(follower.lookup(("sig",))))
            thread.start()
            thread.join(timeout=0.3)
            assert thread.is_alive(), "follower must block on the in-flight leader"
            leader.store(("sig",), _entry(5.0))
            thread.join(timeout=5.0)
            assert results and results[0].latency == 5.0
            assert cache.stats.misses == 1 and cache.stats.hits == 1
        finally:
            service.close()

    def test_dead_leader_promotes_a_waiter(self):
        cache, service, (leader, follower) = self.run_service()
        try:
            assert leader.lookup(("sig",)) is None
            results = []
            thread = threading.Thread(
                target=lambda: results.append(follower.lookup(("sig",))))
            thread.start()
            leader.close()  # leader's process "dies" before storing
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            assert results == [None], "the waiter must inherit leadership"
        finally:
            service.close()

    def test_register_after_start_rejected(self):
        cache, service, _ = self.run_service(num_clients=1)
        try:
            with pytest.raises(RuntimeError):
                service.register("default")
            with pytest.raises(ValueError):
                IterationCacheService({"default": cache}).register("other")
        finally:
            service.close()


class TestIterationCachePersistence:
    def test_save_load_roundtrip(self, tmp_path):
        config = small_config(enable_iteration_reuse=True)
        cache = IterationReuseCache()
        cache.store(("a",), _entry(1.5))
        cache.store(("b",), _entry(2.5))
        path = iteration_cache_file(tmp_path, config)
        assert path.parent == tmp_path and path.suffix == ".pkl"
        save_iteration_cache(cache, path, config)
        fresh = IterationReuseCache()
        assert load_iteration_cache(fresh, path, config) == 2
        assert fresh.peek(("a",)).latency == 1.5
        assert fresh.peek(("b",)).latency == 2.5
        assert fresh.stats.lookups == 0, "warm-start must not touch counters"

    def test_distinct_configs_get_distinct_files(self, tmp_path):
        small = small_config()
        large = small_config(npu_num=4)
        assert (iteration_cache_file(tmp_path, small)
                != iteration_cache_file(tmp_path, large))

    def test_config_mismatch_loads_nothing(self, tmp_path):
        config = small_config()
        cache = IterationReuseCache()
        cache.store(("a",), _entry())
        path = save_iteration_cache(cache, tmp_path / "cache.pkl", config)
        fresh = IterationReuseCache()
        assert load_iteration_cache(fresh, path, small_config(npu_num=4)) == 0
        assert len(fresh) == 0

    def test_corrupt_or_missing_file_degrades_to_cold_start(self, tmp_path):
        fresh = IterationReuseCache()
        assert load_iteration_cache(fresh, tmp_path / "absent.pkl",
                                    small_config()) == 0
        corrupt = tmp_path / "corrupt.pkl"
        corrupt.write_bytes(b"not a pickle")
        assert load_iteration_cache(fresh, corrupt, small_config()) == 0
        wrong_schema = tmp_path / "schema.pkl"
        wrong_schema.write_bytes(pickle.dumps({"schema": "other/v9"}))
        assert load_iteration_cache(fresh, wrong_schema, small_config()) == 0

    def test_cluster_cache_dir_warm_starts_sweeps(self, tmp_path):
        from repro import ClusterConfig, ClusterSimulator
        from repro.workload import Request

        config = ClusterConfig(
            num_replicas=2, routing="round-robin",
            replica=small_config(enable_iteration_reuse=True),
            cache_dir=str(tmp_path))
        workload = lambda: [Request(i, 24, 16, arrival_time=2.0 * i)
                            for i in range(4)]
        cold = ClusterSimulator(config).run(workload())
        warm = ClusterSimulator(config).run(workload())
        assert sum(r.iteration_cache_misses for r in cold.replica_results) > 0
        assert sum(r.iteration_cache_misses for r in warm.replica_results) == 0
        for a, b in zip(cold.replica_results, warm.replica_results):
            assert a.iterations == b.iterations, "warm-start changed results"


class TestSimulatorMemoization:
    def test_on_off_produce_identical_latencies(self):
        on = LLMServingSim(small_config(enable_iteration_reuse=True)).run(
            steady_requests(5))
        off = LLMServingSim(small_config()).run(steady_requests(5))
        assert [r.latency for r in on.iterations] == [r.latency for r in off.iterations]
        assert [(r.start_time, r.end_time) for r in on.iterations] == \
               [(r.start_time, r.end_time) for r in off.iterations]
        assert on.iteration_cache_hits > 0
        assert off.iteration_cache_hits == 0 and off.iteration_cache_misses == 0
        assert off.iteration_cache_hit_rate == 0.0

    def test_steady_decode_hit_rate_over_half(self):
        result = LLMServingSim(small_config(enable_iteration_reuse=True)).run(
            steady_requests(6))
        assert result.iteration_cache_hit_rate >= 0.5

    def test_modeled_simulation_time_shrinks_with_reuse(self):
        on = LLMServingSim(small_config(enable_iteration_reuse=True)).run(
            steady_requests(5))
        off = LLMServingSim(small_config()).run(steady_requests(5))
        assert on.modeled_simulation_time.total < off.modeled_simulation_time.total

    def test_simtime_tracker_counts_cached_iterations(self):
        simulator = LLMServingSim(small_config(enable_iteration_reuse=True))
        result = simulator.run(steady_requests(4))
        assert simulator.simtime.iteration_cache_hits == result.iteration_cache_hits
        assert simulator.simtime.iterations == len(result.iterations)

    def test_hit_flags_last_engine_report(self):
        simulator = LLMServingSim(small_config(enable_iteration_reuse=True))
        simulator.run(steady_requests(3))
        # The final iterations replay request 2's decode trace from cache.
        assert simulator.last_engine_report.served_from_iteration_cache

    def test_cache_shared_between_same_config_simulators(self):
        cache = IterationReuseCache()
        config = small_config(enable_iteration_reuse=True)
        first = LLMServingSim(config, iteration_cache=cache)
        first.run(steady_requests(1))
        second = LLMServingSim(dataclasses.replace(config), iteration_cache=cache)
        result = second.run(steady_requests(1))
        # Every iteration of the second simulator replays the first's trace.
        assert result.iteration_cache_misses == 0
        assert result.iteration_cache_hits == len(result.iterations)

    def test_private_cache_created_only_when_enabled(self):
        assert LLMServingSim(small_config()).iteration_cache is None
        assert LLMServingSim(small_config(enable_iteration_reuse=True)
                             ).iteration_cache is not None
