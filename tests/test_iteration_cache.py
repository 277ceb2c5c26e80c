"""Unit tests for iteration-level memoization (the reuse hierarchy's top level)."""

import dataclasses
import pickle

import pytest

from repro import ClusterConfig, ClusterSimulator, LLMServingSim, ServingSimConfig
from repro.engine import (IterationReuseCache, iteration_cache_file,
                          iteration_signature, load_iteration_cache,
                          save_iteration_cache)
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
    def test_lookup_store_and_stats(self):
        cache = IterationReuseCache()
        signature = ("sig",)
        assert cache.lookup(signature) is None
        cache.store(signature, 2.5)
        assert cache.lookup(signature) == 2.5
        assert len(cache) == 1


class TestIterationCachePersistence:
    def test_save_load_roundtrip(self, tmp_path):
        config = small_config(enable_iteration_reuse=True)
        cache = IterationReuseCache()
        cache.store(("a",), 1.5)
        cache.store(("b",), 2.5)
        path = iteration_cache_file(tmp_path, config)
        assert path.parent == tmp_path and path.suffix == ".pkl"
        save_iteration_cache(cache, path, config)
        fresh = IterationReuseCache()
        assert load_iteration_cache(fresh, path, config) == 2
        assert fresh.lookup(("a",)) == 1.5
        assert fresh.lookup(("b",)) == 2.5

    def test_distinct_configs_get_distinct_files(self, tmp_path):
        small = small_config()
        large = small_config(npu_num=4)
        assert (iteration_cache_file(tmp_path, small)
                != iteration_cache_file(tmp_path, large))

    def test_config_mismatch_loads_nothing(self, tmp_path):
        config = small_config()
        cache = IterationReuseCache()
        cache.store(("a",), 1.0)
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

    def test_version_1_file_cold_starts(self, tmp_path):
        config = small_config()
        path = tmp_path / "v1.pkl"
        path.write_bytes(pickle.dumps({"schema": "iteration-cache/v1",
                                       "config": repr(config), "entries": {("a",): 1.0}}))
        fresh = IterationReuseCache()
        assert load_iteration_cache(fresh, path, config) == 0
        assert len(fresh) == 0

    @staticmethod
    def cache_dir_run(cache_dir, backend):
        config = ClusterConfig(
            num_replicas=2, routing="round-robin",
            replica=small_config(enable_iteration_reuse=True),
            execution_backend=backend, cache_dir=str(cache_dir))
        result = ClusterSimulator(config).run(
            [Request(i, 24, 16, arrival_time=2.0 * i) for i in range(4)])
        return result, sum(r.iteration_cache_misses for r in result.replica_results)

    def test_cluster_cache_dir_warm_starts_sweeps(self, tmp_path):
        for backend in ("serial", "process-pool"):
            cold, cold_misses = self.cache_dir_run(tmp_path / backend, backend)
            warm, warm_misses = self.cache_dir_run(tmp_path / backend, backend)
            assert cold_misses > 0 and warm_misses == 0, backend
            for a, b in zip(cold.replica_results, warm.replica_results):
                assert a.iterations == b.iterations, "warm-start changed results"

    @pytest.mark.parametrize("writer, reader", [("process-pool", "serial"),
                                                ("serial", "process-pool")])
    def test_cache_dir_warm_starts_the_other_backend(self, tmp_path, writer, reader):
        cold, cold_misses = self.cache_dir_run(tmp_path, writer)
        warm, warm_misses = self.cache_dir_run(tmp_path, reader)
        assert cold_misses > 0 and warm_misses == 0
        for a, b in zip(cold.replica_results, warm.replica_results):
            assert a.iterations == b.iterations


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
