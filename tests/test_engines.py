"""Unit tests for the execution engines, compiler model, cache and mapping."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (CompilerModel, GPUEngine, GreedyOperatorScheduler, HeterogeneousMapper,
                          HomogeneousMapper, NPUConfig, NPUEngine, PIMEngine, SimulationCache,
                          Trace, TraceEntry, build_mapper)
from repro.models import BatchComposition, Operator, OpType, Phase, SequenceSpec, \
    build_iteration_graph, get_model
from repro.system import DeviceType, PIMMode


def gemm_op(m=64, k=4096, n=4096, phase=Phase.INITIATION, attention=False, op_type=OpType.GEMM):
    return Operator(name="gemm", op_type=op_type, flops=2.0 * m * k * n,
                    input_bytes=m * k * 2.0, weight_bytes=k * n * 2.0, output_bytes=m * n * 2.0,
                    phase=phase, m=m, k=k, n=n, is_attention=attention)


class TestNPUEngine:
    def test_estimate_positive(self):
        estimate = NPUEngine().estimate(gemm_op())
        assert estimate.latency > 0
        assert estimate.simulated_cycles > 0

    def test_latency_is_max_of_compute_and_memory_plus_overhead(self):
        engine = NPUEngine()
        estimate = engine.estimate(gemm_op())
        assert estimate.latency == pytest.approx(
            max(estimate.compute_time, estimate.memory_time) + engine.config.launch_overhead_s)

    def test_bigger_gemm_takes_longer(self):
        engine = NPUEngine()
        small = engine.estimate(gemm_op(m=32))
        large = engine.estimate(gemm_op(m=2048))
        assert large.latency > small.latency

    def test_decode_gemm_memory_bound(self):
        """Small-M GEMMs (decode) are dominated by streaming the weights."""
        estimate = NPUEngine().estimate(gemm_op(m=8, k=4096, n=16384))
        assert estimate.is_memory_bound

    def test_prefill_gemm_compute_bound(self):
        estimate = NPUEngine().estimate(gemm_op(m=4096, k=4096, n=16384))
        assert not estimate.is_memory_bound

    def test_peak_flops_matches_array(self):
        config = NPUConfig(systolic_rows=64, systolic_cols=64, frequency_hz=2e9)
        assert config.peak_flops == 2 * 64 * 64 * 2e9

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            NPUConfig(systolic_rows=0)
        with pytest.raises(ValueError):
            NPUConfig(memory_bandwidth_gbs=-1)

    def test_vector_op_uses_vector_unit(self):
        op = Operator(name="ln", op_type=OpType.LAYERNORM, flops=1e6, input_bytes=1e5,
                      weight_bytes=0, output_bytes=1e5, phase=Phase.GENERATION, m=16, k=1, n=4096)
        assert NPUEngine().estimate(op).latency > 0

    @given(m=st.integers(1, 4096), k=st.integers(1, 8192), n=st.integers(1, 8192))
    @settings(max_examples=30, deadline=None)
    def test_compute_time_never_below_ideal(self, m, k, n):
        """The tiling model can never beat the array's peak throughput."""
        engine = NPUEngine()
        estimate = engine.estimate(gemm_op(m=m, k=k, n=n))
        ideal = (2.0 * m * k * n) / engine.config.peak_flops
        assert estimate.compute_time >= ideal * 0.99


class TestPIMEngine:
    def test_supports_memory_bound_only_classes(self):
        engine = PIMEngine()
        assert engine.supports(gemm_op(op_type=OpType.GEMV))
        assert engine.supports(gemm_op(op_type=OpType.SOFTMAX))
        assert not engine.supports(Operator(name="e", op_type=OpType.EMBEDDING, flops=1,
                                            input_bytes=1, weight_bytes=1, output_bytes=1,
                                            phase=Phase.GENERATION))

    def test_gemv_faster_than_npu_external_bandwidth(self):
        """PIM's internal bandwidth beats the NPU's external bandwidth on GEMV."""
        op = gemm_op(m=1, k=4096, n=2048, op_type=OpType.GEMV, phase=Phase.GENERATION)
        pim = PIMEngine().estimate(op)
        npu = NPUEngine().estimate(op)
        assert pim.memory_time < npu.memory_time

    def test_estimate_fields(self):
        estimate = PIMEngine().estimate(gemm_op(op_type=OpType.GEMV, m=1))
        assert estimate.latency > 0
        assert estimate.memory_time > 0


class TestGPUEngine:
    def test_attention_gets_bandwidth_boost(self):
        op_regular = gemm_op(m=1, k=4096, n=512, op_type=OpType.GEMV, phase=Phase.GENERATION)
        op_attention = gemm_op(m=1, k=4096, n=512, op_type=OpType.GEMV,
                               phase=Phase.GENERATION, attention=True)
        engine = GPUEngine()
        assert engine.estimate(op_attention).memory_time < engine.estimate(op_regular).memory_time

    def test_device_type(self):
        assert GPUEngine().device_type is DeviceType.GPU

    def test_npu_and_gpu_comparable_on_prefill(self):
        """The Table-I NPU is configured to track the RTX 3090 (Section VI-A)."""
        op = gemm_op(m=2048, k=4096, n=4096)
        npu = NPUEngine().estimate(op).latency
        gpu = GPUEngine().estimate(op).latency
        assert 0.4 < npu / gpu < 2.5


class TestCompilerModel:
    @pytest.fixture
    def graph(self):
        model = get_model("gpt2")
        batch = BatchComposition([SequenceSpec(0, 0, 64, Phase.INITIATION)])
        return build_iteration_graph(model, batch)

    def test_block_reuse_compiles_single_block(self, graph):
        compiler = CompilerModel(enable_block_reuse=True, enable_cross_iteration_cache=False)
        report = compiler.compile_iteration(graph)
        assert report.compiled_operators == len(graph.block_operators) + 2
        assert report.replicated_operators == len(graph.block_operators) * (graph.num_blocks - 1)

    def test_no_reuse_compiles_every_block(self, graph):
        compiler = CompilerModel(enable_block_reuse=False, enable_cross_iteration_cache=False)
        report = compiler.compile_iteration(graph)
        assert report.compiled_operators == len(graph.block_operators) * graph.num_blocks + 2
        assert report.replicated_operators == 0

    def test_cross_iteration_cache_skips_second_compile(self, graph):
        compiler = CompilerModel(enable_block_reuse=True, enable_cross_iteration_cache=True)
        first = compiler.compile_iteration(graph)
        second = compiler.compile_iteration(graph)
        assert first.compiled_operators > 0
        assert second.compiled_operators == 0
        assert second.cached_operators > 0

    def test_reset_clears_cache(self, graph):
        compiler = CompilerModel()
        compiler.compile_iteration(graph)
        compiler.reset()
        assert compiler.compile_iteration(graph).compiled_operators > 0

    def test_modeled_time_proportional(self, graph):
        compiler = CompilerModel(seconds_per_operator=1.0, enable_cross_iteration_cache=False)
        report = compiler.compile_iteration(graph)
        assert report.modeled_time_s == report.compiled_operators


class TestSimulationCache:
    def test_hit_after_store(self):
        cache = SimulationCache()
        op = gemm_op()
        estimate = NPUEngine().estimate(op)
        assert cache.lookup(DeviceType.NPU, op) is None
        cache.store(DeviceType.NPU, op, estimate)
        assert cache.lookup(DeviceType.NPU, op) == estimate
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_disabled_cache_never_hits(self):
        cache = SimulationCache(enabled=False)
        op = gemm_op()
        cache.store(DeviceType.NPU, op, NPUEngine().estimate(op))
        assert cache.lookup(DeviceType.NPU, op) is None
        assert len(cache) == 0

    def test_different_device_is_a_miss(self):
        cache = SimulationCache()
        op = gemm_op(op_type=OpType.GEMV, m=1)
        cache.store(DeviceType.NPU, op, NPUEngine().estimate(op))
        assert cache.lookup(DeviceType.PIM, op) is None

    def test_attention_and_non_attention_stats_separate(self):
        cache = SimulationCache()
        cache.lookup(DeviceType.NPU, gemm_op(attention=True))
        cache.lookup(DeviceType.NPU, gemm_op(attention=False))
        assert cache.stats.attention_misses == 1
        assert cache.stats.non_attention_misses == 1
        assert cache.stats.hit_rate == 0.0

    def test_clear(self):
        cache = SimulationCache()
        op = gemm_op()
        cache.store(DeviceType.NPU, op, NPUEngine().estimate(op))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0


class TestMapping:
    def test_homogeneous_maps_everything_to_primary(self):
        mapper = HomogeneousMapper(DeviceType.NPU)
        assert mapper.map_operator(gemm_op(attention=True, phase=Phase.GENERATION)) is DeviceType.NPU

    def test_heterogeneous_maps_decode_attention_to_pim(self):
        mapper = HeterogeneousMapper()
        decode_attention = gemm_op(op_type=OpType.GEMV, attention=True, phase=Phase.GENERATION)
        prefill_attention = gemm_op(attention=True, phase=Phase.INITIATION)
        ffn = gemm_op(attention=False)
        assert mapper.map_operator(decode_attention) is DeviceType.PIM
        assert mapper.map_operator(prefill_attention) is DeviceType.NPU
        assert mapper.map_operator(ffn) is DeviceType.NPU

    def test_layernorm_offload_option(self):
        ln = Operator(name="ln", op_type=OpType.LAYERNORM, flops=1, input_bytes=1,
                      weight_bytes=0, output_bytes=1, phase=Phase.GENERATION)
        assert HeterogeneousMapper(map_layernorm_to_pim=True).map_operator(ln) is DeviceType.PIM
        assert HeterogeneousMapper().map_operator(ln) is DeviceType.NPU

    def test_build_mapper_by_pim_mode(self):
        assert isinstance(build_mapper(PIMMode.NONE), HomogeneousMapper)
        assert isinstance(build_mapper(PIMMode.LOCAL), HeterogeneousMapper)
        assert isinstance(build_mapper(PIMMode.POOL), HeterogeneousMapper)

    def test_split_by_engine(self):
        mapper = HeterogeneousMapper()
        ops = [gemm_op(op_type=OpType.GEMV, attention=True, phase=Phase.GENERATION), gemm_op()]
        plan = mapper.split_by_engine(ops)
        assert len(plan[DeviceType.PIM]) == 1
        assert len(plan[DeviceType.NPU]) == 1


class TestOperatorScheduler:
    def _entry(self, latency, engine=DeviceType.NPU, sub_batch=0):
        return TraceEntry(operator=gemm_op(), engine=engine, latency=latency, sub_batch=sub_batch)

    def test_empty_schedule(self):
        schedule = GreedyOperatorScheduler().schedule([])
        assert schedule.makespan == 0.0
        assert schedule.trace.entries == []

    def test_serial_within_sub_batch(self):
        schedule = GreedyOperatorScheduler().schedule([[self._entry(1.0), self._entry(2.0)]])
        assert schedule.makespan == pytest.approx(3.0)

    def test_overlap_across_sub_batches_on_different_engines(self):
        sb0 = [self._entry(2.0, DeviceType.NPU, 0)]
        sb1 = [self._entry(2.0, DeviceType.PIM, 1)]
        schedule = GreedyOperatorScheduler().schedule([sb0, sb1])
        assert schedule.makespan == pytest.approx(2.0)
        assert schedule.overlap_efficiency() == pytest.approx(2.0)

    def test_same_engine_serializes(self):
        sb0 = [self._entry(2.0, DeviceType.NPU, 0)]
        sb1 = [self._entry(2.0, DeviceType.NPU, 1)]
        schedule = GreedyOperatorScheduler().schedule([sb0, sb1])
        assert schedule.makespan == pytest.approx(4.0)

    def test_all_entries_scheduled_once(self):
        sub_batches = [[self._entry(0.5) for _ in range(3)], [self._entry(0.25) for _ in range(2)]]
        schedule = GreedyOperatorScheduler().schedule(sub_batches)
        assert len(schedule.scheduled) == 5

    @given(latencies=st.lists(st.floats(0.001, 10.0), min_size=1, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_makespan_bounds(self, latencies):
        """Makespan is at least the longest op and at most the serial sum."""
        entries = [[self._entry(l, sub_batch=i) for i, l in enumerate(latencies)]]
        schedule = GreedyOperatorScheduler().schedule(entries)
        assert schedule.makespan <= sum(latencies) + 1e-9
        assert schedule.makespan >= max(latencies) - 1e-9


class TestTrace:
    def test_aggregations(self):
        trace = Trace()
        trace.append(TraceEntry(operator=gemm_op(), engine=DeviceType.NPU, latency=1.0))
        trace.append(TraceEntry(operator=gemm_op(), engine=DeviceType.PIM, latency=2.0, cached=True))
        assert trace.total_latency == 3.0
        assert trace.cache_hits == 1
        assert trace.cache_misses == 1
        assert trace.latency_by_engine()[DeviceType.PIM] == 2.0
        assert len(trace.by_engine()) == 2

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            TraceEntry(operator=gemm_op(), engine=DeviceType.NPU, latency=-1.0)
