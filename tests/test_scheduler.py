"""Unit tests for KV-cache management, memory budgeting, batching and scheduling."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.models import Phase, get_model
from repro.scheduler import (IterationLevelScheduler, KVMemoryEventType, MaxAllocKVCacheManager,
                             PagedKVCacheManager, PartitionCriteria, StaticBatchScheduler,
                             SubBatchPartitioner, build_kv_manager, build_scheduler,
                             compute_kv_budget, format_batch)
from repro.models.graph import BatchComposition, SequenceSpec
from repro.workload import Request


MODEL = get_model("gpt2")


def paged_manager(capacity_tokens=4096, page=16):
    capacity = capacity_tokens * MODEL.kv_bytes_per_token()
    return PagedKVCacheManager(MODEL, capacity, page_size_tokens=page)


class TestMemoryBudget:
    def test_budget_computation(self):
        model = get_model("gpt3-7b")
        budget = compute_kv_budget(model, num_devices=4, device_memory_bytes=24 * 1024 ** 3)
        assert budget.kv_capacity_bytes > 0
        assert budget.total_device_bytes == 4 * 24 * 1024 ** 3
        assert budget.kv_capacity_bytes < budget.total_device_bytes
        assert 0 < budget.kv_fraction < 1

    def test_model_too_large_raises(self):
        model = get_model("gpt3-175b")
        with pytest.raises(ValueError):
            compute_kv_budget(model, num_devices=1, device_memory_bytes=24 * 1024 ** 3)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            compute_kv_budget(MODEL, 0, 1024)
        with pytest.raises(ValueError):
            compute_kv_budget(MODEL, 1, 1024 ** 3, activation_fraction=1.5)


class TestPagedKVCache:
    def test_admit_and_release(self):
        manager = paged_manager()
        assert manager.can_admit(100)
        manager.admit(1, 100)
        assert manager.used_bytes() > 0
        manager.release(1)
        assert manager.used_bytes() == 0

    def test_duplicate_admit_raises(self):
        manager = paged_manager()
        manager.admit(1, 10)
        with pytest.raises(ValueError):
            manager.admit(1, 10)

    def test_page_rounding(self):
        manager = paged_manager(page=16)
        manager.admit(1, 15)  # 15 prompt + 1 upcoming token = 16 -> exactly 1 page
        assert manager.used_bytes() == manager.page_bytes

    def test_grow_allocates_new_page_on_boundary(self):
        manager = paged_manager(page=16)
        manager.admit(1, 15)
        before = manager.used_bytes()
        manager.grow(1, 1)  # token 17 -> second page
        assert manager.used_bytes() == before + manager.page_bytes

    def test_admission_respects_capacity(self):
        manager = paged_manager(capacity_tokens=64, page=16)
        manager.admit(1, 48)
        assert not manager.can_admit(64)

    def test_eviction_and_reload_cycle(self):
        manager = paged_manager(capacity_tokens=64, page=16)
        manager.admit(1, 30)
        manager.admit(2, 30)
        evicted = manager.evict_last_admitted()
        assert evicted == 2
        assert manager.is_evicted(2)
        events = manager.drain_events()
        assert len(events) == 1 and events[0].event_type is KVMemoryEventType.EVICT
        assert manager.can_reload(2)
        manager.reload(2)
        assert not manager.is_evicted(2)
        assert manager.drain_events()[0].event_type is KVMemoryEventType.RELOAD

    def test_grow_evicted_request_raises(self):
        manager = paged_manager(capacity_tokens=64)
        manager.admit(1, 30)
        manager.evict_last_admitted()
        with pytest.raises(RuntimeError):
            manager.grow(1)

    def test_ensure_capacity_evicts_lifo(self):
        manager = paged_manager(capacity_tokens=48, page=16)
        manager.admit(1, 15)
        manager.admit(2, 15)
        manager.admit(3, 15)
        # Request 1 needs another page; request 3 (most recently admitted,
        # unprotected) should be evicted first.
        evicted = manager.ensure_capacity_for_growth(1, 16, protected=[1])
        assert evicted == [3]

    def test_evict_last_admitted_respects_protection(self):
        manager = paged_manager(capacity_tokens=64, page=16)
        manager.admit(1, 15)
        manager.admit(2, 15)
        assert manager.evict_last_admitted(protected=[2]) == 1
        assert manager.evict_last_admitted(protected=[2]) is None

    def test_ensure_capacity_events_match_evicted_ids(self):
        # ensure_capacity_for_growth routes through the same helper as
        # evict_last_admitted, so every evicted id must have exactly one
        # EVICT event (the seed duplicated the logic inline).
        manager = paged_manager(capacity_tokens=48, page=16)
        manager.admit(1, 15)
        manager.admit(2, 15)
        manager.admit(3, 15)
        evicted = manager.ensure_capacity_for_growth(1, 32, protected=[1])
        events = manager.drain_events()
        assert [e.request_id for e in events] == evicted
        assert all(e.event_type is KVMemoryEventType.EVICT for e in events)

    def test_utilization_bounds(self):
        manager = paged_manager(capacity_tokens=128)
        manager.admit(1, 60)
        assert 0 < manager.utilization() <= 1

    @given(lengths=st.lists(st.integers(1, 200), min_size=1, max_size=20))
    @settings(max_examples=25, deadline=None)
    def test_resident_pages_never_exceed_capacity(self, lengths):
        manager = paged_manager(capacity_tokens=512, page=16)
        for i, length in enumerate(lengths):
            if manager.can_admit(length):
                manager.admit(i, length)
        assert manager.used_bytes() <= manager.capacity_bytes
        assert manager.free_pages >= 0

    @given(steps=st.lists(st.integers(1, 30), min_size=1, max_size=30))
    @settings(max_examples=25, deadline=None)
    def test_growth_accounting_consistent(self, steps):
        manager = paged_manager(capacity_tokens=4096, page=16)
        manager.admit(0, 8)
        tokens = 9
        for step in steps:
            if manager.can_grow(0, step):
                manager.grow(0, step)
                tokens += step
        assert manager.tokens_of(0) == tokens
        expected_pages = -(-tokens // 16)
        assert manager.used_bytes() == expected_pages * manager.page_bytes


class TestMaxAllocKVCache:
    def test_reserves_max_length(self):
        manager = MaxAllocKVCacheManager(MODEL, capacity_bytes=MODEL.kv_bytes_per_token() * 4096,
                                         max_seq_len=1024)
        manager.admit(1, 10)
        assert manager.used_bytes() == 1024 * MODEL.kv_bytes_per_token()

    def test_fits_fewer_requests_than_paged(self):
        capacity = MODEL.kv_bytes_per_token() * 2048
        paged = PagedKVCacheManager(MODEL, capacity)
        maxalloc = MaxAllocKVCacheManager(MODEL, capacity, max_seq_len=1024)
        admitted_paged = admitted_max = 0
        for i in range(32):
            if paged.can_admit(64):
                paged.admit(i, 64)
                admitted_paged += 1
            if maxalloc.can_admit(64):
                maxalloc.admit(i, 64)
                admitted_max += 1
        assert admitted_paged > admitted_max

    def test_grow_limited_by_max_seq(self):
        manager = MaxAllocKVCacheManager(MODEL, MODEL.kv_bytes_per_token() * 4096, max_seq_len=32)
        manager.admit(1, 30)  # stores 31: prompt + first generated token
        assert manager.can_grow(1, 1)
        assert not manager.can_grow(1, 2)
        with pytest.raises(MemoryError):
            manager.grow(1, 5)

    def test_admit_accounts_prompt_plus_first_token(self):
        manager = MaxAllocKVCacheManager(MODEL, MODEL.kv_bytes_per_token() * 4096, max_seq_len=32)
        assert not manager.can_admit(32)  # 32 + 1 would exceed the reservation
        assert manager.can_admit(31)
        manager.admit(1, 31)
        assert manager.tokens_of(1) == 32

    def test_token_trajectories_match_paged_manager(self):
        # Regression: the seed stored num_tokens in the max-alloc manager but
        # num_tokens + 1 in the paged manager, skewing the ablation by one
        # token per request.  Both must now report identical trajectories.
        capacity = MODEL.kv_bytes_per_token() * 8192
        paged = PagedKVCacheManager(MODEL, capacity, page_size_tokens=16)
        maxalloc = MaxAllocKVCacheManager(MODEL, capacity, max_seq_len=2048)
        trajectories = {"vllm": [], "max": []}
        for name, manager in (("vllm", paged), ("max", maxalloc)):
            manager.admit(7, 100)
            trajectories[name].append(manager.tokens_of(7))
            for _ in range(6):
                manager.grow(7, 1)
                trajectories[name].append(manager.tokens_of(7))
        assert trajectories["vllm"] == trajectories["max"]
        assert trajectories["vllm"][0] == 101

    def test_build_kv_manager_dispatch(self):
        capacity = MODEL.kv_bytes_per_token() * 1024
        assert isinstance(build_kv_manager("vllm", MODEL, capacity), PagedKVCacheManager)
        assert isinstance(build_kv_manager("max", MODEL, capacity), MaxAllocKVCacheManager)
        with pytest.raises(ValueError):
            build_kv_manager("lru", MODEL, capacity)


class TestBatchFormatting:
    def test_format_batch_orders_phases(self):
        gen = Request(1, 10, 5)
        gen.record_prompt_done(0.0)
        init = Request(2, 20, 5)
        plan = format_batch(0, 1.0, [init], [gen], [])
        assert plan.batch.sequences[0].phase is Phase.GENERATION
        assert plan.batch.sequences[-1].phase is Phase.INITIATION
        assert plan.prompt_tokens == 20
        assert plan.generation_tokens == 2
        assert plan.num_requests == 2

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            format_batch(0, 0.0, [], [], [])


class TestSubBatchPartitioner:
    def _batch(self, sizes):
        return BatchComposition([SequenceSpec(i, 128, tokens, Phase.GENERATION)
                                 if tokens == 1 else SequenceSpec(i, 0, tokens, Phase.INITIATION)
                                 for i, tokens in enumerate(sizes)])

    def test_partition_preserves_all_sequences(self):
        batch = self._batch([64, 32, 16, 8, 4, 2])
        parts = SubBatchPartitioner(2).partition(batch)
        total = sum(len(p.sequences) for p in parts)
        assert total == batch.num_sequences
        assert len(parts) == 2

    def test_single_sub_batch_identity(self):
        batch = self._batch([8, 8])
        assert SubBatchPartitioner(1).partition(batch) == [batch]

    def test_fewer_sequences_than_parts(self):
        batch = self._batch([8])
        parts = SubBatchPartitioner(4).partition(batch)
        assert len(parts) == 1

    def test_balance_by_tokens(self):
        batch = self._batch([100, 50, 50])
        partitioner = SubBatchPartitioner(2, PartitionCriteria.TOKENS)
        parts = partitioner.partition(batch)
        assert partitioner.imbalance(parts) < 0.2

    @given(sizes=st.lists(st.integers(1, 256), min_size=2, max_size=24),
           parts=st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def test_partition_is_a_partition(self, sizes, parts):
        batch = self._batch(sizes)
        result = SubBatchPartitioner(parts).partition(batch)
        ids = sorted(s.request_id for p in result for s in p.sequences)
        assert ids == sorted(s.request_id for s in batch.sequences)


class TestIterationLevelScheduler:
    def _scheduler(self, capacity_tokens=8192, max_batch=0):
        manager = paged_manager(capacity_tokens=capacity_tokens)
        return IterationLevelScheduler(manager, max_batch_size=max_batch)

    def test_admits_arrived_requests_only(self):
        scheduler = self._scheduler()
        scheduler.submit([Request(0, 16, 4, arrival_time=0.0),
                          Request(1, 16, 4, arrival_time=100.0)])
        plan = scheduler.next_iteration()
        assert plan is not None
        assert [r.request_id for r in plan.initiation_requests] == [0]

    def test_idle_until_next_arrival(self):
        scheduler = self._scheduler()
        scheduler.submit([Request(0, 16, 4, arrival_time=50.0)])
        assert scheduler.next_iteration() is None
        assert scheduler.next_arrival_time() == 50.0
        scheduler.clock = 50.0
        assert scheduler.next_iteration() is not None

    def test_full_lifecycle_completes_requests(self):
        scheduler = self._scheduler()
        scheduler.submit([Request(i, 8, 3, arrival_time=0.0) for i in range(4)])
        iterations = 0
        while scheduler.has_work and iterations < 50:
            plan = scheduler.next_iteration()
            assert plan is not None
            scheduler.complete_iteration(plan, latency=0.1)
            iterations += 1
        assert not scheduler.has_work
        assert len(scheduler.finished) == 4
        assert all(r.is_finished for r in scheduler.finished)
        # 1 initiation iteration + 2 more generation iterations.
        assert iterations == 3

    def test_iteration_level_admission_mid_flight(self):
        scheduler = self._scheduler()
        scheduler.submit([Request(0, 8, 10, arrival_time=0.0),
                          Request(1, 8, 2, arrival_time=0.25)])
        plan1 = scheduler.next_iteration()
        assert len(plan1.initiation_requests) == 1
        scheduler.complete_iteration(plan1, latency=0.5)   # clock now 0.5 > 0.25
        plan2 = scheduler.next_iteration()
        assert any(r.request_id == 1 for r in plan2.initiation_requests)
        assert any(r.request_id == 0 for r in plan2.generation_requests)

    def test_max_batch_respected(self):
        scheduler = self._scheduler(max_batch=2)
        scheduler.submit([Request(i, 8, 2, arrival_time=0.0) for i in range(5)])
        plan = scheduler.next_iteration()
        assert plan.num_requests == 2

    def test_memory_pressure_evicts_and_reloads(self):
        scheduler = self._scheduler(capacity_tokens=160)
        scheduler.submit([Request(i, 64, 64, arrival_time=0.0) for i in range(3)])
        total_evictions = 0
        total_reloads = 0
        iterations = 0
        while scheduler.has_work and iterations < 400:
            plan = scheduler.next_iteration()
            if plan is None:
                break
            total_evictions += sum(1 for e in plan.memory_events
                                   if e.event_type is KVMemoryEventType.EVICT)
            total_reloads += sum(1 for e in plan.memory_events
                                 if e.event_type is KVMemoryEventType.RELOAD)
            scheduler.complete_iteration(plan, latency=0.05)
            iterations += 1
        assert len(scheduler.finished) == 3
        assert total_evictions > 0
        assert total_reloads > 0

    def test_clock_advances_by_latency(self):
        scheduler = self._scheduler()
        scheduler.submit([Request(0, 8, 2, arrival_time=0.0)])
        plan = scheduler.next_iteration()
        scheduler.complete_iteration(plan, latency=1.5)
        assert scheduler.clock == pytest.approx(1.5)

    def test_duplicate_request_id_rejected(self):
        scheduler = self._scheduler()
        scheduler.submit([Request(0, 8, 2)])
        with pytest.raises(ValueError):
            scheduler.submit([Request(0, 8, 2)])

    def test_build_scheduler_dispatch(self):
        manager = paged_manager()
        assert isinstance(build_scheduler("orca", manager), IterationLevelScheduler)
        assert isinstance(build_scheduler("static", manager), StaticBatchScheduler)
        with pytest.raises(ValueError):
            build_scheduler("fifo", manager)


class _CountingList(list):
    """A list that counts the items its iterator hands out."""

    inspected = 0

    def __iter__(self):
        for item in list.__iter__(self):
            self.inspected += 1
            yield item


class TestArrivedPending:
    """The arrived-request scan stops at the first request still to arrive."""

    @given(arrivals=st.lists(st.sampled_from((0.0, 0.1, 0.25, 0.3, 1.0, 2.5)), max_size=30),
           clock=st.sampled_from((0.0, 0.1, 0.2, 0.3, 0.35, 1.0, 3.0)),
           delay=st.sampled_from((0.0, 0.05, 0.2, 0.7)))
    @settings(max_examples=200, deadline=None)
    def test_matches_full_scan(self, arrivals, clock, delay):
        scheduler = IterationLevelScheduler(paged_manager(), batch_delay=delay)
        scheduler.submit([Request(i, 8, 2, arrival_time=t) for i, t in enumerate(arrivals)])
        scheduler.clock = clock
        assert scheduler._arrived_pending() == [
            r for r in scheduler.pending if r.arrival_time + delay <= clock]

    def test_inspects_only_the_arrived_prefix(self):
        scheduler = IterationLevelScheduler(paged_manager())
        scheduler.submit([Request(i, 8, 2, arrival_time=100.0 + i) for i in range(4000)]
                         + [Request(4000 + i, 8, 2, arrival_time=0.001 * i) for i in range(3)])
        scheduler.clock = 0.0015
        scheduler.pending = _CountingList(scheduler.pending)
        arrived = scheduler._arrived_pending()
        assert [r.request_id for r in arrived] == [4000, 4001]
        # The two arrived requests and the first one still to arrive.
        assert scheduler.pending.inspected == 3
        plan = scheduler.next_iteration()
        assert [r.request_id for r in plan.initiation_requests] == [4000, 4001]
        assert scheduler.pending.inspected == 3 + 3
        assert len(scheduler.pending) == 4001


class TestStaticBatchScheduler:
    def test_no_admission_mid_batch(self):
        manager = paged_manager()
        scheduler = StaticBatchScheduler(manager)
        scheduler.submit([Request(0, 8, 3, arrival_time=0.0),
                          Request(1, 8, 3, arrival_time=0.1)])
        plan1 = scheduler.next_iteration()
        assert len(plan1.initiation_requests) == 1
        scheduler.complete_iteration(plan1, latency=1.0)
        # Request 1 arrived during the batch but must wait until it drains.
        plan2 = scheduler.next_iteration()
        assert plan2.initiation_requests == []
        assert len(plan2.generation_requests) == 1

    def test_all_requests_eventually_finish(self):
        manager = paged_manager()
        scheduler = StaticBatchScheduler(manager)
        scheduler.submit([Request(i, 8, 3, arrival_time=0.1 * i) for i in range(4)])
        iterations = 0
        while scheduler.has_work and iterations < 100:
            plan = scheduler.next_iteration()
            if plan is None:
                nxt = scheduler.next_arrival_time()
                if nxt is None:
                    break
                scheduler.clock = max(scheduler.clock, nxt)
                continue
            scheduler.complete_iteration(plan, latency=0.2)
            iterations += 1
        assert len(scheduler.finished) == 4

    def test_stalls_requests_without_kv_pages(self):
        # Regression: the seed placed requests whose can_grow check failed in
        # the generation batch anyway, so they generated tokens with no KV
        # pages backing them.  With a 3-page budget, two 15-token prompts fit
        # (one page each) but only one can grow past the page boundary; the
        # other must stall until capacity frees up.
        manager = paged_manager(capacity_tokens=48, page=16)
        scheduler = StaticBatchScheduler(manager)
        first, second = Request(0, 15, 4), Request(1, 15, 4)
        scheduler.submit([first, second])
        plan1 = scheduler.next_iteration()
        assert len(plan1.initiation_requests) == 2
        scheduler.complete_iteration(plan1, latency=0.1)
        plan2 = scheduler.next_iteration()
        assert [r.request_id for r in plan2.generation_requests] == [0]
        assert scheduler.stats.stalled_growths == 1
        scheduler.complete_iteration(plan2, latency=0.1)
        assert second.generated_tokens == 1  # stalled, not silently advanced

    def test_max_alloc_truncates_instead_of_deadlocking(self):
        # A request whose sequence hits the max-alloc manager's max_seq_len
        # can never grow again; it must be truncated (finished with the
        # tokens produced so far), not stalled forever — otherwise the batch
        # never drains and every later arrival starves.
        manager = MaxAllocKVCacheManager(MODEL, MODEL.kv_bytes_per_token() * 65536,
                                         max_seq_len=32)
        scheduler = StaticBatchScheduler(manager)
        long_request = Request(0, 20, 30, arrival_time=0.0)   # 21 + 30 > 32
        late_request = Request(1, 8, 2, arrival_time=0.5)
        scheduler.submit([long_request, late_request])
        iterations = 0
        while scheduler.has_work and iterations < 100:
            plan = scheduler.next_iteration()
            if plan is None:
                nxt = scheduler.next_arrival_time()
                if nxt is None or scheduler.clock >= nxt:
                    break
                scheduler.clock = nxt
                continue
            scheduler.complete_iteration(plan, latency=0.1)
            iterations += 1
        assert long_request.is_finished
        # 21 tokens at admission + 11 grows to the 32-token cap, one
        # generated token per growth (the first arrives with the prompt).
        assert long_request.generated_tokens == 12
        assert late_request.is_finished  # no head-of-line starvation
        assert scheduler.stats.truncated_requests == 1

    def test_orca_truncates_at_max_seq_len_too(self):
        manager = MaxAllocKVCacheManager(MODEL, MODEL.kv_bytes_per_token() * 65536,
                                         max_seq_len=16)
        scheduler = IterationLevelScheduler(manager)
        request = Request(0, 10, 20, arrival_time=0.0)  # 11 + 20 > 16
        scheduler.submit([request])
        iterations = 0
        while scheduler.has_work and iterations < 50:
            plan = scheduler.next_iteration()
            if plan is None:
                break
            scheduler.complete_iteration(plan, latency=0.1)
            iterations += 1
        assert request.is_finished
        assert request.generated_tokens == 6  # 11 -> 16 tokens: 5 grows + first
        assert scheduler.stats.truncated_requests == 1
        assert not scheduler.has_work

    def test_kv_accounting_consistent_under_pressure(self):
        # Every request that is accounted for in the paged manager must hold
        # exactly as many tokens as its request progress implies — the seed
        # violated this whenever a generation batch outgrew the KV budget.
        manager = paged_manager(capacity_tokens=48, page=16)
        scheduler = StaticBatchScheduler(manager)
        scheduler.submit([Request(0, 15, 6), Request(1, 15, 6)])
        iterations = 0
        while scheduler.has_work and iterations < 50:
            plan = scheduler.next_iteration()
            if plan is None:
                break
            scheduler.complete_iteration(plan, latency=0.05)
            iterations += 1
            for request in scheduler.running:
                if not manager.is_evicted(request.request_id):
                    assert manager.tokens_of(request.request_id) == request.context_length
        assert len(scheduler.finished) == 2
