"""Tests for the runtime invariant checker (``--check-invariants``).

Happy paths prove the checker stays silent on healthy runs, with and
without iteration reuse and under both KV managers; the violation tests
plant one bookkeeping bug per invariant (a KV-token drift, a non-monotonic
event, a phantom cache lookup) and assert it is caught with a message
naming the replica and request.
"""

import dataclasses

import pytest

from repro.analysis.invariants import InvariantViolation, ReplicaInvariantChecker
from repro.cluster.simulator import ClusterSimulator, Replica
from repro.core.config import ClusterConfig, ServingSimConfig
from repro.core.results import IterationRecord
from repro.core.simulator import LLMServingSim
from repro.workload import Request, generate_trace


def replica_config(**overrides):
    defaults = dict(model_name="gpt2", npu_num=1, npu_mem_gb=4.0)
    defaults.update(overrides)
    return ServingSimConfig(**defaults)


def stepped_replica(config=None, requests=None, steps=2):
    """A checked replica advanced a few iterations into a healthy run."""
    replica = Replica(0, config or replica_config(), class_name="small",
                      check_invariants=True)
    replica.simulator.submit(requests or [Request(0, 32, 50), Request(1, 24, 50)])
    for _ in range(steps):
        assert replica.step()
    return replica


class TestHappyPaths:
    def test_checked_replica_runs_clean(self):
        replica = stepped_replica(steps=5)
        assert replica._invariant_checker.iterations_checked == 5

    def test_cluster_run_with_invariants_on(self):
        config = ClusterConfig(num_replicas=2, replica=replica_config(),
                               check_invariants=True)
        trace = generate_trace("alpaca", 8, arrival="burst", seed=0)
        result = ClusterSimulator(config).run(trace)
        assert len(result.finished_requests) == 8

    def test_cluster_run_with_iteration_reuse(self):
        config = ClusterConfig(
            num_replicas=2, replica=replica_config(enable_iteration_reuse=True),
            check_invariants=True)
        trace = generate_trace("alpaca", 8, arrival="burst", seed=0)
        result = ClusterSimulator(config).run(trace)
        assert len(result.finished_requests) == 8

    def test_max_alloc_kv_manager_runs_clean(self):
        replica = stepped_replica(config=replica_config(kv_manage="max"), steps=4)
        assert replica._invariant_checker.iterations_checked == 4

    def test_checker_off_by_default(self):
        config = ClusterConfig(replica=replica_config())
        assert config.check_invariants is False
        replica = Replica(0, replica_config())
        assert replica._invariant_checker is None


class TestMonotonicityViolations:
    @staticmethod
    def checker_after_one_step():
        sim = LLMServingSim(replica_config())
        checker = ReplicaInvariantChecker(3, "small", sim)
        sim.submit([Request(0, 32, 8)])
        record = sim.step()
        checker.after_iteration(record)
        return checker, record

    def test_backwards_clock_is_caught(self):
        checker, record = self.checker_after_one_step()
        rewound = IterationRecord(
            index=record.index + 1,
            start_time=record.end_time - 1.0,
            end_time=record.end_time - 1.0 + record.latency,
            latency=record.latency, num_requests=1, prompt_tokens=0,
            generated_tokens=1, evictions=0, reloads=0, kv_utilization=0.1)
        with pytest.raises(InvariantViolation) as excinfo:
            checker.after_iteration(rewound)
        message = str(excinfo.value)
        assert "replica 3 [small]" in message
        assert "moved backwards" in message

    def test_end_before_start_is_caught(self):
        checker, record = self.checker_after_one_step()
        warped = dataclasses.replace(record, index=record.index + 1,
                                     start_time=record.end_time,
                                     end_time=record.end_time - 0.5)
        with pytest.raises(InvariantViolation, match="before it starts"):
            checker.after_iteration(warped)

    def test_negative_latency_is_caught(self):
        checker, record = self.checker_after_one_step()
        negative = dataclasses.replace(record, index=record.index + 1,
                                       latency=-0.25)
        with pytest.raises(InvariantViolation, match="negative latency"):
            checker.after_iteration(negative)

    def test_latency_end_time_mismatch_is_caught(self):
        checker, record = self.checker_after_one_step()
        skewed = dataclasses.replace(record, index=record.index + 1,
                                     start_time=record.end_time,
                                     end_time=record.end_time + record.latency
                                     + 1.0)
        with pytest.raises(InvariantViolation, match="start \\+ latency"):
            checker.after_iteration(skewed)


class TestKVConservationViolations:
    def test_planted_token_drift_is_caught_with_request_id(self):
        replica = stepped_replica(steps=2)
        running = replica.simulator.scheduler.running
        victim = next(r for r in running if r.prompt_processed)
        # Plant the bug: grow the KV allocation behind the scheduler's back,
        # as a buggy eviction/reload path would.
        replica.simulator.kv_manager.grow(victim.request_id, 3)
        with pytest.raises(InvariantViolation) as excinfo:
            replica.step()
        message = str(excinfo.value)
        assert f"request {victim.request_id} holds" in message
        assert "conservation" in message
        assert "replica 0 [small]" in message

    def test_planted_drift_caught_under_max_alloc_manager(self):
        replica = stepped_replica(config=replica_config(kv_manage="max"),
                                  steps=2)
        victim = next(r for r in replica.simulator.scheduler.running
                      if r.prompt_processed)
        replica.simulator.kv_manager.grow(victim.request_id, 3)
        with pytest.raises(InvariantViolation, match="conservation"):
            replica.step()


class TestCacheAccountingViolations:
    def test_phantom_lookup_delta_is_caught(self):
        replica = stepped_replica(
            config=replica_config(enable_iteration_reuse=True), steps=2)
        checker = replica._invariant_checker
        sim = replica.simulator
        # Plant the bug: a double-counted lookup (two increments, one step).
        sim.result.iteration_cache_misses += 1
        record = sim.step()
        with pytest.raises(InvariantViolation) as excinfo:
            checker.after_iteration(record)
        assert "expected exactly 1 lookup" in str(excinfo.value)

    def test_counter_movement_without_reuse_is_caught(self):
        replica = stepped_replica(steps=1)  # reuse disabled
        checker = replica._invariant_checker
        sim = replica.simulator
        sim.result.iteration_cache_hits += 1
        record = sim.step()
        with pytest.raises(InvariantViolation, match="reuse disabled"):
            checker.after_iteration(record)


class TestViolationType:
    def test_violation_is_an_assertion_error(self):
        # So `pytest.raises(AssertionError)` and plain `assert`-style CI
        # wiring both catch it.
        assert issubclass(InvariantViolation, AssertionError)
