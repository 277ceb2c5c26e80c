"""Runtime invariant checking for the cluster engine (``--check-invariants``).

The static pass (:mod:`repro.analysis.lint`) catches determinism hazards by
their syntactic shape; this module catches the *semantic* ones — bookkeeping
drift that no AST rule can see — by asserting, after every simulated
iteration, the three conservation laws the engine is built on:

1. **Event-time monotonicity.**  A replica's iterations tile its timeline:
   each starts no earlier than the previous one ended, ends exactly
   ``latency`` after it starts, and never moves backwards.  The cluster
   event loop relies on this to interleave replicas on one clock.
2. **KV-token conservation.**  Every running request whose prompt has been
   processed holds exactly ``input_tokens + generated_tokens`` KV slots,
   through admission, growth, eviction, reload and truncation; the manager's
   byte accounting must agree with a recomputation from its per-request
   token counts and never exceed capacity.
3. **Cache-lookup accounting.**  With iteration reuse enabled, each
   iteration performs exactly one cache lookup, so the hit and miss
   counters advance by exactly one per iteration — together.

Violations raise :class:`InvariantViolation` naming the replica and (where
applicable) the request, so a broken run fails loudly at the first bad
iteration instead of producing a silently wrong fingerprint.

The checker is attached per replica when
:attr:`~repro.core.config.ClusterConfig.check_invariants` is set (CLI:
``--check-invariants``); under the process-pool backend it runs inside each
worker, next to the simulator it audits.  Overhead is a few comparisons per
iteration — cheap enough to leave on in CI (see
``benchmarks/test_invariant_overhead.py``).
"""

from __future__ import annotations

from typing import Optional

__all__ = ["InvariantViolation", "ReplicaInvariantChecker"]

#: Absolute slack for float comparisons on the simulated clock.  Iteration
#: latencies are O(1e-3..1e1) seconds; accumulated rounding across a long
#: run stays far below this.
_CLOCK_EPS = 1e-6


class InvariantViolation(AssertionError):
    """A cluster-engine invariant failed; the message names the culprit."""


class ReplicaInvariantChecker:
    """Audit one replica's simulator after every iteration it runs.

    Parameters
    ----------
    replica_id:
        The cluster-level replica id, used in violation messages.
    class_name:
        The replica's class name (heterogeneous fleets), for messages.
    simulator:
        The :class:`~repro.core.simulator.LLMServingSim` to audit.  The
        checker only reads public surfaces (scheduler, KV manager, result
        counters) and never mutates simulation state.
    """

    def __init__(self, replica_id: int, class_name: str, simulator) -> None:
        self.replica_id = replica_id
        self.class_name = class_name
        self.simulator = simulator
        self.iterations_checked = 0
        self._last_end_time: Optional[float] = None
        self._last_cache_lookups = (simulator.result.iteration_cache_hits
                                    + simulator.result.iteration_cache_misses)

    def _fail(self, what: str) -> None:
        raise InvariantViolation(
            f"replica {self.replica_id} [{self.class_name}]: {what}")

    def after_iteration(self, record) -> None:
        """Run every invariant against one fresh :class:`IterationRecord`."""
        self._check_monotonic_time(record)
        self._check_kv_conservation()
        self._check_cache_accounting(record)
        self.iterations_checked += 1

    # -- 1. event-time monotonicity -------------------------------------------

    def _check_monotonic_time(self, record) -> None:
        if record.latency < 0:
            self._fail(f"iteration {record.index} has negative latency "
                       f"{record.latency!r}")
        if record.end_time < record.start_time - _CLOCK_EPS:
            self._fail(f"iteration {record.index} ends at {record.end_time!r} "
                       f"before it starts at {record.start_time!r}")
        expected_end = record.start_time + record.latency
        if abs(record.end_time - expected_end) > _CLOCK_EPS:
            self._fail(f"iteration {record.index} end time {record.end_time!r} "
                       f"!= start + latency = {expected_end!r}")
        if (self._last_end_time is not None
                and record.start_time < self._last_end_time - _CLOCK_EPS):
            self._fail(f"iteration {record.index} starts at "
                       f"{record.start_time!r}, before the previous iteration "
                       f"ended at {self._last_end_time!r} — the replica clock "
                       f"moved backwards")
        self._last_end_time = record.end_time

    # -- 2. KV-token conservation ---------------------------------------------

    def _check_kv_conservation(self) -> None:
        kv = self.simulator.kv_manager
        used = kv.used_bytes()
        if not 0 <= used <= kv.capacity_bytes:
            self._fail(f"KV manager reports {used} used bytes outside "
                       f"[0, capacity={kv.capacity_bytes}]")
        for request in self.simulator.scheduler.running:
            if not request.prompt_processed:
                continue
            held = kv.tokens_of(request.request_id)
            expected = request.input_tokens + request.generated_tokens
            if held != expected:
                self._fail(
                    f"request {request.request_id} holds {held} KV tokens "
                    f"but input+generated = {request.input_tokens}+"
                    f"{request.generated_tokens} = {expected} — KV-token "
                    f"conservation broken across admit/evict/truncate")
        self._check_kv_byte_recomputation(kv)

    def _check_kv_byte_recomputation(self, kv) -> None:
        """The manager's byte total must be derivable from its entries."""
        if kv.name == "vllm":
            resident = kv.resident_requests()
            expected = sum(kv._pages_for(kv.tokens_of(rid))
                           for rid in resident) * kv.page_bytes
            if kv.used_bytes() != expected:
                self._fail(
                    f"paged KV manager reports {kv.used_bytes()} used bytes "
                    f"but its {len(resident)} resident request(s) recompute "
                    f"to {expected} — page accounting drifted")
        elif kv.name == "max":
            expected = len(kv._requests) * kv.reservation_bytes
            if kv.used_bytes() != expected:
                self._fail(
                    f"max-alloc KV manager reports {kv.used_bytes()} used "
                    f"bytes but {len(kv._requests)} admitted request(s) x "
                    f"{kv.reservation_bytes} reservation bytes = {expected}")

    # -- 3. cache hit+miss == lookup accounting -------------------------------

    def _check_cache_accounting(self, record) -> None:
        result = self.simulator.result
        lookups = result.iteration_cache_hits + result.iteration_cache_misses
        delta = lookups - self._last_cache_lookups
        self._last_cache_lookups = lookups
        cache = self.simulator.iteration_cache
        if cache is not None:
            if delta != 1:
                self._fail(
                    f"iteration {record.index} advanced the cache hit+miss "
                    f"counters by {delta}, expected exactly 1 lookup per "
                    f"iteration (hits={result.iteration_cache_hits}, "
                    f"misses={result.iteration_cache_misses})")
        elif delta != 0:
            self._fail(
                f"iteration {record.index} advanced the cache counters by "
                f"{delta} with iteration reuse disabled")
