"""Request scheduling policies: Orca iteration-level and static batch-level.

The scheduler is the component that drives the whole co-simulation loop
(Figure 4): it keeps a clock, admits arrived requests into batches subject
to the KV-cache capacity and the maximum batch size, forms an
:class:`~repro.scheduler.batch.IterationPlan`, and — once the system
simulator reports the iteration's latency — advances its clock, updates
request progress and frees or reloads KV-cache space.

Two policies are provided, matching the artifact's ``scheduling`` knob:

* :class:`IterationLevelScheduler` (``"orca"``) — re-forms the batch every
  iteration, removing finished requests and admitting new ones immediately.
* :class:`StaticBatchScheduler` (``"static"``) — conventional batching that
  runs an admitted batch until *all* of its requests finish before admitting
  the next batch, used as an ablation baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..workload.request import Request, RequestState
from .batch import IterationPlan, format_batch
from .kv_cache import KVCacheManager, KVMemoryEvent, PagedKVCacheManager

__all__ = ["SchedulerStats", "BaseScheduler", "IterationLevelScheduler",
           "StaticBatchScheduler", "build_scheduler"]


@dataclass
class SchedulerStats:
    """Counters accumulated across a simulation run."""

    iterations: int = 0
    admitted_requests: int = 0
    finished_requests: int = 0
    evictions: int = 0
    reloads: int = 0
    stalled_growths: int = 0
    truncated_requests: int = 0
    max_batch_size_seen: int = 0


class BaseScheduler:
    """State and bookkeeping shared by both scheduling policies.

    Parameters
    ----------
    kv_manager:
        The KV-cache manager enforcing memory capacity.
    max_batch_size:
        Maximum number of requests per iteration (0 = unlimited, matching the
        artifact's ``max_batch`` default).
    batch_delay:
        Extra seconds a request must have been waiting before it may be
        admitted (the artifact's ``batch_delay`` knob; 0 by default).
    """

    name = "base"

    def __init__(self, kv_manager: KVCacheManager, max_batch_size: int = 0,
                 batch_delay: float = 0.0) -> None:
        if max_batch_size < 0:
            raise ValueError("max_batch_size must be non-negative")
        if batch_delay < 0:
            raise ValueError("batch_delay must be non-negative")
        self.kv_manager = kv_manager
        self.max_batch_size = max_batch_size
        self.batch_delay = batch_delay

        self.clock = 0.0
        self.pending: List[Request] = []
        self.running: List[Request] = []
        self.finished: List[Request] = []
        self._requests: Dict[int, Request] = {}
        self.stats = SchedulerStats()
        self._iteration_index = 0

    # -- request intake ------------------------------------------------------

    def submit(self, requests: List[Request]) -> None:
        """Add requests to the pending queue (sorted by arrival time)."""
        for request in requests:
            if request.request_id in self._requests:
                raise ValueError(f"duplicate request id {request.request_id}")
            self._requests[request.request_id] = request
            self.pending.append(request)
        self.pending.sort(key=lambda r: (r.arrival_time, r.request_id))

    @property
    def has_work(self) -> bool:
        """Whether any request still needs processing."""
        return bool(self.pending or self.running)

    def next_arrival_time(self) -> Optional[float]:
        """Arrival time of the earliest pending request, if any."""
        if not self.pending:
            return None
        return self.pending[0].arrival_time

    def _arrived_pending(self) -> List[Request]:
        """The pending requests that arrived at least ``batch_delay`` ago.

        ``submit`` keeps ``pending`` sorted by arrival, and ``arrival +
        batch_delay`` never decreases as arrival grows, so they are a prefix
        of ``pending``: the scan stops at the first request still to arrive.
        """
        cutoff = self.clock
        delay = self.batch_delay
        arrived: List[Request] = []
        for request in self.pending:
            if request.arrival_time + delay > cutoff:
                break
            arrived.append(request)
        return arrived

    def _batch_slots_left(self, current: int) -> int:
        if self.max_batch_size == 0:
            return len(self.pending)
        return max(0, self.max_batch_size - current)

    # -- policy interface ----------------------------------------------------

    def next_iteration(self) -> Optional[IterationPlan]:
        """Form the next iteration plan, or ``None`` when idle.

        If nothing can run now but requests are still pending (not yet
        arrived), the caller should advance the clock to
        :meth:`next_arrival_time` and retry.
        """
        raise NotImplementedError

    def complete_iteration(self, plan: IterationPlan, latency: float) -> None:
        """Record the completion of an iteration that took ``latency`` seconds."""
        raise NotImplementedError

    # -- shared completion handling ------------------------------------------

    def _advance_clock(self, latency: float) -> None:
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.clock += latency

    def _finish_request(self, request: Request) -> None:
        self.running.remove(request)
        self.finished.append(request)
        self.kv_manager.release(request.request_id)
        self.stats.finished_requests += 1

    def _truncate_request(self, request: Request) -> None:
        """Finish a request whose cache can never grow again.

        The request hit a hard per-sequence cap (the manager's maximum
        sequence length, or a footprint larger than the whole cache); no
        amount of freed capacity unblocks it, so it is cut short the way
        serving systems truncate at the model's maximum length rather than
        stalled forever.
        """
        request.truncate(self.clock)
        self._finish_request(request)
        self.stats.truncated_requests += 1


class IterationLevelScheduler(BaseScheduler):
    """Orca-style iteration-level scheduling with paged KV management."""

    name = "orca"

    def next_iteration(self) -> Optional[IterationPlan]:
        memory_events: List[KVMemoryEvent] = []

        # 1. Grow the KV cache of running requests by the token generated in
        #    the upcoming iteration, evicting the most recently admitted
        #    requests when capacity runs out (vLLM's recompute-free swap).
        generation_requests: List[Request] = []
        if isinstance(self.kv_manager, PagedKVCacheManager):
            for request in list(self.running):
                if self.kv_manager.is_evicted(request.request_id):
                    continue
                if not self.kv_manager.can_ever_grow(request.request_id, 1):
                    # Larger than the whole cache could ever hold: truncate
                    # before evicting victims that cannot help anyway.
                    self._truncate_request(request)
                    continue
                # Never evict a request that is already part of this
                # iteration's batch: its grown pages must stay resident.
                protected = [request.request_id] + [r.request_id for r in generation_requests]
                evicted_ids = self.kv_manager.ensure_capacity_for_growth(
                    request.request_id, 1, protected=protected)
                if evicted_ids:
                    self.stats.evictions += len(evicted_ids)
                if self.kv_manager.can_grow(request.request_id, 1):
                    self.kv_manager.grow(request.request_id, 1)
                    generation_requests.append(request)
            # Try to reload previously evicted requests while space permits.
            for request_id in self.kv_manager.evicted_requests():
                if self.kv_manager.can_reload(request_id):
                    self.kv_manager.reload(request_id)
                    self.stats.reloads += 1
                    request = self._requests[request_id]
                    # A reload can leave no free page for a request whose
                    # tokens sit on a page boundary: it stays resident and
                    # retries its growth next iteration.
                    if (request in self.running and request not in generation_requests
                            and self.kv_manager.can_grow(request_id, 1)):
                        self.kv_manager.grow(request_id, 1)
                        generation_requests.append(request)
            memory_events.extend(self.kv_manager.drain_events())
        else:
            for request in list(self.running):
                if self.kv_manager.can_grow(request.request_id, 1):
                    self.kv_manager.grow(request.request_id, 1)
                    generation_requests.append(request)
                elif not self.kv_manager.can_ever_grow(request.request_id, 1):
                    self._truncate_request(request)

        # 2. Admit arrived pending requests while memory and batch slots allow.
        initiation_requests: List[Request] = []
        slots = self._batch_slots_left(len(generation_requests))
        for request in self._arrived_pending():
            if slots <= 0:
                break
            if not self.kv_manager.can_admit(request.input_tokens):
                break
            self.kv_manager.admit(request.request_id, request.input_tokens)
            request.state = RequestState.INITIATION
            request.admitted_time = self.clock
            self.pending.remove(request)
            self.running.append(request)
            initiation_requests.append(request)
            self.stats.admitted_requests += 1
            slots -= 1
        if isinstance(self.kv_manager, PagedKVCacheManager):
            memory_events.extend(self.kv_manager.drain_events())

        if not generation_requests and not initiation_requests:
            return None

        plan = format_batch(self._iteration_index, self.clock,
                            initiation_requests, generation_requests, memory_events)
        self._iteration_index += 1
        self.stats.iterations += 1
        self.stats.max_batch_size_seen = max(self.stats.max_batch_size_seen, plan.num_requests)
        return plan

    def complete_iteration(self, plan: IterationPlan, latency: float) -> None:
        self._advance_clock(latency)
        for request in plan.initiation_requests:
            request.record_prompt_done(self.clock)
            if request.is_finished:
                self._finish_request(request)
        for request in plan.generation_requests:
            request.record_generated_token(self.clock)
            if request.is_finished:
                self._finish_request(request)


class StaticBatchScheduler(BaseScheduler):
    """Conventional batch-level scheduling (no iteration-level rescheduling).

    A batch is admitted when the system is idle and runs until every request
    in it finishes; no new requests join mid-flight.  This is the baseline
    Orca improves upon and is used by the scheduling ablation benchmark.
    """

    name = "static"

    def __init__(self, kv_manager: KVCacheManager, max_batch_size: int = 0,
                 batch_delay: float = 0.0) -> None:
        super().__init__(kv_manager, max_batch_size, batch_delay)
        self._current_batch: List[Request] = []
        self._batch_initiated = False

    def next_iteration(self) -> Optional[IterationPlan]:
        memory_events: List[KVMemoryEvent] = []

        # Admit a fresh batch only when the previous one fully drained.
        if not self._current_batch:
            self._batch_initiated = False
            slots = self._batch_slots_left(0)
            for request in self._arrived_pending():
                if slots <= 0:
                    break
                if not self.kv_manager.can_admit(request.input_tokens):
                    break
                self.kv_manager.admit(request.request_id, request.input_tokens)
                request.state = RequestState.INITIATION
                request.admitted_time = self.clock
                self.pending.remove(request)
                self.running.append(request)
                self._current_batch.append(request)
                self.stats.admitted_requests += 1
                slots -= 1
            if hasattr(self.kv_manager, "drain_events"):
                memory_events.extend(self.kv_manager.drain_events())
            if not self._current_batch:
                return None

        if not self._batch_initiated:
            initiation = list(self._current_batch)
            generation: List[Request] = []
            self._batch_initiated = True
        else:
            initiation = []
            # Only requests whose KV cache can actually grow join the batch;
            # the rest stall this iteration (they would otherwise generate
            # tokens with no pages backing them) and retry once finishing
            # requests release capacity.
            generation = []
            for request in list(self._current_batch):
                if request.is_finished:
                    continue
                if self.kv_manager.can_grow(request.request_id, 1):
                    self.kv_manager.grow(request.request_id, 1)
                    generation.append(request)
                elif not self.kv_manager.can_ever_grow(request.request_id, 1):
                    # A hard sequence cap (e.g. the max-alloc manager's
                    # max_seq_len): waiting cannot unblock it, so cut the
                    # request short instead of head-of-line blocking the batch.
                    self._truncate_request(request)
                    self._current_batch.remove(request)
                else:
                    self.stats.stalled_growths += 1
            if hasattr(self.kv_manager, "drain_events"):
                memory_events.extend(self.kv_manager.drain_events())
            if not generation:
                if not self._current_batch:
                    # Truncation drained the whole batch: immediately try to
                    # admit a fresh one rather than reporting an idle round.
                    return self.next_iteration()
                return None

        plan = format_batch(self._iteration_index, self.clock, initiation, generation, memory_events)
        self._iteration_index += 1
        self.stats.iterations += 1
        self.stats.max_batch_size_seen = max(self.stats.max_batch_size_seen, plan.num_requests)
        return plan

    def complete_iteration(self, plan: IterationPlan, latency: float) -> None:
        self._advance_clock(latency)
        for request in plan.initiation_requests:
            request.record_prompt_done(self.clock)
            if request.is_finished:
                self._finish_request(request)
                self._current_batch.remove(request)
        for request in plan.generation_requests:
            request.record_generated_token(self.clock)
            if request.is_finished:
                self._finish_request(request)
                self._current_batch.remove(request)


def build_scheduler(kind: str, kv_manager: KVCacheManager, max_batch_size: int = 0,
                    batch_delay: float = 0.0) -> BaseScheduler:
    """Create a scheduler by name (the ``scheduling`` input parameter)."""
    kind = kind.lower()
    if kind == "orca":
        return IterationLevelScheduler(kv_manager, max_batch_size, batch_delay)
    if kind == "static":
        return StaticBatchScheduler(kv_manager, max_batch_size, batch_delay)
    raise ValueError(f"unknown scheduling policy {kind!r}; expected 'orca' or 'static'")
