"""ClusterSimulator: N serving replicas behind a pluggable request router.

The single-system :class:`~repro.core.simulator.LLMServingSim` models one
serving instance (one device group running one model copy).  Production
deployments serve heavy traffic with many such instances behind a load
balancer, so this module scales the co-simulation out: it instantiates a
fleet of fully independent ``LLMServingSim`` stacks — each with its own
scheduler, KV-cache manager, engine stack and system simulator — and
replays a request trace through a routing policy on a shared timeline.

The fleet may be heterogeneous: :class:`~repro.core.config.ClusterConfig`
expands a list of :class:`~repro.core.config.ReplicaSpec` into replicas of
different classes (NPU-only next to NPU+PIM, small ``npu_num`` next to
large), and each :class:`Replica` exposes capability signals — a roofline
throughput estimate, its KV budget, its engine kind — so capability-aware
routers can weigh *what* a replica is, not just how loaded it is.

The timeline is event-driven: arrival and warm-up events pop off a heap
and, at each arrival, only the replicas that are *stale* — those with work
whose local clock lags the arrival — advance.  Idle, drained or stopped
replicas cost nothing, and under the ``process-pool`` backend they cost no
pipe round-trips either.  Staleness has one definition,
:meth:`Replica.needs_advance`, which is also the loop condition of
:meth:`Replica.advance_until`, so a skipped advance is exactly one that
would have done nothing.  The determinism suite in
``tests/test_backends.py`` checks the loop against a test-only reference
that advances every replica at every arrival, under both execution
backends.

Load-aware policies (least-outstanding-requests, least-KV-utilization,
predicted-TTFT) observe each replica's queue and memory state *as of the
arrival*, not as of the end of the run.  Iterations in flight when a
request arrives are allowed to finish first, matching how iteration-level
schedulers pick up new work only at iteration boundaries.

When the config carries an :class:`~repro.core.config.AutoscaleConfig`, an
:class:`~repro.cluster.autoscaler.Autoscaler` is threaded into the same
arrival loop: it observes every arrival, activates or drains replicas
against its bounds, and contributes the scaling timeline to the result.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import ClusterConfig, ServingSimConfig
from ..core.simulator import LLMServingSim
from ..engine.iteration_cache import (IterationReuseCache, iteration_cache_file,
                                      load_iteration_cache, save_iteration_cache)
from ..models.architectures import get_model
from ..models.graph import BatchComposition, SequenceSpec, build_iteration_graph
from ..models.layers import Phase
from ..models.roofline import DevicePeaks
from ..scheduler.memory import compute_kv_budget
from ..workload.generator import RequestTrace
from ..workload.replay import trace_from_config
from ..workload.request import Request
from .autoscaler import Autoscaler, ReplicaLifecycle
from .backend import ExecutionBackend, ReplicaLoadSnapshot, build_backend
from .results import ClusterResult
from .router import RequestRouter, build_router

__all__ = ["Replica", "ClusterSimulator", "estimate_device_throughput"]

#: Context length used for the roofline capability estimate: long enough to
#: be KV-dominated, short enough to represent typical serving traffic.
_CAPABILITY_CONTEXT_TOKENS = 256

#: Memoized roofline estimates keyed by the hardware/model knobs they depend
#: on, so an N-replica fleet pays one capability graph build per replica
#: *class* instead of one per replica.
_THROUGHPUT_ESTIMATES: Dict[Tuple, Tuple[float, float]] = {}


def estimate_device_throughput(config: ServingSimConfig, model) -> "tuple[float, float]":
    """Roofline capability estimate of one replica.

    Builds a single-sequence generation iteration of the replica's model,
    computes its aggregate arithmetic intensity, and bounds the attainable
    throughput with the NPU's roofline (Section II-B / Figure 2(b)); the
    estimate scales with ``npu_num``.  Returns the pair
    ``(attainable_tflops, estimated_iteration_latency_seconds)`` — the static
    capability signal heterogeneity-aware routers weigh replicas by, and the
    latency prior the ``slo-ttft`` policy uses for replicas that have not
    measured an iteration yet.

    Estimates are memoized per configuration signature (model architecture
    plus the NPU knobs entering the roofline), so instantiating many
    replicas of the same class builds the capability graph once.
    """
    key = (model.name, model.num_layers, model.hidden_size, model.num_heads,
           model.ffn_hidden_size, model.dtype_bytes, config.npu_num,
           config.npu_config.peak_flops, config.npu_config.memory_bandwidth_gbs)
    cached = _THROUGHPUT_ESTIMATES.get(key)
    if cached is not None:
        return cached
    graph = build_iteration_graph(model, BatchComposition(
        [SequenceSpec(0, _CAPABILITY_CONTEXT_TOKENS, 1, Phase.GENERATION)]))
    flops = sum(op.flops for op in graph.block_operators)
    moved = sum(op.total_bytes for op in graph.block_operators)
    if not flops or not moved:
        estimate = (0.0, 0.0)
    else:
        peaks = DevicePeaks(name="replica-npu",
                            peak_tflops=config.npu_config.peak_flops / 1e12,
                            peak_bandwidth_gbs=config.npu_config.memory_bandwidth_gbs)
        attainable = config.npu_num * peaks.attainable_tflops(flops / moved)
        iteration_flops = flops * model.num_layers
        estimate = (attainable, iteration_flops / (attainable * 1e12))
    _THROUGHPUT_ESTIMATES[key] = estimate
    return estimate


class Replica:
    """One serving replica plus the load view the router selects on.

    A replica is constructed from its configuration only; the in-process
    :class:`~repro.core.simulator.LLMServingSim` behind the ``simulator``
    property is built lazily on first use.  Under the ``process-pool``
    execution backend the simulation lives in a worker process instead: the
    backend attaches a :class:`~repro.cluster.backend.ReplicaLoadSnapshot`
    after every command round-trip, the dynamic properties below read from
    it, and the master-side simulator is **never built** — the static
    capability signals, lifecycle state and routing interface are derived
    from the configuration alone and are identical either way.
    """

    def __init__(self, replica_id: int, config: ServingSimConfig,
                 class_name: str = "default",
                 iteration_cache: Optional[IterationReuseCache] = None,
                 check_invariants: bool = False) -> None:
        self.replica_id = replica_id
        self.config = config
        self.class_name = class_name
        self.iteration_cache = iteration_cache
        self.check_invariants = check_invariants
        self._invariant_checker = None
        self.model = get_model(config.model_name)
        self.lifecycle = ReplicaLifecycle.ACTIVE
        self.warm_at = 0.0
        self._iterations_run = 0
        self._latency_sum = 0.0
        self._simulator: Optional[LLMServingSim] = None
        self._kv_budget: Optional[int] = None
        self._snapshot: Optional[ReplicaLoadSnapshot] = None
        self._capability, self._estimated_latency = estimate_device_throughput(
            config, self.model)

    @property
    def simulator(self) -> LLMServingSim:
        """The in-process simulation stack, built on first access.

        Snapshot-backed replicas (process-pool master side) never touch this
        property, so the master skips N redundant stack constructions.
        """
        if self._simulator is None:
            self._simulator = LLMServingSim(self.config,
                                            iteration_cache=self.iteration_cache)
        return self._simulator

    def attach_snapshot(self, snapshot: ReplicaLoadSnapshot) -> None:
        """Detach from the local simulator: serve load views from ``snapshot``."""
        self._snapshot = snapshot

    # -- ReplicaView protocol (what routing policies may observe) -------------

    @property
    def outstanding_requests(self) -> int:
        """Requests queued or running on this replica right now."""
        if self._snapshot is not None:
            return self._snapshot.outstanding_requests
        scheduler = self.simulator.scheduler
        return len(scheduler.pending) + len(scheduler.running)

    @property
    def kv_utilization(self) -> float:
        """Fraction of this replica's KV-cache budget currently in use."""
        if self._snapshot is not None:
            return self._snapshot.kv_utilization
        return self.simulator.kv_manager.utilization()

    @property
    def iterations_run(self) -> int:
        """Iterations this replica has simulated so far."""
        if self._snapshot is not None:
            return self._snapshot.iterations_run
        return self._iterations_run

    @property
    def latency_sum(self) -> float:
        """Total simulated seconds across this replica's iterations."""
        if self._snapshot is not None:
            return self._snapshot.latency_sum
        return self._latency_sum

    @property
    def mean_iteration_latency(self) -> float:
        """Measured seconds per serving iteration (0.0 before the first one)."""
        if self.iterations_run == 0:
            return 0.0
        return self.latency_sum / self.iterations_run

    @property
    def device_throughput_tflops(self) -> float:
        """Roofline-attainable generation throughput across this replica's NPUs."""
        return self._capability

    @property
    def estimated_iteration_latency(self) -> float:
        """Roofline prior for seconds per iteration, before any measurement."""
        return self._estimated_latency

    @property
    def kv_budget_bytes(self) -> int:
        """Total KV-cache capacity of this replica (derived from its config)."""
        if self._kv_budget is None:
            self._kv_budget = (self.config.kv_capacity_bytes
                               or compute_kv_budget(self.model, self.config.npu_num,
                                                    self.config.npu_mem_bytes
                                                    ).kv_capacity_bytes)
        return self._kv_budget

    @property
    def engine_kind(self) -> str:
        """``"npu"`` or ``"npu+pim"``, the replica's accelerator complement."""
        return "npu" if self.config.pim_type == "none" else "npu+pim"

    @property
    def is_routable(self) -> bool:
        """Whether the router may place new requests on this replica."""
        return self.lifecycle is ReplicaLifecycle.ACTIVE

    # -- autoscaling lifecycle -------------------------------------------------

    def activate(self, now: float, warmup_seconds: float = 0.0) -> None:
        """Provision this replica; cold replicas pay the warm-up first."""
        if self.lifecycle in (ReplicaLifecycle.ACTIVE, ReplicaLifecycle.WARMING):
            return
        if self.lifecycle is ReplicaLifecycle.DRAINING:
            # Still warm: its engine state never left, so no warm-up applies.
            self.lifecycle = ReplicaLifecycle.ACTIVE
            return
        if warmup_seconds > 0:
            self.lifecycle = ReplicaLifecycle.WARMING
            self.warm_at = now + warmup_seconds
        else:
            self.lifecycle = ReplicaLifecycle.ACTIVE

    def deactivate(self) -> None:
        """Remove this replica from routing; outstanding requests drain."""
        if self.lifecycle in (ReplicaLifecycle.STOPPED, ReplicaLifecycle.DRAINING):
            return
        self.lifecycle = (ReplicaLifecycle.DRAINING if self.has_work
                          else ReplicaLifecycle.STOPPED)

    def update_lifecycle(self, now: float) -> None:
        """Apply time-driven transitions: warm-up completion, drain completion."""
        if self.lifecycle is ReplicaLifecycle.WARMING and now >= self.warm_at:
            self.lifecycle = ReplicaLifecycle.ACTIVE
        elif self.lifecycle is ReplicaLifecycle.DRAINING and not self.has_work:
            self.lifecycle = ReplicaLifecycle.STOPPED

    # -- simulation control ----------------------------------------------------

    @property
    def clock(self) -> float:
        if self._snapshot is not None:
            return self._snapshot.clock
        return self.simulator.clock

    @property
    def has_work(self) -> bool:
        if self._snapshot is not None:
            return self._snapshot.has_work
        return self.simulator.has_work

    def needs_advance(self, time: float, max_iterations: Optional[int] = None) -> bool:
        """Whether ``advance_until(time, max_iterations)`` would do anything.

        This is the cluster loop's staleness predicate and the loop
        condition of :meth:`advance_until`: the replica has work, its clock
        lags ``time`` and it is below the iteration cap.
        """
        if not self.has_work or self.clock >= time:
            return False
        return max_iterations is None or self.iterations_run < max_iterations

    def submit(self, request: Request) -> None:
        self.simulator.submit([request])

    def step(self) -> bool:
        """Simulate one iteration; returns False when no progress is possible."""
        if self.check_invariants and self._invariant_checker is None:
            # Built before the first step so the checker's cache-counter
            # baseline predates the first lookup.
            from ..analysis.invariants import ReplicaInvariantChecker
            self._invariant_checker = ReplicaInvariantChecker(
                self.replica_id, self.class_name, self.simulator)
        record = self.simulator.step()
        if record is None:
            return False
        if self._invariant_checker is not None:
            self._invariant_checker.after_iteration(record)
        self._iterations_run += 1
        self._latency_sum += record.latency
        return True

    def advance_until(self, time: float, max_iterations: Optional[int] = None) -> None:
        """Step this replica until its clock reaches ``time`` or it runs dry.

        ``advance_until(math.inf, cap)`` drains the replica.
        """
        while self.needs_advance(time, max_iterations):
            if not self.step():
                return


class ClusterSimulator:
    """Simulate a cluster of LLM serving replicas behind a request router.

    Parameters
    ----------
    config:
        Cluster shape (homogeneous template or heterogeneous replica specs),
        the routing policy and optional autoscaling bounds.
    router:
        Optional pre-built routing policy; defaults to the policy named by
        ``config.routing``.  Custom policies registered through
        :func:`repro.cluster.register_router` are resolved the same way.
        The autoscaler, by contrast, is always built here from
        ``config.autoscale`` — it must be bound to this simulator's replica
        list, so it cannot be meaningfully pre-built by the caller.
    backend:
        Optional pre-built execution backend; defaults to the backend named
        by ``config.execution_backend`` (``"serial"`` or ``"process-pool"``,
        plus anything registered through
        :func:`repro.cluster.register_backend`).

    Replicas of the same class whose configuration enables
    ``enable_iteration_reuse`` share one iteration-level reuse cache
    (``iteration_caches``, keyed by class name): a decode iteration
    simulated on one replica is a cache hit on every sibling.  Under the
    ``process-pool`` backend the caches are served to the worker processes
    through a singleflight cache service, so cross-replica reuse holds under
    both backends.  When ``config.cache_dir`` is set the
    per-class caches are warm-started from disk before the run and
    persisted after it, so parameter sweeps pay for each unique iteration
    signature once across runs.
    """

    def __init__(self, config: Optional[ClusterConfig] = None,
                 router: Optional[RequestRouter] = None,
                 backend: Optional[ExecutionBackend] = None) -> None:
        self.config = config or ClusterConfig()
        self.router = router or build_router(self.config.routing)
        self.backend = backend or build_backend(self.config.execution_backend)
        self.iteration_caches: Dict[str, IterationReuseCache] = {}
        self._class_configs: Dict[str, ServingSimConfig] = {}
        self.replicas: List[Replica] = []
        for i, (class_name, replica_config) in enumerate(self.config.expanded_replicas()):
            self._class_configs.setdefault(class_name, replica_config)
            cache = None
            if replica_config.enable_iteration_reuse:
                cache = self.iteration_caches.setdefault(class_name,
                                                         IterationReuseCache())
            self.replicas.append(Replica(i, replica_config, class_name=class_name,
                                         iteration_cache=cache,
                                         check_invariants=self.config.check_invariants))
        if self.config.cache_dir is not None:
            self._load_persistent_caches()
        self.autoscaler: Optional[Autoscaler] = (
            Autoscaler(self.config.autoscale, self.replicas)
            if self.config.autoscale is not None else None)
        self.assignments: Dict[int, int] = {}

    # -- cache persistence ----------------------------------------------------

    def _load_persistent_caches(self) -> None:
        for class_name, cache in self.iteration_caches.items():
            replica_config = self._class_configs[class_name]
            load_iteration_cache(
                cache, iteration_cache_file(self.config.cache_dir, replica_config),
                replica_config)

    def _save_persistent_caches(self) -> None:
        for class_name, cache in self.iteration_caches.items():
            replica_config = self._class_configs[class_name]
            save_iteration_cache(
                cache, iteration_cache_file(self.config.cache_dir, replica_config),
                replica_config)

    # -- public API ------------------------------------------------------------

    def run(self, workload: "RequestTrace | Sequence[Request] | None" = None,
            max_iterations_per_replica: Optional[int] = None) -> ClusterResult:
        """Serve a request trace across the cluster to completion.

        Parameters
        ----------
        workload:
            A request trace or plain list of requests; arrival order defines
            routing order.  ``None`` replays the trace configured in
            ``config.trace_replay``, with sequence lengths clamped to the
            smallest model context window in the fleet.
        max_iterations_per_replica:
            Optional safety cap on iterations simulated per replica.

        Returns
        -------
        ClusterResult
            Per-replica results, the routing assignment, the scaling timeline
            (when autoscaling) and cluster-level throughput / SLO metrics.
        """
        if workload is None:
            if self.config.trace_replay is None:
                raise ValueError("run() needs a workload, or a ClusterConfig "
                                 "with trace_replay set")
            workload = trace_from_config(
                self.config.trace_replay,
                max_seq_len=min(r.model.max_seq_len for r in self.replicas))
        requests = (list(workload.requests) if isinstance(workload, RequestTrace)
                    else list(workload))
        requests.sort(key=lambda r: (r.arrival_time, r.request_id))

        backend = self.backend
        backend.bind(self.replicas, self.iteration_caches)
        try:
            self._serve_arrivals(backend, requests, max_iterations_per_replica)

            # All requests are placed: drain every replica (including
            # replicas the autoscaler put into DRAINING — their requests
            # still finish), then refresh lifecycles one last time so
            # draining replicas that ran dry are recorded as STOPPED
            # instead of lingering in DRAINING forever.
            backend.drain_all(max_iterations_per_replica)
            for replica in self.replicas:
                replica.update_lifecycle(replica.clock)

            replica_results = backend.collect_results()
        finally:
            backend.close()

        if self.config.cache_dir is not None:
            self._save_persistent_caches()

        return ClusterResult(
            routing=self.router.name,
            replica_results=replica_results,
            assignments=dict(self.assignments),
            replica_classes=[r.class_name for r in self.replicas],
            scaling_timeline=(list(self.autoscaler.events)
                              if self.autoscaler is not None else []),
            initial_provisioned=(self.autoscaler.min_replicas
                                 if self.autoscaler is not None else None),
            ttft_slo_target=self.config.ttft_slo,
            e2e_slo_target=self.config.e2e_slo,
        )

    # -- the event loop --------------------------------------------------------

    def _handle_arrival(self, backend: ExecutionBackend, request: Request) -> None:
        """Route one arrival.

        The caller has already caught the relevant replicas up to the
        arrival time; this refreshes lifecycles (warm-ups that elapsed,
        drains that completed), lets the autoscaler react, then routes.
        """
        now = request.arrival_time
        for replica in self.replicas:
            replica.update_lifecycle(now)
        if self.autoscaler is not None:
            self.autoscaler.observe_arrival(now)
        index = self.router.select(self.replicas, request)
        if not 0 <= index < len(self.replicas):
            raise ValueError(f"router {self.router.name!r} chose invalid "
                             f"replica index {index}")
        if not self.replicas[index].is_routable:
            raise ValueError(f"router {self.router.name!r} chose replica "
                             f"{index}, which is "
                             f"{self.replicas[index].lifecycle.value} and "
                             f"may not accept routes")
        backend.submit(index, request)
        self.assignments[request.request_id] = index

    def _serve_arrivals(self, backend: ExecutionBackend,
                        requests: Sequence[Request],
                        max_iterations_per_replica: Optional[int]) -> None:
        """Place every request: a heap of timeline events, selective advances.

        Arrival events advance only the *stale* replicas — those whose
        ``advance_until`` would actually step (see
        :meth:`Replica.needs_advance`); idle, drained and stopped replicas
        are skipped entirely, which under the ``process-pool`` backend also
        skips their pipe round-trips.  Warm-up completions scheduled by the
        autoscaler are heap events too: they transition WARMING replicas to
        ACTIVE at their ``warm_at`` instant.  Skipped advances change
        nothing and lifecycle state is only *observed* at arrival
        boundaries, so advancing every replica at every arrival instead
        would simulate exactly the same thing.
        """
        events: List[Tuple[float, int, str, Optional[Request]]] = []
        sequence = 0
        for request in requests:
            events.append((request.arrival_time, sequence, "arrival", request))
            sequence += 1
        heapq.heapify(events)
        scheduled_warmups = set()

        while events:
            now, _, kind, request = heapq.heappop(events)
            if kind == "warmup":
                for replica in self.replicas:
                    if replica.lifecycle is ReplicaLifecycle.WARMING:
                        replica.update_lifecycle(now)
                continue
            stale = [index for index, replica in enumerate(self.replicas)
                     if replica.needs_advance(now, max_iterations_per_replica)]
            if stale:
                backend.advance(stale, now, max_iterations_per_replica)
            self._handle_arrival(backend, request)
            # Autoscaler decisions may have started warm-ups: schedule their
            # completion instants so the timeline stays event-driven.
            for replica in self.replicas:
                if (replica.lifecycle is ReplicaLifecycle.WARMING
                        and replica.warm_at > now):
                    key = (replica.replica_id, replica.warm_at)
                    if key not in scheduled_warmups:
                        scheduled_warmups.add(key)
                        heapq.heappush(events,
                                       (replica.warm_at, sequence, "warmup", None))
                        sequence += 1
