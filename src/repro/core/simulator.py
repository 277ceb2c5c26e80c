"""LLMServingSim: the top-level iteration-level co-simulation loop.

This is the orchestrator tying every substrate together, following the
workflow of Figure 4:

1. The **scheduler** admits arrived requests into a batch, grows the KV
   cache of running requests, and decides page evictions / reloads.
2. The **execution engine stack** compiles the model for that batch (with
   block-replication reuse), maps operators onto the NPU / PIM engines and
   produces a latency trace, consulting the computation-reuse cache.
3. The **graph converter** replicates the block trace across the model's
   blocks, places work onto devices according to the parallelism strategy
   and inserts collectives, pipeline transfers and KV-migration operators.
4. The **system simulator** (ASTRA-sim substitute) replays the execution graph
   and reports the iteration latency.
5. The latency feeds back into the scheduler clock and the loop repeats
   until every request finishes.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..engine.cache import SimulationCache
from ..engine.compiler import CompilerModel
from ..engine.iteration_cache import IterationReuseCache, iteration_signature
from ..engine.mapping import build_mapper
from ..engine.npu import NPUEngine
from ..engine.pim import PIMEngine
from ..engine.stack import ExecutionEngineStack
from ..graph.converter import GraphConverter
from ..graph.parallelism import make_plan
from ..models.architectures import ModelConfig, get_model
from ..models.graph import BatchComposition, build_iteration_graph
from ..scheduler.batch import IterationPlan
from ..scheduler.kv_cache import build_kv_manager
from ..scheduler.memory import compute_kv_budget
from ..scheduler.scheduler import build_scheduler
from ..scheduler.subbatch import SubBatchPartitioner
from ..system.network import NetworkModel
from ..system.simulator import SystemSimulator
from ..system.topology import DeviceType, PIMMode, build_topology
from ..workload.generator import RequestTrace
from ..workload.request import Request
from .config import ServingSimConfig
from .results import IterationRecord, ServingResult
from .simtime import SimTimeTracker

__all__ = ["LLMServingSim"]


class LLMServingSim:
    """Hardware/software co-simulator for LLM inference serving.

    Parameters
    ----------
    config:
        The run configuration.  All components (topology, engines, scheduler,
        graph converter, system simulator) are constructed from it and can be
        inspected or replaced before calling :meth:`run` — e.g. to plug in a
        custom accelerator engine via ``engine_stack.register_engine``.
    iteration_cache:
        Optional externally-owned iteration-level reuse cache.  Latencies
        memoized there depend on the full serving configuration, so a cache
        must only be shared between simulators built from the *same*
        configuration — the cluster layer shares one per replica class.
        ``None`` creates a private cache when
        ``config.enable_iteration_reuse`` is set.
    """

    def __init__(self, config: Optional[ServingSimConfig] = None,
                 iteration_cache: Optional[IterationReuseCache] = None) -> None:
        self.config = config or ServingSimConfig()
        cfg = self.config

        self.model: ModelConfig = get_model(cfg.model_name)
        self.topology = build_topology(
            num_devices=cfg.npu_num,
            num_groups=cfg.effective_groups,
            device_type=DeviceType.NPU,
            device_memory_bytes=cfg.npu_mem_bytes,
            pim_mode=cfg.pim_mode,
            pim_memory_bytes=cfg.pim_config.memory_capacity_bytes,
        )
        self.plan = make_plan(cfg.parallel, self.topology, self.model.num_layers)

        engines = {DeviceType.NPU: NPUEngine(cfg.npu_config)}
        if cfg.pim_mode is not PIMMode.NONE:
            engines[DeviceType.PIM] = PIMEngine(cfg.pim_config)
        self.engine_stack = ExecutionEngineStack(
            engines=engines,
            mapper=build_mapper(cfg.pim_mode),
            compiler=CompilerModel(
                seconds_per_operator=cfg.calibration.compile_seconds_per_operator,
                enable_block_reuse=cfg.enable_block_reuse,
                enable_cross_iteration_cache=cfg.enable_computation_reuse),
            cache=SimulationCache(enabled=cfg.enable_computation_reuse),
        )

        budget = compute_kv_budget(self.model, cfg.npu_num, cfg.npu_mem_bytes)
        self.memory_budget = budget
        kv_capacity = cfg.kv_capacity_bytes or budget.kv_capacity_bytes
        self.kv_manager = build_kv_manager(cfg.kv_manage, self.model,
                                           kv_capacity, cfg.kv_page_tokens)
        self.scheduler = build_scheduler(cfg.scheduling, self.kv_manager,
                                         cfg.max_batch, cfg.batch_delay)
        self.converter = GraphConverter(self.topology, self.plan, cfg.graph_granularity)
        self.system_simulator = SystemSimulator(NetworkModel(cfg.network))
        self.partitioner = (SubBatchPartitioner(cfg.num_sub_batches)
                            if cfg.sub_batch else None)
        if iteration_cache is not None:
            self.iteration_cache: Optional[IterationReuseCache] = iteration_cache
        elif cfg.enable_iteration_reuse:
            self.iteration_cache = IterationReuseCache()
        else:
            self.iteration_cache = None
        self.simtime = SimTimeTracker(cfg.calibration)
        self.result = ServingResult(model_name=self.model.name)

    # -- incremental API -------------------------------------------------------
    #
    # ``submit`` + ``step`` expose the co-simulation loop one iteration at a
    # time so external drivers (notably :class:`repro.cluster.ClusterSimulator`)
    # can interleave several replicas on a common timeline.  ``run`` is the
    # batch front-end built on top of them.

    @property
    def clock(self) -> float:
        """The replica's current simulated wall-clock time."""
        return self.scheduler.clock

    @property
    def has_work(self) -> bool:
        """Whether any submitted request still needs processing."""
        return self.scheduler.has_work

    def submit(self, workload: "RequestTrace | Sequence[Request]") -> None:
        """Hand requests to the scheduler; callable repeatedly mid-simulation."""
        requests = list(workload.requests) if isinstance(workload, RequestTrace) else list(workload)
        self.scheduler.submit(requests)
        self.result.requests.extend(requests)

    def step(self) -> Optional[IterationRecord]:
        """Simulate one serving iteration, skipping idle gaps in the timeline.

        Returns the iteration's record, or ``None`` when no further progress
        is possible — either all work is done or the remaining requests are
        stuck.  A request whose prompt can never fit the KV budget is
        rejected by the scheduler rather than left pending.
        """
        while self.scheduler.has_work:
            with self.simtime.measure("scheduler"):
                plan = self.scheduler.next_iteration()
            if plan is None:
                next_arrival = self.scheduler.next_arrival_time()
                if next_arrival is None:
                    return None
                target = next_arrival + self.config.batch_delay
                if self.scheduler.clock >= target:
                    # The clock already passed every pending arrival yet no
                    # batch could be formed: stalled, stop rather than spin.
                    return None
                self.scheduler.clock = target
                continue

            latency = self.simulate_iteration_latency(plan)
            start_time = self.scheduler.clock
            with self.simtime.measure("scheduler"):
                self.scheduler.complete_iteration(plan, latency)

            record = IterationRecord(
                index=plan.iteration_index,
                start_time=start_time,
                end_time=self.scheduler.clock,
                latency=latency,
                num_requests=plan.num_requests,
                prompt_tokens=plan.prompt_tokens,
                generated_tokens=plan.generation_tokens,
                evictions=sum(1 for e in plan.memory_events if e.event_type.value == "evict"),
                reloads=sum(1 for e in plan.memory_events if e.event_type.value == "reload"),
                kv_utilization=self.kv_manager.utilization(),
            )
            self.result.iterations.append(record)
            return record
        return None

    def collect_result(self) -> ServingResult:
        """Snapshot the accumulated result with up-to-date timing breakdowns."""
        self.result.measured_simulation_time = self.simtime.measured
        self.result.modeled_simulation_time = self.simtime.modeled
        return self.result

    # -- public API ------------------------------------------------------------

    def run(self, workload: "RequestTrace | Sequence[Request]",
            max_iterations: Optional[int] = None) -> ServingResult:
        """Simulate serving of a request workload to completion.

        Parameters
        ----------
        workload:
            A request trace or plain list of requests.
        max_iterations:
            Optional safety cap on the number of iterations simulated.

        Returns
        -------
        ServingResult
            Per-iteration records, request-level metrics and the
            simulation-time breakdown.
        """
        self.submit(workload)
        iterations = 0
        while self.scheduler.has_work:
            if max_iterations is not None and iterations >= max_iterations:
                break
            if self.step() is None:
                break
            iterations += 1
        return self.collect_result()

    # -- single-iteration pipeline ----------------------------------------------

    def simulate_single_batch(self, batch: BatchComposition) -> float:
        """Simulate one iteration for an explicit batch composition.

        Convenience entry point for the simulation-time experiments (Figures
        8-10), which measure the cost of simulating a single iteration with a
        fixed batch geometry rather than serving a full request trace.
        Returns the iteration's simulated latency; the per-component
        simulation-time accounting is available via :attr:`simtime`.
        """
        plan = IterationPlan(iteration_index=0, scheduled_at=self.scheduler.clock, batch=batch)
        return self.simulate_iteration_latency(plan)

    def simulate_iteration_latency(self, plan: IterationPlan) -> float:
        """Run the engine stack, graph converter and system simulator for one plan.

        With iteration-level reuse enabled, a plan whose signature (batch
        phases/context lengths, memory events, sub-batch partitioning) was
        simulated before short-circuits the whole pipeline and replays the
        memoized latency — which is exact, because the pipeline is a
        deterministic function of the signature for a fixed configuration.
        """
        batch = plan.batch

        signature = None
        if self.iteration_cache is not None:
            num_sub_batches = (self.partitioner.num_sub_batches
                               if self.partitioner is not None else 1)
            signature = iteration_signature(batch, plan.memory_events, num_sub_batches)
            latency = self.iteration_cache.lookup(signature)
            if latency is not None:
                self.simtime.account_cached_iteration(plan.num_requests)
                self.result.iteration_cache_hits += 1
                return latency
            self.result.iteration_cache_misses += 1

        if self.partitioner is not None:
            sub_batches = self.partitioner.partition(batch)
        else:
            sub_batches = [batch]

        full_graph = build_iteration_graph(self.model, batch)
        if len(sub_batches) > 1:
            sub_graphs = [build_iteration_graph(self.model, sb) for sb in sub_batches]
            sub_batch_operator_lists = [g.block_operators for g in sub_graphs]
        else:
            sub_batch_operator_lists = [full_graph.block_operators]

        with self.simtime.measure("engine"):
            stack_result = self.engine_stack.simulate_iteration(
                full_graph, sub_batch_operator_lists)

        with self.simtime.measure("graph_converter"):
            exec_graph = self.converter.convert(
                model=self.model,
                sub_batch_block_traces=stack_result.sub_batch_traces,
                embedding_trace=list(stack_result.embedding_and_head_trace)[:1],
                head_trace=list(stack_result.embedding_and_head_trace)[1:],
                memory_events=plan.memory_events,
                total_new_tokens=batch.total_new_tokens,
            )

        with self.simtime.measure("system_sim"):
            system_result = self.system_simulator.simulate(exec_graph,
                                                           start_time=self.scheduler.clock)

        self.simtime.account_iteration(stack_result.report, self.converter.stats,
                                       plan.num_requests)
        if signature is not None:
            self.iteration_cache.store(signature, system_result.makespan)
        return system_result.makespan
