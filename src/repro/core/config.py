"""Top-level simulation configuration.

:class:`ServingSimConfig` mirrors the input parameters of the original
artifact (Appendix G: ``model_name``, ``npu_num``, ``max_batch``,
``batch_delay``, ``scheduling``, ``parallel``, ``npu_group``, ``npu_mem``,
``kv_manage``, ``pim_type``, ``sub_batch``, ...) and adds the knobs specific
to this re-implementation (computation-reuse switches, graph granularity,
network configuration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..engine.npu import NPUConfig, TABLE1_NPU
from ..engine.pim import PIMConfig, TABLE1_PIM
from ..graph.converter import GraphGranularity
from ..graph.parallelism import ParallelismStrategy
from ..system.network import NetworkConfig
from ..system.topology import PIMMode
from .simtime import SimTimeCalibration

__all__ = ["ServingSimConfig", "ReplicaSpec", "AutoscaleConfig",
           "TraceReplayConfig", "ClusterConfig"]


@dataclass
class ServingSimConfig:
    """Configuration of one LLMServingSim run.

    Attributes
    ----------
    model_name:
        Registered model to serve (e.g. ``"gpt3-7b"``).
    npu_num:
        Number of compute devices (the artifact's default is 16).
    npu_group:
        Number of pipeline-parallel groups for hybrid parallelism.
    parallel:
        Parallelism strategy (tensor / pipeline / hybrid).
    scheduling:
        Scheduling policy: ``"orca"`` (iteration-level) or ``"static"``.
    max_batch:
        Maximum requests per batch; 0 means unlimited.
    batch_delay:
        Minimum queueing delay before a request may be admitted (seconds).
    npu_mem_gb:
        Local memory per compute device in GB (artifact default 40 is for
        A100-class devices; Table I's NPU has 24).
    kv_manage:
        KV-cache management scheme: ``"vllm"`` (paged) or ``"max"``.
    kv_page_tokens:
        Page size in tokens for the paged manager.
    kv_capacity_bytes:
        Explicit KV-cache budget override in bytes.  ``None`` (the default)
        derives the budget from the device memory left after model weights
        and activations; tests and capacity studies set it directly.
    pim_type:
        PIM provisioning: ``"none"``, ``"local"`` or ``"pool"``.
    sub_batch:
        Enable NeuPIMs-style sub-batch interleaving (requires PIM).
    num_sub_batches:
        Number of sub-batches when interleaving is enabled.
    enable_block_reuse / enable_computation_reuse:
        The two fast-simulation techniques of Section IV-C.
    enable_iteration_reuse:
        Iteration-level memoization: skip the whole simulation pipeline
        (graph build, engine stack, converter, system sim) for iterations
        whose signature — batch phases/context lengths, memory events,
        sub-batch partitioning — was simulated before.  Hits replay exact
        latencies, so simulated serving behaviour is unchanged; only the
        simulation-time accounting reflects the saved work.  Off by default
        because the simulation-time experiments (Figures 8-10) study the
        operator-level techniques in isolation.
    graph_granularity:
        Execution-graph detail level.
    npu_config / pim_config / network:
        Hardware and interconnect parameters (Table I defaults).
    calibration:
        Simulation-time calibration constants.
    skip_initiation:
        The artifact's ``gen`` flag: start every request directly in the
        generation phase (prompt treated as already cached).
    seed:
        Random seed for workload generation helpers.
    """

    model_name: str = "gpt3-7b"
    npu_num: int = 16
    npu_group: int = 1
    parallel: ParallelismStrategy = ParallelismStrategy.HYBRID
    scheduling: str = "orca"
    max_batch: int = 0
    batch_delay: float = 0.0
    npu_mem_gb: float = 24.0
    kv_manage: str = "vllm"
    kv_page_tokens: int = 16
    kv_capacity_bytes: Optional[int] = None
    pim_type: str = "none"
    sub_batch: bool = False
    num_sub_batches: int = 2
    enable_block_reuse: bool = True
    enable_computation_reuse: bool = True
    enable_iteration_reuse: bool = False
    graph_granularity: GraphGranularity = GraphGranularity.OPERATOR
    npu_config: NPUConfig = field(default_factory=lambda: TABLE1_NPU)
    pim_config: PIMConfig = field(default_factory=lambda: TABLE1_PIM)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    calibration: SimTimeCalibration = field(default_factory=SimTimeCalibration)
    skip_initiation: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.npu_num <= 0:
            raise ValueError("npu_num must be positive")
        if self.npu_group <= 0:
            raise ValueError("npu_group must be positive")
        if self.npu_num % self.npu_group != 0:
            raise ValueError("npu_num must be divisible by npu_group")
        if self.npu_mem_gb <= 0:
            raise ValueError("npu_mem_gb must be positive")
        if self.pim_type not in ("none", "local", "pool"):
            raise ValueError("pim_type must be 'none', 'local' or 'pool'")
        if self.sub_batch and self.pim_type == "none":
            raise ValueError("sub_batch interleaving requires a PIM-enabled system")
        if self.num_sub_batches <= 0:
            raise ValueError("num_sub_batches must be positive")
        if self.kv_capacity_bytes is not None and self.kv_capacity_bytes <= 0:
            raise ValueError("kv_capacity_bytes must be positive when set")
        if isinstance(self.parallel, str):
            self.parallel = ParallelismStrategy(self.parallel)
        if isinstance(self.graph_granularity, str):
            self.graph_granularity = GraphGranularity(self.graph_granularity)

    @property
    def pim_mode(self) -> PIMMode:
        return PIMMode(self.pim_type)

    @property
    def npu_mem_bytes(self) -> int:
        return int(self.npu_mem_gb * 1024 ** 3)

    @property
    def effective_groups(self) -> int:
        """Number of device groups implied by the parallelism strategy."""
        if self.parallel is ParallelismStrategy.TENSOR:
            return 1
        if self.parallel is ParallelismStrategy.PIPELINE:
            return self.npu_num
        return self.npu_group


@dataclass
class ReplicaSpec:
    """One homogeneous class of replicas inside a (possibly mixed) fleet.

    A heterogeneous cluster is described as a list of specs, each wrapping a
    full :class:`ServingSimConfig` plus the number of identical replicas to
    instantiate from it — e.g. two NPU-only replicas next to two NPU+PIM
    replicas, or a pool of small-``npu_num`` systems backing a few large ones.

    Attributes
    ----------
    config:
        The serving configuration every replica of this class is built from.
    count:
        Number of identical replicas to instantiate.
    name:
        Replica-class label used in per-class SLO reporting; derived from the
        distinguishing hardware knobs when left empty.
    """

    config: ServingSimConfig = field(default_factory=ServingSimConfig)
    count: int = 1
    name: str = ""

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError("replica count must be positive")
        if not self.name:
            label = f"{self.config.model_name}-npu{self.config.npu_num}"
            if self.config.pim_type != "none":
                label += f"-pim-{self.config.pim_type}"
            self.name = label


@dataclass
class AutoscaleConfig:
    """Autoscaling policy of a cluster: replica count tracking arrival rate.

    The :class:`~repro.cluster.autoscaler.Autoscaler` watches a sliding
    window of request arrivals and keeps
    ``ceil(window_rate / target_rate_per_replica)`` replicas provisioned,
    clamped to ``[min_replicas, max_replicas]``.  Newly activated replicas
    spend ``warmup_seconds`` warming before they accept routes (model load /
    cache fill in a real deployment); deactivated replicas drain their
    outstanding requests before stopping.

    Attributes
    ----------
    min_replicas:
        Lower bound on provisioned replicas (also the initial fleet size).
    max_replicas:
        Upper bound on provisioned replicas; 0 means "the whole fleet".
    window_seconds:
        Width of the sliding arrival-rate window.
    target_rate_per_replica:
        Arrival rate (requests/s) one replica is provisioned for.
    warmup_seconds:
        Delay between activating a cold replica and it accepting routes.
    cooldown_seconds:
        Minimum time between two scaling decisions (flap damping).
    """

    min_replicas: int = 1
    max_replicas: int = 0
    window_seconds: float = 30.0
    target_rate_per_replica: float = 4.0
    warmup_seconds: float = 5.0
    cooldown_seconds: float = 10.0

    def __post_init__(self) -> None:
        if self.min_replicas <= 0:
            raise ValueError("min_replicas must be positive")
        if self.max_replicas and self.max_replicas < self.min_replicas:
            raise ValueError("max_replicas must be >= min_replicas (or 0 for the fleet size)")
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if self.target_rate_per_replica <= 0:
            raise ValueError("target_rate_per_replica must be positive")
        if self.warmup_seconds < 0:
            raise ValueError("warmup_seconds must be non-negative")
        if self.cooldown_seconds < 0:
            raise ValueError("cooldown_seconds must be non-negative")


@dataclass
class TraceReplayConfig:
    """A recorded arrival trace to replay as a cluster's workload.

    Describes the on-disk trace and the replay transforms applied by
    :class:`~repro.workload.replay.TraceReplayArrivalGenerator`.  When a
    :class:`ClusterConfig` carries one of these,
    :meth:`~repro.cluster.simulator.ClusterSimulator.run` can be called
    without a workload argument: the simulator loads the trace itself,
    clamping sequence lengths to the smallest context window in the fleet.

    Attributes
    ----------
    path:
        Trace file to replay.
    format:
        On-disk format: ``"tsv"`` (the artifact's dataset format) or
        ``"azure"`` (``TIMESTAMP,ContextTokens,GeneratedTokens`` CSV).
    rate_scale:
        Arrival-rate multiplier (``2.0`` replays the trace twice as fast).
    window:
        Optional ``(start, end)`` slice in seconds relative to the start of
        the trace.
    sample:
        Fraction of requests to keep, ``(0, 1]``; subsampling is seeded.
    seed:
        Seed of the subsampling draw.
    max_requests:
        Optional cap on the number of replayed requests.
    """

    path: str
    format: str = "tsv"
    rate_scale: float = 1.0
    window: Optional[Tuple[float, float]] = None
    sample: float = 1.0
    seed: int = 0
    max_requests: Optional[int] = None

    def __post_init__(self) -> None:
        from ..workload.replay import TRACE_FORMATS, validate_replay_transforms
        if not self.path:
            raise ValueError("trace path must be non-empty")
        if self.format not in TRACE_FORMATS:
            raise ValueError(f"trace format must be one of {TRACE_FORMATS}")
        validate_replay_transforms(self.rate_scale, self.window, self.sample)
        if self.max_requests is not None and self.max_requests <= 0:
            raise ValueError("max_requests must be positive when set")


@dataclass
class ClusterConfig:
    """Configuration of a multi-replica serving cluster.

    A cluster is a fleet of independent :class:`ServingSimConfig`-shaped
    serving systems (each with its own scheduler, KV manager and engine stack)
    behind a request router.  Routing-policy names are resolved by
    :func:`repro.cluster.build_router`; the built-in policies are
    ``"round-robin"``, ``"least-outstanding"``, ``"least-kv"``, ``"slo-ttft"``
    and ``"weighted-capacity"``.

    The fleet is described either by the single-template sugar
    (``num_replicas`` copies of ``replica``) or, for heterogeneous clusters,
    by an explicit ``replicas`` list of :class:`ReplicaSpec`; when the list is
    given it wins and ``num_replicas`` is derived from the spec counts.

    Attributes
    ----------
    num_replicas:
        Number of serving replicas behind the router (derived from
        ``replicas`` when that list is given).
    routing:
        Name of the request-routing policy.
    execution_backend:
        How replica simulations are executed by
        :class:`~repro.cluster.simulator.ClusterSimulator`: ``"serial"``
        steps replicas in-process, ``"process-pool"`` hosts each replica in
        a persistent worker process and fans out the between-arrival
        advances in parallel.  Both produce bit-identical results; names
        are resolved by :func:`repro.cluster.build_backend`.
    cache_dir:
        Optional directory persisting the per-class iteration-reuse caches
        across runs: caches are warm-started from it before the run and
        written back after, keyed by the replica class's full serving
        configuration, so parameter sweeps that revisit a configuration skip
        already-simulated iteration signatures.  Only meaningful when a
        replica class sets ``enable_iteration_reuse``.
    replica:
        Configuration template every replica is built from (single-template
        sugar; ignored when ``replicas`` is set).
    replicas:
        Heterogeneous fleet description: one :class:`ReplicaSpec` per replica
        class.  ``None`` expands the single-template form to one spec.
    autoscale:
        Optional :class:`AutoscaleConfig`; ``None`` keeps the whole fleet
        active for the entire run.
    trace_replay:
        Optional :class:`TraceReplayConfig`; when set,
        :meth:`~repro.cluster.simulator.ClusterSimulator.run` may be called
        without a workload — the cluster replays the configured trace.
    ttft_slo:
        Optional time-to-first-token SLO target (seconds) reported as
        per-class attainment in :class:`~repro.cluster.results.ClusterResult`.
    e2e_slo:
        Optional end-to-end latency SLO target (seconds), reported likewise.
    check_invariants:
        Audit every replica's simulator after each iteration with the
        runtime invariant checker
        (:class:`~repro.analysis.invariants.ReplicaInvariantChecker`):
        event-time monotonicity, KV-token conservation and cache-lookup
        accounting.  A violation raises
        :class:`~repro.analysis.invariants.InvariantViolation` naming the
        replica and request.  Overhead is a few comparisons per iteration;
        CLI flag ``--check-invariants``.
    """

    num_replicas: int = 2
    routing: str = "round-robin"
    execution_backend: str = "serial"
    cache_dir: Optional[str] = None
    replica: ServingSimConfig = field(default_factory=ServingSimConfig)
    replicas: Optional[List[ReplicaSpec]] = None
    autoscale: Optional[AutoscaleConfig] = None
    trace_replay: Optional[TraceReplayConfig] = None
    ttft_slo: Optional[float] = None
    e2e_slo: Optional[float] = None
    check_invariants: bool = False

    def __post_init__(self) -> None:
        if self.replicas is not None:
            if not self.replicas:
                raise ValueError("replicas must be non-empty when given")
            self.num_replicas = sum(spec.count for spec in self.replicas)
        if self.num_replicas <= 0:
            raise ValueError("num_replicas must be positive")
        if not self.routing:
            raise ValueError("routing policy name must be non-empty")
        if not self.execution_backend:
            raise ValueError("execution backend name must be non-empty")
        if self.cache_dir is not None and not self.cache_dir:
            raise ValueError("cache_dir must be a non-empty path when set")
        if self.autoscale is not None:
            if self.autoscale.min_replicas > self.num_replicas:
                raise ValueError("autoscale.min_replicas exceeds the fleet size")
            if self.autoscale.max_replicas > self.num_replicas:
                raise ValueError("autoscale.max_replicas exceeds the fleet size")
        if self.ttft_slo is not None and self.ttft_slo <= 0:
            raise ValueError("ttft_slo must be positive when set")
        if self.e2e_slo is not None and self.e2e_slo <= 0:
            raise ValueError("e2e_slo must be positive when set")

    def replica_specs(self) -> List[ReplicaSpec]:
        """The fleet as replica-class specs (single template becomes one spec)."""
        if self.replicas is not None:
            return list(self.replicas)
        return [ReplicaSpec(config=self.replica, count=self.num_replicas)]

    def expanded_replicas(self) -> List[Tuple[str, ServingSimConfig]]:
        """One ``(class_name, config)`` pair per replica instance, in order."""
        expanded: List[Tuple[str, ServingSimConfig]] = []
        for spec in self.replica_specs():
            expanded.extend((spec.name, spec.config) for _ in range(spec.count))
        return expanded
