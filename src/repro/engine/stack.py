"""The execution engine stack: compiler + engines + cache + operator scheduler.

This is the component labelled "Execution Engine Stack" in Figure 4 of the
paper.  For every iteration it:

1. compiles the model for the batch configuration (with block-replication
   reuse),
2. maps each operator of each sub-batch onto an engine (NPU, PIM, GPU, ...),
3. obtains a latency estimate for every operator, consulting the
   computation-reuse cache first,
4. performs greedy operator scheduling so independent sub-batches overlap
   across heterogeneous engines, and
5. emits the merged trace the graph converter consumes, plus an
   :class:`EngineStackReport` with the work counters used for
   simulation-time accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..models.graph import IterationGraph
from ..models.layers import Operator
from ..system.topology import DeviceType
from .base import ExecutionEngine, OperatorEstimate
from .cache import SimulationCache
from .compiler import CompileReport, CompilerModel
from .mapping import OperatorMapper, HomogeneousMapper
from .npu import NPUEngine
from .op_scheduler import GreedyOperatorScheduler, OperatorSchedule
from .trace import Trace, TraceEntry

__all__ = ["EngineStackReport", "ExecutionEngineStack"]


@dataclass
class EngineStackReport:
    """Work accounting for one iteration of the engine stack.

    Attributes
    ----------
    compile_report:
        Compilation work (including block-replication savings).
    simulated_operators:
        Operators whose latency had to be freshly simulated (cache misses),
        split into attention / non-attention because the paper notes their
        very different simulation costs.
    cached_operators:
        Operators served from the computation-reuse cache.
    operators_by_engine:
        Number of operators mapped to each engine class.
    schedule_makespan:
        Overlapped makespan estimate of the operator schedule.
    """

    compile_report: CompileReport = field(default_factory=CompileReport)
    simulated_attention_operators: int = 0
    simulated_non_attention_operators: int = 0
    cached_operators: int = 0
    operators_by_engine: Dict[DeviceType, int] = field(default_factory=dict)
    schedule_makespan: float = 0.0

    @property
    def simulated_operators(self) -> int:
        return self.simulated_attention_operators + self.simulated_non_attention_operators

    @property
    def total_operators(self) -> int:
        return self.simulated_operators + self.cached_operators


class ExecutionEngineStack:
    """Pluggable per-iteration hardware simulation front-end.

    Parameters
    ----------
    engines:
        Mapping from device class to engine plug-in.  Defaults to a single
        NPU engine.
    mapper:
        Operator mapping policy (homogeneous by default).
    compiler:
        Compilation cost model.
    cache:
        Computation-reuse cache; pass ``SimulationCache(enabled=False)`` to
        model the "without reuse" configuration.
    """

    def __init__(self,
                 engines: Optional[Dict[DeviceType, ExecutionEngine]] = None,
                 mapper: Optional[OperatorMapper] = None,
                 compiler: Optional[CompilerModel] = None,
                 cache: Optional[SimulationCache] = None) -> None:
        # Note: ``cache`` defines __len__, so an empty cache is falsy — compare
        # against None explicitly rather than using ``or``.
        self.engines: Dict[DeviceType, ExecutionEngine] = (
            engines if engines is not None else {DeviceType.NPU: NPUEngine()})
        self.mapper = mapper if mapper is not None else HomogeneousMapper()
        self.compiler = compiler if compiler is not None else CompilerModel()
        self.cache = cache if cache is not None else SimulationCache()
        self.op_scheduler = GreedyOperatorScheduler()

    # -- plug-in management --------------------------------------------------

    def register_engine(self, engine: ExecutionEngine) -> None:
        """Attach an additional accelerator engine (the plug-in interface)."""
        self.engines[engine.device_type] = engine

    def engine_for(self, device_type: DeviceType) -> ExecutionEngine:
        if device_type not in self.engines:
            available = ", ".join(e.value for e in self.engines)
            raise KeyError(f"no engine registered for {device_type.value}; available: {available}")
        return self.engines[device_type]

    def reset(self) -> None:
        """Clear all cross-iteration state (cache and compiled shapes)."""
        self.cache.clear()
        self.compiler.reset()

    # -- estimation ----------------------------------------------------------

    def _estimate(self, operator: Operator, device_type: DeviceType,
                  report: EngineStackReport) -> "Tuple[OperatorEstimate, bool]":
        cached = self.cache.lookup(device_type, operator)
        if cached is not None:
            report.cached_operators += 1
            return cached, True
        engine = self.engine_for(device_type)
        if not engine.supports(operator):
            # Fall back to the primary engine when the mapped engine cannot
            # execute the operator (defensive: the default mappers never do this).
            engine = self.engine_for(self.mapper.primary)
            device_type = engine.device_type
        estimate = engine.estimate(operator)
        self.cache.store(device_type, operator, estimate)
        if operator.is_attention:
            report.simulated_attention_operators += 1
        else:
            report.simulated_non_attention_operators += 1
        return estimate, False

    def simulate_iteration(self, graph: IterationGraph,
                           sub_batch_operator_lists: Optional[Sequence[Sequence[Operator]]] = None
                           ) -> "EngineStackResult":
        """Run the engine stack for one iteration.

        Parameters
        ----------
        graph:
            The iteration's model graph (single representative block).
        sub_batch_operator_lists:
            Optional explicit sub-batch partitioning of the representative
            block's operators.  When omitted the whole block forms one
            sub-batch (no interleaving).

        Returns
        -------
        EngineStackResult
            The merged trace (single representative block), the per-operator
            estimates, and the work report.
        """
        report = EngineStackReport()
        report.compile_report = self.compiler.compile_iteration(graph)

        if sub_batch_operator_lists is None:
            sub_batch_operator_lists = [list(graph.block_operators)]

        sub_batch_traces: List[List[TraceEntry]] = []
        for sub_batch_index, operators in enumerate(sub_batch_operator_lists):
            entries: List[TraceEntry] = []
            for operator in operators:
                device_type = self.mapper.map_operator(operator)
                report.operators_by_engine[device_type] = (
                    report.operators_by_engine.get(device_type, 0) + 1)
                estimate, was_cached = self._estimate(operator, device_type, report)
                entries.append(TraceEntry(
                    operator=operator, engine=device_type, latency=estimate.latency,
                    compute_time=estimate.compute_time, memory_time=estimate.memory_time,
                    cached=was_cached, sub_batch=sub_batch_index))
            sub_batch_traces.append(entries)

        # Embedding and LM head always run on the primary engine.
        extra_entries: List[TraceEntry] = []
        for operator in list(graph.embedding_operators) + list(graph.head_operators):
            device_type = self.mapper.primary
            report.operators_by_engine[device_type] = (
                report.operators_by_engine.get(device_type, 0) + 1)
            estimate, was_cached = self._estimate(operator, device_type, report)
            extra_entries.append(TraceEntry(
                operator=operator, engine=device_type, latency=estimate.latency,
                compute_time=estimate.compute_time, memory_time=estimate.memory_time,
                cached=was_cached, sub_batch=0))

        schedule = self.op_scheduler.schedule(sub_batch_traces)
        report.schedule_makespan = schedule.makespan

        return EngineStackResult(
            block_trace=schedule.trace,
            embedding_and_head_trace=_trace_from(extra_entries),
            sub_batch_traces=[list(entries) for entries in sub_batch_traces],
            schedule=schedule,
            report=report,
        )


def _trace_from(entries: Sequence[TraceEntry]) -> Trace:
    trace = Trace()
    trace.extend(entries)
    return trace


@dataclass
class EngineStackResult:
    """Output of :meth:`ExecutionEngineStack.simulate_iteration`.

    ``block_trace`` holds the operator-scheduled (interleaved) order used for
    reporting; ``sub_batch_traces`` preserves each sub-batch's layer order,
    which is what the graph converter consumes.
    """

    block_trace: Trace
    embedding_and_head_trace: Trace
    sub_batch_traces: List[List[TraceEntry]]
    schedule: OperatorSchedule
    report: EngineStackReport
