"""Execution engine stack: pluggable accelerator compiler-and-simulator models."""

from .base import ExecutionEngine, OperatorEstimate
from .cache import CacheStats, SimulationCache
from .compiler import CompileReport, CompilerModel
from .gpu import GPUConfig, GPUEngine, RTX3090_GPU
from .iteration_cache import (IterationReuseCache, iteration_cache_file,
                              iteration_signature, load_iteration_cache,
                              save_iteration_cache)
from .mapping import (HeterogeneousMapper, HomogeneousMapper, MappingDecision,
                      OperatorMapper, build_mapper)
from .npu import NPUConfig, NPUEngine, TABLE1_NPU
from .op_scheduler import GreedyOperatorScheduler, OperatorSchedule, ScheduledOperator
from .pim import PIMConfig, PIMEngine, TABLE1_PIM
from .stack import EngineStackReport, EngineStackResult, ExecutionEngineStack
from .trace import Trace, TraceEntry

__all__ = [
    "ExecutionEngine", "OperatorEstimate",
    "CacheStats", "SimulationCache",
    "CompileReport", "CompilerModel",
    "GPUConfig", "GPUEngine", "RTX3090_GPU",
    "IterationReuseCache", "iteration_signature", "iteration_cache_file", "save_iteration_cache",
    "load_iteration_cache",
    "HeterogeneousMapper", "HomogeneousMapper", "MappingDecision", "OperatorMapper", "build_mapper",
    "NPUConfig", "NPUEngine", "TABLE1_NPU",
    "GreedyOperatorScheduler", "OperatorSchedule", "ScheduledOperator",
    "PIMConfig", "PIMEngine", "TABLE1_PIM",
    "EngineStackReport", "EngineStackResult", "ExecutionEngineStack",
    "Trace", "TraceEntry",
]
