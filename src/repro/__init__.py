"""repro: a pure-Python reproduction of LLMServingSim (IISWC 2024).

LLMServingSim is a hardware/software co-simulation infrastructure for LLM
inference serving at scale.  This package re-implements the full system —
model operator graphs, request workloads, the Orca-style iteration-level
scheduler with vLLM paged KV caching, a pluggable execution-engine stack
(NPU systolic-array, PIM and GPU cost models), the Chakra-style graph
converter with tensor/pipeline/hybrid parallelism, and an ASTRA-sim-style
system simulator — plus the baselines and benchmark harnesses
needed to regenerate every table and figure of the paper's evaluation.

Quickstart::

    from repro import LLMServingSim, ServingSimConfig, generate_trace

    config = ServingSimConfig(model_name="gpt3-7b", npu_num=4)
    trace = generate_trace("sharegpt", num_requests=32, rate_per_second=1.0)
    result = LLMServingSim(config).run(trace)
    print(result.generation_throughput, "tokens/s")
"""

from .cluster import (Autoscaler, ClusterResult, ClusterSimulator, ScalingEvent,
                      available_routers, build_router)
from .core.config import (AutoscaleConfig, ClusterConfig, ReplicaSpec,
                          ServingSimConfig, TraceReplayConfig)
from .core.results import IterationRecord, ServingResult, ThroughputPoint
from .core.simtime import ComponentTimes, SimTimeCalibration, SimTimeTracker
from .core.simulator import LLMServingSim
from .graph.parallelism import ParallelismStrategy
from .models.architectures import ModelConfig, available_models, get_model, register_model
from .workload.generator import RequestTrace, available_arrivals, generate_trace
from .workload.replay import TraceReplayArrivalGenerator
from .workload.request import Request, RequestState
from .workload.trace_io import read_trace, write_trace

__version__ = "0.2.0"

__all__ = [
    "LLMServingSim", "ServingSimConfig", "ServingResult", "IterationRecord", "ThroughputPoint",
    "ClusterSimulator", "ClusterConfig", "ClusterResult", "ReplicaSpec",
    "AutoscaleConfig", "TraceReplayConfig", "Autoscaler", "ScalingEvent",
    "available_routers", "build_router",
    "ComponentTimes", "SimTimeCalibration", "SimTimeTracker",
    "ParallelismStrategy",
    "ModelConfig", "available_models", "get_model", "register_model",
    "RequestTrace", "available_arrivals", "generate_trace",
    "TraceReplayArrivalGenerator", "Request", "RequestState",
    "read_trace", "write_trace",
    "__version__",
]
