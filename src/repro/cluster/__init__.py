"""Cluster serving layer: replicated serving systems behind a request router.

The fleet may be heterogeneous (per-class :class:`~repro.core.config.ReplicaSpec`
configurations), routed by load- or capability-aware policies, and autoscaled
against the arrival-rate curve with warm-up and drain semantics.
"""

from .autoscaler import Autoscaler, ReplicaLifecycle, ScalingEvent
from .backend import (ExecutionBackend, ProcessPoolBackend, ReplicaLoadSnapshot,
                      SerialBackend, available_backends, build_backend)
from .results import ClusterResult
from .router import (LeastKVUtilizationRouter, LeastOutstandingRouter, ReplicaView,
                     RequestRouter, RoundRobinRouter, SLOTTFTRouter,
                     WeightedCapacityRouter, available_routers, build_router,
                     register_router, routable_indices)
from .simulator import ClusterSimulator, Replica, estimate_device_throughput

__all__ = [
    "ClusterResult",
    "ReplicaView", "RequestRouter", "RoundRobinRouter", "LeastOutstandingRouter",
    "LeastKVUtilizationRouter", "SLOTTFTRouter", "WeightedCapacityRouter",
    "available_routers", "build_router", "register_router", "routable_indices",
    "Autoscaler", "ReplicaLifecycle", "ScalingEvent",
    "ExecutionBackend", "SerialBackend", "ProcessPoolBackend", "ReplicaLoadSnapshot",
    "available_backends", "build_backend",
    "ClusterSimulator", "Replica", "estimate_device_throughput",
]
