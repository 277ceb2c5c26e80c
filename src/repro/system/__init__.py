"""System substrate: topology, network model and the system simulator."""

from .network import (HIGH_BANDWIDTH_INTERCONNECT, NVLINK_LIKE, PCIE_GEN4_X16,
                      LinkSpec, NetworkConfig, NetworkModel)
from .simulator import NodeTiming, SystemSimulationResult, SystemSimulator
from .topology import Device, DeviceType, PIMMode, SystemTopology, build_topology

__all__ = [
    "HIGH_BANDWIDTH_INTERCONNECT", "NVLINK_LIKE", "PCIE_GEN4_X16",
    "LinkSpec", "NetworkConfig", "NetworkModel",
    "NodeTiming", "SystemSimulationResult", "SystemSimulator",
    "Device", "DeviceType", "PIMMode", "SystemTopology", "build_topology",
]
