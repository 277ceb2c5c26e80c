"""System topology: devices, device groups and their interconnect layout.

LLMServingSim simulates scale-out serving systems made of a host CPU and
pools of accelerators (NPU, PIM, GPU) connected by high-bandwidth links
(Figure 3 and Figure 5 of the paper).  A :class:`SystemTopology` captures
which devices exist, what kind they are, how they are grouped for hybrid
parallelism, and whether PIM is attached locally to every NPU
(``pim_type="local"``), provided as a separate pool (``pim_type="pool"``) or
absent (``pim_type="none"``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["DeviceType", "PIMMode", "Device", "SystemTopology", "build_topology"]


class DeviceType(enum.Enum):
    """Kind of accelerator (or host) a device represents."""

    NPU = "npu"
    PIM = "pim"
    GPU = "gpu"
    HOST = "host"

    __hash__ = object.__hash__  # see repro.models.layers.OpType


class PIMMode(enum.Enum):
    """How PIM capability is provisioned in the system (the ``pim_type`` knob)."""

    NONE = "none"
    LOCAL = "local"
    POOL = "pool"


@dataclass(frozen=True)
class Device:
    """One device in the system.

    Attributes
    ----------
    device_id:
        Globally unique id (the host is always id 0 when present).
    device_type:
        NPU / PIM / GPU / HOST.
    group:
        Pipeline-parallel group index the device belongs to, or ``-1`` for
        devices outside the compute groups (host, pooled PIM).
    memory_bytes:
        Local memory capacity.
    paired_device:
        For ``pim_type="local"`` systems, the id of the PIM device attached
        to this NPU (and vice versa); ``None`` otherwise.
    """

    device_id: int
    device_type: DeviceType
    group: int = -1
    memory_bytes: int = 0
    paired_device: Optional[int] = None


@dataclass
class SystemTopology:
    """The full set of devices plus their logical grouping.

    Attributes
    ----------
    devices:
        All devices indexed by id.
    compute_groups:
        Pipeline-parallel groups; each group is the ordered list of NPU/GPU
        device ids performing tensor parallelism within the group.
    pim_pool:
        Device ids of pooled PIM devices (empty unless ``pim_mode=POOL``).
    pim_mode:
        How PIM is provisioned.
    host_id:
        Device id of the host CPU.
    """

    devices: Dict[int, Device] = field(default_factory=dict)
    compute_groups: List[List[int]] = field(default_factory=list)
    pim_pool: List[int] = field(default_factory=list)
    pim_mode: PIMMode = PIMMode.NONE
    host_id: int = 0

    # -- queries ------------------------------------------------------------

    @property
    def compute_devices(self) -> List[int]:
        """All NPU/GPU device ids in group order."""
        result: List[int] = []
        for group in self.compute_groups:
            result.extend(group)
        return result

    @property
    def num_compute_devices(self) -> int:
        return len(self.compute_devices)

    @property
    def num_groups(self) -> int:
        return len(self.compute_groups)

    @property
    def tensor_parallel_degree(self) -> int:
        """Devices per group (the tensor-parallel width)."""
        if not self.compute_groups:
            return 0
        return len(self.compute_groups[0])

    def device(self, device_id: int) -> Device:
        return self.devices[device_id]

    def group_of(self, device_id: int) -> int:
        """Pipeline group index of a compute device."""
        return self.devices[device_id].group

    def pim_partner(self, device_id: int) -> Optional[int]:
        """Locally attached PIM device of an NPU, if any."""
        return self.devices[device_id].paired_device

    def validate(self) -> None:
        """Sanity-check group membership and device references."""
        seen: set = set()
        for group_index, group in enumerate(self.compute_groups):
            if not group:
                raise ValueError(f"compute group {group_index} is empty")
            for device_id in group:
                if device_id not in self.devices:
                    raise ValueError(f"group {group_index} references unknown device {device_id}")
                if device_id in seen:
                    raise ValueError(f"device {device_id} appears in more than one group")
                seen.add(device_id)
        for pim_id in self.pim_pool:
            if pim_id not in self.devices:
                raise ValueError(f"PIM pool references unknown device {pim_id}")
        if self.host_id not in self.devices:
            raise ValueError("topology has no host device")
        widths = {len(group) for group in self.compute_groups}
        if len(widths) > 1:
            raise ValueError("all compute groups must have the same tensor-parallel width")


def build_topology(num_devices: int, num_groups: int = 1,
                   device_type: DeviceType = DeviceType.NPU,
                   device_memory_bytes: int = 24 * 1024 ** 3,
                   pim_mode: PIMMode = PIMMode.NONE,
                   pim_memory_bytes: int = 32 * 1024 ** 3,
                   num_pim_devices: Optional[int] = None) -> SystemTopology:
    """Construct a serving-system topology.

    Parameters
    ----------
    num_devices:
        Total number of compute (NPU/GPU) devices.
    num_groups:
        Number of pipeline-parallel groups (the ``npu_group`` knob); the
        tensor-parallel width is ``num_devices / num_groups``.
    device_type:
        Compute device type.
    device_memory_bytes:
        Local memory per compute device (Table I: 24 GB for the NPU).
    pim_mode:
        ``NONE`` for a homogeneous system, ``LOCAL`` to attach one PIM device
        per NPU, ``POOL`` for a separate PIM pool.
    pim_memory_bytes:
        Local memory per PIM device (Table I: 32 GB).
    num_pim_devices:
        Size of the PIM pool (defaults to ``num_devices`` for POOL mode).

    Raises
    ------
    ValueError
        If the device count is not divisible into the requested groups.
    """
    if num_devices <= 0:
        raise ValueError("num_devices must be positive")
    if num_groups <= 0:
        raise ValueError("num_groups must be positive")
    if num_devices % num_groups != 0:
        raise ValueError(f"num_devices={num_devices} is not divisible by num_groups={num_groups}")

    topology = SystemTopology(pim_mode=pim_mode, host_id=0)
    topology.devices[0] = Device(device_id=0, device_type=DeviceType.HOST,
                                 memory_bytes=512 * 1024 ** 3)

    next_id = 1
    per_group = num_devices // num_groups
    for group_index in range(num_groups):
        group: List[int] = []
        for _ in range(per_group):
            device = Device(device_id=next_id, device_type=device_type,
                            group=group_index, memory_bytes=device_memory_bytes)
            topology.devices[next_id] = device
            group.append(next_id)
            next_id += 1
        topology.compute_groups.append(group)

    if pim_mode is PIMMode.LOCAL:
        pairs: Dict[int, int] = {}
        for npu_id in list(topology.compute_devices):
            pim = Device(device_id=next_id, device_type=DeviceType.PIM,
                         group=topology.devices[npu_id].group,
                         memory_bytes=pim_memory_bytes, paired_device=npu_id)
            topology.devices[next_id] = pim
            pairs[npu_id] = next_id
            next_id += 1
        # Re-create NPU devices with their PIM partner recorded.
        for npu_id, pim_id in pairs.items():
            npu = topology.devices[npu_id]
            topology.devices[npu_id] = Device(
                device_id=npu.device_id, device_type=npu.device_type, group=npu.group,
                memory_bytes=npu.memory_bytes, paired_device=pim_id)
    elif pim_mode is PIMMode.POOL:
        pool_size = num_pim_devices if num_pim_devices is not None else num_devices
        if pool_size <= 0:
            raise ValueError("num_pim_devices must be positive for POOL mode")
        for _ in range(pool_size):
            pim = Device(device_id=next_id, device_type=DeviceType.PIM,
                         memory_bytes=pim_memory_bytes)
            topology.devices[next_id] = pim
            topology.pim_pool.append(next_id)
            next_id += 1

    topology.validate()
    return topology
