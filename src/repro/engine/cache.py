"""Computation-reuse cache for hardware-simulation results.

The paper's second fast-simulation technique caches hardware-simulation
results and reuses them across iterations.  Attention and non-attention
operators are tracked separately: non-attention operators are expensive to
simulate but their shapes recur constantly (the batched token count repeats
across iterations), while attention operators are cheap but change shape
every iteration as contexts grow.

The cache key is the operator signature (type, phase, dimensions, byte
counts) plus the device class, so a hit is guaranteed to have identical
hardware behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..models.layers import Operator
from ..system.topology import DeviceType
from .base import OperatorEstimate

__all__ = ["CacheStats", "SimulationCache"]


@dataclass
class CacheStats:
    """Hit/miss counters split by operator kind."""

    attention_hits: int = 0
    attention_misses: int = 0
    non_attention_hits: int = 0
    non_attention_misses: int = 0

    @property
    def hits(self) -> int:
        return self.attention_hits + self.non_attention_hits

    @property
    def misses(self) -> int:
        return self.attention_misses + self.non_attention_misses

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class SimulationCache:
    """Memoizes :class:`OperatorEstimate` results per (device, operator shape).

    Parameters
    ----------
    enabled:
        When False every lookup misses; used by the "without reuse"
        experiment arms.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._entries: Dict[Tuple, OperatorEstimate] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def _key(self, device: DeviceType, operator: Operator) -> Tuple:
        return (device,) + operator.signature()

    def lookup(self, device: DeviceType, operator: Operator) -> Optional[OperatorEstimate]:
        """Return a cached estimate or ``None``, updating hit/miss statistics."""
        if not self.enabled:
            self._record(operator, hit=False)
            return None
        estimate = self._entries.get(self._key(device, operator))
        self._record(operator, hit=estimate is not None)
        return estimate

    def store(self, device: DeviceType, operator: Operator, estimate: OperatorEstimate) -> None:
        """Insert an estimate (a no-op when the cache is disabled)."""
        if not self.enabled:
            return
        self._entries[self._key(device, operator)] = estimate

    def clear(self) -> None:
        """Drop all entries and reset statistics."""
        self._entries.clear()
        self.stats = CacheStats()

    def _record(self, operator: Operator, hit: bool) -> None:
        if operator.is_attention:
            if hit:
                self.stats.attention_hits += 1
            else:
                self.stats.attention_misses += 1
        else:
            if hit:
                self.stats.non_attention_hits += 1
            else:
                self.stats.non_attention_misses += 1
