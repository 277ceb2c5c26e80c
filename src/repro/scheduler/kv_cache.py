"""KV-cache management: paged (vLLM-style) and max-allocation baselines.

The KV cache stores the keys and values of every token of every active
request across every transformer block.  The paper adopts vLLM's demand
paging: the cache is divided into fixed-size pages (blocks of tokens), pages
are allocated on demand as sequences grow, and when capacity runs out the
most recently admitted request is evicted wholesale to host memory and
reloaded later.  Evictions and reloads become memory-transfer operators in
the execution graph.

Two managers are provided:

* :class:`PagedKVCacheManager` — the vLLM scheme (``kv_manage="vllm"``).
* :class:`MaxAllocKVCacheManager` — the conventional scheme that reserves
  space for the maximum possible sequence length at admission
  (``kv_manage="max"``), used as an ablation baseline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..models.architectures import ModelConfig

__all__ = ["KVMemoryEventType", "KVMemoryEvent", "KVCacheManager",
           "PagedKVCacheManager", "MaxAllocKVCacheManager", "build_kv_manager"]


class KVMemoryEventType(enum.Enum):
    """Kind of host<->device KV movement produced by the manager."""

    EVICT = "evict"    # device -> host
    RELOAD = "reload"  # host -> device


@dataclass(frozen=True)
class KVMemoryEvent:
    """One KV-cache migration, consumed by the graph converter.

    Attributes
    ----------
    event_type:
        Eviction (store to host) or reload (load from device).
    request_id:
        The request whose cache moved.
    num_bytes:
        Payload size of the migration.
    """

    event_type: KVMemoryEventType
    request_id: int
    num_bytes: float


class KVCacheManager:
    """Common interface of the KV-cache management schemes.

    Token-accounting convention shared by every implementation: admitting a
    request with ``num_tokens`` prompt tokens reserves ``num_tokens + 1``
    cache slots — the prompt plus the first token generated at the end of the
    initiation iteration.  ``tokens_of`` therefore reports ``num_tokens + 1``
    right after admission for every manager, so paged-vs-max ablations
    compare identical trajectories.
    """

    name = "base"

    def __init__(self, model: ModelConfig, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.model = model
        self.capacity_bytes = int(capacity_bytes)

    # -- interface -----------------------------------------------------------

    def can_admit(self, num_tokens: int) -> bool:
        """Whether a new request with ``num_tokens`` prompt tokens fits now."""
        raise NotImplementedError

    def can_ever_admit(self, num_tokens: int) -> bool:
        """Whether such a request could *ever* be admitted, into an empty cache.

        ``False`` means the prompt alone exceeds a hard cap (the whole cache,
        or the manager's maximum sequence length); schedulers reject such
        requests instead of letting them block admission forever.
        """
        return True

    def admit(self, request_id: int, num_tokens: int) -> None:
        """Reserve cache space for a newly admitted request's prompt.

        Reserves ``num_tokens + 1`` slots (prompt + first generated token).
        """
        raise NotImplementedError

    def tokens_of(self, request_id: int) -> int:
        """Tokens currently accounted to an active request's cache."""
        raise NotImplementedError

    def can_grow(self, request_id: int, additional_tokens: int = 1) -> bool:
        """Whether an active request can extend its cache by ``additional_tokens``."""
        raise NotImplementedError

    def can_ever_grow(self, request_id: int, additional_tokens: int = 1) -> bool:
        """Whether the growth could *ever* succeed, given unlimited evictions.

        ``False`` means the request hit a hard per-sequence cap (the manager's
        maximum sequence length, or a footprint larger than the whole cache)
        that freeing capacity cannot lift; schedulers truncate such requests
        instead of stalling them forever.
        """
        return True

    def grow(self, request_id: int, additional_tokens: int = 1) -> None:
        """Extend an active request's cache (one generated token by default)."""
        raise NotImplementedError

    def release(self, request_id: int) -> None:
        """Free all cache space of a finished request."""
        raise NotImplementedError

    def used_bytes(self) -> int:
        raise NotImplementedError

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes()

    def utilization(self) -> float:
        """Fraction of the KV budget currently in use."""
        return self.used_bytes() / self.capacity_bytes


@dataclass
class _PagedEntry:
    """Bookkeeping for one request inside the paged manager."""

    tokens: int
    pages: int
    evicted: bool = False


class PagedKVCacheManager(KVCacheManager):
    """vLLM-style demand-paged KV-cache manager.

    Parameters
    ----------
    model:
        Model configuration (determines bytes per cached token).
    capacity_bytes:
        Aggregate device memory available to the KV cache.
    page_size_tokens:
        Tokens per page (vLLM's block size, 16 by default).
    """

    name = "vllm"

    def __init__(self, model: ModelConfig, capacity_bytes: int, page_size_tokens: int = 16) -> None:
        super().__init__(model, capacity_bytes)
        if page_size_tokens <= 0:
            raise ValueError("page_size_tokens must be positive")
        self.page_size_tokens = page_size_tokens
        self.page_bytes = page_size_tokens * model.kv_bytes_per_token()
        self.total_pages = max(1, self.capacity_bytes // self.page_bytes)
        self._entries: Dict[int, _PagedEntry] = {}
        self._admission_order: List[int] = []
        self.events: List[KVMemoryEvent] = []

    # -- helpers -------------------------------------------------------------

    def _pages_for(self, tokens: int) -> int:
        return -(-tokens // self.page_size_tokens)

    def _resident_pages(self) -> int:
        return sum(e.pages for e in self._entries.values() if not e.evicted)

    @property
    def free_pages(self) -> int:
        return self.total_pages - self._resident_pages()

    def used_bytes(self) -> int:
        return self._resident_pages() * self.page_bytes

    def drain_events(self) -> List[KVMemoryEvent]:
        """Return and clear the migrations accumulated since the last drain."""
        events, self.events = self.events, []
        return events

    def tokens_of(self, request_id: int) -> int:
        return self._entries[request_id].tokens

    def is_evicted(self, request_id: int) -> bool:
        return self._entries[request_id].evicted

    def resident_requests(self) -> List[int]:
        return [rid for rid, e in self._entries.items() if not e.evicted]

    def evicted_requests(self) -> List[int]:
        return [rid for rid in self._admission_order if self._entries[rid].evicted]

    # -- admission / growth --------------------------------------------------

    def can_admit(self, num_tokens: int) -> bool:
        return self._pages_for(num_tokens + 1) <= self.free_pages

    def can_ever_admit(self, num_tokens: int) -> bool:
        return self._pages_for(num_tokens + 1) <= self.total_pages

    def admit(self, request_id: int, num_tokens: int) -> None:
        if request_id in self._entries:
            raise ValueError(f"request {request_id} is already admitted")
        pages = self._pages_for(num_tokens + 1)
        if pages > self.free_pages:
            raise MemoryError(f"not enough free KV pages to admit request {request_id}")
        self._entries[request_id] = _PagedEntry(tokens=num_tokens + 1, pages=pages)
        self._admission_order.append(request_id)

    def can_grow(self, request_id: int, additional_tokens: int = 1) -> bool:
        entry = self._entries[request_id]
        needed = self._pages_for(entry.tokens + additional_tokens) - entry.pages
        return needed <= self.free_pages

    def can_ever_grow(self, request_id: int, additional_tokens: int = 1) -> bool:
        entry = self._entries[request_id]
        return self._pages_for(entry.tokens + additional_tokens) <= self.total_pages

    def grow(self, request_id: int, additional_tokens: int = 1) -> None:
        entry = self._entries[request_id]
        if entry.evicted:
            raise RuntimeError(f"request {request_id} is evicted; reload it before growing")
        new_tokens = entry.tokens + additional_tokens
        needed = self._pages_for(new_tokens) - entry.pages
        if needed > self.free_pages:
            raise MemoryError(f"not enough free KV pages to grow request {request_id}")
        entry.tokens = new_tokens
        entry.pages += needed

    def release(self, request_id: int) -> None:
        self._entries.pop(request_id)
        self._admission_order.remove(request_id)

    # -- eviction / reload ---------------------------------------------------

    def _eviction_candidate(self, protected: Optional[set] = None) -> Optional[int]:
        """Most recently admitted resident request outside ``protected``."""
        protected = protected or set()
        for request_id in reversed(self._admission_order):
            entry = self._entries[request_id]
            if not entry.evicted and request_id not in protected:
                return request_id
        return None

    def _evict(self, request_id: int) -> None:
        """Move one resident request to host memory and record the event."""
        entry = self._entries[request_id]
        if entry.evicted:
            raise RuntimeError(f"request {request_id} is already evicted")
        entry.evicted = True
        self.events.append(KVMemoryEvent(
            event_type=KVMemoryEventType.EVICT, request_id=request_id,
            num_bytes=entry.pages * self.page_bytes))

    def evict_last_admitted(self, protected: Optional[List[int]] = None) -> Optional[int]:
        """Evict the most recently admitted resident request to host memory.

        ``protected`` requests are never evicted.  Returns the evicted
        request id, or ``None`` if nothing evictable is resident.
        """
        candidate = self._eviction_candidate(set(protected or []))
        if candidate is None:
            return None
        self._evict(candidate)
        return candidate

    def can_reload(self, request_id: int) -> bool:
        entry = self._entries[request_id]
        return entry.evicted and entry.pages <= self.free_pages

    def reload(self, request_id: int) -> None:
        """Bring an evicted request's pages back into device memory."""
        entry = self._entries[request_id]
        if not entry.evicted:
            raise RuntimeError(f"request {request_id} is not evicted")
        if entry.pages > self.free_pages:
            raise MemoryError(f"not enough free KV pages to reload request {request_id}")
        entry.evicted = False
        self.events.append(KVMemoryEvent(
            event_type=KVMemoryEventType.RELOAD, request_id=request_id,
            num_bytes=entry.pages * self.page_bytes))

    def ensure_capacity_for_growth(self, request_id: int, additional_tokens: int = 1,
                                   protected: Optional[List[int]] = None) -> List[int]:
        """Evict requests until ``request_id`` can grow; returns evicted ids.

        ``protected`` requests (typically the one being grown) are never
        evicted.  If eviction cannot create enough space the MemoryError from
        :meth:`grow` will surface to the caller.
        """
        protected_set = set(protected or [request_id])
        evicted: List[int] = []
        while not self.can_grow(request_id, additional_tokens):
            candidate = self.evict_last_admitted(protected=sorted(protected_set))
            if candidate is None:
                break
            evicted.append(candidate)
        return evicted


class MaxAllocKVCacheManager(KVCacheManager):
    """Conventional KV management: reserve the maximum sequence length upfront.

    Requests reserve ``max_seq_len`` tokens worth of cache at admission, so
    the achievable batch size is much smaller than with paging — the
    inefficiency vLLM's paging removes.
    """

    name = "max"

    def __init__(self, model: ModelConfig, capacity_bytes: int,
                 max_seq_len: Optional[int] = None) -> None:
        super().__init__(model, capacity_bytes)
        self.max_seq_len = max_seq_len or model.max_seq_len
        self.reservation_bytes = self.max_seq_len * model.kv_bytes_per_token()
        self._requests: Dict[int, int] = {}
        self.events: List[KVMemoryEvent] = []

    def used_bytes(self) -> int:
        return len(self._requests) * self.reservation_bytes

    def drain_events(self) -> List[KVMemoryEvent]:
        events, self.events = self.events, []
        return events

    def can_admit(self, num_tokens: int) -> bool:
        if num_tokens + 1 > self.max_seq_len:
            return False
        return self.used_bytes() + self.reservation_bytes <= self.capacity_bytes

    def can_ever_admit(self, num_tokens: int) -> bool:
        return (num_tokens + 1 <= self.max_seq_len
                and self.reservation_bytes <= self.capacity_bytes)

    def admit(self, request_id: int, num_tokens: int) -> None:
        if request_id in self._requests:
            raise ValueError(f"request {request_id} is already admitted")
        if not self.can_admit(num_tokens):
            raise MemoryError(f"not enough reserved KV space to admit request {request_id}")
        # Same convention as the paged manager: prompt + first generated token.
        self._requests[request_id] = num_tokens + 1

    def tokens_of(self, request_id: int) -> int:
        return self._requests[request_id]

    def can_grow(self, request_id: int, additional_tokens: int = 1) -> bool:
        return self._requests[request_id] + additional_tokens <= self.max_seq_len

    def can_ever_grow(self, request_id: int, additional_tokens: int = 1) -> bool:
        # The reservation never changes, so a growth that fails now (the
        # max_seq_len cap) can never succeed later.
        return self.can_grow(request_id, additional_tokens)

    def grow(self, request_id: int, additional_tokens: int = 1) -> None:
        if not self.can_grow(request_id, additional_tokens):
            raise MemoryError(f"request {request_id} exceeded its maximum sequence reservation")
        self._requests[request_id] += additional_tokens

    def release(self, request_id: int) -> None:
        self._requests.pop(request_id)

    def resident_requests(self) -> List[int]:
        return list(self._requests)

    def evicted_requests(self) -> List[int]:
        return []


def build_kv_manager(kind: str, model: ModelConfig, capacity_bytes: int,
                     page_size_tokens: int = 16) -> KVCacheManager:
    """Create a KV manager by name (the ``kv_manage`` input parameter)."""
    kind = kind.lower()
    if kind == "vllm":
        return PagedKVCacheManager(model, capacity_bytes, page_size_tokens)
    if kind == "max":
        return MaxAllocKVCacheManager(model, capacity_bytes)
    raise ValueError(f"unknown kv_manage scheme {kind!r}; expected 'vllm' or 'max'")
