"""Operator-level description of decoder-based LLM layers.

Every layer of a decoder transformer is lowered into :class:`Operator`
instances that carry analytical cost metadata (floating point operations,
bytes read and written, the inference phase they belong to, and whether they
are part of the attention computation).  The execution engines
(:mod:`repro.engine`) turn these descriptions into latencies; the scheduler
and graph converter only ever look at the metadata, never at tensor values.

The operator taxonomy follows Figure 1 of the paper: embedding lookup, QKV
generation, multi-head attention (Score, Softmax, Attend, output projection),
feed-forward network, layer normalization, and the LM head.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional, Tuple

__all__ = [
    "OpType",
    "Phase",
    "Operator",
    "gemm_flops",
    "gemv_flops",
    "DTYPE_BYTES",
]

#: Bytes per element for the default (half precision) datatype used throughout
#: the simulator.  The paper's systems run FP16 inference.
DTYPE_BYTES = 2


class OpType(enum.Enum):
    """Computational class of an operator.

    The distinction that matters for the simulator is compute-bound matrix
    multiplication (``GEMM``) versus memory-bound matrix-vector work
    (``GEMV``) versus elementwise / reduction vector work, because operator
    mapping onto heterogeneous accelerators is decided on this basis
    (Section IV-B of the paper).
    """

    GEMM = "gemm"
    GEMV = "gemv"
    VECTOR = "vector"
    SOFTMAX = "softmax"
    LAYERNORM = "layernorm"
    EMBEDDING = "embedding"
    ALLREDUCE = "allreduce"
    SEND = "send"
    RECV = "recv"
    MEM_LOAD = "mem_load"
    MEM_STORE = "mem_store"

    # Members are singletons compared by identity, so hash them by identity
    # too: the engine stack keys dicts and sets by them and by operator
    # signatures that hold them, and Enum's own __hash__ runs in Python.
    __hash__ = object.__hash__


class Phase(enum.Enum):
    """Inference phase an operator belongs to.

    The initiation (prefill) phase processes the whole prompt with GEMMs,
    while the generation (decode) phase processes one new token per request
    and is dominated by GEMV attention against the KV cache.
    """

    INITIATION = "initiation"
    GENERATION = "generation"

    __hash__ = object.__hash__  # see OpType


@dataclass(frozen=True)
class Operator:
    """A single operator in an iteration's computation.

    Attributes
    ----------
    name:
        Human readable operator name, e.g. ``"block3.qkv_gen"``.
    op_type:
        Computational class used for engine mapping.
    flops:
        Floating point operations performed by the operator.
    input_bytes:
        Activation bytes read.
    weight_bytes:
        Parameter bytes read (zero for attention score/attend, which read the
        KV cache instead and account for it in ``input_bytes``).
    output_bytes:
        Activation bytes written.
    phase:
        Whether the operator belongs to the initiation or generation phase of
        the requests it processes.
    block_index:
        Index of the transformer block the operator belongs to, or ``None``
        for embedding / LM-head operators.
    is_attention:
        True for Score / Softmax / Attend operators.  Attention operators are
        the only ones whose shape changes between phases and across
        iterations, so the computation-reuse cache treats them separately.
    request_id:
        For selectively-batched attention operators, the request the operator
        belongs to; ``None`` for batched (shared) operators.
    m, k, n:
        GEMM/GEMV dimensions when applicable (``m`` rows, ``k`` reduction,
        ``n`` columns); used by the engines' tiling models.
    """

    name: str
    op_type: OpType
    flops: float
    input_bytes: float
    weight_bytes: float
    output_bytes: float
    phase: Phase
    block_index: Optional[int] = None
    is_attention: bool = False
    request_id: Optional[int] = None
    m: int = 0
    k: int = 0
    n: int = 0

    @property
    def total_bytes(self) -> float:
        """Total bytes moved (inputs + weights + outputs)."""
        return self.input_bytes + self.weight_bytes + self.output_bytes

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte moved; the x-axis of the roofline plot."""
        bytes_moved = self.total_bytes
        if bytes_moved <= 0:
            return 0.0
        return self.flops / bytes_moved

    @property
    def is_memory_bound_class(self) -> bool:
        """Whether the operator class is conventionally memory bound.

        GEMV, softmax and layer normalization have low arithmetic intensity
        and are the operators the paper maps onto PIM devices.
        """
        return self.op_type in (OpType.GEMV, OpType.SOFTMAX, OpType.LAYERNORM)

    def signature(self) -> Tuple:
        """Key identifying operators with identical hardware behaviour.

        Two operators with the same signature take the same time on the same
        engine, so the simulation cache (:mod:`repro.engine.cache`) can reuse
        results between them even across iterations.
        """
        return (
            self.op_type,
            self.phase,
            self.is_attention,
            self.m,
            self.k,
            self.n,
            round(self.flops, 3),
            round(self.total_bytes, 3),
        )

    def scaled(self, compute_factor: float, bytes_factor: Optional[float] = None) -> "Operator":
        """Return a copy with FLOPs (and optionally bytes) scaled.

        Used by the parallelism strategies: tensor parallelism divides each
        operator's work across the participating devices.
        """
        if bytes_factor is None:
            bytes_factor = compute_factor
        return replace(
            self,
            flops=self.flops * compute_factor,
            input_bytes=self.input_bytes * bytes_factor,
            weight_bytes=self.weight_bytes * bytes_factor,
            output_bytes=self.output_bytes * bytes_factor,
            m=self.m,
            k=self.k,
            n=max(1, int(round(self.n * compute_factor))) if self.n else self.n,
        )


def gemm_flops(m: int, k: int, n: int) -> float:
    """FLOPs of a dense ``m x k`` by ``k x n`` matrix multiplication."""
    return 2.0 * m * k * n


def gemv_flops(k: int, n: int) -> float:
    """FLOPs of a matrix-vector product with a ``k x n`` matrix."""
    return 2.0 * k * n
