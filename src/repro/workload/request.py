"""Request model for LLM inference serving.

A :class:`Request` is the unit of work entering the serving system: a prompt
of ``input_tokens`` arriving at ``arrival_time`` that must produce
``output_tokens`` generated tokens.  The scheduler tracks each request's
progress through the initiation and generation phases and the simulator
derives latency metrics (time to first token, end-to-end latency) from the
timestamps recorded here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["RequestState", "Request"]


class RequestState(enum.Enum):
    """Lifecycle of a request inside the serving system."""

    PENDING = "pending"        # arrived, waiting to be admitted into a batch
    INITIATION = "initiation"  # prompt is being processed this iteration
    GENERATION = "generation"  # autoregressively generating tokens
    EVICTED = "evicted"        # KV cache moved to host memory due to pressure
    FINISHED = "finished"      # all output tokens produced
    REJECTED = "rejected"      # prompt can never fit the KV cache; never served


@dataclass
class Request:
    """One inference request and its runtime bookkeeping.

    Attributes
    ----------
    request_id:
        Unique identifier.
    input_tokens:
        Prompt length in tokens.
    output_tokens:
        Number of tokens to generate before the request completes.
    arrival_time:
        Simulated wall-clock arrival time in seconds.
    """

    request_id: int
    input_tokens: int
    output_tokens: int
    arrival_time: float = 0.0

    state: RequestState = field(default=RequestState.PENDING, compare=False)
    generated_tokens: int = field(default=0, compare=False)
    prompt_processed: bool = field(default=False, compare=False)
    first_token_time: Optional[float] = field(default=None, compare=False)
    finish_time: Optional[float] = field(default=None, compare=False)
    admitted_time: Optional[float] = field(default=None, compare=False)
    eviction_count: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.input_tokens <= 0:
            raise ValueError("input_tokens must be positive")
        if self.output_tokens <= 0:
            raise ValueError("output_tokens must be positive")
        if self.arrival_time < 0:
            raise ValueError("arrival_time must be non-negative")

    @property
    def context_length(self) -> int:
        """Tokens currently held in the KV cache for this request."""
        if not self.prompt_processed:
            return 0
        return self.input_tokens + self.generated_tokens

    @property
    def is_finished(self) -> bool:
        return self.state is RequestState.FINISHED

    @property
    def remaining_tokens(self) -> int:
        """Output tokens still to be generated."""
        return max(0, self.output_tokens - self.generated_tokens)

    @property
    def time_to_first_token(self) -> Optional[float]:
        """Latency from arrival to the first generated token, if known."""
        if self.first_token_time is None:
            return None
        return self.first_token_time - self.arrival_time

    @property
    def end_to_end_latency(self) -> Optional[float]:
        """Latency from arrival to completion, if the request finished."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival_time

    def record_prompt_done(self, time: float) -> None:
        """Mark the prompt as processed (end of the initiation phase)."""
        self.prompt_processed = True
        self.state = RequestState.GENERATION
        if self.first_token_time is None:
            self.first_token_time = time
        self.generated_tokens += 1
        self._maybe_finish(time)

    def record_generated_token(self, time: float) -> None:
        """Record one generated token in the generation phase."""
        if not self.prompt_processed:
            raise RuntimeError("cannot generate before the prompt is processed")
        self.generated_tokens += 1
        self._maybe_finish(time)

    def truncate(self, time: float) -> None:
        """Finish the request early, before all output tokens were produced.

        Serving systems do this when a sequence hits the model's maximum
        length; the tokens generated so far stand as the response.
        """
        self.state = RequestState.FINISHED
        self.finish_time = time

    def _maybe_finish(self, time: float) -> None:
        if self.generated_tokens >= self.output_tokens:
            self.state = RequestState.FINISHED
            self.finish_time = time
