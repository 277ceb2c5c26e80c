"""Result collection: per-iteration records, request metrics and throughput series.

The original artifact reports prompt / generation throughput at regular
intervals plus a simulation-time breakdown (its two TSV outputs).  This
module gathers the same information: an :class:`IterationRecord` per
iteration, request-level latency statistics, and helpers to bin token counts
into throughput-over-time series for the validation experiments.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Union

from ..workload.request import Request, RequestState
from .simtime import ComponentTimes

__all__ = ["IterationRecord", "ThroughputPoint", "ServingResult"]


@dataclass(frozen=True)
class IterationRecord:
    """Summary of one simulated serving iteration.

    Attributes
    ----------
    index:
        Iteration counter.
    start_time / end_time:
        Simulated wall-clock interval the iteration occupied.
    latency:
        Iteration latency in seconds (``end_time - start_time``).
    num_requests:
        Requests in the iteration's batch.
    prompt_tokens:
        Prompt tokens processed (initiation-phase work).
    generated_tokens:
        Tokens produced by the iteration.
    evictions / reloads:
        KV-page migrations performed while forming the batch.
    kv_utilization:
        KV-cache occupancy right after the iteration was formed.
    """

    index: int
    start_time: float
    end_time: float
    latency: float
    num_requests: int
    prompt_tokens: int
    generated_tokens: int
    evictions: int = 0
    reloads: int = 0
    kv_utilization: float = 0.0


@dataclass(frozen=True)
class ThroughputPoint:
    """One bin of the throughput-over-time series."""

    time: float
    prompt_throughput: float
    generation_throughput: float


@dataclass
class ServingResult:
    """Full outcome of a serving simulation run.

    ``iteration_cache_hits`` / ``iteration_cache_misses`` count this run's
    lookups in the iteration-level reuse cache (both stay 0 when
    ``enable_iteration_reuse`` is off).  They describe *simulator* work
    saved, never simulated serving behaviour: a hit replays the exact
    latency the full pipeline would have produced.
    """

    model_name: str
    requests: List[Request] = field(default_factory=list)
    iterations: List[IterationRecord] = field(default_factory=list)
    measured_simulation_time: ComponentTimes = field(default_factory=ComponentTimes)
    modeled_simulation_time: ComponentTimes = field(default_factory=ComponentTimes)
    iteration_cache_hits: int = 0
    iteration_cache_misses: int = 0

    @property
    def iteration_cache_hit_rate(self) -> float:
        """Fraction of iteration-cache lookups that hit (0.0 when unused)."""
        lookups = self.iteration_cache_hits + self.iteration_cache_misses
        if lookups == 0:
            return 0.0
        return self.iteration_cache_hits / lookups

    # -- aggregate serving metrics --------------------------------------------

    @property
    def makespan(self) -> float:
        """Simulated time from the first iteration start to the last iteration end."""
        if not self.iterations:
            return 0.0
        return self.iterations[-1].end_time - self.iterations[0].start_time

    @property
    def total_prompt_tokens(self) -> int:
        return sum(r.prompt_tokens for r in self.iterations)

    @property
    def total_generated_tokens(self) -> int:
        return sum(r.generated_tokens for r in self.iterations)

    @property
    def prompt_throughput(self) -> float:
        """Average prompt tokens per second over the run."""
        if self.makespan <= 0:
            return 0.0
        return self.total_prompt_tokens / self.makespan

    @property
    def generation_throughput(self) -> float:
        """Average generated tokens per second over the run."""
        if self.makespan <= 0:
            return 0.0
        return self.total_generated_tokens / self.makespan

    @property
    def total_throughput(self) -> float:
        """All tokens (prompt + generated) per second."""
        if self.makespan <= 0:
            return 0.0
        return (self.total_prompt_tokens + self.total_generated_tokens) / self.makespan

    @property
    def finished_requests(self) -> List[Request]:
        return [r for r in self.requests if r.is_finished]

    @property
    def rejected_requests(self) -> List[Request]:
        """Requests whose prompt could never fit the KV cache (never served)."""
        return [r for r in self.requests if r.state is RequestState.REJECTED]

    def mean_end_to_end_latency(self) -> float:
        """Average request completion latency over finished requests."""
        latencies = [r.end_to_end_latency for r in self.finished_requests
                     if r.end_to_end_latency is not None]
        if not latencies:
            return 0.0
        return sum(latencies) / len(latencies)

    def mean_time_to_first_token(self) -> float:
        """Average time-to-first-token over requests that produced one."""
        ttfts = [r.time_to_first_token for r in self.requests
                 if r.time_to_first_token is not None]
        if not ttfts:
            return 0.0
        return sum(ttfts) / len(ttfts)

    # -- throughput-over-time series -------------------------------------------

    def throughput_series(self, bin_seconds: float = 30.0) -> List[ThroughputPoint]:
        """Bin iteration token counts into a throughput-over-time series.

        Token counts of an iteration are attributed to the bin containing the
        iteration's end time, matching how serving frameworks log throughput
        at regular reporting intervals (Figure 6's x-axis).
        """
        if bin_seconds <= 0:
            raise ValueError("bin_seconds must be positive")
        if not self.iterations:
            return []
        end = max(r.end_time for r in self.iterations)
        num_bins = int(end // bin_seconds) + 1
        prompt_bins = [0.0] * num_bins
        gen_bins = [0.0] * num_bins
        for record in self.iterations:
            index = min(num_bins - 1, int(record.end_time // bin_seconds))
            prompt_bins[index] += record.prompt_tokens
            gen_bins[index] += record.generated_tokens
        return [ThroughputPoint(time=(i + 1) * bin_seconds,
                                prompt_throughput=prompt_bins[i] / bin_seconds,
                                generation_throughput=gen_bins[i] / bin_seconds)
                for i in range(num_bins)]

    # -- TSV outputs (artifact-compatible) --------------------------------------

    def write_throughput_tsv(self, path: Union[str, Path], bin_seconds: float = 30.0) -> Path:
        """Write the ``*-throughput.tsv`` output of the artifact."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle, delimiter="\t")
            writer.writerow(["time_sec", "prompt_throughput_tok_s", "generation_throughput_tok_s"])
            for point in self.throughput_series(bin_seconds):
                writer.writerow([f"{point.time:.1f}", f"{point.prompt_throughput:.3f}",
                                 f"{point.generation_throughput:.3f}"])
        return path

    def write_simulation_time_tsv(self, path: Union[str, Path]) -> Path:
        """Write the ``*-simulation-time.tsv`` output of the artifact (milliseconds)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle, delimiter="\t")
            writer.writerow(["component", "measured_ms", "modeled_ms"])
            measured = self.measured_simulation_time.as_dict()
            modeled = self.modeled_simulation_time.as_dict()
            for component in measured:
                writer.writerow([component, f"{measured[component] * 1e3:.3f}",
                                 f"{modeled[component] * 1e3:.3f}"])
            writer.writerow(["total", f"{self.measured_simulation_time.total * 1e3:.3f}",
                             f"{self.modeled_simulation_time.total * 1e3:.3f}"])
        return path
