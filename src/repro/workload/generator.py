"""Request trace generation: arrival processes over dataset length samples.

The paper synthesizes request arrival patterns with a Poisson process over
lengths sampled from ShareGPT (validation, Figure 6) and uses 256 Alpaca
requests for the heterogeneous comparison (Figure 7).  This module provides
both, plus two burstier processes for the cluster serving experiments where
routing policies only differentiate under uneven load: a Poisson-burst
process (bursts arrive as a Poisson process, each carrying a geometric
number of simultaneous requests) and a diurnal ramp (a non-homogeneous
Poisson process whose rate follows a scaled-down day/night cycle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from .datasets import DatasetProfile, LengthSampler, get_profile
from .request import Request

__all__ = ["RequestTrace", "PoissonArrivalGenerator", "BurstArrivalGenerator",
           "PoissonBurstArrivalGenerator", "DiurnalArrivalGenerator",
           "available_arrivals", "generate_trace"]


@dataclass
class RequestTrace:
    """An ordered list of requests plus the metadata used to create it."""

    requests: List[Request]
    dataset: str
    arrival_process: str
    rate_per_second: Optional[float] = None

    def __post_init__(self) -> None:
        self.requests.sort(key=lambda r: (r.arrival_time, r.request_id))

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)

    @property
    def total_input_tokens(self) -> int:
        return sum(r.input_tokens for r in self.requests)

    @property
    def total_output_tokens(self) -> int:
        return sum(r.output_tokens for r in self.requests)

    @property
    def duration(self) -> float:
        """Span between the first and last arrival."""
        if not self.requests:
            return 0.0
        return self.requests[-1].arrival_time - self.requests[0].arrival_time


class PoissonArrivalGenerator:
    """Generates requests with exponentially distributed inter-arrival times.

    Parameters
    ----------
    dataset:
        Name of the dataset profile to sample lengths from.
    rate_per_second:
        Mean arrival rate (lambda) of the Poisson process.
    seed:
        Random seed shared by the arrival and length samplers.
    """

    def __init__(self, dataset: str = "sharegpt", rate_per_second: float = 1.0, seed: int = 0) -> None:
        import numpy as np

        if rate_per_second <= 0:
            raise ValueError("rate_per_second must be positive")
        self.profile: DatasetProfile = get_profile(dataset)
        self.rate_per_second = rate_per_second
        self._rng = np.random.default_rng(seed)
        self._lengths = LengthSampler(self.profile, seed=seed + 1)

    def generate(self, num_requests: int) -> RequestTrace:
        """Produce a trace of ``num_requests`` requests."""
        if num_requests <= 0:
            raise ValueError("num_requests must be positive")
        inter_arrivals = self._rng.exponential(1.0 / self.rate_per_second, size=num_requests)
        arrival_times = inter_arrivals.cumsum()
        requests = []
        for i, arrival in enumerate(arrival_times):
            input_tokens, output_tokens = self._lengths.sample()
            requests.append(Request(
                request_id=i,
                input_tokens=input_tokens,
                output_tokens=output_tokens,
                arrival_time=float(arrival),
            ))
        return RequestTrace(
            requests=requests,
            dataset=self.profile.name,
            arrival_process="poisson",
            rate_per_second=self.rate_per_second,
        )


class BurstArrivalGenerator:
    """Generates requests that all arrive at (nearly) the same instant.

    Used for the one-shot experiments (e.g. the 256 Alpaca requests of the
    NeuPIMs comparison) where the serving system starts with a full queue.
    """

    def __init__(self, dataset: str = "alpaca", seed: int = 0, arrival_time: float = 0.0) -> None:
        self.profile: DatasetProfile = get_profile(dataset)
        self.arrival_time = arrival_time
        self._lengths = LengthSampler(self.profile, seed=seed + 1)

    def generate(self, num_requests: int) -> RequestTrace:
        """Produce a trace of ``num_requests`` simultaneous requests."""
        if num_requests <= 0:
            raise ValueError("num_requests must be positive")
        requests = []
        for i in range(num_requests):
            input_tokens, output_tokens = self._lengths.sample()
            requests.append(Request(
                request_id=i,
                input_tokens=input_tokens,
                output_tokens=output_tokens,
                arrival_time=self.arrival_time,
            ))
        return RequestTrace(
            requests=requests,
            dataset=self.profile.name,
            arrival_process="burst",
        )


class PoissonBurstArrivalGenerator:
    """Generates bursty traffic: Poisson burst epochs carrying request groups.

    Burst epochs arrive as a Poisson process; each burst contains a
    geometrically distributed number of requests (mean ``burst_size_mean``)
    that arrive simultaneously at the burst epoch.  The epoch rate is set so
    the *average* request rate equals ``rate_per_second``, which makes the
    process a drop-in, heavier-tailed replacement for the plain Poisson
    generator in load-balancing experiments.
    """

    def __init__(self, dataset: str = "sharegpt", rate_per_second: float = 1.0,
                 burst_size_mean: float = 4.0, seed: int = 0) -> None:
        import numpy as np

        if rate_per_second <= 0:
            raise ValueError("rate_per_second must be positive")
        if burst_size_mean < 1:
            raise ValueError("burst_size_mean must be at least 1")
        self.profile: DatasetProfile = get_profile(dataset)
        self.rate_per_second = rate_per_second
        self.burst_size_mean = burst_size_mean
        self._rng = np.random.default_rng(seed)
        self._lengths = LengthSampler(self.profile, seed=seed + 1)

    def generate(self, num_requests: int) -> RequestTrace:
        """Produce a trace of ``num_requests`` requests in Poisson bursts."""
        if num_requests <= 0:
            raise ValueError("num_requests must be positive")
        burst_rate = self.rate_per_second / self.burst_size_mean
        requests: List[Request] = []
        epoch = 0.0
        while len(requests) < num_requests:
            epoch += float(self._rng.exponential(1.0 / burst_rate))
            burst = int(self._rng.geometric(1.0 / self.burst_size_mean))
            burst = min(burst, num_requests - len(requests))
            for _ in range(burst):
                input_tokens, output_tokens = self._lengths.sample()
                requests.append(Request(
                    request_id=len(requests),
                    input_tokens=input_tokens,
                    output_tokens=output_tokens,
                    arrival_time=epoch,
                ))
        return RequestTrace(
            requests=requests,
            dataset=self.profile.name,
            arrival_process="poisson-burst",
            rate_per_second=self.rate_per_second,
        )


class DiurnalArrivalGenerator:
    """Non-homogeneous Poisson arrivals following a day/night rate cycle.

    The instantaneous rate ramps sinusoidally between a trough and a peak
    over ``period_seconds`` (a scaled-down "day"), starting at the trough:
    ``rate(t) = mean * (1 + amplitude * -cos(2 pi t / period))`` with
    ``0 <= amplitude < 1``.  Arrivals are drawn by thinning against the peak
    rate, the standard construction for non-homogeneous Poisson processes.
    """

    def __init__(self, dataset: str = "sharegpt", rate_per_second: float = 1.0,
                 amplitude: float = 0.8, period_seconds: float = 240.0,
                 seed: int = 0) -> None:
        import numpy as np

        if rate_per_second <= 0:
            raise ValueError("rate_per_second must be positive")
        if not 0 <= amplitude < 1:
            raise ValueError("amplitude must be in [0, 1)")
        if period_seconds <= 0:
            raise ValueError("period_seconds must be positive")
        self.profile: DatasetProfile = get_profile(dataset)
        self.rate_per_second = rate_per_second
        self.amplitude = amplitude
        self.period_seconds = period_seconds
        self._rng = np.random.default_rng(seed)
        self._lengths = LengthSampler(self.profile, seed=seed + 1)

    def rate_at(self, time: float) -> float:
        """Instantaneous arrival rate at simulated time ``time``."""
        phase = 2.0 * math.pi * time / self.period_seconds
        return self.rate_per_second * (1.0 - self.amplitude * math.cos(phase))

    def generate(self, num_requests: int) -> RequestTrace:
        """Produce a trace of ``num_requests`` diurnally modulated arrivals."""
        if num_requests <= 0:
            raise ValueError("num_requests must be positive")
        peak_rate = self.rate_per_second * (1.0 + self.amplitude)
        requests: List[Request] = []
        clock = 0.0
        while len(requests) < num_requests:
            clock += float(self._rng.exponential(1.0 / peak_rate))
            if self._rng.uniform() * peak_rate > self.rate_at(clock):
                continue  # thinning: reject candidates above the current rate
            input_tokens, output_tokens = self._lengths.sample()
            requests.append(Request(
                request_id=len(requests),
                input_tokens=input_tokens,
                output_tokens=output_tokens,
                arrival_time=clock,
            ))
        return RequestTrace(
            requests=requests,
            dataset=self.profile.name,
            arrival_process="diurnal",
            rate_per_second=self.rate_per_second,
        )


def _build_poisson(dataset, num_requests, options):
    return PoissonArrivalGenerator(
        dataset, options["rate_per_second"], options["seed"]).generate(num_requests)


def _build_burst(dataset, num_requests, options):
    return BurstArrivalGenerator(dataset, options["seed"]).generate(num_requests)


def _build_poisson_burst(dataset, num_requests, options):
    return PoissonBurstArrivalGenerator(
        dataset, options["rate_per_second"], options["burst_size_mean"],
        options["seed"]).generate(num_requests)


def _build_diurnal(dataset, num_requests, options):
    return DiurnalArrivalGenerator(
        dataset, options["rate_per_second"], options["amplitude"],
        options["period_seconds"], options["seed"]).generate(num_requests)


def _build_replay(dataset, num_requests, options):
    from .replay import TraceReplayArrivalGenerator  # avoid an import cycle
    if options["trace_path"] is None:
        raise ValueError("arrival 'replay' requires trace_path")
    return TraceReplayArrivalGenerator(
        options["trace_path"], trace_format=options["trace_format"],
        rate_scale=options["trace_rate_scale"], window=options["trace_window"],
        sample=options["trace_sample"], seed=options["seed"],
        max_seq_len=options["max_seq_len"]).generate(num_requests)


#: Arrival-process registry of :func:`generate_trace`: name -> builder taking
#: ``(dataset, num_requests, options)``.  Replay lives here next to the
#: synthetic processes so every workload consumer (CLI, benchmarks, cluster
#: runs) selects recorded traces the same way it selects poisson arrivals.
ARRIVAL_GENERATORS = {
    "poisson": _build_poisson,
    "burst": _build_burst,
    "poisson-burst": _build_poisson_burst,
    "diurnal": _build_diurnal,
    "replay": _build_replay,
}


def available_arrivals() -> List[str]:
    """Names of the registered arrival processes, in registration order."""
    return list(ARRIVAL_GENERATORS)


def generate_trace(dataset: str, num_requests: int, arrival: str = "poisson",
                   rate_per_second: float = 1.0, seed: int = 0,
                   burst_size_mean: float = 4.0, amplitude: float = 0.8,
                   period_seconds: float = 240.0,
                   trace_path: Optional[str] = None, trace_format: str = "tsv",
                   trace_rate_scale: float = 1.0,
                   trace_window: Optional[tuple] = None,
                   trace_sample: float = 1.0,
                   max_seq_len: Optional[int] = None) -> RequestTrace:
    """Convenience front-end used by the CLI and the benchmarks.

    Parameters
    ----------
    dataset:
        ``"sharegpt"`` or ``"alpaca"`` (ignored by ``"replay"``, whose
        lengths come from the trace file).
    num_requests:
        Number of requests to generate (for ``"replay"``, a cap on the
        replayed trace).
    arrival:
        One of :func:`available_arrivals`: ``"poisson"``, ``"burst"``,
        ``"poisson-burst"``, ``"diurnal"`` or ``"replay"``.
    rate_per_second:
        Mean arrival rate (ignored for one-shot burst arrivals and replay).
    seed:
        Random seed (for ``"replay"``, seeds the subsampling draw).
    burst_size_mean:
        Mean burst size for the ``"poisson-burst"`` process.
    amplitude / period_seconds:
        Shape of the ``"diurnal"`` rate cycle.
    trace_path / trace_format / trace_rate_scale / trace_window / trace_sample:
        The ``"replay"`` process's source file and transforms — see
        :class:`~repro.workload.replay.TraceReplayArrivalGenerator`.
    max_seq_len:
        Optional context-window clamp applied by ``"replay"``.
    """
    builder = ARRIVAL_GENERATORS.get(arrival)
    if builder is None:
        known = ", ".join(repr(name) for name in ARRIVAL_GENERATORS)
        raise ValueError(f"unknown arrival process {arrival!r}; expected one of {known}")
    options = dict(rate_per_second=rate_per_second, seed=seed,
                   burst_size_mean=burst_size_mean, amplitude=amplitude,
                   period_seconds=period_seconds, trace_path=trace_path,
                   trace_format=trace_format, trace_rate_scale=trace_rate_scale,
                   trace_window=trace_window, trace_sample=trace_sample,
                   max_seq_len=max_seq_len)
    return builder(dataset, num_requests, options)
