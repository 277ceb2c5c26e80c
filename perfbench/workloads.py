"""The benchmark's workloads: seeded inputs, serving configurations, outcomes.

Every request is generated here from ``--seed``; the program only receives
the finished ``Request`` lists.  Draws are *stratified*: ``n`` values take
one draw from each of ``n`` equal-probability strata of the target
distribution, and the strata are dealt to the requests in a fixed
low-discrepancy order, so long and short requests and gaps interleave
evenly in arrival order.  The seed draws the value inside each stratum.
Each seed therefore sees the same length distribution and almost the same
schedule shape, so run-to-run spread measures the program's host time
rather than a lucky draw that puts the longest request last.

The outcome of a round is normalised into plain tuples (:class:`Outcome`)
so the output checks in :mod:`perfbench.checks` never call back into the
program.
"""

from __future__ import annotations

import hashlib
import math
import pickle
import random
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.cluster.simulator import ClusterSimulator
from repro.core.config import AutoscaleConfig, ClusterConfig, ServingSimConfig
from repro.core.simulator import LLMServingSim
from repro.workload.request import Request

__all__ = ["RequestInput", "IterationRow", "RequestRow", "Outcome", "Workload",
           "WORKLOADS", "low_discrepancy_order", "stratified_lognormal", "stratified_gaps",
           "tp4_inputs", "tp4_simulator", "pim_inputs", "pim_simulator", "fleet_inputs",
           "fleet_simulator", "single_outcome", "cluster_outcome", "describe"]

_NORMAL = NormalDist()


class RequestInput(NamedTuple):
    """One generated request: the benchmark's own record of what was asked."""

    request_id: int
    input_tokens: int
    output_tokens: int
    arrival_time: float


class IterationRow(NamedTuple):
    """One simulated iteration as reported by the program."""

    start: float
    end: float
    latency: float
    num_requests: int
    prompt_tokens: int
    generated_tokens: int
    evictions: int
    reloads: int


class RequestRow(NamedTuple):
    """One request's reported progress and timestamps."""

    replica: int
    arrival_time: float
    first_token_time: Optional[float]
    finish_time: Optional[float]
    generated_tokens: int
    finished: bool


@dataclass
class Outcome:
    """The simulated output of one round, as plain data.

    ``placements`` lists, per request id, every replica whose result holds
    the request; ``assignments`` is the router's decision (the single
    system of the one-replica workloads counts as replica 0).
    """

    replicas: List[List[IterationRow]]
    requests: Dict[int, RequestRow]
    placements: Dict[int, List[int]]
    assignments: Dict[int, int]
    scaling_events: int = 0

    @property
    def iterations(self) -> int:
        return sum(len(rows) for rows in self.replicas)

    @property
    def finished_requests(self) -> int:
        return sum(1 for row in self.requests.values() if row.finished)

    def digest(self) -> str:
        """SHA-256 over every timestamp and count, in a fixed order."""
        state = ([[tuple(row) for row in rows] for rows in self.replicas],
                 sorted((rid, tuple(row)) for rid, row in self.requests.items()),
                 sorted(self.assignments.items()), self.scaling_events)
        return hashlib.sha256(pickle.dumps(state, protocol=4)).hexdigest()


# -- seeded draws --------------------------------------------------------------

#: Irrational steps of the low-discrepancy orders (golden ratio, sqrt 2,
#: sqrt 3), so prompt, output and gap strata are not dealt in lockstep.
_OUTPUT_STEP = (math.sqrt(5.0) - 1.0) / 2.0
_PROMPT_STEP = math.sqrt(2.0) - 1.0
_GAP_STEP = math.sqrt(3.0) - 1.0


def low_discrepancy_order(n: int, step: float) -> List[int]:
    """Stratum dealt to each of ``n`` slots: ranks of ``frac((i + 1) * step)``."""
    keys = [((i + 1) * step) % 1.0 for i in range(n)]
    ranks = [0] * n
    for rank, slot in enumerate(sorted(range(n), key=keys.__getitem__)):
        ranks[slot] = rank
    return ranks


def _stratified_uniforms(rng: random.Random, n: int, order: Sequence[int]) -> List[float]:
    return [(stratum + rng.random()) / n for stratum in order]


def stratified_lognormal(rng: random.Random, n: int, mean: float, sigma: float,
                         low: int, high: int, step: float = _OUTPUT_STEP) -> List[int]:
    """``n`` stratified log-normal token counts with the given mean, clamped."""
    mu = math.log(mean) - 0.5 * sigma * sigma
    uniforms = _stratified_uniforms(rng, n, low_discrepancy_order(n, step))
    return [min(high, max(low, round(math.exp(mu + sigma * _NORMAL.inv_cdf(u)))))
            for u in uniforms]


def stratified_gaps(rng: random.Random, n: int) -> List[float]:
    """``n`` stratified unit-rate exponential gaps (a Poisson process)."""
    order = low_discrepancy_order(n, _GAP_STEP)
    return [-math.log1p(-u) for u in _stratified_uniforms(rng, n, order)]


def _poisson_arrivals(rng: random.Random, n: int, rate: float) -> List[float]:
    clock, arrivals = 0.0, []
    for gap in stratified_gaps(rng, n):
        clock += gap / rate
        arrivals.append(clock)
    return arrivals


def _diurnal_arrivals(rng: random.Random, n: int, mean_rate: float,
                      amplitude: float, period: float) -> List[float]:
    """Non-homogeneous Poisson arrivals by time rescaling.

    The rate is ``mean_rate * (1 - amplitude * cos(2 pi t / period))``; a
    unit-rate process is mapped through the inverse of its integral.
    """
    omega = 2.0 * math.pi / period

    def integral(t: float) -> float:
        return mean_rate * (t - amplitude * math.sin(omega * t) / omega)

    arrivals, clock, target = [], 0.0, 0.0
    for gap in stratified_gaps(rng, n):
        target += gap
        low, high = clock, clock + 1.0
        while integral(high) < target:
            high += high - low
        for _ in range(60):
            mid = 0.5 * (low + high)
            if integral(mid) < target:
                low = mid
            else:
                high = mid
        clock = high
        arrivals.append(clock)
    return arrivals


# -- the three workloads -------------------------------------------------------

#: ShareGPT's log-normal length shape (sigma 1.0 prompt, 0.9 output, output
#: about 2.1x prompt) at a quarter of its mean lengths, so that a round of 16
#: requests takes a few host seconds.
SHAREGPT_MEANS = (40.0, 85.0)
TP4_MAX_LENGTHS = (256, 170)
TP4_REQUESTS = 16
TP4_RATE = 40.0
#: Enough device memory for every request's full KV footprint at once (481
#: pages of 16 tokens >= 16 x 27), so no seed evicts: a reload that exactly
#: fills the cache makes the scheduler's growth step raise MemoryError.
TP4_NPU_MEM_GB = 4.25


def tp4_inputs(seed: int) -> List[RequestInput]:
    """Poisson arrivals at ``TP4_RATE``/s with ShareGPT-shaped lengths."""
    rng = random.Random(f"tp4-sharegpt/{seed}")
    prompts = stratified_lognormal(rng, TP4_REQUESTS, SHAREGPT_MEANS[0], 1.0, 4,
                                   TP4_MAX_LENGTHS[0], step=_PROMPT_STEP)
    outputs = stratified_lognormal(rng, TP4_REQUESTS, SHAREGPT_MEANS[1], 0.9, 4,
                                   TP4_MAX_LENGTHS[1])
    arrivals = _poisson_arrivals(rng, TP4_REQUESTS, TP4_RATE)
    return [RequestInput(i, prompts[i], outputs[i], arrivals[i]) for i in range(TP4_REQUESTS)]


def tp4_simulator() -> LLMServingSim:
    """gpt3-7b on 4 tensor-parallel NPUs, iteration reuse off (the default)."""
    return LLMServingSim(ServingSimConfig(
        model_name="gpt3-7b", npu_num=4, parallel="tensor", npu_mem_gb=TP4_NPU_MEM_GB))


#: Alpaca's log-normal lengths (mean 20-token prompts, 58-token answers),
#: all arriving at t=0 under a batch cap.
PIM_REQUESTS = 24
PIM_MAX_OUTPUT = 160
PIM_BATCH_CAP = 12


def pim_inputs(seed: int, count: int = PIM_REQUESTS,
               max_output: int = PIM_MAX_OUTPUT) -> List[RequestInput]:
    """A burst of Alpaca-shaped requests at t=0."""
    rng = random.Random(f"pim-subbatch-burst/{seed}")
    prompts = stratified_lognormal(rng, count, 20.0, 0.7, 4, 256, step=_PROMPT_STEP)
    outputs = stratified_lognormal(rng, count, 58.0, 0.8, 4, max_output)
    return [RequestInput(i, prompts[i], outputs[i], 0.0) for i in range(count)]


def pim_simulator(reuse: bool = True) -> LLMServingSim:
    """gpt3-7b on 2 pipeline stages x 2-way TP with local PIM and 2 sub-batches."""
    return LLMServingSim(ServingSimConfig(
        model_name="gpt3-7b", npu_num=4, npu_group=2, parallel="hybrid",
        pim_type="local", sub_batch=True, max_batch=PIM_BATCH_CAP,
        enable_iteration_reuse=reuse))


#: The fleet's (prompt, output) menu: a few request templates, each served
#: equally often.  Every template's decode ends at context 64, so decode
#: iterations repeat across templates, requests and replicas.
FLEET_MENU = ((16, 48), (24, 40), (32, 32), (48, 16), (56, 8))
FLEET_REQUESTS = 3000
FLEET_MEAN_RATE = 20.0
FLEET_PERIOD = 60.0


def fleet_inputs(seed: int, count: int = FLEET_REQUESTS) -> List[RequestInput]:
    """Diurnal arrivals (mean ``FLEET_MEAN_RATE``/s) of menu requests."""
    rng = random.Random(f"fleet-templated/{seed}")
    menu = [FLEET_MENU[i % len(FLEET_MENU)] for i in range(count)]
    rng.shuffle(menu)
    arrivals = _diurnal_arrivals(rng, count, FLEET_MEAN_RATE, 0.8, FLEET_PERIOD)
    return [RequestInput(i, menu[i][0], menu[i][1], arrivals[i]) for i in range(count)]


def fleet_simulator(reuse: bool = True) -> ClusterSimulator:
    """8 gpt2 single-NPU replicas, least-outstanding routing, autoscaled 2..8.

    A replica builds its ``LLMServingSim`` on first access, so every stack
    is read here: building them belongs to set-up, not to the timed ``run``.
    """
    cluster = ClusterSimulator(ClusterConfig(
        num_replicas=8, routing="least-outstanding",
        replica=ServingSimConfig(model_name="gpt2", npu_num=1, npu_mem_gb=4.0,
                                 enable_iteration_reuse=reuse),
        autoscale=AutoscaleConfig(min_replicas=2, max_replicas=8, window_seconds=5.0,
                                  target_rate_per_replica=FLEET_MEAN_RATE / 5,
                                  warmup_seconds=1.0, cooldown_seconds=2.0)))
    for replica in cluster.replicas:
        replica.simulator
    return cluster


# -- running a round and normalising its outcome --------------------------------

def _rows(result) -> List[IterationRow]:
    return [IterationRow(r.start_time, r.end_time, r.latency, r.num_requests,
                         r.prompt_tokens, r.generated_tokens, r.evictions, r.reloads)
            for r in result.iterations]


def _request_row(replica: int, request) -> RequestRow:
    return RequestRow(replica, request.arrival_time, request.first_token_time,
                      request.finish_time, request.generated_tokens, request.is_finished)


def _outcome(replica_results, assignments=None, scaling_events: int = 0) -> Outcome:
    requests, placements = {}, {}
    for index, result in enumerate(replica_results):
        for request in result.requests:
            requests[request.request_id] = _request_row(index, request)
            placements.setdefault(request.request_id, []).append(index)
    if assignments is None:
        assignments = {request_id: 0 for request_id in placements}
    return Outcome(replicas=[_rows(r) for r in replica_results], requests=requests,
                   placements=placements, assignments=assignments,
                   scaling_events=scaling_events)


def single_outcome(result) -> Outcome:
    """Outcome of one ``LLMServingSim`` (a one-replica system, no router)."""
    return _outcome([result])


def cluster_outcome(result) -> Outcome:
    """Outcome of a ``ClusterSimulator`` run."""
    return _outcome(result.replica_results, dict(result.assignments),
                    len(result.scaling_timeline))


@dataclass(frozen=True)
class Workload:
    """A fixed benchmark workload.

    ``build`` constructs a fresh simulator, whose ``run`` is the timed phase.
    ``model`` and ``npus`` (per replica) feed the roofline floor check.
    """

    name: str
    model: str
    npus: int
    generate: Callable[[int], List[RequestInput]]
    build: Callable[[], object]
    outcome: Callable[[object], Outcome]

    @staticmethod
    def requests(inputs: Sequence[RequestInput]) -> List[Request]:
        """Fresh program-side requests (a run mutates the ones it serves)."""
        return [Request(r.request_id, r.input_tokens, r.output_tokens, r.arrival_time)
                for r in inputs]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(name="tp4-sharegpt", model="gpt3-7b", npus=4,
             generate=tp4_inputs, build=tp4_simulator, outcome=single_outcome),
    Workload(name="pim-subbatch-burst", model="gpt3-7b", npus=4,
             generate=pim_inputs, build=pim_simulator, outcome=single_outcome),
    Workload(name="fleet-templated", model="gpt2", npus=1,
             generate=fleet_inputs, build=fleet_simulator, outcome=cluster_outcome),
)}


def describe(inputs: Sequence[RequestInput]) -> Tuple[int, int, int, float]:
    """(requests, prompt tokens, output tokens, last arrival) of an input set."""
    return (len(inputs), sum(r.input_tokens for r in inputs),
            sum(r.output_tokens for r in inputs),
            max((r.arrival_time for r in inputs), default=0.0))
