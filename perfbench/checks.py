"""Output checks, computed from the benchmark's own inputs and constants.

Nothing here calls into the program: the checks read an
:class:`~perfbench.workloads.Outcome` (plain tuples copied out of the
program's results) and compare it with the generated inputs and with a
roofline floor built from published model shapes and the paper's Table I
NPU.

Request-level checks return the ids of the requests they fail; a failed
request counts in the benchmark's ``failed`` total.  Run-level checks
return messages; any message makes the run incorrect.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence, Set, Tuple

from .workloads import Outcome, RequestInput

__all__ = ["MODEL_SHAPES", "block_parameters", "latency_floor", "failed_requests",
           "run_errors", "floor_margin"]

#: Published decoder shapes: (blocks, d_model, d_ff).  GPT-2 small
#: (Radford et al., 2019) and the 6.7B GPT-3 (Brown et al., 2020).
MODEL_SHAPES: Dict[str, Tuple[int, int, int]] = {
    "gpt2": (12, 768, 3072),
    "gpt3-7b": (32, 4096, 16384),
}
BYTES_PER_PARAMETER = 2  # fp16 weights
#: Table I NPU: 936 GB/s local memory; a 128x128 systolic array at 1 GHz,
#: two FLOP per multiply-accumulate.
NPU_BANDWIDTH_BYTES_PER_S = 936e9
NPU_PEAK_FLOPS = 128 * 128 * 2 * 1e9
#: Slack for ``end - start`` against ``latency`` (one float subtraction).
_RELATIVE_TOLERANCE = 1e-12


def block_parameters(model: str) -> int:
    """Parameters of all transformer blocks: QKV, output projection, FFN, norms."""
    blocks, d, d_ff = MODEL_SHAPES[model]
    per_block = (3 * d * d + 3 * d) + (d * d + d) + (2 * d * d_ff + d_ff + d) + 4 * d
    return blocks * per_block


def latency_floor(model: str, npus: int, tokens: int) -> float:
    """Seconds no iteration can beat: stream the block weights, or do the FLOPs."""
    params = block_parameters(model)
    weight_seconds = params * BYTES_PER_PARAMETER / (npus * NPU_BANDWIDTH_BYTES_PER_S)
    flop_seconds = 2 * params * tokens / (npus * NPU_PEAK_FLOPS)
    return max(weight_seconds, flop_seconds)


def failed_requests(inputs: Sequence[RequestInput], outcome: Outcome) -> Set[int]:
    """Ids of the requests that fail a request-level check.

    A request fails when it did not finish with exactly its own output
    tokens, when its arrival, first token and finish are out of order, or
    when it was not routed to exactly one replica that holds it.
    """
    failed: Set[int] = set()
    for request in inputs:
        rid = request.request_id
        row = outcome.requests.get(rid)
        if (row is None or not row.finished
                or row.generated_tokens != request.output_tokens):
            failed.add(rid)
            continue
        if (row.first_token_time is None or row.finish_time is None
                or not request.arrival_time <= row.first_token_time <= row.finish_time
                or row.arrival_time != request.arrival_time):
            failed.add(rid)
            continue
        replica = outcome.assignments.get(rid)
        if replica is None or outcome.placements.get(rid) != [replica] \
                or row.replica != replica:
            failed.add(rid)
    return failed


def _iteration_tokens(outcome: Outcome) -> List[List[int]]:
    """Tokens each iteration pushed through the model.

    An iteration's generated count includes the first token of each request
    whose prompt it processed; those requests' first-token time is the
    iteration's end, which identifies them.
    """
    first_tokens = Counter((row.replica, row.first_token_time)
                           for row in outcome.requests.values())
    return [[it.prompt_tokens + it.generated_tokens - first_tokens[(index, it.end)]
             for it in rows]
            for index, rows in enumerate(outcome.replicas)]


def floor_margin(model: str, npus: int, outcome: Outcome) -> float:
    """Smallest latency / roofline-floor ratio over all iterations."""
    margin = float("inf")
    for rows, tokens in zip(outcome.replicas, _iteration_tokens(outcome)):
        for it, count in zip(rows, tokens):
            margin = min(margin, it.latency / latency_floor(model, npus, max(count, 1)))
    return margin


def run_errors(inputs: Sequence[RequestInput], outcome: Outcome, model: str,
               npus: int) -> List[str]:
    """Run-level checks: token totals, iteration timing and the roofline floor."""
    errors: List[str] = []
    prompt = sum(it.prompt_tokens for rows in outcome.replicas for it in rows)
    generated = sum(it.generated_tokens for rows in outcome.replicas for it in rows)
    want_prompt = sum(r.input_tokens for r in inputs)
    want_generated = sum(r.output_tokens for r in inputs)
    if prompt != want_prompt:
        errors.append(f"iterations processed {prompt} prompt tokens, inputs hold {want_prompt}")
    if generated != want_generated:
        errors.append(f"iterations generated {generated} tokens, inputs ask {want_generated}")
    unknown = set(outcome.requests) - {r.request_id for r in inputs}
    if unknown:
        errors.append(f"results hold {len(unknown)} requests that were never submitted")

    for index, (rows, tokens) in enumerate(zip(outcome.replicas, _iteration_tokens(outcome))):
        previous_end = None
        for k, (it, count) in enumerate(zip(rows, tokens)):
            if previous_end is not None and it.start < previous_end:
                errors.append(f"replica {index} iteration {k} starts at {it.start!r} "
                              f"before the previous one ends at {previous_end!r}")
            if abs((it.end - it.start) - it.latency) > _RELATIVE_TOLERANCE * max(1.0, it.end):
                errors.append(f"replica {index} iteration {k}: end - start "
                              f"{it.end - it.start!r} != latency {it.latency!r}")
            floor = latency_floor(model, npus, max(count, 1))
            if it.latency < floor:
                errors.append(f"replica {index} iteration {k}: latency {it.latency!r} s "
                              f"under the roofline floor {floor!r} s ({count} tokens)")
            previous_end = it.end
    return errors
