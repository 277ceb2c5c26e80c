"""Trace replay: external arrival-timestamp traces as a workload source.

The synthetic arrival processes (poisson / burst / poisson-burst / diurnal)
are parameterised models; real serving traffic is lumpier than any of them.
This module replays *recorded* traces — the standard methodology for LLM
serving evaluation — in two on-disk formats:

* ``"tsv"`` — the artifact's three-column TSV dataset format
  (``input_toks``, ``output_toks``, ``arrival_time_sec``), read through
  :func:`repro.workload.trace_io.read_trace`;
* ``"azure"`` — an Azure-LLM-inference-style CSV with a header naming
  ``TIMESTAMP`` (absolute wall-clock datetime or seconds),
  ``ContextTokens`` (prompt length) and ``GeneratedTokens`` (response
  length) columns, in any column order; extra columns are ignored.

:class:`TraceReplayArrivalGenerator` wraps a loaded trace in the same
``generate(num_requests)`` interface as the synthetic generators and layers
the replay transforms experiments need on top: time-window slicing (study
one burst of a day-long trace), seeded request subsampling (shrink a
million-row trace deterministically), rate rescaling (stress the same
arrival *shape* at a different intensity) and sequence-length clamping to
the served model's context window.  Transforms apply in that order —
window, sample, rate-scale, clamp — and the replayed timeline is re-zeroed
relative to the start of the trace (the window start when slicing), so the
first kept arrival lands at its offset *within* the replayed span.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from datetime import datetime, timezone
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from .generator import RequestTrace
from .request import Request
from .trace_io import read_trace

__all__ = ["AZURE_COLUMNS", "TRACE_FORMATS", "read_azure_trace", "load_trace",
           "validate_replay_transforms", "TraceReplayArrivalGenerator",
           "trace_from_config"]

#: Required header columns of the Azure-style CSV format (case-insensitive,
#: any column order, extra columns ignored).
AZURE_COLUMNS = ("TIMESTAMP", "ContextTokens", "GeneratedTokens")

#: On-disk trace formats the replay subsystem understands.
TRACE_FORMATS = ("tsv", "azure")


def validate_replay_transforms(rate_scale: float,
                               window: Optional[Tuple[float, float]],
                               sample: float,
                               max_seq_len: Optional[int] = None) -> None:
    """Bounds checks shared by :class:`TraceReplayArrivalGenerator` and
    :class:`~repro.core.config.TraceReplayConfig` (one copy, two call sites).
    """
    if rate_scale <= 0:
        raise ValueError("rate_scale must be positive")
    if not 0 < sample <= 1:
        raise ValueError("sample must be in (0, 1]")
    if window is not None:
        start, end = window
        if start < 0 or end <= start:
            raise ValueError("window must satisfy 0 <= start < end")
    if max_seq_len is not None and max_seq_len < 2:
        raise ValueError("max_seq_len must leave room for a prompt token "
                         "and a generated token")


def _parse_timestamp(text: str, path: Path, line: int) -> float:
    """One TIMESTAMP cell as epoch seconds (floats and ISO datetimes)."""
    text = text.strip()
    try:
        seconds = float(text)
    except ValueError:
        pass
    else:
        # NaN/inf (pandas exports render missing values as 'nan') would
        # sail through every monotonicity comparison — reject them here.
        if not math.isfinite(seconds):
            raise ValueError(f"trace file {path} line {line}: TIMESTAMP "
                             f"{text!r} is not a finite number of seconds")
        return seconds
    # ISO-8601-ish datetimes; the Azure traces carry 7 fractional digits,
    # which Python 3.10's fromisoformat rejects, so trim the fractional
    # seconds (the digit run right after the dot — a following UTC offset
    # must survive untouched) to microseconds.
    candidate = text.replace("T", " ")
    if candidate.endswith(("Z", "z")):  # 3.10's fromisoformat rejects Z
        candidate = candidate[:-1] + "+00:00"
    fraction = re.search(r"\.(\d+)", candidate)
    if fraction:
        candidate = (candidate[:fraction.start()] + "." +
                     fraction.group(1)[:6] + candidate[fraction.end():])
    try:
        parsed = datetime.fromisoformat(candidate)
    except ValueError:
        raise ValueError(f"trace file {path} line {line}: TIMESTAMP {text!r} "
                         f"is neither a number of seconds nor an ISO "
                         f"datetime") from None
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed.timestamp()


def _parse_tokens(text: str, column: str, path: Path, line: int) -> int:
    """One token-count cell, floored to 1, with file/line error context."""
    try:
        return max(1, int(float(text)))
    except ValueError:
        raise ValueError(f"trace file {path} line {line}: {column} {text!r} "
                         f"is not a number") from None


def read_azure_trace(path: Union[str, Path], dataset: str = "azure") -> RequestTrace:
    """Read an Azure-style ``TIMESTAMP,ContextTokens,GeneratedTokens`` CSV.

    Timestamps are normalised to seconds relative to the first row (absolute
    datetimes carry no meaning inside the simulation), must be monotonically
    non-decreasing (``ValueError`` naming the line otherwise), and zero-token
    rows are floored to one token — real traces contain empty responses, the
    request model does not admit them.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))  # blank rows kept: line numbers in
    #                                      errors must match the file

    def is_blank(row):
        return not row or all(not cell.strip() for cell in row)

    header_index = next((i for i, row in enumerate(rows) if not is_blank(row)), None)
    if header_index is None:
        raise ValueError(f"trace file {path} is empty")

    header = [cell.strip().lower() for cell in rows[header_index]]
    try:
        columns = [header.index(name.lower()) for name in AZURE_COLUMNS]
    except ValueError:
        raise ValueError(f"trace file {path} is missing one of the required "
                         f"Azure columns {AZURE_COLUMNS} (found header "
                         f"{rows[header_index]!r})") from None

    timestamp_col, context_col, generated_col = columns
    requests: List[Request] = []
    origin: Optional[float] = None
    previous: Optional[float] = None
    for i, row in enumerate(rows[header_index + 1:]):
        line = i + header_index + 2  # 1-based file line number
        if is_blank(row):
            continue
        if len(row) <= max(columns):
            raise ValueError(f"trace file {path} line {line} has fewer "
                             f"columns than the header: {row!r}")
        timestamp = _parse_timestamp(row[timestamp_col], path, line)
        if previous is not None and timestamp < previous:
            raise ValueError(
                f"trace file {path} line {line}: TIMESTAMP is earlier than "
                f"the previous row's — arrival times must be monotonically "
                f"non-decreasing")
        previous = timestamp
        if origin is None:
            origin = timestamp
        requests.append(Request(
            request_id=len(requests),
            input_tokens=_parse_tokens(row[context_col], "ContextTokens", path, line),
            output_tokens=_parse_tokens(row[generated_col], "GeneratedTokens",
                                        path, line),
            arrival_time=timestamp - origin,
        ))
    if not requests:
        raise ValueError(f"trace file {path} has a header but no data rows")
    return RequestTrace(requests=requests, dataset=dataset, arrival_process="replay")


def load_trace(path: Union[str, Path], trace_format: str = "tsv",
               dataset: Optional[str] = None) -> RequestTrace:
    """Load an on-disk trace in one of the supported :data:`TRACE_FORMATS`."""
    if trace_format not in TRACE_FORMATS:
        raise ValueError(f"unknown trace format {trace_format!r}; expected "
                         f"one of {TRACE_FORMATS}")
    dataset = dataset or Path(path).stem
    if trace_format == "azure":
        return read_azure_trace(path, dataset=dataset)
    return read_trace(path, dataset=dataset, arrival_process="replay")


class TraceReplayArrivalGenerator:
    """Replays a recorded trace through the synthetic-generator interface.

    Parameters
    ----------
    path:
        Trace file to replay.
    trace_format:
        ``"tsv"`` (artifact dataset format) or ``"azure"`` (CSV adapter).
    rate_scale:
        Arrival-rate multiplier: ``2.0`` replays the same arrival shape at
        twice the intensity (timestamps divided by the factor).
    window:
        Optional ``(start, end)`` slice, in seconds relative to the start of
        the trace; arrivals in ``[start, end)`` are kept and re-zeroed to
        the window start.
    sample:
        Fraction of requests to keep, ``(0, 1]``.  Subsampling draws a
        deterministic order-preserving subset from ``seed``.
    seed:
        Seed of the subsampling draw.
    max_seq_len:
        Optional model context window; prompt and response lengths are
        clamped so ``input_tokens + output_tokens`` fits within it.
    dataset:
        Label stamped on generated traces (file stem by default).
    """

    def __init__(self, path: Union[str, Path], trace_format: str = "tsv",
                 rate_scale: float = 1.0,
                 window: Optional[Tuple[float, float]] = None,
                 sample: float = 1.0, seed: int = 0,
                 max_seq_len: Optional[int] = None,
                 dataset: Optional[str] = None) -> None:
        validate_replay_transforms(rate_scale, window, sample, max_seq_len)
        self.last_clamp_count = 0  # rows cut short by the last generate()
        self.path = Path(path)
        self.trace_format = trace_format
        self.rate_scale = rate_scale
        self.window = window
        self.sample = sample
        self.seed = seed
        self.max_seq_len = max_seq_len
        source = load_trace(self.path, trace_format)
        self.dataset = dataset or source.dataset
        origin = source.requests[0].arrival_time if source.requests else 0.0
        self._source: List[Tuple[int, int, float]] = [
            (r.input_tokens, r.output_tokens, r.arrival_time - origin)
            for r in source.requests]

    def __len__(self) -> int:
        return len(self._source)

    @property
    def source_duration(self) -> float:
        """Span of the loaded trace before any transform, in seconds."""
        if not self._source:
            return 0.0
        return self._source[-1][2] - self._source[0][2]

    def _clamp(self, input_tokens: int, output_tokens: int) -> Tuple[int, int]:
        if self.max_seq_len is None:
            return input_tokens, output_tokens
        clamped_input = min(input_tokens, self.max_seq_len - 1)
        clamped_output = min(output_tokens, self.max_seq_len - clamped_input)
        if (clamped_input, clamped_output) != (input_tokens, output_tokens):
            self.last_clamp_count += 1
        return clamped_input, clamped_output

    def generate(self, num_requests: Optional[int] = None) -> RequestTrace:
        """Produce the replayed trace, optionally capped to ``num_requests``.

        Unlike the synthetic generators, replay is bounded by the recorded
        trace: a cap larger than the (windowed, subsampled) trace returns
        every available request rather than raising.

        Rows whose lengths had to be cut into the model's context window are
        counted in ``last_clamp_count`` and reported through a
        ``UserWarning`` — clamping deletes recorded prefill/decode work, so
        results over a heavily clamped trace are not comparable across
        models with different context windows.
        """
        if num_requests is not None and num_requests <= 0:
            raise ValueError("num_requests must be positive when given")
        self.last_clamp_count = 0
        rows: Sequence[Tuple[int, int, float]] = self._source
        offset = 0.0
        if self.window is not None:
            start, end = self.window
            rows = [row for row in rows if start <= row[2] < end]
            offset = start
        if self.sample < 1.0 and rows:
            import numpy as np

            rng = np.random.default_rng(self.seed)
            keep = max(1, int(len(rows) * self.sample))
            indices = np.sort(rng.choice(len(rows), size=keep, replace=False))
            rows = [rows[i] for i in indices]
        if num_requests is not None:
            rows = rows[:num_requests]

        requests: List[Request] = []
        for input_tokens, output_tokens, arrival in rows:
            input_tokens, output_tokens = self._clamp(input_tokens, output_tokens)
            requests.append(Request(
                request_id=len(requests),
                input_tokens=input_tokens,
                output_tokens=output_tokens,
                arrival_time=(arrival - offset) / self.rate_scale,
            ))

        if self.last_clamp_count:
            warnings.warn(
                f"trace {self.path}: {self.last_clamp_count}/{len(requests)} "
                f"replayed requests were clamped into the model's "
                f"{self.max_seq_len}-token context window — recorded "
                f"prefill/decode work was cut", UserWarning, stacklevel=2)
        duration = requests[-1].arrival_time if requests else 0.0
        rate = len(requests) / duration if duration > 0 else None
        return RequestTrace(requests=requests, dataset=self.dataset,
                            arrival_process="replay", rate_per_second=rate)


def trace_from_config(config, max_seq_len: Optional[int] = None) -> RequestTrace:
    """Build the replayed trace a :class:`~repro.core.config.TraceReplayConfig`
    describes (the path :class:`~repro.cluster.simulator.ClusterSimulator`
    takes when its cluster config carries a trace instead of the caller
    passing a workload).
    """
    generator = TraceReplayArrivalGenerator(
        config.path, trace_format=config.format, rate_scale=config.rate_scale,
        window=config.window, sample=config.sample, seed=config.seed,
        max_seq_len=max_seq_len)
    return generator.generate(config.max_requests)
