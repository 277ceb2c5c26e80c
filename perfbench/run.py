#!/usr/bin/env python3
"""Host-time benchmark of the serving simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/`` and
driven through its Python API in this one process (``serial`` backend,
``event-driven`` cluster engine).  Set-up is timed once, cold.  Then the
workload's requests are simulated in whole rounds, each on a freshly built
simulator, while another round still fits in ``--seconds`` of host time;
every round's output is checked.  The last line of stdout is one JSON object:
``correct``, ``attempted`` and ``failed`` requests, and the metrics -- the
end-to-end ones with ``--trace 0``, the per-layer ones with ``--trace 1``.
A human-readable summary goes to stderr.
"""

import time

_STARTED = time.perf_counter()
#: CPU time the interpreter spent starting up before this line ran.
_STARTUP_CPU = time.process_time()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
#: Stop starting rounds after this much wall time, whatever ``--seconds`` says.
WALL_LIMIT_S = 120.0
#: The end-to-end metrics of an untraced run, with their units.
END_TO_END_UNITS = {"setup_s": "s", "iterations_per_s": "1/s", "requests_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Rounds:
    """Runs whole rounds of one workload and checks each round's output.

    A round whose output digest matches an already checked round has the
    same output, so it reuses that round's verdict; a second distinct digest
    over the same inputs is itself a check failure.
    """

    def __init__(self, workload, inputs, checks, simulator) -> None:
        self.workload = workload
        self.inputs = inputs
        self.checks = checks
        self._next = simulator
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.verdicts = {}
        self.margin = float("inf")
        #: Peak resident memory in MiB when the first round's ``run()`` returned,
        #: before the benchmark copies or checks anything (ru_maxrss is in KiB).
        self.peak_rss_mb = None

    def run(self, tracer=None):
        """One round on a fresh simulator: (host seconds, outcome, program result)."""
        workload = self.workload
        simulator = self._next if self._next is not None else workload.build()
        self._next = None
        requests = workload.requests(self.inputs)
        gc.collect()
        if tracer is None:
            started = time.perf_counter()
            result = simulator.run(requests)
            seconds = time.perf_counter() - started
        else:
            with tracer.installed(simulator):
                started = time.perf_counter()
                result = simulator.run(requests)
                seconds = time.perf_counter() - started
        if self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outcome = workload.outcome(result)
        self.attempted += len(self.inputs)
        self.failed += self._verdict(outcome)
        return seconds, outcome, result

    def _verdict(self, outcome) -> int:
        """Failed requests of one round's output, checking each distinct output once."""
        digest = outcome.digest()
        if digest not in self.verdicts:
            checks, workload = self.checks, self.workload
            self.verdicts[digest] = len(checks.failed_requests(self.inputs, outcome))
            self.errors.extend(checks.run_errors(self.inputs, outcome, workload.model,
                                                 workload.npus))
            self.margin = min(self.margin,
                              checks.floor_margin(workload.model, workload.npus, outcome))
            if len(self.verdicts) > 1:
                self.errors.append("rounds over the same inputs produced different outputs")
        return self.verdicts[digest]

    @property
    def correct(self) -> bool:
        return not self.errors


def _more_rounds(times, seconds: float, wall_started: float) -> bool:
    """Whether another round of the median length still fits in ``seconds``."""
    if not times:
        return True
    return (sum(times) + statistics.median(times) <= seconds
            and time.perf_counter() - wall_started < WALL_LIMIT_S)


def measured_run(rounds: Rounds, seconds: float, setup_s: float):
    """Untraced rounds: the end-to-end metrics."""
    times, iterations, finished = [], [], []
    wall_started = time.perf_counter()
    while _more_rounds(times, seconds, wall_started):
        elapsed, outcome, _ = rounds.run()
        times.append(elapsed)
        iterations.append(outcome.iterations)
        finished.append(outcome.finished_requests)
    log(f"rounds: {len(times)}, host s each: {', '.join(f'{t:.3f}' for t in times)}")
    log(f"per round: {iterations[0]} iterations, {finished[0]} requests finished")
    values = {
        "setup_s": setup_s,
        "iterations_per_s": statistics.median(i / t for i, t in zip(iterations, times)),
        "requests_per_s": statistics.median(f / t for f, t in zip(finished, times)),
        "peak_rss_mb": rounds.peak_rss_mb,
    }
    return {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}


def traced_run(rounds: Rounds, seconds: float, spans_path: Path):
    """Alternating untraced and traced rounds: the per-layer metrics."""
    from perfbench.tracer import PER_LAYER_UNITS, Tracer, layer_metrics, program_timers

    untraced, traced, per_round = [], [], []
    tracer = None
    wall_started = time.perf_counter()
    while _more_rounds([u + t for u, t in zip(untraced, traced)], seconds, wall_started):
        untraced.append(rounds.run()[0])
        tracer = Tracer()
        elapsed, outcome, result = rounds.run(tracer)
        traced.append(elapsed)
        per_round.append(layer_metrics(tracer, outcome, elapsed))
        for span, program_s in program_timers(result).items():
            log(f"{span}: span total {tracer.stat(span)[2]:.4f} s, "
                f"program's own timer {program_s:.4f} s")
    tracer.write(spans_path)
    log(f"pairs of rounds: {len(traced)}; spans of the last traced round: {spans_path}")
    metrics = {name: (statistics.median_low(r[name] for r in per_round), PER_LAYER_UNITS[name])
               for name in per_round[0]}
    metrics["trace_overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced),
                                       "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"perfbench: the program's sources are missing under {SRC}")
        return 2
    if args.seconds <= 0:
        log("perfbench: --seconds must be positive")
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import checks
    from perfbench.workloads import WORKLOADS, describe

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        log(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
        return 2
    generating = time.perf_counter()
    inputs = workload.generate(args.seed)
    generation_s = time.perf_counter() - generating
    simulator = workload.build()
    setup_s = time.perf_counter() - _STARTED - generation_s + _STARTUP_CPU

    count, prompt, output, last = describe(inputs)
    log(f"{workload.name} seed {args.seed}: {count} requests, {prompt} prompt and "
        f"{output} output tokens, last arrival {last:.3f} s (simulated)")
    rounds = Rounds(workload, inputs, checks, simulator)
    if args.trace:
        spans_path = OUT_DIR / f"{workload.name}-seed{args.seed}-spans.tsv.gz"
        metrics = traced_run(rounds, args.seconds, spans_path)
    else:
        metrics = measured_run(rounds, args.seconds, setup_s)
    log(f"output digest {', '.join(rounds.verdicts)}; smallest roofline margin "
        f"{rounds.margin:.3f}x; {len(rounds.errors)} check errors")
    for error in rounds.errors[:10]:
        log(f"check failed: {error}")
    for name, (value, unit) in metrics.items():
        log(f"  {name:45s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": rounds.correct,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
