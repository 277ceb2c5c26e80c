"""Command-line interface mirroring the original artifact's entry point.

Example::

    llmservingsim --model-name gpt3-7b --npu-num 4 --dataset sharegpt \
        --num-requests 64 --rate 1.0 --output out/run1

produces the artifact's three outputs: a standard-output summary plus the
``*-throughput.tsv`` and ``*-simulation-time.tsv`` files.

The ``cluster`` subcommand serves the trace across a multi-replica cluster
behind a routing policy instead of a single system (``--backend
process-pool`` fans the replica simulations out across worker processes,
``--iteration-reuse`` enables iteration-level memoization)::

    llmservingsim cluster --replicas 4 --routing least-outstanding \
        --model-name gpt3-7b --npu-num 4 --num-requests 64 --arrival poisson-burst

Heterogeneous fleets are described with repeatable ``--replica-spec`` options
(each a comma-separated ``field=value`` list overriding the base serving
arguments, plus ``count=`` and ``name=``), and ``--autoscale min:max`` bounds
an autoscaler over the fleet::

    llmservingsim cluster --routing slo-ttft \
        --replica-spec count=2,npu_num=1,name=small \
        --replica-spec count=2,npu_num=4,name=large \
        --autoscale 2:4 --arrival diurnal --num-requests 64 --rate 8

Both the flat interface and the ``cluster`` subcommand replay recorded
arrival traces instead of synthesizing them: ``--trace`` names the file,
``--trace-format`` its on-disk format (the artifact's TSV or an Azure-style
``TIMESTAMP,ContextTokens,GeneratedTokens`` CSV), and the replay transforms
ride along (``--trace-rate-scale``, ``--trace-window start:end``,
``--trace-sample``)::

    llmservingsim cluster --trace examples/traces/sample_azure.csv \
        --trace-format azure --backend process-pool

The ``bench`` subcommand runs the tracked performance matrix (serial vs
process-pool backends, iteration-reuse on/off) and writes the
``BENCH_cluster.json`` report CI archives per commit::

    llmservingsim bench --quick --output BENCH_cluster.json

The ``lint`` subcommand runs the determinism & concurrency static analysis
(rule codes REP001-REP006, see docs/correctness.md) over the given paths::

    llmservingsim lint src --format json
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from .cluster import ClusterSimulator, available_backends, available_routers
from .core.config import (AutoscaleConfig, ClusterConfig, ReplicaSpec,
                          ServingSimConfig, TraceReplayConfig)
from .core.simulator import LLMServingSim
from .graph.parallelism import ParallelismStrategy
from .models.architectures import get_model
from .workload.generator import available_arrivals, generate_trace
from .workload.replay import TRACE_FORMATS, TraceReplayArrivalGenerator

__all__ = ["build_parser", "build_cluster_parser", "build_bench_parser", "main",
           "cluster_main", "bench_main", "parse_replica_spec",
           "parse_autoscale_bounds", "parse_trace_window"]

#: Synthetic processes selectable with --arrival; "replay" is selected by
#: naming a trace file with --trace instead.
ARRIVAL_CHOICES = [name for name in available_arrivals() if name != "replay"]


def _add_serving_args(parser: argparse.ArgumentParser, arrival_default: str = "poisson") -> None:
    """Arguments shared by the single-system interface and the cluster subcommand."""
    parser.add_argument("--model-name", default="gpt3-7b", help="model to serve")
    parser.add_argument("--npu-num", type=int, default=16, help="number of NPUs (per system)")
    parser.add_argument("--npu-group", type=int, default=1, help="NPU groups for hybrid parallelism")
    parser.add_argument("--npu-mem", type=float, default=24.0, help="NPU local memory in GB")
    parser.add_argument("--max-batch", type=int, default=0, help="maximum batch size (0 = unlimited)")
    parser.add_argument("--batch-delay", type=float, default=0.0, help="batching delay in seconds")
    parser.add_argument("--scheduling", choices=["orca", "static"], default="orca")
    parser.add_argument("--parallel", choices=["tensor", "pipeline", "hybrid"], default="hybrid")
    parser.add_argument("--kv-manage", choices=["vllm", "max"], default="vllm")
    parser.add_argument("--dataset", default="sharegpt", help="dataset profile or 'file'")
    parser.add_argument("--trace", "--trace-file", dest="trace", default=None,
                        metavar="PATH",
                        help="recorded arrival trace to replay instead of a "
                             "synthetic process (disables --arrival, --rate "
                             "and --num-requests; --trace-window and "
                             "--trace-sample subset the trace)")
    parser.add_argument("--trace-format", choices=list(TRACE_FORMATS), default="tsv",
                        help="on-disk format of --trace: the artifact's "
                             "3-column TSV or an Azure-style "
                             "TIMESTAMP,ContextTokens,GeneratedTokens CSV")
    parser.add_argument("--trace-rate-scale", type=_positive_float, default=1.0,
                        metavar="FACTOR",
                        help="replay the trace FACTOR times faster (arrival "
                             "timestamps divided by FACTOR)")
    parser.add_argument("--trace-window", type=parse_trace_window, default=None,
                        metavar="START:END",
                        help="replay only arrivals in [START, END) seconds "
                             "relative to the start of the trace")
    parser.add_argument("--trace-sample", type=_sample_fraction, default=1.0,
                        metavar="FRACTION",
                        help="replay a seeded random FRACTION of the trace's "
                             "requests (0 < FRACTION <= 1)")
    parser.add_argument("--num-requests", type=int, default=64)
    parser.add_argument("--rate", type=float, default=1.0, help="mean arrival rate (req/s)")
    parser.add_argument("--arrival", choices=ARRIVAL_CHOICES, default=arrival_default)
    parser.add_argument("--burst-size", type=float, default=4.0,
                        help="mean burst size for poisson-burst arrivals")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-iterations", type=int, default=None,
                        help="iteration cap (per system)")


def _serving_config(args: argparse.Namespace, **fields) -> ServingSimConfig:
    """The configuration of the flags ``_add_serving_args`` shares plus ``fields``."""
    return ServingSimConfig(
        model_name=args.model_name,
        npu_num=args.npu_num,
        npu_group=args.npu_group,
        npu_mem_gb=args.npu_mem,
        max_batch=args.max_batch,
        batch_delay=args.batch_delay,
        scheduling=args.scheduling,
        parallel=ParallelismStrategy(args.parallel),
        kv_manage=args.kv_manage,
        seed=args.seed,
        **fields,
    )


def build_parser() -> argparse.ArgumentParser:
    """Create the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="llmservingsim",
        description="LLM inference serving HW/SW co-simulation (LLMServingSim reproduction)",
        epilog="Run 'llmservingsim cluster --help' for the multi-replica "
               "cluster serving subcommand.")
    _add_serving_args(parser, arrival_default="poisson")
    parser.add_argument("--pim-type", choices=["none", "local", "pool"], default="none")
    parser.add_argument("--sub-batch", action="store_true", help="enable sub-batch interleaving")
    parser.add_argument("--no-reuse", action="store_true",
                        help="disable computation-reuse optimizations")
    parser.add_argument("--output", default=None, help="output path prefix for TSV files")
    parser.add_argument("--bin-seconds", type=float, default=30.0,
                        help="throughput reporting interval")
    return parser


def parse_replica_spec(text: str, base: ServingSimConfig) -> ReplicaSpec:
    """Parse one ``--replica-spec`` value into a :class:`ReplicaSpec`.

    ``text`` is a comma-separated ``field=value`` list.  ``count=`` and
    ``name=`` shape the spec itself; every other key must be a scalar
    :class:`ServingSimConfig` field (e.g. ``npu_num``, ``model_name``,
    ``pim_type``) and overrides the base configuration built from the flat
    serving arguments.  Dashes in keys are accepted (``npu-num=4``).
    """
    count, name = 1, ""
    overrides = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep:
            raise argparse.ArgumentTypeError(
                f"replica-spec entry {part!r} is not of the form field=value")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key == "count":
            count = _convert_spec_value("count", value, int)
        elif key == "name":
            name = value
        else:
            overrides[key] = value

    kwargs = {f.name: getattr(base, f.name) for f in dataclasses.fields(ServingSimConfig)}
    for key, raw in overrides.items():
        if key not in kwargs:
            raise argparse.ArgumentTypeError(
                f"unknown ServingSimConfig field {key!r} in --replica-spec")
        default = kwargs[key]
        if isinstance(default, bool):
            kwargs[key] = raw.lower() in ("1", "true", "yes", "on")
        elif isinstance(default, int):
            kwargs[key] = _convert_spec_value(key, raw, int)
        elif isinstance(default, float):
            kwargs[key] = _convert_spec_value(key, raw, float)
        elif isinstance(default, str) or key in ("parallel", "graph_granularity"):
            kwargs[key] = raw  # enums convert themselves in __post_init__
        elif default is None:  # kv_capacity_bytes
            kwargs[key] = _convert_spec_value(key, raw, int)
        else:
            raise argparse.ArgumentTypeError(
                f"field {key!r} is not settable from --replica-spec")
    try:
        return ReplicaSpec(config=ServingSimConfig(**kwargs), count=count, name=name)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid --replica-spec: {exc}") from None


def _convert_spec_value(key: str, raw: str, converter):
    try:
        return converter(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"replica-spec field {key!r}: {raw!r} is not a valid "
            f"{converter.__name__}") from None


def _positive_float(text: str) -> float:
    """argparse type: a strictly positive float (e.g. --trace-rate-scale)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} must be positive")
    return value


def _sample_fraction(text: str) -> float:
    """argparse type: a fraction in (0, 1] (the --trace-sample domain)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"{text!r} must be in (0, 1]")
    return value


def parse_trace_window(text: str) -> Tuple[float, float]:
    """Parse ``--trace-window start:end`` into a ``(start, end)`` tuple."""
    start, sep, end = text.partition(":")
    try:
        if not sep:
            raise ValueError
        window = float(start), float(end)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"trace window {text!r} is not of the form start:end") from None
    if window[0] < 0 or window[1] <= window[0]:
        raise argparse.ArgumentTypeError(
            f"trace window {text!r} must satisfy 0 <= start < end")
    return window


def parse_autoscale_bounds(text: str) -> Tuple[int, int]:
    """Parse ``--autoscale min:max`` into an ``(min, max)`` tuple."""
    lower, sep, upper = text.partition(":")
    try:
        if not sep:
            raise ValueError
        return int(lower), int(upper)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"autoscale bounds {text!r} are not of the form min:max") from None


def build_cluster_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``cluster`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="llmservingsim cluster",
        description="Serve a request trace across a multi-replica cluster")
    parser.add_argument("--replicas", type=int, default=2,
                        help="number of serving replicas (ignored when "
                             "--replica-spec is given)")
    parser.add_argument("--routing", choices=available_routers(), default="round-robin",
                        help="request routing policy")
    parser.add_argument("--backend", choices=available_backends(), default="serial",
                        help="execution backend: 'serial' steps replicas "
                             "in-process, 'process-pool' fans them out "
                             "across worker processes (bit-identical results)")
    parser.add_argument("--iteration-reuse", action="store_true",
                        help="enable iteration-level memoization (replay "
                             "latencies of previously simulated iteration "
                             "signatures; shared per replica class within "
                             "one process)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persist per-class iteration-reuse caches under "
                             "DIR and warm-start from them, so parameter "
                             "sweeps pay for each unique iteration once "
                             "(only meaningful with --iteration-reuse)")
    parser.add_argument("--replica-spec", action="append", default=[],
                        metavar="FIELD=VALUE[,...]",
                        help="add a replica class: comma-separated ServingSimConfig "
                             "overrides plus count= and name= (repeatable; e.g. "
                             "count=2,npu_num=4,name=large)")
    parser.add_argument("--autoscale", type=parse_autoscale_bounds, default=None,
                        metavar="MIN:MAX",
                        help="autoscale the fleet between MIN and MAX active replicas")
    parser.add_argument("--autoscale-window", type=float, default=30.0,
                        help="sliding arrival-rate window in seconds")
    parser.add_argument("--autoscale-target-rate", type=float, default=4.0,
                        help="arrival rate (req/s) one replica is provisioned for")
    parser.add_argument("--autoscale-warmup", type=float, default=5.0,
                        help="warm-up delay before an activated replica takes routes")
    parser.add_argument("--autoscale-cooldown", type=float, default=10.0,
                        help="minimum seconds between scaling decisions")
    parser.add_argument("--ttft-slo", type=float, default=None,
                        help="TTFT SLO target in seconds (reports per-class attainment)")
    parser.add_argument("--e2e-slo", type=float, default=None,
                        help="end-to-end latency SLO target in seconds")
    parser.add_argument("--check-invariants", action="store_true",
                        help="audit every replica after each iteration "
                             "(event-time monotonicity, KV-token "
                             "conservation, cache-lookup accounting); a "
                             "violation aborts the run naming the replica")
    _add_serving_args(parser, arrival_default="poisson-burst")
    return parser


def cluster_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``cluster`` subcommand; returns a process exit code."""
    parser = build_cluster_parser()
    args = parser.parse_args(argv)

    base_config = _serving_config(args, enable_iteration_reuse=args.iteration_reuse)
    try:
        specs = [parse_replica_spec(text, base_config) for text in args.replica_spec]
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))  # clean usage error instead of a traceback

    autoscale = None
    if args.autoscale is not None:
        lower, upper = args.autoscale
        autoscale = AutoscaleConfig(
            min_replicas=lower,
            max_replicas=upper,
            window_seconds=args.autoscale_window,
            target_rate_per_replica=args.autoscale_target_rate,
            warmup_seconds=args.autoscale_warmup,
            cooldown_seconds=args.autoscale_cooldown,
        )

    trace_replay = None
    if args.trace:
        if not Path(args.trace).is_file():
            parser.error(f"trace file {args.trace} does not exist")
        trace_replay = TraceReplayConfig(
            path=args.trace, format=args.trace_format,
            rate_scale=args.trace_rate_scale, window=args.trace_window,
            sample=args.trace_sample, seed=args.seed)

    config = ClusterConfig(num_replicas=args.replicas, routing=args.routing,
                           execution_backend=args.backend,
                           cache_dir=args.cache_dir,
                           replica=base_config, replicas=specs or None,
                           autoscale=autoscale, trace_replay=trace_replay,
                           ttft_slo=args.ttft_slo, e2e_slo=args.e2e_slo,
                           check_invariants=args.check_invariants)

    if trace_replay is not None:
        trace = None  # the simulator replays config.trace_replay itself
    else:
        trace = generate_trace(args.dataset, args.num_requests, arrival=args.arrival,
                               rate_per_second=args.rate, seed=args.seed,
                               burst_size_mean=args.burst_size)

    result = ClusterSimulator(config).run(
        trace, max_iterations_per_replica=args.max_iterations)

    fleet = ", ".join(f"{spec.count}x {spec.name}" for spec in config.replica_specs())
    print(f"model                 : {base_config.model_name}")
    print(f"cluster               : {config.num_replicas} replica(s) [{fleet}], "
          f"{result.routing} routing")
    print(f"backend               : {config.execution_backend}")
    hits = sum(r.iteration_cache_hits for r in result.replica_results)
    misses = sum(r.iteration_cache_misses for r in result.replica_results)
    if hits + misses:
        print(f"iteration cache       : {hits}/{hits + misses} lookups hit "
              f"({hits / (hits + misses):.1%})")
    for row in result.summary_rows():
        print(f"{row[0]:<22}: {row[1]}")
    if result.scaling_timeline:
        print("scaling timeline      :")
        for event in result.scaling_timeline:
            print(f"  t={event.time:8.2f}s {event.action:<10} replica "
                  f"{event.replica_id} [{event.replica_class}] -> "
                  f"{event.provisioned_after} provisioned")
    return 0


def build_bench_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``bench`` subcommand."""
    from .bench import BENCH_SCENARIOS, SPEEDUP_SCENARIO
    parser = argparse.ArgumentParser(
        prog="llmservingsim bench",
        description="Run the tracked cluster-simulation performance matrix "
                    "and emit a BENCH_cluster.json report")
    parser.add_argument("--quick", action="store_true",
                        help="shrink every scenario for CI smoke runs")
    parser.add_argument("--output", default="BENCH_cluster.json",
                        help="path of the JSON report (default: %(default)s)")
    parser.add_argument("--scenario", action="append", default=[],
                        choices=[s.name for s in BENCH_SCENARIOS],
                        help="run only the named scenario (repeatable; "
                             "default: the whole matrix)")
    parser.add_argument("--fail-below-speedup", type=float, default=None,
                        metavar="RATIO",
                        help="exit non-zero unless the process-pool backend "
                             f"reaches RATIO x serial wall-clock on the "
                             f"{SPEEDUP_SCENARIO!r} scenario (skipped on "
                             "hosts with too few cores)")
    return parser


def bench_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``bench`` subcommand; returns a process exit code."""
    from .bench import SPEEDUP_SCENARIO, check_speedup, run_bench, write_report
    parser = build_bench_parser()
    args = parser.parse_args(argv)
    if (args.fail_below_speedup is not None and args.scenario
            and SPEEDUP_SCENARIO not in args.scenario):
        parser.error(f"--fail-below-speedup gates the {SPEEDUP_SCENARIO!r} "
                     f"scenario, which --scenario excluded from this run")

    report = run_bench(quick=args.quick, only=args.scenario or None)
    print(f"host                  : {report['host']['cpu_count']} core(s), "
          f"python {report['host']['python']}")
    for entry in report["scenarios"]:
        print(f"scenario              : {entry['name']} "
              f"({entry['num_requests']} requests)")
        if "backends" in entry:
            for backend, stats in entry["backends"].items():
                print(f"  {backend:<20}: {stats['wall_seconds']:.2f} s wall, "
                      f"{stats['iterations']} iterations")
            print(f"  speedup             : {entry['speedup']:.2f}x "
                  f"(bit-identical: {entry['bit_identical']})")
        if "reuse" in entry:
            for arm, stats in entry["reuse"].items():
                print(f"  {arm:<20}: {stats['wall_seconds']:.2f} s wall, "
                      f"{stats['modeled_simulation_seconds']:.1f} s modeled")
            print(f"  hit rate            : {entry['hit_rate']:.1%} serial, "
                  f"{entry['hit_rate_process_pool']:.1%} process-pool "
                  f"(modeled speedup {entry['modeled_speedup']:.2f}x, "
                  f"bit-identical: {entry['bit_identical']})")

    path = write_report(report, args.output)
    print(f"wrote {path}")

    broken = [e["name"] for e in report["scenarios"] if not e.get("bit_identical", True)]
    if broken:
        print(f"ERROR: non-deterministic scenario(s): {', '.join(broken)}")
        return 1
    if args.fail_below_speedup is not None:
        ok, message = check_speedup(report, args.fail_below_speedup)
        print(("OK: " if ok else "ERROR: ") + message)
        if not ok:
            return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    ``main(["cluster", ...])`` dispatches to the cluster subcommand,
    ``main(["bench", ...])`` to the performance harness, and
    ``main(["lint", ...])`` to the determinism static analysis; any other
    invocation keeps the artifact's original flat single-system interface.
    """
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "cluster":
        return cluster_main(argv[1:])
    if argv and argv[0] == "bench":
        return bench_main(argv[1:])
    if argv and argv[0] == "lint":
        from .analysis.lint import lint_main
        return lint_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)

    config = _serving_config(args, pim_type=args.pim_type, sub_batch=args.sub_batch,
                             enable_block_reuse=not args.no_reuse,
                             enable_computation_reuse=not args.no_reuse)

    if args.trace:
        if not Path(args.trace).is_file():
            parser.error(f"trace file {args.trace} does not exist")
        trace = TraceReplayArrivalGenerator(
            args.trace, trace_format=args.trace_format,
            rate_scale=args.trace_rate_scale, window=args.trace_window,
            sample=args.trace_sample, seed=args.seed,
            max_seq_len=get_model(args.model_name).max_seq_len).generate()
    else:
        trace = generate_trace(args.dataset, args.num_requests, arrival=args.arrival,
                               rate_per_second=args.rate, seed=args.seed,
                               burst_size_mean=args.burst_size)

    simulator = LLMServingSim(config)
    result = simulator.run(trace, max_iterations=args.max_iterations)

    print(f"model                 : {config.model_name}")
    print(f"npus                  : {config.npu_num} ({config.parallel.value} parallelism, "
          f"{config.effective_groups} group(s))")
    print(f"requests              : {len(result.finished_requests)}/{len(result.requests)} "
          f"finished, {len(result.rejected_requests)} rejected")
    print(f"iterations            : {len(result.iterations)}")
    print(f"simulated makespan    : {result.makespan:.2f} s")
    print(f"prompt throughput     : {result.prompt_throughput:.1f} tokens/s")
    print(f"generation throughput : {result.generation_throughput:.1f} tokens/s")
    print(f"mean TTFT             : {result.mean_time_to_first_token():.3f} s")
    print(f"mean E2E latency      : {result.mean_end_to_end_latency():.3f} s")
    print(f"modeled sim time      : {result.modeled_simulation_time.total:.1f} s "
          f"({result.modeled_simulation_time.as_dict()})")

    if args.output:
        prefix = Path(args.output)
        throughput_path = result.write_throughput_tsv(
            prefix.with_name(prefix.name + "-throughput.tsv"), bin_seconds=args.bin_seconds)
        simtime_path = result.write_simulation_time_tsv(
            prefix.with_name(prefix.name + "-simulation-time.tsv"))
        print(f"wrote {throughput_path}")
        print(f"wrote {simtime_path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
