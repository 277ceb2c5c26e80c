"""Tracked performance harness for the cluster co-simulation.

The paper's headline claim is *fast* simulation; this module keeps that
claim measurable as the codebase grows.  It runs a fixed matrix of cluster
scenarios — homogeneous, heterogeneous, autoscaled, and a steady-state
decode reuse study — under each execution backend, times the wall clock of
the *simulator itself*, verifies that every configuration produces
bit-identical simulated results, and emits a machine-readable
``BENCH_cluster.json`` report that CI archives per commit (the perf
trajectory).

Two speedup levers are tracked:

* **parallel replica execution** — the ``process-pool`` backend against the
  ``serial`` reference on multi-replica scenarios (near-linear on hosts
  with enough cores; CI fails the build when the parallel backend regresses
  below a tolerance of serial);
* **iteration-level memoization** — ``enable_iteration_reuse`` on a
  steady-state decode workload, reporting the iteration-cache hit rate and
  the modeled simulation-time reduction, under the serial *and* the
  process-pool backend (the shared singleflight cache must keep the
  process-pool hit rate at the serial backend's level).

Scenario sizes are deliberately small (gpt2-class replicas, tens of
requests) so the full matrix runs in minutes on a laptop; ``quick=True``
shrinks it further for CI smoke runs.  Absolute times are host-dependent —
the report records the host so trajectories compare like against like;
the speedup *ratios* are the tracked quantities.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .cluster.results import ClusterResult
from .cluster.simulator import ClusterSimulator
from .core.config import AutoscaleConfig, ClusterConfig, ReplicaSpec, ServingSimConfig
from .workload.generator import generate_trace
from .workload.replay import TraceReplayArrivalGenerator
from .workload.request import Request

#: The committed sample trace replayed by the ``trace-replay-4`` scenario.
SAMPLE_TRACE = (Path(__file__).resolve().parents[2]
                / "examples" / "traces" / "sample_azure.csv")

__all__ = ["BenchScenario", "BENCH_SCENARIOS", "cluster_result_fingerprint",
           "run_scenario", "run_bench", "write_report", "check_speedup",
           "SPEEDUP_SCENARIO", "MIN_CORES_FOR_SPEEDUP_CHECK", "SAMPLE_TRACE"]

#: The scenario whose serial/process-pool ratio gates CI.
SPEEDUP_SCENARIO = "homogeneous-4"

#: Below this core count a 4-replica fan-out cannot be expected to win, so
#: the CI speedup gate is skipped (with a note in the report).
MIN_CORES_FOR_SPEEDUP_CHECK = 4

_BACKENDS = ("serial", "process-pool")


def _gpt2_replica(**overrides) -> ServingSimConfig:
    defaults = dict(model_name="gpt2", npu_num=1, npu_mem_gb=4.0)
    defaults.update(overrides)
    return ServingSimConfig(**defaults)


def _steady_decode_requests(num_requests: int, input_tokens: int = 24,
                            output_tokens: int = 28, gap_seconds: float = 2.0) -> List[Request]:
    """A steady stream of identical requests: the memoization best case.

    Every request walks the same context-length trajectory, so after the
    first request (per replica class) every decode iteration is an
    iteration-cache hit — the "common case in steady-state decode" the
    reuse hierarchy targets.
    """
    return [Request(i, input_tokens, output_tokens, arrival_time=gap_seconds * i)
            for i in range(num_requests)]


@dataclass(frozen=True)
class BenchScenario:
    """One tracked entry of the performance matrix.

    ``make_config``/``make_workload`` take the effective request count, so
    quick mode only changes scale, never shape.  ``compare_backends``
    scenarios run once per execution backend and must be bit-identical;
    ``reuse_study`` scenarios run iteration reuse off/on serially plus a
    reuse-on process-pool arm, and must likewise be bit-identical.
    """

    name: str
    description: str
    num_requests: int
    quick_num_requests: int
    make_config: Callable[[int], ClusterConfig]
    make_workload: Callable[[int], Sequence[Request]]
    compare_backends: bool = True
    reuse_study: bool = False

    def requests_for(self, quick: bool) -> int:
        return self.quick_num_requests if quick else self.num_requests


def _homogeneous_config(n: int) -> ClusterConfig:
    return ClusterConfig(num_replicas=4, routing="round-robin",
                         replica=_gpt2_replica())


def _homogeneous_workload(n: int):
    return generate_trace("alpaca", n, arrival="poisson-burst",
                          rate_per_second=8.0, seed=7)


def _heterogeneous_config(n: int) -> ClusterConfig:
    return ClusterConfig(
        routing="weighted-capacity",
        replicas=[ReplicaSpec(_gpt2_replica(), count=2, name="small"),
                  ReplicaSpec(_gpt2_replica(npu_num=4), count=2, name="large")])


def _heterogeneous_workload(n: int):
    return generate_trace("alpaca", n, arrival="poisson-burst",
                          rate_per_second=8.0, burst_size_mean=4.0, seed=11)


def _autoscaled_config(n: int) -> ClusterConfig:
    return ClusterConfig(
        num_replicas=4, routing="slo-ttft", replica=_gpt2_replica(),
        autoscale=AutoscaleConfig(min_replicas=1, max_replicas=4,
                                  window_seconds=4.0, target_rate_per_replica=1.5,
                                  warmup_seconds=0.5, cooldown_seconds=1.0))


def _autoscaled_workload(n: int):
    return generate_trace("alpaca", n, arrival="diurnal", rate_per_second=4.0,
                          amplitude=0.8, period_seconds=30.0, seed=5)


def _decode_config(n: int) -> ClusterConfig:
    return ClusterConfig(num_replicas=2, routing="round-robin",
                         replica=_gpt2_replica(enable_iteration_reuse=True))


def _trace_replay_config(n: int) -> ClusterConfig:
    return ClusterConfig(
        num_replicas=4, routing="least-outstanding", replica=_gpt2_replica(),
        autoscale=AutoscaleConfig(min_replicas=1, max_replicas=4,
                                  window_seconds=4.0, target_rate_per_replica=2.0,
                                  warmup_seconds=0.5, cooldown_seconds=1.0))


def _trace_replay_workload(n: int):
    # Replayed bursts hit the autoscaler with step changes the smooth
    # diurnal ramp never produces — the scale-up path under real traffic.
    if not SAMPLE_TRACE.is_file():
        raise FileNotFoundError(
            f"the trace-replay-4 scenario replays the committed sample trace "
            f"at {SAMPLE_TRACE}, which only exists in a repository checkout; "
            f"run the bench from the repo root (or regenerate the sample with "
            f"examples/traces/regenerate.py)")
    return TraceReplayArrivalGenerator(SAMPLE_TRACE, trace_format="azure",
                                       rate_scale=2.0).generate(n)


BENCH_SCENARIOS: Tuple[BenchScenario, ...] = (
    BenchScenario(
        name="homogeneous-4",
        description="4 identical gpt2 replicas, round-robin, poisson-burst "
                    "arrivals (the CI speedup-gate scenario)",
        num_requests=48, quick_num_requests=16,
        make_config=_homogeneous_config, make_workload=_homogeneous_workload),
    BenchScenario(
        name="heterogeneous-4",
        description="2 small + 2 large replicas, weighted-capacity routing",
        num_requests=40, quick_num_requests=12,
        make_config=_heterogeneous_config, make_workload=_heterogeneous_workload),
    BenchScenario(
        name="autoscaled-4",
        description="4 replicas behind slo-ttft routing with a diurnal "
                    "autoscaler (1:4 bounds)",
        num_requests=40, quick_num_requests=12,
        make_config=_autoscaled_config, make_workload=_autoscaled_workload),
    BenchScenario(
        name="trace-replay-4",
        description="4 gpt2 replicas autoscaled 1:4, replaying the committed "
                    "Azure-format sample trace at 2x rate",
        num_requests=48, quick_num_requests=16,
        make_config=_trace_replay_config, make_workload=_trace_replay_workload),
    BenchScenario(
        name="steady-decode-reuse",
        description="2 replicas serving identical steady-state decode "
                    "requests; iteration-level memoization off vs on, plus "
                    "a reuse-on process-pool arm (shared-cache hit parity)",
        num_requests=12, quick_num_requests=8,
        make_config=_decode_config,
        make_workload=_steady_decode_requests,
        compare_backends=False, reuse_study=True),
)


# -- result fingerprinting ------------------------------------------------------


def cluster_result_fingerprint(result: ClusterResult) -> str:
    """Deterministic digest of everything a cluster simulation *simulated*.

    Covers the routing assignment, every per-replica iteration record,
    every request's latency milestones and the scaling timeline — exact
    float reprs, no rounding — so two runs agree on the fingerprint iff
    they are bit-identical in simulated behaviour.  Simulator-side
    accounting (wall clock, modeled time, cache counters) is deliberately
    excluded: it describes how fast the simulator ran, not what it
    simulated.
    """
    parts: List[str] = [result.routing, repr(sorted(result.assignments.items()))]
    for replica_result in result.replica_results:
        parts.append(repr([(r.index, r.start_time, r.end_time, r.latency,
                            r.num_requests, r.prompt_tokens, r.generated_tokens,
                            r.evictions, r.reloads)
                           for r in replica_result.iterations]))
        parts.append(repr(sorted(
            (q.request_id, q.arrival_time, q.first_token_time, q.finish_time,
             q.generated_tokens, q.state.value)
            for q in replica_result.requests)))
    parts.append(repr([(e.time, e.action, e.replica_id, e.replica_class,
                        e.provisioned_after) for e in result.scaling_timeline]))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


# -- scenario execution ---------------------------------------------------------


def _timed_run(config: ClusterConfig, workload) -> Tuple[ClusterResult, float]:
    simulator = ClusterSimulator(config)
    started = time.perf_counter()
    result = simulator.run(workload)
    return result, time.perf_counter() - started


def _with_backend(config: ClusterConfig, backend: str) -> ClusterConfig:
    return dataclasses.replace(config, execution_backend=backend)


def _with_iteration_reuse(config: ClusterConfig, enabled: bool) -> ClusterConfig:
    specs = [dataclasses.replace(
        spec, config=dataclasses.replace(spec.config, enable_iteration_reuse=enabled))
        for spec in config.replica_specs()]
    return dataclasses.replace(config, replicas=specs)


def run_scenario(scenario: BenchScenario, quick: bool = False) -> Dict:
    """Run one scenario arm-by-arm and return its report entry."""
    n = scenario.requests_for(quick)
    entry: Dict = {
        "name": scenario.name,
        "description": scenario.description,
        "num_requests": n,
    }

    if scenario.compare_backends:
        backends: Dict[str, Dict] = {}
        fingerprints = []
        for backend in _BACKENDS:
            config = _with_backend(scenario.make_config(n), backend)
            result, wall = _timed_run(config, scenario.make_workload(n))
            fingerprint = cluster_result_fingerprint(result)
            fingerprints.append(fingerprint)
            backends[backend] = {
                "wall_seconds": wall,
                "fingerprint": fingerprint,
                "finished_requests": len(result.finished_requests),
                "iterations": sum(len(r.iterations) for r in result.replica_results),
            }
        entry["backends"] = backends
        entry["bit_identical"] = len(set(fingerprints)) == 1
        entry["speedup"] = (backends["serial"]["wall_seconds"]
                            / backends["process-pool"]["wall_seconds"])

    if scenario.reuse_study:
        arms: Dict[str, Dict] = {}
        fingerprints = []
        # The process-pool arm tracks shared-cache hit parity: the
        # singleflight cache service must keep cross-replica reuse working
        # across worker processes, not just in the serial backend.
        for arm, enabled, backend in (("reuse-off", False, "serial"),
                                      ("reuse-on", True, "serial"),
                                      ("reuse-on-process-pool", True, "process-pool")):
            config = _with_backend(
                _with_iteration_reuse(scenario.make_config(n), enabled), backend)
            result, wall = _timed_run(config, scenario.make_workload(n))
            hits = sum(r.iteration_cache_hits for r in result.replica_results)
            misses = sum(r.iteration_cache_misses for r in result.replica_results)
            modeled = sum(r.modeled_simulation_time.total for r in result.replica_results)
            fingerprint = cluster_result_fingerprint(result)
            fingerprints.append(fingerprint)
            arms[arm] = {
                "wall_seconds": wall,
                "fingerprint": fingerprint,
                "iteration_cache_hits": hits,
                "iteration_cache_misses": misses,
                "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
                "modeled_simulation_seconds": modeled,
            }
        entry["reuse"] = arms
        entry["bit_identical"] = len(set(fingerprints)) == 1
        entry["hit_rate"] = arms["reuse-on"]["hit_rate"]
        entry["hit_rate_process_pool"] = arms["reuse-on-process-pool"]["hit_rate"]
        entry["wall_speedup"] = (arms["reuse-off"]["wall_seconds"]
                                 / arms["reuse-on"]["wall_seconds"])
        entry["modeled_speedup"] = (
            arms["reuse-off"]["modeled_simulation_seconds"]
            / arms["reuse-on"]["modeled_simulation_seconds"])

    return entry


def run_bench(quick: bool = False,
              only: Optional[Sequence[str]] = None) -> Dict:
    """Run the scenario matrix and return the full report dictionary."""
    names = {s.name for s in BENCH_SCENARIOS}
    if only:
        unknown = set(only) - names
        if unknown:
            raise ValueError(f"unknown bench scenario(s) {sorted(unknown)}; "
                             f"expected a subset of {sorted(names)}")
    scenarios = [s for s in BENCH_SCENARIOS if not only or s.name in only]
    report: Dict = {
        "schema": "bench-cluster/v1",
        "quick": quick,
        "host": {
            "cpu_count": os.cpu_count() or 1,
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "scenarios": [run_scenario(scenario, quick) for scenario in scenarios],
    }
    return report


def write_report(report: Dict, path: Union[str, Path]) -> Path:
    """Write the report as pretty-printed JSON (the CI artifact)."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def check_speedup(report: Dict, threshold: float,
                  scenario_name: str = SPEEDUP_SCENARIO) -> Tuple[bool, str]:
    """CI gate: the parallel backend must not regress below ``threshold``.

    ``threshold`` is the minimum acceptable ``serial / process-pool``
    wall-clock ratio (e.g. 0.9 tolerates a 10 % slowdown; > 1 demands a
    win).  On hosts with fewer than ``MIN_CORES_FOR_SPEEDUP_CHECK`` cores
    the check passes vacuously — a 4-replica fan-out cannot beat serial
    without cores to fan out to.
    """
    cpu_count = report.get("host", {}).get("cpu_count", 1)
    if cpu_count < MIN_CORES_FOR_SPEEDUP_CHECK:
        return True, (f"speedup check skipped: host has {cpu_count} core(s), "
                      f"needs {MIN_CORES_FOR_SPEEDUP_CHECK}")
    for entry in report["scenarios"]:
        if entry["name"] == scenario_name:
            speedup = entry.get("speedup")
            if speedup is None:
                return False, f"scenario {scenario_name!r} has no backend comparison"
            if not entry.get("bit_identical", False):
                return False, (f"scenario {scenario_name!r}: backends are not "
                               f"bit-identical")
            if speedup < threshold:
                return False, (f"scenario {scenario_name!r}: process-pool speedup "
                               f"{speedup:.2f}x is below the {threshold:.2f}x floor")
            return True, (f"scenario {scenario_name!r}: process-pool speedup "
                          f"{speedup:.2f}x (floor {threshold:.2f}x)")
    return False, f"scenario {scenario_name!r} not found in the report"
