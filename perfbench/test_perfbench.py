"""Tests of the benchmark itself, on shortened workloads (a few seconds in all).

* every output check fails on a planted fault;
* iteration reuse on and off give identical per-request timestamps;
* the traced run's pipeline span totals agree with the program's own
  ``measured_simulation_time`` components;
* the benchmark refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks, run, workloads
from perfbench.tracer import PER_LAYER_UNITS, Tracer, layer_metrics, program_timers
from repro.core.simulator import LLMServingSim

BENCH_DIR = Path(__file__).resolve().parent

FLEET = workloads.WORKLOADS["fleet-templated"]
PIM = workloads.WORKLOADS["pim-subbatch-burst"]
TP4 = workloads.WORKLOADS["tp4-sharegpt"]


def short_fleet_inputs():
    return workloads.fleet_inputs(1, count=20)


def short_pim_inputs():
    return workloads.pim_inputs(1, count=6, max_output=12)


def serve(workload, inputs, simulator):
    return workload.outcome(simulator.run(workload.requests(inputs)))


@pytest.fixture(scope="module")
def fleet_case():
    inputs = short_fleet_inputs()
    return inputs, serve(FLEET, inputs, workloads.fleet_simulator())


@pytest.fixture(scope="module")
def pim_case():
    inputs = short_pim_inputs()
    return inputs, serve(PIM, inputs, workloads.pim_simulator())


def copy_outcome(outcome):
    return workloads.Outcome(
        replicas=[list(rows) for rows in outcome.replicas],
        requests=dict(outcome.requests),
        placements={rid: list(replicas) for rid, replicas in outcome.placements.items()},
        assignments=dict(outcome.assignments),
        scaling_events=outcome.scaling_events)


def busiest_replica(outcome):
    return max(range(len(outcome.replicas)), key=lambda i: len(outcome.replicas[i]))


# -- the checks pass on real output and fail on planted faults -------------------

@pytest.mark.parametrize("case, workload", [("fleet_case", FLEET), ("pim_case", PIM)])
def test_real_output_passes_every_check(request, case, workload):
    inputs, outcome = request.getfixturevalue(case)
    assert outcome.finished_requests == len(inputs)
    assert checks.failed_requests(inputs, outcome) == set()
    assert checks.run_errors(inputs, outcome, workload.model, workload.npus) == []
    assert checks.floor_margin(workload.model, workload.npus, outcome) > 1.0


def test_dropped_token_fails_the_request_and_the_totals(fleet_case):
    inputs, outcome = fleet_case
    faulty = copy_outcome(outcome)
    row = faulty.requests[3]
    faulty.requests[3] = row._replace(generated_tokens=row.generated_tokens - 1)
    assert checks.failed_requests(inputs, faulty) == {3}

    faulty = copy_outcome(outcome)
    rows = faulty.replicas[busiest_replica(faulty)]
    rows[-1] = rows[-1]._replace(generated_tokens=rows[-1].generated_tokens - 1)
    errors = checks.run_errors(inputs, faulty, FLEET.model, FLEET.npus)
    assert any("generated" in e for e in errors)


def test_overlapping_iterations_fail(fleet_case):
    inputs, outcome = fleet_case
    faulty = copy_outcome(outcome)
    rows = faulty.replicas[busiest_replica(faulty)]
    previous, row = rows[4], rows[5]
    shift = row.start - previous.end + 0.5 * previous.latency
    rows[5] = row._replace(start=row.start - shift, end=row.end - shift)
    errors = checks.run_errors(inputs, faulty, FLEET.model, FLEET.npus)
    assert any("before the previous one ends" in e for e in errors)


def test_latency_inconsistent_with_interval_fails(pim_case):
    inputs, outcome = pim_case
    faulty = copy_outcome(outcome)
    rows = faulty.replicas[0]
    rows[2] = rows[2]._replace(latency=rows[2].latency * 1.01)
    errors = checks.run_errors(inputs, faulty, PIM.model, PIM.npus)
    assert any("!= latency" in e for e in errors)


def test_latency_under_the_roofline_floor_fails(pim_case):
    inputs, outcome = pim_case
    faulty = copy_outcome(outcome)
    rows = faulty.replicas[0]
    floor = checks.latency_floor(PIM.model, PIM.npus, 1)
    rows[-1] = rows[-1]._replace(latency=0.5 * floor, end=rows[-1].start + 0.5 * floor)
    errors = checks.run_errors(inputs, faulty, PIM.model, PIM.npus)
    assert any("under the roofline floor" in e for e in errors)


def test_unrouted_or_doubly_placed_request_fails(fleet_case):
    inputs, outcome = fleet_case
    faulty = copy_outcome(outcome)
    del faulty.assignments[7]
    assert checks.failed_requests(inputs, faulty) == {7}

    faulty = copy_outcome(outcome)
    home = faulty.assignments[8]
    faulty.placements[8] = [home, (home + 1) % len(faulty.replicas)]
    assert checks.failed_requests(inputs, faulty) == {8}


def test_timestamps_out_of_order_fail(pim_case):
    inputs, outcome = pim_case
    faulty = copy_outcome(outcome)
    row = faulty.requests[1]
    faulty.requests[1] = row._replace(first_token_time=row.finish_time + 1.0)
    assert checks.failed_requests(inputs, faulty) == {1}


def test_floor_uses_published_shapes():
    # 6.7B GPT-3 blocks: ~6.4e9 parameters, 12.9 GB of fp16 weights.
    assert 6.4e9 < checks.block_parameters("gpt3-7b") < 6.5e9
    weight_bound = checks.latency_floor("gpt3-7b", 4, 1)
    assert weight_bound == pytest.approx(12.89e9 / (4 * 936e9), rel=0.01)
    flop_bound = checks.latency_floor("gpt3-7b", 4, 10_000)
    assert flop_bound == pytest.approx(2 * 6.44e9 * 10_000 / (4 * 32.768e12), rel=0.01)


# -- two independent paths through the program agree ----------------------------

@pytest.mark.parametrize("workload, inputs, build", [
    (FLEET, short_fleet_inputs(), workloads.fleet_simulator),
    (PIM, short_pim_inputs(), workloads.pim_simulator),
])
def test_iteration_reuse_on_and_off_give_identical_timestamps(workload, inputs, build):
    reused = serve(workload, inputs, build(reuse=True))
    fresh = serve(workload, inputs, build(reuse=False))
    assert reused.requests == fresh.requests
    assert reused.digest() == fresh.digest()


@pytest.mark.parametrize("workload, inputs", [
    (FLEET, short_fleet_inputs()),
    (PIM, short_pim_inputs()),
])
def test_span_totals_agree_with_program_timers(workload, inputs):
    simulator = workload.build()
    tracer = Tracer()
    with tracer.installed(simulator):
        result = simulator.run(workload.requests(inputs))
    for span, program_s in program_timers(result).items():
        span_s = tracer.stat(span)[2]
        assert span_s > 0
        # The program's timer encloses the wrapped call, so it reads a little more.
        assert span_s <= program_s
        assert program_s - span_s <= 0.1 * program_s + 0.005, span


def test_traced_run_reports_every_per_layer_metric(fleet_case):
    inputs, _ = fleet_case
    simulator = FLEET.build()
    tracer = Tracer()
    with tracer.installed(simulator):
        result = simulator.run(FLEET.requests(inputs))
    metrics = layer_metrics(tracer, FLEET.outcome(result), 1.0)
    assert set(metrics) | {"trace_overhead_ratio"} == set(PER_LAYER_UNITS)
    assert metrics["core.step.calls"] >= metrics["engine.iteration_cache.lookups"] > 0
    assert metrics["engine.iteration_cache.hits"] > 0
    assert metrics["cluster.router.select.self_s"] > 0


def test_tracer_restores_every_entry_point():
    simulator = PIM.build()
    before = LLMServingSim.__dict__["step"]
    cache_type = type(simulator.iteration_cache)
    with Tracer().installed(simulator):
        assert LLMServingSim.__dict__["step"] is not before
    assert LLMServingSim.__dict__["step"] is before
    assert "lookup" in vars(cache_type) and vars(cache_type)["lookup"].__name__ == "lookup"


# -- inputs and the command ----------------------------------------------------

@pytest.mark.parametrize("workload", [TP4, PIM, FLEET])
def test_inputs_depend_only_on_the_seed(workload):
    first = workload.generate(11)
    assert first == workload.generate(11)
    assert first != workload.generate(12)
    assert [r.request_id for r in first] == list(range(len(first)))
    assert all(r.input_tokens > 0 and r.output_tokens > 0 for r in first)


def test_stratified_lengths_keep_totals_steady_across_seeds():
    # Independent draws of 16 such lengths would total within about +-50%.
    totals = [sum(r.output_tokens for r in workloads.tp4_inputs(seed)) for seed in range(20)]
    assert max(totals) - min(totals) <= 0.1 * min(totals)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tp4-sharegpt", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
