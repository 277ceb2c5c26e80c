"""Perf-smoke benchmark: the tracked cluster-simulation speedup matrix.

Runs the ``repro bench`` scenario matrix in quick mode and checks the two
speedup levers the perf trajectory tracks:

* the ``process-pool`` execution backend must be **bit-identical** to the
  ``serial`` reference on every comparison scenario (the wall-clock win is
  additionally asserted on hosts with enough cores — a 1-core CI container
  cannot express a fan-out speedup, only its overhead);
* iteration-level memoization must reach the paper-motivated reuse regime
  on the steady-state decode scenario (>= 50 % iteration-cache hit rate)
  while remaining bit-identical to the non-memoized run and to the
  process-pool run, whose workers keep private caches.

The emitted ``BENCH_cluster.json`` is the artifact CI archives per commit.
"""

import json
import os

import pytest

from repro.bench import (BENCH_SCENARIOS, MIN_CORES_FOR_SPEEDUP_CHECK,
                         SPEEDUP_SCENARIO, check_speedup, run_bench,
                         run_scenario, write_report)

from conftest import run_once


def scenario_by_name(name):
    return next(s for s in BENCH_SCENARIOS if s.name == name)


@pytest.fixture(scope="module")
def quick_report():
    """One quick run of the whole matrix, shared by the assertions below."""
    return run_bench(quick=True)


class TestBenchMatrix:
    def test_matrix_covers_required_scenarios(self):
        names = {s.name for s in BENCH_SCENARIOS}
        assert {"homogeneous-4", "heterogeneous-4", "autoscaled-4",
                "steady-decode-reuse"} <= names

    def test_backends_bit_identical_on_every_comparison_scenario(self, quick_report):
        compared = [e for e in quick_report["scenarios"] if "backends" in e]
        assert len(compared) >= 3
        for entry in compared:
            assert entry["bit_identical"], (
                f"{entry['name']}: process-pool diverged from serial")
            assert set(entry["backends"]) == {"serial", "process-pool"}
            fingerprints = {stats["fingerprint"]
                            for stats in entry["backends"].values()}
            assert len(fingerprints) == 1

    def test_all_requests_finish_under_both_backends(self, quick_report):
        for entry in quick_report["scenarios"]:
            for stats in entry.get("backends", {}).values():
                assert stats["finished_requests"] == entry["num_requests"]

    def test_steady_decode_hit_rate_meets_reuse_target(self, quick_report):
        entry = next(e for e in quick_report["scenarios"]
                     if e["name"] == "steady-decode-reuse")
        assert entry["bit_identical"], "memoization changed simulated results"
        assert entry["hit_rate"] >= 0.5, (
            f"steady-state decode hit rate {entry['hit_rate']:.1%} below 50%")
        assert entry["modeled_speedup"] > 1.5
        assert entry["reuse"]["reuse-off"]["iteration_cache_hits"] == 0

    @pytest.mark.skipif((os.cpu_count() or 1) < MIN_CORES_FOR_SPEEDUP_CHECK,
                        reason="fan-out speedup needs a multi-core host")
    def test_process_pool_wins_on_multicore_hosts(self, quick_report):
        entry = next(e for e in quick_report["scenarios"]
                     if e["name"] == SPEEDUP_SCENARIO)
        assert entry["speedup"] > 1.2, (
            f"process-pool speedup {entry['speedup']:.2f}x on "
            f"{os.cpu_count()} cores")

    def test_check_speedup_gate_semantics(self, quick_report):
        ok, message = check_speedup(quick_report, threshold=0.0)
        assert ok, message
        # An impossible floor must fail on capable hosts and be skipped
        # (vacuously pass) on hosts below the core threshold.
        ok, message = check_speedup(quick_report, threshold=1e9)
        if quick_report["host"]["cpu_count"] >= MIN_CORES_FOR_SPEEDUP_CHECK:
            assert not ok and "below" in message
        else:
            assert ok and "skipped" in message
        ok, message = check_speedup(quick_report, threshold=0.0,
                                    scenario_name="no-such-scenario")
        if quick_report["host"]["cpu_count"] >= MIN_CORES_FOR_SPEEDUP_CHECK:
            assert not ok

    def test_report_is_json_serializable_with_host_metadata(self, quick_report,
                                                           tmp_path):
        path = write_report(quick_report, tmp_path / "BENCH_cluster.json")
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == "bench-cluster/v1"
        assert loaded["quick"] is True
        assert loaded["host"]["cpu_count"] >= 1
        assert len(loaded["scenarios"]) == len(BENCH_SCENARIOS)

    def test_unknown_scenario_filter_rejected(self):
        with pytest.raises(ValueError):
            run_bench(quick=True, only=["no-such-scenario"])


class TestBenchTiming:
    """Record the headline scenario under pytest-benchmark for the trajectory."""

    def test_homogeneous_scenario_timed(self, benchmark):
        entry = run_once(benchmark, run_scenario,
                         scenario_by_name("homogeneous-4"), True)
        assert entry["bit_identical"]
        assert entry["speedup"] > 0
