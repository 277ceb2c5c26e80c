"""Layer spans for the traced run, recorded from outside the program.

:class:`Tracer` wraps the public entry points of each ``src/repro/`` layer
(class methods and the module functions ``repro.core.simulator`` calls) for
the duration of one round, then restores them.  Each span records its
name, start, end, parent span and the index of the iteration it served;
spans stay in memory and are written out once the run ends.

A layer's self time is its span's duration minus the time covered by its
child spans.  Counts (graph nodes, system events, cache hits) are taken
from the return values at the same boundaries.
"""

from __future__ import annotations

import gzip
import statistics
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import repro.core.simulator as core_simulator
from repro.cluster.autoscaler import Autoscaler
from repro.cluster.backend import SerialBackend
from repro.cluster.simulator import ClusterSimulator
from repro.engine.stack import ExecutionEngineStack
from repro.graph.converter import GraphConverter
from repro.scheduler.scheduler import IterationLevelScheduler
from repro.system.simulator import SystemSimulator

from .workloads import Outcome

__all__ = ["Tracer", "layer_metrics", "program_timers", "PER_LAYER_UNITS"]

#: Spans whose totals the program also times itself (``measured_simulation_time``).
PROGRAM_TIMED = {"engine.stack": "engine", "graph.convert": "graph_converter",
                 "system.simulate": "system_sim"}

#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER_UNITS: Dict[str, str] = {
    "core.step.calls": "count",
    "core.step.self_s": "s",
    "core.step.p50_us": "us",
    "core.step.p99_us": "us",
    "scheduler.next_iteration.calls": "count",
    "scheduler.next_iteration.self_s": "s",
    "scheduler.complete_iteration.self_s": "s",
    "scheduler.batch_size_mean": "requests",
    "scheduler.kv_evictions": "count",
    "scheduler.kv_reloads": "count",
    "models.build_iteration_graph.calls": "count",
    "models.build_iteration_graph.self_s": "s",
    "engine.stack.calls": "count",
    "engine.stack.self_s": "s",
    "engine.operators_simulated": "count",
    "engine.operators_cached": "count",
    "engine.operator_cache_hit_ratio": "ratio",
    "engine.iteration_cache.lookups": "count",
    "engine.iteration_cache.hits": "count",
    "engine.iteration_cache.hit_ratio": "ratio",
    "engine.iteration_cache.self_s": "s",
    "graph.convert.calls": "count",
    "graph.convert.self_s": "s",
    "graph.nodes": "count",
    "graph.convert.us_per_node": "us",
    "system.simulate.calls": "count",
    "system.simulate.self_s": "s",
    "system.events": "count",
    "system.simulate.us_per_node": "us",
    "cluster.router.select.self_s": "s",
    "cluster.autoscaler.observe_arrival.self_s": "s",
    "cluster.scaling_events": "count",
    "cluster.backend.advance.self_s": "s",
    "cluster.run.self_s": "s",
    "unattributed_s": "s",
    "trace_overhead_ratio": "ratio",
}


class Tracer:
    """In-memory span recorder with per-name call counts and self times."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_iteration = array("l")
        self.calls: List[int] = []
        self.self_seconds: List[float] = []
        self.total_seconds: List[float] = []
        self.top_level_seconds = 0.0
        self.step_seconds: List[float] = []
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []
        self._child: List[float] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_seconds.append(0.0)
            self.total_seconds.append(0.0)
        return self._ids[name]

    def stat(self, name: str) -> Tuple[int, float, float]:
        """(calls, self seconds, total seconds) of one span name."""
        if name not in self._ids:
            return 0, 0.0, 0.0
        i = self._ids[name]
        return self.calls[i], self.self_seconds[i], self.total_seconds[i]

    def count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable[[object, int], None]] = None) -> Callable:
        """``fn`` recording one span per call; ``on_result(result, span)`` after."""
        nid = self._name_id(name)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, iterations = self.span_parent, self.span_iteration
        stack, child = self._stack, self._child
        calls, self_seconds, total_seconds = self.calls, self.self_seconds, self.total_seconds
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            iterations.append(-1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                children = child.pop()
                starts[index] = start
                ends[index] = end
                duration = end - start
                if child:
                    child[-1] += duration
                else:
                    self.top_level_seconds += duration
                calls[nid] += 1
                self_seconds[nid] += duration - children
                total_seconds[nid] += duration
            if on_result is not None:
                on_result(result, index)
            return result

        return traced

    # -- result hooks ---------------------------------------------------------

    def _on_step(self, record, index: int) -> None:
        self.step_seconds.append(self.span_end[index] - self.span_start[index])
        if record is not None:
            for span in range(index, len(self.span_iteration)):
                self.span_iteration[span] = record.index

    def _on_stack(self, stack_result, index: int) -> None:
        self.count("engine.operators_simulated", stack_result.report.simulated_operators)
        self.count("engine.operators_cached", stack_result.report.cached_operators)

    def _on_convert(self, graph, index: int) -> None:
        self.count("graph.nodes", len(graph))

    def _on_system(self, system_result, index: int) -> None:
        self.count("system.events", system_result.num_events)

    def _on_lookup(self, entry, index: int) -> None:
        self.count("engine.iteration_cache.lookups", 1)
        self.count("engine.iteration_cache.hits", int(entry is not None))

    # -- installing the wrappers ---------------------------------------------

    def _targets(self, simulator) -> List[Tuple[object, str, str, Optional[Callable]]]:
        targets = [
            (core_simulator.LLMServingSim, "step", "core.step", self._on_step),
            (IterationLevelScheduler, "next_iteration", "scheduler.next_iteration", None),
            (IterationLevelScheduler, "complete_iteration",
             "scheduler.complete_iteration", None),
            (core_simulator, "build_iteration_graph", "models.build_iteration_graph", None),
            (core_simulator, "iteration_signature", "engine.iteration_cache.signature", None),
            (ExecutionEngineStack, "simulate_iteration", "engine.stack", self._on_stack),
            (GraphConverter, "convert", "graph.convert", self._on_convert),
            (SystemSimulator, "simulate", "system.simulate", self._on_system),
            (ClusterSimulator, "run", "cluster.run", None),
            (SerialBackend, "advance", "cluster.backend.advance", None),
            (Autoscaler, "observe_arrival", "cluster.autoscaler.observe_arrival", None),
        ]
        router = getattr(simulator, "router", None)
        if router is not None:
            targets.append((type(router), "select", "cluster.router.select", None))
        shared = getattr(simulator, "iteration_caches", None)
        caches = (list(shared.values()) if shared is not None
                  else [simulator.iteration_cache])
        # The concrete cache classes only: wrapping a base class too would
        # nest a second span inside every subclass lookup that calls super().
        cache_types = {type(c) for c in caches if c is not None}
        for cache_type in sorted(cache_types, key=lambda t: t.__name__):
            targets.append((cache_type, "lookup", "engine.iteration_cache.lookup",
                            self._on_lookup))
            targets.append((cache_type, "store", "engine.iteration_cache.store", None))
        return targets

    @contextmanager
    def installed(self, simulator) -> Iterator["Tracer"]:
        """Wrap every layer entry point while the block runs, then restore."""
        saved = []
        try:
            for owner, attribute, name, hook in self._targets(simulator):
                own = vars(owner)
                saved.append((owner, attribute, own.get(attribute), attribute in own))
                setattr(owner, attribute, self.wrap(name, getattr(owner, attribute), hook))
            yield self
        finally:
            for owner, attribute, original, owned in reversed(saved):
                if owned:
                    setattr(owner, attribute, original)
                else:
                    delattr(owner, attribute)

    # -- output ----------------------------------------------------------------

    def write(self, path: Path) -> Path:
        """Write the spans as gzip'd TSV: name, start, end, parent, iteration."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("span\tname\tstart_s\tend_s\tparent\titeration\n")
            for i in range(len(self.span_name)):
                handle.write(f"{i}\t{self.names[self.span_name[i]]}\t"
                             f"{self.span_start[i] - base:.9f}\t{self.span_end[i] - base:.9f}\t"
                             f"{self.span_parent[i]}\t{self.span_iteration[i]}\n")
        return path


def program_timers(result) -> Dict[str, float]:
    """The program's own ``measured_simulation_time``, keyed by span name."""
    results = getattr(result, "replica_results", None) or [result]
    return {span: sum(getattr(r.measured_simulation_time, component) for r in results)
            for span, component in PROGRAM_TIMED.items()}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, outcome: Outcome, traced_wall: float) -> Dict[str, float]:
    """Per-layer numbers of one traced round (``trace_overhead_ratio`` excluded)."""
    def calls(name: str) -> int:
        return tracer.stat(name)[0]

    def self_s(name: str) -> float:
        return tracer.stat(name)[1]

    counts = tracer.counts
    rows = [it for replica in outcome.replicas for it in replica]
    steps_us = [s * 1e6 for s in tracer.step_seconds]
    nodes = counts.get("graph.nodes", 0)
    simulated = counts.get("engine.operators_simulated", 0)
    cached = counts.get("engine.operators_cached", 0)
    lookups = counts.get("engine.iteration_cache.lookups", 0)
    hits = counts.get("engine.iteration_cache.hits", 0)
    return {
        "core.step.calls": calls("core.step"),
        "core.step.self_s": self_s("core.step"),
        "core.step.p50_us": statistics.median(steps_us) if steps_us else 0.0,
        "core.step.p99_us": (statistics.quantiles(steps_us, n=100)[98]
                             if len(steps_us) > 1 else sum(steps_us)),
        "scheduler.next_iteration.calls": calls("scheduler.next_iteration"),
        "scheduler.next_iteration.self_s": self_s("scheduler.next_iteration"),
        "scheduler.complete_iteration.self_s": self_s("scheduler.complete_iteration"),
        "scheduler.batch_size_mean": _ratio(sum(it.num_requests for it in rows), len(rows)),
        "scheduler.kv_evictions": sum(it.evictions for it in rows),
        "scheduler.kv_reloads": sum(it.reloads for it in rows),
        "models.build_iteration_graph.calls": calls("models.build_iteration_graph"),
        "models.build_iteration_graph.self_s": self_s("models.build_iteration_graph"),
        "engine.stack.calls": calls("engine.stack"),
        "engine.stack.self_s": self_s("engine.stack"),
        "engine.operators_simulated": simulated,
        "engine.operators_cached": cached,
        "engine.operator_cache_hit_ratio": _ratio(cached, simulated + cached),
        "engine.iteration_cache.lookups": lookups,
        "engine.iteration_cache.hits": hits,
        "engine.iteration_cache.hit_ratio": _ratio(hits, lookups),
        "engine.iteration_cache.self_s": sum(
            self_s(f"engine.iteration_cache.{part}")
            for part in ("signature", "lookup", "store")),
        "graph.convert.calls": calls("graph.convert"),
        "graph.convert.self_s": self_s("graph.convert"),
        "graph.nodes": nodes,
        "graph.convert.us_per_node": _ratio(self_s("graph.convert") * 1e6, nodes),
        "system.simulate.calls": calls("system.simulate"),
        "system.simulate.self_s": self_s("system.simulate"),
        "system.events": counts.get("system.events", 0),
        "system.simulate.us_per_node": _ratio(self_s("system.simulate") * 1e6, nodes),
        "cluster.router.select.self_s": self_s("cluster.router.select"),
        "cluster.autoscaler.observe_arrival.self_s":
            self_s("cluster.autoscaler.observe_arrival"),
        "cluster.scaling_events": outcome.scaling_events,
        "cluster.backend.advance.self_s": self_s("cluster.backend.advance"),
        "cluster.run.self_s": self_s("cluster.run"),
        "unattributed_s": traced_wall - tracer.top_level_seconds,
    }
