"""Aggregated results of a cluster simulation run.

A :class:`ClusterResult` merges the per-replica
:class:`~repro.core.results.ServingResult` objects produced by
:class:`~repro.cluster.simulator.ClusterSimulator` into cluster-level
serving metrics — aggregate throughput over the cluster makespan, the
request-to-replica assignment, per-replica load imbalance — and the
request-level SLO percentiles (p50/p95/p99 of TTFT, time-between-tokens and
end-to-end latency) that production serving deployments are judged by.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..analysis.metrics import SLOAttainment, SLOSummary, request_slo_metrics, slo_attainment
from ..core.results import ServingResult
from ..workload.request import Request
from .autoscaler import ScalingEvent

__all__ = ["ClusterResult"]


@dataclass
class ClusterResult:
    """Full outcome of a multi-replica cluster simulation.

    Attributes
    ----------
    routing:
        Name of the routing policy that produced the assignment.
    replica_results:
        One :class:`ServingResult` per replica, in replica-index order.
    assignments:
        Mapping of request id to the replica index it was routed to.
    replica_classes:
        Replica-class label per replica index (all ``"default"`` for a
        homogeneous single-template fleet); drives the per-class SLO views.
    scaling_timeline:
        Autoscaling decisions in time order; empty when the run had no
        autoscaler.
    initial_provisioned:
        Replicas provisioned before the first scaling decision (the
        autoscaler's ``min_replicas``); ``None`` for runs without an
        autoscaler, where the whole fleet was active throughout.
    ttft_slo_target / e2e_slo_target:
        The SLO targets (seconds) the run was judged against, when set;
        :meth:`summary_rows` reports per-class attainment for them.
    """

    routing: str
    replica_results: List[ServingResult] = field(default_factory=list)
    assignments: Dict[int, int] = field(default_factory=dict)
    replica_classes: List[str] = field(default_factory=list)
    scaling_timeline: List[ScalingEvent] = field(default_factory=list)
    initial_provisioned: Optional[int] = None
    ttft_slo_target: Optional[float] = None
    e2e_slo_target: Optional[float] = None

    # -- request-level views ---------------------------------------------------

    @property
    def num_replicas(self) -> int:
        return len(self.replica_results)

    @property
    def requests(self) -> List[Request]:
        """All requests served by the cluster, across every replica."""
        return [r for result in self.replica_results for r in result.requests]

    @property
    def finished_requests(self) -> List[Request]:
        return [r for r in self.requests if r.is_finished]

    @property
    def rejected_requests(self) -> List[Request]:
        """Requests whose prompt could never fit their replica's KV cache."""
        return [r for result in self.replica_results for r in result.rejected_requests]

    def requests_per_replica(self) -> List[int]:
        """Number of requests routed to each replica."""
        return [len(result.requests) for result in self.replica_results]

    def assignment_imbalance(self) -> float:
        """Max-over-mean ratio of per-replica request counts (1.0 = balanced)."""
        counts = self.requests_per_replica()
        if not counts or sum(counts) == 0:
            return 1.0
        mean = sum(counts) / len(counts)
        return max(counts) / mean

    # -- aggregate serving metrics --------------------------------------------

    @property
    def makespan(self) -> float:
        """Cluster busy interval: earliest iteration start to latest end."""
        starts = [res.iterations[0].start_time for res in self.replica_results
                  if res.iterations]
        ends = [res.iterations[-1].end_time for res in self.replica_results
                if res.iterations]
        if not starts:
            return 0.0
        return max(ends) - min(starts)

    @property
    def total_prompt_tokens(self) -> int:
        return sum(res.total_prompt_tokens for res in self.replica_results)

    @property
    def total_generated_tokens(self) -> int:
        return sum(res.total_generated_tokens for res in self.replica_results)

    @property
    def prompt_throughput(self) -> float:
        """Cluster-wide prompt tokens per second over the cluster makespan."""
        if self.makespan <= 0:
            return 0.0
        return self.total_prompt_tokens / self.makespan

    @property
    def generation_throughput(self) -> float:
        """Cluster-wide generated tokens per second over the cluster makespan."""
        if self.makespan <= 0:
            return 0.0
        return self.total_generated_tokens / self.makespan

    @property
    def total_throughput(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return (self.total_prompt_tokens + self.total_generated_tokens) / self.makespan

    # -- SLO metrics -----------------------------------------------------------

    def slo_metrics(self) -> Dict[str, SLOSummary]:
        """p50/p95/p99 summaries of TTFT, time-between-tokens and E2E latency.

        Keys are ``"ttft"``, ``"tbt"`` and ``"e2e"``; see
        :func:`repro.analysis.metrics.request_slo_metrics`.
        """
        return request_slo_metrics(self.requests)

    # -- per-replica-class views -----------------------------------------------

    def class_of_replica(self, index: int) -> str:
        """Class label of one replica (``"default"`` for unlabelled results)."""
        if index < len(self.replica_classes):
            return self.replica_classes[index]
        return "default"

    def requests_per_class(self) -> Dict[str, List[Request]]:
        """Requests grouped by the replica class that served them."""
        grouped: Dict[str, List[Request]] = {}
        for index, result in enumerate(self.replica_results):
            grouped.setdefault(self.class_of_replica(index), []).extend(result.requests)
        return grouped

    def per_class_slo_metrics(self) -> Dict[str, Dict[str, SLOSummary]]:
        """The :meth:`slo_metrics` breakdown per replica class."""
        return {name: request_slo_metrics(requests)
                for name, requests in self.requests_per_class().items()}

    def slo_attainment(self, ttft_target: Optional[float] = None,
                       e2e_target: Optional[float] = None) -> Dict[str, SLOAttainment]:
        """Fraction of requests meeting the SLO targets, per class + cluster-wide.

        Targets default to the run's configured ``ttft_slo`` / ``e2e_slo``;
        pass explicit values to evaluate other candidate SLOs after the fact.
        Keys are the replica-class names plus ``"cluster"`` for the whole
        request population.
        """
        ttft_target = ttft_target if ttft_target is not None else self.ttft_slo_target
        e2e_target = e2e_target if e2e_target is not None else self.e2e_slo_target
        attainment = {name: slo_attainment(requests, ttft_target, e2e_target)
                      for name, requests in self.requests_per_class().items()}
        attainment["cluster"] = slo_attainment(self.requests, ttft_target, e2e_target)
        return attainment

    # -- autoscaling views -----------------------------------------------------

    def _initial_provisioned(self) -> int:
        """Provisioned count before the first event (whole fleet if no scaler)."""
        if self.initial_provisioned is not None:
            return self.initial_provisioned
        if not self.scaling_timeline:
            return self.num_replicas
        # Older results without the field: each event changes the count by
        # exactly one, so reconstruct backwards from the first event.
        first = self.scaling_timeline[0]
        return first.provisioned_after + (1 if first.action == "scale-down" else -1)

    def peak_provisioned_replicas(self) -> int:
        """Largest provisioned-replica count the run reached."""
        counts = [self._initial_provisioned()]
        counts.extend(event.provisioned_after for event in self.scaling_timeline)
        return max(counts)

    def provisioned_series(self, initial: Optional[int] = None) -> List[tuple]:
        """``(time, provisioned_count)`` steps of the scaling timeline.

        ``initial`` overrides the provisioned count before the first event;
        it defaults to the recorded ``initial_provisioned``.
        """
        if not self.scaling_timeline:
            return []
        series = [(0.0, initial if initial is not None else self._initial_provisioned())]
        series.extend((event.time, event.provisioned_after)
                      for event in self.scaling_timeline)
        return series

    def summary_rows(self) -> List[List[str]]:
        """Rows for :func:`repro.analysis.reporting.format_table` summaries."""
        slos = self.slo_metrics()
        rows = [
            ["replicas", str(self.num_replicas)],
            ["routing", self.routing],
            ["requests finished", f"{len(self.finished_requests)}/{len(self.requests)}"],
            ["requests rejected", str(len(self.rejected_requests))],
            ["requests per replica", "/".join(str(c) for c in self.requests_per_replica())],
            ["cluster makespan (s)", f"{self.makespan:.2f}"],
            ["generation throughput (tok/s)", f"{self.generation_throughput:.1f}"],
            ["total throughput (tok/s)", f"{self.total_throughput:.1f}"],
        ]
        for key, label in (("ttft", "TTFT"), ("tbt", "TBT"), ("e2e", "E2E latency")):
            summary = slos[key]
            rows.append([f"{label} p50/p95/p99 (s)",
                         f"{summary.p50:.3f} / {summary.p95:.3f} / {summary.p99:.3f}"])
        if len(set(self.replica_classes)) > 1:
            counts: Dict[str, int] = {}
            for name in self.replica_classes:
                counts[name] = counts.get(name, 0) + 1
            rows.append(["replica classes",
                         ", ".join(f"{n}x {name}" for name, n in counts.items())])
        if self.scaling_timeline:
            rows.append(["scaling events",
                         f"{len(self.scaling_timeline)} "
                         f"(peak {self.peak_provisioned_replicas()} provisioned)"])
        if self.ttft_slo_target is not None or self.e2e_slo_target is not None:
            for name, attained in self.slo_attainment().items():
                parts = []
                if attained.ttft_rate is not None:
                    parts.append(f"TTFT {attained.ttft_rate:.1%}")
                if attained.e2e_rate is not None:
                    parts.append(f"E2E {attained.e2e_rate:.1%}")
                rows.append([f"SLO attainment [{name}]", ", ".join(parts)])
        return rows
