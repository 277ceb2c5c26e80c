"""Golden fingerprints of simulated output on a fixed matrix of small runs.

The determinism tests elsewhere compare two arms of the same build, so a
change that shifted every arm alike would pass them all.  This corpus pins
the simulated output itself: for each single-system run, the SHA-256 of the
exact ``repr`` (no rounding) of every iteration's ``(start_time, end_time,
latency)`` and every request's timestamps; for the cluster run,
:func:`repro.bench.cluster_result_fingerprint`.

A change that keeps simulated behaviour bit-identical keeps every value
here.  ``gpt2-tensor2-near-tie`` is a run on which the system simulator
replays one copy of a template block with its heap instead of as
straight-line code; its value was computed before block templates existed.
``gpt3-7b-hybrid2x2-pim-local-subbatch`` runs two sub-batch chains over
shared NPUs; its value was computed before their blocks were templated.
Print the current values with ``PYTHONPATH=src python
tests/test_golden_corpus.py``.
"""

import hashlib

import pytest

from repro import ClusterConfig, ClusterSimulator, LLMServingSim, ServingSimConfig
from repro.bench import cluster_result_fingerprint
from repro.models import get_model
from repro.system import SystemSimulator
from repro.workload import Request

#: (input tokens, output tokens, arrival time) of a staggered mixed batch.
MIXED = [(24, 12, 0.0), (40, 6, 0.0), (16, 16, 0.001), (32, 10, 0.0015), (48, 8, 0.004),
         (20, 14, 0.006)]
#: Three long requests at t=0 that overflow a 160-token KV cache.
EVICTING = [(64, 64, 0.0)] * 3
#: Six requests at t=0 whose reloads land on full KV page boundaries.
RELOAD_BOUNDARY = [(40, 60, 0.0), (47, 65, 0.0), (54, 70, 0.0), (61, 75, 0.0), (45, 63, 0.0),
                   (52, 68, 0.0)]

#: A staggered batch on which one copy of a template block is replayed by the
#: heap: in iteration 29 two attention operators end 2.7e-20 s apart in the
#: template and at the same time in the copy after it.
NEAR_TIE = [(49, 13, 0.0), (58, 7, 0.002), (17, 38, 0.004), (20, 27, 0.006), (82, 7, 0.008),
            (72, 17, 0.01), (12, 9, 0.012), (63, 30, 0.014), (16, 19, 0.016), (19, 39, 0.018),
            (62, 7, 0.02), (113, 40, 0.022)]

#: A prompt larger than a 7-page KV cache between two that fit: the scheduler
#: rejects it and still serves the third.
UNFITTABLE = [(16, 8, 0.0), (900, 8, 0.1), (16, 8, 0.2)]

GPT2_KV_TOKEN_BYTES = get_model("gpt2").kv_bytes_per_token()

CASES = {
    "gpt2-1npu": (dict(model_name="gpt2", npu_num=1, npu_mem_gb=4.0), MIXED),
    "gpt3-7b-tensor4": (dict(model_name="gpt3-7b", npu_num=4, parallel="tensor"), MIXED),
    "gpt3-7b-pipeline4": (dict(model_name="gpt3-7b", npu_num=4, parallel="pipeline"), MIXED),
    "gpt3-7b-hybrid2x2": (dict(model_name="gpt3-7b", npu_num=4, npu_group=2,
                               parallel="hybrid"), MIXED),
    "gpt3-7b-hybrid2x2-pim-local-subbatch": (dict(model_name="gpt3-7b", npu_num=4, npu_group=2,
                                                  parallel="hybrid", pim_type="local",
                                                  sub_batch=True), MIXED),
    "gpt2-pim-local-subbatch": (dict(model_name="gpt2", npu_num=2, npu_mem_gb=4.0,
                                     parallel="tensor", pim_type="local",
                                     sub_batch=True), MIXED),
    "gpt2-pim-pool": (dict(model_name="gpt2", npu_num=2, npu_mem_gb=4.0,
                           parallel="tensor", pim_type="pool"), MIXED),
    "gpt2-pim-pool-subbatch": (dict(model_name="gpt2", npu_num=2, npu_mem_gb=4.0,
                                    parallel="tensor", pim_type="pool",
                                    sub_batch=True), MIXED),
    "gpt2-evict-reload": (dict(model_name="gpt2", npu_num=1, npu_mem_gb=4.0,
                               kv_capacity_bytes=160 * GPT2_KV_TOKEN_BYTES), EVICTING),
    "gpt2-tensor2-reload-boundary": (dict(model_name="gpt2", npu_num=2, npu_mem_gb=4.0,
                                          parallel="tensor", kv_capacity_bytes=14_155_776),
                                     RELOAD_BOUNDARY),
    "gpt3-7b-tensor4-block": (dict(model_name="gpt3-7b", npu_num=4, parallel="tensor",
                                   graph_granularity="block"), MIXED),
    "gpt2-static": (dict(model_name="gpt2", npu_num=1, npu_mem_gb=4.0,
                         scheduling="static"), MIXED),
    "gpt2-tensor2-near-tie": (dict(model_name="gpt2", npu_num=2, npu_mem_gb=4.0,
                                   parallel="tensor"), NEAR_TIE),
    "gpt2-unfittable-prompt": (dict(model_name="gpt2", npu_num=1, npu_mem_gb=4.0,
                                    kv_capacity_bytes=4 * 2**20), UNFITTABLE),
}

GOLDEN = {
    "gpt2-1npu": "a0e1b47f7510e99e2ae4d6dddbb21ba780ecd3c5ce500801c0ea86078b91c78c",
    "gpt2-evict-reload": "4e1c0e11fd4ad76e82a78e10bc8b0844dd4df8664e0e5ef807d306baccf6561e",
    "gpt2-pim-local-subbatch": "6b9b22e7dbc96ccf66c8ef07155ab5ecdfeb7098c568fb88f70aa6e6c3598dc6",
    "gpt2-pim-pool": "5bb187e8ff5e8adf688e5493a97e28a30709763e8df2911cf04dd2a92360cd92",
    "gpt2-pim-pool-subbatch": "a00cd485e820e7c4ad82342f7a4d3a44781548b177b25e04c1b3ddcb93094c94",
    "gpt2-static": "451480ec8644a05fc0478afef1274e172021a0c62b986ba65761d7f11ea4a125",
    "gpt2-tensor2-near-tie": "3a2b72026fe0d5fecc616373a75020fac1fedebf05cfae012fbdbbcebc48bca7",
    "gpt2-tensor2-reload-boundary": "b0c0e93be84f18164b397627db4ec363549149dc91dd05075854c941d6345730",
    "gpt2-unfittable-prompt": "ca134872fb2f8138d2a09bb5cba2ab6e024114bb97d5820efaf14cbaac78b636",
    "gpt3-7b-hybrid2x2": "8618293b49ac050a002161f598247b0d27ac85c67f2afa97f722d2e32a87d82b",
    "gpt3-7b-hybrid2x2-pim-local-subbatch":
        "d3156c5f3c33cea68e18c0e2d49d294847ab8fd3395782daea6babb25581c9c8",
    "gpt3-7b-pipeline4": "0a355858dca3a2807f2af7ad7403927261616858a682879655536c2b289c9366",
    "gpt3-7b-tensor4": "9cb998298a02084dae897dee42f6ccba28f34ab9341291cbd0ae3efacd8aec70",
    "gpt3-7b-tensor4-block": "f1559dd1e2a462dea420e515a85331ed8bdfb6ae39d4a30d35a6baf6149da67b",
}

CLUSTER_GOLDEN = "0180e283d18d91a2b16a7987d8f96f535f49b8e0e1b3844ce96942bd4eafe317"


def make_requests(spec):
    return [Request(i, inp, out, arrival_time=t) for i, (inp, out, t) in enumerate(spec)]


def serving_fingerprint(result) -> str:
    """SHA-256 over the exact reprs of iteration intervals and request timestamps."""
    iterations = [(r.start_time, r.end_time, r.latency) for r in result.iterations]
    requests = sorted((q.request_id, q.arrival_time, q.admitted_time, q.first_token_time,
                       q.finish_time, q.generated_tokens) for q in result.requests)
    return hashlib.sha256(repr((iterations, requests)).encode()).hexdigest()


def run_case(name: str) -> str:
    overrides, spec = CASES[name]
    result = LLMServingSim(ServingSimConfig(**overrides)).run(make_requests(spec))
    assert len(result.finished_requests) + len(result.rejected_requests) == len(spec)
    return serving_fingerprint(result)


def run_cluster() -> str:
    config = ClusterConfig(num_replicas=2, routing="least-outstanding",
                           replica=ServingSimConfig(model_name="gpt2", npu_num=1,
                                                    npu_mem_gb=4.0))
    requests = make_requests(MIXED + [(28, 9, 0.0065), (36, 5, 0.007)])
    return cluster_result_fingerprint(ClusterSimulator(config).run(requests))


@pytest.mark.parametrize("name", sorted(CASES))
def test_single_system_fingerprint(name):
    assert run_case(name) == GOLDEN[name]


def test_cluster_fingerprint():
    assert run_cluster() == CLUSTER_GOLDEN


def test_near_tie_case_replays_a_copy_with_the_heap(monkeypatch):
    """The near-tie case keeps covering the replay's fallback from a template."""
    counts = {"accepted": 0, "heap": 0}
    simulate = SystemSimulator.simulate

    def counting(self, graph, start_time=0.0):
        result = simulate(self, graph, start_time)
        counts["accepted"] += result.accepted_windows
        counts["heap"] += result.heap_replayed_windows
        return result

    monkeypatch.setattr(SystemSimulator, "simulate", counting)
    run_case("gpt2-tensor2-near-tie")
    assert counts["heap"] >= 1
    assert counts["accepted"] > 100 * counts["heap"]


def test_sub_batch_case_replays_most_nodes_as_straight_line_code(monkeypatch):
    """On two sub-batch chains over shared NPUs, accepted windows cover most nodes."""
    nodes = {"windows": 0, "heap": 0}
    simulate = SystemSimulator.simulate

    def counting(self, graph, start_time=0.0):
        result = simulate(self, graph, start_time)
        nodes["windows"] += result.accepted_nodes
        nodes["heap"] += result.num_events - result.accepted_nodes
        return result

    monkeypatch.setattr(SystemSimulator, "simulate", counting)
    run_case("gpt3-7b-hybrid2x2-pim-local-subbatch")
    assert nodes["windows"] > nodes["heap"]


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'    "{case}": "{run_case(case)}",')
    print(f'CLUSTER_GOLDEN = "{run_cluster()}"')
