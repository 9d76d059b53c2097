"""Benchmark X5 — serving-layer throughput: warm cache vs cold re-solving.

The admission-query stream of
:func:`repro.workloads.scenarios.admission_query_workload` (the paper's
30-node Section 5.2 topology, background flows routed as in fig3,
queries over every subpath of the live routes) is answered two ways:

* **cold** — :func:`repro.core.bandwidth.available_path_bandwidth` per
  query, the naive deployment that re-enumerates and rebuilds the LP
  every time;
* **warm** — one :class:`repro.serve.AdmissionService` over the whole
  stream: enumeration and the master LP cached per link union, paths
  warm-started via column rewrite, repeats memoised.

Both are measured by ``tools/bench_runner.py``'s
``measure_serve_throughput`` (best of its repeats).  Asserted shape:
the two disagree on *nothing* (equal bandwidths, equal decisions — the
caches are keyed on the exact universe the cold solver uses), the warm
stream is ≥ 3× faster, and the obs counters prove the mechanism (one
enumeration, warm starts, result hits).  Decision-latency percentiles
(p50/p99) are printed for the trajectory file.
"""

import os
import sys
import time

import pytest

from repro.serve import AdmissionService

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))
try:
    from bench_runner import measure_serve_throughput
finally:
    sys.path.pop(0)

#: The acceptance floor for warm-over-cold throughput on this workload.
MIN_SPEEDUP = 3.0


@pytest.fixture(scope="module")
def measurement():
    return measure_serve_throughput()


@pytest.fixture(scope="module")
def workload(measurement):
    return measurement[1]["workload"]


def test_x5_identical_decisions(measurement):
    """Cache hits change the cost of an answer, never the answer."""
    _, detail = measurement
    for decision in detail["decisions"]:
        bandwidth, admitted = detail["cold"][decision.query_id]
        assert decision.available_bandwidth_mbps == bandwidth
        assert decision.admitted == admitted


def test_x5_decision_mix(measurement, workload):
    """The stream exercises both outcomes (else the equality test is thin)."""
    admitted = sum(1 for d in measurement[1]["decisions"] if d.admitted)
    assert 0 < admitted < len(workload.queries)


def test_x5_warm_speedup(measurement):
    row, _ = measurement
    speedup = row["cold_seconds"] / row["warm_seconds"]
    assert speedup >= MIN_SPEEDUP, (
        f"warm serving only {speedup:.1f}x faster than cold re-solving "
        f"(needs >= {MIN_SPEEDUP}x)"
    )


def test_x5_cache_mechanism(measurement):
    """The speedup comes from the advertised mechanism, not luck."""
    counters = measurement[1]["recorder"].counters
    # Every query shares one link union: one enumeration serves them all.
    assert counters["serve.cache.enum.misses"] == 1
    assert counters["serve.cache.master.misses"] == 1
    assert counters["serve.lp.warm_starts"] >= 1
    assert counters["serve.cache.result.hits"] >= 1


def test_x5_latency_percentiles(measurement):
    row, _ = measurement
    assert 0.0 < row["p50_latency_seconds"] <= row["p99_latency_seconds"]
    print()
    print(
        f"cold {row['cold_seconds']:.3f}s, "
        f"warm {row['warm_seconds']:.3f}s ({row['speedup']:.1f}x), "
        f"{row['warm_qps']:.0f} q/s, "
        f"p50 {row['p50_latency_seconds'] * 1e3:.3f} ms, "
        f"p99 {row['p99_latency_seconds'] * 1e3:.3f} ms"
    )


def test_x5_streaming_percentiles_match_post_hoc(measurement):
    """The summary's p50/p99 now come from the streaming histogram; they
    must sit within one bucket (a factor of 2**0.25) of the exact
    nearest-rank values over the recorded per-decision latencies."""
    import math

    from repro.obs import HISTOGRAM_FACTOR, HISTOGRAM_LOWEST

    row, detail = measurement
    ordered = sorted(d.latency_seconds for d in detail["decisions"])
    # The recorder saw the same stream the summary histogram did.
    histograms = detail["recorder"].snapshot()["histograms"]
    assert histograms["serve.latency_seconds"]["count"] == len(ordered)
    for q, key in ((0.50, "p50_latency_seconds"), (0.99, "p99_latency_seconds")):
        rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
        exact = ordered[rank - 1]
        ceiling = max(exact * HISTOGRAM_FACTOR, HISTOGRAM_LOWEST)
        assert exact <= row[key] <= ceiling * (1 + 1e-9), key


def test_x5_explain_off_pays_for_no_provenance(measurement):
    """With ``explain`` off the serve path builds no certificates and no
    explanations — the ``explain.*`` instrumentation is strictly opt-in."""
    recorder = measurement[1]["recorder"]
    assert "explain.certificates" not in recorder.counters
    assert "explain.explanations" not in recorder.counters
    assert "explain.certificate_seconds" not in (
        recorder.snapshot()["histograms"]
    )


def test_x5_explain_off_overhead_under_five_percent(measurement, workload):
    """The always-on provenance hook — one top-binding-link scan of the
    solution's duals per LP solve — must fit a 5% budget against the
    warm serve baseline.  Result-cache hits reuse the stored bottleneck,
    so the real work is one scan per result-cache miss; as in the
    telemetry overhead pin, charge three times that so the margin is 3x."""
    from repro.obs.explain import top_binding_link

    row, detail = measurement
    baseline = row["warm_seconds"]
    n_scans = detail["recorder"].counters["serve.cache.result.misses"]
    link_ids = sorted(
        {
            link.link_id
            for query in workload.queries
            for link in query.path
        }
    )
    duals = {f"demand[{link_id}]": 0.25 for link_id in link_ids}
    duals["airtime"] = 1.0

    class SolutionStub:
        pass

    solution = SolutionStub()
    solution.duals = duals

    cost = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(3 * n_scans):
            top_binding_link(solution)
        cost = min(cost, time.perf_counter() - started)
    assert cost < 0.05 * baseline, (
        f"3x top-binding-link scans cost {cost * 1e3:.1f} ms against a "
        f"{baseline * 1e3:.1f} ms warm baseline (>5%)"
    )


def test_x5_benchmark(benchmark, workload):
    def serve_stream():
        service = AdmissionService(workload.model, workload.background)
        return service.submit_many(workload.queries)

    decisions = benchmark.pedantic(serve_stream, rounds=1, iterations=1)
    assert len(decisions) == len(workload.queries)
