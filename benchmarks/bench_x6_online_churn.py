"""Benchmark X6 — online admission under churn: incremental vs rebuild.

The canonical churn stream of
:func:`repro.workloads.scenarios.online_churn_workload` (three
well-separated endpoint pairs on the paper's 30-node topology, ~1 s
inter-arrivals, ~4 s holdings, two node down/up episodes, 500 events)
is replayed through two controllers:

* **rebuild** — ``OnlineAdmissionController(incremental=False)``: a cold
  :func:`repro.core.bandwidth.available_path_bandwidth` solve per
  arrival, the naive deployment;
* **incremental** — the default controller: per-union warm master LPs
  (``set_column`` retargeting, ``set_rhs`` retirement of departed load)
  plus a (union, path, demands) result cache.

Both are measured by ``tools/bench_runner.py``'s
``measure_online_churn``.  Asserted shape: the decision streams are
*identical* (byte-identity is the contract, not a tolerance), the
incremental replay is ≥ 5× faster (best of the harness's repeats wall
clocks each, since scipy's per-solve overhead makes single runs noisy),
and the obs counters prove the mechanism — result hits, warm re-solves,
cold fallbacks and demand-row retirements all nonzero, so the stream
genuinely walks every decision path.
"""

import os
import sys

import pytest

from repro.serve.online import OnlineAdmissionController, run_online_session

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))
try:
    from bench_runner import decision_essence, measure_online_churn
finally:
    sys.path.pop(0)

#: Acceptance floor for incremental-over-rebuild decision throughput.
MIN_SPEEDUP = 5.0


@pytest.fixture(scope="module")
def measurement():
    return measure_online_churn()


@pytest.fixture(scope="module")
def workload(measurement):
    return measurement[1]["workload"]


def test_x6_identical_decisions(measurement):
    """Byte-identity: the caches change cost, never an answer."""
    _, detail = measurement
    online, rebuild = detail["decisions"], detail["rebuild_decisions"]
    assert len(online) == len(rebuild)
    for warm, cold in zip(online, rebuild):
        assert decision_essence(warm) == decision_essence(cold)


def test_x6_decision_mix(measurement):
    """Both outcomes occur (else the identity test proves little)."""
    decisions = measurement[1]["decisions"]
    admitted = sum(1 for d in decisions if d.admitted)
    assert 0 < admitted < len(decisions)


def test_x6_incremental_speedup(measurement):
    row, _ = measurement
    speedup = row["rebuild_seconds"] / row["online_seconds"]
    assert speedup >= MIN_SPEEDUP, (
        f"incremental replay only {speedup:.1f}x faster than "
        f"rebuild-per-event (needs >= {MIN_SPEEDUP}x)"
    )


def test_x6_cache_mechanism(measurement):
    """The speedup comes from the advertised mechanism, not luck."""
    counters = measurement[1]["recorder"].counters
    assert counters["online.cache.result.hits"] >= 1
    assert counters["online.warm_resolves"] >= 1
    assert counters["online.rebuild_fallbacks"] >= 1
    assert counters["online.column_retirements"] >= 1
    # The incremental path never rebuilds a union it has already seen.
    assert (
        counters["online.rebuild_fallbacks"]
        == counters["online.cache.master.misses"]
    )


def test_x6_node_churn_exercised(measurement, workload):
    """The stream's node episodes actually hit the controller."""
    kinds = {event.kind for event in workload.events}
    assert "node-down" in kinds
    counters = measurement[1]["recorder"].counters
    assert counters["online.node_down"] >= 1


def test_x6_latency_percentiles(measurement):
    row, _ = measurement
    assert 0.0 < row["p50_latency_seconds"] <= row["p99_latency_seconds"]
    print()
    print(
        f"rebuild {row['rebuild_seconds']:.3f}s, "
        f"incremental {row['online_seconds']:.3f}s ({row['speedup']:.1f}x), "
        f"{row['online_dps']:.0f} dec/s, "
        f"p50 {row['p50_latency_seconds'] * 1e3:.3f} ms, "
        f"p99 {row['p99_latency_seconds'] * 1e3:.3f} ms"
    )


def test_x6_benchmark(benchmark, workload):
    def replay_stream():
        controller = OnlineAdmissionController(workload.model)
        decisions, _wall = run_online_session(controller, workload.events)
        return decisions

    decisions = benchmark.pedantic(replay_stream, rounds=1, iterations=1)
    assert decisions
