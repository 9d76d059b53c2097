"""Serving-layer telemetry: flight records, histograms, and overhead.

Telemetry must be *observational*: decisions are identical with the
recorder on or off and across sequential vs threaded batches (down to
identical histogram buckets for the deterministic bandwidth metric),
the streaming percentiles agree with the post-hoc sorted values to
within one bucket, and the whole per-query cost — two histogram
observations plus one flight record — stays inside the 5% overhead
budget the obs layer has always pinned.
"""

import json
import time
from functools import partial

import pytest

from repro.net.path import Path
from repro.obs import (
    HISTOGRAM_FACTOR,
    HISTOGRAM_LOWEST,
    Histogram,
    Recorder,
    use_recorder,
)
from repro.serve import (
    AdmissionQuery,
    AdmissionService,
    DEFAULT_SLOW_LOG_SIZE,
    FlightRecorder,
    decision_to_dict,
    format_slow_log,
    summarize_decisions,
)
from repro.workloads.scenarios import scenario_one, scenario_two


def _workload(repeats=2):
    scenario = scenario_two()
    links = list(scenario.path.links)
    background = [(scenario.path, 1.0)]
    subpaths = [
        Path(links[start:stop])
        for start in range(len(links))
        for stop in range(start + 1, len(links) + 1)
    ]
    queries = [
        AdmissionQuery(f"q{repeat}.{index}", path, 1.0)
        for repeat in range(repeats)
        for index, path in enumerate(subpaths)
    ]
    return scenario, background, queries


def _offer(flight, record):
    """Offer an already built ``record`` at its own latency."""
    flight.offer(record["latency_seconds"], lambda: record)


class TestFlightRecorder:
    def test_keeps_the_k_slowest(self):
        flight = FlightRecorder(capacity=3)
        for index, latency in enumerate([0.5, 0.1, 0.9, 0.2, 0.7]):
            _offer(flight, {"query_id": f"q{index}", "latency_seconds": latency})
        kept = [r["latency_seconds"] for r in flight.slow_queries()]
        assert kept == [0.9, 0.7, 0.5]  # slowest first
        assert flight.records_seen == 5

    def test_ties_keep_the_earlier_record(self):
        flight = FlightRecorder(capacity=1)
        _offer(flight, {"query_id": "first", "latency_seconds": 0.5})
        _offer(flight, {"query_id": "second", "latency_seconds": 0.5})
        [kept] = flight.slow_queries()
        assert kept["query_id"] == "first"

    def test_to_dict_is_jsonable(self):
        flight = FlightRecorder(capacity=2)
        _offer(flight, {"query_id": "a", "latency_seconds": 0.1})
        document = json.loads(json.dumps(flight.to_dict()))
        assert document["capacity"] == 2
        assert document["records_seen"] == 1
        assert document["records_kept"] == 1
        assert document["records"][0]["query_id"] == "a"

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)

    def test_format_slow_log(self):
        flight = FlightRecorder(capacity=4)
        _offer(
            flight,
            {
                "query_id": "slow-one",
                "latency_seconds": 0.25,
                "cache_state": "cold",
                "result_cache": "miss",
                "columns_cache": "miss",
                "lp_cache": "miss",
                "columns": 12,
                "lp_iterations": 7,
                "lp_warm_start": False,
            },
        )
        text = format_slow_log(flight)
        assert "slow queries: 1 kept of 1 seen" in text
        assert "slow-one" in text and "250.000 ms" in text
        assert format_slow_log(FlightRecorder()).endswith(
            f"(capacity {DEFAULT_SLOW_LOG_SIZE})"
        )


class TestServiceTelemetry:
    def test_trace_ids_allocate_and_pass_through(self):
        scenario = scenario_one()
        service = AdmissionService(scenario.model, scenario.background)
        first = service.submit(AdmissionQuery("a", scenario.new_path, 1.0))
        second = service.submit(AdmissionQuery("b", scenario.new_path, 1.0))
        explicit = service.submit(
            AdmissionQuery("c", scenario.new_path, 1.0), trace_id="mine"
        )
        assert first.trace_id == "t000001"
        assert second.trace_id == "t000002"
        assert explicit.trace_id == "mine"

    def test_cache_level_outcomes_per_decision(self):
        scenario = scenario_one()
        service = AdmissionService(scenario.model, scenario.background)
        cold = service.submit(AdmissionQuery("a", scenario.new_path, 1.0))
        memo = service.submit(AdmissionQuery("b", scenario.new_path, 1.0))
        assert (cold.result_cache, cold.columns_cache, cold.lp_cache) == (
            "miss",
            "miss",
            "miss",
        )
        assert (memo.result_cache, memo.columns_cache, memo.lp_cache) == (
            "hit",
            "skipped",
            "skipped",
        )
        assert cold.cache_state == "cold" and memo.cache_state == "result"

    def test_flight_records_carry_the_causal_story(self):
        scenario, background, queries = _workload()
        service = AdmissionService(scenario.model, background)
        service.submit_many(queries)
        assert service.flight.records_seen == len(queries)
        for record in service.flight.slow_queries():
            assert record["trace_id"].startswith("b")
            assert record["latency_seconds"] > 0.0
            if record["cache_state"] == "cold":
                assert record["lp_cache"] == "miss"
                assert record["columns"] > 0

    def test_histograms_count_every_query(self):
        scenario, background, queries = _workload()
        service = AdmissionService(scenario.model, background)
        recorder = Recorder()
        with use_recorder(recorder):
            service.submit_many(queries)
        histograms = recorder.snapshot()["histograms"]
        assert histograms["serve.latency_seconds"]["count"] == len(queries)
        assert histograms["serve.bandwidth_mbps"]["count"] == len(queries)

    def test_decisions_identical_with_telemetry_on_and_off(self):
        def answers(recorder):
            scenario, background, queries = _workload()
            service = AdmissionService(scenario.model, background)
            if recorder is None:
                decisions = service.submit_many(queries)
            else:
                with use_recorder(recorder):
                    decisions = service.submit_many(queries)
            return [
                (
                    d.query_id,
                    d.admitted,
                    d.available_bandwidth_mbps,
                    d.cache_state,
                    d.fingerprint,
                )
                for d in decisions
            ]

        assert answers(None) == answers(Recorder())

    def test_sequential_and_threaded_buckets_identical(self):
        """The deterministic bandwidth histogram is bit-identical across
        execution modes: merging worker buckets in any completion order
        equals observing the stream sequentially."""
        snapshots = []
        for workers in (None, 4):
            scenario, background, queries = _workload(repeats=3)
            service = AdmissionService(scenario.model, background)
            recorder = Recorder()
            with use_recorder(recorder):
                service.submit_many(queries, workers=workers)
            snapshots.append(
                recorder.snapshot()["histograms"]["serve.bandwidth_mbps"]
            )
        sequential, threaded = snapshots
        # Bucket state is bit-identical; only the float `sum` may differ
        # in the last bits (threads accumulate in completion order).
        for key in ("counts", "count", "min", "max", "scheme"):
            assert sequential[key] == threaded[key], key
        assert sequential["sum"] == pytest.approx(threaded["sum"])

    def test_slow_log_capacity_is_configurable(self):
        scenario, background, queries = _workload()
        service = AdmissionService(scenario.model, background, slow_log=3)
        service.submit_many(queries)
        assert service.flight.capacity == 3
        assert len(service.flight.slow_queries()) == 3
        assert service.flight.records_seen == len(queries)


class TestWireTelemetry:
    def test_decision_dict_gains_telemetry_fields(self):
        scenario = scenario_one()
        service = AdmissionService(scenario.model, scenario.background)
        decision = service.submit(
            AdmissionQuery("a", scenario.new_path, 1.0)
        )
        record = json.loads(json.dumps(decision_to_dict(decision)))
        assert record["trace_id"] == "t000001"
        assert record["result_cache"] == "miss"
        assert record["columns_cache"] == "miss"
        assert record["lp_cache"] == "miss"
        assert record["latency_seconds"] > 0.0

    def test_summary_percentiles_match_post_hoc_sort(self):
        """Streaming p50/p99 within one histogram bucket of the exact
        nearest-rank value over the per-decision latencies."""
        import math

        scenario, background, queries = _workload(repeats=3)
        service = AdmissionService(scenario.model, background)
        decisions = service.submit_many(queries)
        summary = summarize_decisions(decisions, wall_seconds=1.0)
        ordered = sorted(d.latency_seconds for d in decisions)
        for q, key in ((0.50, "p50_latency_seconds"), (0.99, "p99_latency_seconds")):
            rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
            exact = ordered[rank - 1]
            estimate = summary[key]
            # Sub-microsecond latencies share the first bucket, whose
            # upper edge is HISTOGRAM_LOWEST — hence the max() below.
            ceiling = max(exact * HISTOGRAM_FACTOR, HISTOGRAM_LOWEST)
            assert exact <= estimate <= ceiling * (1 + 1e-9)
        assert summary["p50_latency_seconds"] <= summary["p99_latency_seconds"]

    def test_summary_embeds_a_mergeable_histogram(self):
        scenario, background, queries = _workload()
        service = AdmissionService(scenario.model, background)
        summary = summarize_decisions(
            service.submit_many(queries), wall_seconds=1.0
        )
        histogram = Histogram.from_dict(summary["latency_histogram"])
        assert histogram.count == len(queries)
        assert histogram.quantile(0.5) == summary["p50_latency_seconds"]
        json.dumps(summary)


class TestServeCliTelemetry:
    def _write_queries(self, tmp_path):
        stream = tmp_path / "queries.jsonl"
        stream.write_text(
            '{"id": "q1", "path": ["n0", "n1", "n8"], "demand_mbps": 2.0}\n'
            '{"id": "q2", "path": ["n1", "n8"], "demand_mbps": 4.0}\n'
            '{"id": "q3", "path": ["n0", "n1", "n8"], "demand_mbps": 2.0}\n'
        )
        return stream

    def _serve(self, tmp_path, *extra):
        from repro.cli import main

        return main(
            [
                "serve",
                "--queries",
                str(self._write_queries(tmp_path)),
                "--paper-seed",
                "8",
                "--no-history",
                *extra,
            ]
        )

    def test_slow_log_flag_prints_table(self, tmp_path, capsys):
        assert self._serve(tmp_path, "--slow-log", "2") == 0
        out = capsys.readouterr().out
        assert "slow queries: 2 kept of 3 seen (capacity 2)" in out
        assert "lp iters" in out

    def test_metrics_out_is_valid_openmetrics(self, tmp_path, capsys):
        from repro.obs import validate_openmetrics

        path = tmp_path / "metrics.prom"
        assert self._serve(tmp_path, "--metrics-out", str(path)) == 0
        stats = validate_openmetrics(path.read_text())
        assert stats["families"] > 0
        text = path.read_text()
        assert "repro_serve_queries_total 3" in text
        assert "repro_serve_latency_seconds_bucket" in text

    def test_metrics_jsonl_stream_appends(self, tmp_path, capsys):
        from repro.obs import read_metrics_jsonl

        path = tmp_path / "metrics.jsonl"
        assert self._serve(tmp_path, "--metrics-jsonl", str(path)) == 0
        records = read_metrics_jsonl(str(path))
        assert records
        assert records[-1]["counters"]["serve.queries"] == 3
        assert "serve.latency_seconds" in records[-1]["histograms"]

    def test_json_document_carries_telemetry(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "decisions.json"
        code = main(
            [
                "serve",
                "--queries",
                str(self._write_queries(tmp_path)),
                "--paper-seed",
                "8",
                "--no-history",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        document = json.loads(out.read_text())
        by_id = {d["id"]: d for d in document["decisions"]}
        assert by_id["q1"]["result_cache"] == "miss"
        assert by_id["q3"]["result_cache"] == "hit"  # q1 repeated
        assert all(
            d["latency_seconds"] > 0.0 for d in document["decisions"]
        )
        assert "latency_histogram" in document["summary"]

    def test_trace_json_embeds_slow_queries(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "trace.json"
        code = main(
            [
                "serve",
                "--queries",
                str(self._write_queries(tmp_path)),
                "--paper-seed",
                "8",
                "--no-history",
                "--trace-json",
                str(trace),
            ]
        )
        assert code == 0
        document = json.loads(trace.read_text())
        slow = document["slow_queries"]
        assert slow["records_seen"] == 3
        assert {r["query_id"] for r in slow["records"]} == {"q1", "q2", "q3"}
        assert document["histograms"]["serve.latency_seconds"]["count"] == 3


class TestOverhead:
    """Per-query telemetry stays inside the 5% obs overhead budget."""

    #: Interleaved baseline/telemetry timing rounds; each side keeps its
    #: fastest round, so a host hiccup in a few rounds does not decide it.
    ROUNDS = 60

    def test_telemetry_overhead_under_five_percent(self):
        # Charge three times the real per-query telemetry (two histogram
        # observations and one flight-record offer per query) against the
        # serve baseline: the instrumentation must absorb a 3x margin.
        scenario, background, queries = _workload(repeats=3)
        n_queries = len(queries)
        recorder = Recorder()
        flight = FlightRecorder(DEFAULT_SLOW_LOG_SIZE)
        record = {
            "trace_id": "t000000",
            "query_id": "q",
            "latency_seconds": 0.001,
            "cache_state": "result",
            "result_cache": "hit",
            "columns_cache": "skipped",
            "lp_cache": "skipped",
            "columns": 0,
            "lp_iterations": 0,
            "lp_warm_start": False,
            "admitted": True,
            "demand_mbps": 1.0,
            "available_bandwidth_mbps": 10.0,
        }
        baseline = cost = float("inf")
        for _ in range(self.ROUNDS):
            service = AdmissionService(scenario.model, background)
            started = time.perf_counter()
            service.submit_many(queries)
            baseline = min(baseline, time.perf_counter() - started)
            started = time.perf_counter()
            for index in range(3 * n_queries):
                recorder.histogram("serve.latency_seconds", 0.001)
                recorder.histogram("serve.bandwidth_mbps", 10.0)
                latency = index * 1e-6
                flight.offer(latency, partial(dict, record, latency_seconds=latency))
            cost = min(cost, time.perf_counter() - started)
        assert cost < 0.05 * baseline, (
            f"{3 * n_queries} per-query telemetry ops took {cost:.6f}s "
            f"against a {baseline:.6f}s serve baseline"
        )
