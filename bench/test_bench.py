"""Tests of the benchmark itself, at tiny sizes.

Run with ``PYTHONPATH=src python -m pytest bench/``.  Each workload is
built at a tiny size through its constructor arguments and run in this
process, untraced and traced.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from bench import DEFAULT_SECONDS, WORKLOAD_NAMES, should_move
from bench import tracer as tracer_module
from bench.tracer import LAYERS, Tracer, TracerError, leftover_wrappers
from bench.worker import SETUP_PROBES, run_workload
from bench.workloads import WORKLOADS, OnlineChurn, ScaleField, ServeFresh, ServeHot

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "serve-hot": lambda: ServeHot(backgrounds=2, repeats=1),
    "serve-fresh": lambda: ServeFresh(backgrounds=2, queries=6),
    "online-churn": lambda: OnlineChurn(events=120, node_churn=2),
    "scale-field": lambda: ScaleField(
        sizes=(48,), paths=4, hops=(3, 6), exact_nodes=48, exact_repeats=1
    ),
}


@pytest.fixture(scope="module", params=WORKLOAD_NAMES)
def runs(request, tmp_path_factory):
    name = request.param
    trace_out = tmp_path_factory.mktemp("trace") / f"{name}.json"
    untraced = run_workload(TINY[name](), seed=1, seconds=0.3, setup_repeats=2)
    traced = run_workload(
        TINY[name](), seed=1, seconds=0.6, trace=True, trace_out=str(trace_out)
    )
    return untraced, traced, trace_out


def _declared(section):
    return {entry["name"]: entry["unit"] for entry in DECLARED[section]}


def test_benchmark_json_matches_the_package():
    # The format takes exactly these keys; anything more is refused.
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert DECLARED["command"] == ["python3", "-m", "bench"]
    assert DECLARED["paths"] == ["bench"]
    assert DECLARED["run_seconds"] == DEFAULT_SECONDS
    assert [entry["name"] for entry in DECLARED["workloads"]] == list(WORKLOAD_NAMES)
    assert tuple(WORKLOADS) == WORKLOAD_NAMES
    for entry in DECLARED["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0.0 < entry["bound"] <= 0.25
    for entry in DECLARED["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    bounds = {entry["name"]: entry["bound"] for entry in DECLARED["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_every_per_layer_metric_names_what_it_should_move():
    end_to_end = _declared("end_to_end")
    for entry in DECLARED["per_layer"]:
        for metric, workload in should_move(entry["name"]):
            assert metric in end_to_end, entry["name"]
            assert workload in WORKLOAD_NAMES, entry["name"]
    for layer in LAYERS:
        assert should_move(f"{layer}.self_s"), layer


def test_printed_metrics_are_exactly_the_declared_ones(runs):
    untraced, traced, _ = runs
    printed = {name: entry["unit"] for name, entry in untraced["metrics"].items()}
    assert printed == _declared("end_to_end")
    printed = {name: entry["unit"] for name, entry in traced["metrics"].items()}
    assert printed == _declared("per_layer")


def test_tiny_runs_pass_their_output_checks(runs):
    for result in runs[:2]:
        assert result["correct"], result["details"]["check_failures"]
        assert result["failed"] == 0
        assert result["attempted"] >= 1


def test_timings_are_scaled_by_the_host_probe(runs):
    untraced, _, _ = runs
    metrics, details = untraced["metrics"], untraced["details"]
    slowdown, raw = details["host_slowdown"], details["raw"]
    assert details["probe_samples"] > 2 * SETUP_PROBES
    assert metrics["ops_per_s"]["value"] == pytest.approx(raw["ops_per_s"] * slowdown)
    assert metrics["latency_p50_ms"]["value"] == pytest.approx(
        raw["latency_p50_ms"] / slowdown
    )


def test_self_times_fit_in_the_traced_wall(runs):
    _, traced, _ = runs
    metrics = traced["metrics"]
    wall = traced["details"]["wall_s"]
    layers = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
    assert 0.0 <= layers <= wall
    total = layers + metrics["unattributed.self_s"]["value"]
    assert total == pytest.approx(wall, rel=0.05, abs=1e-3)


def test_trace_file_holds_nested_spans(runs):
    _, traced, trace_out = runs
    events = json.loads(trace_out.read_text(encoding="utf-8"))["traceEvents"]
    assert len(events) == traced["details"]["trace_spans"]
    ids = {event["args"]["id"] for event in events}
    assert {"bench.setup", "bench.loop", "frontend"} <= {event["name"] for event in events}
    assert all(event["args"]["parent"] in ids | {-1} for event in events)


def test_wrappers_are_gone_after_a_traced_run(runs):
    import repro.core.bandwidth as bandwidth
    import repro.serve.service as service

    assert leftover_wrappers() == []
    assert service._collect_links is bandwidth._collect_links
    assert not hasattr(service.AdmissionService.submit, "__bench_layer__")


def test_a_renamed_entry_point_fails_loudly(monkeypatch):
    renamed = ("route", "repro.routing.shortest_path", "route_renamed")
    monkeypatch.setattr(tracer_module, "TARGETS", tracer_module.TARGETS + (renamed,))
    with pytest.raises(TracerError, match="route_renamed"):
        Tracer().install()
    assert leftover_wrappers() == []
