#!/usr/bin/env python
"""Benchmark harness: run the ``benchmarks/bench_a*.py`` suite and record a
``BENCH_<date>.json`` trajectory file.

Five kinds of measurement go into the file:

* **solver scaling** — the bench-A6 chain instances re-measured directly
  (best of N repeats, fresh interference model per repeat so caches never
  carry over), with separate enumeration-only, end-to-end and
  column-generation timings; this is the number the perf acceptance
  criteria track across PRs;
* **serve throughput** — the bench-X5 admission-query stream answered
  cold (per-query re-solving) and warm (through ``repro.serve``), with
  queries/sec, p50/p99 decision latency and the ``serve.*`` cache
  counters;
* **online churn** — the X6 churn stream replayed through the
  incremental online controller and the rebuild-per-event baseline
  (identical decisions asserted), with decisions/sec, speedup, p50/p99
  latency and the ``online.*`` counters;
* **scale** — the bench-X7 fixed-seed scatter field estimated with the
  interference-tile decomposition and the exact global
  Eq. 6 enumeration, with the bracket asserted, the tiled-over-exact
  speedup, and the ``scale.*`` counters;
* **pytest pass/fail** of the ablation benchmark files, so a timing run
  also proves the benchmarks still assert the paper's facts.

The serve, online and scale measurements are the only implementation of
those three paths: ``benchmarks/bench_x5…x7`` call them and assert on
the ``(row, detail)`` pair each returns.

Runs are appended under distinct labels, so one file can hold the
pre-optimization baseline and the post-optimization numbers side by side::

    python tools/bench_runner.py --label optimized
    python tools/bench_runner.py --smoke          # CI: errors fail, timing never does

The harness only ever *adds* runs to an existing file for the same date —
it never rewrites history.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path as _FsPath

REPO_ROOT = _FsPath(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: Chain lengths (hops) of the solver-scaling measurement — bench A6's
#: LENGTHS, including the 10-hop size the optimized enumeration affords.
LENGTHS = (4, 6, 8, 10)
#: Repeats per instance; the minimum is reported (steady-state floor).
REPEATS = 3


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()
    except Exception:
        return "unknown"


def _merge_segment(recorder, prefix, under, seconds, spans=None):
    """Graft a segment's ``prefix``-named metrics into the ambient recorder.

    Only the segment's own counters, gauges and histograms are copied
    (plus its span tree, or ``spans``, under ``under``), so its LP and
    enumeration work never inflates the gated solver counters of the
    scaling segments.  Returns the copied counters.
    """
    from repro.obs import get_recorder

    snapshot = recorder.snapshot()

    def own(block):
        return {
            name: value
            for name, value in snapshot.get(block, {}).items()
            if name.startswith(prefix)
        }

    counters = own("counters")
    get_recorder().merge(
        {
            "counters": counters,
            "gauges": own("gauges"),
            "histograms": own("histograms"),
            "spans": snapshot["spans"] if spans is None else spans,
        },
        under=under,
        seconds=seconds,
    )
    return counters


def measure_solver_scaling(lengths=LENGTHS, repeats=REPEATS):
    """Bench-A6 instances, timed directly (fresh model per repeat).

    Each timed segment runs under its own ``repro.obs`` recorder; the
    segment's counter snapshot (DFS nodes, cache hits, CG iterations, LP
    solves …) lands in the row's ``counters`` key, so the trajectory file
    records *why* a timing moved, not just that it did.  Counters are
    deterministic per instance, so the last repeat's snapshot stands for
    all of them.  The segments' span trees are also grafted into the
    ambient recorder (when one is active) for ``--trace-json``.
    """
    from repro import Path, available_path_bandwidth, solve_with_column_generation
    from repro.core.independent_sets import enumerate_maximal_independent_sets
    from repro.interference.protocol import ProtocolInterferenceModel
    from repro.net.generators import chain_topology
    from repro.obs import Recorder, get_recorder, use_recorder

    ambient = get_recorder()
    rows = []
    for hops in lengths:
        network = chain_topology(hops + 1, 70.0)
        path = Path(
            [network.link_between(f"n{i}", f"n{i + 1}") for i in range(hops)]
        )
        enum_seconds = end_to_end_seconds = cg_seconds = float("inf")
        exact = cg = None
        counters = {}
        for _ in range(repeats):
            model = ProtocolInterferenceModel(network)
            recorder = Recorder()
            started = time.perf_counter()
            with use_recorder(recorder):
                sets = enumerate_maximal_independent_sets(
                    model, list(path.links)
                )
            elapsed = time.perf_counter() - started
            enum_seconds = min(enum_seconds, elapsed)
            counters["enumeration"] = recorder.counters
            ambient.merge(
                recorder.snapshot(),
                under=f"bench.enum[{hops}]",
                seconds=elapsed,
            )

            model = ProtocolInterferenceModel(network)
            recorder = Recorder()
            started = time.perf_counter()
            with use_recorder(recorder):
                exact = available_path_bandwidth(model, path)
            elapsed = time.perf_counter() - started
            end_to_end_seconds = min(end_to_end_seconds, elapsed)
            counters["end_to_end"] = recorder.counters
            ambient.merge(
                recorder.snapshot(),
                under=f"bench.end_to_end[{hops}]",
                seconds=elapsed,
            )

            model = ProtocolInterferenceModel(network)
            recorder = Recorder()
            started = time.perf_counter()
            with use_recorder(recorder):
                cg = solve_with_column_generation(model, path)
            elapsed = time.perf_counter() - started
            cg_seconds = min(cg_seconds, elapsed)
            counters["column_generation"] = recorder.counters
            ambient.merge(
                recorder.snapshot(),
                under=f"bench.cg[{hops}]",
                seconds=elapsed,
            )
        if abs(
            cg.result.available_bandwidth - exact.available_bandwidth
        ) > 1e-6 * max(1.0, abs(exact.available_bandwidth)):
            raise AssertionError(
                f"optimum mismatch at {hops} hops: enumeration "
                f"{exact.available_bandwidth} vs column generation "
                f"{cg.result.available_bandwidth}"
            )
        rows.append(
            {
                "hops": hops,
                "optimum_mbps": exact.available_bandwidth,
                "cg_optimum_mbps": cg.result.available_bandwidth,
                "columns_enumerated": len(exact.independent_sets),
                "columns_generated": cg.columns_generated,
                "independent_sets": len(sets),
                "enumeration_seconds": enum_seconds,
                "end_to_end_seconds": end_to_end_seconds,
                "cg_seconds": cg_seconds,
                "counters": counters,
            }
        )
    return rows


def measure_serve_throughput(repeats: int = REPEATS):
    """Serving-layer throughput: cold per-query re-solving vs warm cache.

    Serves :func:`repro.workloads.scenarios.admission_query_workload`
    (the 30-node paper topology) both ways, best of ``repeats``, and
    asserts the answers are identical before reporting.  The segment
    runs under its own recorder; only its ``serve.*`` metrics reach the
    ambient recorder, under ``bench.serve`` (:func:`_merge_segment`).

    Returns ``(row, detail)``: ``row`` is the BENCH-file entry and
    ``detail`` holds the ``workload``, the warm ``decisions``, the
    ``cold`` answers by query id and the last repeat's ``recorder``
    (every counter and histogram, not only the merged ``serve.*`` ones).
    """
    from repro.core.bandwidth import available_path_bandwidth
    from repro.obs import Recorder, use_recorder
    from repro.serve import AdmissionService, summarize_decisions
    from repro.workloads.scenarios import admission_query_workload

    workload = admission_query_workload()
    cold_seconds = warm_seconds = float("inf")
    cold = {}
    decisions = []
    recorder = Recorder()
    for _ in range(repeats):
        recorder = Recorder()
        started = time.perf_counter()
        with use_recorder(recorder):
            cold = {}
            for query in workload.queries:
                result = available_path_bandwidth(
                    workload.model, query.path, workload.background
                )
                cold[query.query_id] = (
                    result.available_bandwidth,
                    result.supports(query.demand_mbps),
                )
        cold_seconds = min(cold_seconds, time.perf_counter() - started)

        started = time.perf_counter()
        with use_recorder(recorder):
            service = AdmissionService(workload.model, workload.background)
            decisions = service.submit_many(workload.queries)
        warm_seconds = min(warm_seconds, time.perf_counter() - started)
    # Counters are deterministic per repeat; the last repeat's recorder
    # stands for all of them (mirrors measure_solver_scaling).
    serve_counters = _merge_segment(
        recorder, "serve.", "bench.serve", cold_seconds + warm_seconds
    )
    for decision in decisions:
        bandwidth, admitted = cold[decision.query_id]
        if (
            decision.available_bandwidth_mbps != bandwidth
            or decision.admitted != admitted
        ):
            raise AssertionError(
                f"serve mismatch on {decision.query_id}: warm "
                f"({decision.available_bandwidth_mbps}, {decision.admitted}) "
                f"vs cold ({bandwidth}, {admitted})"
            )
    summary = summarize_decisions(decisions, warm_seconds)
    row = {
        "queries": len(workload.queries),
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds,
        "cold_qps": len(workload.queries) / cold_seconds,
        "warm_qps": summary["queries_per_second"],
        "p50_latency_seconds": summary["p50_latency_seconds"],
        "p99_latency_seconds": summary["p99_latency_seconds"],
        "admitted": summary["admitted"],
        "counters": serve_counters,
    }
    detail = {
        "workload": workload,
        "decisions": decisions,
        "cold": cold,
        "recorder": recorder,
    }
    return row, detail


def decision_essence(decision):
    """An online decision minus what legitimately differs between the
    incremental and rebuild controllers: latency and the cache path."""
    return (
        decision.seq,
        decision.flow_id,
        decision.routed,
        decision.path_nodes,
        decision.admitted,
        decision.available_bandwidth_mbps,
        decision.carried_flows,
        decision.fingerprint,
    )


def measure_online_churn(repeats: int = REPEATS, n_events: int = 500):
    """Online admission under churn: incremental vs rebuild-per-event.

    Replays :func:`repro.workloads.scenarios.online_churn_workload` (the
    churn-smoke CI stream) through the incremental controller and the
    rebuild-per-event baseline, best of ``repeats`` each, and asserts
    the decision streams are identical (byte-identity is the contract —
    the caches may only change *cost*, never an answer) before
    reporting.  Each controller runs under its own recorder so the
    baseline's ``online.rebuild_fallbacks`` cannot pollute the
    incremental controller's gated counters; only the incremental
    side's ``online.*`` metrics are merged into the ambient recorder
    (plus both span trees under ``bench.online``).

    Returns ``(row, detail)``: ``detail`` holds the ``workload``, both
    decision streams (``decisions`` and ``rebuild_decisions``) and the
    incremental side's last ``recorder``.
    """
    from repro.obs import Recorder, use_recorder
    from repro.serve import summarize_online_decisions
    from repro.serve.online import OnlineAdmissionController, run_online_session
    from repro.workloads.scenarios import online_churn_workload

    workload = online_churn_workload(n_events=n_events)
    online_seconds = rebuild_seconds = float("inf")
    online_decisions = []
    rebuild_decisions = []
    recorder = Recorder()
    spans = []
    for _ in range(repeats):
        recorder = Recorder()
        with use_recorder(recorder):
            controller = OnlineAdmissionController(workload.model)
            online_decisions, wall = run_online_session(
                controller, workload.events
            )
        online_seconds = min(online_seconds, wall)

        rebuild_recorder = Recorder()
        with use_recorder(rebuild_recorder):
            baseline = OnlineAdmissionController(
                workload.model, incremental=False
            )
            rebuild_decisions, wall = run_online_session(
                baseline, workload.events
            )
        rebuild_seconds = min(rebuild_seconds, wall)
        spans = (
            recorder.snapshot()["spans"]
            + rebuild_recorder.snapshot()["spans"]
        )

    if len(online_decisions) != len(rebuild_decisions):
        raise AssertionError(
            f"online churn decision counts diverged: incremental "
            f"{len(online_decisions)} vs rebuild {len(rebuild_decisions)}"
        )
    for warm, cold in zip(online_decisions, rebuild_decisions):
        if decision_essence(warm) != decision_essence(cold):
            raise AssertionError(
                f"online churn decision diverged on {warm.flow_id}: "
                f"incremental {decision_essence(warm)} vs rebuild "
                f"{decision_essence(cold)}"
            )

    online_counters = _merge_segment(
        recorder,
        "online.",
        "bench.online",
        online_seconds + rebuild_seconds,
        spans=spans,
    )
    summary = summarize_online_decisions(online_decisions, online_seconds)
    row = {
        "events": len(workload.events),
        "decisions": len(online_decisions),
        "online_seconds": online_seconds,
        "rebuild_seconds": rebuild_seconds,
        "speedup": rebuild_seconds / online_seconds,
        "online_dps": summary["decisions_per_second"],
        "rebuild_dps": len(rebuild_decisions) / rebuild_seconds,
        "p50_latency_seconds": summary["p50_latency_seconds"],
        "p99_latency_seconds": summary["p99_latency_seconds"],
        "admitted": summary["admitted"],
        "counters": online_counters,
    }
    detail = {
        "workload": workload,
        "decisions": online_decisions,
        "rebuild_decisions": rebuild_decisions,
        "recorder": recorder,
    }
    return row, detail


def scale_field(n_nodes: int, width_m: float, height_m: float):
    """The bench-X7 fixed-seed scatter field: ``(model, path, background)``.

    ``path`` runs from ``n0`` to the node farthest from it in hops; two
    shortest-path background flows of 0.5 Mbps cross the field.
    """
    import networkx as nx

    from repro.interference.protocol import ProtocolInterferenceModel
    from repro.net.generators import scatter_topology
    from repro.net.path import Path

    network = scatter_topology(n_nodes, width_m, height_m, seed=8)
    model = ProtocolInterferenceModel(network)
    graph = network.to_digraph()
    reachable = nx.single_source_shortest_path(graph, "n0")
    farthest = max(reachable, key=lambda node: len(reachable[node]))
    hops = reachable[farthest]
    new_path = Path(
        network.link_between(a, b) for a, b in zip(hops, hops[1:])
    )
    background = []
    for source, destination in (
        ("n5", f"n{n_nodes // 2}"),
        (f"n{n_nodes // 3}", f"n{n_nodes - 3}"),
    ):
        try:
            bg_hops = nx.shortest_path(graph, source, destination)
        except nx.NetworkXException:
            continue
        if len(bg_hops) >= 2:
            background.append(
                (
                    Path(
                        network.link_between(a, b)
                        for a, b in zip(bg_hops, bg_hops[1:])
                    ),
                    0.5,
                )
            )
    return model, new_path, background


def measure_scale(repeats: int = REPEATS, n_nodes: int = 192):
    """Tiled estimation at scale: the bench-X7 scatter field re-measured.

    Builds :func:`scale_field` at constant node density (192 nodes on
    850 × 1275 m in full runs, a smaller field in smoke), times the
    interference-tile estimate best of ``repeats`` (fresh recorder per
    repeat so nothing carries over), times the exact global Eq. 6
    enumeration and asserts the tiled bracket contains its optimum
    before reporting.  Only the segment's ``scale.*`` metrics are merged
    into the ambient recorder, under ``bench.scale``; the field build and
    the exact solve run under a private recorder for the same reason
    (:func:`_merge_segment`).

    Returns ``(row, detail)``: ``detail`` holds the tiled ``estimate``,
    the ``field`` it was computed on and the last repeat's ``recorder``.
    """
    from repro.core.bandwidth import available_path_bandwidth
    from repro.obs import Recorder, use_recorder
    from repro.scale import TileConfig, tiled_path_bandwidth

    private = Recorder()
    side = (n_nodes / 192.0) ** 0.5
    with use_recorder(private):
        field = scale_field(n_nodes, 850.0 * side, 1275.0 * side)
    model, new_path, background = field

    tiled_seconds = float("inf")
    estimate = None
    recorder = Recorder()
    for _ in range(repeats):
        recorder = Recorder()
        with use_recorder(recorder):
            started = time.perf_counter()
            estimate = tiled_path_bandwidth(
                model, new_path, background, TileConfig(tile_size=6)
            )
            tiled_seconds = min(
                tiled_seconds, time.perf_counter() - started
            )
    recorder.gauge("scale.estimate_seconds", tiled_seconds)
    scale_counters = _merge_segment(
        recorder, "scale.", "bench.scale", tiled_seconds
    )
    exact_seconds = float("inf")
    exact_mbps = None
    for _ in range(max(1, repeats - 1)):
        started = time.perf_counter()
        with use_recorder(private):
            exact_mbps = available_path_bandwidth(
                model, new_path, background
            ).available_bandwidth
        exact_seconds = min(exact_seconds, time.perf_counter() - started)
    tolerance = 1e-6 * max(1.0, abs(exact_mbps))
    if not (
        estimate.lower_bound <= exact_mbps + tolerance
        and exact_mbps <= estimate.upper_bound + tolerance
    ):
        raise AssertionError(
            f"tiled bracket [{estimate.lower_bound}, "
            f"{estimate.upper_bound}] does not contain the exact "
            f"optimum {exact_mbps} at {n_nodes} nodes"
        )
    row = {
        "nodes": n_nodes,
        "hops": len(new_path),
        "tiles": len(estimate.tiles),
        "columns": estimate.columns,
        "lower_bound_mbps": estimate.lower_bound,
        "upper_bound_mbps": estimate.upper_bound,
        "tiled_seconds": tiled_seconds,
        "counters": scale_counters,
        "exact_mbps": exact_mbps,
        "exact_seconds": exact_seconds,
        "speedup": exact_seconds / tiled_seconds,
    }
    detail = {"estimate": estimate, "field": field, "recorder": recorder}
    return row, detail


def run_pytest_benchmarks(smoke: bool = False):
    """Run the ablation benchmark files under pytest.

    In smoke mode the expensive timing plugin is skipped and only the A*
    files run (collection or assertion errors fail, timings never do).
    """
    targets = sorted(
        str(p.relative_to(REPO_ROOT))
        for p in (REPO_ROOT / "benchmarks").glob("bench_a*.py")
    )
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        "-q",
        "-p",
        "no:cacheprovider",
        "--benchmark-disable",
        *targets,
    ]
    completed = subprocess.run(
        cmd,
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    tail = "\n".join(completed.stdout.strip().splitlines()[-3:])
    return {
        "command": " ".join(cmd[2:]),
        "returncode": completed.returncode,
        "summary": tail,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--label",
        default="run",
        help="name for this run inside the JSON file (e.g. seed, optimized)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI mode: 4-hop instance only, one repeat, no JSON write; "
        "exit non-zero on errors, never on timings",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="output path (default BENCH_<date>.json in the repo root)",
    )
    parser.add_argument(
        "--skip-pytest",
        action="store_true",
        help="record solver-scaling timings only",
    )
    parser.add_argument(
        "--trace-json",
        metavar="PATH",
        default=None,
        help="also write the repro.obs run report (spans + counters of the "
        "solver-scaling measurement) to PATH",
    )
    parser.add_argument(
        "--trace-events",
        metavar="PATH",
        default=None,
        help="record per-span events during the measurement and write a "
        "Chrome trace-event timeline (Perfetto-loadable) to PATH",
    )
    parser.add_argument(
        "--history-dir",
        metavar="DIR",
        default=None,
        help="append this measurement's record (counters, span totals, "
        "environment) to the repro.obs run-history store under DIR — "
        "the CI bench gate diffs consecutive records",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="export the measurement's counters/gauges/histograms in "
        "the OpenMetrics text format to PATH, rewritten every 5 s and "
        "once at the end",
    )
    parser.add_argument(
        "--metrics-jsonl",
        metavar="PATH",
        default=None,
        help="append a metrics snapshot line (JSONL) to PATH every 5 s "
        "during the measurement and once at its end — slo_check.py and "
        "'repro obs tail' read the newest line",
    )
    args = parser.parse_args(argv)

    from repro.obs import TelemetrySession, args_fingerprint

    # Smoke sizes: one 4-hop chain, one repeat, a 200-event churn stream
    # and a 96-node field; full runs use the measurements' defaults.
    lengths, repeats, n_events, n_nodes = (
        ((4,), 1, 200, 96) if args.smoke else (LENGTHS, REPEATS, 500, 192)
    )
    session = TelemetrySession(
        "bench-smoke" if args.smoke else args.label,
        trace_json=args.trace_json,
        trace_events=args.trace_events,
        metrics_out=args.metrics_out,
        metrics_jsonl=args.metrics_jsonl,
        history=args.history_dir is not None,
        history_dir=args.history_dir,
    )
    started = time.perf_counter()
    with session:
        scaling = measure_solver_scaling(lengths=lengths, repeats=repeats)
        serve_row, _ = measure_serve_throughput(repeats=repeats)
        online_row, _ = measure_online_churn(
            repeats=repeats, n_events=n_events
        )
        scale_row, _ = measure_scale(repeats=repeats, n_nodes=n_nodes)
    wall = time.perf_counter() - started
    pytest_result = None
    if not args.smoke and not args.skip_pytest:
        pytest_result = run_pytest_benchmarks()
    passed = pytest_result is None or pytest_result["returncode"] == 0
    # Like the BENCH file, history only records runs whose assertions held.
    session.finish(
        ["bench"],
        wall_seconds=wall,
        fingerprint=args_fingerprint(
            {"lengths": list(lengths), "repeats": repeats}
        ),
        record_history=passed,
    )

    if args.smoke:
        print(
            f"smoke solver scaling ok: {scaling[0]['optimum_mbps']:.4f} Mbps"
        )
        print(
            f"smoke serve throughput ok: {serve_row['speedup']:.1f}x warm "
            f"over cold ({serve_row['warm_qps']:.0f} q/s, "
            f"p99 {serve_row['p99_latency_seconds'] * 1e3:.3f} ms)"
        )
        print(
            f"smoke online churn ok: {online_row['speedup']:.1f}x "
            f"incremental over rebuild ({online_row['decisions']} decisions, "
            f"{online_row['online_dps']:.0f} dec/s, "
            f"p99 {online_row['p99_latency_seconds'] * 1e3:.3f} ms)"
        )
        # No speedup in the smoke line: exact is cheap at smoke size, so
        # the ratio is noise there — the bracket assertion is the point.
        print(
            f"smoke scale ok: {scale_row['nodes']} nodes, "
            f"{scale_row['tiles']} tiles, bracket "
            f"[{scale_row['lower_bound_mbps']:.3f}, "
            f"{scale_row['upper_bound_mbps']:.3f}] Mbps contains "
            f"exact {scale_row['exact_mbps']:.3f}"
        )
        pytest_result = run_pytest_benchmarks(smoke=True)
        print(pytest_result["summary"])
        return 0 if pytest_result["returncode"] == 0 else 1

    run_entry = {
        "label": args.label,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "solver_scaling": scaling,
        "serve_throughput": serve_row,
        "online_churn": online_row,
        "scale": scale_row,
    }
    if pytest_result is not None:
        run_entry["pytest_benchmarks"] = pytest_result
    if not passed:
        print(pytest_result["summary"], file=sys.stderr)
        print("benchmark suite FAILED; not recording run", file=sys.stderr)
        return 1

    date = _dt.date.today().isoformat()
    output = (
        _FsPath(args.output)
        if args.output
        else REPO_ROOT / f"BENCH_{date}.json"
    )
    if output.exists():
        document = json.loads(output.read_text())
    else:
        document = {"date": date, "runs": []}
    document["runs"].append(run_entry)
    output.write_text(json.dumps(document, indent=2) + "\n")

    print(f"recorded run {args.label!r} -> {output}")
    header = f"{'hops':>5} {'enum ms':>9} {'e2e ms':>9} {'cg ms':>9} {'optimum':>9}"
    print(header)
    for row in run_entry["solver_scaling"]:
        print(
            f"{row['hops']:>5} {row['enumeration_seconds'] * 1e3:>9.3f} "
            f"{row['end_to_end_seconds'] * 1e3:>9.3f} "
            f"{row['cg_seconds'] * 1e3:>9.3f} {row['optimum_mbps']:>9.4f}"
        )
    print(
        f"serve: {serve_row['queries']} queries, "
        f"{serve_row['speedup']:.1f}x warm over cold "
        f"({serve_row['cold_qps']:.0f} -> {serve_row['warm_qps']:.0f} q/s), "
        f"p50 {serve_row['p50_latency_seconds'] * 1e3:.3f} ms, "
        f"p99 {serve_row['p99_latency_seconds'] * 1e3:.3f} ms"
    )
    print(
        f"online: {online_row['events']} events, "
        f"{online_row['speedup']:.1f}x incremental over rebuild "
        f"({online_row['rebuild_dps']:.0f} -> {online_row['online_dps']:.0f} "
        f"dec/s), p99 {online_row['p99_latency_seconds'] * 1e3:.3f} ms"
    )
    print(
        f"scale: {scale_row['nodes']} nodes, {scale_row['tiles']} tiles, "
        f"{scale_row['speedup']:.1f}x tiled over exact "
        f"({scale_row['exact_seconds'] * 1e3:.1f} -> "
        f"{scale_row['tiled_seconds'] * 1e3:.1f} ms), bracket "
        f"[{scale_row['lower_bound_mbps']:.3f}, "
        f"{scale_row['upper_bound_mbps']:.3f}] vs "
        f"{scale_row['exact_mbps']:.3f} Mbps"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
