"""Command-line entry point: regenerate any experiment's data.

Usage::

    repro list               # show available experiments
    repro run e2             # reproduce the Section 5.1 worked example
    repro run e4 e5          # several in one go
    repro serve --queries q.jsonl   # batch admission queries (repro.serve)
    repro explain --path n1,n2,n3 --demand 2   # why a decision came out
    python -m repro run e1   # module form

Resilience: sweeps are fault isolated — a failed sweep item is reported
(after the tables) instead of aborting the run, and ``--strict`` escalates
such partial results to exit code 1.  ``--checkpoint-dir DIR`` persists
per-item results so an interrupted run resumed with ``--resume`` skips
completed items and prints byte-identical tables.  ``--inject-faults``
activates the deterministic chaos harness (:mod:`repro.testing.faults`)
used by CI to exercise exactly these paths.

Observability: ``--trace`` prints the span tree, ``--trace-json`` /
``--trace-events`` write machine-readable reports (``-`` = stdout, after
the tables), and every traced run appends a record to the run-history
store (default ``.repro-history/``; ``--no-history`` opts out).  The
``repro obs`` group inspects that store: ``repro obs history``, ``repro
obs last``, ``repro obs diff A B [--strict]``, ``repro obs history
prune --keep N`` (compaction).  Telemetry: ``--metrics-out`` exports
OpenMetrics text, ``--metrics-jsonl`` appends periodic snapshots that
``repro obs tail -f`` renders live, and ``repro serve --slow-log``
prints the flight recorder's slowest queries.

Exit codes: 0 success (including absorbed partial failures), 1 solver or
model failure (infeasible problem, exhausted solver fallbacks, partial
failures under ``--strict``, or a trace regression under ``repro obs
diff --strict``), 2 usage errors (unknown experiment, bad configuration,
unusable checkpoint directory, unresolvable history refs).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import nullcontext
from operator import attrgetter
from typing import List, Optional

from repro.errors import CheckpointError, ConfigurationError, ReproError
from repro.experiments.checkpoint import CheckpointStore, use_checkpoint_store
from repro.experiments.failures import collect_failures, format_failures
from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.obs import (
    Recorder,
    TelemetrySession,
    get_recorder,
    history_store,
    use_recorder,
    write_json_document,
)
from repro.obs import history as obs_history

__all__ = ["main", "build_parser"]

#: Experiments that accept the random-topology workload parameters.
_CONFIGURABLE = {"e3", "e4", "e5", "x1", "x2"}


def _add_telemetry_flags(
    sub: argparse.ArgumentParser, timeline: bool = False
) -> None:
    """The tracing, metrics-export and run-history flags of ``run`` and
    ``serve`` (``timeline`` adds ``--trace-events``)."""
    sub.add_argument(
        "--trace",
        action="store_true",
        help="print a span tree and counters after the output (tracing "
        "never changes the results)",
    )
    sub.add_argument(
        "--trace-json",
        metavar="PATH",
        default=None,
        help="write the machine-readable run report (spans, counters, "
        "gauges, failures; schema-versioned JSON) to PATH ('-' = stdout, "
        "after the tables)",
    )
    if timeline:
        sub.add_argument(
            "--trace-events",
            metavar="PATH",
            default=None,
            help="record per-span begin/end events and write a Chrome "
            "trace-event JSON timeline to PATH ('-' = stdout) — load it "
            "in https://ui.perfetto.dev; parallel sweeps get one track "
            "per worker",
        )
    sub.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="export counters/gauges/histograms in the Prometheus/"
        "OpenMetrics text format to PATH ('-' = stdout), rewritten "
        "periodically while the command runs and once at the end",
    )
    sub.add_argument(
        "--metrics-jsonl",
        metavar="PATH",
        default=None,
        help="append one metrics snapshot per flush to this JSONL "
        "stream (render it live with 'repro obs tail -f PATH')",
    )
    sub.add_argument(
        "--metrics-interval",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="seconds between periodic metrics flushes (default 5)",
    )
    sub.add_argument(
        "--history-dir",
        metavar="DIR",
        default=None,
        help="run-history store a traced run appends its record to "
        f"(default {obs_history.DEFAULT_HISTORY_DIR!r})",
    )
    sub.add_argument(
        "--no-history",
        action="store_true",
        help="do not append this traced run to the run-history store",
    )


def _add_substrate_flags(sub: argparse.ArgumentParser) -> None:
    """The topology, model, background and enumeration-cap flags of
    ``serve`` and ``explain``."""
    sub.add_argument(
        "--topology",
        metavar="PATH",
        default=None,
        help="use this saved topology (repro.net.io JSON; default: the "
        "paper's 30-node random topology)",
    )
    sub.add_argument(
        "--paper-seed",
        type=int,
        default=8,
        help="placement seed of the default paper topology (default 8, "
        "the fig3 experiment's)",
    )
    sub.add_argument(
        "--model",
        choices=("protocol", "physical"),
        default="protocol",
        help="interference model (default protocol)",
    )
    sub.add_argument(
        "--background",
        metavar="PATH",
        default=None,
        help="JSONL background traffic: one "
        '{"path": [node, ...], "demand_mbps"} object per line',
    )
    sub.add_argument(
        "--max-sets",
        type=int,
        default=None,
        help="enumeration safety cap per link union (default unlimited)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the experiments of 'Available Bandwidth in "
            "Multirate and Multihop Wireless Sensor Networks' (ICDCS 2009)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command")
    subparsers.add_parser("list", help="list available experiments")
    verify_parser = subparsers.add_parser(
        "verify",
        help="check the paper's exact numbers, then run the "
        "differential oracle over random instances",
    )
    verify_parser.add_argument(
        "--instances",
        type=int,
        default=25,
        help="random instances for the differential oracle (default 25)",
    )
    verify_parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="base seed; every (seed, instances) pair replays exactly",
    )
    verify_parser.add_argument(
        "--profile",
        choices=("quick", "deep"),
        default="quick",
        help="'deep' adds the CSMA-simulation invariant and a finer "
        "schedule replay (default quick)",
    )
    verify_parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write a schema-versioned JSON report of the oracle run",
    )
    run_parser = subparsers.add_parser("run", help="run experiments by id")
    run_parser.add_argument(
        "experiments",
        nargs="+",
        metavar="ID",
        help="experiment ids (see 'repro list')",
    )
    run_parser.add_argument(
        "--topology-seed",
        type=int,
        default=None,
        help="node-placement seed for the random-topology experiments "
        f"({', '.join(sorted(_CONFIGURABLE))})",
    )
    run_parser.add_argument(
        "--flow-seed",
        type=int,
        default=None,
        help="flow-endpoint seed for the random-topology experiments",
    )
    run_parser.add_argument(
        "--flows",
        type=int,
        default=None,
        help="number of arriving flows for the random-topology experiments",
    )
    run_parser.add_argument(
        "--tile-size",
        type=int,
        default=None,
        help="path links per interference tile for the scaling study "
        "(x7 only; default 6 — smaller tiles are cheaper but widen the "
        "[LB, UB] bracket)",
    )
    run_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for experiments that sweep independent "
        "units (e3, e4, e5, s1); results are identical to a sequential run",
    )
    _add_telemetry_flags(run_parser, timeline=True)
    run_parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="persist per-item sweep results under DIR/<experiment-id> so "
        "an interrupted run can be resumed; without --resume an existing "
        "checkpoint for the experiment is cleared first",
    )
    run_parser.add_argument(
        "--resume",
        action="store_true",
        help="with --checkpoint-dir: skip items already completed by a "
        "previous run (tables are byte-identical to an uninterrupted run)",
    )
    run_parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when a sweep completes with partial failures "
        "(default: report them and exit 0)",
    )
    run_parser.add_argument(
        "--inject-faults",
        metavar="SPEC",
        default=None,
        help="testing only: deterministically inject faults, e.g. "
        "'solver@1' (fail the 1st LP solve's primary attempt), "
        "'solver-fatal@2' (exhaust every attempt of the 2nd solve), "
        "'worker@1' (crash the worker of the 1st sweep item); "
        "comma-separate to combine",
    )
    serve_parser = subparsers.add_parser(
        "serve",
        help="answer a JSONL admission-query stream through the "
        "caching service (repro.serve)",
    )
    serve_parser.add_argument(
        "--queries",
        metavar="PATH",
        default=None,
        help="JSONL query stream: one "
        '{"id", "path": [node, ...], "demand_mbps"} object per line '
        "(required unless --online)",
    )
    serve_parser.add_argument(
        "--online",
        action="store_true",
        help="serve a generated churn event stream (flow arrivals/"
        "departures + node down/up) through the incremental online "
        "admission controller instead of a --queries file",
    )
    serve_parser.add_argument(
        "--events",
        type=int,
        default=500,
        metavar="N",
        help="online mode: length of the churn event stream (default 500)",
    )
    serve_parser.add_argument(
        "--stream-seed",
        type=int,
        default=17,
        help="online mode: seed of the churn event stream (default 17, "
        "the churn-smoke CI lane's)",
    )
    serve_parser.add_argument(
        "--strict",
        action="store_true",
        help="online mode: cross-check every decision against a cold "
        "Eq. 6 solve (exact equality) and exit 1 on the first divergence",
    )
    serve_parser.add_argument(
        "--decisions-out",
        metavar="PATH",
        default=None,
        help="online mode: append each decision as one JSONL record to "
        "PATH (the exact wire format online_decision_from_dict reads)",
    )
    _add_substrate_flags(serve_parser)
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="serve query groups on N threads (default: sequential; "
        "answers are identical either way)",
    )
    serve_parser.add_argument(
        "--cache-capacity",
        type=int,
        default=64,
        help="LRU bound of the enumeration and master-LP caches "
        "(default 64 entries each)",
    )
    serve_parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the decisions and the summary as JSON to PATH "
        "('-' = stdout, after the table)",
    )
    serve_parser.add_argument(
        "--slow-log",
        nargs="?",
        type=int,
        const=10,
        default=None,
        metavar="K",
        help="print the flight recorder's K slowest queries after the "
        "table (default 10 when the flag is given bare)",
    )
    serve_parser.add_argument(
        "--explain",
        action="store_true",
        help="attach a dual-certificate explanation (binding cliques, "
        "marginal bandwidth, crowd-out) to every decision; rejections "
        "are explained after the table and --json embeds the full "
        "explanation per decision",
    )
    _add_telemetry_flags(serve_parser)
    explain_parser = subparsers.add_parser(
        "explain",
        help="explain one admission decision: dual certificate, binding "
        "cliques, crowd-out, and the bottleneck clique drawn over the "
        "topology",
    )
    explain_parser.add_argument(
        "query_id",
        nargs="?",
        default="query",
        help="label of the decision being explained (cosmetic; "
        "default 'query')",
    )
    explain_parser.add_argument(
        "--path",
        required=True,
        metavar="N1,N2,...",
        help="comma-separated node sequence of the candidate path",
    )
    explain_parser.add_argument(
        "--demand",
        type=float,
        default=None,
        metavar="MBPS",
        help="demand to admit; when given, the output leads with the "
        "admit/reject verdict",
    )
    _add_substrate_flags(explain_parser)
    explain_parser.add_argument(
        "--no-map",
        action="store_true",
        help="skip the ASCII topology rendering of the bottleneck clique",
    )
    explain_parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the explanation as JSON to PATH ('-' = stdout)",
    )
    obs_parser = subparsers.add_parser(
        "obs",
        help="inspect the run-history store and diff recorded traces",
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command")

    def add_history_dir(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--history-dir",
            metavar="DIR",
            default=None,
            help="run-history store to read "
            f"(default {obs_history.DEFAULT_HISTORY_DIR!r})",
        )

    history_parser = obs_sub.add_parser(
        "history",
        help="table of recorded runs (or one full record); "
        "'history prune' compacts the store",
    )
    add_history_dir(history_parser)
    history_parser.add_argument(
        "run_id",
        nargs="?",
        default=None,
        help="show this run's full record (id, unique prefix, 'last', "
        "'-2', ...) instead of the table; the literal 'prune' compacts "
        "the store instead (see --keep / --max-age)",
    )
    history_parser.add_argument(
        "--limit",
        type=int,
        default=20,
        help="rows in the table (default 20, newest kept)",
    )
    history_parser.add_argument(
        "--keep",
        type=int,
        default=None,
        metavar="N",
        help="with 'prune': keep only the newest N records",
    )
    history_parser.add_argument(
        "--max-age",
        type=float,
        default=None,
        metavar="DAYS",
        help="with 'prune': drop records older than DAYS days",
    )
    last_parser = obs_sub.add_parser(
        "last", help="show the most recent recorded run"
    )
    add_history_dir(last_parser)
    diff_parser = obs_sub.add_parser(
        "diff",
        help="counter/span deltas between two recorded runs",
    )
    add_history_dir(diff_parser)
    diff_parser.add_argument(
        "runs",
        nargs="*",
        metavar="RUN",
        help="two run refs (baseline, candidate) — ids, unique prefixes, "
        "'last', '-2', ...; default: the previous run vs the last",
    )
    diff_parser.add_argument(
        "--threshold",
        type=float,
        default=0.0,
        help="allowed relative counter growth before a regression is "
        "flagged (default 0: counters are deterministic)",
    )
    diff_parser.add_argument(
        "--span-threshold",
        type=float,
        default=None,
        help="also gate top-level span seconds at this relative growth "
        "(default: spans are reported, never gated — wall time is noisy)",
    )
    diff_parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when the diff flags a regression (default: report "
        "and exit 0)",
    )
    tail_parser = obs_sub.add_parser(
        "tail",
        help="render the newest snapshot of a metrics JSONL stream "
        "(--metrics-jsonl output)",
    )
    tail_parser.add_argument(
        "path",
        metavar="PATH",
        help="metrics JSONL stream written by --metrics-jsonl",
    )
    tail_parser.add_argument(
        "-f",
        "--follow",
        action="store_true",
        help="keep watching the stream and re-render on new snapshots",
    )
    tail_parser.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="poll interval with --follow (default 1)",
    )
    return parser


def _configured_runner(experiment_id: str, args: argparse.Namespace):
    """Resolve an experiment, honouring the workload flags when given."""
    workers = getattr(args, "workers", None)
    tile_size = getattr(args, "tile_size", None)
    if experiment_id == "x7" and tile_size is not None:
        from repro.experiments.scale_study import run_scale_study

        return _tagged(
            experiment_id, lambda: run_scale_study(tile_size=tile_size)
        )
    overrides = {
        "topology_seed": args.topology_seed,
        "flow_seed": args.flow_seed,
        "n_flows": args.flows,
    }
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if not overrides or experiment_id not in _CONFIGURABLE:
        return lambda: run_experiment(experiment_id, workers=workers)
    from repro.experiments.extensions import (
        run_admission_accuracy,
        run_joint_routing,
    )
    from repro.experiments.fig2_paths import run_fig2
    from repro.experiments.fig3_routing import Fig3Config, run_fig3
    from repro.experiments.fig4_estimation import run_fig4

    config = Fig3Config(**overrides)
    runner = {
        "e3": run_fig2,
        "e4": run_fig3,
        "e5": run_fig4,
        "x1": run_admission_accuracy,
        "x2": run_joint_routing,
    }[experiment_id]
    if workers is not None and experiment_id in {"e3", "e4", "e5"}:
        return _tagged(experiment_id, lambda: runner(config, workers=workers))
    return _tagged(experiment_id, lambda: runner(config))


def _tagged(experiment_id: str, run):
    """``run`` inside the experiment span, failure tag and run tally.

    The override paths bypass :func:`run_experiment`, so they open these
    themselves to keep traces, failure reports and history records
    uniform.
    """
    from repro.experiments.failures import tag_experiment

    def call():
        recorder = get_recorder()
        with recorder.span(f"experiment.{experiment_id}"), \
                tag_experiment(experiment_id):
            result = run()
        recorder.count("experiment.runs")
        return result

    return call


def _list_experiments() -> str:
    width = max(len(eid) for eid in EXPERIMENTS)
    lines = [
        f"  {spec.experiment_id:<{width}} "
        f"{'*' if spec.supports_workers else ' '} {spec.description}"
        for spec in EXPERIMENTS.values()
    ]
    lines.append("")
    lines.append("  * accepts --workers N (parallel sweep, identical output)")
    return "\n".join(["available experiments:"] + lines)


def _obs_tail(args: argparse.Namespace) -> int:
    """The ``repro obs tail`` command: render a metrics JSONL stream."""
    from repro.obs.metrics import format_metrics_table, read_metrics_jsonl

    last_key = None
    try:
        while True:
            try:
                records = read_metrics_jsonl(args.path)
            except OSError as error:
                if not args.follow:
                    print(str(error), file=sys.stderr)
                    return 2
                records = []
            if records:
                key = (len(records), records[-1].get("ts"))
                if key != last_key:
                    last_key = key
                    print(format_metrics_table(records[-1]))
            elif not args.follow:
                print(
                    f"{args.path}: no metrics snapshots", file=sys.stderr
                )
                return 2
            if not args.follow:
                return 0
            time.sleep(max(0.05, args.interval))
    except KeyboardInterrupt:
        return 0
    except BrokenPipeError:
        # Downstream (head, less) closed the pipe; that's a clean stop.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


def _obs_main(args: argparse.Namespace) -> int:
    """The ``repro obs`` group: history table, last record, trace diff."""
    if args.obs_command == "tail":
        return _obs_tail(args)
    store = history_store(getattr(args, "history_dir", None))
    if args.obs_command in (None, "history"):
        run_id = getattr(args, "run_id", None)
        if run_id == "prune":
            # Run ids are timestamp-prefixed, so the literal can never
            # shadow a real record.
            if args.keep is None and args.max_age is None:
                print(
                    "repro obs history prune needs --keep N and/or "
                    "--max-age DAYS",
                    file=sys.stderr,
                )
                return 2
            try:
                stats = store.prune(
                    keep=args.keep, max_age_days=args.max_age
                )
            except (OSError, ValueError) as error:
                print(str(error), file=sys.stderr)
                return 2
            print(
                f"pruned {store.path}: kept {stats['kept']}, removed "
                f"{stats['removed']}, dropped {stats['corrupt_dropped']} "
                "corrupt line(s)"
            )
            return 0
        records = store.runs()
        if run_id is None:
            limit = getattr(args, "limit", 20)
            print(obs_history.format_history_table(records, limit=limit))
            return 0
        try:
            record = store.resolve(run_id, records)
        except LookupError as error:
            print(str(error), file=sys.stderr)
            return 2
        write_json_document(record, "-")
        return 0
    if args.obs_command == "last":
        record = store.last()
        if record is None:
            print(
                f"history store {store.path} has no recorded runs",
                file=sys.stderr,
            )
            return 2
        write_json_document(record, "-")
        return 0
    # diff
    records = store.runs()
    refs = args.runs
    if refs and len(refs) != 2:
        print(
            "repro obs diff takes exactly two run refs (or none for "
            "'previous vs last')",
            file=sys.stderr,
        )
        return 2
    if not refs:
        if len(records) < 2:
            print(
                f"history store {store.path} holds "
                f"{len(records)} run(s); nothing to diff yet"
            )
            return 0
        refs = ["-2", "-1"]
    try:
        baseline = store.resolve(refs[0], records)
        candidate = store.resolve(refs[1], records)
    except LookupError as error:
        print(str(error), file=sys.stderr)
        return 2
    diff = obs_history.diff_runs(
        baseline,
        candidate,
        counter_threshold=args.threshold,
        span_threshold=args.span_threshold,
    )
    print(obs_history.format_diff(diff))
    if diff["regressions"] and args.strict:
        return 1
    return 0


def _serve_substrate(args: argparse.Namespace):
    """(network, model) for ``repro serve`` from the topology/model flags."""
    from repro.interference.physical import PhysicalInterferenceModel
    from repro.interference.protocol import ProtocolInterferenceModel

    if args.topology is not None:
        from repro.net.io import load_network

        network = load_network(args.topology)
    else:
        from repro.workloads.scenarios import paper_random_topology

        network = paper_random_topology(seed=args.paper_seed)
    model_type = (
        ProtocolInterferenceModel
        if args.model == "protocol"
        else PhysicalInterferenceModel
    )
    return network, model_type(network)


class _LinkSetTrace:
    """A labelled link set render_topology can trace like a path."""

    def __init__(self, label: str, links):
        self.label = label
        self.links = list(links)

    def __iter__(self):
        return iter(self.links)

    def __str__(self) -> str:
        return self.label


def _explain_main(args: argparse.Namespace) -> int:
    """The ``repro explain`` command: one decision, fully attributed."""
    from repro.core.bandwidth import _collect_links
    from repro.errors import TopologyError
    from repro.obs.explain import (
        explain_path_bandwidth,
        explanation_to_dict,
        format_explanation,
    )
    from repro.serve.io import load_background, path_from_nodes

    nodes = [node.strip() for node in args.path.split(",") if node.strip()]
    try:
        network, model = _serve_substrate(args)
        background = (
            load_background(args.background, network)
            if args.background is not None
            else []
        )
        path = path_from_nodes(network, nodes)
    except (OSError, json.JSONDecodeError, ConfigurationError) as error:
        print(str(error), file=sys.stderr)
        return 2

    try:
        result, explanation = explain_path_bandwidth(
            model, path, background, max_sets=args.max_sets
        )
    except ReproError as error:
        print(f"explain: {error}", file=sys.stderr)
        return 1

    bandwidth = result.available_bandwidth
    if args.demand is not None:
        verdict = "admit" if result.supports(args.demand) else "reject"
        print(
            f"{args.query_id}: {verdict} {args.demand:.3f} Mbps over "
            f"{' -> '.join(nodes)} ({bandwidth:.6f} Mbps available)"
        )
    else:
        print(
            f"{args.query_id}: {bandwidth:.6f} Mbps available over "
            f"{' -> '.join(nodes)}"
        )
    print(format_explanation(explanation))

    if not args.no_map:
        from repro.experiments.ascii_map import render_topology

        traces = [path]
        bottleneck = explanation.bottleneck
        if bottleneck is not None:
            links_by_id = {
                link.link_id: link
                for link in _collect_links(background, path)
            }
            traces.append(
                _LinkSetTrace(
                    "bottleneck clique "
                    f"{{{', '.join(bottleneck.links)}}}",
                    (
                        links_by_id[link_id]
                        for link_id in bottleneck.links
                        if link_id in links_by_id
                    ),
                )
            )
        print()
        try:
            print(render_topology(network, paths=traces))
        except TopologyError as error:
            print(f"(no topology map: {error})")

    if args.json is not None:
        write_json_document(
            {
                "id": args.query_id,
                "path": nodes,
                "demand_mbps": args.demand,
                "available_bandwidth_mbps": bandwidth,
                "explanation": explanation_to_dict(explanation),
            },
            args.json,
        )
    return 0


def _telemetry_session(
    args: argparse.Namespace, label: str
) -> TelemetrySession:
    """The telemetry session of ``run`` / ``serve`` from its flag group.

    History is recorded for traced runs only, and never under
    ``--no-history``.
    """
    trace_events = getattr(args, "trace_events", None)
    traced = (
        args.trace
        or args.trace_json is not None
        or trace_events is not None
    )
    return TelemetrySession(
        label,
        trace=args.trace,
        trace_json=args.trace_json,
        trace_events=trace_events,
        metrics_out=args.metrics_out,
        metrics_jsonl=args.metrics_jsonl,
        metrics_interval=args.metrics_interval,
        history=traced and not args.no_history,
        history_dir=args.history_dir,
    )


def _print_decision_table(decisions, decision_id, online: bool) -> None:
    """``repro serve``'s per-decision table (``online`` adds the carried
    flows column)."""
    width = max((len(decision_id(d)) for d in decisions), default=4)
    cache = 8 if online else 6
    print(
        f"{'flow' if online else 'query':<{width}}  {'decision':<8}  "
        f"{'avail Mbps':>10}  {'demand':>7}  {'cache':<{cache}}  "
        + (f"{'carried':>7}  " if online else "")
        + f"{'ms':>8}"
    )
    for decision in decisions:
        print(
            f"{decision_id(decision):<{width}}  "
            f"{'admit' if decision.admitted else 'reject':<8}  "
            f"{decision.available_bandwidth_mbps:>10.4f}  "
            f"{decision.demand_mbps:>7.3f}  "
            f"{decision.cache_state:<{cache}}  "
            + (f"{decision.carried_flows:>7}  " if online else "")
            + f"{decision.latency_seconds * 1e3:>8.3f}"
        )


def _serve_main(args: argparse.Namespace) -> int:
    """The ``repro serve`` command: a JSONL query stream through the
    caching service, or (``--online``) a churn stream through the
    incremental online controller."""
    from repro.errors import VerificationError
    from repro.fingerprint import fingerprint, network_fingerprint
    from repro.obs.explain import bottleneck_summary, format_explanation
    from repro.serve import (
        AdmissionService,
        OnlineAdmissionController,
        decision_to_dict,
        format_slow_log,
        load_background,
        load_queries,
        online_decision_to_dict,
        run_online_session,
        summarize_decisions,
        summarize_online_decisions,
    )
    from repro.workloads.scenarios import online_churn_workload

    online = args.online
    if online and args.queries is not None:
        print(
            "serve: --online generates its own event stream; "
            "--queries does not apply",
            file=sys.stderr,
        )
        return 2
    if not online and args.queries is None:
        print("serve: --queries is required unless --online", file=sys.stderr)
        return 2
    try:
        network, model = _serve_substrate(args)
        if online:
            workload = online_churn_workload(
                stream_seed=args.stream_seed,
                n_events=args.events,
                network=network,
                model=model,
            )
        else:
            background = (
                load_background(args.background, network)
                if args.background is not None
                else []
            )
            queries = load_queries(args.queries, network)
    except (OSError, json.JSONDecodeError, ConfigurationError) as error:
        print(str(error), file=sys.stderr)
        return 2
    if not online and not queries:
        print(f"{args.queries}: no queries", file=sys.stderr)
        return 2

    label = "serve-online" if online else "serve"
    session = _telemetry_session(args, label)
    options = {
        "max_sets": args.max_sets,
        "cache_capacity": args.cache_capacity,
        "explain": args.explain,
    }
    if args.slow_log is not None:
        options["slow_log"] = args.slow_log
    started = time.perf_counter()
    try:
        with session:
            if online:
                front_end = OnlineAdmissionController(
                    model, pin=args.strict, **options
                )
                decisions, wall_seconds = run_online_session(
                    front_end, workload.events
                )
            else:
                front_end = AdmissionService(model, background, **options)
                decisions = front_end.submit_many(
                    queries, workers=args.workers
                )
    except ConfigurationError as error:
        print(str(error), file=sys.stderr)
        return 2
    except VerificationError as error:
        print(f"serve --online --strict: {error}", file=sys.stderr)
        return 1
    except ReproError as error:
        print(f"serve: {error}", file=sys.stderr)
        return 1

    decision_id = attrgetter("flow_id" if online else "query_id")
    if not online:
        wall_seconds = time.perf_counter() - started
    _print_decision_table(decisions, decision_id, online)
    if online:
        summary = summarize_online_decisions(decisions, wall_seconds)
        print(
            f"{len(workload.events)} events, {summary['decisions']} "
            f"decisions ({summary['admitted']} admitted, "
            f"{summary['rejected']} rejected, {summary['unrouted']} "
            f"unrouted) in {wall_seconds:.3f}s — "
            f"{summary['decisions_per_second']:.1f} dec/s, "
            f"p50 {summary['p50_latency_seconds'] * 1e3:.3f} ms, "
            f"p99 {summary['p99_latency_seconds'] * 1e3:.3f} ms"
            + (" [strict: pinned to cold Eq. 6]" if args.strict else "")
        )
        to_dict = online_decision_to_dict
        workload_fields = {
            "stream_seed": args.stream_seed,
            "events": args.events,
            "strict": bool(args.strict),
        }
    else:
        summary = summarize_decisions(decisions, wall_seconds)
        print(
            f"{summary['queries']} queries ({summary['admitted']} "
            f"admitted, {summary['rejected']} rejected) "
            f"in {wall_seconds:.3f}s — "
            f"{summary['queries_per_second']:.1f} q/s, "
            f"p50 {summary['p50_latency_seconds'] * 1e3:.3f} ms, "
            f"p99 {summary['p99_latency_seconds'] * 1e3:.3f} ms"
        )
        to_dict = decision_to_dict
        workload_fields = {
            "queries": [
                [
                    query.query_id,
                    [link.link_id for link in query.path],
                    query.demand_mbps,
                ]
                for query in queries
            ]
        }
    if args.slow_log is not None:
        print()
        print(format_slow_log(front_end.flight))
    if args.explain:
        for decision in decisions:
            if decision.admitted or decision.explanation is None:
                continue
            print()
            print(f"why {decision_id(decision)} was rejected:")
            for line in format_explanation(decision.explanation).splitlines():
                print(f"  {line}")
    if online and args.decisions_out is not None:
        with open(args.decisions_out, "w", encoding="utf-8") as stream:
            for decision in decisions:
                stream.write(json.dumps(to_dict(decision)) + "\n")

    session.finish(
        [label],
        wall_seconds=wall_seconds,
        fingerprint=fingerprint(
            {
                "topology": network_fingerprint(network),
                "model": args.model,
                **workload_fields,
            }
        ),
        # None without --explain: unexplained decisions carry no block.
        bottleneck=bottleneck_summary(
            [decision.explanation for decision in decisions]
        ),
        extra={"slow_queries": front_end.flight.to_dict()},
    )
    if args.json is not None:
        write_json_document(
            {
                "summary": summary,
                "decisions": [to_dict(d) for d in decisions],
            },
            args.json,
        )
    return 0


def _run_main(args: argparse.Namespace) -> int:
    """The ``repro run`` command: experiments' tables, fault isolated."""
    if args.inject_faults is not None:
        from repro.testing.faults import inject_faults, plan_from_spec

        try:
            fault_scope = inject_faults(plan_from_spec(args.inject_faults))
        except ConfigurationError as error:
            print(str(error), file=sys.stderr)
            return 2
    else:
        fault_scope = nullcontext()
    session = _telemetry_session(args, "run")
    exit_code = 0
    ran: List[str] = []
    all_failures: List[object] = []
    started = time.perf_counter()
    with session, fault_scope:
        for experiment_id in args.experiments:
            if experiment_id not in EXPERIMENTS:
                print(f"unknown experiment: {experiment_id}", file=sys.stderr)
                exit_code = 2
                continue
            store = None
            if args.checkpoint_dir is not None:
                try:
                    store = CheckpointStore(
                        os.path.join(args.checkpoint_dir, experiment_id),
                        experiment_id,
                    )
                except CheckpointError as error:
                    print(str(error), file=sys.stderr)
                    exit_code = 2
                    continue
                if not args.resume:
                    store.clear_items()
            try:
                with collect_failures() as failures, \
                        use_checkpoint_store(store):
                    result = _configured_runner(experiment_id, args)()
            except ConfigurationError as error:
                print(str(error), file=sys.stderr)
                exit_code = 2
                continue
            except ReproError as error:
                print(f"{experiment_id}: {error}", file=sys.stderr)
                exit_code = max(exit_code, 1)
                continue
            ran.append(experiment_id)
            print(result.table())
            print()
            if failures:
                all_failures.extend(failures)
                print(format_failures(failures))
                print()
                if args.strict:
                    exit_code = max(exit_code, 1)
    session.finish(
        ran,
        wall_seconds=time.perf_counter() - started,
        fingerprint=obs_history.args_fingerprint(
            {
                "experiments": list(args.experiments),
                "topology_seed": args.topology_seed,
                "flow_seed": args.flow_seed,
                "flows": args.flows,
                "workers": args.workers,
                "tile_size": args.tile_size,
            }
        ),
        failures=all_failures,
        record_history=bool(ran),
    )
    return exit_code


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None or args.command == "list":
        print(_list_experiments())
        return 0
    if args.command == "obs":
        return _obs_main(args)
    if args.command == "serve":
        return _serve_main(args)
    if args.command == "explain":
        return _explain_main(args)
    if args.command == "verify":
        from repro.verify import (
            format_differential,
            format_verification,
            run_differential,
            run_verification,
            write_run_document,
        )

        checks = run_verification()
        print(format_verification(checks))
        recorder = Recorder()
        try:
            with use_recorder(recorder):
                run = run_differential(
                    instances=args.instances,
                    seed=args.seed,
                    profile=args.profile,
                )
        except ConfigurationError as error:
            print(str(error), file=sys.stderr)
            return 2
        print(format_differential(run))
        if args.json is not None:
            write_run_document(args.json, run, counters=recorder.counters)
        paper_ok = all(check.passed for check in checks)
        return 0 if paper_ok and run.passed else 1
    return _run_main(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
