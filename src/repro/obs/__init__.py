"""Observability: tracing, counters and run reports for the solver stack.

The solver layers (enumeration, column generation, LPs, the MAC
simulator, the experiment runner) are instrumented with named spans and
counters that record *where* a run spends time and *what* the solvers did
— cache hits, DFS nodes, pricing rounds, LP dimensions.  Instrumentation
is off by default (a null recorder absorbs everything at ~one attribute
lookup per site) and never changes results: traced and untraced runs
produce byte-identical tables and optima.

Typical use::

    from repro.obs import Recorder, use_recorder, format_trace

    recorder = Recorder()
    with use_recorder(recorder):
        result = run_experiment("e3")
    print(format_trace(recorder))

or, from the command line, ``repro run e3 --trace`` /
``--trace-json report.json``.  Every run entry point (``repro run``,
``repro serve [--online]``, ``tools/bench_runner.py``) drives its
recorder, live metrics flusher and end-of-run sinks through one
:class:`TelemetrySession`.

Beyond aggregates, v2 adds three persistent/inspectable layers:
per-event **timelines** (``Recorder(events=True)``, exported as Chrome
trace-event JSON via ``repro run e3 --trace-events out.json`` and loaded
in Perfetto), the append-only **run-history store**
(:class:`HistoryStore`, default ``.repro-history/``, appended by every
traced CLI run), and **cross-run diffing** (``repro obs history`` /
``last`` / ``diff``, with ``--strict`` gating counter growth in CI).

v3 adds production telemetry: streaming log-bucketed **histograms**
(:class:`Histogram`, merged deterministically across workers),
**exporters** (:func:`to_openmetrics` Prometheus text format,
:func:`append_metrics_jsonl` snapshot streams, ``repro obs tail``), and
**SLO gating** (:func:`load_slo_file` / :func:`evaluate_slos` over
``.repro-slo.toml``, enforced by ``tools/slo_check.py`` in CI).

Naming scheme (dotted, component-first): spans ``experiment.<id>``,
``enum.sets``, ``enum.independent_sets``, ``cg.solve``, ``cg.iteration``,
``cg.pricing``, ``lp.solve``, ``mac.run``, ``parallel.worker[<i>]``;
counters ``kernel.entry.{hits,misses}``,
``kernel.vector_cache.{hits,misses}``, ``enum.{dfs_nodes,sets_found,
sets_pruned}``, ``cg.{iterations,columns_added}``,
``cg.pricing.exact_calls``, ``lp.solves``,
``mac.{slots,attempts,collisions,successes,drops}``; gauges
``lp.{rows,cols,nnz}``.
"""

from repro.obs.events import DEFAULT_MAX_EVENTS, EventBuffer
from repro.obs.explain import (
    BindingClique,
    CrowdOut,
    Explanation,
    bottleneck_summary,
    explain_solution,
    explanation_from_dict,
    explanation_to_dict,
    format_explanation,
    top_binding_link,
)
from repro.obs.export import to_trace_events, write_trace_events
from repro.obs.metrics import (
    HISTOGRAM_BUCKETS,
    HISTOGRAM_FACTOR,
    HISTOGRAM_LOWEST,
    Histogram,
    MetricsFlusher,
    append_metrics_jsonl,
    format_metrics_table,
    metrics_snapshot,
    read_metrics_jsonl,
    to_openmetrics,
    validate_openmetrics,
    write_openmetrics,
)
from repro.obs.slo import (
    DEFAULT_SLO_FILE,
    evaluate_slos,
    format_slo_results,
    load_slo_file,
)
from repro.obs.history import (
    DEFAULT_HISTORY_DIR,
    HISTORY_SCHEMA_VERSION,
    HistoryStore,
    args_fingerprint,
    build_run_record,
    diff_runs,
    format_diff,
    format_history_table,
)
from repro.obs.recorder import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    SCHEMA_VERSION,
    get_recorder,
    set_recorder,
    use_recorder,
)
from repro.obs.report import (
    environment_info,
    format_trace,
    run_report,
    write_json_document,
    write_run_report,
)
from repro.obs.session import TelemetrySession, history_store

__all__ = [
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "SCHEMA_VERSION",
    "get_recorder",
    "set_recorder",
    "use_recorder",
    "format_trace",
    "run_report",
    "write_run_report",
    "write_json_document",
    "environment_info",
    "TelemetrySession",
    "history_store",
    "EventBuffer",
    "DEFAULT_MAX_EVENTS",
    "to_trace_events",
    "write_trace_events",
    "HistoryStore",
    "DEFAULT_HISTORY_DIR",
    "HISTORY_SCHEMA_VERSION",
    "build_run_record",
    "args_fingerprint",
    "diff_runs",
    "format_diff",
    "format_history_table",
    "Histogram",
    "HISTOGRAM_LOWEST",
    "HISTOGRAM_FACTOR",
    "HISTOGRAM_BUCKETS",
    "MetricsFlusher",
    "metrics_snapshot",
    "to_openmetrics",
    "write_openmetrics",
    "validate_openmetrics",
    "append_metrics_jsonl",
    "read_metrics_jsonl",
    "format_metrics_table",
    "DEFAULT_SLO_FILE",
    "load_slo_file",
    "evaluate_slos",
    "format_slo_results",
    "BindingClique",
    "CrowdOut",
    "Explanation",
    "bottleneck_summary",
    "explain_solution",
    "explanation_from_dict",
    "explanation_to_dict",
    "format_explanation",
    "top_binding_link",
]
