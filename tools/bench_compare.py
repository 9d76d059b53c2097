#!/usr/bin/env python
"""Deterministic solver-counter regression gate for the bench-smoke CI job.

Timings are noisy on shared CI runners, but the solver *counters* the
``repro.obs`` layer records — DFS nodes explored, column-generation
iterations, LP solves — are deterministic for a fixed instance.  This
tool diffs the counters of a fresh bench-smoke trace (written by
``tools/bench_runner.py --smoke --trace-json``) against the committed
``BENCH_<date>.json`` baseline and fails on *unexplained growth*: a
tracked counter exceeding its baseline means an algorithmic regression
(more work per solve), which a wall-clock gate would miss in the noise.

Two baseline sources:

* a committed ``BENCH_<date>.json`` trajectory file (the original mode)::

    python tools/bench_runner.py --smoke --trace-json smoke-trace.json
    python tools/bench_compare.py smoke-trace.json --baseline BENCH_2026-08-06.json

* the ``repro.obs`` run-history store — the newest recorded bench run is
  the candidate and the most recent earlier run with the same args
  fingerprint the baseline, so the gate tracks the store instead of a
  hand-appended JSON blob::

    python tools/bench_runner.py --smoke --history-dir .repro-history
    python tools/bench_compare.py --history .repro-history

Counters *dropping* below baseline is fine (that is an optimization,
report-only); growth beyond ``--tolerance`` (default 0, counters are
exact) fails with exit code 1.  Exit code 2 means the inputs were
unusable (missing file, no counter-bearing baseline run).  A history
store with no earlier run of the candidate's fingerprint exits 0 — the
first CI run after a cache reset has nothing to gate against yet.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: A counter gated under this rule must be present on both sides; a
#: missing one is itself a regression.
REQUIRED = "required"
#: A counter gated under this rule is compared only when both records
#: carry it: baselines predating a subsystem lack its counters, and
#: their absence must not read as a regression.
BOTH_SIDES = "both sides"

#: Every gated counter and its rule, in report order.  All are
#: deterministic for the fixed smoke instances, so growth is an
#: algorithmic change, not noise.
GATED_COUNTERS = {
    # Solver work on the re-solved 4-hop chain.  The two set counts
    # catch enumeration growth the DFS-node count can miss.
    "enum.dfs_nodes": REQUIRED,
    "enum.sets_found": REQUIRED,
    "enum.maximal_sets_emitted": REQUIRED,
    "cg.iterations": REQUIRED,
    "cg.columns_added": REQUIRED,
    "lp.solves": REQUIRED,
    # Serving layer (bench X5): misses growing means cache keys stopped
    # matching; hits are fixed for the query stream.
    "serve.queries": BOTH_SIDES,
    "serve.cache.enum.misses": BOTH_SIDES,
    "serve.cache.master.misses": BOTH_SIDES,
    "serve.cache.result.misses": BOTH_SIDES,
    "serve.lp.warm_starts": BOTH_SIDES,
    # Online controller (churn stream): rebuild fallbacks growing means
    # cached unions stopped matching.
    "online.arrivals": BOTH_SIDES,
    "online.warm_resolves": BOTH_SIDES,
    "online.rebuild_fallbacks": BOTH_SIDES,
    "online.column_retirements": BOTH_SIDES,
    "online.cache.result.misses": BOTH_SIDES,
    # Tile decomposition: more tiles or columns is more work per
    # estimate.
    "scale.tiles": BOTH_SIDES,
    "scale.tile_solves": BOTH_SIDES,
    "scale.columns": BOTH_SIDES,
    # Provenance: growth means certificates or explanations are built
    # where they were not asked for.
    "explain.certificates": BOTH_SIDES,
    "explain.explanations": BOTH_SIDES,
}

#: The smoke run solves only the 4-hop instance; compare against that row.
SMOKE_HOPS = 4


def _load_json(path: Path) -> dict:
    """Parse ``path`` as JSON, failing with a usable one-line message.

    Malformed JSON (a truncated trace from a crashed runner, say) is a
    usage error, not a regression: the caller maps it to exit code 2 so
    CI distinguishes "inputs unusable" from "counters grew".
    """
    try:
        document = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: malformed JSON: {error}") from error
    except OSError as error:
        raise OSError(f"{path}: unreadable: {error}") from error
    if not isinstance(document, dict):
        raise ValueError(
            f"{path}: expected a JSON object, got {type(document).__name__}"
        )
    return document


def _default_baseline() -> Path | None:
    candidates = sorted(REPO_ROOT.glob("BENCH_*.json"))
    return candidates[-1] if candidates else None


def baseline_counters(document: dict) -> tuple[str, dict]:
    """Summed per-segment counters of the latest counter-bearing run.

    Early baseline runs predate the obs layer and carry no ``counters``
    key; the newest run that has them is the comparison point.  The
    smoke trace merges all three measured segments (enumeration,
    end-to-end, column generation) into one counter table, so the
    baseline row's per-segment counters are summed to match.
    """
    for run in reversed(document.get("runs", [])):
        rows = [
            row
            for row in run.get("solver_scaling", [])
            if row.get("hops") == SMOKE_HOPS and "counters" in row
        ]
        if not rows:
            continue
        totals: dict = {}
        for segment in rows[0]["counters"].values():
            for name, value in segment.items():
                totals[name] = totals.get(name, 0) + value
        return run.get("label", "?"), totals
    raise LookupError(
        f"no run with per-segment counters for the {SMOKE_HOPS}-hop "
        "instance found in the baseline file"
    )


def compare(
    smoke: dict, baseline: dict, tolerance: float = 0.0
) -> tuple[list[str], list[str]]:
    """Return (report lines, regression lines) for the tracked counters."""
    lines = []
    regressions = []
    gated = [
        name
        for name, rule in GATED_COUNTERS.items()
        if rule == REQUIRED or (name in baseline and name in smoke)
    ]
    width = max(len(name) for name in gated)
    for name in gated:
        expected = baseline.get(name)
        observed = smoke.get(name)
        if expected is None or observed is None:
            regressions.append(
                f"{name}: missing from "
                f"{'baseline' if expected is None else 'smoke trace'}"
            )
            continue
        limit = expected * (1.0 + tolerance)
        if observed > limit:
            verdict = "REGRESSION"
            regressions.append(
                f"{name}: {observed} > baseline {expected}"
                + (f" (+{tolerance:.0%} tolerance)" if tolerance else "")
            )
        elif observed < expected:
            verdict = "improved"
        else:
            verdict = "ok"
        lines.append(
            f"  {name:<{width}}  baseline {expected:>6}  "
            f"observed {observed:>6}  {verdict}"
        )
    return lines, regressions


def _report(lines: list[str], regressions: list[str]) -> int:
    """Print the comparison; 1 on any regression, else 0."""
    for line in lines:
        print(line)
    if not regressions:
        print("no counter regressions")
        return 0
    print("counter regressions detected:", file=sys.stderr)
    for line in regressions:
        print(f"  {line}", file=sys.stderr)
    return 1


def _compare_history(history_dir: str, tolerance: float) -> int:
    """Gate the newest history record against the last one like it.

    The baseline is the most recent earlier record with the same
    ``args_fingerprint``: a smoke run and a full run solve different
    instances, so their counters are not comparable.  When no earlier
    record shares the fingerprint there is nothing to gate against yet.
    """
    from repro.obs.history import HistoryStore

    store = HistoryStore(history_dir)
    records = [r for r in store.runs() if r.get("counters")]
    if not records:
        print(
            f"no counter-bearing runs in history store {store.path}",
            file=sys.stderr,
        )
        return 2
    candidate = records[-1]
    fingerprint = candidate.get("args_fingerprint")
    baseline = next(
        (
            record
            for record in reversed(records[:-1])
            if record.get("args_fingerprint") == fingerprint
        ),
        None,
    )
    if baseline is None:
        print(
            f"history store {store.path} holds no earlier run with args "
            f"fingerprint {fingerprint!r}; nothing to gate against yet"
        )
        return 0
    lines, regressions = compare(
        candidate["counters"], baseline["counters"], tolerance=tolerance
    )
    print(
        f"solver counters: history run {candidate.get('run_id', '?')!r} vs "
        f"baseline run {baseline.get('run_id', '?')!r}"
    )
    return _report(lines, regressions)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "trace",
        nargs="?",
        default=None,
        help="bench-smoke run report (bench_runner.py --smoke --trace-json)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed BENCH_<date>.json (default: newest in repo root)",
    )
    parser.add_argument(
        "--history",
        metavar="DIR",
        default=None,
        help="gate the newest run in this repro.obs history store against "
        "the last earlier run with its args fingerprint instead of "
        "comparing a trace file",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.0,
        help="allowed fractional growth before failing (default 0: "
        "tracked counters are deterministic)",
    )
    args = parser.parse_args(argv)

    if args.history is not None:
        if args.trace is not None:
            print(
                "--history replaces the trace argument; give one or the "
                "other",
                file=sys.stderr,
            )
            return 2
        return _compare_history(args.history, args.tolerance)
    if args.trace is None:
        print("a trace file (or --history DIR) is required", file=sys.stderr)
        return 2

    baseline_path = (
        Path(args.baseline) if args.baseline else _default_baseline()
    )
    if baseline_path is None or not baseline_path.exists():
        print(f"baseline file not found: {baseline_path}", file=sys.stderr)
        return 2
    trace_path = Path(args.trace)
    if not trace_path.exists():
        print(f"smoke trace not found: {trace_path}", file=sys.stderr)
        return 2

    try:
        trace = _load_json(trace_path)
        document = _load_json(baseline_path)
    except (ValueError, OSError) as error:
        print(str(error), file=sys.stderr)
        return 2
    try:
        label, expected = baseline_counters(document)
    except LookupError as error:
        print(f"{baseline_path}: {error}", file=sys.stderr)
        return 2

    lines, regressions = compare(
        trace.get("counters", {}), expected, tolerance=args.tolerance
    )
    print(
        f"solver counters: {trace_path.name} vs "
        f"{baseline_path.name} run {label!r}"
    )
    return _report(lines, regressions)


if __name__ == "__main__":
    sys.exit(main())
