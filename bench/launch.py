"""Launcher of ``python -m bench``: one worker process per workload.

Prints a table per workload and, as the last stdout line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With one
``--workload`` the metric names are the ones declared in
``BENCHMARK.json``; with all workloads they are prefixed by the
workload name.  Exits 1 when an output check fails or a worker dies,
and 2 when the repository sources are missing, without printing a
result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

from bench import DEFAULT_SECONDS, DEFAULT_SEED, WORKLOAD_NAMES, should_move
from bench.tracer import LAYERS

__all__ = ["ROOT", "BenchError", "run_child", "format_result", "main"]

#: Repository root: the directory holding ``bench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
#: Where traced runs write their trace-event files, relative to ROOT.
TRACE_DIR = Path("bench", "out")
#: A worker that runs longer than this is killed.
CHILD_TIMEOUT_S = 170
#: Native thread pools capped at one thread, so a run uses one core for
#: compute and stays within the machine's cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """A worker failed to produce a result."""


def run_child(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    trace_out: Optional[Path] = None,
) -> dict:
    """Run one workload in a fresh worker process and return its record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")) if part
    )
    env.update({name: "1" for name in THREAD_VARS})
    command = [
        sys.executable,
        "-m",
        "bench.worker",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "1" if trace else "0",
    ]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    try:
        completed = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{workload}: worker exceeded {CHILD_TIMEOUT_S} s") from error
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with code {completed.returncode}")
    return json.loads(lines[-1])


def _beyond(n: int, q: float) -> int:
    """Samples ranked above the nearest-rank ``q`` percentile of ``n``."""
    return n - min(n, max(1, math.ceil(q * n)))


def _targets(metric: str) -> str:
    pairs = should_move(metric)
    return ", ".join(f"{name} on {workload}" for name, workload in pairs) or "-"


def format_result(result: dict) -> str:
    """A human-readable table of one workload's record."""
    metrics = result["metrics"]
    details = result["details"]
    n = details["decisions"]
    mode = "traced" if result["trace"] else "untraced"
    lines = [
        f"== {result['workload']}  seed={result['seed']}  "
        f"seconds={result['seconds']:g}  {mode}"
    ]
    if result["trace"]:
        lines.append(
            f"  {'layer':<16} {'calls':>9} {'self_s':>10} {'share':>8}  should move"
        )
        shown = set()
        for layer in LAYERS + ("unattributed",):
            names = [f"{layer}.{field}" for field in ("calls", "self_s", "share")]
            calls = metrics.get(names[0], {"value": ""})["value"]
            lines.append(
                f"  {layer:<16} {calls:>9} {metrics[names[1]]['value']:>10.4f} "
                f"{100.0 * metrics[names[2]]['value']:>7.2f}%  {_targets(names[1])}"
            )
            shown.update(names)
        for name, metric in metrics.items():
            if name not in shown:
                lines.append(
                    f"  {name:<24} {metric['value']:>12.4f} {metric['unit']:<6} "
                    f"{_targets(name)}"
                )
        if "trace_file" in details:
            lines.append(
                f"  trace file {details['trace_file']} ({details['trace_spans']} spans)"
            )
    else:
        raw = details["raw"]
        notes = {
            "setup_s": f"median of {len(details['setup_runs_s'])} set-ups",
            "ops_per_s": f"{n} decisions in {details['wall_s']:.2f} s",
            "latency_p50_ms": f"n={n}",
        }
        lines.append(
            f"  {'metric':<16} {'value':>12} {'unit':<4} {'raw':>12}  "
            f"(host ran {details['host_slowdown']:.3f}x the reference probe time)"
        )
        for name, metric in metrics.items():
            shown = f"{raw[name]:>12.4f}" if name in raw else f"{'':>12}"
            lines.append(
                f"  {name:<16} {metric['value']:>12.4f} {metric['unit']:<4} {shown}  "
                f"{notes.get(name, '')}"
            )
        for name, q in (
            ("latency_p95_ms", 0.95),
            ("latency_p99_ms", 0.99),
            ("latency_p999_ms", 0.999),
        ):
            if _beyond(n, q) >= 10:
                lines.append(
                    f"  {name:<16} {'':>12} {'ms':<4} {raw[name]:>12.4f}  "
                    f"n={n}, {_beyond(n, q)} beyond (not declared)"
                )
    lines.append(
        f"  failed_frac {details['failed_frac']:g} "
        f"({result['failed']} of {result['attempted']} calls)"
    )
    lines.append(f"  threads {details['threads']} in the worker process at exit")
    for key in ("bracket_ratio", "exact_p50_s", "exact_mbps"):
        if key in details:
            lines.append(f"  {key} {details[key]:.6g}")
    lines.append(
        f"  answers_digest {details['answers_digest']} "
        f"(first {details['digest_decisions']} decisions)"
    )
    verdict = "ok" if result["correct"] else "FAILED"
    lines.append(f"  check {verdict}: {details['checked']} {details['check']}")
    lines.extend(f"    {failure}" for failure in details["check_failures"])
    return "\n".join(lines)


def _summary(results: List[dict]) -> dict:
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{result['workload']}.{name}": metric
            for result in results
            for name, metric in result["metrics"].items()
        }
    return {
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m bench", description="Run the admission benchmark."
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="per-layer metrics instead of end-to-end ones",
    )
    parser.add_argument("--json", metavar="PATH", help="write every record here")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"bench: no src/repro under {ROOT}; run from a full checkout",
            file=sys.stderr,
        )
        return 2

    results = []
    for name in [args.workload] if args.workload else WORKLOAD_NAMES:
        trace_out = None
        if args.trace:
            (ROOT / TRACE_DIR).mkdir(parents=True, exist_ok=True)
            trace_out = TRACE_DIR / f"{name}-seed{args.seed}.trace.json"
        sys.stdout.flush()
        try:
            result = run_child(name, args.seed, args.seconds, bool(args.trace), trace_out)
        except BenchError as error:
            print(f"bench: {error}", file=sys.stderr)
            return 1
        print(format_result(result))
        results.append(result)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2)
    summary = _summary(results)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1
