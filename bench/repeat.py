"""Repeat benchmark runs and check each metric's spread against its bound.

``PYTHONPATH=src python -m bench.repeat [--runs 5] [--sets 1] [--seed N]
[--vary-seed] [--workload NAME ...] [--seconds S] [--out PATH]``

Every run is a fresh worker process, as in ``python -m bench``; within a
set, runs of the workloads are interleaved so slow drift of the machine
spreads over all of them, and the sets run one after the other.  For
each end-to-end metric of each set it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the interquartile range as a
share of the median and the largest relative deviation from the median,
then checks them against the bounds in ``BENCHMARK.json``: every
interquartile range but that of ``setup_s`` must stay within its bound,
and every later set's median must be no worse than the first set's by
more than the bound.  The exit code is 1 when a check fails.

Without ``--vary-seed`` every run uses seed ``N``; with it, run ``i`` of
set ``k`` uses seed ``N + k * runs + i``.  ``bench/BASELINE.json`` is
this script's output for two sets of five runs at the default seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List, Optional

from bench import DEFAULT_SECONDS, DEFAULT_SEED, WORKLOAD_NAMES
from bench.launch import ROOT, BenchError, run_child

__all__ = ["spread", "worsening", "main"]


def spread(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and relative spreads of one metric's runs."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    scale = abs(median) or 1.0
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_rel": (q3 - q1) / scale,
        "max_dev_rel": max(abs(value - median) for value in values) / scale,
    }


def worsening(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    change = (later - first) / (abs(first) or 1.0)
    return change if better == "lower" else -change


def _run_set(workloads, seeds, seconds) -> Dict[str, Dict[str, List[float]]]:
    values: Dict[str, Dict[str, List[float]]] = {name: {} for name in workloads}
    for run, seed in enumerate(seeds):
        for name in workloads:
            result = run_child(name, seed, seconds)
            if not result["correct"]:
                raise BenchError(f"{name} seed {seed}: output check failed")
            for metric, entry in result["metrics"].items():
                values[name].setdefault(metric, []).append(entry["value"])
            print(f"run {run + 1}/{len(seeds)} {name} seed {seed} done", file=sys.stderr)
    return values


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.repeat")
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--vary-seed", action="store_true")
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--out", metavar="PATH", help="write the summary as JSON")
    args = parser.parse_args(argv)
    if args.runs < 1 or args.sets < 1:
        parser.error("--runs and --sets must be >= 1")
    workloads = args.workload or list(WORKLOAD_NAMES)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {entry["name"]: entry for entry in declared["end_to_end"]}

    sets = []
    for index in range(args.sets):
        seeds = [
            args.seed + index * args.runs + run if args.vary_seed else args.seed
            for run in range(args.runs)
        ]
        try:
            values = _run_set(workloads, seeds, args.seconds)
        except BenchError as error:
            print(f"bench.repeat: {error}", file=sys.stderr)
            return 1
        sets.append(
            {
                "seeds": seeds,
                "workloads": {
                    name: {
                        metric: {"values": runs, **spread(runs)}
                        for metric, runs in by_metric.items()
                    }
                    for name, by_metric in values.items()
                },
            }
        )

    failures = []
    print(
        f"{'set':<3} {'workload':<13} {'metric':<15} {'median':>11} {'q1':>11} "
        f"{'q3':>11} {'iqr':>7} {'maxdev':>7} {'worse':>7} {'bound':>6}"
    )
    for index, summary in enumerate(sets):
        for name, by_metric in summary["workloads"].items():
            for metric, stats in by_metric.items():
                bound = metrics[metric]["bound"]
                first = sets[0]["workloads"][name][metric]["median"]
                stats["worse_than_first_set"] = worsening(
                    first, stats["median"], metrics[metric]["better"]
                )
                if metric != "setup_s" and stats["iqr_rel"] > bound:
                    failures.append(f"set {index + 1} {name} {metric}: spread above bound")
                if stats["worse_than_first_set"] > bound:
                    failures.append(f"set {index + 1} {name} {metric}: median above bound")
                print(
                    f"{index + 1:<3} {name:<13} {metric:<15} {stats['median']:>11.4f} "
                    f"{stats['q1']:>11.4f} {stats['q3']:>11.4f} "
                    f"{100 * stats['iqr_rel']:>6.2f}% {100 * stats['max_dev_rel']:>6.2f}% "
                    f"{100 * stats['worse_than_first_set']:>6.2f}% {bound:>6.2f}"
                )
    for failure in failures:
        print(f"bench.repeat: {failure}", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {"runs": args.runs, "seconds": args.seconds, "sets": sets, "failures": failures},
                handle,
                indent=2,
            )
            handle.write("\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
