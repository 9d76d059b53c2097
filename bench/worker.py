"""One workload run in its own process: set up, time, check, report.

``python -m bench.worker --workload NAME --seed N --seconds S --trace 0|1``
prints one JSON object on its last stdout line.  ``python -m bench``
starts this module once per workload, so every run has a fresh
interpreter and its own peak RSS.

Untraced, the run sets the workload up :data:`SETUP_REPEATS` times and
times one closed loop for ``seconds``.  Its end-to-end timings are
scaled to the reference host by a :class:`HostProbe`: the 2-core VM this
benchmark was built on runs the same code up to 1.7 times slower for
seconds to minutes at a time: over ten seeds, the interquartile range
of raw timings was 12-24%, that of probe-scaled ones at most 9%.  The
raw numbers stay in the record's details.

Traced, the run first times an untraced loop for half the time on its
own set-up, then installs the tracer, sets up again and times a traced
loop for the other half; the per-layer metrics come from the traced
half, and ``trace.overhead`` compares the two halves' throughput.  Both
modes run the output checks after the timed loop, outside its timing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.optimize import linprog

from bench import WORKLOAD_NAMES
from bench.tracer import LAYERS, Tracer
from bench.workloads import WORKLOADS, answers_digest, run_loop

__all__ = [
    "E2E_UNITS",
    "REFERENCE_PROBE_S",
    "SETUP_REPEATS",
    "HostProbe",
    "run_workload",
    "main",
]

#: Set-ups per untraced run; ``setup_s`` is the median of their scaled times.
SETUP_REPEATS = 3
#: Probe samples taken before and after each set-up; the timed loop
#: takes one every ``bench.workloads.PROBE_EVERY_S``.
SETUP_PROBES = 5
#: Mean probe time of the reference host: the 2-core Xeon VM this
#: benchmark was built on, in its fast phases.  Scaled timings are what
#: that host would have measured; the value only sets their scale.
REFERENCE_PROBE_S = 3.0e-3
#: Decisions covered by ``answers_digest``.
DIGEST_DECISIONS = 1000

#: End-to-end metrics and their units (untraced runs).
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


class HostProbe:
    """How slow the host runs right now, timed on code the program lacks.

    One sample solves a fixed dense 30 x 60 LP with SciPy's HiGHS, a mix
    of interpreted and native work like the program's, but none of the
    program's code, so a change to the program never changes the probe.
    Over a run, the probe's mean time follows the workload's speed
    closely (correlation 0.85-0.95 over 20-second spans on the reference
    host), although single samples are noisy.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._cost = -rng.random(60)
        self._matrix = rng.random((30, 60))
        self._rhs = np.ones(30)
        self.samples: List[float] = []

    def sample(self) -> float:
        """Time one probe solve; it is also kept in :attr:`samples`."""
        started = time.perf_counter()
        linprog(self._cost, A_ub=self._matrix, b_ub=self._rhs, method="highs")
        seconds = time.perf_counter() - started
        self.samples.append(seconds)
        return seconds

    @staticmethod
    def slowdown(samples: List[float]) -> float:
        """How many times slower than the reference host ``samples`` ran."""
        return statistics.mean(samples) / REFERENCE_PROBE_S


def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def _setup(workload, seed: int, tracer: Optional[Tracer] = None):
    """Set the workload up once; ``(seconds, inputs)``.

    Callers drop the previous inputs first, so one set-up is alive at a
    time and collecting its garbage stays out of the next one's timing.
    """
    gc.collect()
    started = time.perf_counter()
    if tracer is None:
        inputs = workload.setup(seed)
    else:
        with tracer.phase("setup"):
            inputs = workload.setup(seed)
    return time.perf_counter() - started, inputs


def _probed_setups(workload, seed: int, probe: HostProbe, repeats: int):
    """Set up ``repeats`` times; (raw seconds, scaled seconds, last inputs).

    Each set-up is scaled by the probe samples taken just before and
    after it.
    """
    raw, scaled, inputs = [], [], None
    for _ in range(repeats):
        inputs = None
        around = [probe.sample() for _ in range(SETUP_PROBES)]
        seconds, inputs = _setup(workload, seed)
        around += [probe.sample() for _ in range(SETUP_PROBES)]
        raw.append(seconds)
        scaled.append(seconds / probe.slowdown(around))
    return raw, scaled, inputs


def _latency_summary(latencies, wall: float) -> Dict[str, float]:
    """Throughput and nearest-rank latency percentiles of timed decisions."""
    ordered = sorted(latencies)
    if not ordered:
        raise RuntimeError("the timed loop completed no decision")
    return {
        "ops_per_s": len(ordered) / wall,
        "latency_p50_ms": percentile(ordered, 0.50) * 1e3,
        "latency_p95_ms": percentile(ordered, 0.95) * 1e3,
        "latency_p99_ms": percentile(ordered, 0.99) * 1e3,
        "latency_p999_ms": percentile(ordered, 0.999) * 1e3,
    }


def _cache_stats(frontends) -> Dict[str, Tuple[float, str]]:
    """Hit ratios per cache level and total evictions, from the caches."""
    totals = {label: [0, 0] for label in ("result", "master", "enum")}
    evictions = 0
    for frontend in frontends:
        for cache in (frontend.result_cache, frontend.master_cache, frontend.enum_cache):
            totals[cache.label][0] += cache.hits
            totals[cache.label][1] += cache.misses
            evictions += cache.evictions
    stats = {
        f"cache.{label}.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio")
        for label, (hits, misses) in totals.items()
    }
    stats["cache.evictions"] = (evictions, "count")
    return stats


def _layer_metrics(tracer: Tracer, log, reference, details) -> Dict[str, Tuple[float, str]]:
    wall = tracer.wall("loop")
    self_seconds = tracer.self_seconds("loop")
    calls = tracer.calls("loop")
    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.self_s"] = (self_seconds[layer], "s")
        metrics[f"{layer}.share"] = (self_seconds[layer] / wall, "ratio")
    metrics["unattributed.self_s"] = (self_seconds["unattributed"], "s")
    metrics["unattributed.share"] = (self_seconds["unattributed"] / wall, "ratio")
    metrics["enumerate.sets_out"] = (tracer.counter("loop", "enumerate.sets_out"), "count")
    sets_in = tracer.counter("loop", "prune.sets_in")
    kept = tracer.counter("loop", "prune.kept")
    metrics["prune.kept_ratio"] = (kept / sets_in if sets_in else 0.0, "ratio")
    metrics["solve.iterations"] = (tracer.counter("loop", "solve.iterations"), "count")
    metrics.update(_cache_stats(log.frontends))
    setup_wall = tracer.wall("setup")
    metrics["setup.route.share"] = (
        tracer.self_seconds("setup")["route"] / setup_wall if setup_wall else 0.0,
        "ratio",
    )
    exact_wall = tracer.wall("exact")
    metrics["exact.p50_s"] = (details.get("exact_p50_s", 0.0), "s")
    metrics["exact.prune.share"] = (
        tracer.self_seconds("exact")["prune"] / exact_wall if exact_wall else 0.0,
        "ratio",
    )
    metrics["scale.bracket_ratio"] = (details.get("bracket_ratio", 0.0), "ratio")
    traced = _latency_summary(log.latencies, log.wall)
    untraced = _latency_summary(reference.latencies, reference.wall)
    metrics["trace.ops_per_s"] = (traced["ops_per_s"], "1/s")
    metrics["trace.latency_p50_ms"] = (traced["latency_p50_ms"], "ms")
    metrics["trace.latency_p95_ms"] = (traced["latency_p95_ms"], "ms")
    metrics["trace.overhead"] = (untraced["ops_per_s"] / traced["ops_per_s"] - 1.0, "ratio")
    return metrics


def _threads() -> int:
    """Threads of this process (Linux), or 0 when unknown."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def run_workload(
    workload,
    seed: int,
    seconds: float,
    trace: bool = False,
    trace_out: Optional[str] = None,
    setup_repeats: int = SETUP_REPEATS,
) -> dict:
    """Run one workload in this process and return its result record."""
    if trace:
        _, inputs = _setup(workload, seed)
        reference = run_loop(workload, inputs, seconds / 2)
        inputs = None
        tracer = Tracer()
        with tracer.installed():
            setup_s, inputs = _setup(workload, seed, tracer)
            with tracer.phase("loop"):
                log = run_loop(workload, inputs, seconds / 2, tracer)
            tracer.op = -1
            with tracer.phase("exact"):
                exact = workload.exact(inputs)
        setups = [setup_s]
    else:
        probe = HostProbe()
        setups, scaled_setups, inputs = _probed_setups(workload, seed, probe, setup_repeats)
        loop_start = len(probe.samples)
        log = run_loop(workload, inputs, seconds, probe=probe.sample)
        slowdown = probe.slowdown(probe.samples[loop_start:] or probe.samples)
        exact = workload.exact(inputs)
    report = workload.check(inputs, log, seed, exact)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    summary = _latency_summary(log.latencies, log.wall)
    extra = workload.details(log, exact)
    if trace:
        metrics = _layer_metrics(tracer, log, reference, extra)
        if trace_out:
            tracer.write_trace_events(trace_out)
    else:
        values = {
            "setup_s": statistics.median(scaled_setups),
            "ops_per_s": summary["ops_per_s"] * slowdown,
            "latency_p50_ms": summary["latency_p50_ms"] / slowdown,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: (values[name], unit) for name, unit in E2E_UNITS.items()}
    details = {
        "decisions": len(log.latencies),
        "wall_s": log.wall,
        "epochs": log.epochs,
        "setup_runs_s": setups,
        "raw": {"setup_s": statistics.median(setups), **summary},
        "failed_frac": log.failed / log.calls,
        "answers_digest": answers_digest(log.answers, DIGEST_DECISIONS),
        "digest_decisions": min(DIGEST_DECISIONS, len(log.answers)),
        "check": report.what,
        "checked": report.checked,
        "check_failures": report.failures[:5],
        "threads": _threads(),
        **extra,
    }
    if trace:
        if trace_out:
            details["trace_file"] = trace_out
            details["trace_spans"] = len(tracer.spans)
    else:
        details["host_slowdown"] = slowdown
        details["probe_samples"] = len(probe.samples)
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not report.failures,
        "attempted": log.calls,
        "failed": log.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
        "details": details,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.worker")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    result = run_workload(
        WORKLOADS[args.workload](),
        args.seed,
        args.seconds,
        trace=bool(args.trace),
        trace_out=args.trace_out,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
