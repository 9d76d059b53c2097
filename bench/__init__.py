"""Admission benchmark: four workloads through the Eq. 6 pipeline.

Run ``PYTHONPATH=src python -m bench [--workload NAME] [--seed N]
[--seconds S] [--trace] [--json PATH]`` from the repository root; see
``bench/README.md`` for the workloads, the metrics and how their
regression bounds were derived.

This package imports nothing from ``repro`` at import time: the
launcher (:mod:`bench.launch`) only starts one :mod:`bench.worker`
process per workload.
"""

#: The workloads, in the order ``python -m bench`` runs them.
WORKLOAD_NAMES = ("serve-hot", "serve-fresh", "online-churn", "scale-field")

#: Workload seed used when ``--seed`` is not given.  ``BENCHMARK.json``
#: has no field for it.
DEFAULT_SEED = 0

#: Seconds each run times when ``--seconds`` is not given; equal to
#: ``run_seconds`` in ``BENCHMARK.json``.
DEFAULT_SECONDS = 16

_P50, _OPS, _SETUP = "latency_p50_ms", "ops_per_s", "setup_s"

#: The end-to-end metrics each per-layer metric should move, as
#: ``(metric, workload)`` pairs, keyed by per-layer metric name prefix
#: (the longest matching prefix wins).  An empty tuple: it should move
#: none.  ``BENCHMARK.json`` has no field for this; the tests check it
#: against the metrics declared there.
SHOULD_MOVE = {
    "frontend": ((_P50, "serve-hot"),),
    "route": ((_SETUP, "serve-fresh"),),
    "setup.route": ((_SETUP, "serve-fresh"),),
    "union": ((_P50, "serve-hot"),),
    "fingerprint": ((_P50, "serve-hot"),),
    "cache": ((_P50, "serve-hot"), (_OPS, "serve-fresh")),
    "enumerate": ((_OPS, "serve-fresh"),),
    "prune": ((_OPS, "serve-fresh"),),
    "assemble": ((_OPS, "serve-fresh"), (_OPS, "scale-field")),
    "edit": ((_OPS, "online-churn"),),
    # Warm re-solves are a twelfth of serve-hot's decisions but most of
    # its time, so they set its throughput.
    "solve": ((_OPS, "online-churn"), (_P50, "online-churn"), (_OPS, "serve-hot")),
    "extract": ((_OPS, "scale-field"),),
    "explain": ((_OPS, "scale-field"),),
    "decompose": ((_OPS, "scale-field"),),
    # The exact X7 solve runs after the timed loop, the bracket ratio is
    # fixed by the seed, and the rest measure the tracer itself.
    "exact": (),
    "scale": (),
    "trace": (),
    "unattributed": (),
}


def should_move(metric: str):
    """The ``(end-to-end metric, workload)`` pairs ``metric`` should move."""
    keys = [key for key in SHOULD_MOVE if metric == key or metric.startswith(key + ".")]
    if not keys:
        raise KeyError(f"no should-move entry for per-layer metric {metric!r}")
    return SHOULD_MOVE[max(keys, key=len)]
