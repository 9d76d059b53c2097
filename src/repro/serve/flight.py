"""Per-query flight recorder: bounded slow-query log for the service.

Aggregate metrics say the p99 moved; they cannot say *which* query
moved it or why.  The :class:`FlightRecorder` keeps the full causal
record — cache outcome per level, columns enumerated, LP iterations,
warm vs cold, plus the top binding demand row and its shadow price
(*where* the query contended, not just how long it took) — for the K
slowest queries seen, in O(K) memory
regardless of stream length (a min-heap ordered by latency: a new
record evicts the fastest resident only when it is slower).

Surfaces: ``repro serve --slow-log`` prints :func:`format_slow_log`,
and ``--trace-json`` embeds :meth:`FlightRecorder.to_dict` under
``slow_queries``.  The serving front ends offer each query's record as
a latency and a function that builds it (:meth:`FlightRecorder.offer`):
a record, and the decision fingerprint in it, is built only for a
resident entry, when the log is read.  Offering is a couple of
comparisons and at most one heap push per query, well inside the serve
overhead budget pinned by ``tests/test_serve_telemetry.py``.
"""

from __future__ import annotations

import heapq
import threading
from typing import Any, Callable, Dict, List

__all__ = ["FlightRecorder", "DEFAULT_SLOW_LOG_SIZE", "format_slow_log"]

#: Slow-log capacity unless ``AdmissionService(slow_log=...)`` says
#: otherwise — enough to see a pattern, small enough to embed in JSON.
DEFAULT_SLOW_LOG_SIZE = 16


class FlightRecorder:
    """Top-K-by-latency store of per-query flight records.

    Thread-safe: ``BatchSession`` workers offer concurrently.  Records
    are arbitrary JSON-able dicts carrying a ``latency_seconds`` key,
    offered with that latency; ties break by arrival order (earlier
    record wins residence), so a single-threaded run produces a
    deterministic log.
    """

    def __init__(self, capacity: int = DEFAULT_SLOW_LOG_SIZE):
        if capacity < 1:
            raise ValueError(f"slow-log capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.records_seen = 0
        self._heap: List[Any] = []  # (latency, -seq, build) min-heap
        self._lock = threading.Lock()

    def offer(self, latency: float, build: Callable[[], Dict[str, Any]]) -> None:
        """Offer the record ``build()`` makes, by its latency.

        It is kept only if among the K slowest, and ``build`` runs only
        when a kept record is read: a decision whose record is never
        read never builds one, nor computes its fingerprint.
        """
        with self._lock:
            self.records_seen += 1
            heap = self._heap
            if len(heap) < self.capacity:
                heapq.heappush(heap, (latency, -self.records_seen, build))
            elif latency > heap[0][0]:
                # On a tie the resident stays: the earlier record wins.
                heapq.heapreplace(heap, (latency, -self.records_seen, build))

    def slow_queries(self) -> List[Dict[str, Any]]:
        """Resident records, slowest first."""
        with self._lock:
            entries = sorted(self._heap, reverse=True)
        return [build() for _, _, build in entries]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able view: capacity, totals and the resident records."""
        records = self.slow_queries()
        return {
            "capacity": self.capacity,
            "records_seen": self.records_seen,
            "records_kept": len(records),
            "records": records,
        }


def format_slow_log(recorder: FlightRecorder) -> str:
    """Plain-text slow-query table (the ``--slow-log`` output)."""
    records = recorder.slow_queries()
    header = (
        f"slow queries: {len(records)} kept of {recorder.records_seen} seen "
        f"(capacity {recorder.capacity})"
    )
    if not records:
        return header
    lines = [
        header,
        f"  {'latency':>12}  {'id':<12}  {'state':<6}  "
        f"{'result':<6}  {'cols$':<6}  {'lp$':<7}  "
        f"{'columns':>7}  {'lp iters':>8}  {'warm':<4}  "
        f"{'bottleneck':<14}  price",
    ]
    for record in records:
        bottleneck = record.get("bottleneck_link") or "-"
        price = record.get("bottleneck_price", 0.0) or 0.0
        lines.append(
            f"  {record.get('latency_seconds', 0.0) * 1e3:>9.3f} ms  "
            f"{str(record.get('query_id', '?')):<12}  "
            f"{str(record.get('cache_state', '?')):<6}  "
            f"{str(record.get('result_cache', '?')):<6}  "
            f"{str(record.get('columns_cache', '?')):<6}  "
            f"{str(record.get('lp_cache', '?')):<7}  "
            f"{record.get('columns', 0):>7}  "
            f"{record.get('lp_iterations', 0):>8}  "
            f"{'yes' if record.get('lp_warm_start') else 'no':<4}  "
            f"{str(bottleneck):<14}  "
            f"{price:.4f}"
        )
    return "\n".join(lines)
