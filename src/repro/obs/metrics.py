"""Streaming metrics: log-bucketed histograms, snapshots and exporters.

The aggregate recorder (:mod:`repro.obs.recorder`) counts *how much* —
counters add, gauges last-win — but until now a latency distribution
could only be recovered by keeping every sample and sorting after the
run.  This module adds the third metric kind: a **streaming histogram**
over a fixed log-spaced bucket layout, O(1) per observation and O(1)
memory, whose bucket arrays merge by plain addition — merging is
associative and commutative, so worker snapshots grafted in any order
produce identical buckets (pinned by ``tests/test_obs_metrics.py``).

Quantiles come from the bucket counts by nearest rank: the estimate for
the q-th quantile is the upper edge of the bucket holding the
``ceil(q*n)``-th smallest observation, clamped into the observed
``[min, max]``.  With :data:`HISTOGRAM_FACTOR` = 2**0.25 the estimate is
within one bucket (≤ ~19% relative) of the exact sorted-sample value.

Exporters, smallest to largest surface:

* :func:`to_openmetrics` — the Prometheus/OpenMetrics text exposition
  format (``# TYPE``/``# HELP`` headers, ``_total`` counters, cumulative
  ``_bucket{le=...}`` series, ``# EOF`` terminator), written by
  ``repro serve --metrics-out metrics.prom``;
* :func:`append_metrics_jsonl` — one JSON snapshot per line, the stream
  ``repro obs tail`` renders live;
* :class:`MetricsFlusher` — a background thread flushing both formats
  periodically while a serve batch or sweep is still running.

:func:`validate_openmetrics` is a dependency-free structural check
(bucket monotonicity, ``+Inf`` == ``_count``, ``# EOF``) used by tests
where the real ``prometheus_client`` parser is unavailable; CI runs the
real parser in the ``bench-smoke`` job.
"""

from __future__ import annotations

import json
import math
import re
import sys
import threading
import time
from bisect import bisect_left
from typing import Any, Dict, List, Optional

__all__ = [
    "Histogram",
    "HISTOGRAM_LOWEST",
    "HISTOGRAM_FACTOR",
    "HISTOGRAM_BUCKETS",
    "metrics_snapshot",
    "to_openmetrics",
    "write_openmetrics",
    "append_metrics_jsonl",
    "read_metrics_jsonl",
    "format_metrics_table",
    "validate_openmetrics",
    "MetricsFlusher",
]

#: Upper edge of the first (underflow) bucket: 1 microsecond.  Decision
#: latencies, span seconds and Mbps values all land comfortably above.
HISTOGRAM_LOWEST = 1e-6

#: Geometric growth per bucket: four buckets per octave, so a quantile
#: estimate is within 2**0.25 ≈ 1.19x of the exact sample statistic.
HISTOGRAM_FACTOR = 2.0 ** 0.25

#: Finite bucket edges.  The last finite edge is ~67 s (2**26 µs); one
#: more overflow bucket catches anything beyond.
HISTOGRAM_BUCKETS = 105

#: The shared edge array: ``_EDGES[i] = LOWEST * FACTOR**i``.  Bucket
#: ``i`` holds values in ``(_EDGES[i-1], _EDGES[i]]`` (bucket 0 holds
#: everything ``<= _EDGES[0]``); index ``HISTOGRAM_BUCKETS`` is the
#: overflow bucket with an infinite upper edge.
_EDGES: List[float] = [
    HISTOGRAM_LOWEST * HISTOGRAM_FACTOR ** i for i in range(HISTOGRAM_BUCKETS)
]

#: Serialized with every histogram so a merge across versions (or a
#: future re-tuned layout) fails loudly instead of mixing buckets.
_SCHEME = {
    "lowest": HISTOGRAM_LOWEST,
    "factor": HISTOGRAM_FACTOR,
    "buckets": HISTOGRAM_BUCKETS,
}


class Histogram:
    """Fixed-layout log-bucketed histogram with exact count/sum/min/max.

    Observations cost one binary search and one dict increment; the
    bucket map is sparse (only touched buckets are stored), so an idle
    histogram is a few machine words.  Merging adds bucket counts, so
    any merge order yields identical state.
    """

    __slots__ = ("_counts", "count", "sum", "min", "max")

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        counts = self._counts
        index = bisect_left(_EDGES, value)
        counts[index] = counts.get(index, 0) + 1
        self.count += 1
        self.sum += value
        low, high = self.min, self.max
        if low is None or value < low:
            self.min = value
        if high is None or value > high:
            self.max = value

    def buckets(self) -> Dict[int, int]:
        """Non-empty bucket counts by bucket index (a copy)."""
        return dict(self._counts)

    @staticmethod
    def bucket_upper_edge(index: int) -> float:
        """The inclusive upper edge of bucket ``index`` (inf past the end)."""
        return _EDGES[index] if index < len(_EDGES) else math.inf

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate from the bucket counts.

        Returns the upper edge of the bucket holding the
        ``ceil(q*count)``-th smallest observation, clamped into the
        observed ``[min, max]`` — so ``quantile(1.0)`` is the exact
        maximum and every estimate is within one bucket's width of the
        sorted-sample statistic.  An empty histogram returns 0.0.
        """
        if self.count == 0 or self.min is None or self.max is None:
            return 0.0
        rank = min(self.count, max(1, math.ceil(q * self.count)))
        cumulative = 0
        for index in sorted(self._counts):
            cumulative += self._counts[index]
            if cumulative >= rank:
                edge = self.bucket_upper_edge(index)
                return max(self.min, min(edge, self.max))
        return self.max  # pragma: no cover - cumulative always reaches count

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able state; bucket keys are stringified indices, sorted."""
        return {
            "scheme": dict(_SCHEME),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "counts": {
                str(index): self._counts[index]
                for index in sorted(self._counts)
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Histogram":
        """Rebuild a histogram from :meth:`to_dict` output."""
        histogram = cls()
        histogram.merge_dict(data)
        return histogram

    def merge_dict(self, data: Dict[str, Any]) -> None:
        """Add a serialized histogram's buckets into this one.

        Raises ``ValueError`` on a bucket-layout mismatch — silently
        mixing incompatible layouts would corrupt every quantile.
        """
        scheme = data.get("scheme", _SCHEME)
        if scheme != _SCHEME:
            raise ValueError(
                f"histogram bucket layouts differ: {scheme} vs {_SCHEME}"
            )
        for key, value in data.get("counts", {}).items():
            index = int(key)
            self._counts[index] = self._counts.get(index, 0) + int(value)
        self.count += int(data.get("count", 0))
        self.sum += float(data.get("sum", 0.0))
        other_min = data.get("min")
        if other_min is not None and (self.min is None or other_min < self.min):
            self.min = float(other_min)
        other_max = data.get("max")
        if other_max is not None and (self.max is None or other_max > self.max):
            self.max = float(other_max)

    def merge(self, other: "Histogram") -> None:
        """Add ``other``'s buckets into this histogram."""
        self.merge_dict(other.to_dict())


# -- snapshots -----------------------------------------------------------------


def metrics_snapshot(source) -> Dict[str, Any]:
    """The counters/gauges/histograms block of ``source``.

    ``source`` is a recorder or an existing snapshot/run-report dict;
    either way the result has exactly the three metric keys, so every
    exporter and the SLO checker consume one shape.
    """
    snapshot = source if isinstance(source, dict) else source.snapshot()
    return {
        "counters": dict(snapshot.get("counters", {})),
        "gauges": dict(snapshot.get("gauges", {})),
        "histograms": dict(snapshot.get("histograms", {})),
    }


# -- OpenMetrics export --------------------------------------------------------

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _openmetrics_name(name: str) -> str:
    """A dotted repro metric name as a valid OpenMetrics metric name."""
    return "repro_" + _NAME_RE.sub("_", name)


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    formatted = format(float(value), ".12g")
    return formatted


def to_openmetrics(source) -> str:
    """Render ``source`` in the OpenMetrics text exposition format.

    Counters become ``<name>_total`` counter families, gauges plain
    gauge families, histograms cumulative ``_bucket{le=...}`` series
    (sparse: only non-empty buckets are listed, plus the mandatory
    ``+Inf``) with ``_sum`` and ``_count``.  The document ends with
    ``# EOF`` as the spec requires.
    """
    metrics = metrics_snapshot(source)
    lines: List[str] = []
    for name in sorted(metrics["counters"]):
        om_name = _openmetrics_name(name)
        lines.append(f"# TYPE {om_name} counter")
        lines.append(f"# HELP {om_name} repro counter {name}")
        lines.append(f"{om_name}_total {metrics['counters'][name]}")
    for name in sorted(metrics["gauges"]):
        om_name = _openmetrics_name(name)
        lines.append(f"# TYPE {om_name} gauge")
        lines.append(f"# HELP {om_name} repro gauge {name}")
        lines.append(f"{om_name} {_format_value(metrics['gauges'][name])}")
    for name in sorted(metrics["histograms"]):
        data = metrics["histograms"][name]
        om_name = _openmetrics_name(name)
        lines.append(f"# TYPE {om_name} histogram")
        lines.append(f"# HELP {om_name} repro histogram {name}")
        cumulative = 0
        for key in sorted(
            (int(k) for k in data.get("counts", {})), reverse=False
        ):
            cumulative += int(data["counts"][str(key)])
            edge = Histogram.bucket_upper_edge(key)
            if edge == math.inf:
                continue  # folded into the +Inf bucket below
            lines.append(
                f'{om_name}_bucket{{le="{_format_value(edge)}"}} {cumulative}'
            )
        lines.append(
            f'{om_name}_bucket{{le="+Inf"}} {int(data.get("count", 0))}'
        )
        lines.append(
            f"{om_name}_sum {_format_value(float(data.get('sum', 0.0)))}"
        )
        lines.append(f"{om_name}_count {int(data.get('count', 0))}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(source, path: str) -> str:
    """Write :func:`to_openmetrics` to ``path`` (``-`` = stdout)."""
    text = to_openmetrics(source)
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


def validate_openmetrics(text: str) -> Dict[str, int]:
    """Structurally validate an OpenMetrics document.

    Checks the invariants a strict parser enforces: a final ``# EOF``
    line, a ``# TYPE`` header before each family's samples, counter
    samples suffixed ``_total``, histogram buckets cumulative and
    non-decreasing in ``le`` with the ``+Inf`` bucket equal to
    ``_count``.  Raises ``ValueError`` on the first violation; returns
    ``{"families": N, "samples": M}`` on success.  This is the
    dependency-free fallback — CI additionally runs the real
    ``prometheus_client`` OpenMetrics parser.
    """
    lines = text.splitlines()
    if not lines or lines[-1] != "# EOF":
        raise ValueError("document does not end with '# EOF'")
    types: Dict[str, str] = {}
    buckets: Dict[str, List[tuple]] = {}
    counts: Dict[str, int] = {}
    sums: Dict[str, bool] = {}
    samples = 0
    for lineno, line in enumerate(lines[:-1], 1):
        if not line:
            raise ValueError(f"line {lineno}: blank line before '# EOF'")
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            family, _, kind = rest.partition(" ")
            if kind not in ("counter", "gauge", "histogram"):
                raise ValueError(f"line {lineno}: unknown type {kind!r}")
            types[family] = kind
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("#"):
            raise ValueError(f"line {lineno}: unexpected comment {line!r}")
        match = re.fullmatch(
            r"([a-zA-Z_:][a-zA-Z0-9_:]*)(\{le=\"([^\"]+)\"\})? (\S+)", line
        )
        if match is None:
            raise ValueError(f"line {lineno}: unparsable sample {line!r}")
        name, _, le, value_text = match.groups()
        value = float(value_text.replace("+Inf", "inf"))
        samples += 1
        family = None
        for suffix in ("_total", "_bucket", "_sum", "_count", ""):
            stem = name[: len(name) - len(suffix)] if suffix else name
            if name.endswith(suffix) and stem in types:
                family = stem
                break
        if family is None:
            raise ValueError(f"line {lineno}: sample {name!r} has no # TYPE")
        kind = types[family]
        if kind == "counter" and not name.endswith("_total"):
            raise ValueError(
                f"line {lineno}: counter sample {name!r} lacks _total"
            )
        if kind == "histogram":
            if name.endswith("_bucket"):
                if le is None:
                    raise ValueError(f"line {lineno}: bucket without le")
                buckets.setdefault(family, []).append(
                    (float(le.replace("+Inf", "inf")), value)
                )
            elif name.endswith("_count"):
                counts[family] = int(value)
            elif name.endswith("_sum"):
                sums[family] = True
    for family, series in buckets.items():
        edges = [edge for edge, _ in series]
        cumulatives = [count for _, count in series]
        if edges != sorted(edges):
            raise ValueError(f"{family}: bucket le values not increasing")
        if cumulatives != sorted(cumulatives):
            raise ValueError(f"{family}: bucket counts not cumulative")
        if not edges or edges[-1] != math.inf:
            raise ValueError(f"{family}: missing +Inf bucket")
        if family not in counts or family not in sums:
            raise ValueError(f"{family}: missing _count or _sum")
        if int(cumulatives[-1]) != counts[family]:
            raise ValueError(
                f"{family}: +Inf bucket {cumulatives[-1]} != _count "
                f"{counts[family]}"
            )
    return {"families": len(types), "samples": samples}


# -- JSONL snapshot stream -----------------------------------------------------


def append_metrics_jsonl(source, path: str) -> Dict[str, Any]:
    """Append one metrics snapshot line to the JSONL stream at ``path``.

    Each line is a self-contained document (``ts`` wall-clock seconds
    plus the three metric blocks), so a consumer can resume from any
    point of the stream; ``repro obs tail`` renders the newest line.
    """
    record = {"ts": time.time(), **metrics_snapshot(source)}
    line = json.dumps(record, sort_keys=True, separators=(",", ":"))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
    return record


def read_metrics_jsonl(path: str) -> List[Dict[str, Any]]:
    """Every well-formed snapshot in the JSONL stream, oldest first.

    A torn final line (the writer may be mid-flush) is skipped silently
    — tailing a live stream must never crash on a partial write.
    """
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                records.append(record)
    return records


def format_metrics_table(snapshot: Dict[str, Any]) -> str:
    """Plain-text rendering of one metrics snapshot (for ``obs tail``)."""
    metrics = metrics_snapshot(snapshot)
    ts = snapshot.get("ts")
    stamp = (
        time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(ts))
        if isinstance(ts, (int, float))
        else "-"
    )
    parts: List[str] = [f"metrics @ {stamp}"]
    counters = metrics["counters"]
    if counters:
        width = max(len(name) for name in counters)
        parts.append("counters:")
        parts.extend(
            f"  {name:<{width}}  {counters[name]}"
            for name in sorted(counters)
        )
    gauges = metrics["gauges"]
    if gauges:
        width = max(len(name) for name in gauges)
        parts.append("gauges:")
        parts.extend(
            f"  {name:<{width}}  {gauges[name]:g}" for name in sorted(gauges)
        )
    histograms = metrics["histograms"]
    if histograms:
        width = max(len(name) for name in histograms)
        parts.append(
            f"histograms:{'':<{max(0, width - 10)}}  "
            f"{'count':>7}  {'p50':>10}  {'p90':>10}  {'p99':>10}  "
            f"{'max':>10}"
        )
        for name in sorted(histograms):
            histogram = Histogram.from_dict(histograms[name])
            parts.append(
                f"  {name:<{width}}  {histogram.count:>7}  "
                f"{histogram.quantile(0.50):>10.6f}  "
                f"{histogram.quantile(0.90):>10.6f}  "
                f"{histogram.quantile(0.99):>10.6f}  "
                f"{histogram.max if histogram.max is not None else 0.0:>10.6f}"
            )
    if len(parts) == 1:
        parts.append("(no metrics recorded)")
    return "\n".join(parts)


# -- periodic flushing ---------------------------------------------------------


class MetricsFlusher:
    """Background thread flushing a recorder's metrics while it runs.

    Writes the OpenMetrics file (full rewrite — it is a *current state*
    exposition) and/or appends a JSONL snapshot line every ``interval``
    seconds, plus a final flush from :meth:`stop`.  A mid-run snapshot
    races the recording threads, so a flush that trips on a concurrent
    mutation (dict resized during copy) is skipped — the next tick, or
    the final post-join flush, delivers a consistent view.
    """

    def __init__(
        self,
        recorder,
        openmetrics_path: Optional[str] = None,
        jsonl_path: Optional[str] = None,
        interval: float = 5.0,
    ):
        self.recorder = recorder
        self.openmetrics_path = openmetrics_path
        self.jsonl_path = jsonl_path
        self.interval = max(0.1, float(interval))
        self.flushes = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def flush(self, best_effort: bool = False) -> bool:
        """Write both outputs once; ``best_effort`` swallows races."""
        try:
            snapshot = metrics_snapshot(self.recorder)
        except RuntimeError:
            if best_effort:
                return False
            raise
        if self.openmetrics_path is not None:
            write_openmetrics(snapshot, self.openmetrics_path)
        if self.jsonl_path is not None:
            append_metrics_jsonl(snapshot, self.jsonl_path)
        self.flushes += 1
        return True

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.flush(best_effort=True)

    def start(self) -> "MetricsFlusher":
        """Begin periodic flushing (daemon thread; idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="repro-metrics-flusher", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread and write one final consistent flush."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.flush()

    def __enter__(self) -> "MetricsFlusher":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False
