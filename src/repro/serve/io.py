"""JSONL wire format of the serving layer.

A query stream is one JSON object per line::

    {"id": "q1", "path": ["n3", "n4", "n9"], "demand_mbps": 2.0}

``path`` is the node sequence of the candidate path (resolved against
the topology's directed links), ``demand_mbps`` the rate to admit, and
``id`` an optional label (defaults to ``q<line>``).  Background traffic
uses the same shape minus ``id``.  Malformed lines raise
:class:`~repro.errors.ConfigurationError` with the line number — a
query stream is configuration, and bad configuration fails loudly
before any solving starts.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError, TopologyError
from repro.obs.explain import explanation_from_dict, explanation_to_dict
from repro.obs.metrics import Histogram
from repro.net.path import Path
from repro.net.topology import Network
from repro.serve.online import OnlineDecision
from repro.serve.service import AdmissionDecision, AdmissionQuery

__all__ = [
    "path_from_nodes",
    "load_queries",
    "load_background",
    "decision_to_dict",
    "summarize_decisions",
    "online_decision_to_dict",
    "online_decision_from_dict",
    "summarize_online_decisions",
]


def path_from_nodes(network: Network, nodes: List[str]) -> Path:
    """The :class:`Path` along consecutive links of ``nodes``."""
    if len(nodes) < 2:
        raise ConfigurationError(
            f"a path needs at least two nodes, got {nodes!r}"
        )
    try:
        return Path(
            network.link_between(sender, receiver)
            for sender, receiver in zip(nodes, nodes[1:])
        )
    except TopologyError as error:
        raise ConfigurationError(f"unroutable path {nodes!r}: {error}") from error


def _parse_line(
    network: Network, line: str, line_number: int, source: str
) -> Tuple[str, Path, float]:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as error:
        raise ConfigurationError(
            f"{source}:{line_number}: malformed JSON: {error}"
        ) from error
    if not isinstance(record, dict):
        raise ConfigurationError(
            f"{source}:{line_number}: expected an object, got "
            f"{type(record).__name__}"
        )
    try:
        nodes = record["path"]
        demand = record["demand_mbps"]
    except KeyError as error:
        raise ConfigurationError(
            f"{source}:{line_number}: missing key {error}"
        ) from error
    if not isinstance(demand, (int, float)) or isinstance(demand, bool):
        raise ConfigurationError(
            f"{source}:{line_number}: demand_mbps must be a number, got "
            f"{demand!r}"
        )
    try:
        path = path_from_nodes(network, list(nodes))
    except ConfigurationError as error:
        raise ConfigurationError(
            f"{source}:{line_number}: {error}"
        ) from error
    return str(record.get("id", f"q{line_number}")), path, float(demand)


def load_queries(filename: str, network: Network) -> List[AdmissionQuery]:
    """Parse a JSONL query stream against ``network``."""
    queries = []
    with open(filename, "r", encoding="utf-8") as stream:
        for line_number, line in enumerate(stream, start=1):
            if not line.strip():
                continue
            query_id, path, demand = _parse_line(
                network, line, line_number, filename
            )
            queries.append(AdmissionQuery(query_id, path, demand))
    return queries


def load_background(
    filename: str, network: Network
) -> List[Tuple[Path, float]]:
    """Parse a JSONL background-traffic file as (path, demand) pairs."""
    background = []
    with open(filename, "r", encoding="utf-8") as stream:
        for line_number, line in enumerate(stream, start=1):
            if not line.strip():
                continue
            _query_id, path, demand = _parse_line(
                network, line, line_number, filename
            )
            background.append((path, demand))
    return background


def _summary(
    decisions: Sequence[Any],
    wall_seconds: float,
    noun: str,
    **counts: int,
) -> Dict[str, Any]:
    """The summary shape both front ends share, counted in ``noun``."""
    histogram = Histogram()
    for decision in decisions:
        histogram.observe(decision.latency_seconds)
    return {
        noun: len(decisions),
        "admitted": sum(1 for d in decisions if d.admitted),
        "rejected": sum(1 for d in decisions if not d.admitted),
        **counts,
        "cache_states": dict(Counter(d.cache_state for d in decisions)),
        "wall_seconds": wall_seconds,
        f"{noun}_per_second": (
            len(decisions) / wall_seconds if wall_seconds > 0 else 0.0
        ),
        "p50_latency_seconds": histogram.quantile(0.50),
        "p99_latency_seconds": histogram.quantile(0.99),
        "latency_histogram": histogram.to_dict(),
    }


def summarize_decisions(
    decisions: Sequence[AdmissionDecision],
    wall_seconds: float,
) -> Dict[str, Any]:
    """Throughput/latency summary of a served batch (JSON-able).

    ``queries_per_second`` uses the caller-measured wall time (the
    per-decision latencies don't sum to it under threading); p50/p99
    are nearest-rank estimates from a streaming
    :class:`~repro.obs.metrics.Histogram` over the decision latencies —
    within one log bucket (~19% relative) of the sorted-sample values,
    the same numbers a live metrics export shows.  The histogram itself
    rides along under ``latency_histogram``.
    """
    return _summary(decisions, wall_seconds, "queries")


def decision_to_dict(decision: AdmissionDecision) -> Dict[str, Any]:
    """An :class:`AdmissionDecision` as a JSON-able record.

    The telemetry fields (``trace_id`` and the per-cache-level
    outcomes) are additions to the original wire format — consumers of
    the old keys are unaffected.
    """
    record = {
        "id": decision.query_id,
        "admitted": decision.admitted,
        "available_bandwidth_mbps": decision.available_bandwidth_mbps,
        "demand_mbps": decision.demand_mbps,
        "fingerprint": decision.fingerprint,
        "cache_state": decision.cache_state,
        "latency_seconds": decision.latency_seconds,
        "trace_id": decision.trace_id,
        "result_cache": decision.result_cache,
        "columns_cache": decision.columns_cache,
        "lp_cache": decision.lp_cache,
    }
    if decision.explanation is not None:
        record["explanation"] = explanation_to_dict(decision.explanation)
    return record


def online_decision_to_dict(decision: OnlineDecision) -> Dict[str, Any]:
    """An :class:`~repro.serve.online.OnlineDecision` as a JSON record.

    The mapping is lossless: ``online_decision_from_dict`` rebuilds an
    equal dataclass, float fields included — JSON serializes Python
    floats by shortest round-tripping repr, so a JSONL decision log is
    an exact wire format, not an approximation.
    """
    record = {
        "seq": decision.seq,
        "trace_id": decision.trace_id,
        "time": decision.time,
        "flow_id": decision.flow_id,
        "source": decision.source,
        "destination": decision.destination,
        "demand_mbps": decision.demand_mbps,
        "routed": decision.routed,
        "path": list(decision.path_nodes),
        "admitted": decision.admitted,
        "available_bandwidth_mbps": decision.available_bandwidth_mbps,
        "cache_state": decision.cache_state,
        "latency_seconds": decision.latency_seconds,
        "carried_flows": decision.carried_flows,
        "fingerprint": decision.fingerprint,
    }
    if decision.explanation is not None:
        record["explanation"] = explanation_to_dict(decision.explanation)
    return record


def online_decision_from_dict(record: Dict[str, Any]) -> OnlineDecision:
    """Rebuild an :class:`~repro.serve.online.OnlineDecision` record."""
    try:
        return OnlineDecision(
            seq=int(record["seq"]),
            trace_id=str(record["trace_id"]),
            time=float(record["time"]),
            flow_id=str(record["flow_id"]),
            source=str(record["source"]),
            destination=str(record["destination"]),
            demand_mbps=float(record["demand_mbps"]),
            routed=bool(record["routed"]),
            path_nodes=tuple(str(node) for node in record["path"]),
            admitted=bool(record["admitted"]),
            available_bandwidth_mbps=float(
                record["available_bandwidth_mbps"]
            ),
            cache_state=str(record["cache_state"]),
            latency_seconds=float(record["latency_seconds"]),
            carried_flows=int(record["carried_flows"]),
            fingerprint=str(record.get("fingerprint", "")),
            explanation=(
                explanation_from_dict(record["explanation"])
                if record.get("explanation") is not None
                else None
            ),
        )
    except KeyError as error:
        raise ConfigurationError(
            f"online decision record missing key {error}"
        ) from error


def summarize_online_decisions(
    decisions: Sequence[OnlineDecision],
    wall_seconds: float,
) -> Dict[str, Any]:
    """Throughput/latency summary of an online session (JSON-able).

    Same shape as :func:`summarize_decisions` with online vocabulary:
    ``decisions_per_second`` over the caller-measured wall time, the
    unrouted count broken out (unrouted arrivals are rejections that
    never reached the solver), and the streaming latency histogram
    embedded for offline quantile work.
    """
    return _summary(
        decisions,
        wall_seconds,
        "decisions",
        unrouted=sum(1 for d in decisions if not d.routed),
    )
