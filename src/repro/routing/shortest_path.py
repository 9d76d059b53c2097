"""Metric-weighted shortest-path routing."""

from __future__ import annotations

import math
from typing import Optional

import networkx as nx

from repro.errors import RoutingError
from repro.net.path import Path
from repro.net.topology import Network
from repro.routing.metrics import RoutingContext, RoutingMetric

__all__ = ["route"]


def route(
    network: Network,
    source: str,
    destination: str,
    metric: RoutingMetric,
    context: RoutingContext,
) -> Path:
    """Best path from ``source`` to ``destination`` under ``metric``.

    Dijkstra over the network's link graph with the metric's link weights;
    links weighted ``inf`` (unusable: no rate, or fully busy neighbourhood
    under average-e2eD) are excluded from the search entirely, so a result
    is always a usable path and absence of one raises :class:`RoutingError`.

    The graph is :meth:`Network.routing_graph`, built once per network
    state and rebuilt after the network grows; a call only evaluates the
    metric's weights and runs the search.
    """
    network.node(source)
    network.node(destination)
    graph = network.routing_graph()

    def weight(u: str, v: str, data: dict) -> Optional[float]:
        value = metric.weight(data["link"], context)
        return None if math.isinf(value) else value

    try:
        node_ids = nx.dijkstra_path(graph, source, destination, weight=weight)
    except nx.NetworkXNoPath:
        raise RoutingError(
            f"no usable route {source!r} -> {destination!r} under "
            f"{metric.name}",
            source=source,
            destination=destination,
        ) from None
    links = [
        network.link_between(u, v) for u, v in zip(node_ids, node_ids[1:])
    ]
    return Path(links)
