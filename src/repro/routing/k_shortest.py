"""Yen's algorithm: loop-free k-shortest paths under a routing metric.

Support for the joint routing/scheduling design of Section 4: the joint
problem is NP-hard, and a strong practical approximation is to generate a
small set of metric-diverse candidate paths and score each with the exact
Eq. 6 LP (:mod:`repro.routing.joint`).  Yen's algorithm provides the
candidates: the k best simple paths by metric cost.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import List, Optional, Set, Tuple

import networkx as nx

from repro.errors import RoutingError
from repro.net.path import Path
from repro.net.topology import Network
from repro.routing.metrics import RoutingContext, RoutingMetric

__all__ = ["k_shortest_paths"]


def _dijkstra(
    graph: nx.DiGraph,
    network: Network,
    source: str,
    destination: str,
    metric: RoutingMetric,
    context: RoutingContext,
    removed_edges: Set[Tuple[str, str]],
    removed_nodes: Set[str],
) -> Optional[Tuple[List[str], float]]:
    """Shortest node sequence avoiding removed parts, or ``None``."""

    def weight(u: str, v: str, data: dict) -> Optional[float]:
        if (u, v) in removed_edges or v in removed_nodes or u in removed_nodes:
            return None
        value = metric.weight(data["link"], context)
        return None if math.isinf(value) else value

    try:
        cost, nodes = nx.single_source_dijkstra(
            graph, source, destination, weight=weight
        )
    except nx.NetworkXNoPath:
        return None
    return nodes, cost


def k_shortest_paths(
    network: Network,
    source: str,
    destination: str,
    metric: RoutingMetric,
    context: RoutingContext,
    k: int = 3,
) -> List[Path]:
    """The up-to-``k`` best loop-free paths by metric cost (Yen).

    Returns fewer than ``k`` paths when the graph does not contain that
    many distinct simple paths; raises :class:`RoutingError` when there is
    none at all.

    Every spur search reads :meth:`Network.routing_graph` (one graph per
    network state, rebuilt after the network grows); removed edges and
    nodes are masked in the weight function, never deleted from it.
    """
    if k < 1:
        raise RoutingError("k must be at least 1")
    network.node(source)
    network.node(destination)
    graph = network.routing_graph()

    first = _dijkstra(
        graph, network, source, destination, metric, context, set(), set()
    )
    if first is None:
        raise RoutingError(
            f"no usable route {source!r} -> {destination!r} under "
            f"{metric.name}",
            source=source,
            destination=destination,
        )
    accepted: List[Tuple[float, List[str]]] = [(first[1], first[0])]
    # Candidate heap entries: (cost, tiebreak, node sequence).
    tiebreak = itertools.count()
    candidates: List[Tuple[float, int, List[str]]] = []
    seen_sequences = {tuple(first[0])}

    while len(accepted) < k:
        _prev_cost, prev_nodes = accepted[-1]
        for spur_index in range(len(prev_nodes) - 1):
            spur_node = prev_nodes[spur_index]
            root = prev_nodes[: spur_index + 1]
            removed_edges: Set[Tuple[str, str]] = set()
            for _cost, nodes in accepted:
                if nodes[: spur_index + 1] == root and len(nodes) > spur_index + 1:
                    removed_edges.add(
                        (nodes[spur_index], nodes[spur_index + 1])
                    )
            removed_nodes = set(root[:-1])
            spur = _dijkstra(
                graph,
                network,
                spur_node,
                destination,
                metric,
                context,
                removed_edges,
                removed_nodes,
            )
            if spur is None:
                continue
            spur_nodes, spur_cost = spur
            total_nodes = root[:-1] + spur_nodes
            key = tuple(total_nodes)
            if key in seen_sequences:
                continue
            root_cost = sum(
                metric.weight(
                    network.link_between(u, v), context
                )
                for u, v in zip(root, root[1:])
            )
            seen_sequences.add(key)
            heapq.heappush(
                candidates,
                (root_cost + spur_cost, next(tiebreak), total_nodes),
            )
        if not candidates:
            break
        cost, _tie, nodes = heapq.heappop(candidates)
        accepted.append((cost, nodes))

    paths = []
    for _cost, nodes in accepted:
        paths.append(
            Path(
                [
                    network.link_between(u, v)
                    for u, v in zip(nodes, nodes[1:])
                ]
            )
        )
    return paths
