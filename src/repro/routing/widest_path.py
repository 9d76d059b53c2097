"""Estimate-maximising routing ("widest path" under a Section 4 estimator).

The paper proposes using the minimum estimated available bandwidth over
local maximal cliques "as routing metrics ... Each intermediate node on a
path estimates the available bandwidth from the source to itself on that
path, and uses it in distributed routing algorithms as any other routing
metric."  That is a distance-vector style computation: every node keeps
the best source-to-self estimate seen so far and advertises it.

This module implements exactly that as a label-setting search: labels are
path prefixes scored by the estimator applied to the prefix; the node with
the best (largest) score expands next, and each node retains only its best
score.  Because every estimator here is monotone non-increasing in path
extension (adding a hop adds constraints), the first label settled at the
destination is the best achievable *per-node-greedy* route — the same
answer a distributed protocol would converge to, though not always the
global optimum (the underlying joint problem is NP-hard; Section 4 notes
this and settles for distributed algorithms, as we do).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Mapping, Tuple

from repro.errors import RoutingError
from repro.estimation.estimators import PathBandwidthEstimator
from repro.estimation.idle_time import path_state_for
from repro.interference.base import InterferenceModel
from repro.net.path import Path
from repro.net.topology import Network

__all__ = ["widest_estimate_route"]


def widest_estimate_route(
    network: Network,
    model: InterferenceModel,
    source: str,
    destination: str,
    estimator: PathBandwidthEstimator,
    node_idleness: Mapping[str, float],
) -> Tuple[Path, float]:
    """Route maximising the estimator's prefix score; returns (path, score).

    Expands over :meth:`Network.routing_graph`, built once per network
    state and rebuilt after the network grows.

    Raises:
        RoutingError: when no path with a positive estimate exists.
    """
    network.node(source)
    network.node(destination)
    graph = network.routing_graph()

    counter = itertools.count()  # tie-breaker keeping heap entries orderable
    best_score: Dict[str, float] = {source: float("inf")}
    # Max-heap via negated scores: (−score, tiebreak, node, links so far).
    frontier: List[Tuple[float, int, str, Tuple]] = [
        (-float("inf"), next(counter), source, ())
    ]
    settled: set = set()
    while frontier:
        negative, _tie, node, links = heapq.heappop(frontier)
        score = -negative
        if node in settled:
            continue
        settled.add(node)
        if node == destination:
            return Path(list(links)), score
        visited_nodes = {source}
        for link in links:
            visited_nodes.add(link.receiver.node_id)
        for _u, neighbour, data in graph.out_edges(node, data=True):
            if neighbour in visited_nodes or neighbour in settled:
                continue
            link = data["link"]
            if model.max_standalone_rate(link) is None:
                continue
            candidate_links = links + (link,)
            state = path_state_for(
                model, Path(list(candidate_links)), node_idleness
            )
            estimate = estimator.estimate(state)
            if estimate <= 0.0:
                continue
            if estimate > best_score.get(neighbour, 0.0):
                best_score[neighbour] = estimate
                heapq.heappush(
                    frontier,
                    (-estimate, next(counter), neighbour, candidate_links),
                )
    raise RoutingError(
        f"no route {source!r} -> {destination!r} with positive "
        f"{estimator.name} estimate",
        source=source,
        destination=destination,
    )
