"""Eq. 6 on the 192-node X7 field: the large-family oracle and the bracket.

The field is the X7 scatter instance (192 nodes on 850 × 1275 m, seed 8).
The new path runs from n0 to its farthest node; two cross flows of
0.5 Mbps run n5 → n96 and n64 → n189.  The link union holds over a
thousand maximal independent sets, too many for the quadratic reference
prune, so the tensor oracle checks the enumeration.
"""

import networkx as nx
import pytest

from repro.core.bandwidth import _collect_links, available_path_bandwidth
from repro.core.independent_sets import (
    ColumnFamily,
    CoupleSpace,
    RateIndependentSet,
    enumerate_maximal_independent_sets,
)
from repro.interference.protocol import ProtocolInterferenceModel
from repro.net.generators import scatter_topology
from repro.net.path import Path
from repro.scale import TileConfig, tiled_path_bandwidth
from repro.verify.reference import tensor_prune

N_NODES = 192


def _hop_path(network, hops):
    return Path(network.link_between(a, b) for a, b in zip(hops, hops[1:]))


@pytest.fixture(scope="module")
def x7():
    network = scatter_topology(N_NODES, 850.0, 1275.0, seed=8)
    graph = network.to_digraph()
    reachable = nx.single_source_shortest_path(graph, "n0")
    farthest = max(reachable, key=lambda node: len(reachable[node]))
    background = [
        (_hop_path(network, nx.shortest_path(graph, source, destination)), 0.5)
        for source, destination in (
            ("n5", f"n{N_NODES // 2}"),
            (f"n{N_NODES // 3}", f"n{N_NODES - 3}"),
        )
    ]
    return network, _hop_path(network, reachable[farthest]), background


def test_enumeration_matches_tensor_oracle(x7):
    """Same kept sets, same order, as the tensor prune of the raw
    Bron–Kerbosch family sorted by ``(-size, str)``."""
    network, path, background = x7
    model = ProtocolInterferenceModel(network)
    links = _collect_links(background, path)
    space = CoupleSpace(model, links)
    everything = (1 << len(space.couples)) - 1
    raw = [
        column.couples
        for column in ColumnFamily(
            space.couples, space.ordered_cliques(space.compatible, everything)
        )
    ]
    expected = sorted(
        tensor_prune(raw),
        key=lambda couples: (-len(couples), str(RateIndependentSet(couples))),
    )
    family = enumerate_maximal_independent_sets(model, links)
    assert len(family) > 1000
    assert [frozenset(column.couples) for column in family] == expected


def test_exact_optimum_inside_tiled_bracket(x7):
    network, path, background = x7
    exact = available_path_bandwidth(
        ProtocolInterferenceModel(network), path, background
    ).available_bandwidth
    estimate = tiled_path_bandwidth(
        ProtocolInterferenceModel(network), path, background, TileConfig(tile_size=6)
    )
    tolerance = 1e-6 * max(1.0, abs(exact))
    assert estimate.lower_bound <= exact + tolerance
    assert exact <= estimate.upper_bound + tolerance
