"""Link–rate conflict graphs.

The combinatorial layer enumerates independent sets and cliques over a
graph whose vertices are :class:`~repro.interference.LinkRate` couples and
whose edges join conflicting couples.  Two couples on the same link are
always joined (a link transmits at one rate at a time), so:

* maximal independent sets of links-with-rates (Sec. 2.4) are maximal
  independent sets of this graph, and
* rate-coupled cliques (Sec. 3.1) are maximal cliques of this graph
  **minus** the same-link edges (a clique in the paper never repeats a
  link, and without those edges no clique can).

:mod:`repro.core` searches this graph on integer bitmasks and never builds
it; :func:`link_rate_vertices` fixes the vertex order of those masks.
:func:`build_link_rate_conflict_graph` materialises the graph as a
networkx object, the reference the tests compare those searches against.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import networkx as nx

from repro.interference.base import InterferenceModel, LinkRate
from repro.net.link import Link

__all__ = ["link_rate_vertices", "build_link_rate_conflict_graph"]


def link_rate_vertices(
    model: InterferenceModel, links: Iterable[Link]
) -> List[LinkRate]:
    """All (link, rate) couples over the links' standalone rates.

    Couples are the vertices of the conflict graph; a link with no
    standalone rate contributes none (it can never transmit, Prop. 2).
    """
    links = list(links)
    return [
        LinkRate(link, rate)
        for link, rates in zip(links, model.standalone_rates_of(links))
        for rate in rates
    ]


def build_link_rate_conflict_graph(
    model: InterferenceModel,
    links: Sequence[Link],
    same_link_edges: bool = True,
) -> nx.Graph:
    """Build the conflict graph over ``links`` as a networkx graph.

    Args:
        model: Decides pairwise conflicts.
        links: The links of interest (typically the union of all flow
            paths, the paper's ``P``).
        same_link_edges: Join couples of the same link.  Keep the default
            when the graph's complement should yield the maximal
            independent sets; pass ``False`` for the graph whose maximal
            cliques are the paper's rate-coupled cliques, one couple per
            link.

    The returned graph's nodes are :class:`LinkRate` objects.
    """
    graph = nx.Graph()
    vertices = link_rate_vertices(model, links)
    graph.add_nodes_from(vertices)
    for i, a in enumerate(vertices):
        for b in vertices[i + 1:]:
            if a.link == b.link:
                if same_link_edges:
                    graph.add_edge(a, b)
                continue
            if model.conflicts(a, b):
                graph.add_edge(a, b)
    return graph
