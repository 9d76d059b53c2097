"""The :class:`Network` container.

A network owns nodes, directed links and the shared radio configuration.
It offers the geometric queries the interference layer needs (distances,
hearing sets) plus conversions to :mod:`networkx` graphs for routing.

A network only grows: nodes and links are added, never removed or
changed, and the radio is fixed at construction.  So everything derived
from its nodes and links (the routing graph, endpoint pair lists, model
digests) is a function of the *network state*, and :meth:`Network.derived`
keeps one copy of each per state, dropped whenever the network grows.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Iterator, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.errors import LinkError, TopologyError
from repro.net.link import Link
from repro.net.node import Node
from repro.phy.radio import RadioConfig
from repro.phy.rates import Rate

__all__ = ["Network"]


class Network:
    """A multirate wireless network.

    Args:
        radio: Shared radio configuration (rate table, power, channel).
            Required even for abstract topologies — the rate table is what
            the combinatorial layer enumerates over.
        name: Optional label used in reports.
    """

    def __init__(self, radio: RadioConfig, name: str = "network"):
        self.radio = radio
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._links: Dict[str, Link] = {}
        self._links_by_pair: Dict[Tuple[str, str], Link] = {}
        #: Values derived from the current nodes and links, by key (see
        #: :meth:`derived`); replaced by every ``add_node``/``add_link``.
        self._derived: Dict[Hashable, Any] = {}

    def __getstate__(self) -> Dict[str, Any]:
        # Derived values are rebuilt on first use, so a pickled network
        # carries only its nodes, links and radio.
        state = dict(self.__dict__)
        del state["_derived"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._derived = {}

    # -- construction ----------------------------------------------------------

    def add_node(
        self,
        node_id: str,
        x: Optional[float] = None,
        y: Optional[float] = None,
    ) -> Node:
        """Create and register a node; ids must be unique."""
        if node_id in self._nodes:
            raise TopologyError(f"duplicate node id {node_id!r}")
        node = Node(node_id=node_id, x=x, y=y)
        self._nodes[node_id] = node
        self._derived = {}
        return node

    def add_link(
        self,
        sender_id: str,
        receiver_id: str,
        link_id: Optional[str] = None,
    ) -> Link:
        """Create and register a directed link between existing nodes.

        For geometric networks the link must be within the slowest rate's
        transmission range — a longer link supports no rate at all and would
        poison every downstream computation.
        """
        sender = self.node(sender_id)
        receiver = self.node(receiver_id)
        if (sender_id, receiver_id) in self._links_by_pair:
            raise LinkError(
                f"link {sender_id!r}->{receiver_id!r} already exists"
            )
        if link_id is None:
            link_id = f"{sender_id}->{receiver_id}"
        if link_id in self._links:
            raise LinkError(f"duplicate link id {link_id!r}")
        link = Link(link_id=link_id, sender=sender, receiver=receiver)
        if sender.has_position and receiver.has_position:
            if link.length_m > self.radio.rate_table.max_range_m:
                raise LinkError(
                    f"link {link_id!r} is {link.length_m:.1f} m long, beyond "
                    f"the maximum transmission range "
                    f"{self.radio.rate_table.max_range_m:g} m"
                )
        self._links[link_id] = link
        self._links_by_pair[(sender_id, receiver_id)] = link
        self._derived = {}
        return link

    # -- lookups ----------------------------------------------------------------

    @property
    def nodes(self) -> Tuple[Node, ...]:
        return tuple(self._nodes.values())

    @property
    def links(self) -> Tuple[Link, ...]:
        return tuple(self._links.values())

    @property
    def is_geometric(self) -> bool:
        """True when every node has coordinates."""
        return all(node.has_position for node in self._nodes.values())

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise TopologyError(f"unknown node {node_id!r}") from None

    def link(self, link_id: str) -> Link:
        try:
            return self._links[link_id]
        except KeyError:
            raise TopologyError(f"unknown link {link_id!r}") from None

    def link_between(self, sender_id: str, receiver_id: str) -> Link:
        try:
            return self._links_by_pair[(sender_id, receiver_id)]
        except KeyError:
            raise TopologyError(
                f"no link {sender_id!r}->{receiver_id!r}"
            ) from None

    def has_link(self, sender_id: str, receiver_id: str) -> bool:
        return (sender_id, receiver_id) in self._links_by_pair

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    # -- geometric queries --------------------------------------------------------

    def distance(self, node_a: str, node_b: str) -> float:
        return self.node(node_a).distance_to(self.node(node_b))

    def max_standalone_rate(self, link: Link) -> Optional[Rate]:
        """Fastest rate ``link`` supports when transmitting alone (Eq. 1)."""
        return self.radio.max_standalone_rate(link.length_m)

    def nodes_within(self, center: Node, radius_m: float) -> List[Node]:
        """All *other* nodes within ``radius_m`` of ``center``."""
        return [
            node
            for node in self._nodes.values()
            if node.node_id != center.node_id
            and center.distance_to(node) <= radius_m
        ]

    def hearing_set(self, node_id: str) -> List[Node]:
        """Nodes whose transmissions ``node_id`` senses (carrier sensing)."""
        return self.nodes_within(self.node(node_id), self.radio.carrier_sense_range_m)

    def can_hear(self, listener_id: str, transmitter_id: str) -> bool:
        """Whether ``listener_id`` senses a transmission by ``transmitter_id``."""
        if listener_id == transmitter_id:
            return True
        return self.radio.hears(self.distance(listener_id, transmitter_id))

    # -- derived values --------------------------------------------------------------

    def derived(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """``build()``, made once per network state and shared under ``key``.

        The value is kept until the next ``add_node``/``add_link`` and is
        not pickled.  Callers share it, so it must be treated as
        read-only.  ``build`` must depend only on the nodes, links and
        radio, and ``key`` must name everything else it depends on.
        """
        # Growth replaces the dict rather than clearing it, so a build
        # that raced an add_node/add_link lands in the dropped dict.
        derived = self._derived
        try:
            return derived[key]
        except KeyError:
            value = derived[key] = build()
            return value

    # -- graph views -----------------------------------------------------------------

    def to_digraph(self) -> nx.DiGraph:
        """A fresh directed graph of the registered links.

        Edge attributes: ``link`` (the :class:`Link`) and, on geometric
        networks, ``rate_mbps``/``length_m`` from the link's maximum
        standalone rate.  Each call builds a new graph that the caller
        may change; routing reads :meth:`routing_graph` instead.
        """
        graph = nx.DiGraph()
        # Tuple snapshots, so a concurrent add_node/add_link cannot break
        # the iteration.
        for node in self.nodes:
            graph.add_node(node.node_id, node=node)
        for link in self.links:
            attrs = {"link": link}
            if link.sender.has_position and link.receiver.has_position:
                rate = self.max_standalone_rate(link)
                attrs["length_m"] = link.length_m
                attrs["rate_mbps"] = rate.mbps if rate is not None else 0.0
            graph.add_edge(link.sender.node_id, link.receiver.node_id, **attrs)
        return graph

    def routing_graph(self) -> nx.DiGraph:
        """The routing substrate: one :meth:`to_digraph` per network state.

        Built on first use and rebuilt only after the network grows, so
        it has the node and edge insertion order of a fresh
        :meth:`to_digraph`, and Dijkstra breaks ties on it the same way.
        Shared by every route: read it, never change it.
        """
        return self.derived("routing_graph", self.to_digraph)

    def build_links_within_range(self) -> int:
        """Register links for every ordered node pair in transmission range.

        Convenience for geometric topologies: after placing nodes, this adds
        a directed link wherever the slowest rate reaches.  Returns the
        number of links added; pairs that already have a link are skipped.
        """
        if not self.is_geometric:
            raise TopologyError("build_links_within_range needs coordinates")
        added = 0
        max_range = self.radio.rate_table.max_range_m
        node_list = list(self._nodes.values())
        # Vectorized prefilter with a one-ulp slack, then the exact scalar
        # distance check: numpy's hypot can differ from ``math.hypot`` in
        # the last ulp, so the slack keeps borderline pairs in the candidate
        # set and the scalar confirmation keeps the link set byte-identical
        # to the pure-Python double loop at any scale.
        xs = np.array([node.x for node in node_list], dtype=float)
        ys = np.array([node.y for node in node_list], dtype=float)
        near = (
            np.hypot(xs[:, None] - xs[None, :], ys[:, None] - ys[None, :])
            <= max_range * (1.0 + 1e-9)
        )
        for i, j in zip(*np.nonzero(near)):
            sender = node_list[i]
            receiver = node_list[j]
            if sender.node_id == receiver.node_id:
                continue
            if self.has_link(sender.node_id, receiver.node_id):
                continue
            if sender.distance_to(receiver) <= max_range:
                self.add_link(sender.node_id, receiver.node_id)
                added += 1
        return added

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Network({self.name!r}, {len(self._nodes)} nodes, "
            f"{len(self._links)} links)"
        )
