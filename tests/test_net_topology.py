"""The Network container."""

import pickle
import sys
import threading

import pytest

from repro import Network
from repro.errors import LinkError, TopologyError


@pytest.fixture
def empty(radio):
    return Network(radio, name="t")


class TestConstruction:
    def test_add_node_and_lookup(self, empty):
        node = empty.add_node("a", x=0.0, y=0.0)
        assert empty.node("a") is node
        assert "a" in empty

    def test_duplicate_node_rejected(self, empty):
        empty.add_node("a")
        with pytest.raises(TopologyError):
            empty.add_node("a")

    def test_unknown_node_lookup(self, empty):
        with pytest.raises(TopologyError):
            empty.node("missing")

    def test_add_link(self, empty):
        empty.add_node("a", x=0.0, y=0.0)
        empty.add_node("b", x=50.0, y=0.0)
        link = empty.add_link("a", "b")
        assert link.link_id == "a->b"
        assert empty.link_between("a", "b") is link
        assert empty.has_link("a", "b")
        assert not empty.has_link("b", "a")

    def test_duplicate_pair_rejected(self, empty):
        empty.add_node("a", x=0.0, y=0.0)
        empty.add_node("b", x=50.0, y=0.0)
        empty.add_link("a", "b")
        with pytest.raises(LinkError):
            empty.add_link("a", "b", link_id="again")

    def test_duplicate_link_id_rejected(self, empty):
        for name, x in (("a", 0.0), ("b", 50.0), ("c", 100.0)):
            empty.add_node(name, x=x, y=0.0)
        empty.add_link("a", "b", link_id="L")
        with pytest.raises(LinkError):
            empty.add_link("b", "c", link_id="L")

    def test_out_of_range_link_rejected(self, empty):
        empty.add_node("a", x=0.0, y=0.0)
        empty.add_node("b", x=200.0, y=0.0)  # beyond 158 m
        with pytest.raises(LinkError, match="beyond"):
            empty.add_link("a", "b")

    def test_abstract_link_any_length(self, empty):
        empty.add_node("a")
        empty.add_node("b")
        link = empty.add_link("a", "b", link_id="L1")
        assert link.link_id == "L1"


class TestGeometry:
    def test_is_geometric(self, empty):
        empty.add_node("a", x=0.0, y=0.0)
        assert empty.is_geometric
        empty.add_node("b")
        assert not empty.is_geometric

    def test_distance(self, empty):
        empty.add_node("a", x=0.0, y=0.0)
        empty.add_node("b", x=30.0, y=40.0)
        assert empty.distance("a", "b") == pytest.approx(50.0)

    def test_nodes_within(self, line_network):
        center = line_network.node("n2")
        nearby = {n.node_id for n in line_network.nodes_within(center, 80.0)}
        assert nearby == {"n1", "n3"}

    def test_hearing_set_uses_cs_range(self, line_network):
        # CS range 158 m covers two hops of 70 m each.
        heard = {n.node_id for n in line_network.hearing_set("n0")}
        assert heard == {"n1", "n2"}

    def test_can_hear_self(self, line_network):
        assert line_network.can_hear("n0", "n0")

    def test_can_hear_neighbour_not_far(self, line_network):
        assert line_network.can_hear("n0", "n2")
        assert not line_network.can_hear("n0", "n4")

    def test_max_standalone_rate(self, line_network):
        link = line_network.link_between("n0", "n1")  # 70 m -> 36 Mbps
        assert line_network.max_standalone_rate(link).mbps == 36.0


class TestBuildLinks:
    def test_links_within_range_bidirectional(self, line_network):
        # 70 m spacing: neighbours and next-neighbours (140 m) in range,
        # three hops (210 m) out of range.
        assert line_network.has_link("n0", "n1")
        assert line_network.has_link("n1", "n0")
        assert line_network.has_link("n0", "n2")
        assert not line_network.has_link("n0", "n3")

    def test_count_returned(self, radio):
        network = Network(radio)
        network.add_node("a", x=0.0, y=0.0)
        network.add_node("b", x=50.0, y=0.0)
        assert network.build_links_within_range() == 2
        assert network.build_links_within_range() == 0  # idempotent

    def test_requires_geometry(self, radio):
        network = Network(radio)
        network.add_node("a")
        with pytest.raises(TopologyError):
            network.build_links_within_range()


class TestGraphView:
    def test_digraph_attributes(self, line_network):
        graph = line_network.to_digraph()
        assert graph.number_of_nodes() == 5
        data = graph.get_edge_data("n0", "n1")
        assert data["rate_mbps"] == 36.0
        assert data["length_m"] == pytest.approx(70.0)
        assert data["link"] is line_network.link_between("n0", "n1")

    def test_to_digraph_is_fresh_and_routing_graph_shared(self, line_network):
        first = line_network.to_digraph()
        assert line_network.to_digraph() is not first
        shared = line_network.routing_graph()
        assert shared is line_network.routing_graph()
        assert shared is not first

    def test_routing_graph_matches_fresh_build(self, line_network):
        fresh = line_network.to_digraph()
        shared = line_network.routing_graph()
        assert list(shared.nodes) == list(fresh.nodes)
        assert list(shared.edges(data=True)) == list(fresh.edges(data=True))


class TestDerived:
    def test_value_built_once_per_state(self, line_network):
        builds = []

        def build():
            builds.append(1)
            return object()

        first = line_network.derived("probe", build)
        assert line_network.derived("probe", build) is first
        assert len(builds) == 1

    def test_growth_drops_derived_values(self, line_network):
        graph = line_network.routing_graph()
        line_network.add_node("n5", x=350.0, y=0.0)
        after_node = line_network.routing_graph()
        assert after_node is not graph
        assert "n5" in after_node and "n5" not in graph
        line_network.add_link("n4", "n5")
        after_link = line_network.routing_graph()
        assert after_link is not after_node
        assert after_link.has_edge("n4", "n5")

    def test_failed_growth_keeps_derived_values(self, line_network):
        graph = line_network.routing_graph()
        with pytest.raises(TopologyError):
            line_network.add_node("n0")
        with pytest.raises(LinkError):
            line_network.add_link("n0", "n1")
        assert line_network.routing_graph() is graph

    def test_pickle_carries_no_derived_value(self, line_network):
        before = pickle.dumps(line_network)
        line_network.routing_graph()
        line_network.derived("probe", lambda: list(range(1000)))
        assert pickle.dumps(line_network) == before
        restored = pickle.loads(before)
        assert restored.derived("probe", lambda: "rebuilt") == "rebuilt"
        assert list(restored.routing_graph().edges) == list(
            line_network.routing_graph().edges
        )

    def test_growth_racing_readers_leaves_no_stale_graph(self, radio):
        """Readers build the routing graph while the network grows; once
        growth stops, the shared graph is the current one."""
        network = Network(radio)
        stop = threading.Event()
        errors = []

        def read():
            try:
                while not stop.is_set():
                    network.routing_graph()
            except Exception as error:  # reported by the assertion below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        readers = [threading.Thread(target=read) for _ in range(4)]
        try:
            for reader in readers:
                reader.start()
            for index in range(60):
                network.add_node(f"n{index}", x=20.0 * index, y=0.0)
                if index:
                    network.add_link(f"n{index - 1}", f"n{index}")
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert errors == []
        shared = network.routing_graph()
        fresh = network.to_digraph()
        assert list(shared.nodes) == list(fresh.nodes)
        assert list(shared.edges) == list(fresh.edges)
