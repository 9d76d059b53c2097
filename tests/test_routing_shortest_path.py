"""Dijkstra routing over metric weights."""

import math

import networkx as nx
import pytest

from repro import Network, ProtocolInterferenceModel, paper_random_topology
from repro.errors import RoutingError, TopologyError
from repro.estimation.estimators import ESTIMATORS
from repro.routing.k_shortest import k_shortest_paths
from repro.routing.metrics import METRICS, RoutingContext
from repro.routing.shortest_path import route
from repro.routing.widest_path import widest_estimate_route


class TestOnLine:
    def test_hop_count_prefers_long_hops(self, line_network, line_protocol):
        context = RoutingContext(model=line_protocol)
        path = route(line_network, "n0", "n4", METRICS["hop-count"], context)
        # 140 m double-hops: n0->n2->n4.
        assert str(path) == "n0->n2->n4"

    def test_e2etd_prefers_fast_hops(self, line_network, line_protocol):
        context = RoutingContext(model=line_protocol)
        path = route(line_network, "n0", "n4", METRICS["e2eTD"], context)
        # 4 hops at 36 Mbps (4/36) beat 2 hops at 6 Mbps (2/6).
        assert str(path) == "n0->n1->n2->n3->n4"

    def test_unknown_endpoint_raises(self, line_network, line_protocol):
        context = RoutingContext(model=line_protocol)
        with pytest.raises(TopologyError):
            route(line_network, "n0", "ghost", METRICS["hop-count"], context)


class TestAvoidance:
    def test_average_e2ed_detours_around_busy_nodes(self, radio):
        """A triangle: direct fast edge vs a two-hop detour; when the
        direct edge's endpoints are busy, average-e2eD detours."""
        network = Network(radio)
        network.add_node("s", x=0.0, y=0.0)
        network.add_node("d", x=100.0, y=0.0)
        network.add_node("via", x=50.0, y=60.0)
        network.build_links_within_range()
        model = ProtocolInterferenceModel(network)
        idleness = {"s": 1.0, "d": 1.0, "via": 1.0}
        context = RoutingContext(model=model, node_idleness=idleness)
        direct = route(network, "s", "d", METRICS["average-e2eD"], context)
        assert str(direct) == "s->d"

        # Now make the destination neighbourhood busy except via the relay:
        # the direct 100 m link runs at 18 Mbps; the relay hops at 36 Mbps.
        # With idleness 1.0 everywhere the relay already costs 2/36 = 1/18,
        # a tie with the direct 1/18 — drop direct-link idleness slightly.
        idleness = {"s": 0.5, "d": 1.0, "via": 1.0}
        context = RoutingContext(model=model, node_idleness=idleness)
        path = route(network, "s", "d", METRICS["average-e2eD"], context)
        # s is busy on every first hop, so the tie-break is the second
        # hop: via->d at 36 Mbps idle beats the slower direct remainder.
        assert str(path) == "s->via->d"

    def test_no_route_raises(self, radio):
        network = Network(radio)
        network.add_node("a", x=0.0, y=0.0)
        network.add_node("b", x=1000.0, y=0.0)
        model_net = Network(radio)  # geometric but empty of links
        model_net.add_node("a", x=0.0, y=0.0)
        model_net.add_node("b", x=1000.0, y=0.0)
        model = ProtocolInterferenceModel(model_net)
        context = RoutingContext(model=model)
        with pytest.raises(RoutingError):
            route(model_net, "a", "b", METRICS["hop-count"], context)

    def test_fully_busy_network_unroutable_under_average(self, line_network,
                                                         line_protocol):
        idleness = {node.node_id: 0.0 for node in line_network.nodes}
        context = RoutingContext(
            model=line_protocol, node_idleness=idleness
        )
        with pytest.raises(RoutingError):
            route(line_network, "n0", "n4", METRICS["average-e2eD"], context)


def _contexts(network, model):
    """Load-free routing for every metric, plus a loaded average-e2eD
    context whose idle-less nodes make some pairs unroutable."""
    nodes = [node.node_id for node in network.nodes]
    idleness = {
        node: (0.0, 0.4, 1.0)[index % 3] for index, node in enumerate(nodes)
    }
    plain = RoutingContext(model=model)
    loaded = RoutingContext(model=model, node_idleness=idleness)
    return [(metric, plain) for metric in METRICS.values()] + [
        (METRICS["average-e2eD"], loaded)
    ]


def _fresh_route(graph, source, destination, metric, context):
    """The reference: Dijkstra on a freshly built graph, or ``None``."""

    def weight(u, v, data):
        value = metric.weight(data["link"], context)
        return None if math.isinf(value) else value

    try:
        return nx.dijkstra_path(graph, source, destination, weight=weight)
    except nx.NetworkXNoPath:
        return None


@pytest.fixture
def fresh_graphs(monkeypatch):
    """Make every routing call build its graph anew, as ``to_digraph``
    does, to compare against the shared graph."""

    def run(call):
        with monkeypatch.context() as patch:
            patch.setattr(Network, "routing_graph", Network.to_digraph)
            return call()

    return run


class TestRoutingGraph:
    """Routes read one graph per network state and equal a fresh build."""

    @pytest.fixture(params=["line", "paper-8", "paper-3"])
    def topology(self, request):
        if request.param == "line":
            return request.getfixturevalue("line_network")
        if request.param == "paper-8":
            return request.getfixturevalue("small_random_topology")
        return paper_random_topology(seed=3)

    def test_all_pairs_equal_fresh_dijkstra(self, topology):
        network = topology
        model = ProtocolInterferenceModel(network)
        graph = network.to_digraph()
        nodes = [node.node_id for node in network.nodes]
        unroutable = 0
        for metric, context in _contexts(network, model):
            for source in nodes:
                for destination in nodes:
                    if source == destination:
                        continue
                    expected = _fresh_route(
                        graph, source, destination, metric, context
                    )
                    try:
                        path = route(
                            network, source, destination, metric, context
                        )
                    except RoutingError:
                        assert expected is None, (source, destination)
                        unroutable += 1
                    else:
                        assert [node.node_id for node in path.nodes] == (
                            expected
                        ), (metric.name, source, destination)
        assert unroutable > 0

    def test_k_shortest_and_widest_equal_fresh_graph(
        self, small_random_topology, fresh_graphs
    ):
        network = small_random_topology
        model = ProtocolInterferenceModel(network)
        nodes = [node.node_id for node in network.nodes]
        pairs = list(zip(nodes, nodes[7:] + nodes[:7]))[:12]
        for metric, context in _contexts(network, model):
            for source, destination in pairs:

                def paths():
                    try:
                        return k_shortest_paths(
                            network, source, destination, metric, context, k=3
                        )
                    except RoutingError as error:
                        return str(error)

                assert paths() == fresh_graphs(paths)
        idleness = {node: 1.0 for node in nodes}
        estimator = ESTIMATORS["bottleneck"]
        for source, destination in pairs[:4]:

            def widest():
                return widest_estimate_route(
                    network, model, source, destination, estimator, idleness
                )

            assert widest() == fresh_graphs(widest)

    def test_one_build_per_network_state(self, line_network, monkeypatch):
        builds = []
        to_digraph = Network.to_digraph

        def counting(self):
            builds.append(self)
            return to_digraph(self)

        monkeypatch.setattr(Network, "to_digraph", counting)
        context = RoutingContext(model=ProtocolInterferenceModel(line_network))
        nodes = [node.node_id for node in line_network.nodes]
        for index in range(100):
            source = nodes[index % 5]
            destination = nodes[(index + 1 + index // 5) % 5]
            if source == destination:
                destination = nodes[(index + 2) % 5]
            route(line_network, source, destination, METRICS["e2eTD"], context)
        assert len(builds) == 1
        line_network.add_node("n5", x=350.0, y=0.0)
        line_network.add_link("n4", "n5")
        for _ in range(10):
            route(line_network, "n0", "n5", METRICS["e2eTD"], context)
        assert len(builds) == 2

    def test_growth_reroutes_over_new_shortcut(self, radio):
        network = Network(radio)
        network.add_node("a", x=0.0, y=0.0)
        network.add_node("b", x=150.0, y=0.0)
        network.add_node("c", x=300.0, y=0.0)
        network.add_link("a", "b")
        network.add_link("b", "c")
        model = ProtocolInterferenceModel(network)
        metric = METRICS["e2eTD"]
        before = route(network, "a", "c", metric, RoutingContext(model=model))
        assert str(before) == "a->b->c"  # two 6 Mbps hops: 2/6
        network.add_node("m", x=75.0, y=0.0)
        assert route(network, "a", "c", metric, RoutingContext(model=model)) == before
        network.add_link("a", "m")
        network.add_link("m", "b")
        after = route(network, "a", "c", metric, RoutingContext(model=model))
        # Two 36 Mbps hops replace the first 6 Mbps one: 2/36 + 1/6.
        assert str(after) == "a->m->b->c"

    def test_mutating_to_digraph_does_not_change_routes(
        self, line_network, line_protocol
    ):
        context = RoutingContext(model=line_protocol)
        metric = METRICS["e2eTD"]
        before = route(line_network, "n0", "n4", metric, context)
        graph = line_network.to_digraph()
        for u, v in list(graph.edges):
            if (u, v) != ("n0", "n2"):
                graph.remove_edge(u, v)
        graph.add_edge("n0", "n4", link=line_network.link_between("n0", "n2"))
        assert route(line_network, "n0", "n4", metric, context) == before
        assert str(before) == "n0->n1->n2->n3->n4"
