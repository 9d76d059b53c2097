"""Link–rate conflict graph construction."""


from repro.core.independent_sets import enumerate_maximal_independent_sets
from repro.interference.base import LinkRate
from repro.interference.conflict_graph import (
    build_link_rate_conflict_graph,
    link_rate_vertices,
)


class TestVertices:
    def test_one_vertex_per_standalone_rate(self, s2_bundle):
        vertices = link_rate_vertices(
            s2_bundle.model, list(s2_bundle.path.links)
        )
        # 4 links x 2 rates (table restricted to 36/54).
        assert len(vertices) == 8

    def test_unusable_links_skipped(self, line_protocol):
        links = list(line_protocol.network.links)
        vertices = link_rate_vertices(line_protocol, links)
        for vertex in vertices:
            assert vertex.rate in line_protocol.standalone_rates(vertex.link)


class TestSharedCouples:
    """A model hands out one couple object per (link, rate), so column
    families enumerated over it share their couples."""

    def _check(self, model, links):
        first = link_rate_vertices(model, links)
        assert first == [
            LinkRate(link, rate)
            for link in links
            for rate in model.standalone_rates(link)
        ]
        for link in links:
            rates = [v.rate.mbps for v in first if v.link == link]
            assert rates == sorted(rates, reverse=True)  # fastest first
        again = {
            (v.link.link_id, v.rate.mbps): v
            for v in link_rate_vertices(model, list(reversed(links)))
        }
        assert all(
            again[(v.link.link_id, v.rate.mbps)] is v for v in first
        )
        family = enumerate_maximal_independent_sets(model, links)
        assert all(
            again[(v.link.link_id, v.rate.mbps)] is v for v in family.couples
        )

    def test_declared_model(self, s2_bundle):
        self._check(s2_bundle.model, list(s2_bundle.path.links))

    def test_protocol_model(self, line_protocol):
        self._check(line_protocol, list(line_protocol.network.links))

    def test_physical_model(self, line_physical):
        self._check(line_physical, list(line_physical.network.links))


class TestGraph:
    def test_same_link_edges_present_by_default(self, s2_bundle):
        graph = build_link_rate_conflict_graph(
            s2_bundle.model, list(s2_bundle.path.links)
        )
        net = s2_bundle.network
        table = net.radio.rate_table
        a = LinkRate(net.link("L1"), table.get(54.0))
        b = LinkRate(net.link("L1"), table.get(36.0))
        assert graph.has_edge(a, b)

    def test_same_link_edges_optional(self, s2_bundle):
        graph = build_link_rate_conflict_graph(
            s2_bundle.model, list(s2_bundle.path.links), same_link_edges=False
        )
        net = s2_bundle.network
        table = net.radio.rate_table
        a = LinkRate(net.link("L1"), table.get(54.0))
        b = LinkRate(net.link("L1"), table.get(36.0))
        assert not graph.has_edge(a, b)

    def test_scenario_two_rate_coupled_edge(self, s2_bundle):
        graph = build_link_rate_conflict_graph(
            s2_bundle.model, list(s2_bundle.path.links)
        )
        net = s2_bundle.network
        table = net.radio.rate_table
        l1_54 = LinkRate(net.link("L1"), table.get(54.0))
        l1_36 = LinkRate(net.link("L1"), table.get(36.0))
        l4_54 = LinkRate(net.link("L4"), table.get(54.0))
        assert graph.has_edge(l1_54, l4_54)
        assert not graph.has_edge(l1_36, l4_54)

    def test_edges_symmetric_model_conflicts(self, line_protocol):
        links = list(line_protocol.network.links)[:6]
        graph = build_link_rate_conflict_graph(line_protocol, links)
        for a, b in graph.edges:
            if a.link != b.link:
                assert line_protocol.conflicts(a, b)
