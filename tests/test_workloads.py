"""Flows and canonical scenarios."""

import pytest

from repro import Flow, Path
from repro.errors import ConfigurationError, TopologyError
from repro.workloads.flows import random_flow_endpoints
from repro.rng import make_rng
from repro.workloads.scenarios import paper_random_topology, scenario_one


class TestFlow:
    def test_same_endpoints_rejected(self):
        with pytest.raises(ConfigurationError):
            Flow(flow_id="f", source="a", destination="a", demand_mbps=1.0)

    def test_nonpositive_demand_rejected(self):
        with pytest.raises(ConfigurationError):
            Flow(flow_id="f", source="a", destination="b", demand_mbps=0.0)

    def test_routed_checks_endpoints(self, line_network):
        flow = Flow(flow_id="f", source="n0", destination="n2", demand_mbps=1.0)
        good = Path(
            [
                line_network.link_between("n0", "n1"),
                line_network.link_between("n1", "n2"),
            ]
        )
        routed = flow.routed(good)
        assert routed.is_routed
        assert routed.path == good
        bad = Path([line_network.link_between("n1", "n2")])
        with pytest.raises(TopologyError):
            flow.routed(bad)

    def test_as_background_requires_route(self):
        flow = Flow(flow_id="f", source="a", destination="b", demand_mbps=2.0)
        with pytest.raises(TopologyError):
            flow.as_background()

    def test_as_background_pair(self, line_network):
        flow = Flow(flow_id="f", source="n0", destination="n1", demand_mbps=2.0)
        path = Path([line_network.link_between("n0", "n1")])
        assert flow.routed(path).as_background() == (path, 2.0)


class TestRandomFlows:
    def test_count_and_demand(self, small_random_topology):
        flows = random_flow_endpoints(
            small_random_topology, 8, demand_mbps=2.0, seed=1
        )
        assert len(flows) == 8
        assert all(f.demand_mbps == 2.0 for f in flows)
        assert all(f.source != f.destination for f in flows)

    def test_deterministic(self, small_random_topology):
        a = random_flow_endpoints(small_random_topology, 5, 2.0, seed=3)
        b = random_flow_endpoints(small_random_topology, 5, 2.0, seed=3)
        assert [(f.source, f.destination) for f in a] == [
            (f.source, f.destination) for f in b
        ]

    def test_min_distance_respected(self, small_random_topology):
        flows = random_flow_endpoints(
            small_random_topology, 5, 2.0, seed=3, min_distance_m=300.0
        )
        for flow in flows:
            assert (
                small_random_topology.distance(flow.source, flow.destination)
                >= 300.0
            )

    @pytest.mark.parametrize("min_distance_m", [0.0, 100.0, 300.0])
    @pytest.mark.parametrize("seed", [0, 3, 17, 2**31 - 5])
    def test_draws_equal_direct_pair_listing(
        self, small_random_topology, seed, min_distance_m
    ):
        """The shared pair list is the per-draw comprehension's, so the
        same ``rng.choice`` picks give the same flows."""
        network = small_random_topology
        nodes = [node.node_id for node in network.nodes]
        candidates = [
            (src, dst)
            for src in nodes
            for dst in nodes
            if src != dst
            and (
                min_distance_m <= 0.0
                or network.distance(src, dst) >= min_distance_m
            )
        ]
        picked = make_rng(seed).choice(len(candidates), size=8, replace=False)
        expected = [
            Flow(f"f{index}", *candidates[pick], demand_mbps=0.2)
            for index, pick in enumerate(picked)
        ]
        for _ in range(2):  # the first draw lists the pairs, the second reuses them
            assert (
                random_flow_endpoints(
                    network, 8, 0.2, seed=seed, min_distance_m=min_distance_m
                )
                == expected
            )

    def test_pairs_follow_network_growth(self, line_network):
        flows = random_flow_endpoints(line_network, 20, 1.0, seed=1)
        assert {flow.source for flow in flows} <= {f"n{i}" for i in range(5)}
        line_network.add_node("n5", x=350.0, y=0.0)
        flows = random_flow_endpoints(line_network, 30, 1.0, seed=1)
        assert "n5" in {flow.source for flow in flows}

    def test_impossible_separation_raises(self, small_random_topology):
        with pytest.raises(ConfigurationError):
            random_flow_endpoints(
                small_random_topology, 5, 2.0, seed=3, min_distance_m=10_000.0
            )


class TestScenarioOne:
    def test_structure(self, s1_bundle):
        assert len(s1_bundle.network.links) == 3
        assert s1_bundle.new_path.hop_count == 1
        assert len(s1_bundle.background) == 2

    def test_share_bounds(self):
        with pytest.raises(ConfigurationError):
            scenario_one(background_share=0.6)
        scenario_one(background_share=0.5)  # boundary allowed

    def test_demand_matches_share(self):
        bundle = scenario_one(background_share=0.25)
        for _path, demand in bundle.background:
            assert demand == pytest.approx(0.25 * 54.0)


class TestScenarioTwo:
    def test_chain_structure(self, s2_bundle):
        assert s2_bundle.path.hop_count == 4
        assert [l.link_id for l in s2_bundle.path] == ["L1", "L2", "L3", "L4"]

    def test_rate_table_restricted(self, s2_bundle):
        assert [r.mbps for r in s2_bundle.network.radio.rate_table] == [
            54.0,
            36.0,
        ]


class TestPaperTopology:
    def test_defaults(self, small_random_topology):
        assert len(small_random_topology.nodes) == 30
        rates = [
            r.mbps for r in small_random_topology.radio.rate_table
        ]
        assert rates == [54.0, 36.0, 18.0, 6.0]

    def test_seed_controls_placement(self):
        a = paper_random_topology(seed=8)
        b = paper_random_topology(seed=8)
        assert [(n.x, n.y) for n in a.nodes] == [(n.x, n.y) for n in b.nodes]
