"""Edge cases across modules, targeting thinly covered branches."""

import math

import pytest

from repro import Path


class TestTdmaSharing:
    """The water-filling capacity sharing of the frame simulator."""

    def _run_share(self, capacity, backlogs):
        from repro.mac.tdma import _share_capacity, FlowStats
        from repro.workloads.scenarios import scenario_two

        bundle = scenario_two()
        path = Path([bundle.network.link("L1")])
        flows = [(path, 1.0) for _ in backlogs]
        queues = [[backlog] for backlog in backlogs]
        stats = [
            FlowStats(flow_index=i, offered_mbps=1.0)
            for i in range(len(backlogs))
        ]
        claimants = [(i, 0) for i in range(len(backlogs))]
        _share_capacity(capacity, claimants, queues, flows, stats, True)
        delivered = [s.delivered_megabits for s in stats]
        return delivered, [q[0] for q in queues]

    def test_even_split_when_all_backlogged(self):
        delivered, remaining = self._run_share(10.0, [100.0, 100.0])
        assert delivered == pytest.approx([5.0, 5.0])

    def test_small_flow_releases_surplus(self):
        delivered, remaining = self._run_share(10.0, [2.0, 100.0])
        assert delivered == pytest.approx([2.0, 8.0])
        assert remaining[0] == pytest.approx(0.0)

    def test_capacity_exceeds_total_backlog(self):
        delivered, remaining = self._run_share(10.0, [1.0, 2.0])
        assert delivered == pytest.approx([1.0, 2.0])
        assert remaining == pytest.approx([0.0, 0.0])

    def test_three_way_water_fill(self):
        delivered, _rem = self._run_share(9.0, [1.0, 10.0, 10.0])
        assert delivered == pytest.approx([1.0, 4.0, 4.0])


class TestFrameStride:
    def test_coprime_for_small_sizes(self):
        from repro.core.frame import _coprime_stride

        for n in range(1, 60):
            stride = _coprime_stride(n)
            assert 1 <= stride < max(2, n + 1)
            assert math.gcd(stride, n) == 1


def _pricing_space(bundle):
    """The couple space pricing runs on over ``bundle.path``, and its
    conflict graph."""
    from repro.core.independent_sets import CoupleSpace
    from repro.interference.conflict_graph import build_link_rate_conflict_graph

    links = list(bundle.path.links)
    return (
        CoupleSpace(bundle.model, links),
        build_link_rate_conflict_graph(bundle.model, links),
    )


def _assert_conflict_free(graph, chosen):
    assert chosen
    chosen_list = list(chosen)
    for i, a in enumerate(chosen_list):
        for b in chosen_list[i + 1:]:
            assert not graph.has_edge(a, b)


class TestExactPricingOracle:
    def test_exact_respects_conflicts(self, s2_bundle):
        from repro.core.independent_sets import _mask_members

        from repro.core.column_generation import _price

        space, graph = _pricing_space(s2_bundle)
        weights = [vertex.rate.mbps for vertex in space.couples]
        mask, value = _price(space, weights)
        chosen = _mask_members(mask, space.couples)
        _assert_conflict_free(graph, chosen)
        assert value == sum(vertex.rate.mbps for vertex in chosen)

    def test_exact_ignores_nonpositive_weights(self, s2_bundle):
        from repro.core.column_generation import _price

        space, _graph = _pricing_space(s2_bundle)
        weights = [-float(index % 2) for index in range(len(space.couples))]
        assert _price(space, weights) == (0, 0.0)


class TestAllowOverload:
    def test_scaled_schedule_fits_one_period(self, s1_bundle):
        from repro.core.column_generation import min_airtime_column_generation

        heavy = [(path, 40.0) for path, _d in s1_bundle.background] + [
            (Path([s1_bundle.network.link("L3")]), 40.0)
        ]
        schedule = min_airtime_column_generation(
            s1_bundle.model, heavy, allow_overload=True
        )
        assert schedule.total_airtime == pytest.approx(1.0, abs=1e-6)

    def test_proportional_degradation(self, s1_bundle):
        from repro.core.column_generation import min_airtime_column_generation

        heavy = [(path, 40.0) for path, _d in s1_bundle.background] + [
            (Path([s1_bundle.network.link("L3")]), 40.0)
        ]
        schedule = min_airtime_column_generation(
            s1_bundle.model, heavy, allow_overload=True
        )
        # L3 serialises with L1||L2: need 40/54 + 40/54 = 1.4815 airtime;
        # scaled to 1, every link carries 40 / 1.4815 = 27 Mbps.
        link3 = s1_bundle.network.link("L3")
        assert schedule.throughput_of(link3) == pytest.approx(27.0, abs=0.01)


class TestFig4Validation:
    def test_invalid_idleness_source(self):
        from repro.errors import ConfigurationError
        from repro.experiments.fig4_estimation import run_fig4

        with pytest.raises(ConfigurationError, match="idleness_source"):
            run_fig4(idleness_source="psychic")


class TestCliFlagsOnNonConfigurable:
    def test_flags_ignored_for_e2(self, capsys):
        from repro.cli import main

        assert main(["run", "e2", "--flows", "3"]) == 0
        assert "16.200" in capsys.readouterr().out


class TestVerifyFormatting:
    def test_fail_rendering(self):
        from repro.verify import VerificationCheck, format_verification

        checks = [
            VerificationCheck("good", expected=1.0, measured=1.0),
            VerificationCheck("bad", expected=1.0, measured=2.0),
        ]
        text = format_verification(checks)
        assert "[PASS] good" in text
        assert "[FAIL] bad" in text
        assert "1/2 checks passed" in text


class TestChurnPolicyHelper:
    def test_truth_policy_decision(self, s2_bundle):
        from repro.workloads.churn import _policy_decision

        idleness = {n.node_id: 1.0 for n in s2_bundle.network.nodes}
        accepted = _policy_decision(
            "truth", s2_bundle.model, s2_bundle.path, 10.0, idleness, []
        )
        rejected = _policy_decision(
            "truth", s2_bundle.model, s2_bundle.path, 20.0, idleness, []
        )
        assert accepted and not rejected


class TestMapView:
    def test_fig2_map_contains_paths(self):
        from repro.experiments.fig2_paths import run_fig2
        from repro.experiments.fig3_routing import Fig3Config

        result = run_fig2(Fig3Config(n_flows=2))
        view = result.map_view(width=40, height=20)
        assert view.count("|") >= 20
        assert "*" in view
