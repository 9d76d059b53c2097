"""The Eq. 6 available-bandwidth LP and schedule extraction."""

import pytest

from repro import Path, available_path_bandwidth
from repro.core.bandwidth import (
    joint_admission_scale,
    link_demands_from_paths,
    min_airtime_schedule,
    tdma_schedule,
)
from repro.errors import InfeasibleProblemError


class TestLinkDemands:
    def test_accumulates_shared_links(self, line_network):
        p1 = Path([line_network.link_between("n0", "n1"),
                   line_network.link_between("n1", "n2")])
        p2 = Path([line_network.link_between("n1", "n2")])
        demands = link_demands_from_paths([(p1, 2.0), (p2, 3.0)])
        assert demands[line_network.link_between("n0", "n1")] == 2.0
        assert demands[line_network.link_between("n1", "n2")] == 5.0

    def test_negative_demand_rejected(self, line_network):
        path = Path([line_network.link_between("n0", "n1")])
        with pytest.raises(InfeasibleProblemError):
            link_demands_from_paths([(path, -1.0)])


class TestScenarioOne:
    def test_optimal_overlap(self, s1_bundle):
        """The paper's Scenario I: available bandwidth is (1-λ)·r because
        the optimum overlaps L1 and L2."""
        result = available_path_bandwidth(
            s1_bundle.model, s1_bundle.new_path, s1_bundle.background
        )
        assert result.available_bandwidth == pytest.approx(0.7 * 54.0)

    def test_schedule_delivers_everything(self, s1_bundle):
        result = available_path_bandwidth(
            s1_bundle.model, s1_bundle.new_path, s1_bundle.background
        )
        net = s1_bundle.network
        demands = dict(result.background_demands)
        demands[net.link("L3")] = result.available_bandwidth
        assert result.schedule.delivers(demands)

    def test_schedule_entries_are_independent_sets(self, s1_bundle):
        result = available_path_bandwidth(
            s1_bundle.model, s1_bundle.new_path, s1_bundle.background
        )
        result.schedule.validate(s1_bundle.model)

    def test_supports(self, s1_bundle):
        result = available_path_bandwidth(
            s1_bundle.model, s1_bundle.new_path, s1_bundle.background
        )
        assert result.supports(37.0)
        assert not result.supports(38.5)


class TestScenarioTwo:
    def test_paper_headline_number(self, s2_bundle):
        result = available_path_bandwidth(s2_bundle.model, s2_bundle.path)
        assert result.available_bandwidth == pytest.approx(16.2)

    def test_paper_schedule_shares(self, s2_bundle):
        """λ = 0.1 on {L1@54}, 0.3 on each of {L2@54}, {L3@54},
        {(L1,36),(L4,54)}."""
        result = available_path_bandwidth(s2_bundle.model, s2_bundle.path)
        shares = sorted(
            entry.time_share for entry in result.schedule.entries
        )
        assert shares == pytest.approx([0.1, 0.3, 0.3, 0.3])

    def test_uses_full_period(self, s2_bundle):
        result = available_path_bandwidth(s2_bundle.model, s2_bundle.path)
        assert result.schedule.total_airtime == pytest.approx(1.0)

    def test_background_reduces_availability(self, s2_bundle):
        prefix = Path([s2_bundle.network.link("L2")])
        loaded = available_path_bandwidth(
            s2_bundle.model, s2_bundle.path, [(prefix, 10.0)]
        )
        assert loaded.available_bandwidth < 16.2

    def test_infeasible_background_raises(self, s2_bundle):
        prefix = Path([s2_bundle.network.link("L2")])
        with pytest.raises(InfeasibleProblemError):
            available_path_bandwidth(
                s2_bundle.model, s2_bundle.path, [(prefix, 60.0)]
            )


class TestMinAirtime:
    def test_empty_background(self, s1_bundle):
        schedule = min_airtime_schedule(s1_bundle.model, [])
        assert schedule.total_airtime == 0.0

    def test_overlaps_non_conflicting_links(self, s1_bundle):
        schedule = min_airtime_schedule(s1_bundle.model, s1_bundle.background)
        # L1 and L2 can share slots: total airtime is one λ, not two.
        assert schedule.total_airtime == pytest.approx(0.3)

    def test_delivers_demands(self, s1_bundle):
        schedule = min_airtime_schedule(s1_bundle.model, s1_bundle.background)
        net = s1_bundle.network
        assert schedule.delivers(
            {net.link("L1"): 16.2, net.link("L2"): 16.2}
        )

    def test_infeasible_demand_raises_with_residual(self, s1_bundle):
        heavy = [
            (path, 40.0) for path, _demand in s1_bundle.background
        ] + [(Path([s1_bundle.network.link("L3")]), 40.0)]
        with pytest.raises(InfeasibleProblemError) as excinfo:
            min_airtime_schedule(s1_bundle.model, heavy)
        assert excinfo.value.residual > 0


class TestTdmaSchedule:
    def test_serialises_everything(self, s1_bundle):
        schedule = tdma_schedule(s1_bundle.model, s1_bundle.background)
        # Two links x 0.3 each, no overlap.
        assert schedule.total_airtime == pytest.approx(0.6)
        for entry in schedule.entries:
            assert entry.independent_set.size == 1

    def test_overflow_raises(self, s1_bundle):
        heavy = [(path, 30.0) for path, _d in s1_bundle.background]
        with pytest.raises(InfeasibleProblemError):
            tdma_schedule(s1_bundle.model, heavy)


class TestJointAdmission:
    def test_scale_on_empty_is_infinite(self, s1_bundle):
        theta, _schedule = joint_admission_scale(s1_bundle.model, [])
        assert theta == float("inf")

    def test_scenario_one_joint(self, s1_bundle):
        """L1 and L2 at demand d each plus L3 at demand d: L3 serialises
        with both, but L1/L2 overlap: θ·(d/54 + d/54) = 1 at optimum."""
        flows = list(s1_bundle.background) + [
            (Path([s1_bundle.network.link("L3")]), 16.2)
        ]
        theta, schedule = joint_admission_scale(s1_bundle.model, flows)
        # demands are all 16.2 = 0.3·54; airtime per unit θ is 0.3 (L1||L2)
        # + 0.3 (L3) = 0.6, so θ* = 1/0.6 = 5/3.
        assert theta == pytest.approx(5.0 / 3.0)
        assert schedule.total_airtime <= 1.0 + 1e-9

    def test_all_zero_demands_is_infinite(self, s2_bundle):
        theta, schedule = joint_admission_scale(
            s2_bundle.model, [(s2_bundle.path, 0.0)]
        )
        assert theta == float("inf")
        assert len(schedule) == 0

    def test_schedule_at_scale_delivers(self, s2_bundle):
        flows = [(s2_bundle.path, 10.0)]
        theta, schedule = joint_admission_scale(s2_bundle.model, flows)
        assert theta == pytest.approx(1.62)
        for link in s2_bundle.path:
            assert schedule.throughput_of(link) + 1e-6 >= theta * 10.0


class TestNanHardening:
    def test_nan_demand_rejected(self, line_network):
        path = Path([line_network.link_between("n0", "n1")])
        with pytest.raises(InfeasibleProblemError, match="non-finite"):
            link_demands_from_paths([(path, float("nan"))])

    def test_inf_demand_rejected(self, line_network):
        path = Path([line_network.link_between("n0", "n1")])
        with pytest.raises(InfeasibleProblemError, match="non-finite"):
            link_demands_from_paths([(path, float("inf"))])
