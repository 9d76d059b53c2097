"""Feasibility of link demand vectors (Eq. 2/4)."""

import pytest

from repro.core.feasibility import (
    feasibility_margin,
    is_feasible,
    required_airtime,
)
from repro.errors import InfeasibleProblemError
from repro.obs import Recorder, use_recorder


class TestRequiredAirtime:
    def test_empty_demands(self, s2_bundle):
        assert required_airtime(s2_bundle.model, {}) == 0.0

    def test_scenario_two_at_optimum(self, s2_bundle):
        demands = {link: 16.2 for link in s2_bundle.path}
        assert required_airtime(s2_bundle.model, demands) == pytest.approx(1.0)

    def test_above_optimum_needs_more_than_one(self, s2_bundle):
        demands = {link: 18.0 for link in s2_bundle.path}
        assert required_airtime(s2_bundle.model, demands) > 1.0

    def test_scales_linearly(self, s2_bundle):
        half = {link: 8.1 for link in s2_bundle.path}
        assert required_airtime(s2_bundle.model, half) == pytest.approx(0.5)


class TestIsFeasible:
    def test_paper_vector_feasible(self, s2_bundle):
        demands = {link: 16.2 for link in s2_bundle.path}
        assert is_feasible(s2_bundle.model, demands)

    def test_slightly_above_infeasible(self, s2_bundle):
        demands = {link: 16.3 for link in s2_bundle.path}
        assert not is_feasible(s2_bundle.model, demands)

    def test_scenario_one_overlap(self, s1_bundle):
        net = s1_bundle.network
        demands = {
            net.link("L1"): 16.2,
            net.link("L2"): 16.2,
            net.link("L3"): 0.7 * 54.0,
        }
        assert is_feasible(s1_bundle.model, demands)


class TestMargin:
    def test_positive_margin(self, s2_bundle):
        demands = {link: 8.1 for link in s2_bundle.path}
        assert feasibility_margin(s2_bundle.model, demands) == pytest.approx(0.5)

    def test_negative_margin_when_infeasible(self, s2_bundle):
        demands = {link: 32.4 for link in s2_bundle.path}
        assert feasibility_margin(s2_bundle.model, demands) == pytest.approx(-1.0)


class TestDemandValidation:
    """Bad demands are rejected like ``link_demands_from_paths`` does."""

    @pytest.mark.parametrize(
        "bad, message",
        [(-1.0, "negative"), (float("nan"), "non-finite")],
        ids=["negative", "nan"],
    )
    def test_required_airtime_rejects(self, s2_bundle, bad, message):
        demands = {link: 1.0 for link in s2_bundle.path}
        demands[s2_bundle.path[0]] = bad
        with pytest.raises(InfeasibleProblemError, match=message):
            required_airtime(s2_bundle.model, demands)
        with pytest.raises(InfeasibleProblemError, match=message):
            feasibility_margin(s2_bundle.model, demands)
        assert not is_feasible(s2_bundle.model, demands)

    def test_nan_demand_never_reaches_the_solver(self, s2_bundle):
        demands = {link: float("nan") for link in s2_bundle.path}
        recorder = Recorder()
        with use_recorder(recorder):
            assert not is_feasible(s2_bundle.model, demands)
        assert recorder.counters.get("lp.solves", 0) == 0
        assert recorder.counters.get("lp.failures", 0) == 0
