"""Column generation vs full enumeration."""

import pytest

from repro import Path, available_path_bandwidth
from repro.core.bandwidth import min_airtime_schedule
from repro.core.column_generation import (
    min_airtime_column_generation,
    solve_with_column_generation,
)
from repro.errors import InfeasibleProblemError


class TestAgreementWithEnumeration:
    def test_scenario_two(self, s2_bundle):
        cg = solve_with_column_generation(s2_bundle.model, s2_bundle.path)
        assert cg.result.available_bandwidth == pytest.approx(16.2)
        assert cg.proved_optimal

    def test_scenario_one_with_background(self, s1_bundle):
        exact = available_path_bandwidth(
            s1_bundle.model, s1_bundle.new_path, s1_bundle.background
        ).available_bandwidth
        cg = solve_with_column_generation(
            s1_bundle.model, s1_bundle.new_path, s1_bundle.background
        )
        assert cg.result.available_bandwidth == pytest.approx(exact)

    def test_line_network(self, line_protocol, line_network):
        path = Path(
            [
                line_network.link_between("n0", "n1"),
                line_network.link_between("n1", "n2"),
                line_network.link_between("n2", "n3"),
                line_network.link_between("n3", "n4"),
            ]
        )
        exact = available_path_bandwidth(
            line_protocol, path
        ).available_bandwidth
        cg = solve_with_column_generation(line_protocol, path)
        assert cg.result.available_bandwidth == pytest.approx(exact, rel=1e-6)


class TestDiagnostics:
    def test_schedule_is_valid(self, s2_bundle):
        cg = solve_with_column_generation(s2_bundle.model, s2_bundle.path)
        cg.result.schedule.validate(s2_bundle.model)
        assert cg.result.schedule.total_airtime <= 1.0 + 1e-9

    def test_columns_counted(self, s2_bundle):
        cg = solve_with_column_generation(s2_bundle.model, s2_bundle.path)
        assert cg.columns_generated >= 4
        assert cg.iterations >= 1

    def test_iteration_budget_respected(self, s2_bundle):
        cg = solve_with_column_generation(
            s2_bundle.model, s2_bundle.path, max_iterations=1
        )
        assert cg.iterations == 1
        # One iteration cannot have proved optimality AND priced a column,
        # but the value must still be a valid lower bound.
        assert cg.result.available_bandwidth <= 16.2 + 1e-9

    def test_infeasible_background(self, s2_bundle):
        background = [(Path([s2_bundle.network.link("L2")]), 60.0)]
        with pytest.raises(InfeasibleProblemError):
            solve_with_column_generation(
                s2_bundle.model, s2_bundle.path, background
            )


@pytest.mark.parametrize(
    "entry_point",
    [
        lambda bundle, **kw: solve_with_column_generation(
            bundle.model, bundle.path, **kw
        ),
        lambda bundle, **kw: min_airtime_column_generation(
            bundle.model, [(bundle.path, 1.0)], **kw
        ),
    ],
    ids=["eq6", "min-airtime"],
)
def test_iteration_budget_below_one_rejected(s2_bundle, entry_point):
    with pytest.raises(ValueError, match="max_iterations"):
        entry_point(s2_bundle, max_iterations=0)


class TestMinAirtimeCg:
    def test_matches_enumeration(self, s1_bundle):
        exact = min_airtime_schedule(s1_bundle.model, s1_bundle.background)
        cg = min_airtime_column_generation(
            s1_bundle.model, s1_bundle.background
        )
        assert cg.total_airtime == pytest.approx(exact.total_airtime)

    def test_empty_background(self, s1_bundle):
        schedule = min_airtime_column_generation(s1_bundle.model, [])
        assert schedule.total_airtime == 0.0

    def test_delivers(self, s1_bundle):
        schedule = min_airtime_column_generation(
            s1_bundle.model, s1_bundle.background
        )
        net = s1_bundle.network
        assert schedule.delivers({net.link("L1"): 16.2, net.link("L2"): 16.2})

    def test_infeasible_raises(self, s1_bundle):
        heavy = [(path, 40.0) for path, _d in s1_bundle.background] + [
            (Path([s1_bundle.network.link("L3")]), 40.0)
        ]
        with pytest.raises(InfeasibleProblemError):
            min_airtime_column_generation(s1_bundle.model, heavy)
