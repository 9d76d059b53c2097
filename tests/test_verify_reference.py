"""Brute-force references agree with the optimized stack (paper scenarios)."""

from unittest import mock

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.bandwidth import available_path_bandwidth
from repro.core.bounds import clique_upper_bound
from repro.core.cliques import enumerate_maximal_rate_cliques, fixed_rate_cliques
from repro.core.independent_sets import enumerate_maximal_independent_sets
from repro.errors import VerificationError
from repro.experiments import ablations
from repro.interference.base import LinkRate
from repro.interference.conflict_graph import build_link_rate_conflict_graph
from repro.verify.instances import instance_strategy
from repro.verify.reference import (
    DEFAULT_MAX_ASSIGNMENTS,
    reference_available_bandwidth,
    reference_best_pure_vector,
    reference_clique_upper_bound,
    reference_clique_value,
    reference_fixed_rate_cliques,
    reference_independent_sets,
    reference_maximal_sets,
    reference_prune,
    replay_schedule,
)
from repro.workloads.scenarios import scenario_two


@pytest.fixture(scope="module")
def s2():
    return scenario_two()


@pytest.fixture(scope="module")
def s2_links(s2):
    return list(s2.path.links)


class TestEnumeration:
    def test_matches_optimized_on_scenario_two(self, s2, s2_links):
        optimized = {
            frozenset(column.couples)
            for column in enumerate_maximal_independent_sets(
                s2.model, s2_links
            )
        }
        reference = set(reference_independent_sets(s2.model, s2_links))
        assert optimized == reference

    def test_pruning_only_removes_dominated(self, s2, s2_links):
        unpruned = reference_maximal_sets(s2.model, s2_links)
        pruned = reference_prune(unpruned)
        assert set(pruned) <= set(unpruned)
        assert len(pruned) <= len(unpruned)

    def test_cap_refuses_rather_than_grinding(self, s2, s2_links):
        with pytest.raises(VerificationError, match="exceed the reference cap"):
            reference_maximal_sets(s2.model, s2_links, max_assignments=3)

    def test_default_cap_is_generous(self, s2, s2_links):
        # Four links, two rates each: 3^4 = 81 assignments, far below cap.
        assert 3 ** len(s2_links) < DEFAULT_MAX_ASSIGNMENTS
        assert reference_maximal_sets(s2.model, s2_links)


class TestEq6Reference:
    def test_scenario_two_optimum(self, s2):
        assert reference_available_bandwidth(
            s2.model, s2.path
        ) == pytest.approx(16.2, abs=1e-6)

    def test_agrees_with_optimized_under_background(self, s2):
        from repro.net.path import Path

        background = [(Path([s2.network.link("L1")]), 5.0)]
        optimized = available_path_bandwidth(
            s2.model, s2.path, background
        ).available_bandwidth
        reference = reference_available_bandwidth(s2.model, s2.path, background)
        assert optimized == pytest.approx(reference, abs=1e-6)


class TestCliqueReferences:
    def test_fixed_rate_cliques_match_optimized(self, s2, s2_links):
        table = s2.network.radio.rate_table
        vector = {link: table.get(54.0) for link in s2_links}
        optimized = {
            frozenset(clique.couples)
            for clique in fixed_rate_cliques(s2.model, vector)
        }
        reference = {
            frozenset(clique)
            for clique in reference_fixed_rate_cliques(s2.model, vector)
        }
        assert optimized == reference

    @given(instance=instance_strategy(), data=st.data())
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_clique_families_match_networkx(self, instance, data):
        # Every couple family runs on the one bitmask Bron–Kerbosch; pin
        # each against networkx on the conflict graph over the same links.
        model = instance.model
        usable = [
            link for link in instance.links if model.standalone_rates(link)
        ]
        rate_graph = build_link_rate_conflict_graph(
            model, usable, same_link_edges=False
        )
        assert {
            frozenset(clique.couples)
            for clique in enumerate_maximal_rate_cliques(model, usable)
        } == {frozenset(clique) for clique in nx.find_cliques(rate_graph)}
        if not usable:
            return
        conflict = build_link_rate_conflict_graph(model, usable)
        for _ in range(3):
            vector = {
                link: data.draw(st.sampled_from(model.standalone_rates(link)))
                for link in usable
            }
            assert {
                frozenset(clique.couples)
                for clique in fixed_rate_cliques(model, vector)
            } == {
                frozenset(clique)
                for clique in reference_fixed_rate_cliques(model, vector)
            }
            pinned = conflict.subgraph(
                LinkRate(link, rate) for link, rate in vector.items()
            )
            with mock.patch.object(
                ablations, "available_path_bandwidth"
            ) as solve:
                ablations.fixed_rate_available_bandwidth(
                    model, instance.new_path, vector
                )
            columns = solve.call_args.kwargs["independent_sets"]
            assert {frozenset(column.couples) for column in columns} == {
                frozenset(members)
                for members in nx.find_cliques(nx.complement(pinned))
            }

    def test_clique_value_is_eq7(self, s2, s2_links):
        table = s2.network.radio.rate_table
        vector = {link: table.get(54.0) for link in s2_links}
        cliques = reference_fixed_rate_cliques(s2.model, vector)
        # The all-54 four-link clique C1 evaluates to 54/4 = 13.5 Mbps.
        full = next(c for c in cliques if len(c) == 4)
        assert reference_clique_value(full) == pytest.approx(13.5)

    def test_eq9_reference_matches_optimized(self, s2):
        optimized = clique_upper_bound(s2.model, s2.path).upper_bound
        reference = reference_clique_upper_bound(s2.model, s2.path)
        assert optimized == pytest.approx(reference, abs=1e-6)
        assert reference == pytest.approx(16.2, abs=1e-6)

    def test_eq9_dominates_best_pure_vector(self, s2):
        # Scenario II's headline: mixing rate vectors beats every pure one
        # (16.2 > 15.4286), so the paper's Eq. 7 chain bound fails.
        pure = reference_best_pure_vector(s2.model, s2.path)
        assert pure == pytest.approx(108.0 / 7.0, abs=1e-6)
        assert reference_clique_upper_bound(s2.model, s2.path) > pure + 0.5


class TestScheduleReplay:
    def test_optimized_schedule_is_executable(self, s2):
        result = available_path_bandwidth(s2.model, s2.path)
        report = replay_schedule(
            s2.model, result.schedule, s2.path, slots=100_000
        )
        assert report.entries_independent
        assert report.airtime_ok
        assert report.delivers_background
        assert report.executable
        assert (
            report.achieved + report.quantization_tolerance + 1e-6
            >= result.available_bandwidth
        )

    def test_finer_slots_shrink_tolerance(self, s2):
        result = available_path_bandwidth(s2.model, s2.path)
        coarse = replay_schedule(
            s2.model, result.schedule, s2.path, slots=1_000
        )
        fine = replay_schedule(
            s2.model, result.schedule, s2.path, slots=100_000
        )
        assert fine.quantization_tolerance < coarse.quantization_tolerance
