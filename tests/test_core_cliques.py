"""Rate-coupled cliques (Section 3.1)."""

import pytest

from repro.core.cliques import (
    RateClique,
    enumerate_maximal_rate_cliques,
    fixed_rate_cliques,
    maximal_cliques_with_maximum_rates,
)
from repro.errors import InterferenceError
from repro.interference.base import LinkRate
from repro.verify.instances import generate_instance, instance_strategy


def make_clique(network, *pairs):
    table = network.radio.rate_table
    return RateClique.from_pairs(
        (network.link(link_id), table.get(mbps)) for link_id, mbps in pairs
    )


class TestRateClique:
    def test_duplicate_link_rejected(self, s2_bundle):
        table = s2_bundle.network.radio.rate_table
        link = s2_bundle.network.link("L1")
        with pytest.raises(InterferenceError):
            RateClique(
                frozenset(
                    {
                        LinkRate(link, table.get(54.0)),
                        LinkRate(link, table.get(36.0)),
                    }
                )
            )

    def test_transmission_time(self, s2_bundle):
        clique = make_clique(
            s2_bundle.network, ("L1", 36.0), ("L2", 54.0), ("L3", 54.0)
        )
        demands = {
            s2_bundle.network.link(f"L{i}"): 16.2 for i in range(1, 5)
        }
        # The paper's C2 check: 16.2/36 + 16.2/54 + 16.2/54 = 1.05.
        assert clique.transmission_time(demands) == pytest.approx(1.05)

    def test_missing_demand_counts_zero(self, s2_bundle):
        clique = make_clique(s2_bundle.network, ("L1", 54.0), ("L2", 54.0))
        assert clique.transmission_time({}) == 0.0

    def test_rate_of(self, s2_bundle):
        clique = make_clique(s2_bundle.network, ("L1", 36.0), ("L2", 54.0))
        assert clique.rate_of(s2_bundle.network.link("L1")).mbps == 36.0
        assert clique.rate_of(s2_bundle.network.link("L4")) is None


class TestScenarioTwoCliques:
    def test_paper_example_cliques_are_maximal_with_max_rates(self, s2_bundle):
        """Section 3.1: both {(L1,54),..,(L4,54)} and
        {(L1,36),(L2,54),(L3,54)} are maximal cliques with maximum rates."""
        cliques = set(
            maximal_cliques_with_maximum_rates(
                s2_bundle.model, list(s2_bundle.path.links)
            )
        )
        all_54 = make_clique(
            s2_bundle.network,
            ("L1", 54.0), ("L2", 54.0), ("L3", 54.0), ("L4", 54.0),
        )
        mixed = make_clique(
            s2_bundle.network, ("L1", 36.0), ("L2", 54.0), ("L3", 54.0)
        )
        assert all_54 in cliques
        assert mixed in cliques

    def test_all_36_triangle_not_max_rates(self, s2_bundle):
        """{(L1,36),(L2,36),(L3,36)} is maximal but not with maximum
        rates (Section 3.1's example)."""
        all_maximal = set(
            enumerate_maximal_rate_cliques(
                s2_bundle.model, list(s2_bundle.path.links)
            )
        )
        with_max = set(
            maximal_cliques_with_maximum_rates(
                s2_bundle.model, list(s2_bundle.path.links)
            )
        )
        triangle_36 = make_clique(
            s2_bundle.network, ("L1", 36.0), ("L2", 36.0), ("L3", 36.0)
        )
        assert triangle_36 in all_maximal
        assert triangle_36 not in with_max

    def test_nonmaximal_triangle_excluded(self, s2_bundle):
        """{(L1,54),(L2,54),(L3,54)} can be extended by (L4,54), so it is
        a clique but not maximal."""
        all_maximal = set(
            enumerate_maximal_rate_cliques(
                s2_bundle.model, list(s2_bundle.path.links)
            )
        )
        triangle_54 = make_clique(
            s2_bundle.network, ("L1", 54.0), ("L2", 54.0), ("L3", 54.0)
        )
        assert triangle_54 not in all_maximal

    def test_every_result_is_a_clique(self, s2_bundle):
        model = s2_bundle.model
        for clique in enumerate_maximal_rate_cliques(
            model, list(s2_bundle.path.links)
        ):
            couples = list(clique.couples)
            for i, a in enumerate(couples):
                for b in couples[i + 1:]:
                    assert model.conflicts(a, b)


class TestFixedRateCliques:
    def test_paper_rate_vector_r2(self, s2_bundle):
        """Fixed R2 = (36,54,54,54): the maximal cliques are
        {L1,L2,L3} and {L2,L3,L4} (L1@36 does not conflict with L4)."""
        net = s2_bundle.network
        table = net.radio.rate_table
        vector = {
            net.link("L1"): table.get(36.0),
            net.link("L2"): table.get(54.0),
            net.link("L3"): table.get(54.0),
            net.link("L4"): table.get(54.0),
        }
        cliques = fixed_rate_cliques(s2_bundle.model, vector)
        families = {
            frozenset(l.link_id for l in clique.links) for clique in cliques
        }
        assert families == {
            frozenset({"L1", "L2", "L3"}),
            frozenset({"L2", "L3", "L4"}),
        }

    def test_paper_rate_vector_r1(self, s2_bundle):
        """Fixed R1 = all 54: one clique of all four links."""
        net = s2_bundle.network
        table = net.radio.rate_table
        vector = {
            net.link(f"L{i}"): table.get(54.0) for i in range(1, 5)
        }
        cliques = fixed_rate_cliques(s2_bundle.model, vector)
        assert len(cliques) == 1
        assert {l.link_id for l in cliques[0].links} == {
            "L1", "L2", "L3", "L4",
        }

    def test_rates_attached(self, s2_bundle):
        net = s2_bundle.network
        table = net.radio.rate_table
        vector = {net.link("L1"): table.get(36.0), net.link("L2"): table.get(54.0)}
        cliques = fixed_rate_cliques(s2_bundle.model, vector)
        for clique in cliques:
            for couple in clique:
                assert couple.rate is vector[couple.link]


def _pinned_beyond_standalone():
    """Geometric chain 0, where L3 decodes only 18 Mbps alone, with every
    link at its fastest standalone rate but L3 pinned at 54 Mbps."""
    instance = generate_instance(0, "geometric-chain")
    model = instance.model
    vector = {link: model.standalone_rates(link)[0] for link in instance.links}
    link3 = instance.network.link("L3")
    assert [rate.mbps for rate in model.standalone_rates(link3)] == [18.0]
    vector[link3] = instance.network.radio.rate_table.get(54.0)
    return instance, vector


class TestFixedRateInput:
    """A pinned rate its link cannot decode alone is not a couple of the
    space: Eq. 9's fixed-rate cliques and A1's fixed-rate columns reject
    it with one check."""

    def test_fixed_rate_cliques_reject_unsupported_rate(self):
        instance, vector = _pinned_beyond_standalone()
        with pytest.raises(InterferenceError, match="not in the couple space"):
            fixed_rate_cliques(instance.model, vector)

    def test_fixed_rate_available_bandwidth_rejects_unsupported_rate(self):
        from repro.experiments.ablations import fixed_rate_available_bandwidth

        instance, vector = _pinned_beyond_standalone()
        with pytest.raises(InterferenceError, match="not in the couple space"):
            fixed_rate_available_bandwidth(
                instance.model, instance.new_path, vector, instance.background
            )


def reference_maximum_rate_cliques(model, links):
    """Section 3.1's definition on frozensets: drop a maximal clique when
    swapping one member for a faster couple of its link gives another
    maximal clique."""
    all_maximal = enumerate_maximal_rate_cliques(model, links)
    maximal_index = set(all_maximal)
    kept = []
    for clique in all_maximal:
        upgraded = any(
            RateClique(
                (clique.couples - {couple}) | {LinkRate(couple.link, faster)}
            )
            in maximal_index
            for couple in clique.couples
            for faster in model.standalone_rates(couple.link)
            if faster.mbps > couple.rate.mbps
        )
        if not upgraded:
            kept.append(clique)
    return kept


class TestMaximumRateCliquesByMask:
    def test_scenario_two_drops_a_clique(self, s2_bundle):
        links = list(s2_bundle.path.links)
        kept = maximal_cliques_with_maximum_rates(s2_bundle.model, links)
        assert kept == reference_maximum_rate_cliques(s2_bundle.model, links)
        assert len(kept) < len(enumerate_maximal_rate_cliques(s2_bundle.model, links))

    def test_equals_frozenset_definition_on_random_instances(self):
        pytest.importorskip("hypothesis")
        from hypothesis import HealthCheck, given, settings

        @given(instance=instance_strategy())
        @settings(
            max_examples=60,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        def same_cliques(instance):
            links = instance.links
            assert maximal_cliques_with_maximum_rates(
                instance.model, links
            ) == reference_maximum_rate_cliques(instance.model, links)

        same_cliques()
