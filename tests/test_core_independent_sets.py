"""Rate-coupled independent sets (Section 2.4, Prop. 1–3)."""

import pytest

import repro.core.independent_sets as independent_sets
from repro.core.independent_sets import (
    RateIndependentSet,
    _maximal_cliques_bitset,
    _pairwise_compatibility_masks,
    enumerate_maximal_independent_sets,
    prune_dominated,
)
from repro.errors import InterferenceError
from repro.interference.base import LinkRate
from repro.interference.conflict_graph import link_rate_vertices
from repro.obs import Recorder, use_recorder


def make_set(network, *pairs):
    table = network.radio.rate_table
    return RateIndependentSet(
        frozenset(
            LinkRate(network.link(link_id), table.get(mbps))
            for link_id, mbps in pairs
        )
    )


class TestRateIndependentSet:
    def test_duplicate_link_rejected(self, s2_bundle):
        with pytest.raises(InterferenceError):
            make_set(s2_bundle.network, ("L1", 54.0), ("L1", 36.0))

    def test_throughput_of(self, s2_bundle):
        iset = make_set(s2_bundle.network, ("L1", 36.0), ("L4", 54.0))
        assert iset.throughput_of(s2_bundle.network.link("L1")) == 36.0
        assert iset.throughput_of(s2_bundle.network.link("L2")) == 0.0

    def test_throughput_vector_order(self, s2_bundle):
        iset = make_set(s2_bundle.network, ("L1", 36.0), ("L4", 54.0))
        links = [s2_bundle.network.link(f"L{i}") for i in range(1, 5)]
        assert iset.throughput_vector(links) == (36.0, 0.0, 0.0, 54.0)

    def test_rate_of(self, s2_bundle):
        iset = make_set(s2_bundle.network, ("L2", 54.0))
        assert iset.rate_of(s2_bundle.network.link("L2")).mbps == 54.0
        assert iset.rate_of(s2_bundle.network.link("L3")) is None


class TestDominance:
    def test_superset_with_equal_rates_dominates(self, s2_bundle):
        small = make_set(s2_bundle.network, ("L4", 54.0))
        big = make_set(s2_bundle.network, ("L1", 36.0), ("L4", 54.0))
        assert big.dominates(small)
        assert not small.dominates(big)

    def test_lower_rate_superset_does_not_dominate(self, s2_bundle):
        fast_small = make_set(s2_bundle.network, ("L1", 54.0))
        slow_big = make_set(s2_bundle.network, ("L1", 36.0), ("L4", 54.0))
        assert not slow_big.dominates(fast_small)
        assert not fast_small.dominates(slow_big)

    def test_no_self_domination(self, s2_bundle):
        iset = make_set(s2_bundle.network, ("L1", 54.0))
        assert not iset.dominates(iset)

    def test_prune_removes_dominated_only(self, s2_bundle):
        small = make_set(s2_bundle.network, ("L4", 54.0))
        slow = make_set(s2_bundle.network, ("L1", 36.0), ("L4", 36.0))
        big = make_set(s2_bundle.network, ("L1", 36.0), ("L4", 54.0))
        fast_single = make_set(s2_bundle.network, ("L1", 54.0))
        kept = prune_dominated([small, slow, big, fast_single])
        assert big in kept
        assert fast_single in kept
        assert small not in kept
        assert slow not in kept


class TestScenarioTwoEnumeration:
    def test_exact_family(self, s2_bundle):
        """The four maximal independent sets of the worked example."""
        sets = enumerate_maximal_independent_sets(
            s2_bundle.model, list(s2_bundle.path.links)
        )
        expected = {
            make_set(s2_bundle.network, ("L1", 54.0)),
            make_set(s2_bundle.network, ("L2", 54.0)),
            make_set(s2_bundle.network, ("L3", 54.0)),
            make_set(s2_bundle.network, ("L1", 36.0), ("L4", 54.0)),
        }
        assert set(sets) == expected

    def test_multirate_subset_phenomenon(self, s2_bundle):
        """A maximal set's links may be a subset of another's (Sec. 2.4):
        {L1@54} is maximal although {L1@36, L4@54} also contains L1."""
        sets = enumerate_maximal_independent_sets(
            s2_bundle.model, list(s2_bundle.path.links)
        )
        by_links = {}
        for iset in sets:
            by_links.setdefault(
                frozenset(l.link_id for l in iset.links), iset
            )
        assert frozenset({"L1"}) in by_links
        assert frozenset({"L1", "L4"}) in by_links

    def test_deterministic_order(self, s2_bundle):
        a = enumerate_maximal_independent_sets(
            s2_bundle.model, list(s2_bundle.path.links)
        )
        b = enumerate_maximal_independent_sets(
            s2_bundle.model, list(s2_bundle.path.links)
        )
        assert a == b

    def test_max_sets_cap(self, s2_bundle):
        with pytest.raises(InterferenceError, match="column generation"):
            enumerate_maximal_independent_sets(
                s2_bundle.model, list(s2_bundle.path.links), max_sets=2
            )


class TestGeometricEnumeration:
    def test_every_set_is_independent(self, line_protocol):
        links = list(line_protocol.network.links)
        sets = enumerate_maximal_independent_sets(line_protocol, links)
        assert sets
        for iset in sets:
            assert line_protocol.is_independent(iset.couples)

    def test_no_dominated_sets_remain(self, line_protocol):
        links = list(line_protocol.network.links)
        sets = enumerate_maximal_independent_sets(line_protocol, links)
        for a in sets:
            for b in sets:
                assert not a.dominates(b) or a == b

    def test_cumulative_enumeration_on_physical_model(self, line_physical):
        links = list(line_physical.network.links)[:8]
        sets = enumerate_maximal_independent_sets(line_physical, links)
        assert sets
        for iset in sets:
            assert line_physical.is_independent(iset.couples)

    def test_cumulative_sets_use_maximum_rates(self, line_physical):
        links = list(line_physical.network.links)[:8]
        for iset in enumerate_maximal_independent_sets(line_physical, links):
            vector = line_physical.max_rate_vector(iset.links)
            for couple in iset:
                assert couple.rate.mbps == vector[couple.link].mbps

    def test_empty_links(self, line_protocol):
        assert enumerate_maximal_independent_sets(line_protocol, []) == []


class TestPruneCall:
    """The enumeration hands its whole family to the module-level
    :func:`prune_dominated`, so a profiler wrapping that function sees
    every prune with its input and kept counts."""

    @pytest.mark.parametrize("fixture", ["line_protocol", "s2_bundle"])
    def test_enumeration_prunes_its_unpruned_family_once(
        self, fixture, request, monkeypatch
    ):
        if fixture == "s2_bundle":
            bundle = request.getfixturevalue(fixture)
            model, links = bundle.model, list(bundle.path.links)
        else:
            model = request.getfixturevalue(fixture)
            links = list(model.network.links)
        calls = []

        def spy(sets, **options):
            kept = prune_dominated(sets, **options)
            calls.append((sets, options, kept))
            return kept

        monkeypatch.setattr(independent_sets, "prune_dominated", spy)
        recorder = Recorder()
        with use_recorder(recorder):
            family = enumerate_maximal_independent_sets(model, links)
        assert len(calls) == 1
        sets, options, kept = calls[0]
        # The kernel-backed model takes the next-faster test, the
        # declared one the general prune.
        assert (options["compatible"] is not None) == (fixture == "line_protocol")
        vertices = link_rate_vertices(model, links)
        raw, _ = _maximal_cliques_bitset(
            _pairwise_compatibility_masks(model, vertices), len(vertices)
        )
        assert sorted(sets.masks) == sorted(raw)
        assert len(sets) == recorder.counters["enum.sets_found"]
        assert len(family) == len(kept) < len(sets)
        assert family == kept
