"""The optimized hot paths must agree exactly with reference implementations.

The performance work (precomputed power kernel, memoized rate vectors,
bitmask clique enumeration, bitset dominance pruning and key-ranked
column order, incremental LP columns, process-parallel sweeps) is pure
plumbing: every observable result
must match what the original straightforward implementations produced.
These tests pin that equivalence on random geometric topologies.
"""

from functools import lru_cache

import networkx as nx
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.core.independent_sets import (
    ColumnFamily,
    CoupleSpace,
    RateIndependentSet,
    _column_order,
    _column_weights,
    enumerate_maximal_independent_sets,
    prune_dominated,
)
from repro.core.lp import LinearProgram
from repro.errors import InterferenceError, SolverError
from repro.experiments.seed_study import run_seed_study
from repro.interference.base import LinkRate
from repro.interference.conflict_graph import (
    build_link_rate_conflict_graph,
    link_rate_vertices,
)
from repro.interference.declared import ConflictRule, DeclaredInterferenceModel
from repro.interference.physical import PhysicalInterferenceModel
from repro.interference.protocol import ProtocolInterferenceModel
from repro.net.generators import scatter_topology
from repro.net.link import Link
from repro.net.node import Node
from repro.net.topology import Network
from repro.obs import Recorder, use_recorder
from repro.phy.radio import RadioConfig
from repro.phy.rates import Rate, RateTable
from repro.phy.sinr import sinr


# -- reference implementations (the seed's straightforward algorithms) --------


def reference_standalone_rates(network, link):
    """Eq. 1 from scalar radio calls, no kernel."""
    radio = network.radio
    signal = radio.received_mw(link.length_m)
    return tuple(
        rate
        for rate in radio.rate_table
        if radio.meets_sensitivity(rate, link.length_m)
        and signal / radio.noise_mw >= rate.sinr_linear
    )


def reference_sinr_in_set(network, link, links):
    """Eq. 3 recomputed per pair through distance + path loss."""
    radio = network.radio
    signal = radio.received_mw(link.length_m)
    interference = 0.0
    for other in links:
        if other != link:
            interference += radio.received_mw(
                other.sender.distance_to(link.receiver)
            )
    return sinr(signal, interference, radio.noise_mw)


def reference_max_rate_vector(network, links):
    """Pairwise-scan half-duplex check plus per-link threshold scan."""
    link_list = list(links)
    for index, link in enumerate(link_list):
        for other in link_list[index + 1:]:
            if link.shares_node_with(other):
                return None
    vector = {}
    for link in link_list:
        ratio = reference_sinr_in_set(network, link, links)
        best = None
        for rate in reference_standalone_rates(network, link):
            if ratio >= rate.sinr_linear:
                best = rate
                break
        if best is None:
            return None
        vector[link] = best
    return vector


def reference_enumerate_cumulative(network, links):
    """The seed's recursive subset DFS, recomputing every rate vector."""
    ordered = sorted(links, key=lambda l: l.link_id)
    results, seen = [], set()

    def rate_vector(subset):
        return reference_max_rate_vector(network, frozenset(subset))

    def is_maximal(subset, vector):
        for link in ordered:
            if link in subset:
                continue
            extended = rate_vector(subset | {link})
            if extended is None:
                continue
            if all(
                extended[member].mbps >= vector[member].mbps
                for member in subset
            ):
                return False
        return True

    def expand(subset, start):
        vector = rate_vector(subset)
        if subset and vector is None:
            return
        if subset and is_maximal(subset, vector):
            candidate = RateIndependentSet.from_vector(vector)
            if candidate not in seen:
                seen.add(candidate)
                results.append(candidate)
        for index in range(start, len(ordered)):
            extended = subset | {ordered[index]}
            if rate_vector(extended) is not None:
                expand(extended, index + 1)

    expand(frozenset(), 0)
    return results


def reference_prune(sets):
    """Quadratic dominance pruning, one ``dominates`` call per pair."""
    unique = list(dict.fromkeys(sets))
    kept = []
    for candidate in unique:
        if candidate.couples:
            dominated = any(
                other.dominates(candidate) for other in unique
            )
        else:
            dominated = len(unique) > 1
        if not dominated:
            kept.append(candidate)
    return kept


def reference_enumerate_pairwise(model, links):
    """The seed's networkx complement-and-cliques route."""
    usable = [link for link in links if model.standalone_rates(link)]
    conflict = build_link_rate_conflict_graph(
        model, usable, same_link_edges=True
    )
    complement = nx.complement(conflict)
    found = [
        RateIndependentSet(frozenset(clique))
        for clique in nx.find_cliques(complement)
    ]
    pruned = reference_prune(found)
    pruned.sort(key=lambda s: (-s.size, str(s)))
    return pruned


# -- random geometric topologies ----------------------------------------------


@st.composite
def geometric_networks(draw):
    """Small random placements with at least one usable link."""
    n_nodes = draw(st.integers(min_value=3, max_value=6))
    cells = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=8),
                st.integers(min_value=0, max_value=8),
            ),
            min_size=n_nodes,
            max_size=n_nodes,
            unique=True,
        )
    )
    network = Network(RadioConfig(), name="prop")
    for index, (cx, cy) in enumerate(cells):
        network.add_node(f"n{index}", x=cx * 45.0, y=cy * 45.0)
    network.build_links_within_range()
    assume(network.links)
    return network


def _links_of_interest(network, cap=8):
    ordered = sorted(network.links, key=lambda l: l.link_id)
    return ordered[:cap]


# -- properties ---------------------------------------------------------------


@given(network=geometric_networks())
@settings(max_examples=20, deadline=None)
def test_kernel_sinr_matches_reference(network):
    model = PhysicalInterferenceModel(network)
    links = frozenset(_links_of_interest(network))
    for link in links:
        assert model.sinr_in_set(link, links) == pytest.approx(
            reference_sinr_in_set(network, link, links), rel=1e-9
        )
        assert model.standalone_rates(link) == reference_standalone_rates(
            network, link
        )


@given(network=geometric_networks())
@settings(max_examples=20, deadline=None)
def test_memoized_max_rate_vector_matches_reference(network):
    model = PhysicalInterferenceModel(network)
    links = frozenset(_links_of_interest(network))
    expected = reference_max_rate_vector(network, links)
    first = model.max_rate_vector(links)
    assert first == expected
    if first is not None:
        # Mutating a returned vector must not poison the memo.
        first.clear()
    assert model.max_rate_vector(links) == expected


@given(network=geometric_networks())
@settings(max_examples=10, deadline=None)
def test_cumulative_enumeration_matches_seed_algorithm(network):
    """Same maximal sets, same deterministic order as the seed DFS."""
    links = _links_of_interest(network, cap=6)
    model = PhysicalInterferenceModel(network)
    usable = [
        link for link in links if reference_standalone_rates(network, link)
    ]
    expected = reference_prune(
        reference_enumerate_cumulative(network, usable)
    )
    expected.sort(key=lambda s: (-s.size, str(s)))
    assert enumerate_maximal_independent_sets(model, links) == expected


@given(network=geometric_networks())
@settings(max_examples=10, deadline=None)
def test_pairwise_enumeration_matches_seed_algorithm(network):
    """The bitmask Bron–Kerbosch finds the networkx clique family."""
    links = _links_of_interest(network, cap=6)
    model = ProtocolInterferenceModel(network)
    assert enumerate_maximal_independent_sets(
        model, links
    ) == reference_enumerate_pairwise(model, links)


@given(network=geometric_networks())
@settings(max_examples=10, deadline=None)
def test_prune_dominated_matches_reference(network):
    links = _links_of_interest(network, cap=6)
    model = ProtocolInterferenceModel(network)
    usable = [link for link in links if model.standalone_rates(link)]
    conflict = build_link_rate_conflict_graph(
        model, usable, same_link_edges=True
    )
    family = [
        RateIndependentSet(frozenset(clique))
        for clique in nx.find_cliques(nx.complement(conflict))
    ]
    # Mix in dominated singletons so the pruning has actual work to do.
    for independent_set in list(family):
        for couple in independent_set:
            family.append(RateIndependentSet(frozenset({couple})))
    assert prune_dominated(family) == reference_prune(family)


# -- hand-made couple families ------------------------------------------------
#
# Abstract links and rates chosen to stress the bitset prune and the
# key-ranked order: one rate's ``:g`` string is a prefix of another's
# (5.5 and 55, 5 and 54), two distinct rates share 5.5 Mbps (equal names,
# mutual domination), and the link id "x,5)" makes the couple name
# "(x,5)" a proper prefix of "(x,5),54)".

_PIN_NODES = [Node(f"v{index}") for index in range(10)]
_PIN_LINKS = [
    Link(link_id, _PIN_NODES[2 * index], _PIN_NODES[2 * index + 1])
    for index, link_id in enumerate(("a", "a1", "b", "x", "x,5)"))
]
_PIN_RATES = [
    Rate(5.5, 8.0, 100.0),
    Rate(55.0, 20.0, 60.0),
    Rate(5.0, 6.0, 150.0),
    Rate(54.0, 19.0, 60.0),
    Rate(5.5, 9.0, 90.0),
]


def _pin_family(*assignments):
    """One set per ``{link index: rate index}`` assignment."""
    return [
        RateIndependentSet(
            frozenset(
                LinkRate(_PIN_LINKS[link], _PIN_RATES[rate])
                for link, rate in assignment.items()
            )
        )
        for assignment in assignments
    ]


@st.composite
def couple_families(draw):
    """Sets of couples, one rate per link; duplicates and the empty set."""
    family = _pin_family(
        *draw(
            st.lists(
                st.dictionaries(
                    st.sampled_from(range(len(_PIN_LINKS))),
                    st.sampled_from(range(len(_PIN_RATES))),
                    max_size=4,
                ),
                max_size=12,
            )
        )
    )
    if draw(st.booleans()):
        family.insert(
            draw(st.integers(0, len(family))), RateIndependentSet(frozenset())
        )
    for _ in range(draw(st.integers(0, 3)) if family else 0):
        family.insert(
            draw(st.integers(0, len(family))),
            family[draw(st.integers(0, len(family) - 1))],
        )
    return family


@given(family=couple_families())
@settings(max_examples=200, deadline=None)
def test_bitset_prune_matches_quadratic_reference(family):
    """Same survivors in input order, duplicates and the empty set included."""
    kept = prune_dominated(family)
    assert isinstance(kept, ColumnFamily)
    assert list(kept) == reference_prune(family)
    assert prune_dominated(ColumnFamily.of(family)) == kept


def _column_key(mask, weights):
    """The sum of ``weights`` over the members of ``mask``."""
    return sum(weight for vertex, weight in enumerate(weights) if mask >> vertex & 1)


@given(family=couple_families())
# "{(x,5)}" sorts after "{(x,5),54)}": "}" > ",".
@example(family=_pin_family({3: 2}, {4: 3}))
# Equal names (a at either 5.5 Mbps rate): the b couple decides.
@example(family=_pin_family({0: 0, 2: 0}, {0: 4, 2: 2}))
@settings(max_examples=200, deadline=None)
def test_mask_order_matches_string_sort(family):
    """The rank-derived column order is ``sort(key=(-size, str))``."""
    columns = ColumnFamily.of(family)
    names = [str(couple) for couple in columns.couples]
    weights = _column_weights(names)
    keys = None
    if weights is not None:
        keys = [_column_key(mask, weights) for mask in columns.masks]
    ordered = ColumnFamily(
        columns.couples, _column_order(list(columns.masks), keys, names)
    )
    assert list(ordered) == sorted(family, key=lambda s: (-s.size, str(s)))


# -- one-pass columns ---------------------------------------------------------
#
# The enumeration orders the Bron–Kerbosch family by column keys (size
# and name ranks) carried down the search, and a kernel-backed model
# prunes it by one-couple upgrades to the next-faster rate.  Both must
# give the reference family: the networkx cliques, the quadratic prune
# and ``sort(key=(-size, str))``.


def reference_search_counts(model, links):
    """DFS nodes and maximal sets of the pivoting Bron–Kerbosch, on sets.

    The same search as the bitmask one: vertices in couple order, the
    pivot the first vertex of ``P | X`` covering the most of ``P``, and
    the branch vertices (``P`` minus the pivot's neighbours) taken in
    order.  Adjacency comes from the networkx conflict graph.
    """
    vertices = link_rate_vertices(model, links)
    position = {vertex: index for index, vertex in enumerate(vertices)}
    complement = nx.complement(
        build_link_rate_conflict_graph(model, links, same_link_edges=True)
    )
    adjacency = [set() for _ in vertices]
    for a, b in complement.edges():
        adjacency[position[a]].add(position[b])
        adjacency[position[b]].add(position[a])
    nodes = emitted = 0

    def expand(candidates, excluded):
        nonlocal nodes, emitted
        nodes += 1
        if not candidates and not excluded:
            emitted += 1
            return
        pivot = max(
            sorted(candidates | excluded),
            key=lambda vertex: len(candidates & adjacency[vertex]),
        )
        for vertex in sorted(candidates - adjacency[pivot]):
            expand(candidates & adjacency[vertex], excluded & adjacency[vertex])
            candidates = candidates - {vertex}
            excluded = excluded | {vertex}

    expand(set(range(len(vertices))), set())
    return nodes, emitted


def _assert_reference_columns(model, links):
    """The enumeration equals the reference family, counters included."""
    usable = [link for link in links if model.standalone_rates(link)]
    recorder = Recorder()
    with use_recorder(recorder):
        family = enumerate_maximal_independent_sets(model, usable)
    expected = reference_enumerate_pairwise(model, usable)
    assert family == expected
    found = sum(
        1
        for _ in nx.find_cliques(
            nx.complement(
                build_link_rate_conflict_graph(model, usable, same_link_edges=True)
            )
        )
    )
    counters = recorder.counters
    assert counters["enum.sets_found"] == found
    assert counters["enum.sets_pruned"] == found - len(expected)
    nodes, emitted = reference_search_counts(model, usable)
    assert counters["enum.dfs_nodes"] == nodes
    assert counters["enum.maximal_sets_emitted"] == emitted


@given(network=geometric_networks())
@settings(max_examples=30, deadline=None)
def test_one_pass_columns_on_protocol_networks(network):
    links = _links_of_interest(network, cap=7)
    model = ProtocolInterferenceModel(network)
    assume(any(model.standalone_rates(link) for link in links))
    _assert_reference_columns(model, links)


@lru_cache(maxsize=1)
def _x7_model():
    """A protocol model of the 192-node X7 field, shared by the examples."""
    return ProtocolInterferenceModel(scatter_topology(192, 850.0, 1275.0, seed=8))


@given(
    center=st.integers(min_value=0, max_value=191),
    picks=st.lists(
        st.integers(min_value=0, max_value=23), min_size=2, max_size=8, unique=True
    ),
)
@settings(max_examples=25, deadline=None)
def test_one_pass_columns_on_x7_unions(center, picks):
    """Unions of links near one node of the X7 field (dense, multirate)."""
    model = _x7_model()
    network = model.network
    middle = network.node(f"n{center}")
    nearby = sorted(
        network.links,
        key=lambda link: (link.sender.distance_to(middle), link.link_id),
    )[:24]
    _assert_reference_columns(model, [nearby[pick] for pick in picks])


def _ladder_network(**positions):
    """Links a (n0 -> n1) and b (n2 -> n3), at ``positions`` if given."""
    network = Network(RadioConfig(), name="ladder")
    for index in range(4):
        network.add_node(f"n{index}", *positions.get(f"n{index}", (None, None)))
    network.add_link("n0", "n1", link_id="a")
    network.add_link("n2", "n3", link_id="b")
    return network


def test_declared_model_whose_slower_couple_conflicts_takes_general_prune():
    """(a,36) conflicts with (b,54) but (a,54) and (a,18) do not.

    {(a,18), (b,54)} is dominated by {(a,54), (b,54)}, yet its one-couple
    upgrade {(a,36), (b,54)} is not independent: declared conflicts need
    not grow with the rate, so the next-faster test would keep it.
    """
    network = _ladder_network()
    model = DeclaredInterferenceModel(
        network,
        rules=[ConflictRule("a", "b", predicate=lambda ra, _rb: ra == 36.0)],
        standalone_mbps={"a": [54.0, 36.0, 18.0], "b": [54.0]},
    )
    links = [network.link("a"), network.link("b")]
    _assert_reference_columns(model, links)
    space = CoupleSpace(model, links)
    assert space.slower is None
    vertices = list(space.couples)
    # The next-faster mask from the space's bit intervals: every couple
    # but its link's fastest.
    next_faster = 0
    for mask in space.bits.values():
        next_faster |= mask & (mask - 1)
    raw = ColumnFamily(
        vertices,
        [
            sum(1 << vertices.index(couple) for couple in clique)
            for clique in nx.find_cliques(
                nx.complement(
                    build_link_rate_conflict_graph(model, links, same_link_edges=True)
                )
            )
        ],
    )
    general = prune_dominated(raw)
    assert [str(column) for column in general] == ["{(a,54), (b,54)}"]
    assert len(
        prune_dominated(raw, compatible=space.compatible, slower=next_faster)
    ) > len(general)


@pytest.mark.parametrize("spacing", [8.0, 20.0, 35.0])
def test_one_pass_columns_with_prefix_couple_names(spacing):
    """A link id holding ")" makes "(a,54)" a prefix of "(a,54),54)"."""
    network = Network(RadioConfig(), name="prefix")
    for index in range(6):
        network.add_node(f"n{index}", x=index * spacing, y=(index % 2) * 30.0)
    for index, link_id in enumerate(("a", "a,54)", "a,54),36)")):
        network.add_link(f"n{2 * index}", f"n{2 * index + 1}", link_id=link_id)
    model = ProtocolInterferenceModel(network)
    links = sorted(network.links, key=lambda link: link.link_id, reverse=True)
    assert CoupleSpace(model, links).weights is None
    _assert_reference_columns(model, links)


def test_repeated_links_enumerate_as_listed_once():
    """A link listed twice counts once, at its first place: ``[a, b, a]``
    gives the family of ``[a, b]``, not the lone ``{(b,54)}`` that the
    two copies of every set holding a couple of ``a`` left when they
    dominated each other."""
    network = _ladder_network(
        n0=(0.0, 0.0), n1=(50.0, 0.0), n2=(0.0, 90.0), n3=(50.0, 90.0)
    )
    model = ProtocolInterferenceModel(network)
    a, b = network.link("a"), network.link("b")
    repeated = enumerate_maximal_independent_sets(model, [a, b, a])
    assert repeated == enumerate_maximal_independent_sets(model, [a, b])
    assert sorted(str(column) for column in repeated) == [
        "{(a,18), (b,18)}",
        "{(a,54)}",
        "{(b,54)}",
    ]
    assert enumerate_maximal_independent_sets(model, [b, a, b, b]) == (
        enumerate_maximal_independent_sets(model, [b, a])
    )
    _assert_reference_columns(model, [a, b])


# -- sub-masks of one couple space -----------------------------------------------
#
# A tile or residual window is enumerated as the sub-mask of its links in
# the estimate's couple space.  For any sub-union whose links keep the
# space's order, that must be the family a cold call over the sub-union
# finds: the same sets in the same order, after the same search.

_SEARCH_COUNTERS = (
    "enum.sets_found",
    "enum.sets_pruned",
    "enum.dfs_nodes",
    "enum.maximal_sets_emitted",
)


def _scattered_sub_union(data, union):
    """A sub-union of ``union`` in its order, with a gap inside it."""
    assume(len(union) >= 3)
    positions = sorted(
        data.draw(
            st.sets(
                st.integers(min_value=0, max_value=len(union) - 1), min_size=2
            )
        )
    )
    if positions[-1] - positions[0] + 1 == len(positions):  # contiguous
        if len(positions) >= 3:
            del positions[1]
        elif positions[-1] + 1 < len(union):
            positions[-1] += 1
        else:
            positions[0] -= 1
    return [union[index] for index in positions]


def _assert_sub_mask_matches_cold(model, union, sub):
    space = CoupleSpace(model, union)
    in_space, cold = Recorder(), Recorder()
    with use_recorder(in_space):
        family = enumerate_maximal_independent_sets(model, sub, space=space)
    with use_recorder(cold):
        expected = enumerate_maximal_independent_sets(model, sub)
    assert list(family) == list(expected)
    assert family.couples in (space.couples, ())
    for name in _SEARCH_COUNTERS:
        assert in_space.counters.get(name, 0) == cold.counters.get(name, 0), name


@given(network=geometric_networks(), data=st.data())
@settings(max_examples=30, deadline=None)
def test_sub_masks_match_cold_enumeration_on_protocol_networks(network, data):
    union = _links_of_interest(network, cap=8)
    model = ProtocolInterferenceModel(network)
    _assert_sub_mask_matches_cold(model, union, _scattered_sub_union(data, union))


@given(
    center=st.integers(min_value=0, max_value=191),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_sub_masks_match_cold_enumeration_on_x7_unions(center, data):
    model = _x7_model()
    middle = model.network.node(f"n{center}")
    union = sorted(
        model.network.links,
        key=lambda link: (link.sender.distance_to(middle), link.link_id),
    )[:12]
    _assert_sub_mask_matches_cold(model, union, _scattered_sub_union(data, union))


def _declared_model(network, union, data, min_rates=1):
    """A declared model over ``union``'s links with drawn conflict rules
    and standalone rates (none at all for a link when ``min_rates`` is 0)."""
    ids = [link.link_id for link in union]
    pairs = [(a, b) for index, a in enumerate(ids) for b in ids[index + 1 :]]
    rules = [
        ConflictRule(a, b)
        if threshold is None
        else ConflictRule(a, b, predicate=lambda ra, _rb, t=threshold: ra >= t)
        for (a, b), threshold in zip(
            pairs,
            data.draw(
                st.lists(
                    st.sampled_from([None, None, 18.0, 36.0, 54.0, 99.0]),
                    min_size=len(pairs),
                    max_size=len(pairs),
                )
            ),
        )
        if threshold != 99.0
    ]
    return DeclaredInterferenceModel(
        network,
        rules=rules,
        standalone_mbps={
            link_id: data.draw(
                st.lists(
                    st.sampled_from([54.0, 36.0, 18.0]),
                    min_size=min_rates,
                    max_size=3,
                    unique=True,
                )
            )
            for link_id in ids
        },
    )


@given(network=geometric_networks(), data=st.data())
@settings(max_examples=30, deadline=None)
def test_sub_masks_match_cold_enumeration_on_declared_models(network, data):
    """Declared models take the general prune, on the space's bits."""
    union = _links_of_interest(network, cap=7)
    model = _declared_model(network, union, data)
    _assert_sub_mask_matches_cold(model, union, _scattered_sub_union(data, union))


@given(network=geometric_networks(), data=st.data())
@settings(max_examples=20, deadline=None)
def test_sub_masks_match_cold_enumeration_on_physical_models(network, data):
    union = _links_of_interest(network, cap=7)
    model = PhysicalInterferenceModel(network)
    _assert_sub_mask_matches_cold(model, union, _scattered_sub_union(data, union))


def test_a_link_outside_the_space_is_refused():
    network = _ladder_network(
        n0=(0.0, 0.0), n1=(50.0, 0.0), n2=(0.0, 90.0), n3=(50.0, 90.0)
    )
    model = ProtocolInterferenceModel(network)
    a, b = network.link("a"), network.link("b")
    with pytest.raises(InterferenceError, match="not in the couple space"):
        enumerate_maximal_independent_sets(
            model, [a, b], space=CoupleSpace(model, [a])
        )


# -- a couple space extended from a base ---------------------------------------
#
# A fresh serving union is its background's links followed by the path's
# new links, and is enumerated on the background's space extended by
# them.  The extended space must equal a space built over the whole
# union, field by field, and give the family, order and set counts of a
# cold enumeration.

_SPACE_FIELDS = (
    "links", "couples", "bits", "names", "weights", "slower", "compatible",
)


def _base_and_added(data, union):
    """A base (a prefix of ``union``) and the links that extend it: the
    rest of the union, shuffled, with base links and repeats mixed in."""
    cut = data.draw(st.integers(min_value=0, max_value=len(union)))
    added = data.draw(
        st.permutations(
            union[cut:]
            + data.draw(st.lists(st.sampled_from(union), max_size=3))
        )
    )
    return union[:cut], added


def _assert_extension_matches_cold(model, base_links, added, data):
    base = CoupleSpace(model, base_links)
    if data.draw(st.booleans()):
        # A base whose rows and sets are already made, as a serving
        # session's is after its first fresh union.
        base.independent_sets((1 << len(base.couples)) - 1)
    cut = data.draw(st.integers(min_value=0, max_value=len(added)))
    # Extending twice is extending once by both parts.
    for space in (base.extend(added), base.extend(added[:cut]).extend(added[cut:])):
        cold = CoupleSpace(model, [*base_links, *added])
        for name in _SPACE_FIELDS:
            assert getattr(space, name) == getattr(cold, name), name
        _assert_served_family_matches_cold(
            model, [*base_links, *added], space, data
        )


def _assert_served_family_matches_cold(model, union, space, data):
    """Enumerated on ``space``, ``union`` gives what a cold call gives:
    the couples and masks in order, the set counts, the ``max_sets``
    error."""
    max_sets = data.draw(
        st.none() | st.integers(min_value=0, max_value=12)
    )

    def enumerate_on(on):
        recorder = Recorder()
        with use_recorder(recorder):
            try:
                family = enumerate_maximal_independent_sets(
                    model, union, max_sets, space=on
                )
            except InterferenceError as error:
                return str(error), None
        counts = [
            recorder.counters.get(name, 0)
            for name in ("enum.sets_found", "enum.sets_pruned")
        ]
        return (family.couples, family.masks), counts

    assert enumerate_on(space) == enumerate_on(None)


@given(network=geometric_networks(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_extended_space_matches_cold_space_on_protocol_networks(network, data):
    union = _links_of_interest(network, cap=8)
    model = ProtocolInterferenceModel(network)
    _assert_extension_matches_cold(model, *_base_and_added(data, union), data)


@given(network=geometric_networks(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_extended_space_matches_cold_space_on_declared_models(network, data):
    """Links may have no standalone rate here (and so no couples)."""
    union = _links_of_interest(network, cap=7)
    model = _declared_model(network, union, data, min_rates=0)
    _assert_extension_matches_cold(model, *_base_and_added(data, union), data)


@given(network=geometric_networks(), data=st.data())
@settings(max_examples=20, deadline=None)
def test_extended_space_matches_cold_space_on_physical_models(network, data):
    union = _links_of_interest(network, cap=7)
    model = PhysicalInterferenceModel(network)
    _assert_extension_matches_cold(model, *_base_and_added(data, union), data)


@given(center=st.integers(min_value=0, max_value=191), data=st.data())
@settings(max_examples=25, deadline=None)
def test_extended_space_matches_cold_space_on_x7_unions(center, data):
    """Dense multirate unions: many maximal sets, most new couples."""
    model = _x7_model()
    middle = model.network.node(f"n{center}")
    union = sorted(
        model.network.links,
        key=lambda link: (link.sender.distance_to(middle), link.link_id),
    )[:12]
    _assert_extension_matches_cold(model, *_base_and_added(data, union), data)


def _tied_name_model():
    """Links a and b, each at two rates whose names are both "54"; at
    the faster rates they conflict.  Two maximal sets, {(a,54+), (b,54)}
    and {(a,54), (b,54+)}, survive the prune with equal column keys, so
    a cold enumeration orders them as its search finds them."""
    fast = Rate(mbps=54.000001, sinr_db=24.56, range_m=59.0)
    slow = Rate(mbps=54.0, sinr_db=24.56, range_m=59.0)
    network = Network(RadioConfig(rate_table=RateTable([fast, slow])), name="tie")
    for index in range(4):
        network.add_node(f"n{index}")
    network.add_link("n0", "n1", link_id="a")
    network.add_link("n2", "n3", link_id="b")
    model = DeclaredInterferenceModel(
        network,
        rules=[ConflictRule("a", "b", predicate=lambda ra, rb: min(ra, rb) > 54.0)],
    )
    return model, [network.link("a"), network.link("b")]


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_tied_couple_names_take_the_whole_search(order):
    model, links = _tied_name_model()
    union = [links[index] for index in order]
    cold = enumerate_maximal_independent_sets(model, union)
    assert len(cold) == 2
    space = CoupleSpace(model, union[:1]).extend(union[1:])
    served = enumerate_maximal_independent_sets(model, union, space=space)
    assert (served.couples, served.masks) == (cold.couples, cold.masks)


@pytest.mark.parametrize("cut", [0, 1, 2, 3])
def test_prefix_couple_names_take_the_whole_search(cut):
    """Names where one is a prefix of another ("(a,54)" and
    "(a,54),54)") are ordered by their strings, whatever the split."""
    network = Network(RadioConfig(), name="prefix")
    for index in range(6):
        network.add_node(f"n{index}", x=index * 20.0, y=(index % 2) * 30.0)
    for index, link_id in enumerate(("a", "a,54)", "a,54),36)")):
        network.add_link(f"n{2 * index}", f"n{2 * index + 1}", link_id=link_id)
    model = ProtocolInterferenceModel(network)
    union = sorted(network.links, key=lambda link: link.link_id, reverse=True)
    space = CoupleSpace(model, union[:cut]).extend(union[cut:])
    cold = enumerate_maximal_independent_sets(model, union)
    served = enumerate_maximal_independent_sets(model, union, space=space)
    assert (served.couples, served.masks) == (cold.couples, cold.masks)


# -- incremental LP -----------------------------------------------------------


def _solve_pair():
    fresh = LinearProgram()
    fresh.add_variable("x", objective=1.0)
    fresh.add_variable("y", objective=2.0)
    fresh.add_constraint_le({"x": 1.0, "y": 1.0}, 4.0, name="cap")
    fresh.add_constraint_le({"y": 1.0}, 3.0, name="ycap")
    fresh.add_constraint_ge({"x": 1.0, "y": 1.0}, 1.0, name="floor")

    grown = LinearProgram()
    grown.add_variable("x", objective=1.0)
    grown.add_constraint_le({"x": 1.0}, 4.0, name="cap")
    grown.add_constraint_le({}, 3.0, name="ycap")
    grown.add_constraint_ge({"x": 1.0}, 1.0, name="floor")
    grown.add_column(
        "y",
        entries={"cap": 1.0, "ycap": 1.0, "floor": 1.0},
        objective=2.0,
    )
    return fresh.solve(), grown.solve()


def test_add_column_matches_fresh_build():
    fresh, grown = _solve_pair()
    assert grown.objective == fresh.objective
    assert grown.values == fresh.values
    assert grown.duals == fresh.duals


def test_add_column_rejects_unknown_constraint():
    lp = LinearProgram()
    lp.add_variable("x", objective=1.0)
    lp.add_constraint_le({"x": 1.0}, 1.0, name="cap")
    with pytest.raises(SolverError, match="unknown LP constraint"):
        lp.add_column("y", entries={"nope": 1.0})


def test_add_column_duplicate_name_raises():
    lp = LinearProgram()
    lp.add_variable("x", objective=1.0)
    lp.add_constraint_le({"x": 1.0}, 1.0, name="cap")
    with pytest.raises(SolverError, match="duplicate"):
        lp.add_column("x", entries={"cap": 1.0})


# -- parallel runner ----------------------------------------------------------


def test_parallel_seed_study_is_byte_identical():
    sequential = run_seed_study(seeds=(8, 9), n_flows=2)
    parallel = run_seed_study(seeds=(8, 9), n_flows=2, workers=2)
    assert parallel.table() == sequential.table()
    assert parallel.per_seed == sequential.per_seed
    assert parallel.skipped_seeds == sequential.skipped_seeds
