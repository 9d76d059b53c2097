"""The mask-native tile pipeline against a scalar reference.

Decomposition, local cliques, residual stitching and attribution read
packed couple-compatibility masks.  The reference below is the earlier
scalar implementation, kept here as the oracle: per-pair
``model.conflicts`` loops, columns pooled as
:class:`~repro.core.independent_sets.RateIndependentSet` objects,
``model.is_independent`` for every stitched union and set-based
conflict grouping.  Every estimate must equal the reference field by
field, bit for bit.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

import repro.obs.explain as explain
from repro.core.bandwidth import (
    _collect_links,
    _time_share_lp,
    available_path_bandwidth,
    build_path_bandwidth_lp,
    link_demands_from_paths,
)
from repro.core.independent_sets import (
    ColumnFamily,
    RateIndependentSet,
    _pairwise_compatibility_masks,
    enumerate_maximal_independent_sets,
)
from repro.errors import InfeasibleProblemError
from repro.estimation.local_cliques import local_interference_cliques
from repro.interference.base import InterferenceModel, LinkRate
from repro.interference.conflict_graph import link_rate_vertices
from repro.interference.physical import PhysicalInterferenceModel
from repro.interference.protocol import ProtocolInterferenceModel
from repro.net.generators import chain_topology, scatter_topology
from repro.net.path import Path
from repro.phy.rates import Rate
from repro.scale import TileConfig, decompose_path, tiled_path_bandwidth
from repro.scale.tiles import Tile, TileAttribution, TiledPathEstimate
from repro.verify.instances import FAMILIES, iter_instances
from repro.workloads.scenarios import paper_random_topology

# -- the scalar reference -------------------------------------------------------


def reference_local_cliques(model, path, rates):
    couples = [LinkRate(link, rates[link.link_id]) for link in path]
    n = len(couples)
    runs = []
    for start in range(n):
        end = start
        while end + 1 < n and all(
            model.conflicts(couples[end + 1], couples[member])
            for member in range(start, end + 1)
        ):
            end += 1
        runs.append(list(range(start, end + 1)))
    maximal = []
    best_end = -1
    for run in runs:
        if run[-1] > best_end:
            maximal.append(run)
            best_end = run[-1]
    return maximal


def reference_decompose(model, new_path, background, config):
    path_links = list(new_path)
    rates = {}
    for link in new_path:
        rate = model.max_standalone_rate(link)
        if rate is None:
            raise InfeasibleProblemError("dead path link")
        rates[link.link_id] = rate
    runs = reference_local_cliques(model, new_path, rates)
    groups = []
    current_start, current_end = runs[0][0], runs[0][-1]
    for run in runs[1:]:
        start, end = run[0], run[-1]
        if max(current_end, end) - current_start + 1 <= config.tile_size:
            current_end = max(current_end, end)
        else:
            groups.append((current_start, current_end))
            current_start, current_end = start, end
    groups.append((current_start, current_end))
    path_couples = [LinkRate(link, rates[link.link_id]) for link in path_links]
    background_couples = []
    for link in _collect_links(background):
        rate = model.max_standalone_rate(link)
        if rate is not None:
            background_couples.append(LinkRate(link, rate))
    global_order = _collect_links(background, new_path)
    tiles = []
    for index, (start, end) in enumerate(groups):
        tile_path = path_links[start : end + 1]
        tile_couples = path_couples[start : end + 1]
        member_ids = {link.link_id for link in tile_path}
        for couple in background_couples:
            if couple.link.link_id in member_ids:
                continue
            if any(
                model.conflicts(couple, path_couple)
                for path_couple in tile_couples
            ):
                member_ids.add(couple.link.link_id)
        links = tuple(link for link in global_order if link.link_id in member_ids)
        tiles.append(Tile(index, start, end, links, tuple(tile_path)))
    return tiles


def reference_residual_columns(model, background, covered, tile_size, stats):
    windows = []
    seen = set(covered)
    for path, _demand in background:
        segment = []
        for link in list(path.links) + [None]:
            if link is not None and link.link_id not in seen:
                seen.add(link.link_id)
                segment.append(link)
                if len(segment) < tile_size:
                    continue
            if segment:
                windows.append(segment)
                segment = []
    window_columns = [
        columns
        for window in windows
        if (columns := list(enumerate_maximal_independent_sets(model, window)))
    ]
    residual = [column for columns in window_columns for column in columns]
    if len(window_columns) > 1:
        stats["stitched"] += 1
        rounds = min(8, max(len(columns) for columns in window_columns))
        for round_index in range(rounds):
            merged = []
            for columns in window_columns:
                candidate = columns[round_index % len(columns)]
                union = merged + list(candidate.couples)
                if model.is_independent(union):
                    merged = union
                elif merged:
                    stats["rejected"] += 1
                    if InterferenceModel.is_independent(model, union):
                        stats["cumulative_only"] += 1
            if merged:
                residual.append(RateIndependentSet(frozenset(merged)))
    return residual


def reference_conflict_components(binding_ids, columns, links_by_id):
    ids = sorted(binding_ids)
    compatible = {identifier: set() for identifier in ids}
    id_set = set(ids)
    for column in columns:
        present = [
            identifier
            for identifier in ids
            if column.throughput_of(links_by_id[identifier]) > 0.0
        ]
        for left in present:
            for right in present:
                if left != right:
                    compatible[left].add(right)
    components = []
    seen = set()
    for start in ids:
        if start in seen:
            continue
        component = []
        frontier = [start]
        seen.add(start)
        while frontier:
            current = frontier.pop()
            component.append(current)
            for neighbour in sorted(id_set - compatible[current] - {current}):
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        components.append(sorted(component))
    return components


def reference_tiled(monkeypatch, model, new_path, background, config, stats):
    tiles = reference_decompose(model, new_path, background, config)
    demands = link_demands_from_paths(background)
    tile_optima = []
    programs = []
    column_pool = {}
    for tile in tiles:
        columns = list(
            enumerate_maximal_independent_sets(model, tile.links, config.max_sets)
        )
        lp, _f, _lambdas = build_path_bandwidth_lp(
            columns, tile.links, demands, set(tile.new_links)
        )
        value = lp.solve().objective
        if -1e-9 < value <= 0.0:
            value = 0.0
        tile_optima.append(value)
        programs.append((lp, columns))
        for column in columns:
            column_pool.setdefault(column)
    bottleneck = min(range(len(tile_optima)), key=tile_optima.__getitem__)
    upper = tile_optima[bottleneck]
    lp, columns = programs[bottleneck]
    links_by_id = {link.link_id: link for link in tiles[bottleneck].links}
    with monkeypatch.context() as patch:
        patch.setattr(
            explain,
            "_conflict_components",
            lambda ids, cols: reference_conflict_components(ids, cols, links_by_id),
        )
        explanation = explain.explain_solution(
            lp.solve(),
            lp.certificate(),
            columns,
            tiles[bottleneck].links,
            background=background,
            bandwidth=upper,
        )
    top = explanation.bottleneck
    attribution = TileAttribution(
        tile=bottleneck,
        clique_links=top.links if top else (),
        shadow_price=top.shadow_price if top else 0.0,
        airtime_price=explanation.airtime_price,
        fingerprint=explanation.bottleneck_fingerprint,
    )
    covered = {link.link_id for tile in tiles for link in tile.links}
    lb_columns = list(column_pool)
    for column in reference_residual_columns(
        model, background, covered, config.tile_size, stats
    ):
        lb_columns.append(column)
        covered.update(link.link_id for link in column.links)
    for link in _collect_links(background, new_path):
        if link.link_id in covered:
            continue
        rate = model.max_standalone_rate(link)
        if rate is not None:
            lb_columns.append(RateIndependentSet(frozenset({LinkRate(link, rate)})))
    try:
        lower = available_path_bandwidth(
            model, new_path, background, independent_sets=lb_columns
        ).available_bandwidth
    except InfeasibleProblemError:
        lower = 0.0
    estimate = TiledPathEstimate(
        lower_bound=lower,
        upper_bound=upper,
        tile_optima=tuple(tile_optima),
        tiles=tuple(tiles),
        bottleneck=bottleneck,
        columns=len(lb_columns),
        attribution=attribution,
    )
    return estimate, lb_columns


# -- instances --------------------------------------------------------------------


def _route(network, graph, source, target):
    hops = nx.shortest_path(graph, source, target)
    return Path(network.link_between(a, b) for a, b in zip(hops, hops[1:]))


def _field_cases():
    """A scatter field whose short path leaves many background flows
    uncovered, so the residual windows are stitched, under both geometric
    models.  Under the physical model some of the unions the pairwise
    test accepts fail the cumulative one."""
    network = scatter_topology(150, 900.0, 1500.0, seed=6)
    graph = network.to_digraph()
    lengths = dict(nx.all_pairs_shortest_path_length(graph))

    def hops_from(source, count):
        target = min(
            node for node, hops in lengths[source].items() if hops == count
        )
        return _route(network, graph, source, target)

    new_path = hops_from("n0", 3)
    background = [
        (hops_from(f"n{source}", 2 + source % 3), 0.02)
        for source in range(7, 150, 4)
    ]
    return [
        (f"scatter-{kind.__name__}", kind(network), new_path, background)
        for kind in (ProtocolInterferenceModel, PhysicalInterferenceModel)
    ]


def _instance_cases():
    return [
        (instance.name, instance.model, instance.new_path, instance.background)
        for instance in iter_instances(30, seed=4)
    ]


def _estimate_or_error(function, *args):
    try:
        return function(*args)
    except InfeasibleProblemError as error:
        return type(error)


# -- tests -------------------------------------------------------------------------


class TestPackedMatrix:
    @pytest.mark.parametrize("seed", range(6))
    def test_packed_matrix_equals_pairwise_conflicts(self, seed):
        network = paper_random_topology(seed)
        for model in (
            ProtocolInterferenceModel(network),
            PhysicalInterferenceModel(network),
        ):
            vertices = link_rate_vertices(model, list(network.links))
            step = max(1, len(vertices) // 120)
            couples = vertices[::step][:120]
            masks = _pairwise_compatibility_masks(model, couples)
            for i, a in enumerate(couples):
                expected = 0
                for j, b in enumerate(couples):
                    if i != j and not model.conflicts(a, b):
                        expected |= 1 << j
                assert masks[i] == expected, (type(model).__name__, str(a))


class TestAgainstScalarReference:
    def test_instances_cover_every_family(self):
        assert {name.rsplit("-", 1)[0] for name, *_ in _instance_cases()} == set(
            FAMILIES
        )

    @pytest.mark.parametrize("tile_size", [2, 3])
    def test_local_cliques_and_tiles_match(self, tile_size):
        for name, model, new_path, background in _instance_cases() + _field_cases():
            config = TileConfig(tile_size=tile_size)
            expected = _estimate_or_error(
                reference_decompose, model, new_path, background, config
            )
            assert (
                _estimate_or_error(decompose_path, model, new_path, background, config)
                == expected
            ), name
            rates = {
                link.link_id: model.max_standalone_rate(link)
                for link in new_path
            }
            if None not in rates.values():
                assert local_interference_cliques(
                    model, new_path, rates
                ) == reference_local_cliques(model, new_path, rates), name

    def test_local_cliques_at_lower_rates_match(self):
        for name, model, new_path, _background in _instance_cases():
            rates = {}
            for link in new_path:
                supported = model.standalone_rates(link)
                if not supported:
                    break
                rates[link.link_id] = supported[-1]
            else:
                assert local_interference_cliques(
                    model, new_path, rates
                ) == reference_local_cliques(model, new_path, rates), name

    @pytest.mark.parametrize("tile_size", [2, 3])
    def test_estimates_match_field_by_field(self, monkeypatch, tile_size):
        stats = {"stitched": 0, "rejected": 0, "cumulative_only": 0}
        physical = 0
        for name, model, new_path, background in _instance_cases() + _field_cases():
            config = TileConfig(tile_size=tile_size)
            actual = _estimate_or_error(
                tiled_path_bandwidth, model, new_path, background, config
            )
            expected = _estimate_or_error(
                reference_tiled, monkeypatch, model, new_path, background,
                config, stats,
            )
            if isinstance(expected, tuple):
                expected, lb_columns = expected
                physical += isinstance(model, PhysicalInterferenceModel)
                assert actual.lower_bound == expected.lower_bound, name
                assert actual.upper_bound == expected.upper_bound, name
                assert actual.tile_optima == expected.tile_optima, name
                assert actual.tiles == expected.tiles, name
                assert actual.bottleneck == expected.bottleneck, name
                assert actual.columns == expected.columns, name
                assert actual.attribution == expected.attribution, name
                assert actual == expected, name
            else:
                assert actual is expected, name
        # The field cases stitch residual windows; the physical model
        # rejects some unions there that every pair of couples allows.
        assert stats["stitched"] >= 2
        assert stats["cumulative_only"] >= 1
        assert physical >= 3

    def test_scale_path_builds_no_sets(self, monkeypatch):
        """Decomposition to attribution runs on masks alone."""
        built = []
        original = RateIndependentSet.__post_init__

        def counting(self):
            original(self)
            built.append(self)

        monkeypatch.setattr(RateIndependentSet, "__post_init__", counting)
        for _name, model, new_path, background in _field_cases():
            estimate = tiled_path_bandwidth(
                model, new_path, background, TileConfig(tile_size=2)
            )
            assert estimate.attribution is not None
        assert built == []

    def test_lower_bound_program_is_identical(self, monkeypatch):
        """The restricted LP HiGHS receives is the same, array for array."""
        stats = {"stitched": 0, "rejected": 0, "cumulative_only": 0}
        for name, model, new_path, background in _field_cases():
            config = TileConfig(tile_size=3)
            _expected, lb_columns = reference_tiled(
                monkeypatch, model, new_path, background, config, stats
            )
            captured = []
            original = available_path_bandwidth

            def capture(model, new_path, background, independent_sets):
                captured.append(independent_sets)
                return original(model, new_path, background, independent_sets)

            monkeypatch.setattr("repro.scale.tiles.available_path_bandwidth", capture)
            tiled_path_bandwidth(model, new_path, background, config)
            monkeypatch.undo()
            (family,) = captured
            assert isinstance(family, ColumnFamily)
            assert family == lb_columns, name
            links = _collect_links(background, new_path)
            demands = link_demands_from_paths(background)
            new_links = dict.fromkeys(new_path.links, -1.0)
            mine, _ = _time_share_lp(family, links, demands, "f", new_links)
            theirs, _ = _time_share_lp(lb_columns, links, demands, "f", new_links)
            assert _handed_to_highs(mine) == _handed_to_highs(theirs), name


def _handed_to_highs(lp):
    """Every field of the HiGHS input model ``lp`` builds, floats as bytes."""
    lp._input()
    model = lp._model
    matrix = model.a_matrix_
    return (
        model.num_col_,
        model.num_row_,
        *(
            np.asarray(getattr(model, field), dtype=float).tobytes()
            for field in (
                "col_cost_", "col_lower_", "col_upper_", "row_lower_", "row_upper_"
            )
        ),
        list(matrix.start_),
        list(matrix.index_),
        np.asarray(matrix.value_, dtype=float).tobytes(),
    )


# -- attribution on masks ----------------------------------------------------------


def _zero_rate():
    """A rate with zero throughput, which :class:`Rate` itself refuses."""
    zero = object.__new__(Rate)
    for name, value in (("mbps", 0.0), ("sinr_db", 0.0), ("range_m", 1.0)):
        object.__setattr__(zero, name, value)
    return zero


class TestConflictComponents:
    def test_matches_set_grouping_on_random_families(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        network = chain_topology(9, 70.0)
        links = [
            network.link_between(f"n{index}", f"n{index + 1}")
            for index in range(8)
        ]
        rates = list(network.radio.rate_table)[:3]
        links_by_id = {link.link_id: link for link in links}

        @st.composite
        def families(draw):
            zero = draw(st.booleans())
            choices = rates + ([_zero_rate()] if zero else [])
            sets = []
            for _ in range(draw(st.integers(0, 8))):
                chosen = draw(st.sets(st.sampled_from(range(len(links))), max_size=5))
                sets.append(
                    RateIndependentSet(
                        frozenset(
                            LinkRate(links[index], draw(st.sampled_from(choices)))
                            for index in chosen
                        )
                    )
                )
            binding = draw(st.sets(st.sampled_from(sorted(links_by_id))))
            return sets, sorted(binding, reverse=draw(st.booleans()))

        @given(case=families())
        @settings(max_examples=200, deadline=None)
        def grouping_matches(case):
            sets, binding = case
            expected = reference_conflict_components(binding, sets, links_by_id)
            assert explain._conflict_components(binding, sets) == expected
            family = ColumnFamily.of(sets)
            assert explain._conflict_components(binding, family) == expected

        grouping_matches()

    def test_explanation_same_for_sets_and_family(self):
        checked = 0
        for _name, model, new_path, background in _instance_cases():
            links = _collect_links(background, new_path)
            family = enumerate_maximal_independent_sets(model, links)
            demands = link_demands_from_paths(background)
            lp, _f, _lambdas = build_path_bandwidth_lp(
                family, links, demands, set(new_path.links)
            )
            try:
                solution = lp.solve()
            except InfeasibleProblemError:
                continue
            certificate = lp.certificate()
            from_family = explain.explain_solution(
                solution, certificate, family, links, background=background
            )
            from_sets = explain.explain_solution(
                solution, certificate, list(family), links, background=background
            )
            assert from_family == from_sets
            checked += 1
        assert checked >= 20
