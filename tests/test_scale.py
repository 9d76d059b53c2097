"""The scaling layer: interference tiles and the scale-exposed bug pins
(incremental kernel growth, vectorized matrix and link builds)."""

import numpy as np
import pytest

from repro.core.bandwidth import available_path_bandwidth
from repro.errors import InfeasibleProblemError
from repro.interference.kernel import GeometricKernel, matrix_power_reference
from repro.interference.protocol import ProtocolInterferenceModel
from repro.net.generators import scatter_topology
from repro.net.random_topology import random_topology
from repro.obs import Recorder, use_recorder
from repro.phy.radio import RadioConfig
from repro.scale import TileConfig, decompose_path, tiled_path_bandwidth
from repro.verify.instances import iter_instances


def _exact_or_none(instance):
    try:
        return available_path_bandwidth(
            instance.model, instance.new_path, instance.background
        ).available_bandwidth
    except InfeasibleProblemError:
        return None


class TestTileDecomposition:
    def test_tiles_cover_the_path_in_order(self):
        for instance in iter_instances(8, seed=11):
            tiles = decompose_path(
                instance.model,
                instance.new_path,
                instance.background,
                TileConfig(tile_size=2),
            )
            covered = set()
            previous_start = -1
            for tile in tiles:
                assert tile.start > previous_start
                previous_start = tile.start
                covered.update(range(tile.start, tile.end + 1))
                path_ids = {link.link_id for link in tile.new_links}
                tile_ids = {link.link_id for link in tile.links}
                assert path_ids <= tile_ids
            assert covered == set(range(len(instance.new_path)))

    def test_single_tile_reproduces_exact_bitwise(self):
        """One tile covering everything is the exact Eq. 6 construction:
        both bounds must equal the exact optimum bit for bit."""
        checked = 0
        for instance in iter_instances(
            12, seed=7, families=("single-clique",)
        ):
            exact = _exact_or_none(instance)
            if exact is None:
                continue
            estimate = tiled_path_bandwidth(
                instance.model,
                instance.new_path,
                instance.background,
                TileConfig(tile_size=len(instance.new_path)),
            )
            if len(estimate.tiles) != 1:
                continue
            tile_ids = {link.link_id for link in estimate.tiles[0].links}
            if any(link.link_id not in tile_ids for link in instance.links):
                continue
            assert estimate.lower_bound == exact
            assert estimate.upper_bound == exact
            checked += 1
        assert checked >= 5

    def test_no_rate_path_raises(self):
        from repro.interference.declared import DeclaredInterferenceModel
        from repro.net.path import Path
        from repro.net.topology import Network

        network = Network(RadioConfig(), name="dead-link")
        for index in range(3):
            network.add_node(f"n{index}")
        links = [
            network.add_link(f"n{i}", f"n{i + 1}", link_id=f"L{i + 1}")
            for i in range(2)
        ]
        model = DeclaredInterferenceModel(
            network, standalone_mbps={"L2": []}
        )
        with pytest.raises(InfeasibleProblemError):
            decompose_path(model, Path(links))


class TestTiledBracket:
    def test_bracket_on_random_instances(self):
        pytest.importorskip("hypothesis")
        from hypothesis import HealthCheck, given, settings

        from repro.verify.instances import instance_strategy

        @given(instance=instance_strategy())
        @settings(
            max_examples=20,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        def bracket_holds(instance):
            exact = _exact_or_none(instance)
            if exact is None:
                return
            estimate = tiled_path_bandwidth(
                instance.model,
                instance.new_path,
                instance.background,
                TileConfig(tile_size=2),
            )
            tolerance = 1e-6 * max(1.0, abs(exact))
            assert estimate.lower_bound <= exact + tolerance, instance.name
            assert exact <= estimate.upper_bound + tolerance, instance.name
            assert estimate.gap >= -tolerance

        bracket_holds()

    def test_scatter_field_end_to_end(self):
        """A field far past exact tractability completes and brackets."""
        import networkx as nx

        from repro.net.path import Path

        network = scatter_topology(256, 960.0, 1440.0, seed=8)
        model = ProtocolInterferenceModel(network)
        graph = network.to_digraph()
        reachable = nx.single_source_shortest_path(graph, "n0")
        farthest = max(reachable, key=lambda node: len(reachable[node]))
        hops = reachable[farthest]
        new_path = Path(
            network.link_between(a, b) for a, b in zip(hops, hops[1:])
        )
        bg_hops = nx.shortest_path(graph, "n5", "n128")
        background = [
            (
                Path(
                    network.link_between(a, b)
                    for a, b in zip(bg_hops, bg_hops[1:])
                ),
                0.5,
            )
        ]
        recorder = Recorder()
        with use_recorder(recorder):
            estimate = tiled_path_bandwidth(
                model, new_path, background, TileConfig(tile_size=6)
            )
        assert estimate.upper_bound >= estimate.lower_bound >= 0.0
        assert len(estimate.tiles) > 1
        assert recorder.counters["scale.tiles"] == len(estimate.tiles)
        assert recorder.counters["scale.tile_solves"] == len(estimate.tiles)
        assert recorder.counters["scale.columns"] == estimate.columns


def _x7_estimate_inputs(n_nodes=192):
    """The X7 field's farthest path from n0 and its two 0.5 Mbps flows."""
    import networkx as nx

    from repro.net.path import Path

    network = scatter_topology(n_nodes, 850.0, 1275.0, seed=8)
    graph = network.to_digraph()

    def route(hops):
        return Path(network.link_between(a, b) for a, b in zip(hops, hops[1:]))

    reachable = nx.single_source_shortest_path(graph, "n0")
    farthest = max(reachable, key=lambda node: len(reachable[node]))
    background = [
        (route(nx.shortest_path(graph, source, target)), 0.5)
        for source, target in (("n5", "n96"), ("n64", "n189"))
    ]
    return network, route(reachable[farthest]), background


class TestOneCoupleSpace:
    """A tiled estimate reads one couple space: its compatibility rows
    are gathered once, for the decomposition, every tile and window
    enumeration and the residual stitching together."""

    @staticmethod
    def _count_gathers(monkeypatch):
        """The couple counts of every ``CoupleIndex.compatibility`` call."""
        from repro.interference.couple_index import CoupleIndex

        gathers = []
        compatibility = CoupleIndex.compatibility

        def counted(index, couples):
            gathers.append(len(couples))
            return compatibility(index, couples)

        monkeypatch.setattr(CoupleIndex, "compatibility", counted)
        return gathers

    @pytest.mark.parametrize("tile_size", [2, 4, 6])
    def test_one_compatibility_gather_per_estimate(self, monkeypatch, tile_size):
        gathers = self._count_gathers(monkeypatch)
        network, new_path, background = _x7_estimate_inputs()
        model = ProtocolInterferenceModel(network)
        recorder = Recorder()
        with use_recorder(recorder):
            estimate = tiled_path_bandwidth(
                model, new_path, background, TileConfig(tile_size=tile_size)
            )
        assert len(estimate.tiles) > 1
        # One gather, over every couple of the estimate's link union.
        assert len(gathers) == 1
        assert recorder.counters["enum.sets_found"] > 0

    @pytest.mark.parametrize(
        "search",
        [
            "clique_upper_bound",
            "hypothesis_min_clique_time",
            "maximal_cliques_with_maximum_rates",
            "solve_with_column_generation",
            "min_airtime_column_generation",
            "fixed_rate_available_bandwidth",
        ],
    )
    def test_one_compatibility_gather_per_search(self, monkeypatch, search):
        """Eq. 9 (every rate vector a sub-mask), the clique searches,
        column-generation pricing and A1 each read one space."""
        from repro.core import bounds, cliques, column_generation
        from repro.core.bandwidth import _collect_links, link_demands_from_paths
        from repro.experiments import ablations
        from repro.verify.instances import generate_instance

        instance = generate_instance(0, "geometric-chain")
        model, path = instance.model, instance.new_path
        background = [(path, 1.0)]
        links = _collect_links(background, path)
        calls = {
            "clique_upper_bound": lambda: bounds.clique_upper_bound(
                model, path, background
            ),
            "hypothesis_min_clique_time": lambda: bounds.hypothesis_min_clique_time(
                model, links, link_demands_from_paths(background)
            ),
            "maximal_cliques_with_maximum_rates": lambda: (
                cliques.maximal_cliques_with_maximum_rates(model, links)
            ),
            "solve_with_column_generation": lambda: (
                column_generation.solve_with_column_generation(
                    model, path, background
                )
            ),
            "min_airtime_column_generation": lambda: (
                column_generation.min_airtime_column_generation(model, background)
            ),
            "fixed_rate_available_bandwidth": lambda: (
                ablations.fixed_rate_available_bandwidth(
                    model,
                    path,
                    {link: model.standalone_rates(link)[-1] for link in path},
                    background,
                )
            ),
        }
        rate_vectors = len(list(bounds.enumerate_rate_vectors(model, links)))
        assert rate_vectors > 1
        gathers = self._count_gathers(monkeypatch)
        calls[search]()
        assert len(gathers) == 1

    def test_decomposition_reads_the_given_space(self):
        from repro.core.bandwidth import _collect_links
        from repro.core.independent_sets import CoupleSpace

        network, new_path, background = _x7_estimate_inputs()
        model = ProtocolInterferenceModel(network)
        config = TileConfig(tile_size=3)
        space = CoupleSpace(model, _collect_links(background, new_path))
        assert decompose_path(
            model, new_path, background, config, space=space
        ) == decompose_path(model, new_path, background, config)


class TestAttributionOnRead:
    """The bottleneck attribution is computed when first read."""

    def test_unread_estimates_certify_nothing(self):
        network, new_path, background = _x7_estimate_inputs()
        model = ProtocolInterferenceModel(network)
        recorder = Recorder()
        with use_recorder(recorder):
            estimates = [
                tiled_path_bandwidth(
                    model, new_path, background, TileConfig(tile_size=4)
                )
                for _ in range(3)
            ]
            assert recorder.counters.get("explain.certificates", 0) == 0
            assert estimates[0].attribution is not None
            assert recorder.counters["explain.certificates"] == 1
            assert estimates[0].attribution is estimates[0].attribution
        assert recorder.counters["explain.certificates"] == 1

    def test_first_read_equals_the_eager_attribution(self):
        from repro.scale.tiles import _attribute_bottleneck

        network, new_path, background = _x7_estimate_inputs()
        model = ProtocolInterferenceModel(network)
        for tile_size in (2, 4, 6):
            estimate = tiled_path_bandwidth(
                model, new_path, background, TileConfig(tile_size=tile_size)
            )
            _index, program, _background, _upper = estimate.__dict__[
                "attribution"
            ].args
            eager = _attribute_bottleneck(
                estimate.bottleneck, program, background, estimate.upper_bound
            )
            assert eager is not None
            assert estimate.attribution == eager
            assert eager.tile == estimate.bottleneck

    def test_caller_edits_to_background_do_not_reach_it(self):
        network, new_path, background = _x7_estimate_inputs()
        model = ProtocolInterferenceModel(network)
        config = TileConfig(tile_size=4)
        expected = tiled_path_bandwidth(model, new_path, background, config)
        expected_attribution = expected.attribution
        edited = list(background)
        estimate = tiled_path_bandwidth(model, new_path, edited, config)
        edited[:] = [None]  # not even a (path, demand) pair
        assert estimate.attribution == expected_attribution
        assert estimate == expected

    def test_estimate_pickles(self):
        import pickle

        network, new_path, background = _x7_estimate_inputs()
        model = ProtocolInterferenceModel(network)
        config = TileConfig(tile_size=4)
        unread = tiled_path_bandwidth(model, new_path, background, config)
        copy = pickle.loads(pickle.dumps(unread))
        assert copy.__dict__["attribution"] is not None
        assert copy == unread
        read = tiled_path_bandwidth(model, new_path, background, config)
        assert read.attribution is not None
        assert pickle.loads(pickle.dumps(read)) == read == copy
        assert repr(copy) == repr(read)


class TestKernelGrowth:
    def _network(self):
        return scatter_topology(24, 300.0, 300.0, seed=3)

    def test_add_node_grows_instead_of_rebuilding(self):
        network = self._network()
        recorder = Recorder()
        with use_recorder(recorder):
            kernel = GeometricKernel(network)
            links = list(network.links)
            cached = kernel.entry(links[0])
            network.add_node("z0", 123.0, 45.0)
            network.add_node("z1", 10.0, 250.0)
            # A cache miss reaches _ensure_current and grows the matrix;
            # the previously cached entry must survive untouched.
            kernel.entry(links[1])
            assert kernel.entry(links[0]) is cached
        assert recorder.counters["kernel.matrix_builds"] == 1
        assert recorder.counters["kernel.matrix_grows"] == 1
        assert kernel.power.shape == (len(network.nodes),) * 2

    def test_grown_matrix_equals_fresh_rebuild_bitwise(self):
        network = self._network()
        kernel = GeometricKernel(network)
        network.add_node("z0", 77.0, 199.0)
        kernel.entry(next(iter(network.links)))
        fresh = GeometricKernel(network)
        assert kernel.power.shape == fresh.power.shape
        assert np.array_equal(kernel.power, fresh.power)

    def test_cached_entries_survive_growth(self):
        network = self._network()
        recorder = Recorder()
        with use_recorder(recorder):
            kernel = GeometricKernel(network)
            links = list(network.links)
            entries = {
                link.link_id: kernel.entry(link) for link in links[:5]
            }
            network.add_node("z0", 5.0, 5.0)
            kernel.entry(links[5])  # cache miss -> matrix growth
            for link in links[:5]:
                assert kernel.entry(link) is entries[link.link_id]
        assert recorder.counters["kernel.matrix_grows"] == 1
        assert recorder.counters["kernel.entry.misses"] == 6


class TestVectorizedMatrix:
    def test_matrix_matches_scalar_reference_on_paper_topology(self):
        network = random_topology(RadioConfig(), seed=8)
        kernel = GeometricKernel(network)
        nodes = network.nodes
        for i, sender in enumerate(nodes):
            for j, receiver in enumerate(nodes):
                assert kernel.power[i, j] == matrix_power_reference(
                    network.radio, sender, receiver
                )

    def test_matrix_matches_scalar_reference_on_scatter(self):
        network = scatter_topology(40, 400.0, 600.0, seed=21)
        kernel = GeometricKernel(network)
        nodes = network.nodes
        for i, sender in enumerate(nodes):
            for j, receiver in enumerate(nodes):
                assert kernel.power[i, j] == matrix_power_reference(
                    network.radio, sender, receiver
                )


class TestVectorizedLinkBuild:
    def test_links_identical_to_scalar_loop(self):
        """The prefiltered link build must emit exactly the links the old
        all-pairs scalar loop emitted, in the same row-major order."""
        from repro.net.topology import Network

        reference = scatter_topology(60, 500.0, 750.0, seed=4)
        scalar = Network(reference.radio, name="scalar")
        for node in reference.nodes:
            scalar.add_node(node.node_id, x=node.x, y=node.y)
        max_range = scalar.radio.rate_table.max_range_m
        node_list = list(scalar.nodes)
        scalar_ids = []
        for sender in node_list:
            for receiver in node_list:
                if sender is receiver:
                    continue
                if sender.distance_to(receiver) <= max_range:
                    scalar_ids.append((sender.node_id, receiver.node_id))
        vector_ids = [
            (link.sender.node_id, link.receiver.node_id)
            for link in reference.links
        ]
        assert vector_ids == scalar_ids
