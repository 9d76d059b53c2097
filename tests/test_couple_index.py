"""The model-wide couple index against the union-local computation.

Every kernel-backed model keeps one packed compatibility row per
(link, rate) couple.  The reference below is the union-local vectorised
evaluation enumeration used before the index: one SINR-ratio matrix over
the union's own couples plus the four shared-node tests.  Every gathered
row must equal it bit for bit, whatever the union, the model, the order
couples arrive in, node growth or a full kernel rebuild.
"""

from __future__ import annotations

import pickle
import random
import threading

import numpy as np
import pytest

import repro.core.independent_sets as independent_sets
from repro.core.independent_sets import (
    _pairwise_compatibility_masks,
    enumerate_maximal_independent_sets,
)
from repro.interference.base import LinkRate
from repro.interference.conflict_graph import link_rate_vertices
from repro.interference.couple_index import CoupleIndex
from repro.interference.physical import PhysicalInterferenceModel
from repro.interference.protocol import ProtocolInterferenceModel
from repro.net.generators import scatter_topology
from repro.obs import Recorder, use_recorder
from repro.workloads.scenarios import paper_random_topology

MODELS = (ProtocolInterferenceModel, PhysicalInterferenceModel)


def reference_masks(model, vertices):
    """The union-local vectorised compatibility matrix, packed per row."""
    kernel = model.kernel
    entries = [kernel.entry(vertex.link) for vertex in vertices]
    senders = np.array([e.sender_index for e in entries], dtype=np.intp)
    receivers = np.array([e.receiver_index for e in entries], dtype=np.intp)
    signals = np.array([e.signal_mw for e in entries])
    thresholds = np.array([v.rate.sinr_linear for v in vertices])
    interference = kernel.power[senders[None, :], receivers[:, None]]
    ratio = signals[:, None] / (interference + kernel.noise_mw)
    survives = ratio >= thresholds[:, None]
    compatible = survives & survives.T
    compatible &= senders[:, None] != senders[None, :]
    compatible &= senders[:, None] != receivers[None, :]
    compatible &= receivers[:, None] != senders[None, :]
    compatible &= receivers[:, None] != receivers[None, :]
    return [
        int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
        for row in compatible
    ]


def _x7_field():
    return scatter_topology(192, 850.0, 1275.0, seed=8)


def _random_unions(vertices, rng, count, largest):
    for trial in range(count):
        union = rng.sample(vertices, rng.randint(1, min(largest, len(vertices))))
        if trial % 5 == 0:
            union += union[:2]  # a couple listed twice
        yield union


class TestRowsEqualReference:
    @pytest.mark.parametrize("kind", MODELS)
    @pytest.mark.parametrize("field", ["paper", "x7"])
    def test_random_unions(self, kind, field):
        network = paper_random_topology(0) if field == "paper" else _x7_field()
        model = kind(network)
        vertices = link_rate_vertices(model, list(network.links))
        rng = random.Random(f"{kind.__name__}-{field}")
        for union in _random_unions(vertices, rng, 40, 160):
            assert _pairwise_compatibility_masks(model, union) == reference_masks(
                model, union
            )

    @pytest.mark.parametrize("kind", MODELS)
    def test_rates_a_link_does_not_support_alone(self, kind):
        network = paper_random_topology(1)
        model = kind(network)
        table = list(network.radio.rate_table)
        links = list(network.links)[:40]
        couples = [
            LinkRate(link, table[index % len(table)])
            for index, link in enumerate(links)
        ]
        assert any(
            couple.rate not in model.standalone_rates(couple.link)
            for couple in couples
        )
        vertices = link_rate_vertices(model, links[20:])
        for union in (couples, vertices + couples, couples[::-1] + vertices):
            assert _pairwise_compatibility_masks(model, union) == reference_masks(
                model, union
            )

    def test_standalone_couples_get_consecutive_ids_fastest_first(self):
        network = paper_random_topology(2)
        model = ProtocolInterferenceModel(network)
        index = model.kernel.couple_index
        links = list(network.links)[:10]
        per_link = model.standalone_couples_of(links)
        # Ask for each link's slowest couple only: the whole link is indexed.
        index.ids([couples[-1] for couples in per_link if couples])
        expected = [couple for couples in per_link for couple in couples]
        assert index.couples == expected
        assert index.ids(expected) == list(range(len(expected)))

    @pytest.mark.parametrize("kind", MODELS)
    def test_after_a_node_is_added(self, kind):
        network = scatter_topology(40, 300.0, 300.0, seed=3)
        model = kind(network)
        index = model.kernel.couple_index
        before = link_rate_vertices(model, list(network.links))
        _pairwise_compatibility_masks(model, before)
        network.add_node("z0", 150.0, 150.0)
        nearest = min(
            network.nodes[:-1],
            key=lambda node: (node.x - 150.0) ** 2 + (node.y - 150.0) ** 2,
        )
        added = [
            network.add_link("z0", nearest.node_id),
            network.add_link(nearest.node_id, "z0"),
        ]
        recorder = Recorder()
        with use_recorder(recorder):
            union = before + link_rate_vertices(model, added)
            assert _pairwise_compatibility_masks(model, union) == reference_masks(
                model, union
            )
        assert model.kernel.couple_index is index
        assert recorder.counters["kernel.matrix_grows"] == 1
        assert recorder.counters["kernel.index.rows_filled"] == len(union) - len(
            before
        )

    @pytest.mark.parametrize("kind", MODELS)
    def test_after_a_full_kernel_rebuild(self, kind):
        network = scatter_topology(40, 300.0, 300.0, seed=5)
        model = kind(network)
        kernel = model.kernel
        links = list(network.links)
        first = link_rate_vertices(model, links[:30])
        _pairwise_compatibility_masks(model, first)
        old = kernel.couple_index
        # Couples of links the kernel has no entry for yet: the index's
        # own entry fetch hits the rebuild.
        second = [
            LinkRate(link, network.max_standalone_rate(link))
            for link in links[30:60]
        ]
        # Known nodes that no longer sit where the kernel has them force
        # the full-rebuild fallback on the next entry miss.
        network.add_node("z0", 10.0, 10.0)
        ids = list(kernel.node_index)
        kernel.node_index[ids[0]], kernel.node_index[ids[1]] = (
            kernel.node_index[ids[1]],
            kernel.node_index[ids[0]],
        )
        recorder = Recorder()
        with use_recorder(recorder):
            masks = _pairwise_compatibility_masks(model, first + second)
        assert recorder.counters["kernel.matrix_builds"] == 1
        assert kernel.couple_index is not old
        assert masks == reference_masks(model, first + second)
        assert len(kernel.couple_index) == len(
            link_rate_vertices(model, links[:60])
        )


class TestOneFillPerCouple:
    @pytest.mark.parametrize("kind", MODELS)
    def test_rows_filled_once_per_couple(self, kind):
        network = paper_random_topology(3)
        model = kind(network)
        vertices = link_rate_vertices(model, list(network.links))
        rng = random.Random(3)
        recorder = Recorder()
        touched = set()
        with use_recorder(recorder):
            for union in _random_unions(vertices, rng, 30, 60):
                _pairwise_compatibility_masks(model, union)
                touched.update(couple.link.link_id for couple in union)
        indexed = len(model.kernel.couple_index)
        assert recorder.counters["kernel.index.rows_filled"] == indexed
        assert indexed == len(
            link_rate_vertices(
                model, [link for link in network.links if link.link_id in touched]
            )
        )

    def test_pickled_model_keeps_its_rows(self):
        network = paper_random_topology(4)
        model = ProtocolInterferenceModel(network)
        vertices = link_rate_vertices(model, list(network.links)[:50])
        masks = _pairwise_compatibility_masks(model, vertices)
        copy = pickle.loads(pickle.dumps(model))
        index = copy.kernel.couple_index
        assert isinstance(index, CoupleIndex)
        assert len(index) == len(model.kernel.couple_index)
        recorder = Recorder()
        with use_recorder(recorder):
            copied = index.couples[: len(vertices)]
            assert _pairwise_compatibility_masks(copy, copied) == masks
        assert "kernel.index.rows_filled" not in recorder.counters


class TestConcurrentEnumeration:
    def test_eight_threads_get_the_union_local_families(self, monkeypatch):
        network = paper_random_topology(5)
        links = list(network.links)
        rng = random.Random(5)
        unions = [rng.sample(links, 14) for _ in range(8)]
        with monkeypatch.context() as patch:
            patch.setattr(
                independent_sets, "_pairwise_compatibility_masks", reference_masks
            )
            expected = [
                enumerate_maximal_independent_sets(
                    ProtocolInterferenceModel(network), union
                )
                for union in unions
            ]
        model = ProtocolInterferenceModel(network)
        found = [None] * len(unions)
        barrier = threading.Barrier(len(unions))

        def run(position):
            barrier.wait()
            for _ in range(3):
                found[position] = enumerate_maximal_independent_sets(
                    model, unions[position]
                )

        threads = [
            threading.Thread(target=run, args=(position,))
            for position in range(len(unions))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert found == expected
        for family, reference in zip(found, expected):
            assert family.couples == reference.couples
            assert family.masks == reference.masks
