"""Physical (cumulative SINR) interference model."""

import pytest

from repro import Network
from repro.interference.base import LinkRate
from repro.interference.physical import PhysicalInterferenceModel
from repro.interference.protocol import ProtocolInterferenceModel


@pytest.fixture
def triple_model(radio):
    """Three parallel 50 m links spaced so that ONE interferer is
    tolerable at 18 Mbps but TWO together are not — the cumulative
    effect the protocol model misses."""
    network = Network(radio)
    spacing = 110.0
    for index in range(3):
        network.add_node(f"t{index}", x=0.0, y=index * spacing)
        network.add_node(f"r{index}", x=50.0, y=index * spacing)
        network.add_link(f"t{index}", f"r{index}", link_id=f"L{index}")
    return PhysicalInterferenceModel(network)


class TestCumulativeEffect:
    def test_single_interferer_tolerable(self, triple_model):
        net = triple_model.network
        pair = frozenset({net.link("L0"), net.link("L1")})
        vector = triple_model.max_rate_vector(pair)
        assert vector is not None
        assert vector[net.link("L0")].mbps >= 18.0

    def test_middle_link_suffers_from_both(self, triple_model):
        net = triple_model.network
        links = frozenset({net.link("L0"), net.link("L1"), net.link("L2")})
        triple = triple_model.max_rate_vector(links)
        pair = triple_model.max_rate_vector(
            frozenset({net.link("L0"), net.link("L1")})
        )
        # With both outer links active, the middle link's SINR halves
        # relative to one interferer; its max rate must not increase.
        if triple is not None:
            assert (
                triple[net.link("L1")].mbps <= pair[net.link("L1")].mbps
            )

    def test_cumulative_is_no_more_permissive_than_pairwise(
        self, triple_model
    ):
        """Any cumulative-feasible set is pairwise-feasible too."""
        net = triple_model.network
        protocol = ProtocolInterferenceModel(net)
        links = frozenset({net.link("L0"), net.link("L1"), net.link("L2")})
        cumulative = triple_model.max_rate_vector(links)
        if cumulative is not None:
            couples = [
                LinkRate(link, rate) for link, rate in cumulative.items()
            ]
            assert protocol.is_independent(couples)


class TestSinrInSet:
    def test_alone_matches_snr(self, triple_model):
        net = triple_model.network
        link = net.link("L0")
        radio = net.radio
        alone = triple_model.sinr_in_set(link, frozenset({link}))
        assert alone == pytest.approx(
            radio.received_mw(50.0) / radio.noise_mw
        )

    def test_interference_lowers_sinr(self, triple_model):
        net = triple_model.network
        link = net.link("L1")
        alone = triple_model.sinr_in_set(link, frozenset({link}))
        crowded = triple_model.sinr_in_set(
            link, frozenset({net.link("L0"), net.link("L1"), net.link("L2")})
        )
        assert crowded < alone


    def test_sum_does_not_depend_on_the_hash_seed(self):
        """Every SINR of every 4-link set of 14 paper-topology links, in
        processes with different hash seeds: one digest, pinned."""
        import os
        import subprocess
        import sys

        import repro

        script = (
            "import hashlib, itertools\n"
            "from repro.interference.physical import PhysicalInterferenceModel\n"
            "from repro.workloads.scenarios import paper_random_topology\n"
            "network = paper_random_topology(seed=8)\n"
            "model = PhysicalInterferenceModel(network)\n"
            "links = sorted(network.links, key=lambda link: link.link_id)[:14]\n"
            "print(hashlib.sha256(' '.join(\n"
            "    model.sinr_in_set(link, frozenset(subset)).hex()\n"
            "    for subset in itertools.combinations(links, 4) for link in subset\n"
            ").encode()).hexdigest()[:16])\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        digests = set()
        for hash_seed in ("0", "1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])
            )
            completed = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                timeout=300,
            )
            assert completed.returncode == 0, completed.stderr
            digests.add(completed.stdout.strip())
        assert digests == {"6f5830bd85e94c9b"}


class TestIndependence:
    def test_rate_above_set_maximum_rejected(self, triple_model):
        net = triple_model.network
        links = frozenset({net.link("L0"), net.link("L1")})
        vector = triple_model.max_rate_vector(links)
        table = net.radio.rate_table
        max_rate = vector[net.link("L0")]
        faster = [r for r in table if r.mbps > max_rate.mbps]
        if faster:
            couples = [
                LinkRate(net.link("L0"), faster[-1]),
                LinkRate(net.link("L1"), vector[net.link("L1")]),
            ]
            assert not triple_model.is_independent(couples)

    def test_duplicate_link_rejected(self, triple_model):
        net = triple_model.network
        table = net.radio.rate_table
        couples = [
            LinkRate(net.link("L0"), table.get(54.0)),
            LinkRate(net.link("L0"), table.get(36.0)),
        ]
        assert not triple_model.is_independent(couples)


def test_requires_geometry(radio):
    network = Network(radio)
    network.add_node("a")
    network.add_node("b")
    network.add_link("a", "b")
    with pytest.raises(ValueError, match="coordinates"):
        PhysicalInterferenceModel(network)
