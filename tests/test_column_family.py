"""Eq. 6 columns as a :class:`ColumnFamily`: sets are built on demand."""

import math

import pytest

from repro.core.bandwidth import (
    available_path_bandwidth,
    build_path_bandwidth_lp,
    path_bandwidth_from_solution,
)
from repro.core.independent_sets import (
    ColumnFamily,
    RateIndependentSet,
    enumerate_maximal_independent_sets,
)
from repro.errors import ScheduleError
from repro.interference.physical import PhysicalInterferenceModel
from repro.interference.protocol import ProtocolInterferenceModel
from repro.net.generators import chain_topology
from repro.net.path import Path
from repro.serve import AdmissionQuery, AdmissionService


@pytest.fixture
def built_sets(monkeypatch):
    """Every :class:`RateIndependentSet` constructed while the test runs."""
    built = []
    original = RateIndependentSet.__post_init__

    def counting(self):
        original(self)
        built.append(self)

    monkeypatch.setattr(RateIndependentSet, "__post_init__", counting)
    return built


def _chain(n_nodes=9):
    """An ``n_nodes`` chain, the whole chain as the path, both ends loaded."""
    network = chain_topology(n_nodes, 70.0)
    hops = [
        network.link_between(f"n{index}", f"n{index + 1}")
        for index in range(n_nodes - 1)
    ]
    background = [(Path(hops[:2]), 1.0), (Path(hops[-2:]), 1.0)]
    return network, Path(hops), background


class TestSequenceBehaviour:
    @pytest.fixture
    def family(self):
        network, path, _background = _chain(7)
        return enumerate_maximal_independent_sets(
            ProtocolInterferenceModel(network), list(path.links)
        )

    def test_reads_like_the_list_of_its_sets(self, family):
        sets = list(family)
        assert isinstance(family, ColumnFamily)
        assert family == sets and sets == family
        assert family != sets[::-1]
        assert len(family) == len(sets)
        assert family[0] == sets[0] and family[-1] == sets[-1]
        assert family[1:3] == sets[1:3]
        assert sets[2] in family

    def test_of_a_family_is_the_family(self, family):
        assert ColumnFamily.of(family) is family
        assert ColumnFamily.of(list(family)) == family

    def test_unhashable_like_a_list(self, family):
        with pytest.raises(TypeError):
            hash(family)


@pytest.mark.parametrize(
    "model_type", [ProtocolInterferenceModel, PhysicalInterferenceModel]
)
def test_fresh_submit_builds_no_set(model_type, built_sets):
    """Enumeration, pruning, assembly and extraction build no set: a
    decision reads the bandwidth, never the schedule's sets."""
    network, path, background = _chain()
    service = AdmissionService(model_type(network), background)
    service.submit(AdmissionQuery("q", path, 0.5))
    assert built_sets == []
    union = service.link_union(path)
    master = service.session.master_cache.get(
        tuple(link.link_id for link in union)
    )
    assert isinstance(master.program.columns, ColumnFamily)
    assert len(master.program.columns) > 1


class _Solution:
    """The two things extraction reads from a solved master: the
    objective and the variable values by position (column order)."""

    def __init__(self, values, objective=1.0):
        self.x = list(values.values())
        self.objective = objective


@pytest.mark.parametrize("bad_share", [math.nan, math.inf, -1e-6])
def test_unscheduled_columns_are_still_validated(bad_share, built_sets):
    network, path, _background = _chain(7)
    links = list(path.links)
    columns = enumerate_maximal_independent_sets(
        ProtocolInterferenceModel(network), links
    )
    program = build_path_bandwidth_lp(columns, links, {}, set(links))
    lambda_vars = [f"lambda_{index}" for index in range(len(columns))]
    values = {"f": 1.0, **dict.fromkeys(lambda_vars, 0.0)}
    values[lambda_vars[0]] = bad_share
    values[lambda_vars[1]] = 0.5
    built_sets.clear()
    with pytest.raises(ScheduleError):
        path_bandwidth_from_solution(program, _Solution(values), {})
    assert built_sets == []


def test_reading_the_schedule_builds_the_scheduled_sets(built_sets):
    network, path, background = _chain()
    result = available_path_bandwidth(
        ProtocolInterferenceModel(network), path, background
    )
    assert isinstance(result.independent_sets, ColumnFamily)
    assert built_sets == []
    entries = list(result.schedule)
    assert len(built_sets) == len(entries) > 0
    assert len(entries) < len(result.independent_sets)
    for entry in entries:
        assert entry.time_share > 1e-12
        assert entry.independent_set in result.independent_sets
