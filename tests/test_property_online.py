"""Property tests for the online admission machinery.

Two contracts are exercised with Hypothesis over the verification
families:

- **Retire/re-admit is lossless.**  Retiring any subset of a master
  LP's lambda columns in any order and re-admitting them from their
  :meth:`~repro.core.lp.LinearProgram.retire_column` snapshots in any
  other order yields an optimum *bit-identical* to a fresh solve —
  the property the online controller's warm path rests on.
- **The decision wire format is total.**  Any representable
  :class:`~repro.serve.online.OnlineDecision` survives the JSONL
  round trip unchanged, and the controller's positional constructor
  makes the instance the dataclass constructor makes.
- **Carried load summed by link id is the cold sum.**  Under any churn
  the controller's link union and demand vector equal
  :func:`~repro.core.bandwidth._collect_links` and
  :func:`~repro.core.bandwidth.link_demands_from_paths` over its
  carried flows, bit for bit.
"""

import dataclasses
import json
import pickle
import struct

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.bandwidth import (
    _collect_links,
    build_path_bandwidth_lp,
    link_demands_from_paths,
)
from repro.core.independent_sets import enumerate_maximal_independent_sets
from repro.errors import InfeasibleProblemError
from repro.serve.io import online_decision_from_dict, online_decision_to_dict
from repro.interference.protocol import ProtocolInterferenceModel
from repro.serve.online import OnlineAdmissionController, OnlineDecision
from repro.verify.instances import FAMILIES, generate_instance
from repro.workloads.churn import FlowEvent, OnlineChurnConfig, churn_event_stream
from repro.workloads.scenarios import paper_random_topology

# One instance per family, fixed seed: the properties quantify over the
# retire/re-admit *orders*, not the instances, so a deterministic bundle
# per family keeps examples fast and failures reproducible.
_BUNDLES = {}
for _index, _family in enumerate(sorted(FAMILIES)):
    _instance = generate_instance(42_000_000 + _index, family=_family)
    _links = _instance.links
    _BUNDLES[_family] = {
        "columns": enumerate_maximal_independent_sets(
            _instance.model, _links
        ),
        "links": _links,
        "demands": link_demands_from_paths(_instance.background),
        "new_links": set(_instance.new_path.links),
    }


def _fresh_master(family):
    """The family's master LP and its λ variables' names."""
    bundle = _BUNDLES[family]
    program = build_path_bandwidth_lp(
        bundle["columns"],
        bundle["links"],
        bundle["demands"],
        bundle["new_links"],
    )
    return program.lp, [f"lambda_{index}" for index in range(len(program.columns))]


def _solve_or_infeasible(lp):
    """The optimum, or the InfeasibleProblemError sentinel class."""
    try:
        return lp.solve().objective
    except InfeasibleProblemError:
        return InfeasibleProblemError


@st.composite
def _retire_plans(draw):
    """(family, retire-order, re-admit-order) over that family's columns."""
    family = draw(st.sampled_from(sorted(_BUNDLES)))
    n_columns = len(_BUNDLES[family]["columns"])
    indices = sorted(
        draw(
            st.sets(
                st.integers(min_value=0, max_value=n_columns - 1),
                min_size=1,
                max_size=n_columns,
            )
        )
    )
    retire_order = draw(st.permutations(indices))
    readmit_order = draw(st.permutations(indices))
    return family, retire_order, readmit_order


class TestRetireReadmitLossless:
    @given(plan=_retire_plans())
    @settings(max_examples=40, deadline=None)
    def test_any_orders_restore_the_fresh_optimum(self, plan):
        family, retire_order, readmit_order = plan
        lp, lambda_vars = _fresh_master(family)
        fresh = lp.solve()

        snapshots = {
            index: lp.retire_column(lambda_vars[index])
            for index in retire_order
        }
        # The masked program must agree with one *built* without the
        # retired columns — retirement is removal, not perturbation.
        bundle = _BUNDLES[family]
        kept = [
            column
            for index, column in enumerate(bundle["columns"])
            if index not in snapshots
        ]
        masked_lp = build_path_bandwidth_lp(
            kept, bundle["links"], bundle["demands"], bundle["new_links"]
        ).lp
        assert _solve_or_infeasible(lp) == _solve_or_infeasible(masked_lp)

        for index in readmit_order:
            lp.set_column(lambda_vars[index], **snapshots[index])
        restored = lp.solve()
        assert restored.objective == fresh.objective
        assert all(restored[var] == fresh[var] for var in lambda_vars)

    @given(seed=st.integers(min_value=0, max_value=2**16),
           family=st.sampled_from(sorted(_BUNDLES)))
    @settings(max_examples=25, deadline=None)
    def test_interleaved_churn_restores_the_fresh_optimum(
        self, seed, family
    ):
        """Retires and re-admissions interleaved like a live stream."""
        import random

        lp, lambda_vars = _fresh_master(family)
        fresh_objective = lp.solve().objective
        rng = random.Random(seed)
        retired = {}
        for _step in range(3 * len(lambda_vars)):
            if retired and (rng.random() < 0.5 or rng.random() < 0.1):
                name = rng.choice(sorted(retired))
                lp.set_column(name, **retired.pop(name))
            else:
                active = [v for v in lambda_vars if v not in retired]
                if not active:
                    continue
                name = rng.choice(active)
                retired[name] = lp.retire_column(name)
        for name in sorted(retired):
            lp.set_column(name, **retired.pop(name))
        assert lp.solve().objective == fresh_objective


_node_ids = st.text(
    alphabet=st.characters(codec="ascii", categories=("L", "N")),
    min_size=1,
    max_size=6,
)

_decisions = st.builds(
    OnlineDecision,
    seq=st.integers(min_value=0, max_value=10**6),
    trace_id=st.text(max_size=12),
    time=st.floats(allow_nan=False, allow_infinity=False),
    flow_id=st.text(max_size=12),
    source=_node_ids,
    destination=_node_ids,
    demand_mbps=st.floats(
        min_value=0.0, allow_nan=False, allow_infinity=False
    ),
    routed=st.booleans(),
    path_nodes=st.tuples(_node_ids, _node_ids, _node_ids),
    admitted=st.booleans(),
    available_bandwidth_mbps=st.floats(
        allow_nan=False, allow_infinity=False
    ),
    cache_state=st.sampled_from(
        ["result", "warm", "cold", "unrouted", "twohop"]
    ),
    latency_seconds=st.floats(
        min_value=0.0, allow_nan=False, allow_infinity=False
    ),
    carried_flows=st.integers(min_value=0, max_value=10**4),
    fingerprint=st.text(max_size=16),
)


class TestWireFormatTotal:
    @given(decision=_decisions)
    @settings(max_examples=50, deadline=None)
    def test_round_trip_identity(self, decision):
        line = json.dumps(online_decision_to_dict(decision))
        assert online_decision_from_dict(json.loads(line)) == decision

    @given(decision=_decisions)
    @settings(max_examples=50, deadline=None)
    def test_positional_constructor_makes_the_same_instance(self, decision):
        values = [getattr(decision, field.name) for field in dataclasses.fields(decision)]
        made = OnlineDecision._of(*values)
        assert made == decision and hash(made) == hash(decision)
        assert repr(made) == repr(decision)
        assert list(vars(made).items()) == list(vars(decision).items())
        assert pickle.dumps(made) == pickle.dumps(decision)
        assert dataclasses.replace(made, seq=made.seq + 1) == dataclasses.replace(
            decision, seq=decision.seq + 1
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            made.admitted = not made.admitted


def _float_bits(values):
    return [struct.pack("<d", value) for value in values]


_CHURN_MODEL = ProtocolInterferenceModel(paper_random_topology(seed=8))
_CHURN_NODES = sorted(node.node_id for node in _CHURN_MODEL.network.nodes)
# Endpoints near one node, so that routes share links and link demands
# are sums of several flows.
_CHURN_ENDPOINTS = sorted(
    _CHURN_NODES,
    key=lambda node_id: _CHURN_MODEL.network.node(node_id).distance_to(
        _CHURN_MODEL.network.node(_CHURN_NODES[0])
    ),
)[:10]

_arrival_steps = st.tuples(
    st.just("arrival"),
    st.sampled_from(_CHURN_ENDPOINTS),
    st.sampled_from(_CHURN_ENDPOINTS),
    st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.1, 0.05]),
)

# Arrivals three times as likely as a departure or a node event.
_churn_steps = st.lists(
    st.one_of(
        _arrival_steps,
        _arrival_steps,
        _arrival_steps,
        st.tuples(st.just("departure"), st.integers(0, 40)),
        st.tuples(st.sampled_from(["node-down", "node-up"]), st.sampled_from(_CHURN_ENDPOINTS)),
    ),
    min_size=4,
    max_size=40,
)


def _checked_controller():
    """A controller whose every solve first checks its link union and
    demand vector against the Link-keyed cold helpers over its carried
    flows; the list counts the carried flows at each checked solve."""
    controller = OnlineAdmissionController(_CHURN_MODEL)
    solve, checked = controller.session.solve, []

    def checked_solve(path, union, demands, demand_key, background=(), cached=True, **keys):
        carried = controller.carried()
        expected_union = _collect_links(carried, path)
        expected = link_demands_from_paths(carried)
        assert [link.link_id for link in union] == [link.link_id for link in expected_union]
        assert keys["union_key"] == tuple(link.link_id for link in expected_union)
        assert keys["path_key"] == tuple(link.link_id for link in path)
        assert _float_bits(demand_key) == _float_bits(
            [expected.get(link, 0.0) for link in expected_union]
        )
        checked.append(len(carried))
        return solve(path, union, demands, demand_key, background, cached, **keys)

    controller.session.solve = checked_solve
    return controller, checked


class TestLinkIdResum:
    """The controller builds the link union and demand vector by link
    id; every solve it asks for sees exactly what the Link-keyed cold
    helpers give over its carried flows."""

    @given(steps=_churn_steps)
    @settings(max_examples=60, deadline=None)
    def test_union_and_demands_equal_the_cold_helpers(self, steps):
        controller, _checked = _checked_controller()
        flows = []
        for seq, step in enumerate(steps):
            kind = step[0]
            if kind == "arrival":
                if step[1] == step[2]:
                    continue
                flows.append(f"f{seq}")
                event = FlowEvent(seq, kind, seq, flows[-1], step[1], step[2], step[3])
            elif kind == "departure":
                if not flows:
                    continue
                event = FlowEvent(seq, kind, seq, flow_id=flows[step[1] % len(flows)])
            else:
                event = FlowEvent(seq, kind, seq, node_id=step[1])
            controller.handle(event)

    def test_a_churn_stream(self):
        """A stream shaped like the benchmark's: shared links, several
        carried flows and node churn."""
        controller, checked = _checked_controller()
        config = OnlineChurnConfig(
            n_events=600, demand_mbps=0.3, route_pool=4, mean_holding=4.0,
            min_distance_m=300.0, node_churn=4,
        )
        for event in churn_event_stream(_CHURN_MODEL.network, config, seed=5):
            controller.handle(event)
        assert len(checked) > 100 and max(checked) >= 4
