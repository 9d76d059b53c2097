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
  round trip unchanged.
"""

import json

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.bandwidth import (
    build_path_bandwidth_lp,
    link_demands_from_paths,
)
from repro.core.independent_sets import enumerate_maximal_independent_sets
from repro.errors import InfeasibleProblemError
from repro.serve.io import online_decision_from_dict, online_decision_to_dict
from repro.serve.online import OnlineDecision
from repro.verify.instances import FAMILIES, generate_instance

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
