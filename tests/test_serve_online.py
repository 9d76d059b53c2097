"""The online admission controller: byte-identity, churn, wire format.

The load-bearing property mirrors the batch serving layer's: however an
arrival is answered — memoised result, warm master re-solve, or cold
rebuild — the decision must *equal* a fresh
:func:`~repro.core.bandwidth.available_path_bandwidth` solve over the
currently-carried flows, exactly (``==``, not approx).  The oracle class
cross-checks that over the verification generator's six instance
families through :meth:`OnlineAdmissionController.admit_path`; the rest
pins the churn semantics (departures, node down/up, forced departures),
the counters proving the incremental mechanism, the JSONL wire format
and the ``repro serve --online`` CLI surface.
"""

import json
import math

import pytest

from repro.core.bandwidth import available_path_bandwidth
from repro.errors import ConfigurationError
from repro.obs import Recorder, use_recorder
from repro.serve import (
    OnlineAdmissionController,
    online_decision_from_dict,
    online_decision_to_dict,
    run_online_session,
    summarize_online_decisions,
)
from repro.serve.session import MasterSession
from repro.testing.faults import inject_faults, plan_from_spec
from repro.verify.instances import FAMILIES, iter_instances
from repro.workloads.churn import FlowEvent
from repro.workloads.scenarios import online_churn_workload, scenario_one

#: All arrivals with this demand are rejected (nothing to carry), so a
#: probe leaves the carried set untouched.
REJECT_ALL = float("inf")


@pytest.fixture(scope="module")
def workload():
    """A 120-event slice of the canonical churn stream — enough to walk
    every decision path (result hits, warm re-solves, cold rebuilds,
    demand-row retirements, node churn)."""
    return online_churn_workload(n_events=120)


def _essence(decision):
    """A decision minus its legitimate cost axes (latency, cache path)."""
    return (
        decision.seq,
        decision.flow_id,
        decision.routed,
        decision.path_nodes,
        decision.admitted,
        decision.available_bandwidth_mbps,
        decision.carried_flows,
        decision.fingerprint,
    )


class TestByteIdentity:
    def test_incremental_matches_rebuild(self, workload):
        """The caches change the cost of an answer, never the answer."""
        warm, _ = run_online_session(
            OnlineAdmissionController(workload.model), workload.events
        )
        cold, _ = run_online_session(
            OnlineAdmissionController(workload.model, incremental=False),
            workload.events,
        )
        assert [_essence(d) for d in warm] == [_essence(d) for d in cold]

    def test_pin_mode_passes_on_the_stream(self, workload):
        """pin=True re-proves every decision cold and raises on the
        first divergence; a clean run certifies the stream."""
        controller = OnlineAdmissionController(workload.model, pin=True)
        recorder = Recorder()
        with use_recorder(recorder):
            decisions, _ = run_online_session(controller, workload.events)
        routed = sum(1 for d in decisions if d.routed)
        assert recorder.counters["online.pin_checks"] == routed

    def test_decisions_are_deterministic(self, workload):
        a, _ = run_online_session(
            OnlineAdmissionController(workload.model), workload.events
        )
        b, _ = run_online_session(
            OnlineAdmissionController(workload.model), workload.events
        )
        assert a == b or [_essence(d) for d in a] == [_essence(d) for d in b]


class TestMechanism:
    def test_counters_prove_every_path(self, workload):
        recorder = Recorder()
        with use_recorder(recorder):
            controller = OnlineAdmissionController(workload.model)
            decisions, _ = run_online_session(controller, workload.events)
        counters = recorder.counters
        assert counters["online.events"] == len(workload.events)
        assert counters["online.arrivals"] == len(decisions)
        assert counters["online.cache.result.hits"] >= 1
        assert counters["online.warm_resolves"] >= 1
        assert counters["online.rebuild_fallbacks"] >= 1
        assert counters["online.column_retirements"] >= 1
        # The incremental path only rebuilds on genuinely new unions.
        assert (
            counters["online.rebuild_fallbacks"]
            == counters["online.cache.master.misses"]
        )
        assert "online.decisions_per_second" in recorder.gauges

    def test_cache_states_cover_the_mechanism(self, workload):
        decisions, _ = run_online_session(
            OnlineAdmissionController(workload.model), workload.events
        )
        states = {d.cache_state for d in decisions}
        assert {"result", "warm", "cold"} <= states

    def test_rebuild_mode_never_warms(self, workload):
        recorder = Recorder()
        with use_recorder(recorder):
            controller = OnlineAdmissionController(
                workload.model, incremental=False
            )
            decisions, _ = run_online_session(controller, workload.events)
        assert recorder.counters.get("online.warm_resolves", 0) == 0
        assert recorder.counters["online.rebuild_fallbacks"] == len(
            [d for d in decisions if d.routed]
        )


class TestSolverFallback:
    """A solve whose dual-simplex attempt fails is answered by the
    ``highs-ipm`` rung of the same driver.  Its decision is *not*
    always bit-equal to the clean ``highs-ds`` one: interior point plus
    crossover can land on the same vertex through different arithmetic.
    What holds for every solve of the stream is the same verdict and a
    bandwidth within the :class:`~repro.core.lp.DualCertificate`
    tolerance of the clean answer."""

    #: ``DualCertificate.valid``'s default (relative) tolerance.
    TOLERANCE = 1e-6

    def test_ipm_recovered_decisions(self, workload):
        recorder = Recorder()
        with use_recorder(recorder):
            clean, _ = run_online_session(
                OnlineAdmissionController(workload.model), workload.events
            )
        solves = recorder.counters["lp.solves"]
        bit_equal = 0
        for index in range(1, solves + 1):
            with inject_faults(plan_from_spec(f"solver@{index}")) as active:
                faulted, _ = run_online_session(
                    OnlineAdmissionController(workload.model), workload.events
                )
            assert active.solver_faults_fired == 1
            assert [d.admitted for d in faulted] == [d.admitted for d in clean]
            for ours, theirs in zip(clean, faulted):
                expected = ours.available_bandwidth_mbps
                limit = self.TOLERANCE * max(1.0, abs(expected))
                assert abs(theirs.available_bandwidth_mbps - expected) <= limit
            bit_equal += [_essence(d) for d in faulted] == [
                _essence(d) for d in clean
            ]
        # Exact == holds for most solves but not all (SciPy 1.17.1,
        # HiGHS 1.12): the fallback is verdict-equal, not bit-equal.
        assert 0 < bit_equal < solves


class TestFingerprintMemo:
    def test_memo_is_lru_bounded(self):
        session = MasterSession(
            model=None,
            digest=lambda union, demands: f"{union}|{demands}",
            result_capacity=8,
        )
        union = ("L1", "L2")
        for step in range(100):
            session.fingerprint(union, (float(step),))
            session.fingerprint(union, (0.0,))  # kept hot
        assert len(session._fingerprints.memo) == 8
        assert (union, (0.0,)) in session._fingerprints.memo
        assert (union, (99.0,)) in session._fingerprints.memo
        assert (union, (1.0,)) not in session._fingerprints.memo

    def test_bounded_memo_changes_no_answer(self, workload):
        small = OnlineAdmissionController(workload.model, result_capacity=4)
        decisions, _ = run_online_session(small, workload.events)
        assert len({d.fingerprint for d in decisions if d.fingerprint}) > 4
        assert len(small.session._fingerprints.memo) <= 4
        reference, _ = run_online_session(
            OnlineAdmissionController(workload.model), workload.events
        )
        assert [_essence(d) for d in decisions] == [
            _essence(d) for d in reference
        ]


class TestFlightRecords:
    def test_records_carry_the_causal_story(self, workload):
        controller = OnlineAdmissionController(workload.model, slow_log=256)
        decisions, _ = run_online_session(controller, workload.events)
        records = controller.flight.slow_queries()
        assert len(records) == len(decisions)
        by_state = {}
        for record in records:
            assert record["trace_id"].startswith("e")
            assert "carried_flows" in record
            by_state.setdefault(record["cache_state"], []).append(record)
        for record in by_state["cold"]:
            assert (
                record["result_cache"],
                record["columns_cache"],
                record["lp_cache"],
            ) == ("miss", "miss", "miss")
            assert record["columns"] > 0
        for record in by_state["warm"]:
            assert (record["result_cache"], record["lp_cache"]) == (
                "miss",
                "hit",
            )
            assert record["columns"] > 0
        assert any(r["lp_warm_start"] for r in by_state["warm"])
        assert any(r["lp_iterations"] > 0 for r in by_state["warm"])
        for record in by_state["result"]:
            assert record["result_cache"] == "hit"

    def test_slow_log_fills_every_column(self, capsys):
        from repro.cli import main

        code = main(
            [
                "serve", "--online", "--events", "60", "--slow-log", "4",
                "--no-history",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        table = out[out.index("slow queries:"):].splitlines()[2:]
        assert len(table) == 4
        for row in table:
            assert "?" not in row.split()


class TestChurnSemantics:
    def _routed_arrival(self, workload):
        """The stream's first routed arrival (its event and route)."""
        controller = OnlineAdmissionController(workload.model)
        for event in workload.events:
            if event.kind != "arrival":
                continue
            decision = controller.handle(event)
            if decision.routed:
                return event, decision
        raise AssertionError("stream has no routable arrival")

    def test_departure_removes_the_flow(self, workload):
        event, decision = self._routed_arrival(workload)
        controller = OnlineAdmissionController(workload.model)
        controller.handle(event)
        assert len(controller.carried()) == (1 if decision.admitted else 0)
        controller.handle(
            FlowEvent(
                time=event.time + 1.0, kind="departure",
                seq=10_000, flow_id=event.flow_id,
            )
        )
        assert controller.carried() == []

    def test_node_down_forces_departures_and_unroutes(self, workload):
        event, decision = self._routed_arrival(workload)
        middle = decision.path_nodes[len(decision.path_nodes) // 2]
        controller = OnlineAdmissionController(workload.model)
        recorder = Recorder()
        with use_recorder(recorder):
            first = controller.handle(event)
            controller.handle(
                FlowEvent(
                    time=event.time + 1.0, kind="node-down",
                    seq=10_000, node_id=middle,
                )
            )
            # The carried flow traversed the node: it was force-departed.
            assert controller.carried() == []
            assert controller.down_nodes() == {middle}
            if first.admitted:
                assert recorder.counters["online.forced_departures"] == 1
            # The same arrival now has no usable route.
            retry = controller.handle(
                FlowEvent(
                    time=event.time + 2.0, kind="arrival", seq=10_001,
                    flow_id="retry", source=event.source,
                    destination=event.destination,
                    demand_mbps=event.demand_mbps,
                )
            )
            assert not retry.routed
            assert retry.cache_state == "unrouted"
            assert not retry.admitted
            assert recorder.counters["online.unrouted"] == 1
            # node-up restores routability.
            controller.handle(
                FlowEvent(
                    time=event.time + 3.0, kind="node-up",
                    seq=10_002, node_id=middle,
                )
            )
            restored = controller.handle(
                FlowEvent(
                    time=event.time + 4.0, kind="arrival", seq=10_003,
                    flow_id="restored", source=event.source,
                    destination=event.destination,
                    demand_mbps=event.demand_mbps,
                )
            )
            assert restored.routed

    def test_unknown_event_kind_rejected(self, workload):
        controller = OnlineAdmissionController(workload.model)
        with pytest.raises(ConfigurationError, match="unknown churn event"):
            controller.handle(
                FlowEvent(time=0.0, kind="meteor-strike", seq=0)
            )


class TestPolicyConfiguration:
    def test_unknown_policy_rejected(self, workload):
        with pytest.raises(ConfigurationError, match="unknown online"):
            OnlineAdmissionController(workload.model, policy="oracle")

    def test_pin_requires_eq6(self, workload):
        with pytest.raises(ConfigurationError, match="pin"):
            OnlineAdmissionController(
                workload.model, pin=True, policy="twohop"
            )

    def test_twohop_policy_answers_every_arrival(self, workload):
        recorder = Recorder()
        with use_recorder(recorder):
            controller = OnlineAdmissionController(
                workload.model, policy="twohop"
            )
            decisions, _ = run_online_session(controller, workload.events)
        for decision in decisions:
            if decision.routed:
                assert decision.cache_state == "twohop"
                assert math.isfinite(decision.available_bandwidth_mbps)
                assert decision.available_bandwidth_mbps >= 0.0
        assert recorder.counters["twohop.estimates"] == sum(
            1 for d in decisions if d.routed
        )


class TestAdmitPath:
    def test_synthetic_arrival_equals_cold_solve(self):
        """admit_path on Scenario I reproduces the paper's numbers."""
        scenario = scenario_one()
        controller = OnlineAdmissionController(scenario.model, pin=True)
        for index, (path, demand) in enumerate(scenario.background):
            decision = controller.admit_path(f"bg{index}", path, demand)
            assert decision.admitted
        probe = controller.admit_path(
            "probe", scenario.new_path, REJECT_ALL
        )
        cold = available_path_bandwidth(
            scenario.model, scenario.new_path, scenario.background
        )
        assert probe.available_bandwidth_mbps == cold.available_bandwidth
        assert not probe.admitted
        # The probe was rejected, so it is not carried.
        assert len(controller.carried()) == len(scenario.background)

    def test_path_nodes_recorded(self):
        scenario = scenario_one()
        controller = OnlineAdmissionController(scenario.model)
        decision = controller.admit_path(
            "f", scenario.new_path, 0.1
        )
        assert decision.path_nodes == ("e", "f")
        assert decision.source == "e"
        assert decision.destination == "f"


class TestOracleCrossCheck:
    """Online decisions equal cold solves on every generator family."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_family_equality(self, family):
        for instance in iter_instances(2, seed=42, families=[family]):
            controller = OnlineAdmissionController(instance.model, pin=True)
            admitted_all = True
            for index, (path, demand) in enumerate(instance.background):
                decision = controller.admit_path(f"bg{index}", path, demand)
                admitted_all = admitted_all and decision.admitted
            probe = controller.admit_path(
                "probe", instance.new_path, REJECT_ALL
            )
            again = controller.admit_path(
                "probe-2", instance.new_path, REJECT_ALL
            )
            # The repeat is memoised and bit-equal.
            assert again.cache_state == "result"
            assert (
                again.available_bandwidth_mbps
                == probe.available_bandwidth_mbps
            )
            if admitted_all:
                cold = available_path_bandwidth(
                    instance.model,
                    instance.new_path,
                    instance.background,
                )
                assert (
                    probe.available_bandwidth_mbps
                    == cold.available_bandwidth
                )


class TestWireFormat:
    def test_round_trip_through_jsonl(self, workload):
        decisions, _ = run_online_session(
            OnlineAdmissionController(workload.model), workload.events[:40]
        )
        assert decisions
        for decision in decisions:
            line = json.dumps(online_decision_to_dict(decision))
            assert online_decision_from_dict(json.loads(line)) == decision

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigurationError):
            online_decision_from_dict({"seq": 1})

    def test_fingerprint_defaults_empty(self, workload):
        decisions, _ = run_online_session(
            OnlineAdmissionController(workload.model), workload.events[:10]
        )
        payload = online_decision_to_dict(decisions[0])
        del payload["fingerprint"]
        assert online_decision_from_dict(payload).fingerprint == ""


class TestSummary:
    def test_summary_shape(self, workload):
        decisions, wall = run_online_session(
            OnlineAdmissionController(workload.model), workload.events
        )
        summary = summarize_online_decisions(decisions, wall)
        assert summary["decisions"] == len(decisions)
        assert (
            summary["admitted"] + summary["rejected"]
            == len(decisions)
        )
        assert summary["decisions_per_second"] > 0
        assert (
            0.0
            < summary["p50_latency_seconds"]
            <= summary["p99_latency_seconds"]
        )
        assert set(summary["cache_states"]) <= {
            "result", "warm", "cold", "unrouted", "twohop"
        }


class TestCli:
    def test_serve_online_strict(self, tmp_path, capsys):
        from repro.cli import main

        decisions_path = tmp_path / "decisions.jsonl"
        code = main(
            [
                "serve", "--online", "--events", "60", "--strict",
                "--decisions-out", str(decisions_path), "--no-history",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "strict: pinned to cold Eq. 6" in out
        lines = [
            json.loads(line)
            for line in decisions_path.read_text().splitlines()
        ]
        assert lines
        for payload in lines:
            decision = online_decision_from_dict(payload)
            assert decision.trace_id.startswith("e")

    def test_serve_requires_a_mode(self, capsys):
        from repro.cli import main

        assert main(["serve", "--no-history"]) == 2
        assert "--queries" in capsys.readouterr().err

    def test_serve_online_rejects_queries(self, tmp_path, capsys):
        from repro.cli import main

        queries = tmp_path / "q.jsonl"
        queries.write_text("{}\n")
        code = main(
            [
                "serve", "--online", "--queries", str(queries),
                "--no-history",
            ]
        )
        assert code == 2
