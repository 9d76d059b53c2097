"""Decision fingerprints: the same bytes, computed only when read.

A decision's fingerprint digests the locus it was answered under (model,
link union, demand vector or background).  It is computed when a
decision, a flight record or an output first reads it, not per decision;
these tests pin that every fingerprint read is still the one the eager
computation gave, and that a stream nobody reads computes none.
"""

import hashlib
import json
import pickle

import pytest

import repro.fingerprint
import repro.serve.online
import repro.serve.service
from repro.interference.protocol import ProtocolInterferenceModel
from repro.serve import (
    AdmissionService,
    OnlineAdmissionController,
    online_decision_from_dict,
    online_decision_to_dict,
    run_online_session,
)
from repro.serve.session import ResultHit, SolveOutcome
from repro.workloads.scenarios import (
    admission_query_workload,
    online_churn_workload,
    paper_random_topology,
)

#: sha256 over every fingerprint read below, one per line: the online
#: replay's decisions and flight records, then the batch's.  Recorded
#: when every fingerprint was computed eagerly, per decision.
GOLDEN_DIGEST = "64cdf95aa86a5249b3b99dffb20078e0adfb316315ec6a9c487188d5c46b5ee3"

#: Large enough that every decision's flight record stays resident, so
#: the set of records read does not depend on latencies.
KEEP_ALL = 1000


def _by_trace(records):
    return sorted(records, key=lambda record: record["trace_id"])


def _online_workload():
    network = paper_random_topology(seed=8)
    return online_churn_workload(
        stream_seed=17,
        n_events=500,
        network=network,
        model=ProtocolInterferenceModel(network),
    )


@pytest.fixture
def fingerprint_calls(monkeypatch):
    """Count calls of :func:`repro.fingerprint.fingerprint`, under every
    name the serving front ends call it by."""
    calls = []
    original = repro.fingerprint.fingerprint

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (repro.fingerprint, repro.serve.online, repro.serve.service):
        monkeypatch.setattr(module, "fingerprint", counted)
    return calls


def test_read_fingerprints_match_the_eager_ones(tmp_path):
    from repro.cli import main

    decisions_path, trace_path = tmp_path / "d.jsonl", tmp_path / "t.json"
    code = main(
        [
            "serve", "--online", "--events", "500", "--strict",
            "--paper-seed", "8", "--stream-seed", "17",
            "--slow-log", str(KEEP_ALL),
            "--decisions-out", str(decisions_path),
            "--trace-json", str(trace_path),
            "--no-history",
        ]
    )
    assert code == 0
    decisions = [json.loads(line) for line in decisions_path.read_text().splitlines()]
    records = json.loads(trace_path.read_text())["slow_queries"]["records"]
    assert len(records) == len(decisions) > 200
    serve = admission_query_workload(repeats=1)
    service = AdmissionService(serve.model, serve.background, slow_log=KEEP_ALL)
    batch = service.submit_many(serve.queries)
    fingerprints = (
        [decision["fingerprint"] for decision in decisions]
        + [record["fingerprint"] for record in _by_trace(records)]
        + [decision.fingerprint for decision in batch]
        + [record["fingerprint"] for record in _by_trace(service.flight.slow_queries())]
    )
    digest = hashlib.sha256("\n".join(fingerprints).encode()).hexdigest()
    assert digest == GOLDEN_DIGEST


def test_a_stream_nobody_reads_computes_no_fingerprint(fingerprint_calls):
    workload = _online_workload()
    controller = OnlineAdmissionController(workload.model)
    del fingerprint_calls[:]  # the model's own, taken at construction
    decisions, _wall = run_online_session(controller, workload.events)
    assert fingerprint_calls == []
    routed = [decision for decision in decisions if decision.routed]
    assert routed and all(len(decision.fingerprint) == 16 for decision in routed)
    # One digest per distinct (union, demand vector), through the memo.
    assert 0 < len(fingerprint_calls) <= len(routed)
    assert all(decision.fingerprint == "" for decision in decisions if not decision.routed)
    calls = len(fingerprint_calls)
    controller.flight.slow_queries()
    assert len(fingerprint_calls) == calls  # the records' come from the same memo


def test_flight_records_are_built_when_read(fingerprint_calls):
    serve = admission_query_workload(repeats=1)
    service = AdmissionService(serve.model, serve.background, slow_log=4)
    del fingerprint_calls[:]
    decisions = service.submit_many(serve.queries)
    assert fingerprint_calls == []
    records = service.flight.slow_queries()
    assert len(records) == 4 and service.flight.records_seen == len(decisions)
    # Only the resident records' unions are digested.
    assert 0 < len(fingerprint_calls) <= 4
    by_trace = {decision.trace_id: decision for decision in decisions}
    for record in records:
        assert record["fingerprint"] == by_trace[record["trace_id"]].fingerprint


def test_deferred_fingerprints_compare_pickle_and_print_as_strings():
    workload = _online_workload()
    decisions, _wall = run_online_session(
        OnlineAdmissionController(workload.model), workload.events[:120]
    )
    deferred = [vars(decision)["fingerprint"] for decision in decisions]
    assert all(isinstance(value, (SolveOutcome, ResultHit)) for value in deferred)
    assert any(isinstance(value, ResultHit) for value in deferred)  # result hits
    copies = [pickle.loads(pickle.dumps(decision)) for decision in decisions]
    for copy, decision in zip(copies, decisions):
        assert copy == decision and hash(copy) == hash(decision)
        assert repr(copy) == repr(decision)
        assert online_decision_from_dict(online_decision_to_dict(decision)) == decision
