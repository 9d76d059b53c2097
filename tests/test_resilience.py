"""Fault injection and isolation: the degradation paths, proven.

Each test injects one of the three characteristic failures (solver
hiccup, worker crash, corrupted checkpoint — the last lives in
test_checkpoint.py) at a deterministic point and asserts the resilience
layer's claimed behaviour: fallbacks absorb, sweeps survive, results
stay byte-identical.
"""

import pytest

from repro.core.lp import SOLVER_ATTEMPT_CHAIN, LinearProgram
from repro.errors import ConfigurationError, SolverError
from repro.experiments.failures import (
    ItemFailure,
    collect_failures,
    format_failures,
    record_failure,
    tag_experiment,
)
from repro.experiments.parallel import fault_tolerant_map
from repro.obs import Recorder, use_recorder
from repro.testing.faults import (
    FaultPlan,
    InjectedSolverFault,
    inject_faults,
    plan_from_spec,
)


def _simple_lp():
    """max x + y st x <= 2, y <= 3 — optimum 5 at (2, 3)."""
    lp = LinearProgram()
    x = lp.add_variable("x", objective=1.0)
    y = lp.add_variable("y", objective=1.0)
    lp.add_constraint_le({x: 1.0}, 2.0)
    lp.add_constraint_le({y: 1.0}, 3.0)
    return lp


def _square(x):
    if x == 13:
        raise ValueError("unlucky item")
    return x * x


class TestSolverFallback:
    def test_primary_failure_is_absorbed(self):
        clean = _simple_lp().solve()
        recorder = Recorder()
        plan = FaultPlan(solver_failures=frozenset({1}))
        with use_recorder(recorder), inject_faults(plan) as active:
            faulted = _simple_lp().solve()
        assert active.solver_faults_fired == 1
        assert faulted.objective == pytest.approx(clean.objective)
        assert faulted.values == pytest.approx(clean.values)
        assert recorder.counters["lp.retries"] >= 1
        assert recorder.counters["lp.fallbacks"] == 1

    def test_untargeted_solves_unaffected(self):
        recorder = Recorder()
        plan = FaultPlan(solver_failures=frozenset({2}))
        with use_recorder(recorder), inject_faults(plan):
            _simple_lp().solve()  # solve #1: not targeted
        assert "lp.retries" not in recorder.counters

    def test_exhausted_chain_raises_structured_error(self):
        recorder = Recorder()
        plan = FaultPlan(solver_fatal=frozenset({1}))
        with use_recorder(recorder), inject_faults(plan):
            with pytest.raises(SolverError) as excinfo:
                _simple_lp().solve()
        attempts = excinfo.value.attempts
        assert len(attempts) == len(SOLVER_ATTEMPT_CHAIN)
        assert [a.method for a in attempts] == [
            method for method, _ in SOLVER_ATTEMPT_CHAIN
        ]
        assert all(
            a.message and a.status is None for a in attempts
        )  # hook raised before HiGHS ran
        assert recorder.counters["lp.failures"] == 1

    def test_hooks_removed_on_exit(self):
        plan = FaultPlan(solver_fatal=frozenset({1}))
        with inject_faults(plan):
            pass
        _simple_lp().solve()  # would raise if the hook leaked


class TestPlanFromSpec:
    def test_parses_kinds_and_indices(self):
        plan = plan_from_spec("solver@2,solver-fatal,worker@3,worker@5")
        assert plan.solver_failures == frozenset({2})
        assert plan.solver_fatal == frozenset({1})
        assert plan.worker_crashes == frozenset({3, 5})

    @pytest.mark.parametrize(
        "spec", ["gremlin@1", "solver@zero", "worker@0", "solver@-2"]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            plan_from_spec(spec)


class TestFaultTolerantMap:
    def test_bad_item_leaves_hole_and_record(self):
        with collect_failures() as failures:
            results = fault_tolerant_map(
                _square,
                [2, 13, 4],
                item_keys=["a", "b", "c"],
                item_seeds=[None, 99, None],
            )
        assert results == [4, None, 16]
        assert len(failures) == 1
        failure = failures[0]
        assert failure.item_key == "b"
        assert failure.error_type == "ValueError"
        assert failure.seed == 99
        assert "unlucky item" in failure.message
        assert "ValueError" in failure.traceback

    def test_fail_fast_without_collector(self):
        with pytest.raises(ValueError, match="unlucky item"):
            fault_tolerant_map(_square, [13])

    def test_injected_crash_sequential(self):
        plan = FaultPlan(worker_crashes=frozenset({2}))
        with collect_failures() as failures, inject_faults(plan) as active:
            results = fault_tolerant_map(
                _square, [2, 3, 4], item_keys=["a", "b", "c"]
            )
        assert results == [4, None, 16]
        assert active.worker_crashes_fired == 1
        assert [f.item_key for f in failures] == ["b"]
        assert failures[0].error_type == "InjectedWorkerCrash"

    def test_injected_crash_parallel_pool_survives(self):
        recorder = Recorder()
        plan = FaultPlan(worker_crashes=frozenset({1}))
        with use_recorder(recorder), collect_failures() as failures, \
                inject_faults(plan):
            results = fault_tolerant_map(
                _square,
                [2, 3, 4, 5],
                workers=2,
                item_keys=["a", "b", "c", "d"],
            )
        # The crashed worker loses its own item only; items stranded by
        # the broken pool are re-executed in-process.
        assert results == [None, 9, 16, 25]
        assert [f.item_key for f in failures] == ["a"]
        assert recorder.counters["parallel.broken_pool"] == 1

    def test_key_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="item_keys"):
            fault_tolerant_map(_square, [1, 2], item_keys=["only-one"])


class TestFailureRecords:
    def test_experiment_tag_stamped(self):
        with collect_failures() as failures, tag_experiment("e9"):
            record_failure(
                ItemFailure(item_key="k", error_type="E", message="m")
            )
        assert failures[0].experiment_id == "e9"

    def test_record_without_collector_raises(self):
        failure = ItemFailure(item_key="k", error_type="E", message="m")
        with pytest.raises(RuntimeError, match="no active collector"):
            record_failure(failure)
        with pytest.raises(KeyError):
            record_failure(failure, error=KeyError("original"))

    def test_solver_attempts_in_context(self):
        plan = FaultPlan(solver_fatal=frozenset({1}))
        with inject_faults(plan):
            with pytest.raises(SolverError) as excinfo:
                _simple_lp().solve()
        failure = ItemFailure.from_exception("lp", excinfo.value)
        attempts = failure.context["solver_attempts"]
        assert len(attempts) == len(SOLVER_ATTEMPT_CHAIN)
        assert attempts[0]["method"] == SOLVER_ATTEMPT_CHAIN[0][0]
        assert failure.to_dict()["context"]["solver_attempts"] == attempts

    def test_format_failures_renders(self):
        failure = ItemFailure(
            item_key="hop-count",
            error_type="InjectedSolverFault",
            message="boom\nsecond line",
            experiment_id="e3",
            seed=7,
        )
        text = format_failures([failure])
        assert "FAILURES: 1 item(s)" in text
        assert "hop-count" in text
        assert "e3" in text
        assert "second line" not in text  # first line only in the table
        assert format_failures([]) == "failures: (none)"


class TestInjectedSolverFaultType:
    def test_is_repro_error(self):
        from repro.errors import ReproError

        assert issubclass(InjectedSolverFault, ReproError)
        assert issubclass(InjectedSolverFault, RuntimeError)
