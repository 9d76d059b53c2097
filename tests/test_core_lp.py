"""The LP wrapper and its HiGHS driver."""

import gc
import pickle
import random
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog
from scipy.sparse import csc_array

import repro.core.lp as lp_module
from repro.core.lp import (
    _DENSE_CELL_LIMIT,
    SOLVER_ATTEMPT_CHAIN,
    LinearProgram,
    LpSolution,
    _highs_lp,
    set_solver_fault_hook,
)
from repro.errors import InfeasibleProblemError, SolverError
from repro.obs import Recorder, use_recorder
from repro.testing.faults import FaultPlan, inject_faults


class TestBasics:
    def test_simple_maximisation(self):
        lp = LinearProgram()
        x = lp.add_variable("x", objective=1.0)
        lp.add_constraint_le({x: 1.0}, 5.0)
        solution = lp.solve()
        assert solution.objective == pytest.approx(5.0)
        assert solution["x"] == pytest.approx(5.0)

    def test_upper_bound(self):
        lp = LinearProgram()
        lp.add_variable("x", objective=1.0, upper_bound=3.0)
        assert lp.solve().objective == pytest.approx(3.0)

    def test_ge_constraint(self):
        lp = LinearProgram()
        x = lp.add_variable("x", objective=-1.0)  # minimise x
        lp.add_constraint_ge({x: 1.0}, 2.0)
        solution = lp.solve()
        assert solution["x"] == pytest.approx(2.0)

    def test_two_variable_program(self):
        # max x + 2y  s.t.  x + y <= 4, y <= 3
        lp = LinearProgram()
        x = lp.add_variable("x", objective=1.0)
        y = lp.add_variable("y", objective=2.0)
        lp.add_constraint_le({x: 1.0, y: 1.0}, 4.0)
        lp.add_constraint_le({y: 1.0}, 3.0)
        solution = lp.solve()
        assert solution.objective == pytest.approx(7.0)
        assert solution["x"] == pytest.approx(1.0)
        assert solution["y"] == pytest.approx(3.0)


class TestErrors:
    def test_duplicate_variable(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(SolverError):
            lp.add_variable("x")

    def test_unknown_variable_in_constraint(self):
        lp = LinearProgram()
        with pytest.raises(SolverError):
            lp.add_constraint_le({"ghost": 1.0}, 1.0)

    def test_duplicate_constraint(self):
        """A reused row name is rejected and leaves the program as it was.

        The unnamed second row would be auto-named ``c1``, clashing with
        the first row's explicit name: its dual would overwrite the
        first row's and ``set_rhs("c1", ...)`` would edit the wrong row.
        """
        lp = LinearProgram()
        x = lp.add_variable("x", objective=1.0)
        lp.add_constraint_le({x: 1.0}, 1.0, name="c1")
        with pytest.raises(SolverError, match="duplicate LP constraint"):
            lp.add_constraint_le({x: 1.0}, 2.0)
        with pytest.raises(SolverError, match="duplicate LP constraint"):
            lp.add_constraint_ge({x: 1.0}, 0.0, name="c1")
        assert lp.num_constraints == 1
        solution = lp.solve()
        assert solution.objective == 1.0
        assert solution.duals == {"c1": 1.0}

    def test_rejected_edits_change_nothing(self):
        """An edit naming an unknown variable or row raises before it
        writes anything, however far into its entries the name sits."""
        lp = _master_program(2)
        with pytest.raises(SolverError, match="unknown LP variable"):
            lp.add_constraint_le({"f": 1.0, "ghost": 1.0}, 1.0)
        with pytest.raises(SolverError, match="unknown LP constraint"):
            lp.add_column("lambda_2", {"airtime": 1.0, "ghost": 1.0})
        with pytest.raises(SolverError, match="unknown LP constraint"):
            lp.set_column("f", {"demand[b]": -1.0, "ghost": 1.0})
        assert not lp.has_variable("lambda_2")
        fresh = _master_program(2)
        assert (lp.num_variables, lp.num_constraints) == (
            fresh.num_variables,
            fresh.num_constraints,
        )
        for ours, theirs in zip(lp._column_arrays(), fresh._column_arrays()):
            assert ours.tolist() == theirs.tolist()

    def test_no_variables(self):
        with pytest.raises(SolverError):
            LinearProgram().solve()

    def test_infeasible(self):
        lp = LinearProgram()
        x = lp.add_variable("x", objective=1.0)
        lp.add_constraint_le({x: 1.0}, 1.0)
        lp.add_constraint_ge({x: 1.0}, 2.0)
        with pytest.raises(InfeasibleProblemError):
            lp.solve()

    def test_unbounded(self):
        lp = LinearProgram()
        lp.add_variable("x", objective=1.0)
        with pytest.raises(SolverError, match="unbounded"):
            lp.solve()


class TestDuals:
    def test_binding_constraint_has_positive_dual(self):
        lp = LinearProgram()
        x = lp.add_variable("x", objective=1.0)
        lp.add_constraint_le({x: 1.0}, 5.0, name="cap")
        solution = lp.solve()
        # Raising the cap by 1 raises the max by 1.
        assert solution.duals["cap"] == pytest.approx(1.0)

    def test_slack_constraint_has_zero_dual(self):
        lp = LinearProgram()
        x = lp.add_variable("x", objective=1.0, upper_bound=1.0)
        lp.add_constraint_le({x: 1.0}, 100.0, name="loose")
        solution = lp.solve()
        assert solution.duals["loose"] == pytest.approx(0.0)

    def test_constraint_coefficients_accumulate(self):
        lp = LinearProgram()
        x = lp.add_variable("x", objective=1.0)
        # {x: 2} written as two mentions of x in one dict is impossible,
        # but the builder must accumulate repeated indices safely when
        # coefficients come in via names mapping to the same column.
        name = lp.add_constraint_le({x: 2.0}, 10.0)
        solution = lp.solve()
        assert solution.objective == pytest.approx(5.0)
        assert name in solution.duals


def _master_program(n_columns: int) -> LinearProgram:
    """A small Eq. 6-shaped master: airtime row + two demand rows."""
    lp = LinearProgram()
    lp.add_variable("f", objective=1.0)
    airtime = {}
    for index in range(n_columns):
        var = lp.add_variable(f"lambda_{index}", objective=0.0)
        airtime[var] = 1.0
    lp.add_constraint_le(airtime, 1.0, name="airtime")
    for row, throughputs in (("demand[a]", 10.0), ("demand[b]", 6.0)):
        coefficients = {
            f"lambda_{index}": throughputs * (index + 1)
            for index in range(n_columns)
        }
        coefficients["f"] = -1.0
        lp.add_constraint_ge(coefficients, 0.0, name=row)
    return lp


class TestSolutionCache:
    def test_resolve_returns_cached_object(self):
        lp = _master_program(2)
        recorder = Recorder()
        with use_recorder(recorder):
            first = lp.solve()
            second = lp.solve()
        assert second is first
        assert recorder.counters["lp.cache_hits"] == 1
        assert recorder.counters["lp.solves"] == 1

    def test_mutation_invalidates_cache(self):
        lp = _master_program(2)
        before = lp.solve()
        lp.add_column("lambda_2", {"airtime": 1.0, "demand[a]": 50.0})
        after = lp.solve()
        assert after is not before
        assert after.objective >= before.objective

    def test_set_column_invalidates_cache(self):
        lp = _master_program(2)
        before = lp.solve()
        lp.set_column("f", {"demand[a]": -1.0})
        after = lp.solve()
        assert after is not before


class TestSetColumn:
    def test_retarget_equals_fresh_build(self):
        """A set_column-retargeted program solves exactly like a fresh one.

        This is the serving layer's warm-start contract: rewriting the
        ``f`` column to ride different demand rows must be
        byte-identical to building the program that way from scratch.
        """
        warm = _master_program(3)
        warm.solve()
        warm.set_column("f", {"demand[a]": -1.0})  # drop demand[b]
        warm_solution = warm.solve()

        cold = LinearProgram()
        cold.add_variable("f", objective=1.0)
        for index in range(3):
            cold.add_variable(f"lambda_{index}", objective=0.0)
        cold.add_constraint_le(
            {f"lambda_{index}": 1.0 for index in range(3)},
            1.0,
            name="airtime",
        )
        for row, throughputs, rides in (
            ("demand[a]", 10.0, True),
            ("demand[b]", 6.0, False),
        ):
            coefficients = {
                f"lambda_{index}": throughputs * (index + 1)
                for index in range(3)
            }
            if rides:
                coefficients["f"] = -1.0
            cold.add_constraint_ge(coefficients, 0.0, name=row)
        cold_solution = cold.solve()

        assert warm_solution.objective == cold_solution.objective
        assert warm_solution.values == cold_solution.values

    def test_absent_rows_become_zero(self):
        lp = _master_program(2)
        lp.set_column("lambda_1", {"airtime": 1.0})  # no throughput left
        # With lambda_1 contributing nothing, only lambda_0's column can
        # carry f: max f = min(10, 6) at full airtime on lambda_0.
        solution = lp.solve()
        assert solution.objective == pytest.approx(6.0)
        assert solution["lambda_1"] == pytest.approx(0.0)

    def test_objective_replacement(self):
        lp = LinearProgram()
        x = lp.add_variable("x", objective=1.0, upper_bound=2.0)
        assert lp.solve().objective == pytest.approx(2.0)
        lp.set_column(x, {}, objective=3.0)
        assert lp.solve().objective == pytest.approx(6.0)

    def test_unknown_variable(self):
        lp = _master_program(1)
        with pytest.raises(SolverError, match="unknown LP variable"):
            lp.set_column("ghost", {})

    def test_unknown_constraint(self):
        lp = _master_program(1)
        with pytest.raises(SolverError, match="unknown LP constraint"):
            lp.set_column("f", {"ghost": 1.0})


class TestIncrementalAssembly:
    def test_warm_resolves_match_cold_rebuilds_exactly(self):
        """Property: any append sequence solves bit-identically cold.

        Grows a program by seeded random ``add_column`` calls, re-solving
        incrementally after each round, and rebuilds the same program
        from scratch every time — objective and every variable value
        must be *exactly* equal (``==``, not approx): both assembly
        paths canonicalize to the same CSR.
        """
        rng = random.Random(20260808)
        rows = ("airtime", "demand[a]", "demand[b]")
        history = []
        warm = _master_program(2)
        for round_index in range(6):
            name = f"lambda_{2 + round_index}"
            entries = {"airtime": 1.0}
            for row in rows[1:]:
                if rng.random() < 0.7:
                    entries[row] = rng.choice([2.0, 5.0, 12.5, 30.0])
            history.append((name, entries))
            warm.add_column(name, entries)
            warm_solution = warm.solve()

            cold = _master_program(2)
            for cold_name, cold_entries in history:
                cold.add_column(cold_name, cold_entries)
            cold_solution = cold.solve()

            assert warm_solution.objective == cold_solution.objective
            assert warm_solution.values == cold_solution.values
            assert warm_solution.duals == cold_solution.duals

    def test_set_column_then_appends_match_cold(self):
        """Mixing set_column with later appends keeps the equivalence."""
        warm = _master_program(2)
        warm.solve()
        warm.set_column("f", {"demand[b]": -1.0})
        warm.solve()
        warm.add_column("lambda_2", {"airtime": 1.0, "demand[b]": 24.0})
        warm_solution = warm.solve()

        cold = LinearProgram()
        cold.add_variable("f", objective=1.0)
        for index in range(2):
            cold.add_variable(f"lambda_{index}", objective=0.0)
        cold.add_constraint_le(
            {f"lambda_{index}": 1.0 for index in range(2)},
            1.0,
            name="airtime",
        )
        for row, throughputs, rides in (
            ("demand[a]", 10.0, False),
            ("demand[b]", 6.0, True),
        ):
            coefficients = {
                f"lambda_{index}": throughputs * (index + 1)
                for index in range(2)
            }
            if rides:
                coefficients["f"] = -1.0
            cold.add_constraint_ge(coefficients, 0.0, name=row)
        cold.add_column("lambda_2", {"airtime": 1.0, "demand[b]": 24.0})
        cold_solution = cold.solve()

        assert warm_solution.objective == cold_solution.objective
        assert warm_solution.values == cold_solution.values


class TestSetRhs:
    def test_ge_row_orientation(self):
        """set_rhs takes the caller-facing RHS: raising a GE demand row
        tightens the program exactly as rebuilding with that demand."""
        warm = _master_program(2)
        warm.solve()
        warm.set_rhs("demand[a]", 4.0)

        cold = LinearProgram()
        cold.add_variable("f", objective=1.0)
        airtime = {}
        for index in range(2):
            airtime[cold.add_variable(f"lambda_{index}")] = 1.0
        cold.add_constraint_le(airtime, 1.0, name="airtime")
        for row, throughputs, rhs in (
            ("demand[a]", 10.0, 4.0),
            ("demand[b]", 6.0, 0.0),
        ):
            coefficients = {
                f"lambda_{index}": throughputs * (index + 1)
                for index in range(2)
            }
            coefficients["f"] = -1.0
            cold.add_constraint_ge(coefficients, rhs, name=row)

        warm_solution, cold_solution = warm.solve(), cold.solve()
        assert warm_solution.objective == cold_solution.objective
        assert warm_solution.values == cold_solution.values

    def test_restoring_rhs_restores_the_solution(self):
        lp = _master_program(2)
        original = lp.solve()
        lp.set_rhs("demand[b]", 3.0)
        assert lp.solve().objective != original.objective
        lp.set_rhs("demand[b]", 0.0)
        restored = lp.solve()
        assert restored.objective == original.objective
        assert restored.values == original.values

    def test_unknown_row_rejected(self):
        lp = _master_program(1)
        with pytest.raises(SolverError, match="unknown LP constraint"):
            lp.set_rhs("demand[zz]", 1.0)


class TestRetireColumn:
    def test_retired_column_equals_program_without_it(self):
        masked = _master_program(3)
        masked.solve()
        masked.retire_column("lambda_1")

        shrunk = LinearProgram()
        shrunk.add_variable("f", objective=1.0)
        airtime = {}
        for index in (0, 2):
            airtime[shrunk.add_variable(f"lambda_{index}")] = 1.0
        shrunk.add_constraint_le(airtime, 1.0, name="airtime")
        for row, throughputs in (("demand[a]", 10.0), ("demand[b]", 6.0)):
            coefficients = {
                f"lambda_{index}": throughputs * (index + 1)
                for index in (0, 2)
            }
            coefficients["f"] = -1.0
            shrunk.add_constraint_ge(coefficients, 0.0, name=row)

        assert masked.solve().objective == shrunk.solve().objective

    def test_snapshot_readmits_exactly(self):
        lp = _master_program(3)
        fresh = lp.solve()
        snapshot = lp.retire_column("lambda_2")
        assert lp.solve().objective != fresh.objective
        lp.set_column("lambda_2", **snapshot)
        restored = lp.solve()
        assert restored.objective == fresh.objective
        assert restored.values == fresh.values

    def test_retirements_counted(self):
        recorder = Recorder()
        lp = _master_program(2)
        with use_recorder(recorder):
            lp.retire_column("lambda_0")
        assert recorder.counters.get("lp.column_retirements") == 1

    def test_unknown_column_rejected(self):
        lp = _master_program(1)
        with pytest.raises(SolverError, match="unknown LP variable"):
            lp.retire_column("lambda_9")


class TestSlacksAndCertificate:
    def _program(self):
        # max 2x + 3y  s.t.  x + y <= 4 (binding), y <= 3 (binding),
        # x + 2y <= 20 (slack by 13)
        lp = LinearProgram()
        x = lp.add_variable("x", objective=2.0)
        y = lp.add_variable("y", objective=3.0)
        lp.add_constraint_le({x: 1.0, y: 1.0}, 4.0, name="sum")
        lp.add_constraint_le({y: 1.0}, 3.0, name="cap")
        lp.add_constraint_le({x: 1.0, y: 2.0}, 20.0, name="loose")
        return lp

    def test_slacks_identify_binding_constraints(self):
        solution = self._program().solve()
        assert solution.slacks["sum"] == pytest.approx(0.0, abs=1e-9)
        assert solution.slacks["cap"] == pytest.approx(0.0, abs=1e-9)
        assert solution.slacks["loose"] == pytest.approx(13.0)
        assert sorted(solution.binding_constraints()) == ["cap", "sum"]

    def test_ge_row_slack_is_caller_orientation_surplus(self):
        lp = LinearProgram()
        x = lp.add_variable("x", objective=-1.0)  # minimise x
        lp.add_constraint_ge({x: 1.0}, 2.0, name="floor")
        solution = lp.solve()
        assert solution.slacks["floor"] == pytest.approx(0.0, abs=1e-9)
        assert solution.binding_constraints() == ["floor"]

    def test_certificate_validates(self):
        lp = self._program()
        certificate = lp.certificate()
        assert certificate.valid()
        assert certificate.gap == pytest.approx(0.0, abs=1e-8)
        assert certificate.primal_objective == pytest.approx(
            lp.solve().objective
        )
        assert certificate.dual_objective == pytest.approx(
            certificate.primal_objective
        )

    def test_certificate_round_trips(self):
        from repro.core.lp import DualCertificate

        certificate = self._program().certificate()
        assert DualCertificate.from_dict(
            certificate.to_dict()
        ) == certificate

    def test_solver_paths_agree_on_binding_constraints(self):
        """The S1 pin: the dual-simplex and forced highs-ipm fallback
        paths identify the same binding set (slacks come from the
        program's own matrix, not solver internals)."""
        from repro.core.lp import set_solver_fault_hook

        primary = self._program().solve()

        def fail_primary(attempt_index: int, method: str) -> None:
            if attempt_index == 0:
                raise RuntimeError("injected: skip dual simplex")

        set_solver_fault_hook(fail_primary)
        try:
            fallback = self._program().solve()
        finally:
            set_solver_fault_hook(None)

        assert primary.binding_constraints(
            tolerance=1e-7
        ) == fallback.binding_constraints(tolerance=1e-7)
        for name, slack in primary.slacks.items():
            assert fallback.slacks[name] == pytest.approx(slack, abs=1e-7)


# -- the HiGHS driver against linprog ------------------------------------------------


def _bits(values):
    """Float values as their IEEE-754 bit patterns (so -0.0 != 0.0)."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _linprog_result(lp, rung):
    """``scipy.optimize.linprog`` on ``lp``'s stored standard form, with
    the method and options of chain rung ``rung`` and the dense/sparse
    matrix hand-off :meth:`LinearProgram.solve` used to make."""
    method, options = SOLVER_ATTEMPT_CHAIN[rung]
    n, m = lp.num_variables, lp.num_constraints
    a_ub = b_ub = None
    if m:
        start, index, value = lp._column_arrays()
        a_ub = csc_array((value, index, start), shape=(m, n))
        if m * n <= _DENSE_CELL_LIMIT:
            a_ub = a_ub.toarray()
        b_ub = np.asarray(lp._rhs, dtype=float)
    return linprog(
        -np.asarray(lp._objective, dtype=float),
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(0.0, upper) for upper in lp._upper],
        method=method,
        options=options or {},
    )


def _solve_from_rung(lp, rung):
    """Solve ``lp`` with every rung before ``rung`` failed by the fault
    hook; returns ``(solution or raised error, attempted rungs)``."""
    attempted = []

    def skip_earlier(attempt_index, method):
        attempted.append(attempt_index)
        if attempt_index < rung:
            raise RuntimeError("injected: start the chain at a later rung")

    set_solver_fault_hook(skip_earlier)
    try:
        try:
            return lp.solve(), attempted
        except (InfeasibleProblemError, SolverError) as error:
            return error, attempted
    finally:
        set_solver_fault_hook(None)


def _assert_matches_linprog(lp, rung):
    """``lp`` solved from ``rung`` agrees with linprog on that rung: the
    same solution bit for bit, or the same kind of failure."""
    outcome, attempted = _solve_from_rung(lp, rung)
    reference = _linprog_result(lp, rung)
    if reference.status == 0:
        assert isinstance(outcome, LpSolution), outcome
        assert attempted[-1] == rung
        assert _bits([outcome.objective]) == _bits([-reference.fun])
        assert _bits(list(outcome.values.values())) == _bits(reference.x)
        assert _bits(list(outcome.duals.values())) == _bits(
            -reference.ineqlin.marginals
        )
        assert outcome.iterations == reference.nit
    elif reference.status == 2:
        assert isinstance(outcome, InfeasibleProblemError)
        assert attempted[-1] == rung
    elif reference.status == 3:
        assert type(outcome) is SolverError
        assert "unbounded" in str(outcome)
        assert attempted[-1] == rung
    else:
        # A failed attempt: the chain moves on (or gives up after the
        # last rung with the structured error).
        assert rung + 1 in attempted or (
            isinstance(outcome, SolverError) and outcome.attempts
        )


_COEFFICIENTS = st.one_of(
    st.just(0.0),
    st.integers(-4, 4).map(float),
    st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def _small_programs(draw):
    """Small LPs: up to 5 variables with finite or ``None`` upper
    bounds, 0-4 mixed ``<=``/``>=`` rows (zero rows allowed)."""
    n = draw(st.integers(1, 5))
    lp = LinearProgram()
    names = [
        lp.add_variable(
            f"x{index}",
            objective=draw(_COEFFICIENTS),
            upper_bound=draw(
                st.one_of(st.none(), st.floats(0.0, 10.0, allow_nan=False))
            ),
        )
        for index in range(n)
    ]
    for row in range(draw(st.integers(0, 4))):
        coefficients = {name: draw(_COEFFICIENTS) for name in names}
        rhs = draw(st.floats(-5.0, 10.0, allow_nan=False))
        if draw(st.booleans()):
            lp.add_constraint_le(coefficients, rhs, name=f"r{row}")
        else:
            lp.add_constraint_ge(coefficients, rhs, name=f"r{row}")
    return lp


def _eq6_masters():
    """Eq. 6 master LPs over ``paper_random_topology(seed=8)``: for the
    serving workload's 8- and 10-flow backgrounds, one master per query
    path (every subpath of the live routes) at three background loads,
    the heaviest mostly infeasible."""
    from repro.core.bandwidth import (
        _collect_links,
        build_path_bandwidth_lp,
        link_demands_from_paths,
    )
    from repro.core.independent_sets import (
        enumerate_maximal_independent_sets,
    )
    from repro.workloads.scenarios import admission_query_workload

    masters = []
    for n_flows in (8, 10):
        workload = admission_query_workload(n_flows=n_flows, repeats=1)
        paths = {query.path.nodes: query.path for query in workload.queries}
        links = _collect_links(workload.background, next(iter(paths.values())))
        columns = enumerate_maximal_independent_sets(workload.model, links)
        for load in (0.2, 0.4, 0.8):
            background = [(path, load) for path, _ in workload.background]
            demands = link_demands_from_paths(background)
            for path in paths.values():
                program = build_path_bandwidth_lp(
                    columns, links, demands, set(path.links)
                )
                masters.append(program.lp)
    return masters


def _sparse_program():
    """A random 150 x 240 program: above the dense-slack threshold."""
    rng = np.random.default_rng(5)
    lp = LinearProgram()
    names = [
        lp.add_variable(f"x{j}", objective=float(rng.uniform(0.0, 2.0)))
        for j in range(240)
    ]
    for row in range(150):
        picked = rng.choice(240, size=6, replace=False)
        lp.add_constraint_le(
            {names[j]: float(rng.uniform(0.5, 3.0)) for j in picked},
            float(rng.uniform(1.0, 4.0)),
        )
    assert lp.num_constraints * lp.num_variables > _DENSE_CELL_LIMIT
    return lp


def _infeasible_program():
    lp = LinearProgram()
    x = lp.add_variable("x", objective=1.0)
    lp.add_constraint_le({x: 1.0}, 1.0)
    lp.add_constraint_ge({x: 1.0}, 2.0)
    return lp


def _unbounded_program():
    lp = LinearProgram()
    x = lp.add_variable("x", objective=1.0)
    lp.add_variable("y", objective=1.0, upper_bound=2.0)
    lp.add_constraint_ge({x: 1.0}, 1.0)
    return lp


@pytest.mark.parametrize("rung", range(len(SOLVER_ATTEMPT_CHAIN)))
class TestLinprogEquivalence:
    """Every rung of the chain answers exactly what linprog answers with
    the same method and options: values, duals, objective and iteration
    count bit for bit, and the same exception for infeasible and
    unbounded programs."""

    @given(lp=_small_programs())
    @settings(max_examples=150, deadline=None)
    def test_small_programs(self, rung, lp):
        _assert_matches_linprog(lp, rung)

    def test_eq6_masters(self, rung):
        masters = _eq6_masters()
        assert len(masters) == 3 * (29 + 40)
        for lp in masters:
            _assert_matches_linprog(lp, rung)

    def test_sparse_program(self, rung):
        _assert_matches_linprog(_sparse_program(), rung)

    def test_infeasible_program(self, rung):
        lp = _infeasible_program()
        outcome, _ = _solve_from_rung(lp, rung)
        assert isinstance(outcome, InfeasibleProblemError)
        _assert_matches_linprog(lp, rung)

    def test_unbounded_program(self, rung):
        lp = _unbounded_program()
        outcome, _ = _solve_from_rung(lp, rung)
        assert type(outcome) is SolverError
        assert "unbounded" in str(outcome)
        _assert_matches_linprog(lp, rung)


def _solution_bits(solution):
    return (
        _bits([solution.objective]),
        _bits(list(solution.values.values())),
        _bits(list(solution.duals.values())),
        _bits(list(solution.slacks.values())),
        solution.iterations,
    )


class TestReusedHandles:
    """The per-thread HiGHS handles carry nothing from one solve to the
    next: each solve starts from the canonical state."""

    def test_failures_leave_no_state_behind(self):
        first = _solution_bits(_master_program(5).solve())
        with pytest.raises(InfeasibleProblemError):
            _infeasible_program().solve()
        with pytest.raises(SolverError, match="unbounded"):
            _unbounded_program().solve()
        plan = FaultPlan(solver_failures=frozenset({1}))
        with inject_faults(plan) as active:
            # Solve #1's dual simplex attempt fails; highs-ipm answers.
            _master_program(3).solve()
        assert active.solver_faults_fired == 1
        assert _solution_bits(_master_program(5).solve()) == first

    def test_every_rung_handle_is_reusable(self):
        """A handle that just solved a different program answers the
        next one as a fresh handle would (same bits as linprog)."""
        for rung in range(len(SOLVER_ATTEMPT_CHAIN)):
            for lp in (_master_program(3), _master_program(7)):
                _assert_matches_linprog(lp, rung)

    def test_threads_get_their_serial_answers(self):
        builders = [lambda k=k: _master_program(k) for k in range(2, 10)]
        serial = [_solution_bits(build().solve()) for build in builders]
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(3):
                parallel = list(
                    pool.map(
                        lambda build: _solution_bits(build().solve()), builders
                    )
                )
                assert parallel == serial

    def test_repeated_solves_do_not_grow_memory(self):
        lp = _master_program(6)

        def churn(count):
            for index in range(count):
                lp.set_rhs("airtime", 1.0 + (index % 7) * 0.125)
                lp.solve()

        churn(200)  # warm every lazily built structure first
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            churn(5000)
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        growth = sum(
            stat.size_diff for stat in after.compare_to(before, "filename")
        )
        assert growth < 256 * 1024


class _PerturbedHandle:
    """A real HiGHS handle whose reported solution is passed through
    ``perturb(x, row_value, objective)`` before the driver checks it."""

    def __init__(self, handle, perturb):
        self._handle, self._perturb = handle, perturb

    def getSolution(self):
        solution = self._handle.getSolution()
        x, rows, objective = self._perturb(
            list(solution.col_value),
            list(solution.row_value),
            self._handle.getObjectiveValue(),
        )
        self._objective = objective
        return SimpleNamespace(col_value=x, row_value=rows, row_dual=list(solution.row_dual))

    def getObjectiveValue(self):
        return self._objective

    def __getattr__(self, name):
        return getattr(self._handle, name)


def _checked_program():
    """max x + y, x <= 4, y <= 2, x + y <= 3 (``cap``, row 0) and
    x >= 0.5 (``floor``, row 1, stored negated): optimum 3."""
    lp = LinearProgram()
    lp.add_variable("x", objective=1.0, upper_bound=4.0)
    lp.add_variable("y", objective=1.0, upper_bound=2.0)
    lp.add_constraint_le({"x": 1.0, "y": 1.0}, 3.0, name="cap")
    lp.add_constraint_ge({"x": 1.0}, 0.5, name="floor")
    return lp


_OUT = 3 * lp_module._RESULT_TOLERANCE  # beyond the tolerance
_IN = lp_module._RESULT_TOLERANCE / 3  # within it


def _set(values, at, value):
    values = list(values)
    values[at] = value
    return values


#: ``perturb`` functions the post-solve check must reject, by case.
_VIOLATIONS = {
    "x below zero": lambda x, rows, obj: (_set(x, 0, -_OUT), rows, obj),
    "x above its upper bound": lambda x, rows, obj: (_set(x, 1, 2.0 + _OUT), rows, obj),
    "le row slack below zero": lambda x, rows, obj: (x, _set(rows, 0, 3.0 + _OUT), obj),
    "ge row slack below zero": lambda x, rows, obj: (x, _set(rows, 1, -0.5 + _OUT), obj),
    "nan in x": lambda x, rows, obj: (_set(x, 1, float("nan")), rows, obj),
    "nan row value": lambda x, rows, obj: (x, _set(rows, 0, float("nan")), obj),
    "nan objective": lambda x, rows, obj: (x, rows, float("nan")),
}

#: Perturbations inside the tolerance, which the check must accept.
_WITHIN = {
    "x just below zero": lambda x, rows, obj: (_set(x, 0, -_IN), rows, obj),
    "x just above its upper bound": lambda x, rows, obj: (_set(x, 1, 2.0 + _IN), rows, obj),
    "row just over its bound": lambda x, rows, obj: (x, _set(rows, 0, 3.0 + _IN), obj),
}


class TestPostSolveCheck:
    """An "optimal" point outside the bounds or rows by more than
    ``linprog``'s tolerance, or with a NaN anywhere, is a failed attempt:
    the chain walks on and gives up with a ``SolverError`` naming every
    rung.  A point within the tolerance is an answer."""

    def _perturbed(self, monkeypatch, perturb):
        real = lp_module._handle
        monkeypatch.setattr(
            lp_module, "_handle", lambda rung: _PerturbedHandle(real(rung), perturb)
        )

    @pytest.mark.parametrize("case", sorted(_VIOLATIONS))
    def test_violations_fail_every_rung(self, monkeypatch, case):
        self._perturbed(monkeypatch, _VIOLATIONS[case])
        recorder = Recorder()
        with use_recorder(recorder), pytest.raises(SolverError) as raised:
            _checked_program().solve()
        attempts = raised.value.attempts
        assert [attempt.method for attempt in attempts] == [
            method for method, _options in SOLVER_ATTEMPT_CHAIN
        ]
        for attempt in attempts:
            assert attempt.status == 4
            assert "does not satisfy the constraints" in attempt.message
        assert recorder.counters["lp.retries"] == len(SOLVER_ATTEMPT_CHAIN) - 1
        assert recorder.counters["lp.failures"] == 1
        assert "lp.fallbacks" not in recorder.counters

    @pytest.mark.parametrize("case", sorted(_VIOLATIONS))
    def test_a_violation_on_one_rung_falls_back(self, monkeypatch, case):
        """Only the first rung's point is bad: the second rung answers."""
        violation, calls = _VIOLATIONS[case], []

        def first_rung_only(x, rows, obj):
            calls.append(None)
            return violation(x, rows, obj) if len(calls) == 1 else (x, rows, obj)

        self._perturbed(monkeypatch, first_rung_only)
        recorder = Recorder()
        with use_recorder(recorder):
            solution = _checked_program().solve()
        assert solution.objective == pytest.approx(3.0)
        assert recorder.counters["lp.retries"] == 1
        assert recorder.counters["lp.fallbacks"] == 1

    @pytest.mark.parametrize("case", sorted(_WITHIN))
    def test_points_within_the_tolerance_are_answers(self, monkeypatch, case):
        self._perturbed(monkeypatch, _WITHIN[case])
        recorder = Recorder()
        with use_recorder(recorder):
            solution = _checked_program().solve()
        assert solution.objective == pytest.approx(3.0)
        assert "lp.retries" not in recorder.counters


class _Shadow:
    """A dense NumPy mirror of a program's state, in each row's original
    orientation, updated by the same edits as the program itself."""

    def __init__(self):
        self.names, self.objective, self.upper = [], [], []
        self.row_names, self.signs, self.rhs = [], [], []
        self.matrix = np.zeros((0, 0))

    def add_variable(self, name, objective, upper):
        self.names.append(name)
        self.objective.append(objective)
        self.upper.append(upper)
        self.matrix = np.hstack([self.matrix, np.zeros((len(self.rhs), 1))])

    def add_row(self, name, coefficients, rhs, sign):
        row = [coefficients.get(var, 0.0) for var in self.names]
        self.matrix = np.vstack([self.matrix, [row]])
        self.row_names.append(name)
        self.signs.append(sign)
        self.rhs.append(rhs)

    def set_column(self, name, entries):
        column = self.names.index(name)
        self.matrix[:, column] = 0.0
        for row_name, coeff in entries.items():
            self.matrix[self.row_names.index(row_name), column] = coeff

    def stored(self):
        """The matrix as the program stores it: ``>=`` rows negated."""
        return np.asarray(self.signs).reshape(-1, 1) * self.matrix

    def build(self):
        """A program in this state, built fresh through the public API."""
        lp = LinearProgram()
        for name, objective, upper in zip(
            self.names, self.objective, self.upper
        ):
            lp.add_variable(name, objective=objective, upper_bound=upper)
        for name, sign, rhs, row in zip(
            self.row_names, self.signs, self.rhs, self.matrix
        ):
            add = lp.add_constraint_le if sign > 0 else lp.add_constraint_ge
            add(dict(zip(self.names, row.tolist())), rhs, name=name)
        return lp


def _outcome_bits(lp):
    try:
        return _solution_bits(lp.solve())
    except (InfeasibleProblemError, SolverError) as error:
        return type(error).__name__


_UPPER_BOUNDS = st.one_of(
    st.none(), st.floats(0.0, 10.0, allow_nan=False)
)
_RIGHT_HAND_SIDES = st.floats(-5.0, 10.0, allow_nan=False)


class TestMutationSequences:
    """Any interleaving of edits leaves the program equal to one built
    fresh from the same state: the same column arrays and the same
    solution, bit for bit."""

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_edited_program_equals_fresh_build(self, data):
        lp, shadow, retired = LinearProgram(), _Shadow(), {}
        for _ in range(data.draw(st.integers(1, 24), label="steps")):
            ops = ["add_variable", "add_row", "solve"]
            if shadow.rhs:
                ops += ["add_column", "set_rhs"]
            if shadow.names:
                ops += ["set_column", "retire_column"]
            if retired:
                ops.append("readmit")
            op = data.draw(st.sampled_from(ops), label="op")
            if op in ("add_variable", "add_column"):
                name = f"x{len(shadow.names)}"
                objective = data.draw(_COEFFICIENTS)
                upper = data.draw(_UPPER_BOUNDS)
                if op == "add_variable":
                    lp.add_variable(name, objective, upper)
                    shadow.add_variable(name, objective, upper)
                else:
                    entries = data.draw(
                        st.dictionaries(
                            st.sampled_from(shadow.row_names), _COEFFICIENTS
                        )
                    )
                    lp.add_column(name, entries, objective, upper)
                    shadow.add_variable(name, objective, upper)
                    shadow.set_column(name, entries)
            elif op == "add_row":
                coefficients = data.draw(
                    st.dictionaries(
                        st.sampled_from(shadow.names or ["-"]),
                        _COEFFICIENTS,
                        max_size=len(shadow.names),
                    )
                )
                rhs = data.draw(_RIGHT_HAND_SIDES)
                sign = data.draw(st.sampled_from([1.0, -1.0]))
                add = lp.add_constraint_le if sign > 0 else lp.add_constraint_ge
                # Unnamed rows are auto-named; the shadow takes that name.
                named = data.draw(st.booleans())
                name = f"r{len(shadow.rhs)}" if named else None
                name = add(coefficients, rhs, name=name)
                shadow.add_row(name, coefficients, rhs, sign)
            elif op == "set_rhs":
                name = data.draw(st.sampled_from(shadow.row_names))
                rhs = data.draw(_RIGHT_HAND_SIDES)
                lp.set_rhs(name, rhs)
                shadow.rhs[shadow.row_names.index(name)] = rhs
            elif op == "set_column":
                name = data.draw(st.sampled_from(shadow.names))
                entries = data.draw(
                    st.dictionaries(
                        st.sampled_from(shadow.row_names or ["-"]),
                        _COEFFICIENTS,
                        max_size=len(shadow.row_names),
                    )
                )
                column = shadow.names.index(name)
                objective = data.draw(st.one_of(st.none(), _COEFFICIENTS))
                if data.draw(st.booleans(), label="new upper bound"):
                    upper = data.draw(_UPPER_BOUNDS)
                    lp.set_column(name, entries, objective, upper)
                    shadow.upper[column] = upper
                else:
                    lp.set_column(name, entries, objective)
                if objective is not None:
                    shadow.objective[column] = objective
                shadow.set_column(name, entries)
            elif op == "retire_column":
                name = data.draw(st.sampled_from(shadow.names))
                column = shadow.names.index(name)
                snapshot = lp.retire_column(name)
                assert snapshot == {
                    "entries": {
                        row_name: coeff
                        for row_name, coeff in zip(
                            shadow.row_names, shadow.matrix[:, column]
                        )
                        if coeff != 0.0
                    },
                    "objective": shadow.objective[column],
                    "upper_bound": shadow.upper[column],
                }
                retired[name] = snapshot
                shadow.set_column(name, {})
                shadow.objective[column] = 0.0
                shadow.upper[column] = 0.0
            elif op == "readmit":
                name = data.draw(st.sampled_from(sorted(retired)))
                snapshot = retired.pop(name)
                lp.set_column(name, **snapshot)
                column = shadow.names.index(name)
                shadow.set_column(name, snapshot["entries"])
                shadow.objective[column] = snapshot["objective"]
                shadow.upper[column] = snapshot["upper_bound"]
            if op == "solve" and shadow.names:
                assert _outcome_bits(lp) == _outcome_bits(shadow.build())
            expected = csc_array(shadow.stored())
            start, index, value = lp._column_arrays()
            assert start.tolist() == expected.indptr.tolist()
            assert index.tolist() == expected.indices.tolist()
            assert _bits(value) == _bits(expected.data)
        if shadow.names:
            assert _outcome_bits(lp) == _outcome_bits(shadow.build())


class TestHighsBinding:
    """The driver calls SciPy's bundled HiGHS binding directly; there is
    no fallback path, so a SciPy without these members must fail here,
    by name, rather than deep inside a solve."""

    def test_binding_has_every_member_the_driver_uses(self):
        from scipy.optimize._highspy import _core

        missing = [
            name
            for name in ("_Highs", "HighsLp", "HighsStatus",
                         "HighsModelStatus", "MatrixFormat")
            if not hasattr(_core, name)
        ]
        missing += [
            f"_Highs.{name}"
            for name in ("setOptionValue", "passModel", "run",
                         "getModelStatus", "modelStatusToString",
                         "getInfo", "getSolution", "version")
            if not hasattr(_core._Highs, name)
        ]
        model = _core.HighsLp()
        missing += [
            f"HighsLp.{name}"
            for name in ("num_col_", "num_row_", "col_cost_", "col_lower_",
                         "col_upper_", "row_lower_", "row_upper_")
            if not hasattr(model, name)
        ]
        missing += [
            f"HighsLp.a_matrix_.{name}"
            for name in ("format_", "num_col_", "num_row_", "start_",
                         "index_", "value_")
            if not hasattr(model.a_matrix_, name)
        ]
        assert not missing, f"SciPy's HiGHS binding lacks {missing}"
        info = _core._Highs().getInfo()
        for name in ("objective_function_value", "simplex_iteration_count",
                     "ipm_iteration_count"):
            assert hasattr(info, name), f"HighsInfo lacks {name}"
        solution = _core._Highs().getSolution()
        for name in ("col_value", "row_value", "row_dual"):
            assert hasattr(solution, name), f"HighsSolution lacks {name}"


# -- non-finite input ------------------------------------------------------------


def _with_bad_input(kind, bad):
    """A two-variable program whose ``kind`` input is ``bad`` (every
    input finite for ``kind=None``)."""
    lp = LinearProgram()
    lp.add_variable(
        "x",
        objective=bad if kind == "objective" else 1.0,
        upper_bound=bad if kind == "upper" else 4.0,
    )
    lp.add_variable("y", objective=1.0, upper_bound=2.0)
    coefficient = bad if kind == "coefficient" else 1.0
    lp.add_constraint_le({"x": 1.0, "y": coefficient}, 3.0, name="cap")
    lp.add_constraint_le(
        {"x": 1.0}, bad if kind == "rhs" else 5.0, name="limit"
    )
    return lp


_BAD_INPUTS = [
    ("objective", float("nan"), "objective coefficient of 'x'"),
    ("objective", float("inf"), "objective coefficient of 'x'"),
    ("coefficient", float("nan"), "constraint coefficient of 'y'"),
    ("coefficient", -float("inf"), "constraint coefficient of 'y'"),
    ("rhs", float("nan"), "right-hand side of 'limit'"),
    ("rhs", float("inf"), "right-hand side of 'limit'"),
    ("upper", float("nan"), "upper bound of 'x'"),
    ("upper", -float("inf"), "upper bound of 'x'"),
]


class TestNonFiniteInput:
    """NaN or infinite input is rejected once, before the solver chain:
    one ``SolverError`` naming what is wrong, one ``lp.failures``, no
    retries and no solver attempt."""

    @pytest.mark.parametrize("kind, bad, named", _BAD_INPUTS)
    def test_rejected_before_the_chain(self, kind, bad, named):
        lp = _with_bad_input(kind, bad)
        recorder, attempts = Recorder(), []
        set_solver_fault_hook(lambda index, method: attempts.append(index))
        try:
            with use_recorder(recorder), pytest.raises(SolverError) as raised:
                lp.solve()
        finally:
            set_solver_fault_hook(None)
        assert type(raised.value) is SolverError
        assert named in str(raised.value)
        assert raised.value.attempts == []
        assert attempts == []
        assert recorder.counters["lp.failures"] == 1
        assert "lp.retries" not in recorder.counters
        assert "lp.fallbacks" not in recorder.counters

    @pytest.mark.parametrize("upper", [None, float("inf")])
    def test_unbounded_upper_bound_is_accepted(self, upper):
        lp = _with_bad_input("upper", upper)
        assert lp.solve()["x"] == pytest.approx(3.0)

    def test_edits_that_restore_finite_input_solve_again(self):
        """A non-finite value written by an edit fails the solve; the
        edit that restores it gives the fresh program's answer."""
        lp = _with_bad_input(None, None)
        first = _solution_bits(lp.solve())
        for edit, restore in (
            (
                lambda: lp.set_rhs("limit", float("nan")),
                lambda: lp.set_rhs("limit", 5.0),
            ),
            (
                lambda: lp.set_column("y", {"cap": float("inf")}),
                lambda: lp.set_column("y", {"cap": 1.0}),
            ),
            (
                lambda: lp.set_column("x", {"cap": 1.0, "limit": 1.0},
                                      objective=float("nan")),
                lambda: lp.set_column("x", {"cap": 1.0, "limit": 1.0},
                                      objective=1.0),
            ),
            (
                lambda: lp.set_column("x", {"cap": 1.0, "limit": 1.0},
                                      upper_bound=float("nan")),
                lambda: lp.set_column("x", {"cap": 1.0, "limit": 1.0},
                                      upper_bound=4.0),
            ),
        ):
            edit()
            with pytest.raises(SolverError, match="LP input is not usable"):
                lp.solve()
            restore()
            assert _solution_bits(lp.solve()) == first

    def test_a_later_row_does_not_hide_a_bad_one(self):
        lp = _with_bad_input("rhs", float("nan"))
        lp.add_constraint_le({"y": 1.0}, 9.0, name="late")
        with pytest.raises(SolverError, match="right-hand side of 'limit'"):
            lp.solve()


# -- the persistent input model --------------------------------------------------


def _model_fields(model):
    """What a program hands HiGHS: every ``HighsLp`` field it sets, floats
    as bit patterns."""
    matrix = model.a_matrix_
    return (
        model.num_col_,
        model.num_row_,
        _bits(model.col_cost_),
        _bits(model.col_lower_),
        _bits(model.col_upper_),
        _bits(model.row_lower_),
        _bits(model.row_upper_),
        matrix.num_col_,
        matrix.num_row_,
        list(matrix.start_),
        list(matrix.index_),
        _bits(matrix.value_),
    )


def _fresh_model_fields(lp):
    """``_model_fields`` of a new ``_highs_lp`` over ``lp``'s stored
    program."""
    start, index, value = lp._column_arrays()
    upper = [np.inf if bound is None else bound for bound in lp._upper]
    return _model_fields(
        _highs_lp(
            -np.asarray(lp._objective, dtype=float),
            start,
            index,
            value,
            np.asarray(lp._rhs, dtype=float),
            np.asarray(upper, dtype=float),
        )
    )


class TestPersistentInputModel:
    """A program keeps one HiGHS input model and patches it per edit.
    After any interleaving of edits and failed solves, the model it
    passes holds exactly what a fresh ``_highs_lp`` over a program built
    fresh in the same state holds, and it solves to the same bits."""

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_patched_model_equals_fresh_build(self, data):
        # ``anchor`` (at most 1) and its ``floor`` row are left alone by
        # the drawn edits, so ``floor >= 2`` is always infeasible.
        lp, shadow, retired = LinearProgram(), _Shadow(), {}
        lp.add_variable("anchor", 1.0, 1.0)
        shadow.add_variable("anchor", 1.0, 1.0)
        lp.add_constraint_ge({"anchor": 1.0}, 0.0, name="floor")
        shadow.add_row("floor", {"anchor": 1.0}, 0.0, -1.0)
        for _ in range(data.draw(st.integers(1, 30), label="steps")):
            names, rows = shadow.names[1:], shadow.row_names[1:]
            entries_in_rows = (
                st.dictionaries(st.sampled_from(rows), _COEFFICIENTS)
                if rows
                else st.just({})
            )
            ops = ["add_variable", "add_row", "solve", "set_rhs",
                   "infeasible", "non-finite", "primary-fails"]
            if rows:
                ops.append("add_column")
            if names:
                ops += ["set_column", "set_columns", "retire_column"]
            if retired:
                ops.append("readmit")
            op = data.draw(st.sampled_from(ops), label="op")
            if op in ("add_variable", "add_column"):
                name = f"x{len(shadow.names)}"
                objective = data.draw(_COEFFICIENTS)
                upper = data.draw(_UPPER_BOUNDS)
                entries = {}
                if op == "add_column":
                    entries = data.draw(entries_in_rows)
                    lp.add_column(name, entries, objective, upper)
                else:
                    lp.add_variable(name, objective, upper)
                shadow.add_variable(name, objective, upper)
                shadow.set_column(name, entries)
            elif op == "add_row":
                coefficients = data.draw(
                    st.dictionaries(
                        st.sampled_from(shadow.names), _COEFFICIENTS
                    )
                )
                rhs = data.draw(_RIGHT_HAND_SIDES)
                sign = data.draw(st.sampled_from([1.0, -1.0]))
                add = lp.add_constraint_le if sign > 0 else lp.add_constraint_ge
                name = add(coefficients, rhs, name=f"r{len(shadow.rhs)}")
                shadow.add_row(name, coefficients, rhs, sign)
            elif op == "set_rhs":
                name = data.draw(st.sampled_from(shadow.row_names))
                rhs = data.draw(_RIGHT_HAND_SIDES)
                lp.set_rhs(name, rhs)
                shadow.rhs[shadow.row_names.index(name)] = rhs
            elif op == "set_column":
                name = data.draw(st.sampled_from(names))
                entries = data.draw(entries_in_rows)
                column = shadow.names.index(name)
                objective = data.draw(st.one_of(st.none(), _COEFFICIENTS))
                if data.draw(st.booleans(), label="new upper bound"):
                    upper = data.draw(_UPPER_BOUNDS)
                    lp.set_column(name, entries, objective, upper)
                    shadow.upper[column] = upper
                else:
                    lp.set_column(name, entries, objective)
                if objective is not None:
                    shadow.objective[column] = objective
                shadow.set_column(name, entries)
            elif op == "set_columns":
                # Several columns patched by one solve, in any order.
                for name in data.draw(
                    st.lists(st.sampled_from(names), min_size=2, max_size=4)
                ):
                    entries = data.draw(entries_in_rows)
                    lp.set_column(name, entries)
                    shadow.set_column(name, entries)
            elif op == "retire_column":
                name = data.draw(st.sampled_from(names))
                retired[name] = lp.retire_column(name)
                column = shadow.names.index(name)
                shadow.set_column(name, {})
                shadow.objective[column] = 0.0
                shadow.upper[column] = 0.0
            elif op == "readmit":
                name = data.draw(st.sampled_from(sorted(retired)))
                snapshot = retired.pop(name)
                lp.set_column(name, **snapshot)
                column = shadow.names.index(name)
                shadow.set_column(name, snapshot["entries"])
                shadow.objective[column] = snapshot["objective"]
                shadow.upper[column] = snapshot["upper_bound"]
            elif op == "infeasible":
                lp.set_rhs("floor", 2.0)
                with pytest.raises(InfeasibleProblemError):
                    lp.solve()
                lp.set_rhs("floor", shadow.rhs[0])
            elif op == "non-finite":
                name = data.draw(st.sampled_from(shadow.row_names))
                bad = data.draw(st.sampled_from(
                    [float("nan"), float("inf"), -float("inf")]
                ))
                lp.set_rhs(name, bad)
                with pytest.raises(SolverError, match="right-hand side"):
                    lp.solve()
                lp.set_rhs(name, shadow.rhs[shadow.row_names.index(name)])
            if op not in ("solve", "primary-fails"):
                continue
            fresh = shadow.build()
            if op == "solve":
                outcome, expected = _outcome_bits(lp), _outcome_bits(fresh)
            else:
                # Solve #1 under each plan: its dual simplex attempt
                # fails and highs-ipm answers, for both programs alike.
                # Rewriting ``floor`` makes the first a real solve, and
                # rewriting it again keeps its highs-ipm answer out of
                # the next comparison with a dual simplex one.
                plan = FaultPlan(solver_failures=frozenset({1}))
                lp.set_rhs("floor", shadow.rhs[0])
                with inject_faults(plan) as active:
                    outcome = _outcome_bits(lp)
                assert active.solver_faults_fired == 1
                lp.set_rhs("floor", shadow.rhs[0])
                with inject_faults(plan):
                    expected = _outcome_bits(fresh)
            assert outcome == expected
            assert _model_fields(lp._model) == _fresh_model_fields(fresh)

    def test_edits_keep_the_model_object(self):
        """set_rhs, set_column and retire_column patch the model that
        add_variable, add_column and add_constraint_* replace."""
        lp = _master_program(4)
        lp.solve()
        model = lp._model
        lp.set_rhs("airtime", 0.5)
        lp.solve()
        lp.set_column("f", {"demand[a]": -1.0})
        lp.solve()
        snapshot = lp.retire_column("lambda_1")
        lp.solve()
        lp.set_column("lambda_1", **snapshot)
        lp.solve()
        assert lp._model is model
        for grow in (
            lambda: lp.add_variable("spare"),
            lambda: lp.add_column("lambda_9", {"airtime": 1.0}),
            lambda: lp.add_constraint_le({"f": 1.0}, 9.0, name="cap"),
        ):
            grow()
            lp.solve()
            assert lp._model is not model
            model = lp._model
        assert _model_fields(model) == _fresh_model_fields(lp)

    def test_several_columns_patched_by_one_solve(self):
        """Columns that grow, shrink and empty, rebuilt by one solve."""
        edits = (
            ("lambda_0", {"airtime": 1.0}),
            ("f", {"airtime": 0.5, "demand[a]": -1.0, "demand[b]": -1.0}),
            ("lambda_2", {}),
        )
        lp, fresh = _master_program(4), _master_program(4)
        lp.solve()
        for program in (lp, fresh):
            for name, entries in edits:
                program.set_column(name, entries)
        assert _solution_bits(lp.solve()) == _solution_bits(fresh.solve())
        assert _model_fields(lp._model) == _fresh_model_fields(fresh)

    def test_binding_has_the_reads_the_driver_uses(self):
        from scipy.optimize._highspy import _core

        handle = _core._Highs()
        for name in ("getObjectiveValue", "getInfoValue"):
            assert hasattr(handle, name), f"_Highs lacks {name}"
        status, value = handle.getInfoValue("simplex_iteration_count")
        assert isinstance(value, int)


# -- lazy slacks -------------------------------------------------------------------


def _eager_slacks(lp, solution):
    """``rhs - A @ x`` for ``lp``'s current state, with the dense product
    below the cell limit and the sparse one above it."""
    start, index, value = lp._column_arrays()
    m, n = lp.num_constraints, lp.num_variables
    x = np.array([solution.values[name] for name in lp._names])
    matrix = csc_array((value, index, start), shape=(m, n))
    if m * n <= _DENSE_CELL_LIMIT:
        product = matrix.toarray() @ x
    else:
        columns = np.repeat(np.arange(n), np.diff(start))
        product = np.bincount(index, weights=value * x[columns], minlength=m)
    return _bits(np.asarray(lp._rhs, dtype=float) - product)


def _bounded_sparse_program():
    """A random 150 x 240 program above the dense-slack threshold, every
    variable at most 1 (so it is bounded)."""
    rng = np.random.default_rng(11)
    lp = LinearProgram()
    names = [
        lp.add_variable(
            f"x{j}", objective=float(rng.uniform(0.0, 2.0)), upper_bound=1.0
        )
        for j in range(240)
    ]
    for row in range(150):
        picked = rng.choice(240, size=6, replace=False)
        lp.add_constraint_le(
            {names[j]: float(rng.uniform(0.5, 3.0)) for j in picked},
            float(rng.uniform(1.0, 4.0)),
        )
    assert lp.num_constraints * lp.num_variables > _DENSE_CELL_LIMIT
    return lp


class TestLazySlacks:
    """Slacks are computed when first read, from the arrays of the
    version the solution solved."""

    @pytest.mark.parametrize(
        "build, column, row",
        [
            (lambda: _master_program(6), "f", "airtime"),
            (_bounded_sparse_program, "x0", "c0"),
        ],
        ids=["dense", "sparse"],
    )
    def test_earlier_solution_keeps_its_slacks(self, build, column, row):
        lp = build()
        first = lp.solve()
        expected = _eager_slacks(lp, first)
        lp.set_rhs(row, 0.75)
        lp.set_column(column, {row: 1.0})
        second = lp.solve()
        lp.add_variable("late", objective=1.0, upper_bound=1.0)
        lp.add_constraint_le({"late": 1.0}, 1.0, name="late_cap")
        lp.solve()
        assert _bits(list(first.slacks.values())) == expected
        assert list(first.slacks) == list(build().solve().slacks)
        assert len(second.slacks) == len(first.slacks)

    def test_slacks_survive_pickling(self):
        """A solution pickled before and after its slacks are read
        unpickles with the slacks of the version it solved."""
        expected = _bits(list(_master_program(5).solve().slacks.values()))
        lp = _master_program(5)
        solution = lp.solve()
        lp.set_rhs("airtime", 0.25)
        lp.solve()
        unread = pickle.loads(pickle.dumps(solution))
        assert _bits(list(solution.slacks.values())) == expected
        read = pickle.loads(pickle.dumps(solution))
        for copy in (unread, read):
            assert _bits(list(copy.slacks.values())) == expected
            assert copy.values == solution.values
            assert copy.duals == solution.duals

    def test_repeated_retargets_do_not_grow_memory(self):
        lp = _master_program(6)

        def churn(count):
            for index in range(count):
                lp.set_column(
                    "f",
                    {"demand[a]": -1.0}
                    if index % 2
                    else {"demand[a]": -1.0, "demand[b]": -1.0},
                )
                lp.solve().slacks

        churn(200)  # warm every lazily built structure first
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            churn(5000)
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        growth = sum(
            stat.size_diff for stat in after.compare_to(before, "filename")
        )
        assert growth < 256 * 1024


# -- the one-pass time-share assembly ----------------------------------------------


def _row_by_row_time_share_lp(
    columns, links, rhs, lead=None, lead_entries=None, lead_bound=None,
    artificial_penalty=None,
):
    """The reference: a time-share LP built through the public row-by-row
    API (one ``add_variable`` per variable, one ``add_constraint_*`` per
    row), as :func:`~repro.core.bandwidth._time_share_lp` assembled it
    before it wrote the matrix lists in one pass."""
    from repro.core.independent_sets import ColumnFamily

    family = ColumnFamily.of(columns)
    lp = LinearProgram()
    if lead is not None:
        lp.add_variable(lead, objective=1.0, upper_bound=lead_bound)
    lambda_objective = 0.0 if lead is not None else -1.0
    lambda_vars = [
        lp.add_variable(f"lambda_{index}", objective=lambda_objective)
        for index in range(len(family))
    ]
    rows = {link: {} for link in links}
    if artificial_penalty is not None:
        for link, row in rows.items():
            var = lp.add_variable(
                f"artificial[{link.link_id}]", objective=-artificial_penalty
            )
            row[var] = 1.0
    if lead is not None:
        lp.add_constraint_le(dict.fromkeys(lambda_vars, 1.0), 1.0, name="airtime")
    couple_rows = [
        (rows.get(couple.link), couple.rate.mbps) for couple in family.couples
    ]
    for var, mask in zip(lambda_vars, family.masks):
        while mask:
            low_bit = mask & -mask
            mask ^= low_bit
            row, mbps = couple_rows[low_bit.bit_length() - 1]
            if row is not None and mbps > 0.0:
                row[var] = mbps
    lead_entries = lead_entries or {}
    for link, row in rows.items():
        if link in lead_entries:
            row[lead] = lead_entries[link]
        lp.add_constraint_ge(row, rhs.get(link, 0.0), name=f"demand[{link.link_id}]")
    return lp, lambda_vars


def _add_column_by_name(lp, couples, lead):
    """Grow a time-share LP by one λ column of ``couples`` through the
    named API, as column generation grew its master before
    :meth:`~repro.core.bandwidth.TimeShareProgram.add_column`."""
    name = f"lambda_{sum(name.startswith('lambda_') for name in lp._names)}"
    entries = {f"demand[{couple.link.link_id}]": couple.rate.mbps for couple in couples}
    if lead:
        lp.add_column(name, {"airtime": 1.0, **entries})
    else:
        lp.add_column(name, entries, objective=-1.0)


def _zero_rate():
    """A rate with zero throughput, which :class:`Rate` itself refuses."""
    from repro.phy.rates import Rate

    zero = object.__new__(Rate)
    for name, value in (("mbps", 0.0), ("sinr_db", 0.0), ("range_m", 1.0)):
        object.__setattr__(zero, name, value)
    return zero


def _chain_links():
    from repro.net.generators import chain_topology

    network = chain_topology(9, 70.0)
    links = [
        network.link_between(f"n{index}", f"n{index + 1}") for index in range(8)
    ]
    return links, list(network.radio.rate_table)[:3]


_CHAIN_LINKS, _CHAIN_RATES = _chain_links()


@st.composite
def _time_share_cases(draw):
    """A family over the chain's couples (any couple order, so columns
    may hold two couples of one link, zero-Mbps couples included) and
    the program's links, right-hand sides, lead and artificials: links
    outside the family, couples outside the links and links without a
    right-hand side all occur."""
    from repro.core.independent_sets import ColumnFamily
    from repro.interference.base import LinkRate

    rates = _CHAIN_RATES + ([_zero_rate()] if draw(st.booleans()) else [])
    pool = [LinkRate(link, rate) for link in _CHAIN_LINKS for rate in rates]
    couples = draw(st.lists(st.sampled_from(pool), unique=True, max_size=12))
    if draw(st.booleans()):
        couples.sort(key=lambda couple: _CHAIN_LINKS.index(couple.link))
    masks = draw(st.lists(st.integers(0, 2 ** len(couples) - 1), max_size=10))
    links = draw(st.permutations(_CHAIN_LINKS))[: draw(st.integers(0, 8))]
    rhs = {
        link: draw(st.one_of(st.floats(0.0, 5.0), st.integers(0, 3)))
        for link in links
        if draw(st.booleans())
    }
    lead = draw(st.sampled_from([None, "f", "theta"]))
    lead_entries = {
        link: draw(_COEFFICIENTS) for link in _CHAIN_LINKS if draw(st.booleans())
    }
    return (
        ColumnFamily(couples, masks),
        links,
        rhs,
        lead,
        lead_entries if lead is not None else None,
        draw(st.one_of(st.none(), st.floats(0.5, 20.0))) if lead else None,
        draw(st.one_of(st.none(), st.just(1e3))),
    )


def _same_programs(lp, reference):
    assert lp._names == reference._names
    assert lp._row_names == reference._row_names
    assert _fresh_model_fields(lp) == _fresh_model_fields(reference)
    assert _outcome_bits(lp) == _outcome_bits(reference)
    assert _model_fields(lp._model) == _model_fields(reference._model)


class TestBulkAssembly:
    """``_time_share_lp`` writes the matrix lists in one pass; the
    program equals one built row by row through the public API, field
    for field in the HiGHS model and bit for bit in the solve, before
    and after the same follow-up edits."""

    @given(case=_time_share_cases(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_row_by_row_build(self, case, data):
        from repro.core.bandwidth import _time_share_lp
        from repro.core.independent_sets import _mask_members

        family, links, rhs, lead, lead_entries, lead_bound, penalty = case
        program = _time_share_lp(
            family, links, rhs, lead, lead_entries, lead_bound, penalty
        )
        lp = program.lp
        reference, lambda_vars = _row_by_row_time_share_lp(
            family, links, rhs, lead, lead_entries, lead_bound, penalty
        )
        if lp.num_variables:
            _same_programs(lp, reference)
        if not links:
            return
        indices = data.draw(
            st.lists(st.integers(0, max(len(family.couples) - 1, 0)), max_size=3)
        )
        mask = 0
        for index in indices:
            if index < len(family.couples) and family.couples[index].link in links:
                mask |= 1 << index
        row_names = lp._row_names
        program.add_column(mask)
        _add_column_by_name(
            reference, _mask_members(mask, family.couples), lead is not None
        )
        assert program.columns.masks == (*family.masks, mask)
        if lambda_vars:
            entries = data.draw(
                st.dictionaries(st.sampled_from(row_names), _COEFFICIENTS)
            )
            target = data.draw(st.sampled_from(lambda_vars))
            for program in (lp, reference):
                program.set_column(target, entries)
        row = data.draw(st.sampled_from(row_names))
        value = data.draw(_RIGHT_HAND_SIDES)
        coefficients = data.draw(
            st.dictionaries(st.sampled_from(lp._names), _COEFFICIENTS)
        )
        for program in (lp, reference):
            program.set_rhs(row, value)
            program.add_constraint_ge(coefficients, 0.5, name="extra")
        _same_programs(lp, reference)

    def test_eq6_masters_equal_row_by_row_builds(self):
        """The serving workload's masters (``_eq6_masters``) through both
        builds."""
        from repro.core.bandwidth import (
            _collect_links,
            build_path_bandwidth_lp,
            link_demands_from_paths,
        )
        from repro.core.independent_sets import (
            enumerate_maximal_independent_sets,
        )
        from repro.workloads.scenarios import admission_query_workload

        workload = admission_query_workload(n_flows=8, repeats=1)
        paths = {query.path.nodes: query.path for query in workload.queries}
        links = _collect_links(workload.background, next(iter(paths.values())))
        columns = enumerate_maximal_independent_sets(workload.model, links)
        demands = link_demands_from_paths(workload.background)
        for path in list(paths.values())[:10]:
            new_links = set(path.links)
            lp = build_path_bandwidth_lp(columns, links, demands, new_links).lp
            reference, _ = _row_by_row_time_share_lp(
                columns, links, demands, "f", dict.fromkeys(new_links, -1.0)
            )
            _same_programs(lp, reference)

    def test_assembly_makes_no_row_by_row_call(self, monkeypatch):
        from repro.core.bandwidth import _time_share_lp

        family, links, rhs, *rest = _version_case()

        def refuse(*args, **kwargs):
            raise AssertionError("row-by-row call during the bulk assembly")

        for method in ("add_variable", "add_column", "_add_row"):
            monkeypatch.setattr(LinearProgram, method, refuse)
        lp = _time_share_lp(family, links, rhs, *rest, artificial_penalty=1e3).lp
        assert lp.num_constraints == len(links) + 1

    def test_duplicate_link_raises_before_any_program(self):
        from repro.core.bandwidth import _time_share_lp
        from repro.net.link import Link

        family, links, rhs, *rest = _version_case()
        twin = Link(links[0].link_id, links[1].sender, links[1].receiver)
        with pytest.raises(SolverError, match=r"duplicate LP constraint 'demand\[") as raised:
            _time_share_lp(family, [*links, twin], rhs, *rest)
        assert links[0].link_id in str(raised.value)
        with pytest.raises(SolverError, match="duplicate LP variable 'lambda_0'"):
            _time_share_lp(family, links, rhs, "lambda_0", rest[1])

    def test_lambda_names_under_threads(self, monkeypatch):
        """The shared λ name table is replaced, never appended to: threads
        asking for different lengths at once each get their own names."""
        import sys
        import threading

        from repro.core import bandwidth

        def ask(count, failures):
            for _ in range(200):
                names = bandwidth._lambda_names(count)
                if names != [f"lambda_{index}" for index in range(count)]:
                    failures.append(count)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                monkeypatch.setattr(bandwidth, "_LAMBDA_NAMES", [])
                failures = []
                workers = [
                    threading.Thread(target=ask, args=(count, failures))
                    for count in (3, 40, 7, 120, 1, 64, 15, 300)
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=30)
                    assert not worker.is_alive()
                assert failures == []
        finally:
            sys.setswitchinterval(interval)

    def test_bulk_constructor_names_the_first_repeat(self):
        columns = (["x", "y", "y", "x"], [0.0] * 4, [None] * 4)
        matrix = ([0, 0, 0, 0, 0], [], [])
        with pytest.raises(SolverError, match="duplicate LP variable 'y'"):
            LinearProgram._from_columns(columns, matrix, ([], [], []))
        rows = (["a", "b", "a"], [1.0] * 3, [1.0] * 3)
        with pytest.raises(SolverError, match="duplicate LP variable 'y'"):
            LinearProgram._from_columns(columns, matrix, rows)
        columns = (["x"], [1.0], [1.0])
        with pytest.raises(SolverError, match="duplicate LP constraint 'a'"):
            LinearProgram._from_columns(columns, ([0, 0], [], []), rows)


def _named_reads(program, solution):
    """The reads :class:`~repro.core.bandwidth.TimeShareProgram` makes by
    position, made by row and variable name instead, as the callers made
    them before the program owned its layout."""
    rows = [f"demand[{link.link_id}]" for link in program.links]
    values = solution.values
    lambdas = [f"lambda_{index}" for index in range(len(program.columns))]
    return (
        [solution.duals[row] for row in rows],
        [solution.slacks[row] for row in rows],
        solution.duals.get("airtime", 0.0),
        sum(value for name, value in values.items() if name.startswith("artificial[")),
        [values[name] for name in lambdas if name in values],
    )


def _assert_reads_by_name(program, solution):
    from repro.core.schedule import _DROP_BELOW

    duals, slacks, airtime, surplus, shares = _named_reads(program, solution)
    assert _bits(program.link_duals(solution)) == _bits(duals)
    assert _bits(program.link_slacks(solution)) == _bits(slacks)
    assert _bits([program.airtime_dual(solution)]) == _bits([airtime])
    assert _bits([program.artificial_surplus(solution)]) == _bits([surplus])
    assert _bits(program.shares(solution)) == _bits(shares)
    scheduled = [
        (program.columns[index], share)
        for index, share in enumerate(shares)
        if share > _DROP_BELOW
    ]
    entries = program.schedule(solution).entries
    assert [(e.independent_set, e.time_share) for e in entries] == scheduled
    objective = solution.objective
    clamped = 0.0 if -1e-9 < objective <= 0.0 else objective
    assert _bits([program.bandwidth(solution)]) == _bits([clamped])


class TestPositionalReads:
    """:class:`~repro.core.bandwidth.TimeShareProgram` reads solutions
    and makes its serving edits by position; both equal the name-based
    reads and edits they replace, and a fresh build, bit for bit."""

    def test_verify_families(self):
        from repro.core.bandwidth import (
            _collect_links,
            _time_share_lp,
            build_path_bandwidth_lp,
            link_demands_from_paths,
        )
        from repro.core.independent_sets import (
            enumerate_maximal_independent_sets,
        )
        from repro.verify.instances import FAMILIES, generate_instance

        solved = 0
        for family in sorted(FAMILIES):
            for seed in range(4):
                instance = generate_instance(seed, family=family)
                links = _collect_links(instance.background, instance.new_path)
                columns = enumerate_maximal_independent_sets(instance.model, links)
                demands = link_demands_from_paths(instance.background)
                for program in (
                    build_path_bandwidth_lp(
                        columns, links, demands, set(instance.new_path.links)
                    ),
                    _time_share_lp(columns, links, demands),
                ):
                    try:
                        solution = program.lp.solve()
                    except InfeasibleProblemError:
                        continue
                    _assert_reads_by_name(program, solution)
                    solved += 1
        assert solved >= 30

    @pytest.mark.parametrize("lead", [False, True])
    def test_column_generation_master_grown_column_by_column(self, lead):
        from repro.core.bandwidth import _collect_links, link_demands_from_paths
        from repro.core.column_generation import _PricingProblem, _master
        from repro.core.independent_sets import _mask_members
        from repro.workloads.scenarios import admission_query_workload

        workload = admission_query_workload(n_flows=8, repeats=1)
        path = workload.queries[0].path
        links = _collect_links(workload.background, path)
        demands = link_demands_from_paths(workload.background)
        program = _master(
            workload.model, links, demands, set(path.links) if lead else None
        )
        twin = _master(
            workload.model, links, demands, set(path.links) if lead else None
        ).lp
        pricing = _PricingProblem(workload.model, program.columns.couples)
        grown = 0
        for _round in range(40):
            solution = program.lp.solve()
            _assert_reads_by_name(program, solution)
            assert _solution_bits(solution) == _solution_bits(twin.solve())
            assert _model_fields(program.lp._model) == _model_fields(twin._model)
            prices = {
                vertex: solution.duals[f"demand[{vertex.link.link_id}]"] * vertex.rate.mbps
                for vertex in program.columns.couples
            }
            mask = pricing.exact(prices)
            if not mask or mask in program.columns.masks:
                break
            program.add_column(mask)
            _add_column_by_name(twin, _mask_members(mask, program.columns.couples), lead)
            grown += 1
        assert grown >= 3
        assert program.artificial_surplus(solution) == 0.0

    def test_served_masters_after_retarget_and_demand_edits(self):
        from repro.core.bandwidth import (
            _collect_links,
            build_path_bandwidth_lp,
            link_demands_from_paths,
        )
        from repro.core.independent_sets import (
            enumerate_maximal_independent_sets,
        )
        from repro.workloads.scenarios import admission_query_workload

        workload = admission_query_workload(n_flows=8, repeats=1)
        paths = list({query.path.nodes: query.path for query in workload.queries}.values())
        links = _collect_links(workload.background, paths[0])
        columns = enumerate_maximal_independent_sets(workload.model, links)
        demands = link_demands_from_paths(workload.background)
        program = build_path_bandwidth_lp(columns, links, demands, set(paths[0].links))
        twin = build_path_bandwidth_lp(columns, links, demands, set(paths[0].links)).lp
        rng = random.Random(3)
        union = {link.link_id for link in links}
        current = [demands.get(link, 0.0) for link in links]
        solved = 0
        for path in paths[1:20]:
            if not {link.link_id for link in path} <= union:
                continue
            path_ids = [link.link_id for link in path]
            program.retarget(path_ids)
            twin.set_column("f", {f"demand[{link_id}]": -1.0 for link_id in path_ids})
            for at in rng.sample(range(len(links)), 3):
                current[at] = rng.choice([0.0, 0.1, 0.2, 0.4, 0.8])
                twin.set_rhs(f"demand[{links[at].link_id}]", current[at])
            program.set_demands(current)
            fresh = build_path_bandwidth_lp(
                columns, links, dict(zip(links, current)), set(path.links)
            ).lp
            assert _outcome_bits(program.lp) == _outcome_bits(twin) == _outcome_bits(fresh)
            assert _model_fields(program.lp._model) == _model_fields(twin._model)
            assert _model_fields(program.lp._model) == _model_fields(fresh._model)
            try:
                solution = program.lp.solve()
            except InfeasibleProblemError:
                continue
            _assert_reads_by_name(program, solution)
            solved += 1
        assert solved >= 10


def _version_case():
    """An Eq. 6-shaped family over the chain: couples in link order."""
    from repro.core.independent_sets import ColumnFamily
    from repro.interference.base import LinkRate

    links = _CHAIN_LINKS[:5]
    couples = [LinkRate(link, _CHAIN_RATES[0]) for link in links]
    masks = [0b00101, 0b01010, 0b10100, 0b01001, 0b10010]
    rhs = {links[0]: 2.0, links[3]: 1.0}
    new_links = {links[1]: -1.0, links[2]: -1.0}
    return ColumnFamily(couples, masks), links, rhs, "f", new_links


def _input_bits(inputs):
    return (
        _bits(inputs.rhs),
        list(inputs.start),
        list(inputs.index),
        _bits(inputs.value),
    )


_FIRST_ROW, _THIRD_ROW = (f"demand[{_CHAIN_LINKS[i].link_id}]" for i in (0, 2))
_EDITS = {
    "set_column": lambda lp: lp.set_column(
        "lambda_1", {"airtime": 1.0, _FIRST_ROW: 9.0}
    ),
    "add_column": lambda lp: lp.add_column(
        "lambda_9", {"airtime": 1.0, _FIRST_ROW: 5.0, _THIRD_ROW: 4.0}
    ),
    "add_variable": lambda lp: lp.add_variable("spare", objective=0.5, upper_bound=1.0),
    "add_row": lambda lp: lp.add_constraint_le(
        {"lambda_0": 1.0, "lambda_3": 2.0}, 0.25, name="cap"
    ),
}


class TestSolutionVersions:
    """An edit replaces the matrix lists a solve read, never writes into
    them: the solution keeps the arrays, slacks and certificate inputs
    of its own version, and the edited program answers as one that was
    never solved before the edit."""

    @pytest.mark.parametrize("edit", sorted(_EDITS))
    def test_edits_leave_earlier_solutions_alone(self, edit):
        from repro.core.bandwidth import _time_share_lp

        case = _version_case()
        lp, twin, unsolved = (_time_share_lp(*case).lp for _ in range(3))
        first = lp.solve()
        inputs = _input_bits(first._inputs)
        expected_slacks = _bits(list(twin.solve().slacks.values()))
        expected_certificate = lp.certificate()
        _EDITS[edit](lp)
        _EDITS[edit](unsolved)
        second = lp.solve()
        assert second is not first
        assert _input_bits(first._inputs) == inputs
        assert _bits(list(first.slacks.values())) == expected_slacks
        assert twin.certificate() == expected_certificate
        assert _solution_bits(second) == _solution_bits(unsolved.solve())
        assert lp.certificate() == unsolved.certificate()
        assert _input_bits(second._inputs) == _input_bits(unsolved._inputs)

    @pytest.mark.parametrize("edit", ["set_rhs", "set_demands"])
    def test_demand_edits_leave_earlier_solutions_alone(self, edit):
        """A right-hand side edit writes a new list: the earlier
        solution keeps its right-hand sides, slacks and certificate."""
        from repro.core.bandwidth import _time_share_lp

        program, unsolved = (_time_share_lp(*_version_case()) for _ in range(2))
        lp = program.lp
        first = lp.solve()
        inputs = _input_bits(first._inputs)
        slacks = _bits(list(first.slacks.values()))
        certificate = lp.certificate()
        demands = [0.5, 0.0, 0.25, 1.5, 0.125]
        for edited in (program, unsolved):
            if edit == "set_demands":
                edited.set_demands(demands)
            else:
                for link, demand in zip(edited.links, demands):
                    edited.lp.set_rhs(f"demand[{link.link_id}]", demand)
        second = lp.solve()
        assert second is not first
        assert _input_bits(first._inputs) == inputs
        assert _bits(list(first.slacks.values())) == slacks
        assert _input_bits(second._inputs) != inputs
        assert _solution_bits(second) == _solution_bits(unsolved.lp.solve())
        assert lp.certificate() == unsolved.lp.certificate()
        # The certificate of the earlier version, from its own arrays.
        lp._solution, lp._solved_version = first, lp._version
        assert lp.certificate() == certificate

    @pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
    @pytest.mark.parametrize("edit", ["add_column", "add_variable", "add_row", "add_ge_row"])
    def test_views_keep_the_names_of_the_solved_version(self, edit, read_first):
        """The program's name lists grow in place; a solution's by-name
        views show the names (and bits) of the version it solved, read
        before or after the edit, pickled with its views unread or read."""
        from repro.core.bandwidth import _time_share_lp

        edits = dict(
            _EDITS,
            add_ge_row=lambda lp: lp.add_constraint_ge({"lambda_2": 1.0}, 0.125, name="floor"),
        )
        lp, twin = (_time_share_lp(*_version_case()).lp for _ in range(2))
        expected = _views(twin.solve())
        first = lp.solve()
        if read_first:
            assert _views(first) == expected
        edits[edit](lp)
        lp.solve()
        copy = pickle.loads(pickle.dumps(first))
        assert _views(first) == expected
        assert _views(copy) == expected
        assert _views(pickle.loads(pickle.dumps(first))) == expected
        assert (len(first.x), len(first.y)) == (len(first.values), len(first.duals))


def _views(solution):
    """Each by-name view of ``solution`` as (keys, value bits)."""
    return [
        (list(view), _bits(list(view.values())))
        for view in (solution.values, solution.duals, solution.slacks)
    ]
