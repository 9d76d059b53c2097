"""Linear-programming layer: named variables over a direct HiGHS driver.

Every optimisation in the library is an LP.  This module provides a small
builder that keeps variables named, stores the sparse standard form and
converts solver statuses into the library's exception types, so the model
code above reads like the paper's formulations rather than like matrix
plumbing.

The constraint matrix is stored once, in the column-major form HiGHS
takes: flat ``start``/``index``/``value`` lists, each column's row
indices ascending and its nonzero values carrying the row's sign (a
``>=`` row is stored negated).  A program is built either row by row
(:meth:`LinearProgram.add_variable` and ``add_constraint_*``, a new row
merged into the end of each column it touches) or in one step from
lists already in that form (:meth:`LinearProgram._from_columns`, which
:func:`repro.core.bandwidth._time_share_lp` fills in one pass over a
column family).  :meth:`LinearProgram.add_column` grows an
already-built program by one variable with coefficients in existing
rows, which is what column generation needs: the master problem is
built once and re-solved as columns arrive.
:meth:`LinearProgram.set_column` *replaces* one variable's column, which
is what the serving layer's warm starts need: a cached master LP is
retargeted at a new query path without touching its other columns.
:meth:`LinearProgram.set_rhs` rewrites one constraint's right-hand side.
:meth:`LinearProgram.retire_column` masks a variable out of the program,
returning a snapshot that :meth:`~LinearProgram.set_column` restores.
The time-share LPs make their edits through
:class:`repro.core.bandwidth.TimeShareProgram`, which knows their rows:
it retargets the lead column and writes a whole demand vector by
position, each in one pass, which is how the serving layer moves a
cached master to a new path and carried load in and out of it.

Each program keeps one HiGHS input model (``HighsLp``: costs, bounds,
row bounds and the matrix) between solves, set from plain Python lists
(the binding copies a list faster than a NumPy array); the model and
the input the last solve read share the program's lists.  Each edit
marks which side it changed, and the next solve re-sets only that side
on the kept model:

* :meth:`~LinearProgram.set_rhs` (and the demand-vector write) marks
  the row bounds, which are re-set;
* :meth:`~LinearProgram.set_column` and
  :meth:`~LinearProgram.retire_column` splice one column's slice of
  the matrix lists and mark the matrix, which is re-set; a new
  objective or upper bound (a retirement sets both) also marks the
  costs and bounds.  A retarget changes only the matrix.  The model
  object stays;
* :meth:`~LinearProgram.add_variable`, ``add_constraint_*`` and
  :meth:`~LinearProgram.add_column` change the shape, so the model is
  built afresh.

The right-hand sides and matrix lists a solve has read are replaced,
never written in place (copy-on-write), so a solution keeps those of
its own version.  An edited program and one built fresh in the same
state hand HiGHS the same arrays, bit for bit.  Whether the costs,
coefficients, bounds and right-hand sides are finite is checked when
they are refreshed, by one sum per side (an entry-wise look only when
the sum is not finite); a solve with non-finite input raises
:class:`~repro.errors.SolverError` before any solver attempt.

Re-solve work is memoised on a mutation version: an unchanged program
returns its previous :class:`LpSolution` without calling the solver
(``lp.cache_hits``).  A solution keeps HiGHS's answer by position: the
values as the list HiGHS returns and the negated row duals as a list.
Its slacks are computed on first read, from the arrays of the version
it solved, and its by-name ``values``, ``duals`` and ``slacks`` are
views built on first read from that version's names, which the input
keeps as tuples taken when the program's shape changed (the program's
own name lists grow in place).  The time-share LPs read positions
(:class:`repro.core.bandwidth.TimeShareProgram`), so a solve builds no
dict.

Solving drives SciPy's bundled HiGHS binding
(``scipy.optimize._highspy._core._Highs``) directly.  Each thread keeps
one HiGHS handle per rung of :data:`SOLVER_ATTEMPT_CHAIN`, created on
first use with exactly the options ``scipy.optimize.linprog`` sets for
that method; every solve passes the whole input model to its handle
(``passModel``, which copies it and discards any previous basis and
solution) and runs it.  So every solve starts from the same canonical
state a fresh ``linprog`` call does, and its values, duals, objective
and iteration count are bit-identical to ``linprog``'s — without
``linprog``'s input cleaning, per-call option validation and handle
construction, which cost several times HiGHS's own run on these small
programs.  ``linprog``'s post-solve check (an "optimal" point off its
bounds or rows by more than the tolerance, or with a NaN, is a failed
attempt) is made with Python comparisons over the lists HiGHS returns:
the same IEEE operations, without NumPy's fixed cost per call on
arrays of a dozen entries.

:meth:`LinearProgram.solve` is resilient: a failed solver attempt walks a
retry/fallback chain (:data:`SOLVER_ATTEMPT_CHAIN` — dual simplex, then
interior point, then one relaxed-tolerance attempt) before giving up with
a :class:`~repro.errors.SolverError` that carries the per-attempt context.
Infeasible and unbounded outcomes are reported immediately, never retried.
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul
from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np
from scipy.optimize._highspy import _core as _highs

from repro.errors import InfeasibleProblemError, SolverAttempt, SolverError
from repro.obs import get_recorder

__all__ = [
    "DualCertificate",
    "LinearProgram",
    "LpSolution",
    "SOLVER_ATTEMPT_CHAIN",
    "set_solver_fault_hook",
]

#: Below this many matrix cells the slacks ``b - A @ x`` are computed from
#: the dense matrix, above it from the sparse columns.  The two products
#: can differ in the last ulp, so the threshold is part of the answer.
_DENSE_CELL_LIMIT = 32768

#: The retry/fallback chain of :meth:`LinearProgram.solve`: ``(method,
#: options)`` pairs tried in order.  HiGHS dual simplex first (what
#: ``method="highs"`` resolves to on these programs), the interior-point
#: method when simplex fails, and one final attempt with feasibility
#: tolerances relaxed an order of magnitude.  Infeasible/unbounded are
#: genuine model outcomes, never retried — only solver *failures* walk
#: down the chain.
SOLVER_ATTEMPT_CHAIN = (
    ("highs-ds", None),
    ("highs-ipm", None),
    (
        "highs",
        {
            "primal_feasibility_tolerance": 1e-6,
            "dual_feasibility_tolerance": 1e-6,
        },
    ),
)

#: HiGHS's ``solver`` option for each method of the chain (``"highs"``
#: leaves HiGHS to choose, as ``linprog`` does).
_HIGHS_SOLVERS = {"highs-ds": "simplex", "highs-ipm": "ipm", "highs": "choose"}

#: Options every handle gets, in the order they are set: what ``linprog``
#: passes for every HiGHS method (quiet, presolve on, no debug checks,
#: dual simplex strategy).
_HIGHS_OPTIONS = (
    ("output_flag", False),
    ("log_to_console", False),
    ("presolve", "on"),
    ("highs_debug_level", 0),
    ("simplex_strategy", 1),
)

#: ``linprog``'s post-solve feasibility tolerance (``sqrt(1e-9) * 10``):
#: an "optimal" point violating a bound or a row by more than this counts
#: as a failed attempt.
_RESULT_TOLERANCE = float(np.sqrt(1e-9) * 10)

#: HiGHS model statuses with a defined meaning here, as ``linprog``'s
#: status codes (0 optimal, 1 limit reached, 2 infeasible, 3 unbounded);
#: every other status is 4, a failed attempt.  Keyed by the statuses'
#: integer values: the binding's enum objects hash and compare through
#: Python-level calls.
_STATUS_CODES = {
    _highs.HighsModelStatus.kOptimal.value: 0,
    _highs.HighsModelStatus.kTimeLimit.value: 1,
    _highs.HighsModelStatus.kIterationLimit.value: 1,
    _highs.HighsModelStatus.kInfeasible.value: 2,
    _highs.HighsModelStatus.kModelError.value: 2,
    _highs.HighsModelStatus.kUnbounded.value: 3,
}

#: ``HighsStatus.kError``'s integer value.
_ERROR = _highs.HighsStatus.kError.value


class _Handles(threading.local):
    """This thread's HiGHS handles, one per chain rung, made on first use."""

    def __init__(self) -> None:
        self.by_rung: Dict[int, "_highs._Highs"] = {}


_handles = _Handles()


def _handle(rung: int) -> "_highs._Highs":
    """The calling thread's HiGHS handle for chain rung ``rung``."""
    handle = _handles.by_rung.get(rung)
    if handle is None:
        method, options = SOLVER_ATTEMPT_CHAIN[rung]
        handle = _highs._Highs()
        settings = _HIGHS_OPTIONS + (("solver", _HIGHS_SOLVERS[method]),)
        for key, value in settings + tuple((options or {}).items()):
            if handle.setOptionValue(key, value) != _highs.HighsStatus.kOk:
                raise SolverError(f"HiGHS rejected option {key}={value!r}")
        _handles.by_rung[rung] = handle
    return handle


def _highs_lp(
    cost: List[float],
    start: List[int],
    index: List[int],
    value: List[float],
    rhs: List[float],
    upper: List[float],
) -> "_highs.HighsLp":
    """``min cost.x  s.t.  A @ x <= rhs, 0 <= x <= upper`` as a new HiGHS
    model, ``A`` given as column-major ``start``/``index``/``value``:
    exactly the arrays ``linprog``'s ``csc_array`` conversion hands
    HiGHS."""
    rows, cols = len(rhs), len(cost)
    model = _highs.HighsLp()
    model.num_col_ = cols
    model.num_row_ = rows
    model.col_cost_ = cost
    model.col_lower_ = [0.0] * cols
    model.col_upper_ = upper
    model.row_lower_ = [-math.inf] * rows
    model.row_upper_ = rhs
    model.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    model.a_matrix_.num_col_ = cols
    model.a_matrix_.num_row_ = rows
    model.a_matrix_.start_ = start
    model.a_matrix_.index_ = index
    model.a_matrix_.value_ = value
    return model


class _Input(NamedTuple):
    """One version of a program's right-hand sides, constraint matrix
    ``A`` (column-major ``start``/``index``/``value`` lists) and column
    and row names, as its input model holds them: what the slacks
    ``rhs - A @ x`` are computed from and what a solution's by-name views
    read.  Every side is a Python list, the program's own: the binding
    copies a list into the model several times faster than a NumPy
    array, and the post-solve check reads lists faster than arrays this
    small.  Nothing here is written in place: an edit replaces the list
    it changes (copy-on-write), so a solution can keep the input of the
    version it solved.  The names are tuples taken when the shape
    changes (a new variable or row), since the program's own name lists
    grow in place.  Costs and upper bounds are not kept per version: no
    solution reads them."""

    rhs: List[float]
    start: List[int]
    index: List[int]
    value: List[float]
    names: Tuple[str, ...]
    row_names: Tuple[str, ...]

    def matrix(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(start, index, value)`` as NumPy arrays: ``csc_array``'s
        ``(indptr, indices, data)``."""
        return (
            np.array(self.start, dtype=np.int32),
            np.array(self.index, dtype=np.int32),
            np.array(self.value, dtype=float),
        )


class _Outcome(NamedTuple):
    """One HiGHS run, in ``linprog``'s terms."""

    status: int
    message: str
    x: Optional[List[float]] = None
    objective: float = 0.0
    row_duals: Optional[List[float]] = None
    iterations: int = 0


def _run_highs(
    rung: int,
    model: "_highs.HighsLp",
    rhs: List[float],
    upper: List[float],
) -> _Outcome:
    """Solve ``model`` (a minimisation) on this thread's ``rung`` handle.

    ``passModel`` resets the handle's basis and solution, so the run
    starts from the state a fresh handle has.  Statuses and the
    post-solve feasibility check follow ``linprog`` exactly; the check
    compares Python floats, the same IEEE operations ``linprog``'s array
    comparisons make, without the fixed cost of NumPy calls on arrays of
    a dozen entries.
    """
    handle = _handle(rung)
    if handle.passModel(model).value == _ERROR:
        return _Outcome(2, "HiGHS rejected the model")
    run_failed = handle.run().value == _ERROR
    status = handle.getModelStatus()
    code = _STATUS_CODES.get(status.value, 4) or (4 if run_failed else 0)
    if code:
        return _Outcome(code, handle.modelStatusToString(status))
    solution = handle.getSolution()
    objective = handle.getObjectiveValue()
    x = solution.col_value  # a new list on every read
    if not _satisfies(x, upper, solution.row_value, rhs, objective):
        return _Outcome(
            4,
            "The solution does not satisfy the constraints within the "
            f"required tolerance of {_RESULT_TOLERANCE:.2E}",
        )
    # Two fields, not the whole info struct that getInfo() copies.
    iterations = (
        handle.getInfoValue("simplex_iteration_count")[1]
        or handle.getInfoValue("ipm_iteration_count")[1]
    )
    return _Outcome(
        0,
        "",
        x=x,
        objective=objective,
        row_duals=solution.row_dual,
        iterations=iterations,
    )


def _satisfies(
    x: List[float],
    upper: List[float],
    row_value: List[float],
    rhs: List[float],
    objective: float,
) -> bool:
    """Whether a reported optimum is within :data:`_RESULT_TOLERANCE` of
    its bounds ``0 <= x <= upper`` and rows ``row_value <= rhs``.  Each
    test is written so that a NaN fails it."""
    tolerance = _RESULT_TOLERANCE
    floor = -tolerance
    for value, bound in zip(x, upper):
        if not (value >= floor and value <= bound + tolerance):
            return False
    for bound, value in zip(rhs, row_value):
        if not (bound - value >= floor):
            return False
    return objective == objective


def _first_unusable(values: Sequence[float], usable: Callable[[float], bool]) -> Optional[int]:
    """The index of the first of ``values`` that is not ``usable``, if any."""
    return next((at for at, value in enumerate(values) if not usable(value)), None)


#: Test-only hook (see :mod:`repro.testing.faults`): called before every
#: solver attempt with ``(attempt_index, method)``; raising makes that
#: attempt fail and the chain continue.  ``None`` (the default) is free.
_solver_fault_hook: Optional[Callable[[int, str], None]] = None

#: Sentinel distinguishing "leave the upper bound alone" from "set it to
#: None (unbounded)" in :meth:`LinearProgram.set_column`.
_KEEP_BOUND = object()


def set_solver_fault_hook(
    hook: Optional[Callable[[int, str], None]],
) -> None:
    """Install (or with ``None`` remove) the solver fault-injection hook."""
    global _solver_fault_hook
    _solver_fault_hook = hook


@dataclass
class LpSolution:
    """Solved LP: the objective, the variable values and the row duals.

    The solve stores them by position, as HiGHS returns them: :attr:`x`
    in column order and :attr:`y` in row order.  :attr:`values`,
    :attr:`duals` and :attr:`slacks` are by-name views of them, built on
    first read from the names of the version this solution solved (a
    later ``add_column`` or ``add_constraint_*`` does not show in them).
    Two solutions are equal when their objective, positions and
    iteration counts are.
    """

    objective: float
    #: Variable values in column order.
    x: List[float]
    #: Dual values (shadow prices) of the ``<=`` rows, in row order.
    #: Used by column generation.
    y: List[float]
    #: Simplex/IPM iterations the solver reported (``None`` when
    #: unavailable).  A cached re-solve returns the original count.
    iterations: Optional[int]
    #: The solved version's right-hand sides, matrix and names: what
    #: :attr:`s`, the views and :meth:`LinearProgram.certificate` read.
    _inputs: _Input = field(repr=False, compare=False)

    def __getitem__(self, name: str) -> float:
        return self.values[name]

    @cached_property
    def values(self) -> Dict[str, float]:
        """Variable values by name."""
        return dict(zip(self._inputs.names, self.x))

    @cached_property
    def duals(self) -> Dict[str, float]:
        """Row duals by constraint name, when the solver reports them."""
        return dict(zip(self._inputs.row_names, self.y))

    @cached_property
    def s(self) -> List[float]:
        """Constraint slacks in row order, computed on first read.

        The distance from binding, computed from the program's own
        matrix as ``rhs - A @ x`` in the stored ``<=`` orientation.  For
        a ``>=`` row (stored negated) this equals the caller-orientation
        surplus, so ``slack ~ 0`` means *binding* for both senses.
        Being derived from the program rather than from solver
        internals, the definition is identical across the solver
        fallback chain (dual simplex and ``highs-ipm`` report the same
        slacks for the same ``x``).  The arrays are those of the version
        this solution solved, so later edits of the program do not
        change them.
        """
        inputs = self._inputs
        m, n = len(inputs.rhs), len(self.x)
        x = np.array(self.x)
        start, index, value = inputs.matrix()
        columns = np.repeat(np.arange(n), np.diff(start))
        if m * n <= _DENSE_CELL_LIMIT:
            dense = np.zeros((m, n))
            dense[index, columns] = value
            product = dense @ x
        else:
            # Each row's entries in ascending column order, as a sparse
            # ``A @ x`` adds them.
            product = np.bincount(
                index, weights=value * x[columns], minlength=m
            )
        return (np.asarray(inputs.rhs, dtype=float) - product).tolist()

    @cached_property
    def slacks(self) -> Dict[str, float]:
        """Constraint slacks (:attr:`s`) by constraint name."""
        return dict(zip(self._inputs.row_names, self.s))

    def binding_constraints(self, tolerance: float = 1e-9) -> List[str]:
        """Names of constraints binding at this solution.

        Slacks are nonnegative up to solver noise, so a row is binding
        when its slack is at most ``tolerance``; the list preserves
        constraint insertion order.
        """
        return [
            name
            for name, slack in zip(self._inputs.row_names, self.s)
            if slack <= tolerance
        ]


@dataclass(frozen=True)
class DualCertificate:
    """A checkable optimality certificate for a solved maximisation LP.

    For ``max c.x  s.t.  A x <= b, 0 <= x <= u`` (the stored orientation
    of :class:`LinearProgram`), LP duality gives ``min b.y + u.w  s.t.
    A'y + w >= c, y, w >= 0``.  The certificate evaluates the dual
    objective *from the reported duals alone* — choosing the bound
    multiplier ``w_j = max(0, c_j - (A'y)_j)`` for every finitely bounded
    variable, the cheapest dual-feasible completion — and records how far
    the pair is from textbook optimality:

    * :attr:`gap` — ``|primal - dual|``; zero at optimality.
    * :attr:`max_row_residual` — ``max_i |y_i * slack_i|``
      (complementary slackness on rows: a priced row must be binding).
    * :attr:`max_column_residual` — ``max_j`` of ``|x_j * r_j|`` when the
      reduced cost ``r_j = c_j - (A'y)_j`` is nonpositive (a variable
      with negative reduced cost must sit at its lower bound) and
      ``|(u_j - x_j) * r_j|`` when positive (it must sit at its upper
      bound).
    * :attr:`dual_infeasibility` — positive reduced cost on an
      *unbounded* variable, or a negative row dual; either means ``y``
      is not actually dual-feasible.

    All four vanish (to tolerance) iff the primal/dual pair proves
    optimality — a certificate any reviewer can re-check with one
    matrix-vector product, no solver required.
    """

    primal_objective: float
    dual_objective: float
    gap: float
    max_row_residual: float
    max_column_residual: float
    dual_infeasibility: float

    def valid(self, tolerance: float = 1e-6) -> bool:
        """Whether every residual is within ``tolerance`` (relative)."""
        limit = tolerance * max(1.0, abs(self.primal_objective))
        return (
            self.gap <= limit
            and self.max_row_residual <= limit
            and self.max_column_residual <= limit
            and self.dual_infeasibility <= limit
        )

    def to_dict(self) -> Dict[str, float]:
        """A JSON-ready mapping of the certificate's fields."""
        return {
            "primal_objective": self.primal_objective,
            "dual_objective": self.dual_objective,
            "gap": self.gap,
            "max_row_residual": self.max_row_residual,
            "max_column_residual": self.max_column_residual,
            "dual_infeasibility": self.dual_infeasibility,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, float]) -> "DualCertificate":
        return cls(
            primal_objective=float(payload["primal_objective"]),
            dual_objective=float(payload["dual_objective"]),
            gap=float(payload["gap"]),
            max_row_residual=float(payload["max_row_residual"]),
            max_column_residual=float(payload["max_column_residual"]),
            dual_infeasibility=float(payload["dual_infeasibility"]),
        )


class LinearProgram:
    """A named-variable maximisation LP.

    Usage::

        lp = LinearProgram()
        f = lp.add_variable("f", objective=1.0)
        lam = [lp.add_variable(f"lam_{i}") for i in range(m)]
        lp.add_constraint_le({v: 1.0 for v in lam}, 1.0, name="airtime")
        ...
        solution = lp.solve()

    All variables are non-negative with an optional upper bound, which is
    the shape of every formulation in the paper (time shares, throughputs).
    The solve maximises; internally the sign is flipped for HiGHS.
    """

    def __init__(self):
        self._names: List[str] = []
        self._index: Dict[str, int] = {}
        self._objective: List[float] = []
        self._upper: List[Optional[float]] = []
        # The constraint matrix in HiGHS's column-major form: column j's
        # row indices (ascending) and nonzero values (with the row's
        # sign) are ``_entry_rows``/``_entry_values[_start[j]:_start[j + 1]]``.
        self._start: List[int] = [0]
        self._entry_rows: List[int] = []
        self._entry_values: List[float] = []
        self._rhs: List[float] = []
        self._row_names: List[str] = []
        self._row_index: Dict[str, int] = {}
        #: +1 for a row stored as given (<=), -1 for a negated >= row;
        #: lets add_column accept coefficients in the caller's orientation.
        self._row_signs: List[float] = []
        # Mutation version: bumped by every state change; the solution
        # cache keys on it, so any mutation invalidates the last solution.
        self._version = 0
        self._solved_version: Optional[int] = None
        self._solution: Optional[LpSolution] = None
        # The HiGHS input model, the input it was last set from and its
        # upper bounds (which every solve's feasibility check reads).
        # ``None`` after a new variable or row: the next solve builds
        # them afresh.  Otherwise the next solve re-sets the sides (the
        # costs and bounds, the matrix or the right-hand sides) the edits
        # since the last one marked stale.
        self._model: Optional["_highs.HighsLp"] = None
        self._inputs: Optional[_Input] = None
        self._upper_bounds: List[float] = []
        self._stale_bounds = False
        self._stale_matrix = False
        self._stale_rhs = False
        # Why the current input cannot go to HiGHS (``None``: it can),
        # for the costs and bounds, the matrix and the right-hand sides.
        self._bounds_problem: Optional[str] = None
        self._matrix_problem: Optional[str] = None
        self._rhs_problem: Optional[str] = None

    @classmethod
    def _from_columns(cls, columns: tuple, matrix: tuple, rows: tuple) -> "LinearProgram":
        """A program built in one step from its stored lists.

        ``columns`` is ``(names, objectives, upper bounds)``, ``matrix``
        the ``(start, index, value)`` lists in the stored form (each
        column's rows ascending, values carrying the row's sign) and
        ``rows`` ``(names, right-hand sides, signs)``, each right-hand
        side with its row's sign applied.  The program takes the lists
        as they are.  A variable or constraint name given twice raises
        :class:`~repro.errors.SolverError` as ``add_variable`` and
        ``add_constraint_*`` do, and no program is returned.
        """
        lp = cls()
        lp._names, lp._objective, lp._upper = columns
        lp._start, lp._entry_rows, lp._entry_values = matrix
        lp._row_names, lp._rhs, lp._row_signs = rows
        for kind, names, index in (
            ("variable", lp._names, lp._index),
            ("constraint", lp._row_names, lp._row_index),
        ):
            index.update(zip(names, range(len(names))))
            if len(index) < len(names):
                name = next(n for at, n in enumerate(names) if names.index(n) < at)
                raise SolverError(f"duplicate LP {kind} {name!r}")
        return lp

    # -- construction -------------------------------------------------------------

    def add_variable(
        self,
        name: str,
        objective: float = 0.0,
        upper_bound: Optional[float] = None,
    ) -> str:
        """Register variable ``name`` ≥ 0; returns the name for chaining."""
        return self.add_column(name, {}, objective, upper_bound)

    @property
    def num_variables(self) -> int:
        return len(self._names)

    @property
    def num_constraints(self) -> int:
        return len(self._rhs)

    def has_variable(self, name: str) -> bool:
        return name in self._index

    def _column_of(self, name: str) -> int:
        """Variable ``name``'s column; raises when there is none."""
        column = self._index.get(name)
        if column is None:
            raise SolverError(f"unknown LP variable {name!r}")
        return column

    def _row_of(self, name: str) -> int:
        """Constraint ``name``'s row; raises when there is none."""
        row = self._row_index.get(name)
        if row is None:
            raise SolverError(f"unknown LP constraint {name!r}")
        return row

    def _add_row(
        self,
        coefficients: Dict[str, float],
        rhs: float,
        name: Optional[str],
        sign: float,
    ) -> str:
        row = len(self._rhs)
        columns = [self._column_of(var) for var in coefficients]
        if name is None:
            name = f"c{row}"
        if name in self._row_index:
            raise SolverError(f"duplicate LP constraint {name!r}")
        entries = sorted((j, sign * c) for j, c in zip(columns, coefficients.values()) if c != 0.0)
        # The new row, the largest index so far, goes at the end of each
        # column it touches (last column first, into copies of the
        # lists), and every later column starts that much further on.
        start, touched = self._start, [column for column, _ in entries]
        rows, values = self._entry_rows[:], self._entry_values[:]
        for column, value in reversed(entries):
            rows.insert(start[column + 1], row)
            values.insert(start[column + 1], value)
        self._start = [at + bisect_left(touched, j) for j, at in enumerate(start)]
        self._entry_rows, self._entry_values = rows, values
        self._rhs = self._rhs + [sign * rhs]
        self._row_names.append(name)
        self._row_index[name] = row
        self._row_signs.append(sign)
        self._model = None
        self._version += 1
        return name

    def add_constraint_le(
        self,
        coefficients: Dict[str, float],
        rhs: float,
        name: Optional[str] = None,
    ) -> str:
        """Add ``sum(coeff * var) <= rhs``; returns the constraint name.

        ``name`` defaults to ``c<row index>``.  A name already in use
        raises :class:`~repro.errors.SolverError`, as does an unknown
        variable; either way the program is left unchanged.
        """
        return self._add_row(coefficients, rhs, name, 1.0)

    def add_constraint_ge(
        self,
        coefficients: Dict[str, float],
        rhs: float,
        name: Optional[str] = None,
    ) -> str:
        """Add ``sum(coeff * var) >= rhs`` (stored negated as ``<=``)."""
        return self._add_row(coefficients, rhs, name, -1.0)

    def _stored_column(
        self, entries: Dict[str, float]
    ) -> Tuple[List[int], List[float]]:
        """``entries`` (constraint names to coefficients in each row's
        original orientation) as one stored column: rows ascending,
        nonzero values with the row's sign applied."""
        pairs = sorted(
            (self._row_of(row_name), coeff)
            for row_name, coeff in entries.items()
        )
        signs = self._row_signs
        kept = [
            (row, signs[row] * coeff) for row, coeff in pairs if coeff != 0.0
        ]
        return [row for row, _ in kept], [value for _, value in kept]

    def add_column(
        self,
        name: str,
        entries: Dict[str, float],
        objective: float = 0.0,
        upper_bound: Optional[float] = None,
    ) -> str:
        """Add a variable with coefficients in *existing* constraints.

        ``entries`` maps constraint names to the variable's coefficient in
        the constraint's original orientation (the ``<=`` or ``>=`` form it
        was added with); the stored sign is applied here.  This is the
        incremental path column generation uses to grow the master problem
        without rebuilding it.
        """
        rows, values = self._stored_column(entries)
        if name in self._index:
            raise SolverError(f"duplicate LP variable {name!r}")
        self._index[name] = len(self._names)
        self._names.append(name)
        self._objective.append(objective)
        self._upper.append(upper_bound)
        self._start = self._start + [self._start[-1]]
        self._splice_column(len(self._names) - 1, rows, values)
        self._model = None
        return name

    def _splice_column(self, column: int, rows: List[int], values: List[float]) -> None:
        """Replace ``column``'s slice of the matrix lists with a stored
        column, in new lists: the old ones may belong to a solution."""
        start, begin, end = self._start, self._start[column], self._start[column + 1]
        self._entry_rows = self._entry_rows[:begin] + rows + self._entry_rows[end:]
        self._entry_values = self._entry_values[:begin] + values + self._entry_values[end:]
        shift = len(rows) - (end - begin)
        self._start = start[:column + 1] + [at + shift for at in start[column + 1:]]
        self._stale_matrix = True
        self._version += 1

    def set_column(
        self,
        name: str,
        entries: Dict[str, float],
        objective: Optional[float] = None,
        upper_bound: object = _KEEP_BOUND,
    ) -> str:
        """Replace an *existing* variable's constraint coefficients.

        ``entries`` is interpreted exactly as in :meth:`add_column`
        (constraint names to coefficients in each row's original
        orientation); the variable's previous entries are discarded
        first, so absent rows become zeros.  ``objective`` replaces the
        variable's objective coefficient when given; ``upper_bound``
        (``None`` = unbounded) replaces the variable's bound — omitted,
        the bound stays, so warm-start retargeting is unaffected.  This
        is the serving layer's warm-start primitive: a cached master LP
        is retargeted at a new query path by rewriting one column
        instead of rebuilding every row, and it restores a column
        masked by :meth:`retire_column`.
        """
        column = self._column_of(name)
        self._splice_column(column, *self._stored_column(entries))
        if objective is not None:
            self._objective[column] = objective
            self._stale_bounds = True
        if upper_bound is not _KEEP_BOUND:
            self._upper[column] = upper_bound  # type: ignore[assignment]
            self._stale_bounds = True
        return name

    def retire_column(self, name: str) -> Dict[str, object]:
        """Mask variable ``name`` out of the program, returning its state.

        The column's entries are cleared, its objective zeroed and its
        upper bound pinned to ``0.0`` — the solver then sees a program
        in which the variable cannot carry value, without renumbering
        the surviving columns: the column stops contributing while the
        program's shape is preserved.

        Returns the snapshot ``{"entries", "objective", "upper_bound"}``
        with entries in each row's *original* orientation, so
        ``lp.set_column(name, **snapshot)`` re-admits the column
        exactly as it was.
        """
        column = self._column_of(name)
        begin, end = self._start[column], self._start[column + 1]
        snapshot: Dict[str, object] = {
            "entries": {
                self._row_names[row]: self._row_signs[row] * value
                for row, value in zip(self._entry_rows[begin:end], self._entry_values[begin:end])
            },
            "objective": self._objective[column],
            "upper_bound": self._upper[column],
        }
        self._splice_column(column, [], [])
        self._objective[column] = 0.0
        self._upper[column] = 0.0
        self._stale_bounds = True
        get_recorder().count("lp.column_retirements")
        return snapshot

    def set_rhs(self, name: str, rhs: float) -> str:
        """Replace constraint ``name``'s right-hand side.

        ``rhs`` is given in the constraint's original orientation (the
        ``<=`` or ``>=`` form it was added with); the stored sign is
        applied here, mirroring :meth:`add_column`.  The constraint
        matrix is untouched — updating a demand row on a warm master LP
        costs one copied list, plus new row bounds for the input model
        and the re-solve.
        """
        row = self._row_of(name)
        self._set_rhs_from(row, (rhs,))
        return name

    def _set_rhs_from(self, first: int, values: Sequence[float]) -> None:
        """Replace the right-hand sides of rows ``first``,
        ``first + 1``, ... with ``values`` (each in its row's original
        orientation, as :meth:`set_rhs` takes it), in one new list: the
        old one may belong to a solution."""
        stop = first + len(values)
        rhs = self._rhs[:first]
        rhs += map(mul, self._row_signs[first:stop], values)
        rhs += self._rhs[stop:]
        self._rhs = rhs
        self._stale_rhs = True
        self._version += 1

    # -- certificates ----------------------------------------------------------------

    def certificate(self) -> DualCertificate:
        """Build the :class:`DualCertificate` for this program's optimum.

        Solves first when needed (an already-solved program reuses its
        cached solution), then evaluates the dual objective and the
        complementary-slackness residuals from the solved version's
        arrays — one sparse transpose-vector product.  The cost lands on
        the ``explain.certificate_seconds`` histogram and the
        ``explain.certificates`` counter.
        """
        solution = self.solve()
        recorder = get_recorder()
        started = time.perf_counter()
        inputs = solution._inputs
        n = len(self._names)
        x = np.array(solution.x)
        c = np.asarray(self._objective, dtype=float)
        y = np.array(solution.y)
        slack = np.array(solution.s)
        max_row_residual = float(np.max(np.abs(y * slack), initial=0.0))
        dual_objective = float(np.dot(np.asarray(inputs.rhs, dtype=float), y))
        # bincount adds each column's entries in ascending row order, the
        # order a sparse ``A.T @ y`` adds them in.
        start, index, value = inputs.matrix()
        columns = np.repeat(np.arange(n), np.diff(start))
        reduced = c - np.bincount(
            columns, weights=value * y[index], minlength=n
        )
        dual_infeasibility = max(0.0, -float(np.min(y, initial=0.0)))
        max_column_residual = 0.0
        for column, upper in enumerate(self._upper):
            price = float(reduced[column])
            if price > 0.0:
                # Positive reduced cost: the variable must be driven to
                # its upper bound (or the dual is infeasible when there
                # is none to drive it to).
                if upper is None:
                    dual_infeasibility = max(dual_infeasibility, price)
                else:
                    dual_objective += upper * price
                    max_column_residual = max(
                        max_column_residual, abs((upper - x[column]) * price)
                    )
            else:
                max_column_residual = max(
                    max_column_residual, abs(x[column] * price)
                )
        certificate = DualCertificate(
            primal_objective=solution.objective,
            dual_objective=dual_objective,
            gap=abs(dual_objective - solution.objective),
            max_row_residual=max_row_residual,
            max_column_residual=max_column_residual,
            dual_infeasibility=dual_infeasibility,
        )
        recorder.histogram(
            "explain.certificate_seconds", time.perf_counter() - started
        )
        recorder.count("explain.certificates")
        return certificate

    # -- the HiGHS input ---------------------------------------------------------------

    def _column_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The constraint matrix as column-major ``(start, index, value)``
        arrays: HiGHS's ``a_matrix_`` and ``csc_array``'s ``(indptr,
        indices, data)``, as the next solve hands them to HiGHS."""
        return self._input().matrix()

    def _input(self) -> _Input:
        """The current version's input, with the input model set from
        it: built afresh after a new variable or row; otherwise the
        sides that edits since the last call left stale are set on the
        kept model."""
        model = self._model
        start, index, value = self._start, self._entry_rows, self._entry_values
        rhs = self._rhs
        if model is None:
            cost, upper = self._costs_and_bounds()
            self._model = _highs_lp(cost, start, index, value, rhs, upper)
            self._check_bounds(cost, upper)
            self._check_matrix(value)
            self._check_rhs(rhs)
            names, row_names = tuple(self._names), tuple(self._row_names)
        else:
            names, row_names = self._inputs.names, self._inputs.row_names
            if self._stale_bounds:
                cost, upper = self._costs_and_bounds()
                model.col_cost_ = cost
                model.col_upper_ = upper
                self._check_bounds(cost, upper)
            if self._stale_matrix:
                matrix = model.a_matrix_
                matrix.start_ = start
                matrix.index_ = index
                matrix.value_ = value
                self._check_matrix(value)
            if self._stale_rhs:
                model.row_upper_ = rhs
                self._check_rhs(rhs)
        inputs = self._inputs = _Input(rhs, start, index, value, names, row_names)
        return inputs

    def _costs_and_bounds(self) -> Tuple[List[float], List[float]]:
        """The HiGHS costs (the objective negated) and upper bounds
        (``inf`` for ``None``); the upper bounds are kept for the
        feasibility check of every solve."""
        upper = [math.inf if bound is None else float(bound) for bound in self._upper]
        self._upper_bounds = upper
        return [-float(objective) for objective in self._objective], upper

    def _check_bounds(self, cost: List[float], upper: List[float]) -> None:
        """Record why the costs or upper bounds cannot go to HiGHS
        (``None``: they can): the first NaN or infinite cost, else the
        first NaN or ``-inf`` upper bound (``+inf`` and ``None`` mean
        unbounded).  They are then up to date."""
        self._bounds_problem, self._stale_bounds = None, False
        # A finite sum proves every cost finite, and a sum above -inf
        # every bound above it (a NaN fails the comparison); only a
        # failed test (or an overflow) needs the entry-wise look.
        if math.isfinite(sum(cost)) and sum(upper) > -math.inf:
            return
        for what, given, stored, usable in (
            ("objective coefficient", cost, self._objective, math.isfinite),
            ("upper bound", upper, self._upper, lambda bound: bound > -math.inf),
        ):
            at = _first_unusable(given, usable)
            if at is not None:
                self._bounds_problem = f"{what} of {self._names[at]!r} is {stored[at]!r}"
                return

    def _check_matrix(self, value: List[float]) -> None:
        """Record why the constraint coefficients cannot go to HiGHS,
        naming the first NaN or infinite one's column (``None``: they
        can); they are then up to date."""
        self._matrix_problem, self._stale_matrix = None, False
        if math.isfinite(sum(value)):
            return
        at = _first_unusable(value, math.isfinite)
        if at is not None:
            # An entry's column is the last one starting at or before it.
            column = bisect_right(self._start, at) - 1
            self._matrix_problem = (
                f"a constraint coefficient of {self._names[column]!r} is {value[at]!r}"
            )

    def _check_rhs(self, rhs: List[float]) -> None:
        """Record whether the right-hand sides can go to HiGHS, naming
        the first NaN or infinite one in its constraint's original
        orientation; they are then up to date."""
        self._rhs_problem, self._stale_rhs = None, False
        if math.isfinite(sum(rhs)):
            return
        row = _first_unusable(rhs, math.isfinite)
        if row is not None:
            self._rhs_problem = (
                f"right-hand side of {self._row_names[row]!r} is "
                f"{self._row_signs[row] * rhs[row]!r}"
            )

    # -- solving ---------------------------------------------------------------------

    def solve(self) -> LpSolution:
        """Maximise the objective; raise on infeasibility or solver failure.

        An unchanged program (no mutation since the last successful
        solve) returns the previous :class:`LpSolution` without calling
        the solver, counted as ``lp.cache_hits`` instead of
        ``lp.solves``.  Callers must treat the returned solution as
        immutable.  A NaN or infinite cost, coefficient or right-hand
        side, or a NaN or ``-inf`` upper bound, raises
        :class:`~repro.errors.SolverError` before any solver attempt
        (one ``lp.failures``, no ``lp.retries``).
        """
        n = len(self._names)
        if n == 0:
            raise SolverError("LP has no variables")
        recorder = get_recorder()
        if self._solution is not None and self._solved_version == self._version:
            recorder.count("lp.cache_hits")
            return self._solution
        recorder.count("lp.solves")
        recorder.gauge("lp.rows", len(self._rhs))
        recorder.gauge("lp.cols", n)
        inputs = self._input()
        recorder.gauge("lp.nnz", len(inputs.value))
        problem = self._bounds_problem or self._matrix_problem or self._rhs_problem
        if problem is not None:
            recorder.count("lp.failures")
            raise SolverError(f"LP input is not usable: {problem}")
        attempts: List[SolverAttempt] = []
        for attempt_index, (method, options) in enumerate(
            SOLVER_ATTEMPT_CHAIN
        ):
            if attempt_index:
                recorder.count("lp.retries")
            try:
                if _solver_fault_hook is not None:
                    _solver_fault_hook(attempt_index, method)
                with recorder.span("lp.solve"):
                    result = _run_highs(
                        attempt_index, self._model, inputs.rhs, self._upper_bounds
                    )
            except (InfeasibleProblemError, SolverError):
                raise
            except Exception as error:
                attempts.append(
                    SolverAttempt(
                        method,
                        options,
                        message=f"{type(error).__name__}: {error}",
                    )
                )
                continue
            if result.status == 2:
                raise InfeasibleProblemError(
                    "LP is infeasible: the background demands cannot all be "
                    "delivered by any schedule"
                )
            if result.status == 3:
                raise SolverError(
                    "LP is unbounded — a constraint is missing"
                )
            if result.status:
                attempts.append(
                    SolverAttempt(
                        method,
                        options,
                        status=result.status,
                        message=result.message,
                    )
                )
                continue
            if attempt_index:
                recorder.count("lp.fallbacks")
            solution = LpSolution(
                objective=-result.objective,
                x=result.x,
                y=[-dual for dual in result.row_duals],
                iterations=int(result.iterations or 0),
                _inputs=inputs,
            )
            self._solution = solution
            self._solved_version = self._version
            return solution
        recorder.count("lp.failures")
        detail = "; ".join(
            f"{attempt.method}: {attempt.message}" for attempt in attempts
        )
        raise SolverError(
            f"LP solver failed after {len(attempts)} attempts ({detail})",
            attempts=attempts,
        )
