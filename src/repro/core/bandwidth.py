"""Available path bandwidth — the paper's core model (Section 2.5, Eq. 6).

Given background flows with known paths and demands, and a candidate new
path, :func:`available_path_bandwidth` computes the maximum throughput the
new path can carry while every background demand stays deliverable,
assuming a globally optimal link scheduling.  The LP's columns are the
maximal independent sets with maximum rate vectors of the involved links
(Prop. 3); the solution is returned together with an explicit, executable
:class:`~repro.core.schedule.LinkSchedule`.

Also here:

* :func:`min_airtime_schedule` — the cheapest schedule delivering a demand
  vector (used to model optimally scheduled background traffic and derive
  per-node idleness for Section 4's estimators);
* :func:`joint_admission_scale` — the "several flows join simultaneously"
  extension mentioned at the end of Section 2.5;
* :class:`TimeShareProgram` — the one layout every LP in
  :mod:`repro.core` shares (Eq. 4 and Eq. 6), and the only code that
  knows it: it grows, retargets and edits the program and reads its
  solutions by position, so no caller spells or parses a row name.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.independent_sets import (
    ColumnFamily,
    RateIndependentSet,
    _mask_members,
    enumerate_maximal_independent_sets,
)
from repro.core.lp import LinearProgram, LpSolution
from repro.core.schedule import (
    _DROP_BELOW,
    _EPS,
    LinkSchedule,
    ScheduleEntry,
    _check_airtime,
    _check_time_share,
)
from repro.errors import InfeasibleProblemError, SolverError
from repro.interference.base import InterferenceModel, LinkRate
from repro.net.link import Link
from repro.net.path import Path

__all__ = [
    "PathBandwidthResult",
    "TimeShareProgram",
    "available_path_bandwidth",
    "build_path_bandwidth_lp",
    "path_bandwidth_from_solution",
    "min_airtime_schedule",
    "tdma_schedule",
    "joint_admission_scale",
    "link_demands_from_paths",
]


def _check_demand(demand: float, kind: str, owner: object) -> None:
    """Reject a NaN, infinite or negative demand on ``kind`` ``owner``."""
    if not math.isfinite(demand):
        raise InfeasibleProblemError(
            f"non-finite demand {demand} on {kind} {owner}"
        )
    if demand < 0:
        raise InfeasibleProblemError(
            f"negative demand {demand} on {kind} {owner}"
        )


def link_demands_from_paths(
    background: Sequence[Tuple[Path, float]],
) -> Dict[Link, float]:
    """Per-link demand (Mbps) induced by end-to-end path demands.

    A path with demand ``x`` loads every one of its links with ``x``
    (Eq. 6's ``x_k I(P_k)`` terms); links shared by several paths add up.
    """
    demands: Dict[Link, float] = {}
    for path, demand in background:
        _check_demand(demand, "path", path)
        for link in path:
            demands[link] = demands.get(link, 0.0) + demand
    return demands


def _collect_links(
    background: Sequence[Tuple[Path, float]],
    new_path: Optional[Path] = None,
) -> List[Link]:
    """The paper's ``P``: union of all involved paths' links, stable order."""
    seen: Dict[str, Link] = {}
    for path, _demand in background:
        for link in path:
            seen.setdefault(link.link_id, link)
    if new_path is not None:
        for link in new_path:
            seen.setdefault(link.link_id, link)
    return list(seen.values())


# -- the time-share LP family (Eq. 4 and Eq. 6) ---------------------------------
#
# Every LP in repro.core has one time share λ per rate-coupled independent
# set and one delivery row per link, Σ λ·r ≥ rhs.  Two shapes exist: with a
# lead variable (f, θ or t) the program maximises it within one period
# (an ``airtime`` row Σλ ≤ 1); without one it minimises total airtime.
# Columns travel as a ColumnFamily: the LP is read off its couple masks,
# and a set is built only for a column the solution schedules.

#: ``lambda_<i>`` by index, interned: every cached master LP shares them.
#: It grows to the largest family assembled so far.
_LAMBDA_NAMES: List[str] = []


@lru_cache(maxsize=None)
def _demand_row(link_id: str) -> str:
    """Name of a link's delivery row in every time-share LP.

    Interned and kept per link id (one entry per link id ever asked
    for), like the λ names: the cached master LPs all share them.
    """
    return sys.intern(f"demand[{link_id}]")


def _lambda_names(count: int) -> List[str]:
    """The names of the first ``count`` λ columns."""
    global _LAMBDA_NAMES
    names = _LAMBDA_NAMES
    if len(names) < count:
        # Replaced, never appended to, and read through the local: a
        # thread that replaces it concurrently cannot shorten this list.
        new = [sys.intern(f"lambda_{index}") for index in range(len(names), count)]
        names = _LAMBDA_NAMES = names + new
    return names[:count]


def _columns_for(
    model: InterferenceModel,
    links: Sequence[Link],
    independent_sets: Optional[Sequence[RateIndependentSet]],
    max_sets: Optional[int] = None,
) -> ColumnFamily:
    """The caller's LP columns, else every maximal independent set."""
    if independent_sets is None:
        return enumerate_maximal_independent_sets(model, links, max_sets)
    return ColumnFamily.of(independent_sets)


def _time_share_lp(
    columns: Sequence[RateIndependentSet],
    links: Sequence[Link],
    rhs: Dict[Link, float],
    lead: Optional[str] = None,
    lead_entries: Optional[Dict[Link, float]] = None,
    lead_bound: Optional[float] = None,
    artificial_penalty: Optional[float] = None,
) -> TimeShareProgram:
    """Assemble a time-share LP over ``columns`` as a :class:`TimeShareProgram`.

    Variables in order: ``lead`` (objective 1, upper bound ``lead_bound``)
    when given, then ``lambda_<i>`` per column (objective 0 with a lead,
    −1 without, i.e. minimise airtime), then with ``artificial_penalty``
    one ``artificial[<link>]`` surplus per row at that cost.  Rows: the
    ``airtime`` row when there is a lead, then one ``>= rhs[link]`` row
    per link in ``links`` order, named by :func:`_demand_row`, where the
    lead has coefficient ``lead_entries[link]``.

    The matrix is written in the program's stored form in one pass over
    the family's masks, exactly as the row-by-row build stores it: each
    column's rows ascending, ``>=`` rows negated, zero coefficients and
    couples on links outside ``links`` left out (of two couples of one
    link in a column, the later one counts).  ``links`` must not repeat
    a link id: the duplicate row name raises.
    """
    family = ColumnFamily.of(columns)
    leads = [] if lead is None else [lead]
    first = len(leads)  # the first demand row: row 0 is airtime with a lead
    airtime, ones = [0] * first, [1.0] * first  # a λ's airtime entry, if any
    row_of = {link.link_id: row for row, link in enumerate(links, first)}
    # Per couple: its stored (row, -Mbps) entry, None when it has none.
    couple_entries = [
        (row_of[couple.link.link_id], -couple.rate.mbps)
        if couple.link.link_id in row_of and couple.rate.mbps > 0.0
        else None
        for couple in family.couples
    ]
    lead_entries = lead_entries if leads and lead_entries else {}
    entry_rows = [row for row, link in enumerate(links, 1) if lead_entries.get(link, 0.0) != 0.0]
    entry_values = [-lead_entries[links[row - 1]] for row in entry_rows]
    start = [0] + [len(entry_rows)] * first
    # A column's entries in bit order are in row order when the couples
    # are (enumerated families' are); otherwise they are sorted stably,
    # so that of two couples of one link the later one counts.
    rows_in_bit_order = [entry[0] for entry in filter(None, couple_entries)]
    in_row_order = rows_in_bit_order == sorted(rows_in_bit_order)
    for mask in family.masks:
        entries = filter(None, _mask_members(mask, couple_entries))
        column = dict(entries if in_row_order else sorted(entries, key=itemgetter(0)))
        entry_rows += [*airtime, *column]
        entry_values += [*ones, *column.values()]
        start.append(len(entry_rows))
    penalized = links if artificial_penalty is not None else ()
    artificials = [f"artificial[{link.link_id}]" for link in penalized]
    entry_rows += range(first, first + len(artificials))
    entry_values += [-1.0] * len(artificials)
    start += range(start[-1] + 1, start[-1] + 1 + len(artificials))
    lambda_vars = _lambda_names(len(family))
    lp = LinearProgram._from_columns(
        (
            leads + lambda_vars + artificials,
            [1.0] * first
            + [0.0 if leads else -1.0] * len(family)
            + [-artificial_penalty for _ in artificials],
            [lead_bound] * first + [None] * (len(family) + len(artificials)),
        ),
        (start, entry_rows, entry_values),
        (
            ["airtime"] * first + [_demand_row(link.link_id) for link in links],
            [1.0] * first + [-1.0 * rhs.get(link, 0.0) for link in links],
            [1.0] * first + [-1.0] * len(links),
        ),
    )
    at = first + len(family)  # the first artificial's column
    return TimeShareProgram(lp, family, links, lead, slice(at, at + len(artificials)))


class TimeShareProgram:
    """A time-share LP of :func:`_time_share_lp` and the layout it has.

    ``lp`` is the program, ``columns`` the
    :class:`~repro.core.independent_sets.ColumnFamily` whose masks are its
    λ columns in order, ``links`` the links of its demand rows in row
    order and ``lead`` the lead variable's name (``None`` without one).
    Columns: the lead, the family's first λs, the artificial surpluses,
    then the λs :meth:`add_column` grew; rows: ``airtime`` with a lead,
    then one demand row per link.  This class is the only code that
    knows that layout: it grows the program through
    :class:`~repro.core.lp.LinearProgram`'s named edits, retargets the
    lead and writes the demand rows by position, and reads a solution by
    position.
    """

    __slots__ = ("lp", "columns", "links", "lead", "_first", "_artificials", "_rows")

    def __init__(
        self,
        lp: LinearProgram,
        columns: ColumnFamily,
        links: Sequence[Link],
        lead: Optional[str],
        artificials: slice,
    ):
        self.lp = lp
        self.columns = columns
        self.links: Tuple[Link, ...] = tuple(links)
        self.lead = lead
        # The lead's column and the airtime row come first when there is a lead.
        self._first = 0 if lead is None else 1
        self._artificials = artificials
        # Link id -> demand row, made on the first retarget.
        self._rows: Optional[Dict[str, int]] = None

    # -- edits ---------------------------------------------------------------------

    def add_column(self, mask: int) -> None:
        """Grow the program by one λ column: the couples of ``mask``."""
        family = self.columns
        name = _lambda_names(len(family) + 1)[-1]
        entries = {
            _demand_row(couple.link.link_id): couple.rate.mbps
            for couple in _mask_members(mask, family.couples)
        }
        if self.lead is None:
            self.lp.add_column(name, entries, objective=-1.0)
        else:
            self.lp.add_column(name, {"airtime": 1.0, **entries})
        self.columns = ColumnFamily(family.couples, family.masks + (mask,))

    def retarget(self, link_ids: Iterable[str]) -> None:
        """Put the lead on the links ``link_ids``: coefficient −1 in their
        demand rows and 0 in every other row, as Eq. 6 puts ``f`` on the
        new path's links.  The rows are found by link id and the column
        is written in the stored form (the ``>=`` rows' −1 negated), as
        :meth:`~repro.core.lp.LinearProgram.set_column` would store it."""
        if self.lead is None:
            raise SolverError("a time-share LP without a lead has nothing to retarget")
        rows = self._rows
        if rows is None:
            rows = self._rows = {link.link_id: row for row, link in enumerate(self.links, self._first)}
        try:
            column = sorted({rows[link_id] for link_id in link_ids})
        except KeyError as error:
            raise SolverError(f"unknown LP constraint {_demand_row(error.args[0])!r}") from None
        self.lp._splice_column(0, column, [1.0] * len(column))

    def set_demands(self, demands: Sequence[float]) -> None:
        """Set every demand row's right-hand side, ``demands`` in
        ``links`` order: one new list of right-hand sides, written by
        position, bit for bit what ``set_rhs`` on each row writes."""
        self.lp._set_rhs_from(self._first, demands)

    # -- positional reads of a solution ----------------------------------------------

    def bandwidth(self, solution: LpSolution) -> float:
        """The optimum as a bandwidth: the solver's noise around a zero
        optimum (e.g. -0.0 or -1e-17 when the background saturates the
        channel) reads 0, since a bandwidth is never negative."""
        value = solution.objective
        return 0.0 if -1e-9 < value <= 0.0 else value

    def shares(self, solution: LpSolution) -> List[float]:
        """The λ of every column ``solution`` solved, in column order."""
        x, artificials = solution.x, self._artificials
        return x[self._first:artificials.start] + x[artificials.stop:]

    def scheduled_shares(
        self, solution: LpSolution, scale: float = 1.0
    ) -> List[Tuple[int, float]]:
        """``(column, λ · scale)`` for every column a schedule of
        ``solution`` keeps (a share above ``_DROP_BELOW``), checked as a
        :class:`~repro.core.schedule.LinkSchedule` checks its entries:
        a non-finite share, a negative one beyond ``_EPS`` or a total
        over one period raises :class:`~repro.errors.ScheduleError`."""
        kept = []
        for index, value in enumerate(self.shares(solution)):
            share = value * scale
            if not -_EPS <= share < math.inf:  # a NaN fails it too
                _check_time_share(share)
            if share > _DROP_BELOW:
                kept.append((index, share))
        _check_airtime(sum(share for _index, share in kept))
        return kept

    def schedule(self, solution: LpSolution, scale: float = 1.0) -> LinkSchedule:
        """The schedule ``solution``'s λs (times ``scale``) describe,
        checked now (:meth:`scheduled_shares`); the kept columns' sets
        are built only when the schedule is read."""
        return LinkSchedule._of_columns(self.columns, self.scheduled_shares(solution, scale))

    def link_duals(self, solution: LpSolution) -> List[float]:
        """The demand rows' duals, in ``links`` order."""
        return solution.y[self._first:]

    def link_slacks(self, solution: LpSolution) -> List[float]:
        """The demand rows' slacks, in ``links`` order."""
        return solution.s[self._first:]

    def airtime_dual(self, solution: LpSolution) -> float:
        """The airtime row's dual; 0 without a lead (there is no row)."""
        return solution.y[0] if self._first else 0.0

    def artificial_surplus(self, solution: LpSolution) -> float:
        """The demand the artificial surpluses deliver (0 without them)."""
        return sum(solution.x[self._artificials])


@dataclass
class PathBandwidthResult:
    """Outcome of the Eq. 6 optimisation."""

    #: Maximum supportable throughput f_{K+1} on the new path, in Mbps.
    available_bandwidth: float
    #: An optimal schedule realising it (background + new flow together).
    schedule: LinkSchedule
    #: The LP columns (maximal independent sets) the model considered, as
    #: a :class:`~repro.core.independent_sets.ColumnFamily`: a read-only
    #: sequence whose sets are built when read.
    independent_sets: Sequence[RateIndependentSet]
    #: Per-link demand of the background traffic alone.
    background_demands: Dict[Link, float]

    def supports(self, demand_mbps: float, tolerance: float = 1e-6) -> bool:
        """Admission test: can the new path carry ``demand_mbps``?"""
        return self.available_bandwidth + tolerance >= demand_mbps


def available_path_bandwidth(
    model: InterferenceModel,
    new_path: Path,
    background: Sequence[Tuple[Path, float]] = (),
    independent_sets: Optional[Sequence[RateIndependentSet]] = None,
    max_sets: Optional[int] = None,
) -> PathBandwidthResult:
    """Solve Eq. 6: maximum new-path throughput preserving background demands.

    Args:
        model: Interference model of the network.
        new_path: The candidate path ``P_{K+1}``.
        background: Existing flows as (path, demand-in-Mbps) pairs.
        independent_sets: Pre-enumerated LP columns; passing a *subset* of
            all maximal independent sets turns the result into the paper's
            Section 3.3 **lower bound** (the restricted solution space can
            only shrink the optimum).  ``None`` enumerates all of them.
        max_sets: Enumeration safety cap (see
            :func:`~repro.core.independent_sets.enumerate_maximal_independent_sets`).

    Raises:
        InfeasibleProblemError: when the background demands alone are not
            schedulable — no available-bandwidth question is then well
            posed.
    """
    links = _collect_links(background, new_path)
    columns = _columns_for(model, links, independent_sets, max_sets)
    demands = link_demands_from_paths(background)
    program = build_path_bandwidth_lp(columns, links, demands, set(new_path.links))
    return path_bandwidth_from_solution(program, program.lp.solve(), demands)


def build_path_bandwidth_lp(
    columns: Sequence[RateIndependentSet],
    links: Sequence[Link],
    demands: Dict[Link, float],
    new_links: set,
) -> TimeShareProgram:
    """Assemble the Eq. 6 master LP, lead ``f``.

    Split out of :func:`available_path_bandwidth` so the serving layer
    (:mod:`repro.serve`) can build the program once per topology
    fingerprint and warm-start it for later query paths
    (:meth:`TimeShareProgram.retarget` and
    :meth:`~TimeShareProgram.set_demands`) — both callers construct the
    identical program, so cold and warm answers agree exactly.
    """
    return _time_share_lp(columns, links, demands, "f", dict.fromkeys(new_links, -1.0))


def path_bandwidth_from_solution(
    program: TimeShareProgram,
    solution: LpSolution,
    demands: Dict[Link, float],
) -> PathBandwidthResult:
    """Package a solved Eq. 6 master LP as a :class:`PathBandwidthResult`."""
    schedule = program.schedule(solution)
    return PathBandwidthResult(
        available_bandwidth=program.bandwidth(solution),
        schedule=schedule,
        independent_sets=program.columns,
        background_demands=demands,
    )


def min_airtime_schedule(
    model: InterferenceModel,
    background: Sequence[Tuple[Path, float]],
    independent_sets: Optional[Sequence[RateIndependentSet]] = None,
    max_sets: Optional[int] = None,
) -> LinkSchedule:
    """Cheapest schedule delivering the background demands.

    Minimises total airtime Σλ subject to Eq. 4's delivery constraint.
    This models optimally scheduled background traffic: the resulting
    schedule leaves as much of the channel idle as possible, and its
    per-node busy shares feed the idle-time estimators of Section 4.

    Raises:
        InfeasibleProblemError: when even the whole period (Σλ = 1) cannot
            deliver the demands.
    """
    links = _collect_links(background)
    if not links:
        return LinkSchedule(())
    columns = _columns_for(model, links, independent_sets, max_sets)
    program = _time_share_lp(columns, links, link_demands_from_paths(background))
    solution = program.lp.solve()
    total_airtime = -solution.objective
    if total_airtime > 1.0 + 1e-9:
        raise InfeasibleProblemError(
            f"background demands need {total_airtime:.4f} > 1 units of "
            "airtime",
            residual=total_airtime - 1.0,
        )
    return program.schedule(solution)


def tdma_schedule(
    model: InterferenceModel,
    background: Sequence[Tuple[Path, float]],
) -> LinkSchedule:
    """A fully serialised schedule: every link transmits in its own slot.

    Models the paper's Scenario I starting point — contention-based MAC
    behaviour where transmissions do not overlap in time even when they
    could.  Each link of each background path gets a dedicated slot at the
    link's maximum standalone rate, sized to carry that path's demand.
    Feeding the resulting per-node idleness to the Section 4 estimators
    reproduces the pessimistic ``1 − 2λ`` idle-time admission decision,
    against the optimum's ``1 − λ``.

    Raises:
        InfeasibleProblemError: when the serialised slots alone exceed one
            period.
    """
    demands = link_demands_from_paths(background)
    entries = []
    for link, demand in demands.items():
        if demand <= 0.0:
            continue
        rate = model.max_standalone_rate(link)
        if rate is None:
            raise InfeasibleProblemError(
                f"link {link.link_id!r} supports no rate"
            )
        column = RateIndependentSet(frozenset({LinkRate(link, rate)}))
        entries.append(ScheduleEntry(column, demand / rate.mbps))
    total = sum(entry.time_share for entry in entries)
    if total > 1.0 + 1e-9:
        raise InfeasibleProblemError(
            f"serialised background needs {total:.4f} > 1 units of airtime",
            residual=total - 1.0,
        )
    return LinkSchedule(entries)


def joint_admission_scale(
    model: InterferenceModel,
    flows: Sequence[Tuple[Path, float]],
    independent_sets: Optional[Sequence[RateIndependentSet]] = None,
    max_sets: Optional[int] = None,
) -> Tuple[float, LinkSchedule]:
    """Largest common scale θ such that every flow can carry θ·demand.

    The multi-flow extension sketched at the end of Section 2.5: all flows
    join simultaneously and fairness is proportional to their demands.
    ``θ ≥ 1`` means the whole batch is admissible as asked.

    Returns:
        (θ, optimal schedule at θ); ``(inf, empty schedule)`` when no flow
        has a positive demand, since nothing then limits θ.
    """
    links = _collect_links(flows)
    demands = link_demands_from_paths(flows)
    loaded = {link: -demand for link, demand in demands.items() if demand > 0.0}
    if not loaded:
        return float("inf"), LinkSchedule(())
    columns = _columns_for(model, links, independent_sets, max_sets)
    # Row θ·d_l ≤ Σλ·r_l per loaded link: the delivery row with rhs 0 and
    # the lead θ at −d_l.
    program = _time_share_lp(
        columns, [link for link in links if link in loaded], {}, "theta", loaded
    )
    solution = program.lp.solve()
    return solution.objective, program.schedule(solution)
