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
  extension mentioned at the end of Section 2.5.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.independent_sets import (
    ColumnFamily,
    RateIndependentSet,
    enumerate_maximal_independent_sets,
)
from repro.core.lp import LinearProgram
from repro.core.schedule import (
    _DROP_BELOW,
    LinkSchedule,
    ScheduleEntry,
    _check_time_share,
)
from repro.errors import InfeasibleProblemError
from repro.interference.base import InterferenceModel, LinkRate
from repro.net.link import Link
from repro.net.path import Path

__all__ = [
    "PathBandwidthResult",
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


def _demand_row(link_id: str) -> str:
    """Name of a link's delivery row in every time-share LP.

    Interned, like the λ names: the cached master LPs all share them.
    """
    return sys.intern(f"demand[{link_id}]")


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
) -> Tuple[LinearProgram, List[str]]:
    """Assemble a time-share LP over ``columns``; returns ``(lp, lambda_vars)``.

    Variables in order: ``lead`` (objective 1, upper bound ``lead_bound``)
    when given, then ``lambda_<i>`` per column (objective 0 with a lead,
    −1 without, i.e. minimise airtime), then with ``artificial_penalty``
    one ``artificial[<link>]`` surplus per row at that cost.  Rows: the
    ``airtime`` row when there is a lead, then one ``>= rhs[link]`` row
    per link in ``links`` order, named by :func:`_demand_row`, where the
    lead has coefficient ``lead_entries[link]``.
    """
    family = ColumnFamily.of(columns)
    lp = LinearProgram()
    if lead is not None:
        lp.add_variable(lead, objective=1.0, upper_bound=lead_bound)
    lambda_objective = 0.0 if lead is not None else -1.0
    lambda_vars = [
        lp.add_variable(sys.intern(f"lambda_{index}"), objective=lambda_objective)
        for index in range(len(family))
    ]
    rows: Dict[Link, Dict[str, float]] = {link: {} for link in links}
    if artificial_penalty is not None:
        for link, row in rows.items():
            var = lp.add_variable(
                f"artificial[{link.link_id}]", objective=-artificial_penalty
            )
            row[var] = 1.0
    if lead is not None:
        lp.add_constraint_le(dict.fromkeys(lambda_vars, 1.0), 1.0, name="airtime")
    # Per couple: the row of its link (None outside ``links``) and its Mbps.
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
        lp.add_constraint_ge(
            row, rhs.get(link, 0.0), name=_demand_row(link.link_id)
        )
    return lp, lambda_vars


def _add_time_share_column(
    lp: LinearProgram, name: str, couples: Iterable[LinkRate], lead: bool
) -> str:
    """Grow a :func:`_time_share_lp` program by one λ column of ``couples``.

    ``lead`` says whether the program was built with a lead variable.
    """
    entries = {
        _demand_row(couple.link.link_id): couple.rate.mbps
        for couple in couples
    }
    if lead:
        return lp.add_column(name, {"airtime": 1.0, **entries})
    return lp.add_column(name, entries, objective=-1.0)


def _schedule_from(
    solution,
    lambda_vars: Sequence[str],
    columns: Sequence[RateIndependentSet],
    scale: float = 1.0,
) -> LinkSchedule:
    """The schedule a solved time-share LP's λ values describe.

    Every λ is checked now, like a :class:`ScheduleEntry`'s time share;
    the kept columns' sets are built only when the schedule is read.
    """
    shares = []
    for var, index in zip(lambda_vars, range(len(columns))):
        share = solution[var] * scale
        _check_time_share(share)
        if share > _DROP_BELOW:
            shares.append((index, share))
    return LinkSchedule._of_columns(columns, shares)


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
    lp, f_var, lambda_vars = build_path_bandwidth_lp(
        columns, links, demands, set(new_path.links)
    )
    return path_bandwidth_from_solution(
        lp.solve(), lambda_vars, columns, demands
    )


def build_path_bandwidth_lp(
    columns: Sequence[RateIndependentSet],
    links: Sequence[Link],
    demands: Dict[Link, float],
    new_links: set,
) -> Tuple[LinearProgram, str, List[str]]:
    """Assemble the Eq. 6 master LP; returns ``(lp, f_var, lambda_vars)``.

    Split out of :func:`available_path_bandwidth` so the serving layer
    (:mod:`repro.serve`) can build the program once per topology
    fingerprint and warm-start it for later query paths by rewriting the
    ``f`` column (:meth:`~repro.core.lp.LinearProgram.set_column` over
    the ``demand[<link>]`` rows) — both callers construct the identical
    program, so cold and warm answers agree exactly.
    """
    lp, lambda_vars = _time_share_lp(
        columns, links, demands, "f", dict.fromkeys(new_links, -1.0)
    )
    return lp, "f", lambda_vars


def path_bandwidth_from_solution(
    solution,
    lambda_vars: Sequence[str],
    columns: Sequence[RateIndependentSet],
    demands: Dict[Link, float],
) -> PathBandwidthResult:
    """Package a solved Eq. 6 master LP as a :class:`PathBandwidthResult`."""
    schedule = _schedule_from(solution, lambda_vars, columns)
    # At saturation (background fills the channel) the solver reports the
    # zero optimum with its own noise, e.g. -0.0 or -1e-17; available
    # bandwidth is a physical quantity and must not go negative.
    bandwidth = solution.objective
    if -1e-9 < bandwidth <= 0.0:
        bandwidth = 0.0
    return PathBandwidthResult(
        available_bandwidth=bandwidth,
        schedule=schedule,
        independent_sets=ColumnFamily.of(columns),
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
    lp, lambda_vars = _time_share_lp(
        columns, links, link_demands_from_paths(background)
    )
    solution = lp.solve()
    total_airtime = -solution.objective
    if total_airtime > 1.0 + 1e-9:
        raise InfeasibleProblemError(
            f"background demands need {total_airtime:.4f} > 1 units of "
            "airtime",
            residual=total_airtime - 1.0,
        )
    return _schedule_from(solution, lambda_vars, columns)


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
    from repro.interference.base import LinkRate

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
    lp, lambda_vars = _time_share_lp(
        columns, [link for link in links if link in loaded], {}, "theta", loaded
    )
    solution = lp.solve()
    return solution.objective, _schedule_from(solution, lambda_vars, columns)
