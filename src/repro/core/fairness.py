"""Max-min fair throughput allocation across flows.

Section 2.5 notes the formulation "can also be easily extended into the
cases where there are more than one flow ... joining the network
simultaneously".  :func:`joint_admission_scale` scales all demands by one
factor; this module implements the other classic multi-flow objective:
**lexicographic max-min fairness** — maximise the smallest flow rate,
freeze the flows that bound it, and repeat on the rest.

The implementation is the standard water-filling loop of LPs over the
same independent-set columns as Eq. 6; each round solves one LP and
identifies saturated flows by a second (perturbation) LP test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.bandwidth import (
    _collect_links,
    _columns_for,
    _schedule_from,
    _time_share_lp,
)
from repro.core.independent_sets import RateIndependentSet
from repro.core.schedule import LinkSchedule
from repro.interference.base import InterferenceModel
from repro.net.link import Link
from repro.net.path import Path

__all__ = ["MaxMinAllocation", "max_min_fair_allocation"]

_EPS = 1e-7


@dataclass
class MaxMinAllocation:
    """Outcome of the water-filling loop."""

    #: Throughput per flow index, in Mbps.
    rates: List[float]
    #: A schedule realising the allocation.
    schedule: LinkSchedule
    #: Water-filling rounds executed.
    rounds: int

    @property
    def min_rate(self) -> float:
        return min(self.rates) if self.rates else 0.0

    @property
    def total_rate(self) -> float:
        return sum(self.rates)


def _solve_round(
    columns: Sequence[RateIndependentSet],
    links,
    flow_links: List[List],
    frozen: Dict[int, float],
    maximize_flow: Optional[int] = None,
):
    """One LP: maximise the common rate t of unfrozen flows (or one flow).

    Frozen flows keep their fixed rates, carried as the delivery rows'
    right-hand sides.  Returns ``(solution, lambda_vars)``.
    """
    # Any flow rate is bounded by the fastest single-link rate among the
    # columns, which also keeps the LP bounded in the degenerate round
    # where every flow is already frozen (t then appears in no row).
    rate_cap = max(
        (
            column.throughput_of(link)
            for column in columns
            for link in links
        ),
        default=1.0,
    )
    fixed_demands: Dict[Link, float] = {}
    t_entries: Dict[Link, float] = {}
    for link in links:
        fixed_demand = 0.0
        t_coefficient = 0.0
        for flow_index, on_flow in enumerate(flow_links):
            if link not in on_flow:
                continue
            if flow_index in frozen:
                fixed_demand += frozen[flow_index]
            elif maximize_flow is None or flow_index == maximize_flow:
                t_coefficient += 1.0
            # Unfrozen flows other than maximize_flow, when maximizing a
            # single flow, keep their current-round base rate via frozen;
            # callers freeze them before calling.
        fixed_demands[link] = fixed_demand
        if t_coefficient > 0.0:
            t_entries[link] = -t_coefficient
    lp, lambda_vars = _time_share_lp(
        columns, links, fixed_demands, "t", t_entries, max(rate_cap, 1.0)
    )
    return lp.solve(), lambda_vars


def max_min_fair_allocation(
    model: InterferenceModel,
    paths: Sequence[Path],
    independent_sets: Optional[Sequence[RateIndependentSet]] = None,
    max_sets: Optional[int] = None,
) -> MaxMinAllocation:
    """Lexicographic max-min fair rates for the given flows.

    Args:
        model: Interference model.
        paths: One path per flow.
        independent_sets: Pre-enumerated columns (else enumerated).

    Raises:
        InfeasibleProblemError: never for zero demands (the allocation
            starts at zero), but propagated if the LP itself fails.
    """
    if not paths:
        return MaxMinAllocation(rates=[], schedule=LinkSchedule(()), rounds=0)
    flow_pairs = [(path, 0.0) for path in paths]
    links = _collect_links(flow_pairs)
    columns = _columns_for(model, links, independent_sets, max_sets)
    flow_links = [set(path.links) for path in paths]

    frozen: Dict[int, float] = {}
    rounds = 0
    while len(frozen) < len(paths):
        rounds += 1
        solution, _lambda_vars = _solve_round(columns, links, flow_links, frozen)
        level = solution.objective
        unfrozen = [i for i in range(len(paths)) if i not in frozen]
        # A flow saturates at this level when raising it alone (others
        # pinned at the level) cannot exceed the level.
        newly_frozen = []
        for flow_index in unfrozen:
            probe_frozen = dict(frozen)
            for other in unfrozen:
                if other != flow_index:
                    probe_frozen[other] = level
            probe, _lambda_vars = _solve_round(
                columns, links, flow_links, probe_frozen,
                maximize_flow=flow_index,
            )
            if probe.objective <= level + _EPS:
                newly_frozen.append(flow_index)
        if not newly_frozen:
            # Numerical corner: freeze everything at the level and stop.
            newly_frozen = unfrozen
        for flow_index in newly_frozen:
            frozen[flow_index] = level

    # Final LP with all rates fixed recovers a consistent schedule.
    final, lambda_vars = _solve_round(columns, links, flow_links, frozen)
    schedule = _schedule_from(final, lambda_vars, columns)
    rates = [frozen[i] for i in range(len(paths))]
    return MaxMinAllocation(rates=rates, schedule=schedule, rounds=rounds)
