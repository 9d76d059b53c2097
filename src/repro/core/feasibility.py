"""Feasibility of link demand vectors (Section 2.3, Eq. 2/4).

A demand vector is feasible iff some schedule delivers it within one period
— equivalently, iff the cheapest delivering schedule uses at most one unit
of airtime.  These helpers phrase that as direct questions.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.bandwidth import _check_demand, _columns_for, _time_share_lp
from repro.core.independent_sets import RateIndependentSet
from repro.errors import InfeasibleProblemError
from repro.interference.base import InterferenceModel
from repro.net.link import Link

__all__ = ["is_feasible", "required_airtime", "feasibility_margin"]


def required_airtime(
    model: InterferenceModel,
    demands: Dict[Link, float],
    independent_sets: Optional[Sequence[RateIndependentSet]] = None,
) -> float:
    """Minimum total airtime Σλ needed to deliver ``demands`` (may exceed 1).

    Values above 1 mean the vector is infeasible; the magnitude says by how
    much (e.g. 1.2 = "needs 20% more channel than exists").

    Raises:
        InfeasibleProblemError: for a NaN, infinite or negative demand, or
            a demanded link no independent set serves.
    """
    for link, demand in demands.items():
        _check_demand(demand, "link", repr(link.link_id))
    links = list(demands)
    if not links:
        return 0.0
    columns = _columns_for(model, links, independent_sets)
    for link in links:
        if demands[link] > 0.0 and not any(
            column.throughput_of(link) > 0.0 for column in columns
        ):
            raise InfeasibleProblemError(
                f"no independent set serves link {link.link_id!r}"
            )
    return -_time_share_lp(columns, links, demands).lp.solve().objective


def is_feasible(
    model: InterferenceModel,
    demands: Dict[Link, float],
    independent_sets: Optional[Sequence[RateIndependentSet]] = None,
    tolerance: float = 1e-9,
) -> bool:
    """Eq. 2/4 feasibility test for a link demand vector (Mbps per link)."""
    try:
        return required_airtime(model, demands, independent_sets) <= 1.0 + tolerance
    except InfeasibleProblemError:
        return False


def feasibility_margin(
    model: InterferenceModel,
    demands: Dict[Link, float],
    independent_sets: Optional[Sequence[RateIndependentSet]] = None,
) -> float:
    """Leftover airtime ``1 − Σλ*`` (negative when infeasible)."""
    return 1.0 - required_airtime(model, demands, independent_sets)
