"""Column generation for the time-share LPs of Eq. 6 and Eq. 4.

Full enumeration of maximal independent sets is exponential in the number
of links; Section 3.2 of the paper notes the same explosion for cliques and
leaves complexity reduction to future work.  This module implements the
standard remedy for the LP family's column structure:

1. solve a **restricted master** LP over a small pool of independent sets;
2. **price** a new column with the master's duals — the column that most
   violates dual feasibility is the maximum-weight independent set of the
   link–rate conflict graph with couple weights ``π_link · r``;
3. repeat until no positive-reduced-cost column exists.

Both entry points — :func:`solve_with_column_generation` (Eq. 6, maximise
``f``) and :func:`min_airtime_column_generation` (minimise airtime) — run
one restricted-master loop, :func:`_restricted_master`.  The master is a
:class:`~repro.core.bandwidth.TimeShareProgram`, the layout every other
LP in :mod:`repro.core` has, with one penalised artificial surplus per
demand row; the loop reads its duals and grows its columns through it.

The pricing problem is itself NP-hard; :func:`_price` solves it exactly
over bitmasks (maximal independent sets of the positive-weight part of
the conflict graph — affordable for mid-size instances), so a loop that
converges ends at the true optimum.  Pricing runs on the
:class:`~repro.core.independent_sets.CoupleSpace` of the involved links:
its couples are the master's, and its compatibility rows the graph.
One cut short by its iteration budget is a certified **lower bound**
(it is still an Eq. 6 solution over a restricted family, Section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set, Tuple

from repro.core.bandwidth import (
    PathBandwidthResult,
    TimeShareProgram,
    _collect_links,
    _time_share_lp,
    link_demands_from_paths,
)
from repro.core.independent_sets import (
    ColumnFamily,
    CoupleSpace,
    _mask_members,
    _maximal_cliques_bitset,
)
from repro.core.lp import LpSolution
from repro.core.schedule import LinkSchedule
from repro.errors import InfeasibleProblemError
from repro.interference.base import InterferenceModel
from repro.net.link import Link
from repro.net.path import Path
from repro.obs import get_recorder

__all__ = [
    "ColumnGenerationResult",
    "solve_with_column_generation",
    "min_airtime_column_generation",
]

#: Reduced-cost tolerance below which a column is not worth adding.
_PRICING_EPS = 1e-9

#: Objective penalty per Mbps of artificial surplus in the master.
_BIG_M = 1e5


@dataclass
class ColumnGenerationResult:
    """Outcome plus convergence diagnostics."""

    result: PathBandwidthResult
    iterations: int
    columns_generated: int
    #: True when pricing converged within the iteration budget (no
    #: improving column is left); False means the value is a lower bound.
    proved_optimal: bool


def _price(space: CoupleSpace, prices: Sequence[float]) -> Tuple[int, float]:
    """A maximum-weight independent set of the positive-price couples.

    ``prices[v]`` is couple ``v``'s price; returns the set's mask (``0``
    when no price is positive) and its price, summed lowest bit first.
    Every maximum-weight independent set extends to a maximal one of the
    positive-price subgraph with the same weight, so scanning those
    maximal sets is exact.
    """
    positive = 0
    for vertex, price in enumerate(prices):
        if price > 0.0:
            positive |= 1 << vertex
    best_mask = 0
    best_weight = 0.0
    cliques, _ = _maximal_cliques_bitset(
        space.compatible, len(space.couples), subset=positive
    )
    for clique in cliques:
        weight = 0.0
        for price in _mask_members(clique, prices):
            weight += price
        if weight > best_weight:
            best_weight = weight
            best_mask = clique
    return best_mask, best_weight


def _master(
    space: CoupleSpace,
    demands: Dict[Link, float],
    new_links: Optional[Set[Link]] = None,
) -> TimeShareProgram:
    """The restricted master before any pricing round, one demand row
    per link of ``space``.

    With ``new_links`` it maximises ``f`` on those links within one
    period (Eq. 6); without, it minimises total airtime.  Its columns
    are one singleton per usable link at its fastest couple, the lowest
    bit of the link's interval: valid columns that make the master
    feasible whenever the demands are feasible at all on a TDMA
    (one-at-a-time) basis, and an artificial surplus per demand row
    keeps it feasible before pricing has found enough spatial reuse.
    """
    fastest = [mask & -mask for mask in space.bits.values() if mask]
    return _time_share_lp(
        ColumnFamily(space.couples, fastest),
        space.links,
        demands,
        None if new_links is None else "f",
        dict.fromkeys(new_links or (), -1.0),
        artificial_penalty=_BIG_M,
    )


def _restricted_master(
    space: CoupleSpace,
    program: TimeShareProgram,
    max_iterations: int,
) -> Tuple[LpSolution, int, bool]:
    """The restricted-master loop behind both entry points.

    Solves ``program`` (the :func:`_master` of ``space``) and grows it
    in place by the column pricing finds, until no column improves it:
    with a lead, a column improves it when its priced value beats the
    airtime dual; without, when it is worth more than one unit of
    airtime.  The
    artificials' penalty drives them to zero, and a survivor at
    convergence means the demands are genuinely undeliverable.

    Returns ``(solution, iterations, converged)``: the last solve, the
    rounds run and whether pricing converged within ``max_iterations``
    (else ``program.columns`` is one column ahead of the solution).

    Raises:
        ValueError: when ``max_iterations < 1``.
        InfeasibleProblemError: when demand stays unserved at convergence.
    """
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    recorder = get_recorder()
    with recorder.span("cg.solve"):
        row_of = {link.link_id: row for row, link in enumerate(program.links)}
        vertex_rows = [row_of[vertex.link.link_id] for vertex in space.couples]
        initial_pool_size = len(program.columns)
        iterations = 0
        converged = False
        while iterations < max_iterations:
            iterations += 1
            with recorder.span("cg.iteration"):
                solution = program.lp.solve()
                # LpSolution stores duals in the max-problem orientation:
                # for every stored <= row, dual = ∂(max objective)/∂(rhs)
                # >= 0.  A column improves the master iff Σ_l w_l · R[l]
                # beats its airtime cost, w_l the demand-row duals.
                threshold = program.airtime_dual(solution) if program.lead else 1.0
                duals = program.link_duals(solution)
                prices = [
                    duals[row] * vertex.rate.mbps
                    for vertex, row in zip(space.couples, vertex_rows)
                ]
                recorder.count("cg.pricing.exact_calls")
                with recorder.span("cg.pricing"):
                    candidate, candidate_value = _price(space, prices)
                # A known column re-proposed means numerical convergence.
                if (
                    candidate_value <= threshold + _PRICING_EPS
                    or candidate in program.columns.masks
                ):
                    converged = True
                    break
                program.add_column(candidate)
        recorder.count("cg.iterations", iterations)
        recorder.count("cg.columns_added", len(program.columns) - initial_pool_size)
        residual = program.artificial_surplus(solution)
        if residual > 1e-6:
            raise InfeasibleProblemError(
                "background demands cannot be delivered even with generated "
                f"columns (residual {residual:.4f} Mbps unserved)",
                residual=residual,
            )
    return solution, iterations, converged


def solve_with_column_generation(
    model: InterferenceModel,
    new_path: Path,
    background: Sequence[Tuple[Path, float]] = (),
    max_iterations: int = 200,
) -> ColumnGenerationResult:
    """Solve Eq. 6 without enumerating all maximal independent sets.

    Args:
        model: Interference model (pairwise models only — the pricing graph
            is the link–rate conflict graph).
        new_path: Candidate path.
        background: Existing (path, demand) pairs.
        max_iterations: Pricing-round budget (at least 1); hitting it
            returns the current (lower-bound) solution with
            ``proved_optimal=False``.
    """
    demands = link_demands_from_paths(background)
    space = CoupleSpace(model, _collect_links(background, new_path))
    program = _master(space, demands, set(new_path.links))
    solution, iterations, converged = _restricted_master(
        space, program, max_iterations
    )
    result = PathBandwidthResult(
        available_bandwidth=solution.objective,
        schedule=program.schedule(solution),
        independent_sets=program.columns,
        background_demands=demands,
    )
    return ColumnGenerationResult(
        result=result,
        iterations=iterations,
        columns_generated=len(program.columns),
        proved_optimal=converged,
    )


def min_airtime_column_generation(
    model: InterferenceModel,
    background: Sequence[Tuple[Path, float]],
    max_iterations: int = 200,
    allow_overload: bool = False,
) -> LinkSchedule:
    """Column-generation counterpart of
    :func:`repro.core.bandwidth.min_airtime_schedule`.

    Master: minimise Σλ subject to Σλ·R ≥ demands, with per-row artificial
    surplus keeping it feasible.  Pricing: a column improves iff
    Σ_l w_l·R[l] > 1 (w_l the demand-row duals), i.e. a maximum-weight
    independent set worth more than one unit of airtime.

    Args:
        allow_overload: When the optimal airtime exceeds one period,
            return the schedule scaled down to fit it instead of raising —
            every link then receives ``demand / total`` of its demand, the
            proportional degradation of a saturated channel.  Used by the
            churn simulation after a false-accept admission.

    Raises:
        InfeasibleProblemError: when demands stay unserved at convergence,
            or (without ``allow_overload``) the optimal airtime exceeds
            one period.
        ValueError: when ``max_iterations < 1``.
    """
    links = _collect_links(background)
    if not links:
        return LinkSchedule(())
    space = CoupleSpace(model, links)
    program = _master(space, link_demands_from_paths(background))
    solution, _iterations, _converged = _restricted_master(
        space, program, max_iterations
    )
    total = sum(program.shares(solution))
    if total <= 1.0 + 1e-9:
        return program.schedule(solution)
    if not allow_overload:
        raise InfeasibleProblemError(
            f"background demands need {total:.4f} > 1 units of airtime",
            residual=total - 1.0,
        )
    return program.schedule(solution, 1.0 / total)
