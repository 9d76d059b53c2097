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
one restricted-master loop, :func:`_restricted_master`.  The master is the
program :func:`repro.core.bandwidth._time_share_lp` assembles, with one
penalised artificial surplus per demand row, so its rows and their names
are the ones every other LP in :mod:`repro.core` uses.

The pricing problem is itself NP-hard, so :class:`_PricingProblem` offers
two bitmask oracles: an exact one (maximal independent sets of the
positive-weight part of the conflict graph — affordable for mid-size
instances) and a greedy+local-search one for larger instances.  With the
exact oracle the procedure terminates at the true optimum; with the greedy
oracle the result is a certified **lower bound** (it is still an Eq. 6
solution over a restricted family, Section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.bandwidth import (
    PathBandwidthResult,
    _add_time_share_column,
    _collect_links,
    _demand_row,
    _schedule_from,
    _time_share_lp,
    link_demands_from_paths,
)
from repro.core.independent_sets import (
    RateIndependentSet,
    _maximal_cliques_bitset,
    _pairwise_compatibility_masks,
)
from repro.core.lp import LpSolution
from repro.core.schedule import LinkSchedule
from repro.errors import InfeasibleProblemError
from repro.interference.base import InterferenceModel, LinkRate
from repro.interference.conflict_graph import link_rate_vertices
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
    #: True when the final pricing round proved optimality (exact oracle
    #: found no improving column); False means the value is a lower bound.
    proved_optimal: bool


def _initial_columns(
    model: InterferenceModel, links: Sequence[Link]
) -> List[RateIndependentSet]:
    """A feasible starting pool: one singleton set per usable link.

    Singletons at the maximum standalone rate always form valid columns and
    make the master feasible whenever the demands are feasible at all on a
    TDMA (one-at-a-time) basis; the pricing loop then discovers spatial
    reuse.
    """
    pool = []
    for link in links:
        rates = model.standalone_rates(link)
        if rates:
            pool.append(
                RateIndependentSet(frozenset({LinkRate(link, rates[0])}))
            )
    return pool


class _PricingProblem:
    """Bitmask MWIS pricing state, built once per column-generation call.

    Holds the couple vertices and the compatibility masks of the link–rate
    conflict graph's complement, so every pricing round is an integer-mask
    Bron–Kerbosch (exact) or greedy sweep over the same vertex indices.
    Both oracles ignore vertices of nonpositive weight; the caller
    accounts their time (``cg.pricing`` span) and calls.
    """

    def __init__(self, model: InterferenceModel, links: Sequence[Link]):
        self.vertices = link_rate_vertices(model, links)
        self.independent = _pairwise_compatibility_masks(model, self.vertices)
        count = len(self.vertices)
        full = (1 << count) - 1
        self.conflict = [
            full & ~mask & ~(1 << index)
            for index, mask in enumerate(self.independent)
        ]
        self.degrees = [mask.bit_count() for mask in self.conflict]
        self._by_str = sorted(range(count), key=lambda i: str(self.vertices[i]))

    def _members(self, mask: int) -> Set[LinkRate]:
        chosen: Set[LinkRate] = set()
        while mask:
            low_bit = mask & -mask
            mask ^= low_bit
            chosen.add(self.vertices[low_bit.bit_length() - 1])
        return chosen

    def exact(self, weights: Dict[LinkRate, float]) -> Set[LinkRate]:
        """Exact MWIS over the positive-weight vertices.

        Every maximum-weight independent set extends to a maximal one of
        the positive-weight subgraph with the same weight, so scanning
        those maximal sets is exact.
        """
        positive = 0
        for index, vertex in enumerate(self.vertices):
            if weights.get(vertex, 0.0) > 0.0:
                positive |= 1 << index
        best_mask = 0
        best_weight = 0.0
        for clique in _maximal_cliques_bitset(
            self.independent, len(self.vertices), subset=positive
        ):
            weight = 0.0
            members = clique
            while members:
                low_bit = members & -members
                members ^= low_bit
                weight += weights[self.vertices[low_bit.bit_length() - 1]]
            if weight > best_weight:
                best_weight = weight
                best_mask = clique
        return self._members(best_mask)

    def greedy(self, weights: Dict[LinkRate, float]) -> Set[LinkRate]:
        """Greedy MWIS + 1-swap local search; deterministic tie-breaks.

        Vertices are taken by weight per (degree + 1), ties by ``str``;
        then any vertex worth more than the chosen ones it conflicts with
        swaps in, scanning in ``str`` order until nothing improves.
        """
        order = sorted(
            (
                index
                for index in range(len(self.vertices))
                if weights.get(self.vertices[index], 0.0) > 0.0
            ),
            key=lambda index: (
                -weights[self.vertices[index]] / (self.degrees[index] + 1.0),
                str(self.vertices[index]),
            ),
        )
        chosen = 0
        blocked = 0
        for index in order:
            bit = 1 << index
            if blocked & bit:
                continue
            chosen |= bit
            blocked |= bit | self.conflict[index]
        improved = True
        while improved:
            improved = False
            for index in self._by_str:
                bit = 1 << index
                weight = weights.get(self.vertices[index], 0.0)
                if chosen & bit or weight <= 0.0:
                    continue
                conflicting = self.conflict[index] & chosen
                lost = 0.0
                members = conflicting
                while members:
                    low_bit = members & -members
                    members ^= low_bit
                    lost += weights.get(
                        self.vertices[low_bit.bit_length() - 1], 0.0
                    )
                if weight > lost + _PRICING_EPS:
                    chosen = (chosen & ~conflicting) | bit
                    improved = True
        return self._members(chosen)


def _restricted_master(
    model: InterferenceModel,
    links: Sequence[Link],
    demands: Dict[Link, float],
    max_iterations: int,
    exact_pricing: bool,
    new_links: Optional[Set[Link]] = None,
) -> Tuple[LpSolution, List[str], List[RateIndependentSet], int, bool]:
    """The restricted-master loop behind both entry points.

    With ``new_links`` the master maximises ``f`` on those links within
    one period (Eq. 6) and a column improves it when its priced value
    beats the airtime dual; without, it minimises total airtime and a
    column must be worth more than one unit of airtime.  The master is
    assembled once and grown in place by
    :meth:`~repro.core.lp.LinearProgram.add_column`.  An artificial
    surplus per demand row keeps it feasible before pricing has found
    enough spatial reuse; the penalty drives them to zero, and a survivor
    at convergence means the demands are genuinely undeliverable.

    Returns ``(solution, lambda_vars, pool, iterations, proved_optimal)``:
    the last solve and the λ variables it saw — the pool can be one
    column ahead of it when the iteration budget runs out.

    Raises:
        ValueError: when ``max_iterations < 1``.
        InfeasibleProblemError: when demand stays unserved at convergence.
    """
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    recorder = get_recorder()
    with recorder.span("cg.solve"):
        pricing = _PricingProblem(model, links)
        if exact_pricing:
            oracle, oracle_calls = pricing.exact, "cg.pricing.exact_calls"
        else:
            oracle, oracle_calls = pricing.greedy, "cg.pricing.greedy_calls"
        pool = _initial_columns(model, links)
        pool_index = set(pool)
        lead = new_links is not None
        lp, lambda_vars = _time_share_lp(
            pool,
            links,
            demands,
            "f" if lead else None,
            dict.fromkeys(new_links or (), -1.0),
            artificial_penalty=_BIG_M,
        )
        initial_pool_size = len(pool)
        iterations = 0
        proved_optimal = False
        while iterations < max_iterations:
            iterations += 1
            with recorder.span("cg.iteration"):
                solution = lp.solve()
                solved_vars = list(lambda_vars)
                # LpSolution stores duals in the max-problem orientation:
                # for every stored <= row, dual = ∂(max objective)/∂(rhs)
                # >= 0.  A column improves the master iff Σ_l w_l · R[l]
                # beats its airtime cost, w_l the demand-row duals.
                threshold = solution.duals.get("airtime", 0.0) if lead else 1.0
                prices: Dict[LinkRate, float] = {
                    vertex: solution.duals.get(
                        _demand_row(vertex.link.link_id), 0.0
                    )
                    * vertex.rate.mbps
                    for vertex in pricing.vertices
                }
                recorder.count(oracle_calls)
                with recorder.span("cg.pricing"):
                    candidate_vertices = oracle(prices)
                candidate_value = sum(prices[v] for v in candidate_vertices)
                if candidate_value <= threshold + _PRICING_EPS:
                    proved_optimal = exact_pricing
                    break
                candidate = RateIndependentSet(frozenset(candidate_vertices))
                if candidate in pool_index:
                    # The oracle re-proposed a known column: numerically
                    # converged.
                    proved_optimal = exact_pricing
                    break
                pool.append(candidate)
                pool_index.add(candidate)
                lambda_vars.append(
                    _add_time_share_column(
                        lp, f"lambda_{len(pool) - 1}", candidate, lead
                    )
                )
        recorder.count("cg.iterations", iterations)
        recorder.count("cg.columns_added", len(pool) - initial_pool_size)
        residual = sum(
            value
            for name, value in solution.values.items()
            if name.startswith("artificial[")
        )
        if residual > 1e-6:
            raise InfeasibleProblemError(
                "background demands cannot be delivered even with generated "
                f"columns (residual {residual:.4f} Mbps unserved)",
                residual=residual,
            )
    return solution, solved_vars, pool, iterations, proved_optimal


def solve_with_column_generation(
    model: InterferenceModel,
    new_path: Path,
    background: Sequence[Tuple[Path, float]] = (),
    max_iterations: int = 200,
    exact_pricing: bool = True,
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
        exact_pricing: Use the exact MWIS oracle (guarantees optimality at
            convergence) or the greedy oracle (faster, lower bound).
    """
    demands = link_demands_from_paths(background)
    solution, lambda_vars, pool, iterations, proved_optimal = (
        _restricted_master(
            model,
            _collect_links(background, new_path),
            demands,
            max_iterations,
            exact_pricing,
            set(new_path.links),
        )
    )
    result = PathBandwidthResult(
        available_bandwidth=solution.objective,
        schedule=_schedule_from(solution, lambda_vars, pool),
        independent_sets=list(pool),
        background_demands=demands,
    )
    return ColumnGenerationResult(
        result=result,
        iterations=iterations,
        columns_generated=len(pool),
        proved_optimal=proved_optimal,
    )


def min_airtime_column_generation(
    model: InterferenceModel,
    background: Sequence[Tuple[Path, float]],
    max_iterations: int = 200,
    exact_pricing: bool = True,
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
    solution, lambda_vars, pool, _iterations, _proved = _restricted_master(
        model,
        links,
        link_demands_from_paths(background),
        max_iterations,
        exact_pricing,
    )
    total = sum(solution.values[var] for var in lambda_vars)
    if total <= 1.0 + 1e-9:
        return _schedule_from(solution, lambda_vars, pool)
    if not allow_overload:
        raise InfeasibleProblemError(
            f"background demands need {total:.4f} > 1 units of airtime",
            residual=total - 1.0,
        )
    return _schedule_from(solution, lambda_vars, pool, 1.0 / total)
