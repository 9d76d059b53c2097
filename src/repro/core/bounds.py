"""Upper and lower bounds on available path bandwidth (Section 3).

Three families of results live here:

* the classical **fixed-rate clique bounds** (Eq. 7) and the demonstration
  machinery for the paper's key negative result — the clique-constraint
  *hypothesis* (Eq. 8) fails for feasible multirate demand vectors;
* the corrected **upper bound** of Eq. 9, built from clique constraints
  applied per fixed rate vector.  The paper's formulation multiplies time
  shares γ_i by per-vector throughputs g_i; we solve the standard exact
  linearisation with h_ik = γ_i · g_ik, which has the same optimum;
* **lower bounds** from restricted independent-set families (Section 3.3):
  solving Eq. 6 over a subset of columns can only shrink the feasible
  region, hence yields a valid lower bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.bandwidth import (
    PathBandwidthResult,
    available_path_bandwidth,
    link_demands_from_paths,
    _collect_links,
)
from repro.core.cliques import (
    RateClique,
    _conflict_rows,
    _fixed_rate_cliques,
    fixed_rate_cliques,
)
from repro.core.independent_sets import CoupleSpace, RateIndependentSet
from repro.core.lp import LinearProgram
from repro.errors import InfeasibleProblemError, InterferenceError
from repro.interference.base import InterferenceModel
from repro.net.link import Link
from repro.net.path import Path
from repro.phy.rates import Rate

__all__ = [
    "fixed_rate_equal_throughput_bound",
    "enumerate_rate_vectors",
    "max_clique_time",
    "hypothesis_min_clique_time",
    "CliqueUpperBoundResult",
    "clique_upper_bound",
    "lower_bound_from_subset",
    "greedy_column_subset",
]


def fixed_rate_equal_throughput_bound(clique: RateClique) -> float:
    """Eq. 7: with all clique links carrying the same throughput ``s`` and
    rates fixed, ``s <= 1 / sum(1/r_i)`` (the reciprocal of the clique
    transmission time for one unit of traffic).
    """
    total = sum(1.0 / couple.rate.mbps for couple in clique.couples)
    return 1.0 / total


def enumerate_rate_vectors(
    model: InterferenceModel,
    links: Sequence[Link],
    max_vectors: int = 100_000,
) -> Iterator[Dict[Link, Rate]]:
    """All fixed rate assignments over ``links`` (the paper's R_i).

    The count is ``prod(|standalone rates per link|)`` — up to Z^L — so a
    cap guards against accidental explosions; callers working at that scale
    should be using Eq. 6 directly rather than the Eq. 9 bound.
    """
    per_link = []
    for link in links:
        rates = model.standalone_rates(link)
        if not rates:
            raise InterferenceError(
                f"link {link.link_id!r} supports no rate; drop it first"
            )
        per_link.append([(link, rate) for rate in rates])
    count = 1
    for options in per_link:
        count *= len(options)
    if count > max_vectors:
        raise InterferenceError(
            f"{count} rate vectors exceed the cap {max_vectors}"
        )
    for combo in itertools.product(*per_link):
        yield dict(combo)


def max_clique_time(
    model: InterferenceModel,
    rate_vector: Dict[Link, Rate],
    demands: Dict[Link, float],
) -> float:
    """T̂_i: the largest clique transmission time under one rate vector.

    ``max_j Σ_{k∈C_ij} y_k / r_ik`` over the maximal cliques of the
    conflict graph with rates pinned to ``rate_vector``.
    """
    return _max_clique_time(fixed_rate_cliques(model, rate_vector), demands)


def _max_clique_time(
    cliques: Sequence[RateClique], demands: Dict[Link, float]
) -> float:
    """The largest transmission time of ``cliques`` (0 without any)."""
    return max(
        (clique.transmission_time(demands) for clique in cliques), default=0.0
    )


def hypothesis_min_clique_time(
    model: InterferenceModel,
    links: Sequence[Link],
    demands: Dict[Link, float],
    max_vectors: int = 100_000,
) -> float:
    """Eq. 8's quantity ``min_i T̂_i`` for a demand vector.

    The paper's (refuted) hypothesis is that this is ≤ 1 for every feasible
    demand vector.  Scenario II exhibits a feasible vector with value
    1.05 > 1; the tests and benchmark E2 reproduce that refutation.
    Every rate vector's cliques are a sub-mask of one couple space.
    """
    space = CoupleSpace(model, links)
    conflict = _conflict_rows(space)
    best = float("inf")
    for rate_vector in enumerate_rate_vectors(model, links, max_vectors):
        cliques = _fixed_rate_cliques(space, conflict, rate_vector)
        best = min(best, _max_clique_time(cliques, demands))
    return best


@dataclass
class CliqueUpperBoundResult:
    """Outcome of the Eq. 9 optimisation."""

    #: The upper bound on the new path's available bandwidth, in Mbps.
    upper_bound: float
    #: Time share γ_i per rate vector index (only the active ones).
    gamma: Dict[int, float]
    #: The enumerated rate vectors, by index.
    rate_vectors: List[Dict[Link, Rate]]


def clique_upper_bound(
    model: InterferenceModel,
    new_path: Path,
    background: Sequence[Tuple[Path, float]] = (),
    max_vectors: int = 4096,
) -> CliqueUpperBoundResult:
    """Eq. 9: upper bound from per-rate-vector clique constraints.

    For each fixed rate vector R_i the clique constraints are *necessary*
    for any throughput vector achievable under R_i; mixing over rate
    vectors with time shares γ_i therefore upper-bounds every achievable
    demand vector, and maximising f under those constraints upper-bounds
    Eq. 6's optimum.

    The paper's bilinear form (γ_i times g_ik) is linearised exactly with
    h_ik = γ_i·g_ik:

    * clique constraints become  Σ_{k∈C} h_ik / r_ik ≤ γ_i,
    * the box 0 ≤ g_ik ≤ r_ik becomes 0 ≤ h_ik ≤ γ_i·r_ik (implied by the
      clique rows, since every link lies in some maximal clique, so not
      added separately),
    * delivery becomes  Σ_i h_ik ≥ x-demands + f·I_new.

    Every rate vector's cliques are a sub-mask of one couple space over
    the involved links.
    """
    links = _collect_links(background, new_path)
    demands = link_demands_from_paths(background)
    rate_vectors = list(enumerate_rate_vectors(model, links, max_vectors))
    space = CoupleSpace(model, links)
    conflict = _conflict_rows(space)
    new_links = set(new_path.links)

    lp = LinearProgram()
    f_var = lp.add_variable("f", objective=1.0)
    gamma_vars = [
        lp.add_variable(f"gamma_{i}") for i in range(len(rate_vectors))
    ]
    h_vars: Dict[Tuple[int, str], str] = {}
    for i, vector in enumerate(rate_vectors):
        for link in vector:
            h_vars[(i, link.link_id)] = lp.add_variable(
                f"h_{i}[{link.link_id}]"
            )
    lp.add_constraint_le({v: 1.0 for v in gamma_vars}, 1.0, name="airtime")
    for i, vector in enumerate(rate_vectors):
        cliques = _fixed_rate_cliques(space, conflict, vector)
        for c_index, clique in enumerate(cliques):
            coefficients: Dict[str, float] = {
                h_vars[(i, couple.link.link_id)]: 1.0 / couple.rate.mbps
                for couple in clique.couples
            }
            coefficients[gamma_vars[i]] = -1.0
            lp.add_constraint_le(
                coefficients, 0.0, name=f"clique[{i},{c_index}]"
            )
    for link in links:
        coefficients = {
            h_vars[(i, link.link_id)]: 1.0
            for i in range(len(rate_vectors))
            if (i, link.link_id) in h_vars
        }
        if link in new_links:
            coefficients[f_var] = -1.0
        lp.add_constraint_ge(
            coefficients, demands.get(link, 0.0), name=f"deliver[{link.link_id}]"
        )
    solution = lp.solve()
    gamma = {
        i: solution[var]
        for i, var in enumerate(gamma_vars)
        if solution[var] > 1e-12
    }
    return CliqueUpperBoundResult(
        upper_bound=solution.objective,
        gamma=gamma,
        rate_vectors=rate_vectors,
    )


def greedy_column_subset(
    columns: Sequence[RateIndependentSet],
    links: Sequence[Link],
    size: int,
) -> List[RateIndependentSet]:
    """Pick ``size`` columns greedily maximising marginal link-rate coverage.

    A simple, deterministic subset-selection rule for Section 3.3 lower
    bounds: each step adds the set with the largest total throughput on
    links whose current best covered rate it improves.
    """
    chosen: List[RateIndependentSet] = []
    best_rate: Dict[str, float] = {link.link_id: 0.0 for link in links}
    remaining = list(columns)
    while remaining and len(chosen) < size:
        def gain(column: RateIndependentSet) -> float:
            return sum(
                max(0.0, column.throughput_of(link) - best_rate[link.link_id])
                for link in links
            )

        remaining.sort(key=lambda c: (-gain(c), str(c)))
        head = remaining.pop(0)
        if gain(head) <= 0.0 and chosen:
            break
        chosen.append(head)
        for link in links:
            best_rate[link.link_id] = max(
                best_rate[link.link_id], head.throughput_of(link)
            )
    return chosen


def lower_bound_from_subset(
    model: InterferenceModel,
    new_path: Path,
    background: Sequence[Tuple[Path, float]] = (),
    columns: Optional[Sequence[RateIndependentSet]] = None,
    subset_size: Optional[int] = None,
) -> PathBandwidthResult:
    """Section 3.3: a lower bound via a restricted independent-set family.

    Either pass the restricted ``columns`` directly, or pass
    ``subset_size`` to have :func:`greedy_column_subset` pick them from the
    full enumeration.  The returned ``available_bandwidth`` is a guaranteed
    lower bound on the true Eq. 6 optimum.

    A greedy subset is chosen for bound quality, not feasibility, so a
    small ``subset_size`` can miss the columns needed to deliver the
    background demands at all.  That must not break the lower-bound
    contract: on infeasibility the subset is grown (doubling, up to the
    full enumeration) until the restricted LP is feasible.
    :class:`~repro.errors.InfeasibleProblemError` therefore only escapes
    when the background demands are genuinely unschedulable (or when
    explicit ``columns`` were passed, which are honoured verbatim).
    """
    from repro.core.independent_sets import enumerate_maximal_independent_sets

    if columns is not None:
        return available_path_bandwidth(
            model, new_path, background, independent_sets=columns
        )
    links = _collect_links(background, new_path)
    full = enumerate_maximal_independent_sets(model, links)
    if subset_size is None:
        raise ValueError("pass either columns or subset_size")
    size = subset_size
    previous = None
    while True:
        if size >= len(full):
            chosen = list(full)
        else:
            chosen = greedy_column_subset(full, links, size)
        # The greedy rule can stop early (no coverage gain), so doubling
        # ``size`` may not change the selection; jump to the full family.
        if previous is not None and len(chosen) <= len(previous):
            chosen = list(full)
        try:
            return available_path_bandwidth(
                model, new_path, background, independent_sets=chosen
            )
        except InfeasibleProblemError:
            if len(chosen) >= len(full):
                raise
            previous = chosen
            size = max(1, size * 2)
