"""Brute-force reference implementations for differential verification.

Every function here recomputes a quantity the optimized ``repro.core``
stack produces — independent-set enumeration, dominance pruning, the
Eq. 6 and Eq. 9 linear programs, the Eq. 7 clique values — from first
principles, deliberately sharing *no* code with the optimized
implementations: subsets come from ``itertools``, dominance is a
quadratic Python loop, LPs are assembled dense and handed straight to
``scipy.optimize.milp`` with no integrality (a plain LP through SciPy's
own HiGHS wrapper, never the library's driver), and schedules are
replayed over integer slots.  Orders of magnitude slower, but with
nothing to inherit a bug from.

The only shared surface is the interference model's *primitives*
(``standalone_rates``, ``is_independent``, ``conflicts``) — those are
the definitions; what is under differential test is everything built on
top of them (Bron–Kerbosch bitmasks, cumulative DFS, bitset
pruning, sparse incremental LPs, column generation).

Exhaustive enumeration is exponential by design, so every entry point
takes a cap and raises :class:`~repro.errors.VerificationError` rather
than grinding on an instance it cannot handle exactly; the instance
generator (:mod:`repro.verify.instances`) stays far below the caps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import LinearConstraint, milp

from repro.errors import InfeasibleProblemError, VerificationError
from repro.interference.base import InterferenceModel, LinkRate
from repro.net.link import Link
from repro.net.path import Path

__all__ = [
    "reference_maximal_sets",
    "reference_prune",
    "tensor_prune",
    "reference_independent_sets",
    "reference_available_bandwidth",
    "reference_fixed_rate_cliques",
    "reference_clique_value",
    "reference_best_pure_vector",
    "reference_clique_upper_bound",
    "ReplayReport",
    "replay_schedule",
    "collect_links",
    "background_demands",
]

#: Couple-assignment cap for the exhaustive enumerations below.
DEFAULT_MAX_ASSIGNMENTS = 1_000_000


def collect_links(
    background: Sequence[Tuple[Path, float]],
    new_path: Optional[Path] = None,
) -> List[Link]:
    """Union of the involved paths' links, first-seen order."""
    seen: Dict[str, Link] = {}
    for path, _demand in background:
        for link in path:
            seen.setdefault(link.link_id, link)
    if new_path is not None:
        for link in new_path:
            seen.setdefault(link.link_id, link)
    return list(seen.values())


def background_demands(
    background: Sequence[Tuple[Path, float]],
) -> Dict[Link, float]:
    """Per-link Mbps demand accumulated link by link."""
    demands: Dict[Link, float] = {}
    for path, demand in background:
        for link in path:
            demands[link] = demands.get(link, 0.0) + demand
    return demands


def _assignment_count(options: Sequence[Sequence[object]]) -> int:
    count = 1
    for choice in options:
        count *= len(choice)
    return count


def reference_maximal_sets(
    model: InterferenceModel,
    links: Sequence[Link],
    max_assignments: int = DEFAULT_MAX_ASSIGNMENTS,
) -> List[FrozenSet[LinkRate]]:
    """All maximal independent couple sets, unpruned, by exhaustion.

    Iterates every assignment of {absent, rate₁, …} per link, keeps the
    couple sets the model calls independent, and filters for maximality:
    no couple on an unused link can join without breaking independence.
    This is the pre-dominance-pruning family the optimized enumerators
    discover via Bron–Kerbosch / cumulative DFS.

    Raises:
        VerificationError: when the assignment space exceeds the cap —
            the reference cannot answer exactly, so it refuses.
    """
    usable = [link for link in links if model.standalone_rates(link)]
    options: List[List[Optional[LinkRate]]] = [
        [None] + [LinkRate(link, rate) for rate in model.standalone_rates(link)]
        for link in usable
    ]
    count = _assignment_count(options)
    if count > max_assignments:
        raise VerificationError(
            f"{count} couple assignments exceed the reference cap "
            f"{max_assignments}"
        )
    feasible: List[FrozenSet[LinkRate]] = []
    for combo in itertools.product(*options):
        # Checked in assignment order: ``is_independent`` stops at the
        # first conflict, so a set's hash order would make the model's
        # work (and its counters) vary with the string hash seed.
        couples = [c for c in combo if c is not None]
        if couples and model.is_independent(couples):
            feasible.append(frozenset(couples))
    feasible_index = set(feasible)
    every_couple = [c for choice in options for c in choice if c is not None]
    maximal: List[FrozenSet[LinkRate]] = []
    for couples in feasible:
        used = {c.link for c in couples}
        extendable = any(
            vertex.link not in used and (couples | {vertex}) in feasible_index
            for vertex in every_couple
        )
        if not extendable:
            maximal.append(couples)
    return maximal


def _rate_map(couples: FrozenSet[LinkRate]) -> Dict[Link, float]:
    return {c.link: c.rate.mbps for c in couples}


def _dominates(a: FrozenSet[LinkRate], b: FrozenSet[LinkRate]) -> bool:
    """Whether couple set ``a`` covers every link of ``b`` at ≥ rate."""
    if a == b:
        return False
    rates_a = _rate_map(a)
    return all(
        rates_a.get(link, 0.0) >= mbps for link, mbps in _rate_map(b).items()
    )


def reference_prune(
    families: Sequence[FrozenSet[LinkRate]],
) -> List[FrozenSet[LinkRate]]:
    """Quadratic-loop dominance filter over couple sets.

    The straight transcription of the dominance rule
    :func:`repro.core.independent_sets.prune_dominated` implements with
    per-couple bitsets.
    """
    unique = list(dict.fromkeys(families))
    return [
        candidate
        for candidate in unique
        if not any(_dominates(other, candidate) for other in unique)
    ]


def tensor_prune(
    families: Sequence[FrozenSet[LinkRate]],
) -> List[FrozenSet[LinkRate]]:
    """The dominance filter as one ``>=`` test on a Mbps matrix.

    The oracle for families too large for :func:`reference_prune`'s
    Python loops (the 192-node X7 union holds over a thousand maximal
    sets).  Each couple set becomes one row of a per-link Mbps matrix,
    0 for absent links; row ``o`` dominates row ``c`` when it is
    elementwise ``>=`` and the sets differ.  Rates are positive, so
    distinct sets have distinct rows and the empty set's all-zero row
    is dominated by any other.  Survivors keep their input order.
    """
    unique = list(dict.fromkeys(families))
    count = len(unique)
    if count <= 1:
        return unique
    rows = [_rate_map(couples) for couples in unique]
    link_index: Dict[Link, int] = {}
    for rates in rows:
        for link in rates:
            link_index.setdefault(link, len(link_index))
    matrix = np.zeros((count, max(len(link_index), 1)))
    for row, rates in enumerate(rows):
        for link, mbps in rates.items():
            matrix[row, link_index[link]] = mbps
    kept: List[FrozenSet[LinkRate]] = []
    # Chunk candidates so the (rows × chunk × links) tensor stays small.
    chunk = max(1, (8 << 20) // (count * matrix.shape[1]))
    for start in range(0, count, chunk):
        block = matrix[start:start + chunk]
        # covered[o, c] == all(matrix[o] >= block[c]); the diagonal entry
        # (o == start + c) is always True, so "dominated" is count > 1.
        covered = (matrix[:, None, :] >= block[None, :, :]).all(axis=2)
        dominated = covered.sum(axis=0) > 1
        kept.extend(
            unique[start + offset] for offset in np.flatnonzero(~dominated)
        )
    return kept


def reference_independent_sets(
    model: InterferenceModel,
    links: Sequence[Link],
    max_assignments: int = DEFAULT_MAX_ASSIGNMENTS,
) -> List[FrozenSet[LinkRate]]:
    """The dominance-pruned maximal family — Eq. 6's reference columns."""
    return reference_prune(reference_maximal_sets(model, links, max_assignments))


def _column_throughput(column: FrozenSet[LinkRate], link: Link) -> float:
    for couple in column:
        if couple.link == link:
            return couple.rate.mbps
    return 0.0


def _solve_dense(
    cost: np.ndarray, rows: List[np.ndarray], rhs: List[float]
):
    """``min cost.x  s.t.  rows @ x <= rhs, x >= 0`` as a continuous
    ``milp`` (its default bounds are ``0 <= x``)."""
    return milp(
        cost,
        constraints=LinearConstraint(np.vstack(rows), -np.inf, np.array(rhs)),
    )


def reference_available_bandwidth(
    model: InterferenceModel,
    new_path: Path,
    background: Sequence[Tuple[Path, float]] = (),
    columns: Optional[Sequence[FrozenSet[LinkRate]]] = None,
    max_assignments: int = DEFAULT_MAX_ASSIGNMENTS,
) -> float:
    """Eq. 6 solved dense: one ``scipy.optimize.milp`` call.

    Variables ``[f, λ₀ … λ_{m−1}]``; constraints are the airtime budget
    Σλ ≤ 1 and, per link, delivered throughput ≥ background demand plus
    ``f`` on the new path's links.  No incremental assembly, no sparse
    triplets, no column generation — the whole program is a dense matrix.

    Raises:
        InfeasibleProblemError: when the background demands alone are not
            schedulable (same contract as the optimized solver).
        VerificationError: when scipy reports anything else than optimal
            or infeasible.
    """
    links = collect_links(background, new_path)
    if columns is None:
        columns = reference_independent_sets(model, links, max_assignments)
    demands = background_demands(background)
    new_links = set(new_path.links)

    m = len(columns)
    cost = np.zeros(m + 1)
    cost[0] = -1.0  # maximize f
    rows: List[np.ndarray] = []
    rhs: List[float] = []
    airtime = np.zeros(m + 1)
    airtime[1:] = 1.0
    rows.append(airtime)
    rhs.append(1.0)
    for link in links:
        row = np.zeros(m + 1)
        for j, column in enumerate(columns):
            row[1 + j] = -_column_throughput(column, link)
        if link in new_links:
            row[0] = 1.0
        rows.append(row)
        rhs.append(-demands.get(link, 0.0))
    result = _solve_dense(cost, rows, rhs)
    if result.status == 2:
        raise InfeasibleProblemError(
            "background demands are not schedulable (reference LP)"
        )
    if not result.success:
        raise VerificationError(
            f"reference Eq. 6 LP failed: {result.message}"
        )
    return float(-result.fun)


def reference_fixed_rate_cliques(
    model: InterferenceModel,
    vector: Dict[Link, "object"],
) -> List[Tuple[LinkRate, ...]]:
    """Maximal cliques with rates pinned, by subset exhaustion.

    With a fixed rate vector, conflicts reduce to a plain link graph; a
    subset is a clique when all pairs conflict and maximal when no
    outside link conflicts with every member.  No graph library involved.
    """
    links = list(vector)
    couples = {link: LinkRate(link, vector[link]) for link in links}
    n = len(links)
    conflict = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if model.conflicts(couples[links[i]], couples[links[j]]):
                conflict[i][j] = conflict[j][i] = True
    cliques: List[Tuple[LinkRate, ...]] = []
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask & (1 << i)]
        if any(
            not conflict[a][b]
            for p, a in enumerate(members)
            for b in members[p + 1:]
        ):
            continue
        if any(
            outside not in members
            and all(conflict[outside][member] for member in members)
            for outside in range(n)
        ):
            continue
        cliques.append(tuple(couples[links[i]] for i in members))
    return cliques


def reference_clique_value(couples: Sequence[LinkRate]) -> float:
    """Eq. 7 evaluated directly: ``1 / Σ 1/r_i`` over the clique."""
    return 1.0 / sum(1.0 / couple.rate.mbps for couple in couples)


def _rate_vectors(
    model: InterferenceModel,
    links: Sequence[Link],
    max_vectors: int,
) -> List[Dict[Link, "object"]]:
    per_link = []
    for link in links:
        rates = model.standalone_rates(link)
        if not rates:
            raise VerificationError(
                f"link {link.link_id!r} supports no rate"
            )
        per_link.append([(link, rate) for rate in rates])
    if _assignment_count(per_link) > max_vectors:
        raise VerificationError(
            f"{_assignment_count(per_link)} rate vectors exceed the "
            f"reference cap {max_vectors}"
        )
    return [dict(combo) for combo in itertools.product(*per_link)]


def reference_best_pure_vector(
    model: InterferenceModel,
    new_path: Path,
    max_vectors: int = 4096,
) -> float:
    """Best single-rate-vector path throughput: ``max_R min_C`` Eq. 7.

    Pinning one rate vector for the whole period makes the classical
    clique constraints binding; the path then carries at most the
    minimum Eq. 7 value over the vector's maximal cliques.  The best
    such pure strategy is a feasible point of Eq. 9's relaxation, so
    the Eq. 9 optimum must dominate this quantity.
    """
    links = list(new_path.links)
    best = 0.0
    for vector in _rate_vectors(model, links, max_vectors):
        cliques = reference_fixed_rate_cliques(model, vector)
        value = min(
            (reference_clique_value(clique) for clique in cliques),
            default=float("inf"),
        )
        best = max(best, value)
    return best


def reference_clique_upper_bound(
    model: InterferenceModel,
    new_path: Path,
    background: Sequence[Tuple[Path, float]] = (),
    max_vectors: int = 4096,
) -> float:
    """Eq. 9 solved dense from exhaustively enumerated parts.

    Rate vectors come from a plain ``itertools.product``, each vector's
    maximal cliques from :func:`reference_fixed_rate_cliques`, and the
    whole linearised program (h_ik = γ_i·g_ik) goes to scipy as one
    dense matrix.
    """
    links = collect_links(background, new_path)
    demands = background_demands(background)
    vectors = _rate_vectors(model, links, max_vectors)
    new_links = set(new_path.links)

    n_vec = len(vectors)
    n_links = len(links)
    link_pos = {link.link_id: k for k, link in enumerate(links)}
    # Variable layout: [f, γ_0…γ_{n−1}, h_{0,0}…h_{0,L−1}, h_{1,0}…].
    def h_index(i: int, link: Link) -> int:
        return 1 + n_vec + i * n_links + link_pos[link.link_id]

    n_vars = 1 + n_vec + n_vec * n_links
    cost = np.zeros(n_vars)
    cost[0] = -1.0
    rows: List[np.ndarray] = []
    rhs: List[float] = []
    airtime = np.zeros(n_vars)
    airtime[1:1 + n_vec] = 1.0
    rows.append(airtime)
    rhs.append(1.0)
    for i, vector in enumerate(vectors):
        covered = set()
        for clique in reference_fixed_rate_cliques(model, vector):
            row = np.zeros(n_vars)
            for couple in clique:
                row[h_index(i, couple.link)] = 1.0 / couple.rate.mbps
                covered.add(couple.link.link_id)
            row[1 + i] = -1.0
            rows.append(row)
            rhs.append(0.0)
        for link, rate in vector.items():
            if link.link_id not in covered:
                row = np.zeros(n_vars)
                row[h_index(i, link)] = 1.0
                row[1 + i] = -rate.mbps
                rows.append(row)
                rhs.append(0.0)
    for link in links:
        row = np.zeros(n_vars)
        for i in range(n_vec):
            row[h_index(i, link)] = -1.0
        if link in new_links:
            row[0] = 1.0
        rows.append(row)
        rhs.append(-demands.get(link, 0.0))
    result = _solve_dense(cost, rows, rhs)
    if result.status == 2:
        raise InfeasibleProblemError(
            "background demands are not schedulable (reference Eq. 9 LP)"
        )
    if not result.success:
        raise VerificationError(
            f"reference Eq. 9 LP failed: {result.message}"
        )
    return float(-result.fun)


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of replaying an Eq. 6 schedule over integer slots."""

    #: New-path throughput the quantized replay actually achieved (Mbps).
    achieved: float
    #: Whether every schedule entry passed the model's independence test.
    entries_independent: bool
    #: Whether the allocated slots fit in the period.
    airtime_ok: bool
    #: Whether every background link's demand was delivered (within the
    #: quantization tolerance).
    delivers_background: bool
    #: Mbps slack attributable to quantization (shrinks with ``slots``).
    quantization_tolerance: float
    #: Total slots in the replayed period.
    slots: int

    @property
    def executable(self) -> bool:
        """Entries independent, airtime within budget, demands delivered."""
        return (
            self.entries_independent
            and self.airtime_ok
            and self.delivers_background
        )


def replay_schedule(
    model: InterferenceModel,
    schedule,
    new_path: Path,
    background: Sequence[Tuple[Path, float]] = (),
    slots: int = 100_000,
) -> ReplayReport:
    """Execute a schedule slot by slot and measure what it delivers.

    Time shares are quantized to ``slots`` integer slots via largest
    remainder, every entry is re-checked against the model's
    independence primitive, and per-link throughput is re-accumulated
    couple by couple.  The achieved new-path bandwidth is the minimum,
    over the new path's links, of delivered throughput minus background
    demand — what the new flow actually gets after the background takes
    its share.
    """
    entries = list(schedule.entries)
    independent = all(
        model.is_independent(
            sorted(entry.independent_set.couples, key=attrgetter("link.link_id"))
        )
        for entry in entries
    )
    raw = [entry.time_share * slots for entry in entries]
    base = [int(math.floor(x)) for x in raw]
    target = min(slots, int(round(sum(raw))))
    extras = max(0, target - sum(base))
    by_remainder = sorted(
        range(len(raw)), key=lambda i: (raw[i] - base[i]), reverse=True
    )
    allocation = list(base)
    for i in by_remainder[:extras]:
        allocation[i] += 1
    airtime_ok = sum(allocation) <= slots

    delivered: Dict[Link, float] = {}
    max_rate = 0.0
    for entry, n_slots in zip(entries, allocation):
        for couple in entry.independent_set.couples:
            mbps = couple.rate.mbps
            max_rate = max(max_rate, mbps)
            delivered[couple.link] = (
                delivered.get(couple.link, 0.0) + (n_slots / slots) * mbps
            )
    tolerance = (len(entries) / slots) * max_rate if entries else 0.0

    demands = background_demands(background)
    delivers = all(
        delivered.get(link, 0.0) + tolerance + 1e-9 >= demand
        for link, demand in demands.items()
    )
    achieved = min(
        delivered.get(link, 0.0) - demands.get(link, 0.0)
        for link in new_path.links
    )
    return ReplayReport(
        achieved=achieved,
        entries_independent=independent,
        airtime_ok=airtime_ok,
        delivers_background=delivers,
        quantization_tolerance=tolerance,
        slots=slots,
    )
