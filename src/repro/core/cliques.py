"""Rate-coupled cliques (Section 3.1).

A clique in a multirate network is a set of (link, rate) couples, one rate
per link, any two of which cannot transmit successfully at the same time.
A *maximal clique* admits no further couple; a *maximal clique with maximum
rates* additionally stays maximal under no rate increase of any member.

The paper's Section 3.2 shows these cliques no longer yield valid upper
bounds on feasible throughput when links may switch rates over time; they
remain the backbone of (a) the per-rate-vector constraints of the corrected
upper bound (Eq. 9) and (b) the distributed estimators of Section 4.

Both the rate-coupled enumeration and the fixed-rate-vector enumeration of
Eq. 9 are maximal cliques of the link–rate conflict graph, found by the
same bitmask Bron–Kerbosch and compatibility masks that enumerate the
maximal independent sets (:mod:`repro.core.independent_sets`); here the
search runs on the conflict side, with couples of one link never adjacent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.core.independent_sets import (
    _couple_names,
    _mask_members,
    _ordered_cliques,
    _pairwise_compatibility_masks,
)
from repro.errors import InterferenceError
from repro.interference.base import InterferenceModel, LinkRate
from repro.interference.conflict_graph import link_rate_vertices
from repro.net.link import Link
from repro.phy.rates import Rate

__all__ = [
    "RateClique",
    "enumerate_maximal_rate_cliques",
    "maximal_cliques_with_maximum_rates",
    "fixed_rate_cliques",
    "clique_transmission_time",
]


@dataclass(frozen=True)
class RateClique:
    """A clique of (link, rate) couples, one rate per link."""

    couples: FrozenSet[LinkRate]

    def __post_init__(self) -> None:
        links = [c.link for c in self.couples]
        if len(set(links)) != len(links):
            raise InterferenceError("a clique uses each link at most once")

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[Link, Rate]]) -> "RateClique":
        return cls(frozenset(LinkRate(link, rate) for link, rate in pairs))

    @property
    def links(self) -> FrozenSet[Link]:
        return frozenset(c.link for c in self.couples)

    @property
    def size(self) -> int:
        return len(self.couples)

    def rate_of(self, link: Link) -> Optional[Rate]:
        for couple in self.couples:
            if couple.link == link:
                return couple.rate
        return None

    def transmission_time(self, demands: Dict[Link, float]) -> float:
        """Clique time share ``T = sum(y_i / r_i)`` for given link demands.

        ``demands`` maps links to Mbps; links outside the clique are
        ignored, links of the clique missing from the map count as zero.
        In a single-rate-vector world ``T <= 1`` is the classical clique
        constraint; the paper's counterexample shows it can exceed 1 for
        feasible multirate demand vectors.
        """
        total = 0.0
        for couple in self.couples:
            demand = demands.get(couple.link, 0.0)
            total += demand / couple.rate.mbps
        return total

    def __iter__(self):
        return iter(self.couples)

    def __len__(self) -> int:
        return len(self.couples)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(sorted(str(c) for c in self.couples))
        return "{" + inner + "}"


def clique_transmission_time(
    clique: RateClique, demands: Dict[Link, float]
) -> float:
    """Module-level alias of :meth:`RateClique.transmission_time`."""
    return clique.transmission_time(demands)


def _maximal_cliques(
    model: InterferenceModel, couples: Sequence[LinkRate]
) -> List[RateClique]:
    """Maximal cliques of the conflict relation over ``couples``, sorted
    as Eq. 6's columns are (size descending, then couple names).

    Runs the bitmask Bron–Kerbosch of :mod:`repro.core.independent_sets`
    on the complement of the couples' compatibility masks, with the bits
    of same-link couples cleared.  Couples of one link are then never
    adjacent, so every clique holds one couple per link and plain graph
    maximality is the paper's: no couple of a link outside C conflicts
    with every member of C.
    """
    compatible = _pairwise_compatibility_masks(model, couples)
    same_link: Dict[Link, int] = {}
    for index, couple in enumerate(couples):
        same_link[couple.link] = same_link.get(couple.link, 0) | 1 << index
    full = (1 << len(couples)) - 1
    conflict = [
        full & ~mask & ~same_link[couple.link]
        for mask, couple in zip(compatible, couples)
    ]
    return [
        RateClique(frozenset(_mask_members(mask, couples)))
        for mask in _ordered_cliques(conflict, _couple_names(model, couples))
    ]


def enumerate_maximal_rate_cliques(
    model: InterferenceModel, links: Sequence[Link]
) -> List[RateClique]:
    """All maximal rate-coupled cliques over ``links``.

    Maximality is the paper's: "C ∪ {(L_i, r_i)} is not a clique for any
    couple with L_i ∉ C".  Couples of links already in C are not
    candidates for extension.
    """
    return _maximal_cliques(model, link_rate_vertices(model, links))


def maximal_cliques_with_maximum_rates(
    model: InterferenceModel, links: Sequence[Link]
) -> List[RateClique]:
    """Maximal cliques that stay maximal under no single-rate increase.

    Implements the Section 3.1 definition: drop a maximal clique C when
    replacing some (L_i, r_i) ∈ C by (L_i, r'_i) with r'_i > r_i yields a
    set that is still a maximal clique.  (In the paper's Scenario II this
    keeps {(L1,54),...,(L4,54)} and {(L1,36),(L2,54),(L3,54)} and drops
    {(L1,36),(L2,36),(L3,36)}.)
    """
    all_maximal = enumerate_maximal_rate_cliques(model, links)
    maximal_index = set(all_maximal)
    kept: List[RateClique] = []
    for clique in all_maximal:
        upgraded_elsewhere = False
        for couple in clique.couples:
            faster_rates = [
                r
                for r in model.standalone_rates(couple.link)
                if r.mbps > couple.rate.mbps
            ]
            for faster in faster_rates:
                replaced = (clique.couples - {couple}) | {
                    LinkRate(couple.link, faster)
                }
                candidate = RateClique(frozenset(replaced))
                if candidate in maximal_index:
                    upgraded_elsewhere = True
                    break
            if upgraded_elsewhere:
                break
        if not upgraded_elsewhere:
            kept.append(clique)
    return kept


def fixed_rate_cliques(
    model: InterferenceModel,
    rate_vector: Dict[Link, Rate],
) -> List[RateClique]:
    """Maximal cliques when every link's rate is pinned (Eq. 9 inner loop).

    The same search as :func:`enumerate_maximal_rate_cliques`, over the one
    couple per link that ``rate_vector`` names.
    """
    return _maximal_cliques(
        model, [LinkRate(link, rate) for link, rate in rate_vector.items()]
    )
