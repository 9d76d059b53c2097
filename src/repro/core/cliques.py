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
same bitmask Bron–Kerbosch that enumerates the maximal independent sets
(:mod:`repro.core.independent_sets`), on one
:class:`~repro.core.independent_sets.CoupleSpace`: here the search runs on
the conflict side (:func:`_conflict_rows`), with couples of one link never
adjacent, over the whole space or, with every rate pinned, over the
sub-mask of one couple per link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.independent_sets import CoupleSpace, _CoupleSet, _mask_members
from repro.interference.base import InterferenceModel, LinkRate
from repro.net.link import Link
from repro.phy.rates import Rate

__all__ = [
    "RateClique",
    "enumerate_maximal_rate_cliques",
    "maximal_cliques_with_maximum_rates",
    "fixed_rate_cliques",
]


@dataclass(frozen=True)
class RateClique(_CoupleSet):
    """A clique of (link, rate) couples, one rate per link."""

    _kind = "a clique"

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[Link, Rate]]) -> "RateClique":
        return cls(frozenset(LinkRate(link, rate) for link, rate in pairs))

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


def _conflict_rows(space: CoupleSpace) -> List[int]:
    """Bitmask adjacency of the conflict relation over ``space``'s couples.

    The complement of the compatibility rows, with the bits of same-link
    couples cleared.  Couples of one link are then never adjacent, so
    every clique holds one couple per link and plain graph maximality is
    the paper's: no couple of a link outside C conflicts with every
    member of C.
    """
    full = (1 << len(space.couples)) - 1
    rows = list(space.compatible)
    for same_link in space.bits.values():
        rest = same_link
        while rest:
            low_bit = rest & -rest
            rest ^= low_bit
            vertex = low_bit.bit_length() - 1
            rows[vertex] = full & ~rows[vertex] & ~same_link
    return rows


def _cliques(space: CoupleSpace, masks: Sequence[int]) -> List[RateClique]:
    """The cliques of ``masks`` over ``space``'s couples."""
    return [
        RateClique(frozenset(_mask_members(mask, space.couples)))
        for mask in masks
    ]


def _fixed_rate_cliques(
    space: CoupleSpace, conflict: List[int], rate_vector: Dict[Link, Rate]
) -> List[RateClique]:
    """:func:`fixed_rate_cliques` on ``space``, a space holding
    ``rate_vector``'s links, with its :func:`_conflict_rows` ``conflict``."""
    pinned = space.couple_mask(
        LinkRate(link, rate) for link, rate in rate_vector.items()
    )
    return _cliques(space, space.ordered_cliques(conflict, pinned))


def _rate_clique_masks(
    model: InterferenceModel, links: Sequence[Link]
) -> Tuple[CoupleSpace, List[int]]:
    """The space over ``links`` and the masks of all its maximal
    rate-coupled cliques, sorted as Eq. 6's columns are."""
    space = CoupleSpace(model, links)
    full = (1 << len(space.couples)) - 1
    return space, space.ordered_cliques(_conflict_rows(space), full)


def enumerate_maximal_rate_cliques(
    model: InterferenceModel, links: Sequence[Link]
) -> List[RateClique]:
    """All maximal rate-coupled cliques over ``links``.

    They come sorted as Eq. 6's columns are (size descending, then
    couple names).  Maximality is the paper's: "C ∪ {(L_i, r_i)} is not
    a clique for any couple with L_i ∉ C".  Couples of links already in
    C are not candidates for extension.
    """
    return _cliques(*_rate_clique_masks(model, links))


def maximal_cliques_with_maximum_rates(
    model: InterferenceModel, links: Sequence[Link]
) -> List[RateClique]:
    """Maximal cliques that stay maximal under no single-rate increase.

    Implements the Section 3.1 definition: drop a maximal clique C when
    replacing some (L_i, r_i) ∈ C by (L_i, r'_i) with r'_i > r_i yields a
    set that is still a maximal clique.  (In the paper's Scenario II this
    keeps {(L1,54),...,(L4,54)} and {(L1,36),(L2,54),(L3,54)} and drops
    {(L1,36),(L2,36),(L3,36)}.)  On the space's bits a faster couple of
    a member's link is a lower bit of that link's interval, so the test
    swaps bits and looks the mask up among the maximal cliques.
    """
    space, masks = _rate_clique_masks(model, links)
    found = set(masks)

    def upgradable(mask: int) -> bool:
        rest = mask
        while rest:
            low_bit = rest & -rest
            rest ^= low_bit
            link_id = space.couples[low_bit.bit_length() - 1].link.link_id
            faster = space.bits[link_id] & (low_bit - 1)
            while faster:
                up_bit = faster & -faster
                faster ^= up_bit
                if ((mask ^ low_bit) | up_bit) in found:
                    return True
        return False

    return _cliques(space, [mask for mask in masks if not upgradable(mask)])


def fixed_rate_cliques(
    model: InterferenceModel,
    rate_vector: Dict[Link, Rate],
) -> List[RateClique]:
    """Maximal cliques when every link's rate is pinned (Eq. 9 inner loop).

    The same search as :func:`enumerate_maximal_rate_cliques`, over the one
    couple per link that ``rate_vector`` names: a sub-mask of the space
    over ``rate_vector``'s links.

    Raises:
        InterferenceError: when a link does not support its pinned rate
            standalone (the couple is not in the space).
    """
    space = CoupleSpace(model, rate_vector)
    return _fixed_rate_cliques(space, _conflict_rows(space), rate_vector)
