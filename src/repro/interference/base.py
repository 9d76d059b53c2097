"""Interference model interface and the :class:`LinkRate` couple."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.errors import InterferenceError
from repro.net.link import Link
from repro.net.topology import Network
from repro.phy.rates import Rate

__all__ = ["LinkRate", "InterferenceModel"]


@dataclass(frozen=True, slots=True)
class LinkRate:
    """A (link, rate) couple — the unit the multirate model reasons about.

    Section 2.4 / 3.1 of the paper: in a multirate network both independent
    sets and cliques are sets of such couples, because whether two links can
    coexist depends on the rates they use.  Slotted: every cached column
    family keeps its couples.
    """

    link: Link
    rate: Rate

    @property
    def throughput_per_unit_time(self) -> float:
        """Rate in Mbps — throughput delivered per unit of scheduled time."""
        return self.rate.mbps

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.link.link_id},{self.rate.mbps:g})"


class InterferenceModel(ABC):
    """Answers rate-coupled concurrency questions for one network.

    Concrete models implement two primitives:

    * :meth:`standalone_rates` — which rates a link supports transmitting
      alone (Eq. 1 with zero interference);
    * :meth:`_conflict` — whether two link–rate couples on *distinct,
      non-adjacent* links conflict.

    The public :meth:`conflicts` adds the model-independent half-duplex
    rule.  :meth:`max_rate_vector` gives the maximum supported rate vector
    of a concurrent transmission set (Eq. 3 semantics); the default derives
    it from pairwise conflicts, and the physical model overrides it with
    the cumulative computation.
    """

    def __init__(self, network: Network):
        self.network = network

    # -- primitives ----------------------------------------------------------

    @abstractmethod
    def standalone_rates(self, link: Link) -> Tuple[Rate, ...]:
        """Rates ``link`` supports when it transmits alone, fastest first.

        An empty tuple means the link is unusable and must not appear in
        any schedule.
        """

    @abstractmethod
    def _conflict(self, a: LinkRate, b: LinkRate) -> bool:
        """Model-specific conflict test for couples on non-adjacent links."""

    # -- public API --------------------------------------------------------------

    def standalone_rates_of(
        self, links: Sequence[Link]
    ) -> List[Tuple[Rate, ...]]:
        """:meth:`standalone_rates` of each of ``links``, in order."""
        return [self.standalone_rates(link) for link in links]

    def standalone_couples_of(
        self, links: Sequence[Link]
    ) -> List[Tuple[LinkRate, ...]]:
        """Each of ``links``' (link, rate) couples over its standalone
        rates, fastest first.  The models of this package return one
        couple object per (link, rate) every time, so the column
        families they enumerate share their couples."""
        return [
            tuple(LinkRate(link, rate) for rate in rates)
            for link, rates in zip(links, self.standalone_rates_of(links))
        ]

    def max_standalone_rate(self, link: Link) -> Optional[Rate]:
        rates = self.standalone_rates(link)
        return rates[0] if rates else None

    def conflicts(self, a: LinkRate, b: LinkRate) -> bool:
        """Whether the two couples cannot transmit successfully together.

        Symmetric.  Couples on the same link trivially conflict (a link
        transmits at one rate at a time); links sharing a node conflict
        regardless of rates (half-duplex).
        """
        if a.link == b.link:
            return True
        if a.link.shares_node_with(b.link):
            return True
        return self._conflict(a, b)

    def is_independent(self, couples: Iterable[LinkRate]) -> bool:
        """Whether the couples form an independent set (Sec. 2.4).

        The default checks all pairs, which is exact for pairwise models;
        the physical model overrides with the cumulative test.
        """
        couple_list = list(couples)
        for i, a in enumerate(couple_list):
            if not self.standalone_rates(a.link):
                return False
            if a.rate not in self.standalone_rates(a.link):
                return False
            for b in couple_list[i + 1:]:
                if self.conflicts(a, b):
                    return False
        return True

    def max_rate_vector(
        self, links: FrozenSet[Link]
    ) -> Optional[Dict[Link, Rate]]:
        """Maximum supported rate vector of a concurrent set of links.

        Returns ``None`` when the set is not schedulable at all — some link
        gets no positive rate (Prop. 2 says such sets need not be
        considered) or the model cannot assign per-link maximum rates
        independently (declared models with genuinely coupled conflicts
        raise :class:`InterferenceError` instead; enumeration then goes
        through the conflict graph).
        """
        vector: Dict[Link, Rate] = {}
        link_list = list(links)
        for i, link in enumerate(link_list):
            for other in link_list[i + 1:]:
                if link.shares_node_with(other):
                    return None
        for link in link_list:
            best: Optional[Rate] = None
            for rate in self.standalone_rates(link):
                candidate = LinkRate(link, rate)
                others_ok = all(
                    not self._pair_blocks(candidate, other)
                    for other in link_list
                    if other != link
                )
                if others_ok:
                    best = rate
                    break
            if best is None:
                return None
            vector[link] = best
        return vector

    def _pair_blocks(self, candidate: LinkRate, other_link: Link) -> bool:
        """Whether ``other_link``'s mere transmission breaks ``candidate``.

        Used by the default :meth:`max_rate_vector`: in SINR-derived models
        the interference a transmitter causes does not depend on *its* rate,
        so a candidate couple is blocked by a link, not by a couple.  Models
        whose conflicts genuinely depend on both rates override
        :meth:`max_rate_vector` or raise.
        """
        probe_rates = self.standalone_rates(other_link)
        if not probe_rates:
            raise InterferenceError(
                f"link {other_link.link_id!r} supports no standalone rate"
            )
        # Rate of the interfering link is irrelevant in SINR models; probe
        # with its slowest standalone rate.
        probe = LinkRate(other_link, probe_rates[-1])
        return self._conflict(candidate, probe)
