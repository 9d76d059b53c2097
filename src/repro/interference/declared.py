"""Declared interference: explicit, possibly rate-dependent conflict rules.

The paper's textbook topologies (Fig. 1) come with their conflict structure
stated in prose — e.g. Scenario II: "any two of links 1, 2, 3 interfere with
each other whichever rates they use ... links 1 and 4 interfere with each
other if link 1 transmits with 54 Mbps, but not with 36 Mbps".  This module
lets such statements be written down directly as :class:`ConflictRule`
objects.

Because declared conflicts may depend on *both* couples' rates, the
per-link maximum rate vector of a set is not always well defined; the
default :meth:`InterferenceModel.max_rate_vector` is overridden to detect
rate-coupled rules and refuse, pushing enumeration through the link–rate
conflict graph (which is always correct).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import InterferenceError, TopologyError
from repro.interference.base import InterferenceModel, LinkRate
from repro.net.link import Link
from repro.net.topology import Network
from repro.phy.rates import Rate

__all__ = ["ConflictRule", "DeclaredInterferenceModel"]

#: Predicate on (rate of link_a in Mbps, rate of link_b in Mbps).
RatePredicate = Callable[[float, float], bool]


def _always(_ra: float, _rb: float) -> bool:
    return True


class ConflictRule:
    """One symmetric conflict statement between two links.

    Args:
        link_a, link_b: Link ids (order-free).
        predicate: When given, conflict holds only for rate pairs where
            ``predicate(rate_of_link_a, rate_of_link_b)`` is true; the
            default conflicts at every rate pair.  The predicate receives
            rates in the order (``link_a``, ``link_b``) as named here, even
            when the model queries with the couples swapped.
    """

    def __init__(
        self,
        link_a: str,
        link_b: str,
        predicate: RatePredicate = _always,
    ):
        if link_a == link_b:
            raise InterferenceError(
                f"conflict rule between {link_a!r} and itself is meaningless"
            )
        self.link_a = link_a
        self.link_b = link_b
        self.predicate = predicate

    def applies(self, a: LinkRate, b: LinkRate) -> bool:
        """Whether this rule declares ``a`` and ``b`` in conflict."""
        if (a.link.link_id, b.link.link_id) == (self.link_a, self.link_b):
            return self.predicate(a.rate.mbps, b.rate.mbps)
        if (b.link.link_id, a.link.link_id) == (self.link_a, self.link_b):
            return self.predicate(b.rate.mbps, a.rate.mbps)
        return False

    @property
    def is_rate_dependent(self) -> bool:
        return self.predicate is not _always

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "rate-dependent" if self.is_rate_dependent else "always"
        return f"ConflictRule({self.link_a!r}, {self.link_b!r}, {kind})"


class DeclaredInterferenceModel(InterferenceModel):
    """Conflicts and standalone rates stated explicitly.

    Args:
        network: The (typically abstract) network.
        standalone_mbps: Map from link id to the Mbps values that link
            supports transmitting alone.  Links absent from the map support
            every rate of the network's rate table.
        rules: The conflict statements.  Link pairs not covered by any rule
            do not conflict (except for the universal half-duplex rule).
    """

    def __init__(
        self,
        network: Network,
        rules: Iterable[ConflictRule] = (),
        standalone_mbps: Optional[Mapping[str, Sequence[float]]] = None,
    ):
        super().__init__(network)
        self._rules: Tuple[ConflictRule, ...] = tuple(rules)
        for rule in self._rules:
            # Fail fast on typos in link ids.
            network.link(rule.link_a)
            network.link(rule.link_b)
        self._standalone: Dict[str, Tuple[Rate, ...]] = {}
        self._couples: Dict[str, Tuple[LinkRate, ...]] = {}
        table = network.radio.rate_table
        standalone_mbps = dict(standalone_mbps or {})
        for link in network.links:
            if link.link_id in standalone_mbps:
                rates = tuple(
                    sorted(
                        (table.get(m) for m in standalone_mbps.pop(link.link_id)),
                        key=lambda r: r.mbps,
                        reverse=True,
                    )
                )
            else:
                rates = table.rates
            self._standalone[link.link_id] = rates
            self._couples[link.link_id] = tuple(
                LinkRate(link, rate) for rate in rates
            )
        if standalone_mbps:
            raise TopologyError(
                f"standalone_mbps names unknown links: "
                f"{sorted(standalone_mbps)}"
            )

    @property
    def rules(self) -> Tuple[ConflictRule, ...]:
        return self._rules

    def standalone_rates(self, link: Link) -> Tuple[Rate, ...]:
        return self._standalone[link.link_id]

    def standalone_couples_of(
        self, links: Sequence[Link]
    ) -> List[Tuple[LinkRate, ...]]:
        return [self._couples[link.link_id] for link in links]

    def _conflict(self, a: LinkRate, b: LinkRate) -> bool:
        return any(rule.applies(a, b) for rule in self._rules)

    def max_rate_vector(
        self, links: FrozenSet[Link]
    ) -> Optional[Dict[Link, Rate]]:
        """Per-link maximum rates, when rules allow it.

        With only rate-independent rules among the given links, the default
        pairwise derivation is exact.  If a rate-dependent rule touches two
        of the links, a per-link maximum is ill-defined (the feasible rate
        of one link depends on the rate the other picks) and the caller
        must enumerate over the link–rate conflict graph instead.
        """
        ids = {link.link_id for link in links}
        for rule in self._rules:
            if (
                rule.is_rate_dependent
                and rule.link_a in ids
                and rule.link_b in ids
            ):
                raise InterferenceError(
                    "max_rate_vector is ill-defined: rate-dependent rule "
                    f"{rule!r} couples two links of the set; enumerate via "
                    "the link-rate conflict graph instead"
                )
        return super().max_rate_vector(links)

    def _pair_blocks(self, candidate: LinkRate, other_link: Link) -> bool:
        # A declared rule may hold only for *some* of the other link's
        # rates; max_rate_vector() already guarantees no rate-dependent rule
        # couples set members, so any applicable rule here is
        # rate-independent and probing with one rate is exact.
        return super()._pair_blocks(candidate, other_link)
