"""Physical (cumulative-SINR) interference model — Eq. 3 exactly.

Inside a concurrent transmission set the SINR at a link's receiver is the
received signal power over the *sum* of all other senders' powers plus
noise.  The maximum supported rate vector of a set is therefore a direct
computation (the interference a sender causes does not depend on its rate,
so there is no fixed point to search).

Pairwise ``conflicts`` is the single-interferer specialisation, which makes
this model usable by conflict-graph enumeration as a *necessary* filter;
exact set feasibility always goes through :meth:`max_rate_vector` /
:meth:`is_independent`.

All SINR queries are served from a precomputed
:class:`~repro.interference.kernel.GeometricKernel` (node→node received
powers, per-link signal and thresholds), and :meth:`max_rate_vector` is
memoized with an LRU keyed on the frozenset of link ids — cumulative-set
enumeration evaluates the same subsets many times over.
"""

from __future__ import annotations

from collections import OrderedDict
from operator import attrgetter
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.interference.base import InterferenceModel, LinkRate
from repro.interference.kernel import GeometricKernel
from repro.obs import get_recorder
from repro.net.link import Link
from repro.net.topology import Network
from repro.phy.rates import Rate
from repro.phy.sinr import sinr

__all__ = ["PhysicalInterferenceModel"]

#: Sentinel distinguishing "not cached" from a cached ``None`` (infeasible).
_MISSING = object()


class PhysicalInterferenceModel(InterferenceModel):
    """Cumulative interference over geometric networks.

    Args:
        network: A geometric network (every node placed).
        vector_cache_size: Maximum number of link sets whose
            :meth:`max_rate_vector` result is memoized (LRU eviction).
    """

    def __init__(self, network: Network, vector_cache_size: int = 65536):
        super().__init__(network)
        if not network.is_geometric:
            raise ValueError(
                "PhysicalInterferenceModel needs node coordinates; use "
                "DeclaredInterferenceModel for abstract topologies"
            )
        self._kernel = GeometricKernel(network)
        self._vector_cache: "OrderedDict[FrozenSet[str], Optional[Dict[Link, Rate]]]" = OrderedDict()
        self._vector_cache_size = int(vector_cache_size)

    @property
    def kernel(self) -> GeometricKernel:
        """The precomputed power kernel (shared with the enumeration layer)."""
        return self._kernel

    def standalone_rates(self, link: Link) -> Tuple[Rate, ...]:
        return self._kernel.entry(link).rates

    def standalone_rates_of(
        self, links: Sequence[Link]
    ) -> List[Tuple[Rate, ...]]:
        return [entry.rates for entry in self._kernel.entries(links)]

    def standalone_couples_of(
        self, links: Sequence[Link]
    ) -> List[Tuple[LinkRate, ...]]:
        return [entry.couples for entry in self._kernel.entries(links)]

    # -- cumulative computations ------------------------------------------------

    def sinr_in_set(self, link: Link, links: FrozenSet[Link]) -> float:
        """Eq. 3: SINR at ``link``'s receiver with all of ``links`` active.

        The interferers' powers are added in link-id order, not the set's
        hash order: float addition is not associative, so the sum (and a
        rate decided at a threshold) would otherwise depend on the
        process's hash seed.
        """
        kernel = self._kernel
        entry = kernel.entry(link)
        power = kernel.power
        receiver = entry.receiver_index
        interference = 0.0
        for other in sorted(links, key=attrgetter("link_id")):
            if other != link:
                interference += power[
                    kernel.entry(other).sender_index, receiver
                ]
        return sinr(entry.signal_mw, interference, kernel.noise_mw)

    def max_rate_in_set(
        self, link: Link, links: FrozenSet[Link]
    ) -> Optional[Rate]:
        """Fastest rate ``link`` supports inside the concurrent set."""
        ratio = self.sinr_in_set(link, links)
        entry = self._kernel.entry(link)
        for rate, threshold in zip(entry.rates, entry.thresholds):
            if ratio >= threshold:
                return rate
        return None

    def max_rate_vector(
        self, links: FrozenSet[Link]
    ) -> Optional[Dict[Link, Rate]]:
        key = frozenset(link.link_id for link in links)
        cached = self._vector_cache.get(key, _MISSING)
        if cached is not _MISSING:
            get_recorder().count("kernel.vector_cache.hits")
            self._vector_cache.move_to_end(key)
            return dict(cached) if cached is not None else None
        get_recorder().count("kernel.vector_cache.misses")
        result = self._compute_max_rate_vector(links)
        self._vector_cache[key] = (
            dict(result) if result is not None else None
        )
        if len(self._vector_cache) > self._vector_cache_size:
            self._vector_cache.popitem(last=False)
        return result

    def _compute_max_rate_vector(
        self, links: FrozenSet[Link]
    ) -> Optional[Dict[Link, Rate]]:
        # In link-id order, not the set's hash order: the scan stops at
        # the first failing link, and the kernel's counters follow it.
        link_list = sorted(links, key=attrgetter("link_id"))
        # Half-duplex pre-check: any node serving two links kills the set.
        seen_nodes: set = set()
        for link in link_list:
            sender = link.sender.node_id
            receiver = link.receiver.node_id
            if sender in seen_nodes or receiver in seen_nodes:
                return None
            seen_nodes.add(sender)
            seen_nodes.add(receiver)
        vector: Dict[Link, Rate] = {}
        for link in link_list:
            best = self.max_rate_in_set(link, links)
            if best is None:
                return None
            vector[link] = best
        return vector

    def is_independent(self, couples) -> bool:
        """Exact cumulative test: every couple's rate must survive Eq. 3."""
        couple_list = list(couples)
        links = frozenset(c.link for c in couple_list)
        if len(links) != len(couple_list):
            return False
        vector = self.max_rate_vector(links)
        if vector is None:
            return False
        return all(c.rate.mbps <= vector[c.link].mbps for c in couple_list)

    # -- pairwise specialisation ---------------------------------------------------

    def _conflict(self, a: LinkRate, b: LinkRate) -> bool:
        pair = frozenset((a.link, b.link))
        return (
            self.max_rate_in_set(a.link, pair) is None
            or self.sinr_in_set(a.link, pair) < a.rate.sinr_linear
            or self.sinr_in_set(b.link, pair) < b.rate.sinr_linear
        )
