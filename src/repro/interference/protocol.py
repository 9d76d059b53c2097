"""Protocol (pairwise) interference model.

A couple ``(L_i, r_i)`` conflicts with ``(L_j, r_j)`` when, with both
senders transmitting, either receiver misses its own rate's SINR threshold
against the *other* sender alone (plus noise).  This is the single-
interferer restriction of Eq. 3 and exactly the structure of the paper's
Scenario II example: the interference a link suffers depends on *its own*
rate (faster rates need higher SINR, so they conflict with more distant
interferers), not on the interferer's rate.

Being pairwise, this model supports conflict-graph enumeration of
independent sets and cliques, which is how the evaluation-scale topologies
are handled.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.interference.base import InterferenceModel, LinkRate
from repro.interference.kernel import GeometricKernel
from repro.net.link import Link
from repro.net.topology import Network
from repro.phy.rates import Rate
from repro.phy.sinr import sinr

__all__ = ["ProtocolInterferenceModel"]


class ProtocolInterferenceModel(InterferenceModel):
    """Pairwise rate-coupled conflicts from single-interferer SINR tests.

    All SINR queries are lookups into a precomputed
    :class:`~repro.interference.kernel.GeometricKernel`, so conflict-graph
    construction costs two array reads and two compares per couple pair.
    """

    def __init__(self, network: Network):
        super().__init__(network)
        if not network.is_geometric:
            raise ValueError(
                "ProtocolInterferenceModel needs node coordinates; use "
                "DeclaredInterferenceModel for abstract topologies"
            )
        self._kernel = GeometricKernel(network)

    @property
    def kernel(self) -> GeometricKernel:
        """The precomputed power kernel."""
        return self._kernel

    def standalone_rates(self, link: Link) -> Tuple[Rate, ...]:
        return self._kernel.entry(link).rates

    def standalone_rates_of(
        self, links: Sequence[Link]
    ) -> List[Tuple[Rate, ...]]:
        return [entry.rates for entry in self._kernel.entries(links)]

    def _receiver_survives(self, victim: LinkRate, interferer: Link) -> bool:
        """SINR test at ``victim``'s receiver with one interfering sender."""
        kernel = self._kernel
        entry = kernel.entry(victim.link)
        interference = kernel.power[
            kernel.entry(interferer).sender_index, entry.receiver_index
        ]
        return sinr(entry.signal_mw, interference, kernel.noise_mw) >= victim.rate.sinr_linear

    def _conflict(self, a: LinkRate, b: LinkRate) -> bool:
        return not (
            self._receiver_survives(a, b.link)
            and self._receiver_survives(b, a.link)
        )
