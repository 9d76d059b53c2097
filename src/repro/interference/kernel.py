"""Precomputed geometric power kernel for SINR-based interference models.

Every SINR question the physical and protocol models answer reduces to the
same three ingredients: the received power of one node's transmission at
another node, the signal power of a link, and the per-rate SINR thresholds
a link must clear.  The seed implementation recomputed all three through
``network.distance`` + ``radio.received_mw`` + ``Rate.sinr_linear`` on every
query, which made cumulative-set feasibility (Eq. 3) the hot path of the
whole library.

:class:`GeometricKernel` hoists them out: one node→node received-power
matrix built at model construction, plus a lazily filled per-link entry
holding the sender/receiver indices into that matrix, the link's signal
power, and its standalone rates with pre-converted linear SINR thresholds.
Per-link values are produced by the *same scalar calls* the seed made
(``Link.length_m`` → ``RadioConfig.received_mw``), so cached answers are
bit-identical to the uncached ones.

The power matrix itself is built vectorized (n² scalar Python calls take
seconds at 1000 nodes).  Its canonical per-entry formula uses only
correctly-rounded elementwise operations — ``sqrt(dx*dx + dy*dy)`` for the
distance and an integral-exponent multiplication chain for the path gain —
so the numpy build is bit-identical to the scalar reference
:func:`matrix_power_reference` on every topology, not just in expectation.
(``math.hypot`` and libm ``pow`` were rejected because their numpy
counterparts differ in the last ulp; the canonical metric is within one ulp
of ``Node.distance_to``.)

The kernel tolerates nodes being added to the network after construction:
entry lookups check the node count and **grow** the matrix incrementally
when it increased — only the new rows/columns are computed, existing rows
and cached link entries stay (positions are immutable, so they never go
stale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.interference.base import LinkRate
from repro.net.link import Link
from repro.net.node import Node
from repro.net.topology import Network
from repro.obs import get_recorder
from repro.phy.radio import RadioConfig
from repro.phy.rates import Rate

__all__ = ["GeometricKernel", "LinkEntry", "matrix_power_reference"]


def matrix_power_reference(radio: RadioConfig, a: Node, b: Node) -> float:
    """Scalar reference for one power-matrix entry (what tests pin against).

    Computes the received power of ``a``'s transmission at ``b`` using the
    kernel's canonical distance metric ``sqrt(dx*dx + dy*dy)`` — the
    formulation whose vectorized evaluation is bit-identical to this scalar
    one (see the module docstring).
    """
    if not a.has_position or not b.has_position:
        raise TopologyError(
            f"distance between {a.node_id!r} and {b.node_id!r} "
            "is undefined: abstract nodes have no coordinates"
        )
    dx = a.x - b.x
    dy = a.y - b.y
    return radio.received_mw(math.sqrt(dx * dx + dy * dy))


@dataclass(frozen=True)
class LinkEntry:
    """Precomputed per-link data for SINR evaluation.

    Attributes:
        sender_index: Row of the link's sender in the power matrix.
        receiver_index: Column of the link's receiver in the power matrix.
        sender_id, receiver_id: The endpoint node ids (for half-duplex
            checks without touching :class:`~repro.net.Link` objects).
        signal_mw: Received signal power at the link's receiver.
        rates: Standalone rates (Eq. 1), fastest first.
        thresholds: Linear SINR thresholds aligned with ``rates``.
        couples: The link's (link, rate) couples aligned with ``rates``:
            the one couple object per (link, rate) that every column
            family over this kernel's model shares.
    """

    sender_index: int
    receiver_index: int
    sender_id: str
    receiver_id: str
    signal_mw: float
    rates: Tuple[Rate, ...]
    thresholds: Tuple[float, ...]
    couples: Tuple[LinkRate, ...]


class GeometricKernel:
    """Node→node received-power matrix plus per-link SINR data."""

    def __init__(self, network: Network):
        self.network = network
        self.noise_mw = network.radio.noise_mw
        self._entries: Dict[str, LinkEntry] = {}
        self._build_matrix()

    def _coords(self, nodes) -> Tuple[np.ndarray, np.ndarray]:
        xs = np.empty(len(nodes), dtype=float)
        ys = np.empty(len(nodes), dtype=float)
        for index, node in enumerate(nodes):
            if not node.has_position:
                raise TopologyError(
                    f"node {node.node_id!r} has no coordinates: the "
                    "geometric kernel needs a placed topology"
                )
            xs[index] = node.x
            ys[index] = node.y
        return xs, ys

    def _power_block(
        self,
        sender_xs: np.ndarray,
        sender_ys: np.ndarray,
        receiver_xs: np.ndarray,
        receiver_ys: np.ndarray,
    ) -> np.ndarray:
        """Received-power block, senders on rows and receivers on columns.

        Only correctly-rounded elementwise operations, so each entry equals
        :func:`matrix_power_reference` bit-for-bit.
        """
        dx = sender_xs[:, None] - receiver_xs[None, :]
        dy = sender_ys[:, None] - receiver_ys[None, :]
        distances = np.sqrt(dx * dx + dy * dy)
        return self.network.radio.received_mw_array(distances)

    def _build_matrix(self) -> None:
        get_recorder().count("kernel.matrix_builds")
        nodes = self.network.nodes
        self.node_index = {
            node.node_id: index for index, node in enumerate(nodes)
        }
        self._xs, self._ys = self._coords(nodes)
        self.power = self._power_block(self._xs, self._ys, self._xs, self._ys)

    def _ensure_current(self) -> None:
        nodes = self.network.nodes
        known = len(self.node_index)
        if known == len(nodes):
            return
        if known > len(nodes) or any(
            self.node_index.get(node.node_id) != index
            for index, node in enumerate(nodes[:known])
        ):
            # Known nodes changed (never happens with the append-only
            # Network API) — fall back to a full rebuild.
            self._build_matrix()
            self._entries.clear()
            return
        self._grow_matrix(nodes, known)

    def _grow_matrix(self, nodes, known: int) -> None:
        """Append rows/columns for nodes added since the last (re)build.

        Existing entries are copied, not recomputed, and cached link entries
        stay valid: node indices are stable because the network's node store
        is append-only and positions are immutable.
        """
        get_recorder().count("kernel.matrix_grows")
        new_xs, new_ys = self._coords(nodes[known:])
        total = len(nodes)
        power = np.empty((total, total), dtype=float)
        power[:known, :known] = self.power
        power[known:, :] = self._power_block(
            new_xs, new_ys, np.concatenate([self._xs, new_xs]),
            np.concatenate([self._ys, new_ys]),
        )
        power[:known, known:] = self._power_block(
            self._xs, self._ys, new_xs, new_ys
        )
        self.power = power
        self._xs = np.concatenate([self._xs, new_xs])
        self._ys = np.concatenate([self._ys, new_ys])
        for offset, node in enumerate(nodes[known:]):
            self.node_index[node.node_id] = known + offset

    def entry(self, link: Link) -> LinkEntry:
        """The precomputed :class:`LinkEntry` for ``link`` (built lazily)."""
        cached = self._entries.get(link.link_id)
        if cached is not None:
            get_recorder().count("kernel.entry.hits")
            return cached
        get_recorder().count("kernel.entry.misses")
        return self._build_entry(link)

    def entries(self, links: Iterable[Link]) -> List[LinkEntry]:
        """:meth:`entry` for each of ``links``, in order.

        Hits and misses count as they would one call at a time, but with
        one recorder update each per batch.
        """
        cached = self._entries
        found: List[LinkEntry] = []
        hits = 0
        for link in links:
            entry = cached.get(link.link_id)
            if entry is None:
                entry = self._build_entry(link)
            else:
                hits += 1
            found.append(entry)
        recorder = get_recorder()
        if len(found) > hits:
            recorder.count("kernel.entry.misses", len(found) - hits)
        if hits:
            recorder.count("kernel.entry.hits", hits)
        return found

    def _build_entry(self, link: Link) -> LinkEntry:
        """Compute and cache ``link``'s entry (the miss path)."""
        self._ensure_current()
        radio = self.network.radio
        length = link.length_m
        signal = radio.received_mw(length)
        rates = tuple(
            rate
            for rate in radio.rate_table
            if radio.meets_sensitivity(rate, length)
            and signal / radio.noise_mw >= rate.sinr_linear
        )
        entry = LinkEntry(
            sender_index=self.node_index[link.sender.node_id],
            receiver_index=self.node_index[link.receiver.node_id],
            sender_id=link.sender.node_id,
            receiver_id=link.receiver.node_id,
            signal_mw=signal,
            rates=rates,
            thresholds=tuple(rate.sinr_linear for rate in rates),
            couples=tuple(LinkRate(link, rate) for rate in rates),
        )
        self._entries[link.link_id] = entry
        return entry

    def received_between(self, sender_entry: LinkEntry, receiver_entry: LinkEntry) -> float:
        """Power of ``sender_entry``'s sender at ``receiver_entry``'s receiver."""
        return float(
            self.power[sender_entry.sender_index, receiver_entry.receiver_index]
        )
