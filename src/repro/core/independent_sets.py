"""Rate-coupled independent sets (Section 2.4).

An independent set in a multirate network is a set of (link, rate) couples
that can all transmit successfully at the same time.  A *maximal* one
additionally has every link at its maximum supported rate within the set,
and admits no further link without hurting a member (possibly to rate
zero).  Unlike the single-rate case, the links of one maximal set can be a
subset of another's — the smaller set trades concurrency for faster rates —
so maximality is rate-aware.

Two enumeration strategies are provided, dispatched on the model:

* **pairwise** (protocol / declared models): maximal independent sets of
  the link–rate conflict graph, via maximal cliques of its complement;
* **cumulative** (physical model): recursive subset search with Eq. 3
  feasibility, keeping exactly the sets that satisfy the paper's
  maximality definition.

Proposition 3 says these maximal sets with maximum rate vectors suffice to
express the feasibility condition (Eq. 4); :func:`prune_dominated` removes
any remaining redundant columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InterferenceError
from repro.interference.base import InterferenceModel, LinkRate
from repro.obs import get_recorder
from repro.interference.conflict_graph import link_rate_vertices
from repro.interference.physical import PhysicalInterferenceModel
from repro.net.link import Link
from repro.phy.rates import Rate

__all__ = [
    "RateIndependentSet",
    "enumerate_maximal_independent_sets",
    "prune_dominated",
]


@dataclass(frozen=True)
class RateIndependentSet:
    """An independent set of (link, rate) couples with its rate vector."""

    couples: FrozenSet[LinkRate]

    def __post_init__(self) -> None:
        links = [c.link for c in self.couples]
        if len(set(links)) != len(links):
            raise InterferenceError(
                "an independent set uses each link at most once"
            )

    @classmethod
    def from_vector(cls, vector: Dict[Link, Rate]) -> "RateIndependentSet":
        return cls(frozenset(LinkRate(link, rate) for link, rate in vector.items()))

    @cached_property
    def _rate_by_link(self) -> Dict[Link, Rate]:
        """Link→rate lookup, built once (the set is immutable)."""
        return {c.link: c.rate for c in self.couples}

    @cached_property
    def _mbps_by_link(self) -> Dict[Link, float]:
        """Link→Mbps lookup used by dominance checks and LP assembly."""
        return {c.link: c.rate.mbps for c in self.couples}

    @property
    def links(self) -> FrozenSet[Link]:
        return frozenset(self._rate_by_link)

    @property
    def size(self) -> int:
        return len(self.couples)

    def rate_of(self, link: Link) -> Optional[Rate]:
        """The rate assigned to ``link``, or ``None`` if absent."""
        return self._rate_by_link.get(link)

    def throughput_of(self, link: Link) -> float:
        """Mbps delivered on ``link`` per unit scheduled time (0 if absent).

        This is the entry :math:`r^*_{ij}` of the paper's maximum rate
        vector :math:`\\overrightarrow{R^*_i}`.
        """
        return self._mbps_by_link.get(link, 0.0)

    def throughput_vector(self, links: Sequence[Link]) -> Tuple[float, ...]:
        """Rate vector over ``links`` in their given order."""
        return tuple(self.throughput_of(link) for link in links)

    def dominates(self, other: "RateIndependentSet") -> bool:
        """Whether scheduling ``self`` is at least as useful as ``other``.

        True when ``self`` covers every link of ``other`` at an equal or
        faster rate (and differs).  With Eq. 4's ``>=`` feasibility
        inequality, a dominated set is a redundant LP column.
        """
        if self == other:
            return False
        own_rates = self._mbps_by_link
        for link, mbps in other._mbps_by_link.items():
            if own_rates.get(link, 0.0) < mbps:
                return False
        return True

    def __iter__(self):
        return iter(self.couples)

    def __len__(self) -> int:
        return len(self.couples)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(
            sorted(str(c) for c in self.couples)
        )
        return "{" + inner + "}"


def prune_dominated(
    sets: Iterable[RateIndependentSet],
) -> List[RateIndependentSet]:
    """Drop sets dominated by another set of the collection.

    Each set becomes one row of a per-link throughput matrix (0 Mbps for
    absent links); set ``o`` dominates candidate ``c`` exactly when row
    ``o`` is elementwise ``>=`` row ``c`` and the rows differ, so the whole
    quadratic comparison runs as one vectorized matrix test instead of
    nested Python loops over couple dicts.  Rates are positive, hence
    distinct sets always have distinct rows and the empty set's all-zero
    row is dominated by any other — matching :meth:`RateIndependentSet.dominates`
    exactly.
    """
    unique = list(dict.fromkeys(sets))
    count = len(unique)
    if count <= 1:
        return list(unique)
    link_index: Dict[Link, int] = {}
    for candidate in unique:
        for link in candidate._mbps_by_link:
            if link not in link_index:
                link_index[link] = len(link_index)
    matrix = np.zeros((count, max(len(link_index), 1)))
    for row, candidate in enumerate(unique):
        for link, mbps in candidate._mbps_by_link.items():
            matrix[row, link_index[link]] = mbps
    kept: List[RateIndependentSet] = []
    # Chunk candidates so the (rows × chunk × links) comparison tensor stays
    # small even for large families.
    chunk = max(1, (8 << 20) // max(count * matrix.shape[1], 1))
    for start in range(0, count, chunk):
        block = matrix[start:start + chunk]
        # covered[o, c] == all(matrix[o] >= block[c]); the diagonal entry
        # (o == start + c) is always True, so "dominated" is count > 1.
        covered = (matrix[:, None, :] >= block[None, :, :]).all(axis=2)
        dominated = covered.sum(axis=0) > 1
        for offset, is_dominated in enumerate(dominated):
            if not is_dominated:
                kept.append(unique[start + offset])
    return kept


def enumerate_maximal_independent_sets(
    model: InterferenceModel,
    links: Sequence[Link],
    max_sets: Optional[int] = None,
) -> List[RateIndependentSet]:
    """All maximal independent sets with maximum rate vectors over ``links``.

    Args:
        model: Interference model; a :class:`PhysicalInterferenceModel`
            triggers the exact cumulative enumeration, anything else the
            pairwise conflict-graph route.
        links: Links of interest (the paper's ``P``, the union of flow
            paths).  Links with no standalone rate are skipped (Prop. 2).
        max_sets: Safety cap; exceeding it raises, pointing the caller to
            column generation rather than silently truncating (a truncated
            family would silently *underestimate* available bandwidth).

    Returns:
        Dominance-pruned maximal sets, deterministically ordered (by size
        descending, then lexicographically by couple names) so downstream
        LPs are reproducible.
    """
    recorder = get_recorder()
    with recorder.span("enum.sets"):
        usable = [link for link in links if model.standalone_rates(link)]
        if not usable:
            return []
        if isinstance(model, PhysicalInterferenceModel):
            with recorder.span("enum.cumulative"):
                found = _enumerate_cumulative(model, usable)
        else:
            with recorder.span("enum.pairwise"):
                found = _enumerate_pairwise(
                    model, link_rate_vertices(model, usable)
                )
        if max_sets is not None and len(found) > max_sets:
            raise InterferenceError(
                f"{len(found)} maximal independent sets exceed the cap "
                f"{max_sets}; use column generation for this instance"
            )
        with recorder.span("enum.prune"):
            pruned = prune_dominated(found)
        pruned.sort(key=lambda s: (-s.size, str(s)))
        recorder.count("enum.sets_found", len(found))
        recorder.count("enum.sets_pruned", len(found) - len(pruned))
    return pruned


def _enumerate_pairwise(
    model: InterferenceModel, vertices: Sequence[LinkRate]
) -> List[RateIndependentSet]:
    """Maximal independent sets of the conflict graph over ``vertices``.

    Maximal independent sets of the conflict graph are maximal cliques of
    its complement; both are computed here directly on integer bitmasks
    (Bron–Kerbosch with pivoting) instead of materializing networkx
    graphs.  Kernel-backed models get their pairwise compatibility matrix
    from one vectorized SINR evaluation; other models fall back to
    per-pair :meth:`~repro.interference.base.InterferenceModel.conflicts`
    calls.  The family found is the same either way — and the caller's
    final dominance-prune + deterministic sort make discovery order
    irrelevant.
    """
    compatible = _pairwise_compatibility_masks(model, vertices)
    return [
        RateIndependentSet(frozenset(_mask_members(mask, vertices)))
        for mask in _maximal_cliques_bitset(compatible, len(vertices))
    ]


def _mask_members(mask: int, vertices: Sequence[LinkRate]) -> List[LinkRate]:
    """The couples whose bits are set in ``mask``, lowest index first."""
    members = []
    while mask:
        low_bit = mask & -mask
        mask ^= low_bit
        members.append(vertices[low_bit.bit_length() - 1])
    return members


def _pairwise_compatibility_masks(
    model: InterferenceModel, vertices: Sequence[LinkRate]
) -> List[int]:
    """Bitmask adjacency of the conflict graph's complement.

    ``masks[i]`` has bit ``j`` set when couples ``i`` and ``j`` can
    transmit concurrently (distinct links, no shared node, and neither
    receiver loses its rate's SINR against the other sender).
    """
    count = len(vertices)
    kernel = getattr(model, "kernel", None)
    if kernel is None:
        masks = [0] * count
        for i, a in enumerate(vertices):
            for j in range(i + 1, count):
                if not model.conflicts(a, vertices[j]):
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
        return masks
    # Vectorized path: one link-level SINR-ratio matrix serves every
    # couple pair (the interferer's rate never matters, only its sender).
    entries = [kernel.entry(v.link) for v in vertices]
    senders = np.array([e.sender_index for e in entries])
    receivers = np.array([e.receiver_index for e in entries])
    sender_ids = [e.sender_id for e in entries]
    receiver_ids = [e.receiver_id for e in entries]
    signals = np.array([e.signal_mw for e in entries])
    thresholds = np.array([v.rate.sinr_linear for v in vertices])
    # ratio[i, j]: SINR at couple i's receiver with couple j's sender as
    # the lone interferer — the same scalar division `sinr` performs.
    interference = kernel.power[senders[None, :], receivers[:, None]]
    ratio = signals[:, None] / (interference + kernel.noise_mw)
    survives = ratio >= thresholds[:, None]
    compatible = survives & survives.T
    for i in range(count):
        for j in range(i + 1, count):
            if entries[i] is entries[j] or (
                sender_ids[i] in (sender_ids[j], receiver_ids[j])
                or receiver_ids[i] in (sender_ids[j], receiver_ids[j])
            ):
                compatible[i, j] = compatible[j, i] = False
    np.fill_diagonal(compatible, False)
    return [
        sum(1 << int(j) for j in np.nonzero(compatible[i])[0])
        for i in range(count)
    ]


def _maximal_cliques_bitset(
    adjacency: List[int], count: int, subset: Optional[int] = None
) -> List[int]:
    """All maximal cliques of a bitmask-adjacency graph (Bron–Kerbosch).

    The one clique search over couples.  On the compatibility masks it
    finds maximal independent sets (:func:`_enumerate_pairwise`, for Eq. 6
    and A1's fixed-rate columns, and exact pricing); on their complement
    it finds the rate-coupled and fixed-rate cliques of
    :mod:`repro.core.cliques`.

    With ``subset`` given, cliques are enumerated in (and maximal relative
    to) the sub-graph induced by that vertex mask — the pricing oracle's
    positive-weight restriction.
    """
    cliques: List[int] = []
    dfs_nodes = 0

    def expand(current: int, candidates: int, excluded: int) -> None:
        nonlocal dfs_nodes
        dfs_nodes += 1
        if not candidates and not excluded:
            cliques.append(current)
            return
        # Pivot on the vertex covering the most candidates.
        pivot_pool = candidates | excluded
        best_cover = -1
        pivot_adjacency = 0
        pool = pivot_pool
        while pool:
            low_bit = pool & -pool
            pool ^= low_bit
            cover = candidates & adjacency[low_bit.bit_length() - 1]
            cover_size = cover.bit_count()
            if cover_size > best_cover:
                best_cover = cover_size
                pivot_adjacency = cover
        branch = candidates & ~pivot_adjacency
        while branch:
            low_bit = branch & -branch
            branch ^= low_bit
            vertex_adjacency = adjacency[low_bit.bit_length() - 1]
            expand(
                current | low_bit,
                candidates & vertex_adjacency,
                excluded & vertex_adjacency,
            )
            candidates ^= low_bit
            excluded |= low_bit

    start = (1 << count) - 1 if subset is None else subset
    if start:
        recorder = get_recorder()
        with recorder.span("enum.independent_sets"):
            expand(0, start, 0)
        # One batched update keeps the per-DFS-node cost recorder-free.
        recorder.count("enum.dfs_nodes", dfs_nodes)
        recorder.count("enum.maximal_sets_emitted", len(cliques))
    return cliques


def _enumerate_cumulative(
    model: PhysicalInterferenceModel, links: Sequence[Link]
) -> List[RateIndependentSet]:
    """Exact enumeration under cumulative interference (Eq. 3).

    Explores link subsets depth-first; a subset is feasible when every
    member keeps a positive maximum rate under the set's cumulative
    interference.  Feasibility is monotone downwards (removing a link only
    raises SINRs), so infeasible branches prune their supersets.  A feasible
    set is kept when it is maximal in the paper's sense: every addable link
    either breaks the set or lowers some member's maximum rate — which,
    under cumulative interference, reduces to "adding the link changes the
    rate vector of the current members or is infeasible"; since adding an
    interferer can only lower SINRs, that is "adding the link lowers some
    member's rate or is infeasible".

    The DFS carries the accumulated per-node interference vector of the
    current subset (one power-matrix row added per descent), so evaluating
    a child subset costs O(nodes + members) instead of the O(members²)
    SINR recomputation the seed implementation paid at every node.
    """
    ordered = sorted(links, key=lambda l: l.link_id)
    kernel = model.kernel
    entries = [kernel.entry(link) for link in ordered]
    power = kernel.power
    noise = kernel.noise_mw
    n_links = len(ordered)
    results: List[RateIndependentSet] = []
    seen: set = set()
    dfs_nodes = 0

    def best_rate(entry, interference: float) -> Optional[Rate]:
        ratio = entry.signal_mw / (interference + noise)
        for rate, threshold in zip(entry.rates, entry.thresholds):
            if ratio >= threshold:
                return rate
        return None

    def vector_for(subset, acc) -> Optional[List[Rate]]:
        """Max rates of ``subset`` members (aligned), or None if infeasible.

        ``acc[j]`` is the summed received power at node ``j`` from all of
        the subset's senders; a member's interference is that total at its
        receiver minus its own signal.
        """
        rates: List[Rate] = []
        for index in subset:
            entry = entries[index]
            rate = best_rate(
                entry,
                acc[entry.receiver_index]
                - power[entry.sender_index, entry.receiver_index],
            )
            if rate is None:
                return None
            rates.append(rate)
        return rates

    def is_maximal(subset, vector, acc, used_nodes) -> bool:
        members = set(subset)
        for index in range(n_links):
            if index in members:
                continue
            entry = entries[index]
            if entry.sender_id in used_nodes or entry.receiver_id in used_nodes:
                continue  # half-duplex: never addable
            # The candidate link itself must survive the subset's senders...
            if best_rate(entry, float(acc[entry.receiver_index])) is None:
                continue
            # ...and every member must keep its exact rate for the addition
            # to be "free"; a lowered or lost member rate means this link
            # does not disprove maximality.
            addable_for_free = True
            for position, member_index in enumerate(subset):
                member = entries[member_index]
                interference = (
                    acc[member.receiver_index]
                    - power[member.sender_index, member.receiver_index]
                    + power[entry.sender_index, member.receiver_index]
                )
                extended_rate = best_rate(member, interference)
                if (
                    extended_rate is None
                    or extended_rate.mbps < vector[position].mbps
                ):
                    addable_for_free = False
                    break
            if addable_for_free:
                return False
        return True

    def expand(subset, vector, acc, used_nodes, start: int) -> None:
        nonlocal dfs_nodes
        dfs_nodes += 1
        if subset and is_maximal(subset, vector, acc, used_nodes):
            candidate = RateIndependentSet(
                frozenset(
                    LinkRate(ordered[index], rate)
                    for index, rate in zip(subset, vector)
                )
            )
            if candidate not in seen:
                seen.add(candidate)
                results.append(candidate)
        for index in range(start, n_links):
            entry = entries[index]
            if entry.sender_id in used_nodes or entry.receiver_id in used_nodes:
                continue
            child_acc = acc + power[entry.sender_index]
            child = subset + [index]
            child_vector = vector_for(child, child_acc)
            if child_vector is None:
                continue
            expand(
                child,
                child_vector,
                child_acc,
                used_nodes | {entry.sender_id, entry.receiver_id},
                index + 1,
            )

    expand([], [], np.zeros(power.shape[0]), frozenset(), 0)
    recorder = get_recorder()
    recorder.count("enum.dfs_nodes", dfs_nodes)
    recorder.count("enum.maximal_sets_emitted", len(results))
    return results
