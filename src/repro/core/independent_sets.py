"""Rate-coupled independent sets (Section 2.4).

An independent set in a multirate network is a set of (link, rate) couples
that can all transmit successfully at the same time.  A *maximal* one
additionally has every link at its maximum supported rate within the set,
and admits no further link without hurting a member (possibly to rate
zero).  Unlike the single-rate case, the links of one maximal set can be a
subset of another's — the smaller set trades concurrency for faster rates —
so maximality is rate-aware.

Eq. 6's columns come out of one pass over integer bitmasks:

1. **search** — the couples of the links of interest
   (:func:`~repro.interference.conflict_graph.link_rate_vertices`) are the
   vertices, ranked once by name: each couple gets a weight, one size unit
   plus one name-rank bit, higher for an earlier name
   (:func:`_column_weights`).  Every maximal set is found as one vertex
   bitmask, and the search sums its members' weights into the set's
   column key next to it, by one of two strategies dispatched on the
   model:

   * **pairwise** (protocol / declared models): maximal independent sets
     of the link–rate conflict graph, via maximal cliques of its
     complement (bitmask Bron–Kerbosch);
   * **cumulative** (physical model): recursive subset search with Eq. 3
     feasibility, keeping exactly the sets that satisfy the paper's
     maximality definition;

2. **order** — size descending, then couple names: one stable sort of
   the found sets by column key (:func:`_column_order`);
3. **prune** — Proposition 3 says these maximal sets with maximum rate
   vectors suffice to express the feasibility condition (Eq. 4);
   :func:`prune_dominated` removes any remaining redundant columns and
   keeps the order.  On a kernel-backed pairwise model a set is dominated
   exactly when one member can move up to its link's next-faster rate
   and the set stays independent, one row test per such member; declared
   models and the cumulative search take the general per-couple bitset
   test;
4. **sets on demand** — the result is a :class:`ColumnFamily`, the pair
   (couples, one mask per column).  LP assembly reads the masks; a
   :class:`RateIndependentSet` is built only when a caller indexes or
   iterates the family.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
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
        """Link→Mbps lookup used by dominance checks and throughput queries."""
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

    def __str__(self) -> str:  # pragma: no cover - also the column order key
        """``{(link,rate), …}``, couples sorted by their own ``str``.

        Not only cosmetic: Eq. 6 columns are ordered by size, then by
        this string, so it fixes the LP's column order.
        :func:`_column_order` reproduces that order from per-couple name
        ranks without building the string.
        """
        inner = ", ".join(
            sorted(str(c) for c in self.couples)
        )
        return "{" + inner + "}"


def _mask_members(mask: int, vertices: Sequence[LinkRate]) -> List[LinkRate]:
    """The couples whose bits are set in ``mask``, lowest index first."""
    members = []
    while mask:
        low_bit = mask & -mask
        mask ^= low_bit
        members.append(vertices[low_bit.bit_length() - 1])
    return members


class ColumnFamily(SequenceABC):
    """Eq. 6 columns as couple bitmasks; sets are built on demand.

    ``couples`` lists the vertices (each couple once) and ``masks[k]`` has
    bit ``i`` set when column ``k`` holds ``couples[i]``.  Read as a
    ``Sequence[RateIndependentSet]``: indexing or iterating builds the
    sets, which the family does not keep.  A family compares equal to a
    list or tuple holding the same sets in the same order.
    """

    __slots__ = ("couples", "masks")

    def __init__(self, couples: Sequence[LinkRate], masks: Iterable[int]):
        self.couples: Tuple[LinkRate, ...] = tuple(couples)
        self.masks: Tuple[int, ...] = tuple(masks)

    @classmethod
    def of(cls, sets: Iterable[RateIndependentSet]) -> "ColumnFamily":
        """The family of ``sets`` in their order (a family is returned as is)."""
        if isinstance(sets, ColumnFamily):
            return sets
        index: Dict[LinkRate, int] = {}
        masks = []
        for independent_set in sets:
            mask = 0
            for couple in independent_set.couples:
                mask |= 1 << index.setdefault(couple, len(index))
            masks.append(mask)
        return cls(index, masks)

    def __len__(self) -> int:
        return len(self.masks)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ColumnFamily(self.couples, self.masks[index])
        return RateIndependentSet(
            frozenset(_mask_members(self.masks[index], self.couples))
        )

    def __iter__(self):
        couples = self.couples
        for mask in self.masks:
            yield RateIndependentSet(frozenset(_mask_members(mask, couples)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ColumnFamily) and other.couples == self.couples:
            return other.masks == self.masks
        if isinstance(other, (ColumnFamily, list, tuple)):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"ColumnFamily({list(self)!r})"


def prune_dominated(
    sets: Iterable[RateIndependentSet],
    *,
    compatible: Optional[Sequence[int]] = None,
) -> ColumnFamily:
    """Drop sets dominated by another set of the collection.

    Set ``o`` dominates ``c`` when it holds every link of ``c`` at an
    equal or faster rate and differs (Eq. 4's ``>=``; see
    :meth:`RateIndependentSet.dominates`).  The test runs on the family's
    masks with one inverted bitset per couple: ``at_least[v]`` is the set
    of columns holding ``v``'s link at ``v``'s rate or faster, and a
    column is dominated exactly when the AND of ``at_least`` over its
    couples has a bit other than its own.  The empty set is therefore
    dominated by any other set.  Duplicates are dropped; the survivors
    keep their input order.  ``sets`` may be any sequence of sets, a
    :class:`ColumnFamily` included, and so is the result.

    ``compatible`` is for :func:`enumerate_maximal_independent_sets` on a
    kernel-backed model: the compatibility rows over the family's
    couples, of which ``sets`` are all the maximal cliques.  There a set
    ``S`` is dominated exactly when, for some member ``v``, ``v``'s
    link's next-faster couple ``u`` is compatible with every other
    member, ``compatible[u] & S == S ^ bit(v)`` (:func:`_upgradable`).
    That compatibility is ``SINR >= threshold`` at both receivers plus a
    node test that does not depend on rate, and a faster rate never has
    a lower threshold.  So if some ``T`` dominates ``S``, it holds one
    member ``v``'s link at a faster couple ``w`` (were all rates equal,
    ``S`` would be a proper subset of ``T``, not maximal), and ``u``, no
    faster than ``w``, passes every test that ``w`` passes against
    ``T``'s couples on ``S``'s other links: the one-couple upgrade
    ``S - v + u`` is independent.  Conversely that upgrade extends to a
    maximal clique, which is in the family and dominates ``S``.
    """
    family = ColumnFamily.of(sets)
    if compatible is not None:
        slower = _slower_couples(family.couples)
        if slower is not None:
            return ColumnFamily(
                family.couples,
                _upgradable(family.masks, compatible, slower),
            )
    return ColumnFamily(
        family.couples, _undominated(family.couples, family.masks)
    )


def _slower_couples(couples: Sequence[LinkRate]) -> Optional[int]:
    """The mask of couples whose link's next-faster couple is the one
    just before them, or ``None`` unless each link's couples stand
    together, fastest first (as ``link_rate_vertices`` lists them).
    """
    slower = 0
    seen = set()
    previous = None
    for vertex, couple in enumerate(couples):
        link_id = couple.link.link_id
        if previous is not None and link_id == previous.link.link_id:
            if couple.rate.mbps >= previous.rate.mbps:
                return None
            slower |= 1 << vertex
        elif link_id in seen:
            return None
        else:
            seen.add(link_id)
        previous = couple
    return slower


def _upgradable(
    masks: Sequence[int], compatible: Sequence[int], slower: int
) -> List[int]:
    """The masks of :func:`prune_dominated`'s survivors on the
    ``compatible`` path: those no member of which moves up to the
    couple just before it (its link's next-faster rate, by ``slower``)
    with the rest of the set unchanged.
    """
    kept = []
    for mask in masks:
        rest = mask & slower
        while rest:
            low_bit = rest & -rest
            rest ^= low_bit
            if compatible[low_bit.bit_length() - 2] & mask == mask ^ low_bit:
                break
        else:
            kept.append(mask)
    return kept


def _undominated(couples: Sequence[LinkRate], masks: Sequence[int]) -> List[int]:
    """The masks of :func:`prune_dominated`'s survivors, first copies only."""
    unique = list(dict.fromkeys(masks))
    count = len(unique)
    if count <= 1:
        return unique
    # holders[v]: the columns holding couple v.
    holders = [0] * len(couples)
    column_bit = 1
    for mask in unique:
        while mask:
            low_bit = mask & -mask
            mask ^= low_bit
            holders[low_bit.bit_length() - 1] |= column_bit
        column_bit <<= 1
    # at_least[v]: the columns holding v's link at v's rate or faster.
    at_least = list(holders)
    by_link: Dict[str, List[int]] = {}
    for vertex, couple in enumerate(couples):
        by_link.setdefault(couple.link.link_id, []).append(vertex)
    for group in by_link.values():
        if len(group) > 1:
            for vertex in group:
                mbps = couples[vertex].rate.mbps
                for other in group:
                    if other != vertex and couples[other].rate.mbps >= mbps:
                        at_least[vertex] |= holders[other]
    everyone = (1 << count) - 1
    kept = []
    own = 1
    for mask in unique:
        common = everyone
        rest = mask
        while rest and common != own:
            low_bit = rest & -rest
            rest ^= low_bit
            common &= at_least[low_bit.bit_length() - 1]
        if common == own:
            kept.append(mask)
        own <<= 1
    return kept


def _column_weights(names: Sequence[str]) -> Optional[List[int]]:
    """Per couple, a size unit plus a name-rank bit, for column keys.

    Couple ``v`` weighs ``1 << len(names)`` plus one bit below it, higher
    for an earlier name.  Equal names share a bit, as they only occur on
    couples of one link, which no set holds twice; so a set's weights
    add up without carries to its *column key*: its size above bit
    ``len(names)`` and its ranked mask, the OR of its rank bits, below.
    ``None`` when a name is a proper prefix of another (a link id holding
    ``)``): ranked masks cannot order those sets, and
    :func:`_column_order` compares their strings instead.
    """
    count = len(names)
    weights = [0] * count
    bit = 1 << count
    unit = bit
    previous = None
    for vertex in sorted(range(count), key=names.__getitem__):
        name = names[vertex]
        if name != previous:
            if previous is not None and name.startswith(previous):
                return None
            bit >>= 1
            previous = name
        weights[vertex] = unit | bit
    return weights


def _column_order(
    masks: List[int], keys: Optional[List[int]], names: Sequence[str]
) -> List[int]:
    """``masks`` sorted by size descending, then by couple names.

    This is the order ``sort(key=lambda s: (-s.size, str(s)))`` gives the
    sets, computed without their strings.  ``keys[k]`` is the column key
    of ``masks[k]`` (the sum of its members' :func:`_column_weights`),
    which the search carries next to the mask.  Between two sets of one
    size, ``str`` decides at the first name where their sorted name lists
    differ, and the set holding it has the larger ranked mask.  So one
    stable sort by key, descending, gives the order; equal keys keep the
    search's order.  With ``keys`` ``None`` (a name is a prefix of
    another) the sets' strings, built from ``names``, are compared
    instead.
    """
    if keys is None:
        return sorted(
            masks,
            key=lambda mask: (
                -mask.bit_count(),
                "{" + ", ".join(sorted(_mask_members(mask, names))) + "}",
            ),
        )
    order = sorted(range(len(masks)), key=keys.__getitem__, reverse=True)
    return list(map(masks.__getitem__, order))


def _ordered_cliques(adjacency: List[int], names: Sequence[str]) -> List[int]:
    """All maximal cliques of ``adjacency`` in :func:`_column_order`,
    over vertices named ``names``."""
    cliques, keys = _maximal_cliques_bitset(
        adjacency, len(names), weights=_column_weights(names)
    )
    return _column_order(cliques, keys, names)


def enumerate_maximal_independent_sets(
    model: InterferenceModel,
    links: Sequence[Link],
    max_sets: Optional[int] = None,
) -> ColumnFamily:
    """All maximal independent sets with maximum rate vectors over ``links``.

    Args:
        model: Interference model; a :class:`PhysicalInterferenceModel`
            triggers the exact cumulative enumeration, anything else the
            pairwise conflict-graph route.
        links: Links of interest (the paper's ``P``, the union of flow
            paths).  Links with no standalone rate are skipped (Prop. 2),
            and a link id listed again counts once, at its first place
            (as :func:`~repro.core.bandwidth._collect_links` keeps it).
        max_sets: Safety cap; exceeding it raises, pointing the caller to
            column generation rather than silently truncating (a truncated
            family would silently *underestimate* available bandwidth).

    Returns:
        Dominance-pruned maximal sets, deterministically ordered (by size
        descending, then lexicographically by couple names) so downstream
        LPs are reproducible, as a :class:`ColumnFamily` over the links'
        couples.
    """
    recorder = get_recorder()
    with recorder.span("enum.sets"):
        unique: Dict[str, Link] = {}
        for link in links:
            unique.setdefault(link.link_id, link)
        vertices = link_rate_vertices(model, list(unique.values()))
        if not vertices:
            return ColumnFamily((), ())
        compatible = None
        if isinstance(model, PhysicalInterferenceModel):
            with recorder.span("enum.cumulative"):
                names = list(map(str, vertices))
                masks, keys = _enumerate_cumulative(
                    model, vertices, _column_weights(names)
                )
                masks = _column_order(masks, keys, names)
        else:
            with recorder.span("enum.pairwise"):
                rows = _pairwise_compatibility_masks(model, vertices)
                masks = _ordered_cliques(rows, _couple_names(model, vertices))
            if getattr(model, "kernel", None) is not None:
                # Kernel rows only tighten with the rate: the family
                # takes the next-faster test (see prune_dominated).
                compatible = rows
        if max_sets is not None and len(masks) > max_sets:
            raise InterferenceError(
                f"{len(masks)} maximal independent sets exceed the cap "
                f"{max_sets}; use column generation for this instance"
            )
        with recorder.span("enum.prune"):
            pruned = prune_dominated(
                ColumnFamily(vertices, masks), compatible=compatible
            )
        recorder.count("enum.sets_found", len(masks))
        recorder.count("enum.sets_pruned", len(masks) - len(pruned))
    return pruned


def _enumerate_pairwise(
    model: InterferenceModel, vertices: Sequence[LinkRate]
) -> List[int]:
    """Maximal independent sets of the conflict graph over ``vertices``.

    Maximal independent sets of the conflict graph are maximal cliques of
    its complement; both are computed here directly on integer bitmasks
    (Bron–Kerbosch with pivoting) instead of materializing networkx
    graphs, and returned as vertex masks in Eq. 6's column order, not
    pruned.  Kernel-backed models read their pairwise compatibility and
    couple names from the model's couple index; other models fall back
    to per-pair
    :meth:`~repro.interference.base.InterferenceModel.conflicts` calls
    and ``str``.
    """
    return _ordered_cliques(
        _pairwise_compatibility_masks(model, vertices),
        _couple_names(model, vertices),
    )


def _couple_names(
    model: InterferenceModel, vertices: Sequence[LinkRate]
) -> List[str]:
    """``str`` of each couple, read from a kernel-backed model's couple
    index, which makes each name once per model."""
    kernel = getattr(model, "kernel", None)
    if kernel is not None:
        return kernel.couple_index.names(vertices)
    return list(map(str, vertices))


def _pairwise_compatibility_masks(
    model: InterferenceModel, vertices: Sequence[LinkRate]
) -> List[int]:
    """Bitmask adjacency of the conflict graph's complement.

    ``masks[i]`` has bit ``j`` set when couples ``i`` and ``j`` can
    transmit concurrently (distinct links, no shared node, and neither
    receiver loses its rate's SINR against the other sender).  The bits
    are local to ``vertices``: enumeration runs on the union's own
    graph.  Kernel-backed models read the rows from the model's
    :class:`~repro.interference.couple_index.CoupleIndex`, which
    evaluates each couple against every other once per model; other
    models fall back to per-pair
    :meth:`~repro.interference.base.InterferenceModel.conflicts` calls.
    """
    kernel = getattr(model, "kernel", None)
    if kernel is not None:
        return kernel.couple_index.compatibility(vertices)
    count = len(vertices)
    masks = [0] * count
    for i, a in enumerate(vertices):
        for j in range(i + 1, count):
            if not model.conflicts(a, vertices[j]):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


def _maximal_cliques_bitset(
    adjacency: List[int],
    count: int,
    subset: Optional[int] = None,
    weights: Optional[Sequence[int]] = None,
) -> Tuple[List[int], Optional[List[int]]]:
    """All maximal cliques of a bitmask-adjacency graph (Bron–Kerbosch).

    The one clique search over couples.  On the compatibility masks it
    finds maximal independent sets (:func:`_enumerate_pairwise`, for Eq. 6
    and A1's fixed-rate columns, and exact pricing); on their complement
    it finds the rate-coupled and fixed-rate cliques of
    :mod:`repro.core.cliques`.

    With ``subset`` given, cliques are enumerated in (and maximal relative
    to) the sub-graph induced by that vertex mask — the pricing oracle's
    positive-weight restriction.

    Returns the cliques in discovery order and, with ``weights`` given,
    the sum of ``weights`` over each clique's members, carried down the
    search next to the clique (``None`` without ``weights``).
    """
    cliques: List[int] = []
    keys: List[int] = []
    weight = weights if weights is not None else [0] * count
    dfs_nodes = 0

    def expand(current: int, key: int, candidates: int, excluded: int) -> None:
        # Called only with candidates left: leaves are visited inline.
        nonlocal dfs_nodes
        dfs_nodes += 1
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
            vertex = low_bit.bit_length() - 1
            vertex_adjacency = adjacency[vertex]
            child_candidates = candidates & vertex_adjacency
            if child_candidates:
                expand(
                    current | low_bit,
                    key + weight[vertex],
                    child_candidates,
                    excluded & vertex_adjacency,
                )
            else:
                # A leaf, visited here rather than by a call: a clique
                # when nothing excluded extends it, else a dead end.
                dfs_nodes += 1
                if not excluded & vertex_adjacency:
                    cliques.append(current | low_bit)
                    keys.append(key + weight[vertex])
            candidates ^= low_bit
            excluded |= low_bit

    start = (1 << count) - 1 if subset is None else subset
    if start:
        recorder = get_recorder()
        with recorder.span("enum.independent_sets"):
            expand(0, 0, start, 0)
        # One batched update keeps the per-DFS-node cost recorder-free.
        recorder.count("enum.dfs_nodes", dfs_nodes)
        recorder.count("enum.maximal_sets_emitted", len(cliques))
    return cliques, (keys if weights is not None else None)


def _enumerate_cumulative(
    model: PhysicalInterferenceModel,
    vertices: Sequence[LinkRate],
    weights: Optional[Sequence[int]] = None,
) -> Tuple[List[int], Optional[List[int]]]:
    """Exact enumeration under cumulative interference (Eq. 3).

    Explores subsets of the vertices' links depth-first; a subset is
    feasible when every member keeps a positive maximum rate under the
    set's cumulative interference.  Feasibility is monotone downwards
    (removing a link only raises SINRs), so infeasible branches prune
    their supersets.  A feasible set is kept when it is maximal in the
    paper's sense: every addable link either breaks the set or lowers some
    member's maximum rate — which, under cumulative interference, reduces
    to "adding the link changes the rate vector of the current members or
    is infeasible"; since adding an interferer can only lower SINRs, that
    is "adding the link lowers some member's rate or is infeasible".  Each
    kept set is emitted once, as a mask over ``vertices``, in discovery
    order, with the sum of ``weights`` over its members as
    :func:`_maximal_cliques_bitset` returns it.

    The DFS carries the accumulated per-node interference vector of the
    current subset (one power-matrix row added per descent), so evaluating
    a child subset costs O(nodes + members) instead of the O(members²)
    SINR recomputation the seed implementation paid at every node.
    """
    by_link: Dict[str, Link] = {}
    vertex_of: Dict[Tuple[str, Rate], int] = {}
    for index, vertex in enumerate(vertices):
        by_link.setdefault(vertex.link.link_id, vertex.link)
        vertex_of[vertex.link.link_id, vertex.rate] = index
    weight = weights if weights is not None else [0] * len(vertices)
    ordered = sorted(by_link.values(), key=lambda l: l.link_id)
    kernel = model.kernel
    entries = kernel.entries(ordered)
    power = kernel.power
    noise = kernel.noise_mw
    n_links = len(ordered)
    results: List[int] = []
    keys: List[int] = []
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
            mask = key = 0
            for index, rate in zip(subset, vector):
                vertex = vertex_of[ordered[index].link_id, rate]
                mask |= 1 << vertex
                key += weight[vertex]
            if mask not in seen:
                seen.add(mask)
                results.append(mask)
                keys.append(key)
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
    return results, (keys if weights is not None else None)
