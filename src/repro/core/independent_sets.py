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

Every enumeration runs in a :class:`CoupleSpace`: the couples of one link
union with their compatibility rows, names, column weights and
next-faster mask, each derived once.  A call without a space builds one
over its own links and searches all of it; a caller that enumerates
several parts of one union (the tiles and residual windows of
:mod:`repro.scale.tiles`) builds the union's space once and passes it,
and each part is searched as a sub-mask of it.  A part's links are a
subsequence of the space's link order, so its couples keep their
relative order: the search, the column keys, the order and the pruned
family are those of a space built over the part alone, on the bits of
the larger one.  The other searches over standalone couples (the
cliques of :mod:`repro.core.cliques`, Eq. 9, column-generation pricing
and A1's fixed-rate columns) read a space the same way.

A space can also extend a base space by more links
(:meth:`CoupleSpace.extend`), as the batch serving layer does for each
fresh union: its background's links followed by the path's new ones.
The extended space equals one built over the whole union, field by
field; it reads only the new couples' compatibility rows and finds its
maximal sets from the base's, which a space keeps once found, and one
search rooted at the new couples.  Its column order, pruned family and
``enum.sets_*`` counts are the cold ones; ``enum.dfs_nodes`` and
``enum.maximal_sets_emitted`` count only the searches that run: the
rooted one, and none for a space whose sets are already kept.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InterferenceError
from repro.interference.base import InterferenceModel, LinkRate
from repro.interference.couple_index import CoupleIndex
from repro.obs import get_recorder
from repro.interference.physical import PhysicalInterferenceModel
from repro.net.link import Link
from repro.phy.rates import Rate

__all__ = [
    "CoupleSpace",
    "RateIndependentSet",
    "enumerate_maximal_independent_sets",
    "prune_dominated",
]


@dataclass(frozen=True)
class _CoupleSet:
    """A set of (link, rate) couples, one per link: the shared part of
    :class:`RateIndependentSet` and :class:`~repro.core.cliques.RateClique`.
    """

    couples: FrozenSet[LinkRate]

    #: What the set is, for the one-couple-per-link error.
    _kind = "a couple set"

    def __post_init__(self) -> None:
        links = [c.link for c in self.couples]
        if len(set(links)) != len(links):
            raise InterferenceError(f"{self._kind} uses each link at most once")

    @cached_property
    def _rate_by_link(self) -> Dict[Link, Rate]:
        """Link→rate lookup, built once (the set is immutable)."""
        return {c.link: c.rate for c in self.couples}

    @property
    def links(self) -> FrozenSet[Link]:
        return frozenset(self._rate_by_link)

    @property
    def size(self) -> int:
        return len(self.couples)

    def rate_of(self, link: Link) -> Optional[Rate]:
        """The rate assigned to ``link``, or ``None`` if absent."""
        return self._rate_by_link.get(link)

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


@dataclass(frozen=True)
class RateIndependentSet(_CoupleSet):
    """An independent set of (link, rate) couples with its rate vector."""

    _kind = "an independent set"

    @classmethod
    def from_vector(cls, vector: Dict[Link, Rate]) -> "RateIndependentSet":
        return cls(frozenset(LinkRate(link, rate) for link, rate in vector.items()))

    @cached_property
    def _mbps_by_link(self) -> Dict[Link, float]:
        """Link→Mbps lookup used by dominance checks and throughput queries."""
        return {c.link: c.rate.mbps for c in self.couples}

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
    slower: Optional[int] = None,
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
    ``slower`` is the family's next-faster mask
    (:attr:`CoupleSpace.slower`); the test runs only when both are given.
    """
    family = ColumnFamily.of(sets)
    if compatible is not None and slower is not None:
        return ColumnFamily(
            family.couples, _upgradable(family.masks, compatible, slower)
        )
    return ColumnFamily(
        family.couples, _undominated(family.couples, family.masks)
    )


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
    """The masks of :func:`prune_dominated`'s survivors, first copies only.

    Only the couples some mask holds are read, so a family on a few
    couples of a larger space costs what one over those couples does.
    """
    unique = list(dict.fromkeys(masks))
    count = len(unique)
    if count <= 1:
        return unique
    # holders[v]: the columns holding couple v.
    holders = [0] * len(couples)
    column_bit = 1
    held = 0
    for mask in unique:
        held |= mask
        while mask:
            low_bit = mask & -mask
            mask ^= low_bit
            holders[low_bit.bit_length() - 1] |= column_bit
        column_bit <<= 1
    # at_least[v]: the columns holding v's link at v's rate or faster.
    at_least = list(holders)
    by_link: Dict[str, List[int]] = {}
    for vertex in _mask_members(held, range(len(couples))):
        by_link.setdefault(couples[vertex].link.link_id, []).append(vertex)
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


#: :attr:`CoupleSpace.weights` before its first read.
_UNSET: list = []


class CoupleSpace:
    """The couples of one link union and what every search over it reads.

    Built once per union from its links in order (a link id listed again
    counts once, at its first place).  The couples are laid out as
    :func:`~repro.interference.conflict_graph.link_rate_vertices` lays
    them out: each link's standalone couples together, fastest first, so
    each link's couples are one bit interval (:meth:`mask_of`), and the
    next-faster couple of any but a link's first is the bit below it.
    The names and the next-faster mask of the pairwise prune are made
    here; the column weights of :func:`_column_weights` on their first
    read; the compatibility rows (:func:`_pairwise_compatibility_masks`
    over all the couples) on the first read of :attr:`compatible`, so a
    cumulative search, which does not read them, gathers none.

    This is the only code that knows that layout.  Every search over
    standalone couples runs on a space, over all of it or a sub-mask:
    Eq. 6's columns, its tiles and residual windows (a part's links,
    :meth:`mask_of`), A1's fixed-rate columns and Eq. 9's fixed-rate
    cliques (one couple per link, :meth:`couple_mask`), the rate-coupled
    cliques of :mod:`repro.core.cliques` and column-generation pricing.

    A space can extend a base (:meth:`extend`): the union of the base's
    links followed by more links.  Its couples are the base's followed
    by the new links', so every field equals that of a space built over
    the whole union; what it saves is work.  Its compatibility rows are
    the base's with the new couples' bits added, and only the new
    couples' rows are read.  Its maximal independent sets
    (:meth:`independent_sets`), which every space keeps once found, are
    the base's kept sets that no new couple extends and the sets a
    search rooted at the new couples finds.
    """

    __slots__ = (
        "model", "links", "couples", "bits", "names", "slower",
        "_weights", "_base", "_compatible", "_sets", "_spacing", "_index", "_ids",
    )

    def __init__(self, model: InterferenceModel, links: Iterable[Link]):
        self.model = model
        #: The union's links, each once, in first-appearance order.
        self.links: Tuple[Link, ...] = ()
        #: The couples, by bit.
        self.couples: Tuple[LinkRate, ...] = ()
        #: Link id -> the bits of its couples (0 for a link without any).
        self.bits: Dict[str, int] = {}
        #: ``str`` of each couple (a kernel-backed pairwise model's
        #: couple index makes each name once); the names fix Eq. 6's
        #: column order.
        self.names: List[str] = []
        #: The kernel-backed pairwise prune's next-faster mask
        #: (:func:`prune_dominated`): every couple but its link's
        #: fastest.  ``None`` for the models that take the general prune.
        self.slower: Optional[int] = None
        #: A kernel-backed pairwise model's couple index and the
        #: couples' ids in it (``None`` for the other models, or once
        #: the kernel replaced the index under the space).
        self._index: Optional[CoupleIndex] = None
        self._ids: Optional[List[int]] = None
        kernel = self._kernel()
        if kernel is not None:
            self.slower = 0
            self._index = kernel.couple_index
            self._ids = []
        self._base: Optional[CoupleSpace] = None
        self._append(links)

    def extend(self, links: Iterable[Link]) -> "CoupleSpace":
        """The space of this space's links followed by ``links`` (those
        not in it yet, each once), with this space as its base."""
        space = object.__new__(CoupleSpace)
        space.model = self.model
        space.links = self.links
        space.couples = self.couples
        space.bits = dict(self.bits)
        space.names = list(self.names)
        space.slower = self.slower
        space._index = self._index
        space._ids = self._ids
        space._base = self
        space._append(links)
        return space

    def _kernel(self):
        """A kernel-backed pairwise model's kernel, else ``None`` (the
        cumulative search reads no couple index)."""
        if isinstance(self.model, PhysicalInterferenceModel):
            return None
        return getattr(self.model, "kernel", None)

    def _append(self, links: Iterable[Link]) -> None:
        """Lay out the couples of ``links`` not in the space yet after
        its own, with their names and next-faster bits."""
        bits = self.bits
        added: Dict[str, Link] = {}
        for link in links:
            if link.link_id not in bits:
                added.setdefault(link.link_id, link)
        new_links = tuple(added.values())
        count = len(self.couples)
        couples: List[LinkRate] = []
        for link_id, link_couples in zip(
            added, self.model.standalone_couples_of(new_links)
        ):
            mask = ((1 << len(link_couples)) - 1) << (count + len(couples))
            bits[link_id] = mask
            couples.extend(link_couples)
            if self.slower is not None:
                self.slower |= mask & (mask - 1)
        self.links += new_links
        self.couples += tuple(couples)
        if self._index is None:
            self.names += map(str, couples)
        else:
            ids, names = self._index.named(couples)
            self.names += names
            if ids is None or self._ids is None:
                # The kernel replaced its index: the space reads its
                # rows and searches its sets afresh, as a cold one.
                self._index = self._ids = self._base = None
            else:
                self._ids = self._ids + ids
        self._weights: Optional[List[int]] = _UNSET
        self._compatible: Optional[List[int]] = None
        self._sets: Optional[Tuple[int, ...]] = None
        self._spacing: Optional[_Spacing] = None

    @property
    def weights(self) -> Optional[List[int]]:
        """Each couple's :func:`_column_weights` weight, or ``None``."""
        if self._weights is _UNSET:
            self._weights = _column_weights(self.names)
        return self._weights

    @property
    def compatible(self) -> List[int]:
        """The couples' compatibility rows, made on the first read: all
        gathered, or the base's with the new couples' rows added."""
        if self._compatible is None:
            base = self._base
            if base is None:
                rows = _pairwise_compatibility_masks(self.model, self.couples)
            else:
                start = len(base.couples)
                if self._ids is None:
                    appended = _pairwise_compatibility_masks(
                        self.model, self.couples, start
                    )
                else:  # read by the ids the layout looked up
                    appended = self._index.appended_rows(self._ids, start)
                rows = base.compatible + appended
                bit = 1 << start
                for row in appended:
                    rest = row & ((1 << start) - 1)
                    while rest:
                        low_bit = rest & -rest
                        rest ^= low_bit
                        rows[low_bit.bit_length() - 1] |= bit
                    bit <<= 1
            self._compatible = rows
        return self._compatible

    def independent_sets(self, subset: int) -> Sequence[int]:
        """The maximal independent sets of the pairwise search on the
        couples of ``subset``: the maximal cliques of :attr:`compatible`
        induced on it, in Eq. 6's column order.  The whole space's are
        kept once found."""
        if subset != (1 << len(self.couples)) - 1:
            return self.ordered_cliques(self.compatible, subset)
        if self._sets is None:
            self._sets = tuple(self._whole_sets())
        return self._sets

    def _whole_sets(self) -> List[int]:
        """:meth:`independent_sets` of the whole space.

        With a base, a maximal clique of the union either holds a new
        couple or is a set of the base that no new couple extends.  One
        search finds the first kind, branching at its root on the new
        couples alone.  A base set that some new couple extends is the
        base part of a clique the search found: the clique that holds it
        and the first new couple extending it, grown by later new
        couples (no base couple extends a maximal base set).  The sets
        are ordered by column keys on the base's spaced weights
        (:class:`_Spacing`), which order them as the union's own would.
        Without those (tied or prefix names, where equal keys leave the
        order to the search) the whole space is searched.
        """
        base = self._base
        count = len(self.couples)
        spaced = None
        if base is not None:
            spaced = base._spaced_weights(self.names[len(base.couples):])
        if spaced is None:
            return self.ordered_cliques(self.compatible, (1 << count) - 1)
        weights, spacing = spaced
        start = len(base.couples)
        appended = (1 << count) - (1 << start)
        masks, keys = _maximal_cliques_bitset(
            self.compatible, count, weights=weights, roots=appended
        )
        place = spacing.place
        parts = {mask & ~appended for mask in masks}
        extended = sorted((place[part] for part in parts if part in place))
        found = len(masks)
        masks.extend(base.independent_sets((1 << start) - 1))
        keys.extend(spacing.keys)
        for index in reversed(extended):
            del masks[found + index], keys[found + index]
        return _column_order(masks, keys, self.names)

    def _spaced_weights(
        self, names: Sequence[str]
    ) -> Optional[Tuple[List[int], "_Spacing"]]:
        """Weights for this space's couples followed by couples named
        ``names``, spaced, and the :class:`_Spacing` they are made on.
        ``None`` when two names of the union tie or one is a prefix of
        another."""
        spacing = self._spacing
        if spacing is None:
            spacing = self._spacing = _Spacing(self, 1)
        if spacing.weights is None:
            return None
        ranked = spacing.names
        places = [(0, 0)] * len(names)
        previous = None
        last_gap = -1
        slot = room = 0
        for vertex in sorted(range(len(names)), key=names.__getitem__):
            name = names[vertex]
            if previous is not None and name.startswith(previous):
                return None
            gap = bisect_left(ranked, name)
            if gap < len(ranked) and ranked[gap].startswith(name):
                return None
            if gap and name.startswith(ranked[gap - 1]):
                return None
            slot = slot + 1 if gap == last_gap else 0
            room = max(room, slot + 1)
            places[vertex] = (gap, slot)
            previous = name
            last_gap = gap
        if room > spacing.room:
            spacing = self._spacing = _Spacing(self, max(room, 2 * spacing.room))
        unit = spacing.unit
        return (
            spacing.weights
            + [unit | spacing.bit(gap, slot) for gap, slot in places],
            spacing,
        )

    def mask_of(self, links: Iterable[Link]) -> int:
        """The bits of ``links``' couples; each must be a link of the union."""
        bits = self.bits
        mask = 0
        try:
            for link in links:
                mask |= bits[link.link_id]
        except KeyError as missing:
            raise InterferenceError(
                f"link {missing.args[0]!r} is not in the couple space"
            ) from None
        return mask

    def couple_mask(self, couples: Iterable[LinkRate]) -> int:
        """The bits of ``couples``; each must be a couple of the space,
        that is, a link of the union at one of its standalone rates."""
        mask = 0
        for couple in couples:
            rest = self.bits.get(couple.link.link_id, 0)
            while rest:
                low_bit = rest & -rest
                rest ^= low_bit
                if self.couples[low_bit.bit_length() - 1].rate == couple.rate:
                    mask |= low_bit
                    break
            else:
                raise InterferenceError(
                    f"couple {couple} is not in the couple space: link "
                    f"{couple.link.link_id!r} does not support "
                    f"{couple.rate.mbps:g} Mbps standalone"
                )
        return mask

    def ordered_cliques(self, rows: Sequence[int], subset: int) -> List[int]:
        """All maximal cliques of the graph ``rows`` (bitmask adjacency
        over the space's bits) induced on ``subset``, in Eq. 6's column
        order (:func:`_column_order`)."""
        masks, keys = _maximal_cliques_bitset(
            rows, len(self.couples), subset, self.weights
        )
        return _column_order(masks, keys, self.names)


class _Spacing:
    """Column weights of a space's couples with room for new names.

    :func:`_column_weights` gives each name one rank bit, so adding a
    name moves every bit below it and changes every key.  Here the
    space's sorted names sit ``room + 1`` bits apart, and the ``room``
    bits below each name (and below the space's last) are left free for
    names that fall in that gap.  A union of the space and a few new
    couples then ranks every name by one bit in name order, as
    :func:`_column_weights` would, and the keys of the space's own sets
    (:attr:`keys`, made once) stay valid in every such union.
    ``weights`` is ``None`` when two of the space's names tie or one is
    a prefix of another.
    """

    __slots__ = ("names", "room", "width", "unit", "weights", "keys", "place")

    def __init__(self, space: CoupleSpace, room: int):
        names = space.names
        count = len(names)
        order = sorted(range(count), key=names.__getitem__)
        #: The space's names in order.
        self.names = [names[vertex] for vertex in order]
        self.room = room
        self.width = (count + 1) * (room + 1)
        self.unit = 1 << self.width
        self.weights: Optional[List[int]] = None
        self.keys: Sequence[int] = ()
        #: Each of the space's sets -> its position in the column order.
        self.place: Dict[int, int] = {}
        if any(
            later.startswith(earlier)
            for earlier, later in zip(self.names, self.names[1:])
        ):
            return
        weights = [0] * count
        for rank, vertex in enumerate(order):
            weights[vertex] = self.unit | self.bit(rank, room)
        self.weights = weights
        sets = space.independent_sets((1 << count) - 1)
        self.keys = [sum(_mask_members(mask, weights)) for mask in sets]
        self.place = {mask: index for index, mask in enumerate(sets)}

    def bit(self, gap: int, slot: int) -> int:
        """The rank bit of slot ``slot`` before sorted name ``gap``
        (slot ``room`` is that name's own)."""
        return 1 << (self.width - 1 - gap * (self.room + 1) - slot)


def enumerate_maximal_independent_sets(
    model: InterferenceModel,
    links: Sequence[Link],
    max_sets: Optional[int] = None,
    *,
    space: Optional[CoupleSpace] = None,
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
        space: The :class:`CoupleSpace` of a union holding ``links``, in
            an order of which ``links`` is a subsequence.  The sets are
            then searched on the sub-mask of ``links``' couples and come
            back on the space's bits; over the whole space (``links`` is
            the space's own ``links`` tuple, or lists every link of it)
            they are the ones the space keeps, which an
            extended space finds from its base's
            (:meth:`CoupleSpace.extend`).  ``None`` builds a space over
            ``links`` and searches all of it.

    Returns:
        Dominance-pruned maximal sets, deterministically ordered (by size
        descending, then lexicographically by couple names) so downstream
        LPs are reproducible, as a :class:`ColumnFamily` over the space's
        couples.
    """
    recorder = get_recorder()
    with recorder.span("enum.sets"):
        if space is None:
            space = CoupleSpace(model, links)
            links = space.links
        if links is space.links:
            subset = (1 << len(space.couples)) - 1
        else:
            subset = space.mask_of(links)
        if not subset:
            return ColumnFamily((), ())
        couples = space.couples
        if isinstance(model, PhysicalInterferenceModel):
            with recorder.span("enum.cumulative"):
                masks, keys = _enumerate_cumulative(
                    model, couples, space.weights, subset
                )
                masks = _column_order(masks, keys, space.names)
        else:
            with recorder.span("enum.pairwise"):
                masks = space.independent_sets(subset)
        if max_sets is not None and len(masks) > max_sets:
            raise InterferenceError(
                f"{len(masks)} maximal independent sets exceed the cap "
                f"{max_sets}; use column generation for this instance"
            )
        with recorder.span("enum.prune"):
            # Kernel rows only tighten with the rate: a space with a
            # next-faster mask takes that test (see prune_dominated).
            pruned = prune_dominated(
                ColumnFamily(couples, masks),
                compatible=None if space.slower is None else space.compatible,
                slower=space.slower,
            )
        recorder.count("enum.sets_found", len(masks))
        recorder.count("enum.sets_pruned", len(masks) - len(pruned))
    return pruned


def _pairwise_compatibility_masks(
    model: InterferenceModel, vertices: Sequence[LinkRate], start: int = 0
) -> List[int]:
    """Bitmask adjacency of the conflict graph's complement.

    ``masks[i]`` has bit ``j`` set when couples ``i`` and ``j`` can
    transmit concurrently (distinct links, no shared node, and neither
    receiver loses its rate's SINR against the other sender).  The bits
    are local to ``vertices``: enumeration runs on the union's own
    graph.  With ``start`` given, only the rows of ``vertices[start:]``
    are returned (an extended :class:`CoupleSpace` holds the others; a
    kernel-backed space reads its new rows by couple id instead).
    Kernel-backed models read the rows from the model's
    :class:`~repro.interference.couple_index.CoupleIndex`, which
    evaluates each couple against every other once per model; other
    models fall back to per-pair
    :meth:`~repro.interference.base.InterferenceModel.conflicts` calls,
    the earlier couple first.
    """
    kernel = getattr(model, "kernel", None)
    if kernel is not None:
        return kernel.couple_index.compatibility(vertices)[start:]
    count = len(vertices)
    masks = [0] * count
    for i, a in enumerate(vertices):
        for j in range(max(i + 1, start), count):
            if not model.conflicts(a, vertices[j]):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks[start:]


def _maximal_cliques_bitset(
    adjacency: List[int],
    count: int,
    subset: Optional[int] = None,
    weights: Optional[Sequence[int]] = None,
    roots: Optional[int] = None,
) -> Tuple[List[int], Optional[List[int]]]:
    """All maximal cliques of a bitmask-adjacency graph (Bron–Kerbosch).

    The one clique search over couples.  On the compatibility masks it
    finds maximal independent sets (Eq. 6 and A1's fixed-rate columns,
    and exact pricing); on their complement it finds the rate-coupled and
    fixed-rate cliques of :mod:`repro.core.cliques`.

    With ``subset`` given, cliques are enumerated in (and maximal relative
    to) the sub-graph induced by that vertex mask — the pricing oracle's
    positive-weight restriction.

    With ``roots`` given, the search branches at its root on those
    vertices alone, so it finds each maximal clique that holds one of
    them, once (an extended :class:`CoupleSpace` has the others).

    Returns the cliques in discovery order and, with ``weights`` given,
    the sum of ``weights`` over each clique's members, carried down the
    search next to the clique (``None`` without ``weights``).
    """
    cliques: List[int] = []
    keys: List[int] = []
    weight = weights if weights is not None else [0] * count
    dfs_nodes = 0

    def expand(
        current: int,
        key: int,
        candidates: int,
        excluded: int,
        branch: Optional[int] = None,
    ) -> None:
        # Called only with candidates left: leaves are visited inline.
        nonlocal dfs_nodes
        dfs_nodes += 1
        if branch is None:
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
            expand(0, 0, start, 0, roots)
        # One batched update keeps the per-DFS-node cost recorder-free.
        recorder.count("enum.dfs_nodes", dfs_nodes)
        recorder.count("enum.maximal_sets_emitted", len(cliques))
    return cliques, (keys if weights is not None else None)


def _enumerate_cumulative(
    model: PhysicalInterferenceModel,
    vertices: Sequence[LinkRate],
    weights: Optional[Sequence[int]],
    subset: int,
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
    :func:`_maximal_cliques_bitset` returns it.  Only the links of the
    vertices in ``subset`` are searched.

    The DFS carries the accumulated per-node interference vector of the
    current subset (one power-matrix row added per descent), so evaluating
    a child subset costs O(nodes + members) instead of the O(members²)
    SINR recomputation the seed implementation paid at every node.
    """
    by_link: Dict[str, Link] = {}
    vertex_of: Dict[Tuple[str, Rate], int] = {}
    for index in _mask_members(subset, range(len(vertices))):
        vertex = vertices[index]
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
