"""Interference-tile decomposition for path estimates at 1000+ nodes.

The paper's Eq. 6 needs the maximal rate-coupled independent sets of the
*whole* involved link set — affordable on the 30-node evaluation topology,
hopeless past a few hundred nodes.  But interference is local: a link only
constrains links within its interference radius, and a path's conflict
structure is a chain of **local interference cliques** (Section 4's
consecutive-run structure, :func:`repro.estimation.local_interference_cliques`).

This module exploits that locality:

* :func:`decompose_path` partitions the new path into **tiles** — merged
  maximal runs of consecutive mutually-conflicting path links, capped at
  :attr:`TileConfig.tile_size` links per tile, each extended with the
  background links that conflict with the tile's path links.  Runs and
  membership are read from one packed compatibility matrix over the path
  and background couples (``_pairwise_compatibility_masks``, the rows
  enumeration uses), not from per-pair ``conflicts`` calls;
* :func:`tiled_path_bandwidth` solves one Eq. 6 LP **per tile** over only
  the tile's couple set and stitches the results into a two-sided estimate:

  - **upper bound** — the minimum (bottleneck) of the per-tile optima.
    Each tile LP is a relaxation of the global problem: the projection of
    any globally feasible schedule onto a tile's links stays feasible
    (dropping links only raises SINRs, and by Prop. 3 dominance the tile's
    maximal-set family covers every projected column), so no tile optimum
    can undercut the global one.
  - **lower bound** — the paper's Section 3.3 restricted-column bound: one
    *global* Eq. 6 LP whose columns are the union of the tiles' locally
    enumerated sets (an independent set is a property of its members only,
    so tile-local sets are valid global columns), residual columns over the
    background links no tile covers (windowed enumerations stitched into
    cross-window sets wherever the union stays independent — without them
    far-apart background flows would get no spatial reuse and the
    restricted LP could go infeasible), and a standalone-rate singleton
    for every involved link still uncovered.  Stitching ANDs the packed
    compatibility rows of the couples merged so far; that decides
    independence under the pairwise models, and under the physical
    model, whose Eq. 3 interference is cumulative,
    :meth:`~repro.interference.base.InterferenceModel.is_independent`
    confirms every union the masks accept.

  All columns of an estimate stay couple bitmasks over one couple index:
  the tile families are remapped into it and pooled on their masks, and
  the lower-bound solve receives a
  :class:`~repro.core.independent_sets.ColumnFamily`, so no
  :class:`~repro.core.independent_sets.RateIndependentSet` is built
  except for the columns a schedule reads.

  When a single tile covers every involved link, both bounds collapse onto
  the exact Eq. 6 construction — same enumeration, same LP, bit-identical
  result; :mod:`repro.verify` pins ``tiled-LB ≤ exact ≤ tiled-UB`` on every
  tractable instance family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.bandwidth import (
    _collect_links,
    available_path_bandwidth,
    build_path_bandwidth_lp,
    link_demands_from_paths,
)
from repro.core.independent_sets import (
    ColumnFamily,
    _mask_members,
    _pairwise_compatibility_masks,
    enumerate_maximal_independent_sets,
)
from repro.errors import InfeasibleProblemError
from repro.estimation.local_cliques import _clique_runs
from repro.interference.base import InterferenceModel, LinkRate
from repro.interference.physical import PhysicalInterferenceModel
from repro.net.link import Link
from repro.net.path import Path
from repro.obs import get_recorder
from repro.obs.explain import explain_solution
from repro.phy.rates import Rate

__all__ = [
    "TileConfig",
    "Tile",
    "TileAttribution",
    "TiledPathEstimate",
    "decompose_path",
    "tiled_path_bandwidth",
]


@dataclass(frozen=True)
class TileConfig:
    """Knobs of the tile decomposition.

    Attributes:
        tile_size: Target maximum number of *path* links per tile; adjacent
            maximal runs are merged while their union stays within it.  A
            single run longer than ``tile_size`` still becomes one tile —
            splitting a clique would break the upper bound's relaxation
            argument.
        max_sets: Per-tile enumeration cap, forwarded to
            :func:`~repro.core.independent_sets.enumerate_maximal_independent_sets`.
    """

    tile_size: int = 8
    max_sets: Optional[int] = None


@dataclass(frozen=True)
class Tile:
    """One tile: a window of path links plus its interfering background."""

    #: Position in the decomposition, left to right along the path.
    index: int
    #: First and last path-link index covered (inclusive).
    start: int
    end: int
    #: The tile's couple set — path and background links, in the same
    #: stable order the global Eq. 6 construction uses.
    links: Tuple[Link, ...]
    #: The tile's new-path links (get the ``-f`` demand coefficient).
    new_links: Tuple[Link, ...]

    @property
    def path_link_count(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class TileAttribution:
    """Provenance of the upper bound: the bottleneck tile's binding clique.

    Derived from the bottleneck tile's own dual solution — the clique is
    the top contention region of that tile's Eq. 6 LP (same grouping and
    fingerprint as :func:`repro.obs.explain.explain_solution`), so a
    tiled estimate names *where* the bracket pinches, not just its value.
    """

    #: Index of the bottleneck tile in the decomposition.
    tile: int
    #: Binding link ids of the tile's top contention region (sorted);
    #: empty when the airtime budget alone limits the tile.
    clique_links: Tuple[str, ...]
    #: Total demand-row shadow price over ``clique_links`` (Mbps/Mbps).
    shadow_price: float
    #: Dual of the tile's airtime row (Mbps per unit airtime).
    airtime_price: float
    #: Bottleneck fingerprint — comparable with decision explanations'
    #: :attr:`~repro.obs.explain.Explanation.bottleneck_fingerprint`.
    fingerprint: str


@dataclass(frozen=True)
class TiledPathEstimate:
    """Two-sided available-bandwidth estimate from the tile decomposition."""

    #: Section 3.3 restricted-column lower bound, in Mbps.
    lower_bound: float
    #: Bottleneck-tile (minimum per-tile Eq. 6 optimum) upper bound, Mbps.
    upper_bound: float
    #: Per-tile Eq. 6 optima, aligned with ``tiles``.
    tile_optima: Tuple[float, ...]
    #: The decomposition itself.
    tiles: Tuple[Tile, ...]
    #: Index of the bottleneck (minimum-optimum) tile.
    bottleneck: int
    #: Number of LP columns the lower-bound solve used.
    columns: int
    #: Dual attribution of the upper bound (bottleneck tile's binding
    #: clique); ``None`` only if certification of the tile LP failed.
    attribution: Optional[TileAttribution] = None

    @property
    def gap(self) -> float:
        """Width of the bracket (``upper_bound - lower_bound``), Mbps."""
        return self.upper_bound - self.lower_bound


def _path_rates(
    model: InterferenceModel, new_path: Path
) -> Optional[Dict[str, Rate]]:
    """Max standalone rate per path link id, or None if any link is dead."""
    rates: Dict[str, Rate] = {}
    for link in new_path:
        rate = model.max_standalone_rate(link)
        if rate is None:
            return None
        rates[link.link_id] = rate
    return rates


def decompose_path(
    model: InterferenceModel,
    new_path: Path,
    background: Sequence[Tuple[Path, float]] = (),
    config: Optional[TileConfig] = None,
) -> List[Tile]:
    """Partition the estimation problem into interference tiles.

    Seeds tile boundaries from the path's maximal runs of consecutive
    mutually-conflicting links (the Section 4 local-clique structure),
    merges adjacent runs up to :attr:`TileConfig.tile_size` path links per
    tile, and attaches to each tile exactly the background links that
    conflict with one of its path links at maximum standalone rates.
    Both read one packed compatibility matrix over the path and
    background couples: a background couple joins a tile when its
    conflict bits meet the tile's interval of path-link bits.

    Raises:
        InfeasibleProblemError: when some path link supports no rate at
            all (no estimate is then well posed; the exact Eq. 6 answer
            would be zero or undefined).
    """
    config = config or TileConfig()
    path_links = list(new_path)
    rates = _path_rates(model, new_path)
    if rates is None:
        raise InfeasibleProblemError(
            f"path {new_path} has a link with no standalone rate"
        )
    path_couples = [
        LinkRate(link, rates[link.link_id]) for link in path_links
    ]
    background_couples: List[LinkRate] = []
    for link in _collect_links(background):
        rate = model.max_standalone_rate(link)
        if rate is not None:
            background_couples.append(LinkRate(link, rate))
    compatible = _pairwise_compatibility_masks(
        model, path_couples + background_couples
    )
    count = len(path_couples)
    runs = _clique_runs(compatible, count)
    groups: List[Tuple[int, int]] = []
    current_start, current_end = runs[0][0], runs[0][-1]
    for run in runs[1:]:
        start, end = run[0], run[-1]
        if max(current_end, end) - current_start + 1 <= config.tile_size:
            current_end = max(current_end, end)
        else:
            groups.append((current_start, current_end))
            current_start, current_end = start, end
    groups.append((current_start, current_end))

    # Per background couple: the path couples it conflicts with.
    path_bits = (1 << count) - 1
    path_conflicts = [
        (couple.link.link_id, path_bits & ~row)
        for couple, row in zip(background_couples, compatible[count:])
    ]
    global_order = _collect_links(background, new_path)
    tiles: List[Tile] = []
    for index, (start, end) in enumerate(groups):
        tile_path = path_links[start : end + 1]
        interval = ((1 << (end + 1)) - 1) >> start << start
        member_ids = {link.link_id for link in tile_path}
        member_ids.update(
            link_id
            for link_id, conflicts in path_conflicts
            if conflicts & interval
        )
        links = tuple(
            link for link in global_order if link.link_id in member_ids
        )
        tiles.append(
            Tile(
                index=index,
                start=start,
                end=end,
                links=links,
                new_links=tuple(tile_path),
            )
        )
    return tiles


def _remapped(family: ColumnFamily, bit_of: Dict[LinkRate, int]) -> List[int]:
    """``family``'s masks over the bits ``bit_of`` gives its couples.

    Couples not yet in ``bit_of`` get the next free bit, so one index
    serves every family of an estimate.
    """
    bits = [
        1 << bit_of.setdefault(couple, len(bit_of))
        for couple in family.couples
    ]
    remapped = []
    for mask in family.masks:
        out = 0
        while mask:
            low_bit = mask & -mask
            mask ^= low_bit
            out |= bits[low_bit.bit_length() - 1]
        remapped.append(out)
    return remapped


def _residual_columns(
    model: InterferenceModel,
    background: Sequence[Tuple[Path, float]],
    covered: set,
    tile_size: int,
) -> ColumnFamily:
    """Lower-bound columns for background links outside every tile.

    Each background path's uncovered links are windowed (``tile_size``
    links per window) and enumerated locally; one stitching pass then
    round-robins across the windows, merging columns whenever the union
    is still independent, so flows in distant parts of the field can
    share airtime in the restricted LP.  The union test ANDs the packed
    compatibility rows of the columns merged so far: pairwise
    compatibility is necessary for independence in every model and
    sufficient in the pairwise ones, while under the physical model's
    cumulative Eq. 3 :meth:`~repro.interference.base.InterferenceModel.is_independent`
    confirms each union the masks accept.  Every emitted column is thus
    validated (or enumerated) under ``model`` itself, so the Section 3.3
    lower-bound contract is preserved exactly.
    """
    windows: List[List[Link]] = []
    seen = set(covered)
    for path, _demand in background:
        segment: List[Link] = []
        for link in list(path.links) + [None]:
            if link is not None and link.link_id not in seen:
                seen.add(link.link_id)
                segment.append(link)
                if len(segment) < tile_size:
                    continue
            if segment:
                windows.append(segment)
                segment = []
    bit_of: Dict[LinkRate, int] = {}
    window_masks = [
        _remapped(family, bit_of)
        for window in windows
        if (family := enumerate_maximal_independent_sets(model, window))
    ]
    couples = list(bit_of)
    residual = [mask for masks in window_masks for mask in masks]
    if len(window_masks) > 1:
        compatible = _pairwise_compatibility_masks(model, couples)
        cumulative = isinstance(model, PhysicalInterferenceModel)
        everyone = (1 << len(couples)) - 1
        rounds = min(8, max(len(masks) for masks in window_masks))
        for round_index in range(rounds):
            merged = 0
            allowed = everyone
            for masks in window_masks:
                candidate = masks[round_index % len(masks)]
                if candidate & ~allowed:
                    continue
                union = merged | candidate
                if cumulative and not model.is_independent(
                    _mask_members(union, couples)
                ):
                    continue
                merged = union
                while candidate:
                    low_bit = candidate & -candidate
                    candidate ^= low_bit
                    allowed &= compatible[low_bit.bit_length() - 1]
            if merged:
                residual.append(merged)
    return ColumnFamily(couples, residual)


def _attribute_bottleneck(
    index: int,
    tile: Tile,
    program: Tuple[object, ColumnFamily],
    background: Sequence[Tuple[Path, float]],
    upper: float,
) -> Optional[TileAttribution]:
    """Dual attribution of the bottleneck tile's Eq. 6 optimum.

    Re-uses the tile's already-solved LP (the solution is cached, so the
    certificate costs cache hits, not extra ``lp.solves``) and the
    explain machinery's clique grouping, so the reported links and
    fingerprint are exactly what a decision explanation over the same
    program would show.
    """
    lp, columns = program
    try:
        explanation = explain_solution(
            lp.solve(),
            lp.certificate(),
            columns,
            tile.links,
            background=background,
            bandwidth=upper,
        )
    except InfeasibleProblemError:  # pragma: no cover - defensive
        return None
    top = explanation.bottleneck
    return TileAttribution(
        tile=index,
        clique_links=top.links if top else (),
        shadow_price=top.shadow_price if top else 0.0,
        airtime_price=explanation.airtime_price,
        fingerprint=explanation.bottleneck_fingerprint,
    )


def tiled_path_bandwidth(
    model: InterferenceModel,
    new_path: Path,
    background: Sequence[Tuple[Path, float]] = (),
    config: Optional[TileConfig] = None,
) -> TiledPathEstimate:
    """Two-sided Eq. 6 estimate via per-tile LPs (see module docstring).

    Raises:
        InfeasibleProblemError: when the background demands are not
            deliverable even within a single tile's relaxation, or some
            path link supports no rate — the same situations in which
            :func:`~repro.core.bandwidth.available_path_bandwidth` raises.
    """
    config = config or TileConfig()
    recorder = get_recorder()
    with recorder.span("scale.estimate"):
        with recorder.span("scale.decompose"):
            tiles = decompose_path(model, new_path, background, config)
        recorder.count("scale.tiles", len(tiles))
        demands = link_demands_from_paths(background)
        tile_optima: List[float] = []
        tile_programs: List[Tuple[object, ColumnFamily]] = []
        # One couple index per estimate; the pool dedupes tile columns
        # on their masks over it, keeping first-seen order.
        bit_of: Dict[LinkRate, int] = {}
        column_pool: Dict[int, None] = {}
        for tile in tiles:
            with recorder.span("scale.tile_lp"):
                columns = enumerate_maximal_independent_sets(
                    model, tile.links, config.max_sets
                )
                lp, _f_var, _lambda_vars = build_path_bandwidth_lp(
                    columns, tile.links, demands, set(tile.new_links)
                )
                value = lp.solve().objective
                if -1e-9 < value <= 0.0:
                    value = 0.0
            recorder.count("scale.tile_solves")
            tile_optima.append(value)
            tile_programs.append((lp, columns))
            column_pool.update(dict.fromkeys(_remapped(columns, bit_of)))

        bottleneck = min(
            range(len(tile_optima)), key=tile_optima.__getitem__
        )
        upper = tile_optima[bottleneck]
        attribution = _attribute_bottleneck(
            bottleneck, tiles[bottleneck], tile_programs[bottleneck],
            background, upper,
        )

        covered = {
            link.link_id for tile in tiles for link in tile.links
        }
        lb_masks = list(column_pool)
        residual = _residual_columns(
            model, background, covered, config.tile_size
        )
        lb_masks.extend(_remapped(residual, bit_of))
        scheduled = 0
        for mask in residual.masks:
            scheduled |= mask
        covered.update(
            couple.link.link_id
            for couple in _mask_members(scheduled, residual.couples)
        )
        for link in _collect_links(background, new_path):
            if link.link_id in covered:
                continue
            rate = model.max_standalone_rate(link)
            if rate is not None:
                couple = LinkRate(link, rate)
                lb_masks.append(1 << bit_of.setdefault(couple, len(bit_of)))
        lb_columns = ColumnFamily(bit_of, lb_masks)
        recorder.count("scale.columns", len(lb_columns))
        try:
            lower = available_path_bandwidth(
                model, new_path, background, independent_sets=lb_columns
            ).available_bandwidth
        except InfeasibleProblemError:
            # The restricted column family cannot deliver the background
            # demands; zero is still a valid lower bound whenever the
            # exact problem is feasible.
            lower = 0.0
    return TiledPathEstimate(
        lower_bound=lower,
        upper_bound=upper,
        tile_optima=tuple(tile_optima),
        tiles=tuple(tiles),
        bottleneck=bottleneck,
        columns=len(lb_columns),
        attribution=attribution,
    )
