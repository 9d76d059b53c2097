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
  background links that conflict with the tile's path links;
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
    cross-window sets wherever :meth:`~repro.interference.base.InterferenceModel.is_independent`
    confirms the union — without them far-apart background flows would get
    no spatial reuse and the restricted LP could go infeasible), and a
    standalone-rate singleton for every involved link still uncovered.

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
    RateIndependentSet,
    enumerate_maximal_independent_sets,
)
from repro.errors import InfeasibleProblemError
from repro.estimation.local_cliques import local_interference_cliques
from repro.interference.base import InterferenceModel, LinkRate
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
    runs = local_interference_cliques(model, new_path, rates)
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

    path_couples = [
        LinkRate(link, rates[link.link_id]) for link in path_links
    ]
    background_couples: List[LinkRate] = []
    for link in _collect_links(background):
        rate = model.max_standalone_rate(link)
        if rate is not None:
            background_couples.append(LinkRate(link, rate))

    global_order = _collect_links(background, new_path)
    tiles: List[Tile] = []
    for index, (start, end) in enumerate(groups):
        tile_path = path_links[start : end + 1]
        tile_couples = path_couples[start : end + 1]
        member_ids = {link.link_id for link in tile_path}
        for couple in background_couples:
            if couple.link.link_id in member_ids:
                continue
            if any(
                model.conflicts(couple, path_couple)
                for path_couple in tile_couples
            ):
                member_ids.add(couple.link.link_id)
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


def _residual_columns(
    model: InterferenceModel,
    background: Sequence[Tuple[Path, float]],
    covered: set,
    tile_size: int,
) -> List[RateIndependentSet]:
    """Lower-bound columns for background links outside every tile.

    Each background path's uncovered links are windowed (``tile_size``
    links per window) and enumerated locally; one stitching pass then
    round-robins across the windows, merging columns whenever the model
    confirms the union is still independent, so flows in distant parts of
    the field can share airtime in the restricted LP.  Every emitted
    column is validated (or enumerated) under ``model`` itself, so the
    Section 3.3 lower-bound contract is preserved exactly.
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
    window_columns = [
        columns
        for window in windows
        if (columns := enumerate_maximal_independent_sets(model, window))
    ]
    residual = [column for columns in window_columns for column in columns]
    if len(window_columns) > 1:
        rounds = min(8, max(len(columns) for columns in window_columns))
        for round_index in range(rounds):
            merged: List[LinkRate] = []
            for columns in window_columns:
                candidate = columns[round_index % len(columns)]
                union = merged + list(candidate.couples)
                if model.is_independent(union):
                    merged = union
            if merged:
                residual.append(RateIndependentSet(frozenset(merged)))
    return residual


def _attribute_bottleneck(
    index: int,
    tile: Tile,
    program: Tuple[object, List[RateIndependentSet]],
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
        tile_programs: List[Tuple[object, List[RateIndependentSet]]] = []
        column_pool: Dict[RateIndependentSet, None] = {}
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
            for column in columns:
                column_pool.setdefault(column)

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
        lb_columns = list(column_pool)
        for column in _residual_columns(
            model, background, covered, config.tile_size
        ):
            lb_columns.append(column)
            covered.update(link.link_id for link in column.links)
        for link in _collect_links(background, new_path):
            if link.link_id in covered:
                continue
            rate = model.max_standalone_rate(link)
            if rate is not None:
                lb_columns.append(
                    RateIndependentSet(frozenset({LinkRate(link, rate)}))
                )
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
