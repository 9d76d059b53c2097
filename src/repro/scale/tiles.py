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
  membership are read from the compatibility rows of the estimate's
  couple space (below) at the links' fastest couples, not from per-pair
  ``conflicts`` calls;
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

  All columns of an estimate are couple bitmasks in one
  :class:`~repro.core.independent_sets.CoupleSpace`, built once per
  estimate over the involved links: its compatibility rows are gathered
  once (under the geometric models, from the model's
  :class:`~repro.interference.couple_index.CoupleIndex`), the
  decomposition reads them, every tile and residual window is
  enumerated as a sub-mask of it, stitching ANDs its rows and a
  singleton is its link's fastest-couple bit.  Tile columns are deduped
  on their masks, and the lower-bound solve receives a
  :class:`~repro.core.independent_sets.ColumnFamily` over the space's
  couples, so no
  :class:`~repro.core.independent_sets.RateIndependentSet` is built
  except for the columns a schedule reads.

  When a single tile covers every involved link, both bounds collapse onto
  the exact Eq. 6 construction — same enumeration, same LP, bit-identical
  result; :mod:`repro.verify` pins ``tiled-LB ≤ exact ≤ tiled-UB`` on every
  tractable instance family.

The upper bound comes with a :class:`TileAttribution` — the bottleneck
tile's binding clique, from that tile's dual solution.  It is computed
when :attr:`TiledPathEstimate.attribution` is first read: the estimate
keeps the bottleneck's solved program until then, so an estimate whose
attribution nobody reads pays for no certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.bandwidth import (
    TimeShareProgram,
    _collect_links,
    available_path_bandwidth,
    build_path_bandwidth_lp,
    link_demands_from_paths,
)
from repro.core.independent_sets import (
    ColumnFamily,
    CoupleSpace,
    _mask_members,
    enumerate_maximal_independent_sets,
)
from repro.errors import InfeasibleProblemError
from repro.estimation.local_cliques import _clique_runs
from repro.interference.base import InterferenceModel
from repro.interference.physical import PhysicalInterferenceModel
from repro.net.link import Link
from repro.net.path import Path
from repro.obs import get_recorder
from repro.obs.explain import explain_solution

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


class _DeferredAttribution:
    """The ``attribution`` field of :class:`TiledPathEstimate`.

    The field takes a :class:`TileAttribution` (or ``None``), or a
    ``partial`` of :func:`_attribute_bottleneck` that computes one; the
    partial runs on the first read and its result is kept.  Equality,
    ``repr`` and pickling read the field, so they see the resolved value.
    """

    def __get__(
        self, instance: Optional["TiledPathEstimate"], owner: Optional[type] = None
    ) -> Optional[TileAttribution]:
        if instance is None:
            return None  # the field's default
        value = instance.__dict__["attribution"]
        if isinstance(value, partial):
            value = instance.__dict__["attribution"] = value()
        return value

    def __set__(self, instance: "TiledPathEstimate", value: object) -> None:
        instance.__dict__["attribution"] = value


@dataclass(frozen=True)
class TiledPathEstimate:
    """Two-sided available-bandwidth estimate from the tile decomposition.

    The bracket and the decomposition are computed by the call; the
    bottleneck attribution is computed when :attr:`attribution` is first
    read, from the bottleneck tile's solved program the estimate keeps
    until then.
    """

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
    #: clique), computed on first read; ``None`` only if certification
    #: of the tile LP failed.
    attribution: Optional[TileAttribution] = _DeferredAttribution()  # type: ignore[assignment]

    @property
    def gap(self) -> float:
        """Width of the bracket (``upper_bound - lower_bound``), Mbps."""
        return self.upper_bound - self.lower_bound

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["attribution"] = self.attribution
        return state


def decompose_path(
    model: InterferenceModel,
    new_path: Path,
    background: Sequence[Tuple[Path, float]] = (),
    config: Optional[TileConfig] = None,
    *,
    space: Optional[CoupleSpace] = None,
) -> List[Tile]:
    """Partition the estimation problem into interference tiles.

    Seeds tile boundaries from the path's maximal runs of consecutive
    mutually-conflicting links (the Section 4 local-clique structure),
    merges adjacent runs up to :attr:`TileConfig.tile_size` path links per
    tile, and attaches to each tile exactly the background links that
    conflict with one of its path links at maximum standalone rates.
    Both read the compatibility rows of the links' fastest couples: a
    background couple joins a tile when its conflict bits meet the
    tile's path-link bits.  The rows are those of ``space``, the
    :class:`~repro.core.independent_sets.CoupleSpace` of
    ``_collect_links(background, new_path)``; ``None`` builds it.

    Raises:
        InfeasibleProblemError: when some path link supports no rate at
            all (no estimate is then well posed; the exact Eq. 6 answer
            would be zero or undefined).
    """
    config = config or TileConfig()
    if space is None:
        space = CoupleSpace(model, _collect_links(background, new_path))
    path_links = list(new_path)
    bits = space.bits
    # Each path link's fastest couple, as its bit in the space.
    path_bits = []
    for link in path_links:
        mask = bits[link.link_id]
        if not mask:
            raise InfeasibleProblemError(
                f"path {new_path} has a link with no standalone rate"
            )
        path_bits.append(mask & -mask)
    compatible = space.compatible
    runs = _clique_runs(
        [compatible[bit.bit_length() - 1] for bit in path_bits],
        len(path_bits),
        path_bits,
    )
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

    # Per background link with a rate: its couples' bits, and the path
    # couples its fastest couple conflicts with.
    path_mask = 0
    for bit in path_bits:
        path_mask |= bit
    background_ids = {link.link_id for path, _demand in background for link in path}
    path_conflicts = [
        (mask, path_mask & ~compatible[(mask & -mask).bit_length() - 1])
        for link_id, mask in bits.items()
        if mask and link_id in background_ids
    ]
    tiles: List[Tile] = []
    for index, (start, end) in enumerate(groups):
        tile_path = path_links[start : end + 1]
        interval = 0
        for bit in path_bits[start : end + 1]:
            interval |= bit
        members = space.mask_of(tile_path)
        for mask, conflicts in path_conflicts:
            if conflicts & interval:
                members |= mask
        links = tuple(
            link for link in space.links if bits[link.link_id] & members
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
    space: CoupleSpace,
) -> List[int]:
    """Lower-bound columns for background links outside every tile.

    Each background path's uncovered links are windowed (``tile_size``
    links per window) and enumerated locally, as sub-masks of the
    estimate's couple ``space``; one stitching pass then round-robins
    across the windows, merging columns whenever the union is still
    independent, so flows in distant parts of the field can share
    airtime in the restricted LP.  The union test ANDs the space's
    compatibility rows of the couples merged so far: pairwise
    compatibility is necessary for independence in every model and
    sufficient in the pairwise ones, while under the physical model's
    cumulative Eq. 3 :meth:`~repro.interference.base.InterferenceModel.is_independent`
    confirms each union the masks accept.  Every emitted column is thus
    validated (or enumerated) under ``model`` itself, so the Section 3.3
    lower-bound contract is preserved exactly.  Returns the columns'
    masks on the space's bits.
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
    window_masks = [
        family.masks
        for window in windows
        if (family := enumerate_maximal_independent_sets(model, window, space=space))
    ]
    residual = [mask for masks in window_masks for mask in masks]
    if len(window_masks) > 1:
        couples = space.couples
        compatible = space.compatible
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
    return residual


def _attribute_bottleneck(
    index: int,
    program: TimeShareProgram,
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
    try:
        explanation = explain_solution(
            program,
            program.lp.solve(),
            program.lp.certificate(),
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
        # One couple space per estimate: every tile, window, stitch and
        # singleton below works on its bits.
        space = CoupleSpace(model, _collect_links(background, new_path))
        with recorder.span("scale.decompose"):
            tiles = decompose_path(
                model, new_path, background, config, space=space
            )
        recorder.count("scale.tiles", len(tiles))
        demands = link_demands_from_paths(background)
        tile_optima: List[float] = []
        tile_programs: List[TimeShareProgram] = []
        # Tile columns deduped on their masks, first-seen order kept.
        column_pool: Dict[int, None] = {}
        for tile in tiles:
            with recorder.span("scale.tile_lp"):
                columns = enumerate_maximal_independent_sets(
                    model, tile.links, config.max_sets, space=space
                )
                program = build_path_bandwidth_lp(
                    columns, tile.links, demands, set(tile.new_links)
                )
                value = program.bandwidth(program.lp.solve())
            recorder.count("scale.tile_solves")
            tile_optima.append(value)
            tile_programs.append(program)
            column_pool.update(dict.fromkeys(columns.masks))

        bottleneck = min(
            range(len(tile_optima)), key=tile_optima.__getitem__
        )
        upper = tile_optima[bottleneck]
        # Certified when read; the tuple keeps later edits of the
        # caller's background list out of it.
        attribution = partial(
            _attribute_bottleneck,
            bottleneck, tile_programs[bottleneck], tuple(background), upper,
        )

        covered = {
            link.link_id for tile in tiles for link in tile.links
        }
        lb_masks = list(column_pool)
        residual = _residual_columns(
            model, background, covered, config.tile_size, space
        )
        lb_masks.extend(residual)
        scheduled = 0
        for mask in residual:
            scheduled |= mask
        # A standalone-rate singleton for every link still uncovered.
        for link_id, mask in space.bits.items():
            if mask and not mask & scheduled and link_id not in covered:
                lb_masks.append(mask & -mask)
        lb_columns = ColumnFamily(space.couples, lb_masks)
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
