"""Scaling layer: interference tiles.

Everything in :mod:`repro.core` is exact and global; this package is the
first layer that trades exactness for scale, so its approximation comes
with an oracle-guarded bound: :mod:`repro.scale.tiles` decomposes a path
into interference tiles and returns a bracketing
``[lower_bound, upper_bound]`` estimate of Eq. 6, verified against the
exact optimum by :mod:`repro.verify` wherever exact enumeration is
tractable.
"""

from repro.scale.tiles import (
    Tile,
    TileConfig,
    TiledPathEstimate,
    decompose_path,
    tiled_path_bandwidth,
)

__all__ = [
    "TileConfig",
    "Tile",
    "TiledPathEstimate",
    "decompose_path",
    "tiled_path_bandwidth",
]
