"""Local interference cliques (Section 4).

"A local interference clique is a clique and all links in the clique are in
a sequence on the path."  Following the approach of the paper's reference
[1], we take, for every starting hop, the longest run of consecutive path
links that are mutually conflicting at their effective rates, and keep the
maximal runs.  Consecutive links always conflict (they share a node), so
every run of length ≥ 2 starts as a clique and extends while the new link
conflicts with *all* members.

The conflicts are read from the couples' packed compatibility masks
(:func:`~repro.core.independent_sets._pairwise_compatibility_masks`,
gathered from the model's couple index for kernel-backed models): a run
extends while the next couple's mask has no bit in common with the run
so far.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from repro.core.independent_sets import _pairwise_compatibility_masks
from repro.interference.base import InterferenceModel, LinkRate
from repro.net.path import Path
from repro.phy.rates import Rate

__all__ = ["local_interference_cliques"]


def local_interference_cliques(
    model: InterferenceModel,
    path: Path,
    rates: Mapping[str, Rate],
) -> List[List[int]]:
    """Maximal runs of consecutive path links forming cliques.

    Args:
        model: Decides pairwise conflicts.
        path: The path under estimation.
        rates: Effective rate per link id (every path link must appear).

    Returns:
        Lists of link *indices* into ``path``, sorted by start index; runs
        contained in an earlier, longer run are dropped (they are not
        maximal).  A single-link path yields the singleton clique ``[0]``.
    """
    couples = [
        LinkRate(link, rates[link.link_id]) for link in path
    ]
    compatible = _pairwise_compatibility_masks(model, couples)
    return _clique_runs(compatible, len(couples))


def _clique_runs(
    compatible: Sequence[int],
    count: int,
    bits: Optional[Sequence[int]] = None,
) -> List[List[int]]:
    """The maximal clique runs of the first ``count`` couples.

    ``compatible[i]`` has bit ``j`` set when couples ``i`` and ``j`` can
    transmit together; bits at ``count`` and above are ignored.  With
    ``bits`` given, ``bits[i]`` is couple ``i``'s bit in those rows
    instead (the rows of a larger couple space).
    """
    if bits is None:
        bits = [1 << index for index in range(count)]
    runs: List[List[int]] = []
    for start in range(count):
        end = start
        run = bits[start]
        while end + 1 < count and not compatible[end + 1] & run:
            end += 1
            run |= bits[end]
        runs.append(list(range(start, end + 1)))
    # Runs are contiguous index intervals with strictly increasing starts,
    # so a run is contained in another iff an *earlier* run reaches at least
    # as far right.  One linear sweep over the max end seen keeps exactly
    # the maximal runs.
    maximal: List[List[int]] = []
    best_end = -1
    for run in runs:
        if run[-1] > best_end:
            maximal.append(run)
            best_end = run[-1]
    return maximal
