"""Link schedules: the objects Eq. 2 quantifies over.

A link scheduling ``S = {(E_i, R*_i, λ_i)}`` repeats with some period; each
entry activates the couples of one independent set for a fraction ``λ_i``
of the period.  :class:`LinkSchedule` stores the entries, checks the
invariants (λ ≥ 0, Σλ ≤ 1, entries are genuine independent sets when a
model is supplied) and answers the accounting questions the rest of the
library asks: per-link throughput, per-node airtime, per-node channel
busy share under carrier sensing (the bridge to Section 4's idle-time
estimators).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import ScheduleError
from repro.core.independent_sets import RateIndependentSet
from repro.interference.base import InterferenceModel
from repro.net.link import Link
from repro.net.topology import Network

__all__ = ["ScheduleEntry", "LinkSchedule"]

#: Tolerance for floating-point airtime accounting.
_EPS = 1e-9

#: Time shares at or below this are solver noise: a :class:`LinkSchedule`
#: drops their entries by default.
_DROP_BELOW = 1e-12


def _check_time_share(time_share: float) -> None:
    """Reject a non-finite or negative (beyond ``_EPS``) time share."""
    if not math.isfinite(time_share):
        raise ScheduleError(
            f"non-finite time share {time_share} in schedule entry"
        )
    if time_share < -_EPS:
        raise ScheduleError(
            f"negative time share {time_share} in schedule entry"
        )


def _check_airtime(total: float) -> None:
    """Reject a schedule using more than one period."""
    if total > 1.0 + 1e-6:
        raise ScheduleError(f"schedule uses {total:.6f} > 1 units of airtime")


@dataclass(frozen=True)
class ScheduleEntry:
    """One slot class: an independent set active for ``time_share`` of the period."""

    independent_set: RateIndependentSet
    time_share: float

    def __post_init__(self) -> None:
        _check_time_share(self.time_share)

    def throughput_of(self, link: Link) -> float:
        """Mbps this entry contributes to ``link`` (λ_i · r*_ij)."""
        return self.time_share * self.independent_set.throughput_of(link)


class LinkSchedule:
    """An executable link scheduling ``{(E_i, R*_i, λ_i)}``.

    Entries with a time share below ``drop_below`` are discarded at
    construction — LP solvers return harmless epsilon activations that
    would otherwise clutter reports.
    """

    def __init__(
        self,
        entries: Iterable[ScheduleEntry],
        drop_below: float = _DROP_BELOW,
    ):
        self._entries: Tuple[ScheduleEntry, ...] = tuple(
            e for e in entries if e.time_share > drop_below
        )
        _check_airtime(sum(e.time_share for e in self._entries))

    @classmethod
    def _of_columns(
        cls,
        columns: Sequence[RateIndependentSet],
        shares: Sequence[Tuple[int, float]],
    ) -> "LinkSchedule":
        """Run ``columns[index]`` for ``share`` per ``(index, share)``.

        The shares must be checked and above ``_DROP_BELOW`` already.  The
        entries are built when first read, so a caller that never reads
        them never builds a set out of a column family.
        """
        schedule = cls.__new__(cls)
        schedule._pending = (columns, tuple(shares))
        _check_airtime(sum(share for _index, share in shares))
        return schedule

    @cached_property
    def _entries(self) -> Tuple[ScheduleEntry, ...]:
        # Reached only by schedules made with _of_columns.
        columns, shares = self._pending
        return tuple(
            ScheduleEntry(columns[index], share) for index, share in shares
        )

    # -- container protocol ----------------------------------------------------

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> Tuple[ScheduleEntry, ...]:
        return self._entries

    # -- accounting ----------------------------------------------------------------

    @property
    def total_airtime(self) -> float:
        """Σ λ_i — the busy fraction of the period, ≤ 1."""
        return sum(e.time_share for e in self._entries)

    @property
    def idle_share(self) -> float:
        """1 − Σ λ_i — globally unscheduled airtime."""
        return max(0.0, 1.0 - self.total_airtime)

    def throughput_of(self, link: Link) -> float:
        """Delivered Mbps on ``link``: Σ_i λ_i r*_ij (Eq. 2 left side)."""
        return sum(e.throughput_of(link) for e in self._entries)

    def throughput_vector(self, links: Sequence[Link]) -> Tuple[float, ...]:
        return tuple(self.throughput_of(link) for link in links)

    def delivers(
        self, demands: Dict[Link, float], tolerance: float = 1e-6
    ) -> bool:
        """Whether every link's demand (Mbps) is met up to ``tolerance``."""
        return all(
            self.throughput_of(link) + tolerance >= demand
            for link, demand in demands.items()
        )

    def active_links(self) -> List[Link]:
        seen: Dict[str, Link] = {}
        for entry in self._entries:
            for couple in entry.independent_set:
                seen.setdefault(couple.link.link_id, couple.link)
        return list(seen.values())

    # -- node-level airtime (Section 4 bridge) ------------------------------------------

    def node_transmit_share(self, node_id: str) -> float:
        """Fraction of time ``node_id`` spends transmitting or receiving."""
        share = 0.0
        for entry in self._entries:
            if any(
                node_id in couple.link.endpoints
                for couple in entry.independent_set
            ):
                share += entry.time_share
        return share

    def node_busy_share(self, network: Network, node_id: str) -> float:
        """Fraction of time ``node_id`` senses the channel busy.

        A node is busy in slot class ``E_i`` when it is an endpoint of an
        active link or can hear (carrier-sense) an active transmitter.
        ``1 −`` this value is the channel idleness ratio λ_idle of
        Section 4.
        """
        share = 0.0
        for entry in self._entries:
            busy = False
            for couple in entry.independent_set:
                link = couple.link
                if node_id in link.endpoints:
                    busy = True
                    break
                if network.can_hear(node_id, link.sender.node_id):
                    busy = True
                    break
            if busy:
                share += entry.time_share
        return share

    # -- validation --------------------------------------------------------------------

    def validate(self, model: InterferenceModel) -> None:
        """Check every entry is an independent set under ``model``.

        Raises :class:`ScheduleError` with the offending entry otherwise.
        Separated from construction so schedules can be built from LP output
        (already trusted) without paying the validation cost, while tests
        and user-supplied schedules can opt in.
        """
        for index, entry in enumerate(self._entries):
            # In link-id order, not the set's hash order: the check stops
            # at the first conflict, and the model's counters follow it.
            couples = sorted(entry.independent_set.couples, key=attrgetter("link.link_id"))
            if not model.is_independent(couples):
                raise ScheduleError(
                    f"entry {index} is not an independent set: "
                    f"{entry.independent_set}"
                )

    def scaled(self, factor: float) -> "LinkSchedule":
        """A copy with every time share multiplied by ``factor`` ∈ [0, 1]."""
        if factor < 0:
            raise ScheduleError("scale factor must be non-negative")
        return LinkSchedule(
            ScheduleEntry(e.independent_set, e.time_share * factor)
            for e in self._entries
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lines = [
            f"  λ={entry.time_share:.4f}  {entry.independent_set}"
            for entry in sorted(
                self._entries, key=lambda e: -e.time_share
            )
        ]
        header = f"LinkSchedule(airtime={self.total_airtime:.4f})"
        return "\n".join([header] + lines)
