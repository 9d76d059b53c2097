"""One compatibility row per (link, rate) couple, for a whole model.

Whether two couples can transmit together depends only on the model:
the kernel's powers and noise, the rates' SINR thresholds and the links'
nodes.  :class:`CoupleIndex` gives every couple a model-wide id and
stores its compatibility with every other indexed couple as one packed
row (1 bit per pair), so each union, tile or window reads its matrix out
of rows filled once instead of re-deriving it.

* **Ids.** A link touched for the first time gets consecutive ids for
  its standalone couples, fastest first.  A couple at a rate its link
  does not support alone (a caller may ask about any rate of the table)
  gets the next free id when first seen.  Couples are keyed by link id
  and rate (a rate table's rates have distinct Mbps).
* **Rows.** Every call that brings new couples fills their rows in one
  vectorised block against every indexed couple, and sets the block's
  bits in the earlier couples' rows too, so every row holds every
  indexed couple.  A pair's two bits come from the same two
  expressions, so they agree.  The expressions are those of a
  union-local evaluation (``signal / (interference + noise) >=
  threshold`` at both receivers, plus the four shared-node tests), and
  elementwise float operations do not depend on the array they run in,
  so every bit equals the one a union-local matrix would hold.  Storage
  grows geometrically; nothing is built until the first call.
* **Reads.** :meth:`CoupleIndex.compatibility` gathers the rows of a
  couple list onto bits local to that list, the adjacency the
  Bron–Kerbosch search runs on.  :meth:`CoupleIndex.appended_rows`
  reads only the rows of a list's last few couples, for a couple space
  that extends a base whose rows it already holds: one byte test per
  couple of the list and row read, without the array gather, whose
  fixed cost is most of a gather this small.  :meth:`CoupleIndex.named`
  reads the couples' ids and names (their ``str``, kept next to each
  couple; the names fix the order of Eq. 6's columns), so a space that
  keeps the ids reads its rows by them without looking its couples up
  again.

Calls hold the index's lock, so threads enumerating over one model
extend and read it safely.  The kernel replaces its index whenever it
drops its link entries (a full matrix rebuild); node growth keeps it,
since node indices and positions never change.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.interference.base import LinkRate
from repro.obs import get_recorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.interference.kernel import GeometricKernel

__all__ = ["CoupleIndex"]

#: ``_BIT[b]`` is the byte with only bit ``b`` set.
_BIT = np.array([1 << bit for bit in range(8)], dtype=np.uint8)


class CoupleIndex:
    """Model-wide couple ids and packed compatibility rows of one kernel."""

    def __init__(self, kernel: "GeometricKernel"):
        self._kernel = kernel
        self._lock = threading.Lock()
        #: link id -> {rate Mbps: couple id}.
        self._ids: Dict[str, Dict[float, int]] = {}
        #: The couple of each id.  The index holds them, so no other
        #: object can share their ``id()`` while it lives.
        self.couples: List[LinkRate] = []
        #: ``str`` of each held couple, made once when it is indexed.
        self._names: List[str] = []
        #: ``id()`` of each held couple -> its couple id: the shared
        #: couple objects the models hand out are looked up by identity.
        self._by_object: Dict[int, int] = {}
        self._senders = np.empty(0, dtype=np.intp)
        self._receivers = np.empty(0, dtype=np.intp)
        self._signals = np.empty(0)
        self._thresholds = np.empty(0)
        #: ``_rows[i]`` has bit ``j`` (little-endian within each byte)
        #: set when couples ``i`` and ``j`` can transmit together, for
        #: every indexed ``j``.
        self._rows = np.zeros((0, 0), dtype=np.uint8)

    def __len__(self) -> int:
        return len(self.couples)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
        self._by_object = {
            id(couple): ident for ident, couple in enumerate(self.couples)
        }

    def ids(self, couples: Sequence[LinkRate]) -> List[int]:
        """The ids of ``couples``, indexing the ones not seen yet."""
        with self._lock:
            found = self._lookup(couples)
            if found is None:
                found = self._extend(couples)
        if found is None:  # the kernel rebuilt meanwhile
            return self._kernel.couple_index.ids(couples)
        return found

    def compatibility(self, couples: Sequence[LinkRate]) -> List[int]:
        """Bitmask adjacency of ``couples``' conflict-graph complement.

        ``masks[i]`` has bit ``j`` set when ``couples[i]`` and
        ``couples[j]`` can transmit together.
        """
        with self._lock:
            found = self._lookup(couples)
            if found is None:
                found = self._extend(couples)
            if found is not None:
                return self._gather(found)
        return self._kernel.couple_index.compatibility(couples)

    def appended_rows(self, ids: Sequence[int], start: int) -> List[int]:
        """The rows of ``ids[start:]`` in :meth:`compatibility`'s
        adjacency of the couples indexed here as ``ids`` (as
        :meth:`named` returned them): bit ``j`` of the row of couple
        ``ids[i]`` is set when it and couple ``ids[j]`` can transmit
        together.
        """
        with self._lock:
            places = [(other >> 3, 1 << (other & 7)) for other in ids]
            rows = []
            for ident in ids[start:]:
                line = self._rows[ident].tobytes()
                row = 0
                for bit, (byte, mask) in enumerate(places):
                    if line[byte] & mask:
                        row |= 1 << bit
                rows.append(row)
            return rows

    def named(
        self, couples: Sequence[LinkRate]
    ) -> Tuple[Optional[List[int]], List[str]]:
        """The ids and the ``str`` of each of ``couples``, indexing the
        ones not seen yet.  The ids are ``None`` when the kernel
        replaced this index meanwhile (its new one gives the names)."""
        with self._lock:
            found = self._lookup(couples)
            if found is None:
                found = self._extend(couples)
            if found is not None:
                return found, list(map(self._names.__getitem__, found))
        return None, self._kernel.couple_index.named(couples)[1]

    # -- internals (the lock is held) ------------------------------------------

    def _lookup(self, couples: Sequence[LinkRate]) -> Optional[List[int]]:
        """Ids of ``couples``, or ``None`` if one is not indexed yet."""
        found = list(map(self._by_object.get, map(id, couples)))
        if None not in found:
            return found
        # Couples equal to, but not the objects of, the held ones.
        slots = self._ids
        for position, ident in enumerate(found):
            if ident is None:
                couple = couples[position]
                slot = slots.get(couple.link.link_id)
                if slot is None or couple.rate.mbps not in slot:
                    return None
                found[position] = slot[couple.rate.mbps]
        return found

    def _extend(self, couples: Sequence[LinkRate]) -> Optional[List[int]]:
        """Index every new couple of ``couples`` and fill their rows.

        Returns the couples' ids, or ``None`` when fetching link entries
        made the kernel rebuild (and so replace this index).
        """
        kernel = self._kernel
        slots = self._ids
        new_links = {}
        for couple in couples:
            link = couple.link
            if link.link_id not in slots:
                new_links.setdefault(link.link_id, link)
        entries = kernel.entries(list(new_links.values()))
        if kernel.couple_index is not self:
            return None
        start = len(self.couples)
        senders: List[int] = []
        receivers: List[int] = []
        signals: List[float] = []
        thresholds: List[float] = []

        def add(couple: LinkRate, entry, threshold: float) -> None:
            slots[couple.link.link_id][couple.rate.mbps] = len(self.couples)
            self._by_object[id(couple)] = len(self.couples)
            self.couples.append(couple)
            self._names.append(str(couple))
            senders.append(entry.sender_index)
            receivers.append(entry.receiver_index)
            signals.append(entry.signal_mw)
            thresholds.append(threshold)

        for link_id, entry in zip(new_links, entries):
            slots[link_id] = {}
            for couple, threshold in zip(entry.couples, entry.thresholds):
                add(couple, entry, threshold)
        for couple in couples:
            if couple.rate.mbps not in slots[couple.link.link_id]:
                add(couple, kernel.entry(couple.link), couple.rate.sinr_linear)
        if len(self.couples) > start:
            self._fill(start, senders, receivers, signals, thresholds)
        return self._lookup(couples)

    def _reserve(self, count: int) -> None:
        """Grow every store to hold at least ``count`` couples."""
        capacity = len(self._senders)
        if count <= capacity:
            return
        capacity = max(count, capacity + capacity // 2, 64)
        for name in ("_senders", "_receivers", "_signals", "_thresholds"):
            old = getattr(self, name)
            grown = np.empty(capacity, dtype=old.dtype)
            grown[: len(old)] = old
            setattr(self, name, grown)
        rows = np.zeros((capacity, (capacity + 7) // 8), dtype=np.uint8)
        height, width = self._rows.shape
        rows[:height, :width] = self._rows
        self._rows = rows

    def _fill(self, start, senders, receivers, signals, thresholds) -> None:
        """Fill the rows of couples ``start..``, in one block against
        every indexed couple (the rows before ``start`` stay as they are).
        """
        end = len(self.couples)
        get_recorder().count("kernel.index.rows_filled", end - start)
        self._reserve(end)
        self._senders[start:end] = senders
        self._receivers[start:end] = receivers
        self._signals[start:end] = signals
        self._thresholds[start:end] = thresholds
        s = self._senders[:end]
        r = self._receivers[:end]
        s_new, r_new = s[start:], r[start:]
        power = self._kernel.power
        noise = self._kernel.noise_mw
        # survives_new[a, j]: SINR at new couple a's receiver with couple
        # j's sender as the lone interferer (the interferer's rate never
        # matters, only its sender) — the same scalar division `sinr` does.
        survives_new = (
            self._signals[start:end, None]
            / (power[s[None, :], r_new[:, None]] + noise)
            >= self._thresholds[start:end, None]
        )
        # survives_old[a, j]: SINR at couple j's receiver, new couple a's
        # sender the interferer.
        survives_old = (
            self._signals[None, :end]
            / (power[s_new[:, None], r[None, :]] + noise)
            >= self._thresholds[None, :end]
        )
        block = survives_new & survives_old
        # Half-duplex: couples whose links share a node never coexist;
        # that covers couples of one link and the diagonal.
        block &= s_new[:, None] != s[None, :]
        block &= s_new[:, None] != r[None, :]
        block &= r_new[:, None] != s[None, :]
        block &= r_new[:, None] != r[None, :]
        width = (end + 7) // 8
        self._rows[start:end, :width] = np.packbits(
            block, axis=1, bitorder="little"
        )
        if start:
            # The block's bits in the earlier rows, from byte ``first``.
            first = start >> 3
            columns = np.zeros((start, 8 * (width - first)), dtype=bool)
            columns[:, start - 8 * first : end - 8 * first] = block[:, :start].T
            self._rows[:start, first:width] |= np.packbits(
                columns, axis=1, bitorder="little"
            )

    def _gather(self, ids: List[int]) -> List[int]:
        """The rows of ``ids`` on bits local to the list."""
        count = len(ids)
        if not count:
            return []
        at = np.array(ids, dtype=np.intp)
        picked = self._rows[at[:, None], at[None, :] >> 3]
        picked &= _BIT[at & 7]
        packed = np.packbits(picked, axis=1, bitorder="little")
        width = packed.shape[1]
        if count <= 64:
            # One little-endian word per row.
            words = np.zeros((count, 8), dtype=np.uint8)
            words[:, :width] = packed
            return words.view("<u8").ravel().tolist()
        data = packed.tobytes()
        return [
            int.from_bytes(data[offset : offset + width], "little")
            for offset in range(0, count * width, width)
        ]
