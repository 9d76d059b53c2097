"""Bounded LRU cache for solve artifacts, instrumented on the obs recorder.

One :class:`SolveCache` holds one kind of artifact — enumerated LP
columns, warm master LPs, admission results — keyed by the serving
layer's fingerprints.  Capacity is a hard bound: inserting into a full
cache evicts the least-recently-used entry, so a long-lived
:class:`~repro.serve.service.AdmissionService` holds at most
``capacity`` artifacts per cache no matter how many distinct workloads
pass through it.

Every operation lands on the ambient :mod:`repro.obs` recorder as
``<prefix>.<label>.hits`` / ``.misses`` / ``.evictions`` counters and a
``<prefix>.<label>.size`` gauge (prefix ``serve.cache`` by default;
the online controller uses ``online.cache``), and is mirrored in the
cache's own
:attr:`~SolveCache.hits` / :attr:`~SolveCache.misses` /
:attr:`~SolveCache.evictions` attributes.  All mutation happens under an
internal lock, and :meth:`SolveCache.get_or_compute` runs its factory
under that lock too (single-flight: concurrent requests for the same key
compute the artifact once), so the local stats are exact under
concurrency — the obs counters serialize behind the same lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Optional

from repro.errors import ConfigurationError
from repro.obs import get_recorder

__all__ = ["SolveCache"]

#: ``get``'s default: tells an absent key from a stored ``None``.
_ABSENT = object()


class SolveCache:
    """LRU-bounded key/value store with hit/miss/eviction accounting."""

    def __init__(
        self, capacity: int, label: str, prefix: str = "serve.cache"
    ):
        if capacity < 1:
            raise ConfigurationError(
                f"cache capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self.label = label
        #: Obs-counter namespace: ``<prefix>.<label>.hits`` and friends.
        #: The online controller passes ``"online.cache"`` so its cache
        #: traffic never inflates the CI-gated ``serve.cache.*`` counters
        #: of the batch serving layer.
        self.prefix = prefix
        name = f"{prefix}.{label}"
        #: The recorder names, made once: a hit and a miss format none.
        self._hits_name = f"{name}.hits"
        self._misses_name = f"{name}.misses"
        self._evictions_name = f"{name}.evictions"
        self._size_name = f"{name}.size"
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self):
        """Current keys, least- to most-recently used (a snapshot)."""
        with self._lock:
            return list(self._entries)

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value for ``key`` (refreshing recency), else ``None``."""
        with self._lock:
            return self._get_locked(key)

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``key`` as most recent, evicting LRU entries past capacity."""
        with self._lock:
            self._put_locked(key, value)

    def discard(self, key: Hashable) -> None:
        """Drop ``key``'s entry, if any (no eviction is counted)."""
        with self._lock:
            if self._entries.pop(key, _ABSENT) is not _ABSENT:
                get_recorder().gauge(self._size_name, len(self._entries))

    def get_or_compute(
        self, key: Hashable, factory: Callable[[], Any]
    ) -> Any:
        """The cached value for ``key``, computing and inserting on miss.

        The factory runs under the cache lock (single-flight): when
        several threads miss on the same key at once, exactly one
        computes and the rest get its artifact.  The flip side is that a
        slow factory briefly blocks the whole cache — acceptable here,
        where the artifacts exist to be computed rarely.
        """
        with self._lock:
            value = self._get_locked(key)
            if value is None:
                value = factory()
                self._put_locked(key, value)
            return value

    def _get_locked(self, key: Hashable) -> Optional[Any]:
        # A hit hashes the key twice: the lookup and the recency move.
        entries = self._entries
        value = entries.get(key, _ABSENT)
        if value is not _ABSENT:
            entries.move_to_end(key)
            self.hits += 1
            get_recorder().count(self._hits_name)
            return value
        self.misses += 1
        get_recorder().count(self._misses_name)
        return None

    def _put_locked(self, key: Hashable, value: Any) -> None:
        recorder = get_recorder()
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        while len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1
            recorder.count(self._evictions_name)
        recorder.gauge(self._size_name, len(entries))
