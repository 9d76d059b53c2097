"""Admission-query serving: cached enumeration, warm master LPs, batching.

A deployed estimator answers "can this path sustain rate r given the
background?" thousands of times over the *same* topology, and the
expensive parts of each answer — the interference kernel, the maximal
independent sets, the assembled Eq. 6 master LP — depend only on the
link universe, not on the query.  :class:`AdmissionService` binds one
model and background mix and answers queries through a
:class:`~repro.serve.session.MasterSession`, whose ``enum`` and
``master`` caches are keyed by the query's link union; a repeat union
retargets the cached master LP's ``f`` column instead of rebuilding the
program.  Every union is the background's links followed by the path's
new ones and the demands are the background's, so the ``result`` cache
is keyed by the path's link ids alone: a repeat query is answered from
its path, without building its union, and gets the outcome the first
query on the path left there.  The session keeps the background's
couple space (built by the first union that leaves the background, not
at construction) and enumerates a fresh union on it, extended by the
path's few new couples: the background's compatibility rows and
maximal independent sets are reused, and the columns are those of a
cold enumeration.

:class:`BatchSession` runs a batch of queries grouped by link union so
enumeration happens once per fingerprint even when the LRU caches are
smaller than the batch's working set, and orders same-path queries
consecutively to ride the LP solution cache.  Per-query spans,
``serve.*`` counters and the ``serve.latency_seconds`` /
``serve.bandwidth_mbps`` histograms land on the ambient
:mod:`repro.obs` recorder; each query additionally leaves a flight
record — per-cache-level outcomes, columns enumerated, LP iterations,
warm vs cold — on the service's bounded
:class:`~repro.serve.flight.FlightRecorder` slow-query log.

Thread-safety: the session's caches and master LPs lock internally, so
``submit`` may be called from several threads; the process-global obs
recorder's *span stack* is not thread-safe, so threaded batches
(``workers > 1``) skip span recording and keep only counters.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.bandwidth import _collect_links, link_demands_from_paths
from repro.fingerprint import (
    background_fingerprint,
    fingerprint,
    model_fingerprint,
)
from repro.interference.base import InterferenceModel
from repro.net.link import Link
from repro.net.path import Path
from repro.obs import get_recorder
from repro.obs.explain import Explanation
from repro.serve.flight import DEFAULT_SLOW_LOG_SIZE, FlightRecorder
from repro.serve.session import DeferredFingerprint, MasterSession

__all__ = [
    "AdmissionQuery",
    "AdmissionDecision",
    "AdmissionService",
    "BatchSession",
]


@dataclass(frozen=True)
class AdmissionQuery:
    """One admission question: can ``path`` sustain ``demand_mbps``?"""

    query_id: str
    path: Path
    demand_mbps: float


@dataclass(frozen=True)
class AdmissionDecision:
    """The service's answer to one :class:`AdmissionQuery`.

    ``cache_state`` records how the answer was produced: ``"cold"``
    (enumeration + LP build), ``"warm"`` (cached master LP, possibly
    retargeted at the query path) or ``"result"`` (memoised bandwidth,
    no solve at all).  All three produce identical numbers — the state
    only says what it cost.
    """

    query_id: str
    admitted: bool
    available_bandwidth_mbps: float
    demand_mbps: float
    #: Fingerprint of (model, background, link union) — the cache locus
    #: this query solved under; equal fingerprints shared all artifacts.
    #: Computed when first read.
    fingerprint: str = DeferredFingerprint()  # type: ignore[assignment]
    cache_state: str
    latency_seconds: float
    #: Flight-record id: batch submissions derive it from the batch
    #: position (deterministic), standalone submissions draw from a
    #: service-wide sequence.
    trace_id: Optional[str] = None
    #: Per-cache-level outcomes (``"hit"`` / ``"miss"`` / ``"skipped"``)
    #: behind ``cache_state``: a ``result`` hit skips the other levels,
    #: a ``master`` (``lp_cache``) hit skips enumeration.
    result_cache: str = "miss"
    columns_cache: str = "skipped"
    lp_cache: str = "skipped"
    #: Decision provenance (:class:`~repro.obs.explain.Explanation`):
    #: binding cliques, crowd-out attribution and the dual certificate.
    #: Populated only when the service was built with ``explain=True``.
    explanation: Optional[Explanation] = None

    @classmethod
    def _of(cls, *values) -> "AdmissionDecision":
        """The decision with every field's value, in field order: the
        instance ``AdmissionDecision(*values)`` makes, with its attribute
        dict written in one update rather than one frozen-dataclass
        ``object.__setattr__`` per field."""
        decision = object.__new__(cls)
        decision.__dict__.update(zip(_DECISION_FIELDS, values))
        return decision


#: :class:`AdmissionDecision`'s field names, in order.
_DECISION_FIELDS = tuple(field.name for field in fields(AdmissionDecision))


class AdmissionService:
    """Batch/async admission-query engine over one (model, background).

    The service binds an interference model and a background traffic mix
    at construction; queries then vary only the candidate path and
    demand, which is exactly the state the caches amortize.  Answers are
    bit-identical to :func:`~repro.core.bandwidth.available_path_bandwidth`
    on the same instance (the cold path and the warm path assemble the
    same program; ``repro.verify``'s oracle cross-checks this in the
    test suite).
    """

    def __init__(
        self,
        model: InterferenceModel,
        background: Sequence[Tuple[Path, float]] = (),
        max_sets: Optional[int] = None,
        tolerance: float = 1e-6,
        cache_capacity: int = 64,
        result_capacity: int = 4096,
        slow_log: int = DEFAULT_SLOW_LOG_SIZE,
        explain: bool = False,
    ):
        self.model = model
        self.network = model.network
        self.background = list(background)
        self.tolerance = tolerance
        self._demands = link_demands_from_paths(self.background)
        #: The background's links by id, in union order: a query's
        #: union extends a copy with its path's new links.
        self._background_links: Dict[str, Link] = {
            link.link_id: link for link in _collect_links(self.background)
        }
        #: The union of a path that adds no link, and its key: shared by
        #: every such query (and by the result entries that keep the key).
        self._background_union: Tuple[List[Link], Tuple[str, ...]] = (
            list(self._background_links.values()),
            tuple(self._background_links),
        )
        scope = [model_fingerprint(model), background_fingerprint(self.background)]
        self.session = MasterSession(
            model,
            lambda union_key, _demand_key: fingerprint([*scope, list(union_key)]),
            max_sets=max_sets,
            cache_capacity=cache_capacity,
            result_capacity=result_capacity,
            explain=explain,
            base=tuple(self._background_links.values()),
        )
        self.enum_cache = self.session.enum_cache
        self.master_cache = self.session.master_cache
        self.result_cache = self.session.result_cache
        self.flight = FlightRecorder(slow_log)
        self._count_lock = threading.Lock()
        self._trace_seq = 0

    # -- fingerprints -----------------------------------------------------------

    def link_union(self, path: Path) -> List[Link]:
        """The paper's ``P`` for this query: background ∪ path links."""
        return list(self._union(path)[0])

    def _union(self, path: Path) -> Tuple[List[Link], Tuple[str, ...]]:
        """:meth:`link_union` and its link ids, in the order
        :func:`~repro.core.bandwidth._collect_links` gives them; the
        shared background union when ``path`` adds no link to it."""
        links = self._background_links
        added = [link for link in path.links if link.link_id not in links]
        if not added:
            return self._background_union
        union = links.copy()
        for link in added:
            union.setdefault(link.link_id, link)
        return list(union.values()), tuple(union)

    def query_fingerprint(self, path: Path) -> str:
        """Digest of (model, background, link union) — the cache locus."""
        return self.session.fingerprint(self._union(path)[1], ())

    # -- serving ----------------------------------------------------------------

    def submit(
        self,
        query: AdmissionQuery,
        record_span: bool = True,
        trace_id: Optional[str] = None,
    ) -> AdmissionDecision:
        """Answer one query, using and feeding the caches.

        The result cache is asked by the path's link ids; only a miss
        builds the link union.  ``trace_id`` labels the query's flight
        record; :class:`BatchSession` derives one from the batch
        position, a standalone submit draws from the service-wide
        sequence.
        """
        recorder = get_recorder()
        started = time.perf_counter()
        with recorder.span("serve.query") if record_span else nullcontext():
            path = query.path
            path_key = tuple([link.link_id for link in path.links])
            outcome = self.session.recall(path_key)
            if outcome is None:
                union, union_key = self._union(path)
                outcome = self.session.compute(
                    path_key, path, union, self._demands, (), self.background,
                    union_key=union_key, path_key=path_key,
                )
        admitted = outcome.bandwidth + self.tolerance >= query.demand_mbps
        latency = time.perf_counter() - started
        with self._count_lock:
            if trace_id is None:
                self._trace_seq += 1
                trace_id = f"t{self._trace_seq:06d}"
            recorder.count("serve.queries")
            recorder.count("serve.admitted" if admitted else "serve.rejected")
            if outcome.lp_warm_start:
                recorder.count("serve.lp.warm_starts")
            recorder.histogram("serve.latency_seconds", latency)
            recorder.histogram("serve.bandwidth_mbps", outcome.bandwidth)
        self.flight.offer(
            latency,
            partial(
                outcome.flight_record,
                trace_id, query.query_id, latency, admitted, query.demand_mbps,
            ),
        )
        return AdmissionDecision._of(
            query.query_id,
            admitted,
            outcome.bandwidth,  # available_bandwidth_mbps
            query.demand_mbps,
            outcome,  # fingerprint, computed when read
            outcome.cache_state,
            latency,  # latency_seconds
            trace_id,
            outcome.result_cache,
            outcome.columns_cache,
            outcome.lp_cache,
            outcome.explanation,
        )

    def submit_many(
        self,
        queries: Sequence[AdmissionQuery],
        workers: Optional[int] = None,
    ) -> List[AdmissionDecision]:
        """Answer a batch via a :class:`BatchSession` (input order kept)."""
        return BatchSession(self, workers=workers).run(queries)


#: A batched query: (batch position, query).
_Member = Tuple[int, AdmissionQuery]


class BatchSession:
    """Run a batch of queries grouped by link union.

    Grouping guarantees enumeration runs once per fingerprint for the
    batch regardless of LRU capacity (queries sharing a union are served
    consecutively, so the artifacts are still resident), and sorting a
    group by path keeps same-path queries adjacent where the LP solution
    cache and the result cache answer them for free.  With ``workers``
    set, groups run on a thread pool — artifacts don't contend across
    groups, and counters stay exact behind the cache locks (spans are
    skipped: the obs recorder's span stack is process-global).
    """

    def __init__(
        self, service: AdmissionService, workers: Optional[int] = None
    ):
        if workers is not None and workers < 1:
            workers = None
        self.service = service
        self.workers = workers

    def run(
        self, queries: Sequence[AdmissionQuery]
    ) -> List[AdmissionDecision]:
        """Answer all queries; results align with the input order."""
        recorder = get_recorder()
        groups: "OrderedDict[Tuple[str, ...], List[_Member]]" = OrderedDict()
        for position, query in enumerate(queries):
            union_key = self.service._union(query.path)[1]
            groups.setdefault(union_key, []).append((position, query))
        recorder.count("serve.batch.queries", len(queries))
        recorder.count("serve.batch.groups", len(groups))

        decisions: List[Optional[AdmissionDecision]] = [None] * len(queries)
        record_span = self.workers is None

        def run_group(members: List[_Member]) -> None:
            ordered = sorted(
                members,
                key=lambda member: (
                    tuple(link.link_id for link in member[1].path),
                    member[0],
                ),
            )
            for position, query in ordered:
                # Trace id from the batch position: stable across runs
                # and across sequential vs threaded execution.
                decisions[position] = self.service.submit(
                    query, record_span=record_span, trace_id=f"b{position:05d}"
                )

        if self.workers is None:
            for members in groups.values():
                run_group(members)
        else:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                for future in [
                    pool.submit(run_group, members)
                    for members in groups.values()
                ]:
                    future.result()
        return decisions  # type: ignore[return-value]
