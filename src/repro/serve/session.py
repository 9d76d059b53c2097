"""One Eq. 6 master-LP session behind batch and online admission.

Both serving front ends ask the paper's admission question — maximise
``f`` on a candidate path with the carried flows' per-link demands as
the demand rows' right-hand sides — and differ only in where the demand
vector comes from: :class:`~repro.serve.service.AdmissionService` fixes
it at construction, :class:`~repro.serve.online.OnlineAdmissionController`
re-sums it from its carried set on every arrival.  :class:`MasterSession`
answers the question for both out of three LRU
:class:`~repro.serve.cache.SolveCache` levels.  ``master`` and ``enum``
are keyed by the query's *link union* (the paper's ``P``: background
links ∪ candidate-path links, the exact universe the cold solver
enumerates over); ``result`` by whatever locus fixes the answer for the
front end:

``result``
    the front end's result key → bandwidth plus its provenance, a pure
    lookup.  The batch service names the path's link ids: its demands
    are fixed and its union is the background's links followed by the
    path's, so the path alone fixes the answer, and a hit needs no
    union.  The online controller names (link union, path, demand
    vector).  An entry is the :class:`ResultHit` every hit on it
    returns, shared rather than copied;
``master``
    link union → assembled Eq. 6 master LP, edited in place per query:
    :meth:`~repro.core.bandwidth.TimeShareProgram.retarget` points the
    ``f`` column at the query path and
    :meth:`~repro.core.bandwidth.TimeShareProgram.set_demands` rewrites
    the demand rows, by position, when the demand vector changed;
``enum``
    link union → enumerated LP columns, read when a master is built.

A session built with a ``base`` (the batch service's background links,
which every query union starts with) keeps the base's
:class:`~repro.core.independent_sets.CoupleSpace`, made by the first
union that extends it.  A fresh union that starts with the base's
links is enumerated on that space extended by its other links
(:meth:`~repro.core.independent_sets.CoupleSpace.extend`): the base's
compatibility rows and maximal independent sets are reused, and only
the path's few new couples are read and searched around.  The columns
are the ones a cold enumeration over the union finds, in the same
order.  The online controller, whose unions follow its carried set,
has no base and enumerates each fresh union on its own space, as does
the cumulative (physical) search, which reads no compatibility rows.

Each solve starts the edited program from a canonical state on the
thread's reused HiGHS handle (no basis is carried over): a cache hit
saves enumeration and assembly, not simplex work.  The edited program
is exactly the one a cold
:func:`~repro.core.bandwidth.available_path_bandwidth` call assembles
(same canonicalized matrix, same RHS floats), so cached and cold
answers are bit-equal.

Failure leaves nothing stale: a solve that raises writes no result
entry, and the master's ``path_key`` / ``demand_key`` are updated as
each edit lands, so they always describe the program the master holds
and the next query on the union re-solves it correctly.  A fresh union
whose enumeration raises (the ``max_sets`` cap) or whose program is
infeasible leaves no ``enum`` or ``master`` entry, and the base's space
is not changed by it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import MISSING, dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.bandwidth import TimeShareProgram, build_path_bandwidth_lp
from repro.core.independent_sets import (
    CoupleSpace,
    enumerate_maximal_independent_sets,
)
from repro.errors import InfeasibleProblemError
from repro.interference.base import InterferenceModel
from repro.interference.physical import PhysicalInterferenceModel
from repro.net.link import Link
from repro.net.path import Path
from repro.obs.explain import Explanation, explain_solution, top_binding_link
from repro.serve.cache import SolveCache

__all__ = ["DeferredFingerprint", "MasterSession", "ResultHit", "SolveOutcome"]

#: ``(union_key, demand_key) -> digest``: the front end's decision
#: fingerprint formula.
Digest = Callable[[Tuple[str, ...], Tuple[float, ...]], str]


@dataclass(slots=True)
class SolveOutcome:
    """One answer plus its causal record.

    ``cache_state`` says what the answer cost: ``"result"`` (memoised;
    a hit returns a :class:`ResultHit`, which pickles as this class),
    ``"warm"`` (cached master LP, edited in place), ``"cold"`` (master
    built from scratch) — or, for online arrivals that never reach the
    session, ``"unrouted"`` / ``"twohop"``.  The per-level fields say
    ``"hit"`` / ``"miss"`` / ``"skipped"`` for each cache consulted.
    """

    cache_state: str = "cold"
    bandwidth: float = 0.0
    result_cache: str = "skipped"
    columns_cache: str = "skipped"
    lp_cache: str = "skipped"
    columns: int = 0
    #: The ``f`` column was retargeted at a new path before solving.
    lp_warm_start: bool = False
    lp_iterations: int = 0
    #: Demand rows whose RHS dropped (departed load left the master).
    retired_rows: int = 0
    #: ``(link_id, shadow_price)`` of the top binding demand row, or
    #: ``None`` — always recorded on solves, so the slow log can name
    #: where a query contended even with explanations off.
    bottleneck: Optional[Tuple[str, float]] = None
    explanation: Optional[Explanation] = None
    #: The fingerprint memo of the session that answered, and the
    #: ``(union_key, demand_key)`` it answered under: what
    #: :attr:`fingerprint` digests.  No memo (an arrival that never
    #: reached a session) means no fingerprint.
    fingerprints: Optional["_FingerprintMemo"] = field(
        default=None, repr=False, compare=False
    )
    locus: Tuple[Tuple[str, ...], Tuple[float, ...]] = ((), ())
    _fingerprint: Optional[str] = field(default=None, repr=False, compare=False)

    @property
    def fingerprint(self) -> str:
        """The decision fingerprint of :attr:`locus` (``""`` without a
        session), computed on first read through the session's memo."""
        if self._fingerprint is None:
            memo = self.fingerprints
            self._fingerprint = "" if memo is None else memo(*self.locus)
        return self._fingerprint

    def __getstate__(self) -> Tuple[None, Dict[str, Any]]:
        """Pickled with its fingerprint taken and without the memo (its
        lock stays in this process)."""
        state = {name: getattr(self, name) for name in self.__slots__}
        state.update(_fingerprint=self.fingerprint, fingerprints=None)
        return None, state

    def flight_record(
        self,
        trace_id: str,
        query_id: str,
        latency: float,
        admitted: bool,
        demand_mbps: float,
        **extra: Any,
    ) -> Dict[str, Any]:
        """The :class:`~repro.serve.flight.FlightRecorder` record."""
        return {
            "trace_id": trace_id,
            "query_id": query_id,
            "latency_seconds": latency,
            "admitted": admitted,
            "available_bandwidth_mbps": self.bandwidth,
            "demand_mbps": demand_mbps,
            "fingerprint": self.fingerprint,
            "cache_state": self.cache_state,
            "result_cache": self.result_cache,
            "columns_cache": self.columns_cache,
            "lp_cache": self.lp_cache,
            "columns": self.columns,
            "lp_warm_start": self.lp_warm_start,
            "lp_iterations": self.lp_iterations,
            "bottleneck_link": self.bottleneck[0] if self.bottleneck else None,
            "bottleneck_price": self.bottleneck[1] if self.bottleneck else 0.0,
            **extra,
        }


class ResultHit:
    """What a result-cache hit returns, kept as the entry itself.

    It reads as a :class:`SolveOutcome` of state ``"result"`` (no other
    cache level consulted, nothing solved) with the bandwidth, bottleneck
    and explanation of the solve that filled the entry, and its
    fingerprint digests that solve's locus.  Every hit on the entry
    returns this one object, so a hit allocates nothing; its few slots
    keep an entry about the size of a plain tuple of the same values.
    """

    __slots__ = (
        "bandwidth", "bottleneck", "explanation",
        "_fingerprints", "_union_key", "_demand_key",
    )

    cache_state = "result"
    result_cache = "hit"
    columns_cache = lp_cache = "skipped"
    columns = lp_iterations = retired_rows = 0
    lp_warm_start = False

    def __init__(self, outcome: SolveOutcome):
        self.bandwidth = outcome.bandwidth
        self.bottleneck = outcome.bottleneck
        self.explanation = outcome.explanation
        self._fingerprints = outcome.fingerprints
        self._union_key, self._demand_key = outcome.locus

    @property
    def fingerprint(self) -> str:
        """The decision fingerprint of the filling solve's locus."""
        return self._fingerprints(self._union_key, self._demand_key)

    flight_record = SolveOutcome.flight_record

    def __reduce__(self) -> Tuple[Any, ...]:
        """Pickled as the :class:`SolveOutcome` it reads as, with its
        fingerprint taken (the memo's lock stays in this process)."""
        rebuild = partial(
            SolveOutcome,
            cache_state=self.cache_state,
            bandwidth=self.bandwidth,
            result_cache=self.result_cache,
            bottleneck=self.bottleneck,
            explanation=self.explanation,
            locus=(self._union_key, self._demand_key),
            _fingerprint=self.fingerprint,
        )
        return rebuild, ()


#: What answering a query returns: a solve's record, or a result hit.
Outcome = Union[SolveOutcome, ResultHit]


class _FingerprintMemo:
    """A session's decision fingerprints: ``digest(union_key,
    demand_key)``, memoised in an LRU of ``capacity`` entries.

    It is kept apart from the session's caches because every outcome
    holds it, the ones the result cache keeps too: were they to hold
    the session, session and cache would form a reference cycle, and a
    dropped session would wait for the cyclic garbage collector.
    """

    __slots__ = ("digest", "memo", "capacity", "lock")

    def __init__(self, digest: "Digest", capacity: int):
        self.digest = digest
        #: ``(union_key, demand_key) -> digest``, least recently used first.
        self.memo: "OrderedDict[tuple, str]" = OrderedDict()
        self.capacity = capacity
        self.lock = threading.Lock()

    def __call__(
        self, union_key: Tuple[str, ...], demand_key: Tuple[float, ...]
    ) -> str:
        memo_key = (union_key, demand_key)
        memo = self.memo
        with self.lock:
            digest = memo.get(memo_key)
            if digest is not None:
                memo.move_to_end(memo_key)
                return digest
        digest = self.digest(union_key, demand_key)
        with self.lock:
            memo[memo_key] = digest
            if len(memo) > self.capacity:
                memo.popitem(last=False)
        return digest


class DeferredFingerprint:
    """The ``fingerprint`` field of a decision dataclass.

    The field takes a str, or the outcome (:class:`SolveOutcome` or
    :class:`ResultHit`) the decision was answered with; the outcome's
    fingerprint is then computed on the first read of the field and
    kept.  Equality, ``repr`` and the wire
    format read the field, so they see the str either way.  ``default``
    is the field's dataclass default (none when omitted).
    """

    def __init__(self, default: Any = MISSING):
        self.default = default

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance: Any, owner: Optional[type] = None) -> str:
        if instance is None:
            if self.default is MISSING:
                raise AttributeError(self.name)  # the field has no default
            return self.default
        value = instance.__dict__[self.name]
        if not isinstance(value, str):
            value = instance.__dict__[self.name] = value.fingerprint
        return value

    def __set__(self, instance: Any, value: Any) -> None:
        instance.__dict__[self.name] = value


@dataclass(slots=True, eq=False)
class _Master:
    """A cached master LP and the path / demand vector it currently holds."""

    program: TimeShareProgram
    path_key: Tuple[str, ...]
    demand_key: Tuple[float, ...]
    lock: threading.Lock = field(default_factory=threading.Lock)

    @classmethod
    def build(
        cls,
        columns: List[Any],
        union: Sequence[Link],
        demands: Optional[Dict[Link, float]],
        path: Path,
        demand_key: Tuple[float, ...],
    ) -> "_Master":
        """Assemble the Eq. 6 program over ``columns`` for ``path``
        (``demands`` ``None``: ``demand_key``'s, in ``union`` order)."""
        if demands is None:
            demands = dict(zip(union, demand_key))
        return cls(
            build_path_bandwidth_lp(columns, union, demands, set(path.links)),
            tuple(link.link_id for link in path),
            demand_key,
        )


class MasterSession:
    """Union-keyed caches and master LPs answering Eq. 6 queries.

    A query is answered by :meth:`solve`, keyed by (link union, path,
    demand vector), or by :meth:`recall` and, on a miss, :meth:`compute`
    for a front end that names a smaller result key of its own (see the
    module docstring).
    ``digest`` maps ``(union_key, demand_key)`` to the front end's
    decision fingerprint.  Nothing in answering a query reads it: the
    caches key on the tuples themselves, so a solve only records them
    on its :class:`SolveOutcome`, and the digest is taken when a
    decision, a flight record or an output first reads
    :attr:`SolveOutcome.fingerprint`.  Those reads go through
    :meth:`fingerprint`, which memoises the digest, because the sha256
    over canonical JSON costs more than a result-cache hit and a
    reader (a decision log, say) meets the same configurations again.
    The memo is an LRU of ``result_capacity`` entries, like the result
    cache, so a long-running online controller that sees ever new
    demand vectors holds a bounded number of them.
    ``prefix`` namespaces the cache counters (``serve.cache`` or
    ``online.cache``).  ``base`` lists the links, each once, that the
    front end's unions start with; fresh unions that do are enumerated
    on the base's couple space, extended (see the module docstring).
    With ``explain=True`` every solve attaches an
    :class:`~repro.obs.explain.Explanation` (certificate, binding
    cliques, crowd-out); off, a solve adds only the O(rows) bottleneck
    scan for the flight recorder.

    Thread-safety: the caches lock internally, master builds are
    single-flight under the master cache's lock, and each master's edits
    and solve run under its own lock.  The fingerprint memo locks only
    its lookups and inserts: racing threads at worst compute the same
    digest twice.
    """

    def __init__(
        self,
        model: InterferenceModel,
        digest: Digest,
        max_sets: Optional[int] = None,
        cache_capacity: int = 64,
        result_capacity: int = 4096,
        prefix: str = "serve.cache",
        explain: bool = False,
        base: Sequence[Link] = (),
    ):
        self.model = model
        #: The links every query union starts with, each once, and
        #: their ids (none on the cumulative search, which reads no
        #: couple rows and so gains nothing from a base).
        self._base: Tuple[Link, ...] = ()
        if not isinstance(model, PhysicalInterferenceModel):
            self._base = tuple(base)
        self._base_key = tuple(link.link_id for link in self._base)
        #: The couple space of ``base``, built by the first union that
        #: extends it: constructing the session does no couple work, and
        #: a front end whose unions never leave the base keeps none.
        self.base_space: Optional[CoupleSpace] = None
        self.max_sets = max_sets
        self.explain = explain
        self.enum_cache = SolveCache(cache_capacity, "enum", prefix=prefix)
        self.master_cache = SolveCache(cache_capacity, "master", prefix=prefix)
        self.result_cache = SolveCache(result_capacity, "result", prefix=prefix)
        self._fingerprints = _FingerprintMemo(digest, result_capacity)

    def fingerprint(
        self, union_key: Tuple[str, ...], demand_key: Tuple[float, ...]
    ) -> str:
        """Memoised decision fingerprint of (union, demand vector)."""
        return self._fingerprints(union_key, demand_key)

    def solve(
        self,
        path: Path,
        union: Sequence[Link],
        demands: Optional[Dict[Link, float]],
        demand_key: Tuple[float, ...],
        background: Sequence[Tuple[Path, float]] = (),
        cached: bool = True,
        *,
        union_key: Optional[Tuple[str, ...]] = None,
        path_key: Optional[Tuple[str, ...]] = None,
    ) -> Outcome:
        """Answer one query: result cache → master (built once) → solve,
        the result keyed by ``(union_key, path_key, demand_key)``.

        ``demand_key`` is the demand vector in ``union`` order, or
        ``()`` when every query shares the demands the masters were
        built with.  ``demands`` maps links to those demands; ``None``
        says they are ``demand_key``'s, and the link-keyed map is then
        made only for a master build.  ``union_key`` and ``path_key``
        are the link ids of ``union`` and ``path``, for a caller that
        has them.  ``background`` feeds explanations' crowd-out.
        ``cached=False`` is the rebuild-per-query baseline: enumerate,
        assemble and solve the same program with no cache touched.
        """
        if union_key is None:
            union_key = tuple(link.link_id for link in union)
        if path_key is None:
            path_key = tuple(link.link_id for link in path)
        if not cached:
            outcome = SolveOutcome(
                fingerprints=self._fingerprints, locus=(union_key, demand_key)
            )
            columns = enumerate_maximal_independent_sets(
                self.model, union, self.max_sets
            )
            master = _Master.build(columns, union, demands, path, demand_key)
            self._solve(outcome, master.program, background)
            return outcome
        result_key = (union_key, path_key, demand_key)
        outcome = self.recall(result_key)
        if outcome is None:
            outcome = self.compute(
                result_key, path, union, demands, demand_key, background,
                union_key=union_key, path_key=path_key,
            )
        return outcome

    def recall(self, result_key: Any) -> Optional[ResultHit]:
        """The result level's answer under ``result_key``, or ``None``:
        one result-cache lookup.  A hit returns the entry itself, the
        :class:`ResultHit` the filling miss left for every hit on it."""
        return self.result_cache.get(result_key)

    def compute(
        self,
        result_key: Any,
        path: Path,
        union: Sequence[Link],
        demands: Optional[Dict[Link, float]],
        demand_key: Tuple[float, ...],
        background: Sequence[Tuple[Path, float]] = (),
        *,
        union_key: Tuple[str, ...],
        path_key: Tuple[str, ...],
    ) -> SolveOutcome:
        """Answer a query that :meth:`recall` missed (arguments as in
        :meth:`solve`) from its union's master, built once, and file the
        answer under ``result_key``, which must fix it: equal keys must
        mean equal answers."""
        outcome = SolveOutcome(
            result_cache="miss",
            fingerprints=self._fingerprints,
            locus=(union_key, demand_key),
        )

        def build() -> _Master:
            outcome.lp_cache = "miss"
            # get() + put() rather than get_or_compute so the outcome can
            # tell a column-cache hit from a fresh enumeration.
            columns = self.enum_cache.get(union_key)
            outcome.columns_cache = "miss" if columns is None else "hit"
            if columns is None:
                space = self._couple_space(union, union_key)
                columns = enumerate_maximal_independent_sets(
                    self.model,
                    union if space is None else space.links,
                    self.max_sets,
                    space=space,
                )
                self.enum_cache.put(union_key, columns)
            return _Master.build(columns, union, demands, path, demand_key)

        master = self.master_cache.get_or_compute(union_key, build)
        if outcome.lp_cache == "skipped":  # build() never ran
            outcome.lp_cache = "hit"
            outcome.cache_state = "warm"
        with master.lock:
            if master.path_key != path_key:
                master.program.retarget(path_key)
                master.path_key = path_key
                outcome.lp_warm_start = True
            if master.demand_key != demand_key:
                outcome.retired_rows = sum(
                    new < old for old, new in zip(master.demand_key, demand_key)
                )
                master.program.set_demands(demand_key)
                master.demand_key = demand_key
            try:
                self._solve(outcome, master.program, background)
            except InfeasibleProblemError:
                # An infeasible fresh union leaves the caches as they
                # were, so the next query on it is a cold build.
                if outcome.lp_cache == "miss":
                    self.master_cache.discard(union_key)
                    if outcome.columns_cache == "miss":
                        self.enum_cache.discard(union_key)
                raise
        # The entry is what a hit returns, so it carries the provenance
        # too: a result hit explains identically to the solve that
        # filled it.
        self.result_cache.put(result_key, ResultHit(outcome))
        return outcome

    def _couple_space(
        self, union: Sequence[Link], union_key: Tuple[str, ...]
    ) -> Optional[CoupleSpace]:
        """The couple space a fresh union is enumerated on: the base's,
        extended by the union's other links (the base's own for the
        base's union, once the base's space exists).  ``None`` (a space
        over the union alone) without a base or for a union that does
        not start with the base's links."""
        base_key = self._base_key
        count = len(base_key)
        if not count or union_key[:count] != base_key:
            return None
        space = self.base_space
        if len(union_key) == count:
            return space
        if space is None:
            space = self.base_space = CoupleSpace(self.model, self._base)
        return space.extend(union[count:])

    def _solve(
        self,
        outcome: SolveOutcome,
        program: TimeShareProgram,
        background: Sequence[Tuple[Path, float]],
    ) -> None:
        """Solve ``program`` and fill the answer and its provenance in.

        The answer is the program's bandwidth, after the checks the cold
        path's schedule makes of the λs; no schedule is built.
        """
        solution = program.lp.solve()
        program.scheduled_shares(solution)
        bandwidth = program.bandwidth(solution)
        outcome.bottleneck = top_binding_link(program, solution)
        if self.explain:
            outcome.explanation = explain_solution(
                program,
                solution,
                program.lp.certificate(),
                background=background,
                bandwidth=bandwidth,
            )
        outcome.bandwidth = bandwidth
        outcome.columns = len(program.columns)
        outcome.lp_iterations = int(solution.iterations or 0)
