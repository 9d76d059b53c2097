"""One Eq. 6 master-LP session behind batch and online admission.

Both serving front ends ask the paper's admission question — maximise
``f`` on a candidate path with the carried flows' per-link demands as
the demand rows' right-hand sides — and differ only in where the demand
vector comes from: :class:`~repro.serve.service.AdmissionService` fixes
it at construction, :class:`~repro.serve.online.OnlineAdmissionController`
re-sums it from its carried set on every arrival.  :class:`MasterSession`
answers the question for both out of three LRU
:class:`~repro.serve.cache.SolveCache` levels keyed by the query's
*link union* (the paper's ``P``: background links ∪ candidate-path
links, the exact universe the cold solver enumerates over):

``result``
    (link union, path, demand vector) → bandwidth plus its provenance,
    a pure lookup;
``master``
    link union → assembled Eq. 6 master LP, edited in place per query:
    :meth:`~repro.core.bandwidth.TimeShareProgram.retarget` points the
    ``f`` column at the query path and
    :meth:`~repro.core.bandwidth.TimeShareProgram.set_demands` rewrites
    the demand rows, by position, when the demand vector changed;
``enum``
    link union → enumerated LP columns, read when a master is built.

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
and the next query on the union re-solves it correctly.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import MISSING, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.bandwidth import TimeShareProgram, build_path_bandwidth_lp
from repro.core.independent_sets import enumerate_maximal_independent_sets
from repro.interference.base import InterferenceModel
from repro.net.link import Link
from repro.net.path import Path
from repro.obs.explain import Explanation, explain_solution, top_binding_link
from repro.serve.cache import SolveCache

__all__ = ["DeferredFingerprint", "MasterSession", "SolveOutcome"]

#: ``(union_key, demand_key) -> digest``: the front end's decision
#: fingerprint formula.
Digest = Callable[[Tuple[str, ...], Tuple[float, ...]], str]


@dataclass(slots=True)
class SolveOutcome:
    """One answer plus its causal record.

    ``cache_state`` says what the answer cost: ``"result"`` (memoised),
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
    #: The session that answered and the ``(union_key, demand_key)`` it
    #: answered under: what :attr:`fingerprint` digests.  No session
    #: (an arrival that never reached one) means no fingerprint.
    session: Optional["MasterSession"] = field(default=None, repr=False, compare=False)
    locus: Tuple[Tuple[str, ...], Tuple[float, ...]] = ((), ())
    _fingerprint: Optional[str] = field(default=None, repr=False, compare=False)

    @property
    def fingerprint(self) -> str:
        """The decision fingerprint of :attr:`locus` (``""`` without a
        session), computed on first read through the session's memo."""
        if self._fingerprint is None:
            session = self.session
            self._fingerprint = "" if session is None else session.fingerprint(*self.locus)
        return self._fingerprint

    def __getstate__(self) -> Tuple[None, Dict[str, Any]]:
        """Pickled with its fingerprint taken and without the session
        (its caches and locks stay in this process)."""
        state = {name: getattr(self, name) for name in self.__slots__}
        state.update(_fingerprint=self.fingerprint, session=None)
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


class DeferredFingerprint:
    """The ``fingerprint`` field of a decision dataclass.

    The field takes a str, or the :class:`SolveOutcome` the decision was
    answered with; the outcome's fingerprint is then computed on the
    first read of the field and kept.  Equality, ``repr`` and the wire
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
        if isinstance(value, SolveOutcome):
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
    ``online.cache``).  With ``explain=True`` every
    solve attaches an :class:`~repro.obs.explain.Explanation`
    (certificate, binding cliques, crowd-out); off, a solve adds only
    the O(rows) bottleneck scan for the flight recorder.

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
    ):
        self.model = model
        self.max_sets = max_sets
        self.explain = explain
        self.enum_cache = SolveCache(cache_capacity, "enum", prefix=prefix)
        self.master_cache = SolveCache(cache_capacity, "master", prefix=prefix)
        self.result_cache = SolveCache(result_capacity, "result", prefix=prefix)
        self._digest = digest
        #: ``(union_key, demand_key) -> digest``, least recently used first.
        self._fp_memo: "OrderedDict[tuple, str]" = OrderedDict()
        self._fp_capacity = result_capacity
        self._fp_lock = threading.Lock()

    def fingerprint(
        self, union_key: Tuple[str, ...], demand_key: Tuple[float, ...]
    ) -> str:
        """Memoised decision fingerprint of (union, demand vector)."""
        memo_key = (union_key, demand_key)
        memo = self._fp_memo
        with self._fp_lock:
            digest = memo.get(memo_key)
            if digest is not None:
                memo.move_to_end(memo_key)
                return digest
        digest = self._digest(union_key, demand_key)
        with self._fp_lock:
            memo[memo_key] = digest
            if len(memo) > self._fp_capacity:
                memo.popitem(last=False)
        return digest

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
    ) -> SolveOutcome:
        """Answer one query: result cache → master (built once) → solve.

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
        outcome = SolveOutcome(session=self, locus=(union_key, demand_key))
        if not cached:
            columns = enumerate_maximal_independent_sets(
                self.model, union, self.max_sets
            )
            master = _Master.build(columns, union, demands, path, demand_key)
            self._solve(outcome, master.program, background)
            return outcome
        result_key = (union_key, path_key, demand_key)
        cached_result = self.result_cache.get(result_key)
        if cached_result is not None:
            # The entry carries the provenance too, so a result hit
            # explains identically to the solve that filled it.
            outcome.bandwidth, outcome.bottleneck, outcome.explanation = (
                cached_result
            )
            outcome.cache_state = "result"
            outcome.result_cache = "hit"
            return outcome
        outcome.result_cache = "miss"

        def build() -> _Master:
            outcome.lp_cache = "miss"
            # get() + put() rather than get_or_compute so the outcome can
            # tell a column-cache hit from a fresh enumeration.
            columns = self.enum_cache.get(union_key)
            outcome.columns_cache = "miss" if columns is None else "hit"
            if columns is None:
                columns = enumerate_maximal_independent_sets(
                    self.model, union, self.max_sets
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
            self._solve(outcome, master.program, background)
        self.result_cache.put(
            result_key,
            (outcome.bandwidth, outcome.bottleneck, outcome.explanation),
        )
        return outcome

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
