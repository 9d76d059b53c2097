"""Event-driven online admission control under flow and node churn.

The batch serving layer (:mod:`repro.serve.service`) answers independent
queries against a *fixed* background.  An online controller faces the
harder problem: the background IS the history of its own decisions.
:class:`OnlineAdmissionController` consumes a
:class:`~repro.workloads.churn.FlowEvent` stream — flow arrivals and
departures plus node down/up churn — and answers every arrival with the
paper's Eq. 6 admission test against the currently-carried flows,
re-solving *incrementally* through a
:class:`~repro.serve.session.MasterSession`: a repeated (union, path,
demand vector) is a result-cache hit; otherwise the union's cached
master LP is retargeted at the arrival's path and departed load leaves
its demand rows in place
(:meth:`~repro.core.bandwidth.TimeShareProgram.set_demands` writes the
demand vector by position; every row whose RHS drops counts as an
``online.column_retirements``) before a HiGHS solve
from a canonical start on the thread's reused handle — the savings are
the skipped enumeration and assembly, no basis is carried.  An unseen
link union builds a fresh master (counted as an
``online.rebuild_fallbacks`` — the bench gate fails if these grow
faster than the event stream warrants).

Byte-identity is the contract, not an aspiration: the warm path edits
the cached program into *exactly* the program a cold
:func:`~repro.core.bandwidth.available_path_bandwidth` call would
assemble (same canonicalized matrix, same RHS floats — link demands are
re-summed from scratch on each arrival rather than kept as running sums,
because float addition is not associative), so every online decision is
bit-equal to a cold Eq. 6 solve over the same carried flows.  The
controller does that work on link ids: routes are memoised with their
node and link ids, each carried flow keeps its link ids, and the link
union and demand vector are built by id (see
:meth:`OnlineAdmissionController._solve`), so no
:class:`~repro.net.link.Link` is hashed on the way to the solve.  Pass
``pin=True`` to cross-check each decision against the cold solver with
exact ``==`` and raise :class:`~repro.errors.VerificationError` on the
first divergence; ``repro.verify`` runs this invariant over all six
instance families.

Churn semantics:

* a departure removes the flow from the carried set; its load leaves
  the LP lazily, at the next arrival touching the same union;
* ``node-down`` force-departs every carried flow traversing the node
  (``online.forced_departures``) and makes paths through it unroutable;
* arrivals are routed by hop count over the full topology, then
  rejected as ``unrouted`` when the route traverses a down node (the
  router itself has no exclusion support — a deliberate simplification,
  the admission math is the subject here).

Telemetry mirrors the batch layer: ``online.*`` counters, latency /
bandwidth histograms (decision latencies additionally land on
``serve.latency_seconds`` so the committed SLO objectives gate the
online lane too), a ``online.carried_flows`` gauge, per-event flight
records with ``e<seq>`` trace ids, and caches namespaced under
``online.cache.*`` so the CI-gated ``serve.cache.*`` counters of the
batch layer stay untouched.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, fields
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.bandwidth import _check_demand, available_path_bandwidth
from repro.errors import ConfigurationError, RoutingError, VerificationError
from repro.fingerprint import fingerprint, model_fingerprint
from repro.interference.base import InterferenceModel
from repro.net.link import Link
from repro.net.path import Path
from repro.obs import get_recorder
from repro.obs.explain import Explanation
from repro.routing.metrics import HopCountMetric, RoutingContext
from repro.routing.shortest_path import route
from repro.serve.flight import DEFAULT_SLOW_LOG_SIZE, FlightRecorder
from repro.serve.session import DeferredFingerprint, MasterSession, Outcome, SolveOutcome
from repro.workloads.churn import FlowEvent

__all__ = [
    "OnlineDecision",
    "OnlineAdmissionController",
    "run_online_session",
]

#: Sentinel: "route this arrival yourself" (vs an explicit path, which
#: may legitimately be None for unroutable).
_AUTO_ROUTE = object()


def _node_ids(path: Path) -> Tuple[str, ...]:
    """The ids of ``path``'s nodes, source first."""
    return tuple(node.node_id for node in path.nodes)


#: A routed arrival: its path, node ids and link ids (``(None, (), ())``
#: when unroutable).
_Route = Tuple[Optional[Path], Tuple[str, ...], Tuple[str, ...]]

_UNROUTED: _Route = (None, (), ())


@dataclass(frozen=True)
class OnlineDecision:
    """The controller's answer to one arrival event.

    ``cache_state`` says what the answer cost: ``"result"`` (memoised),
    ``"warm"`` (cached master LP, retargeted/re-demanded in place),
    ``"cold"`` (fresh enumeration + build) or ``"unrouted"`` (no usable
    route, no solve).  All solving states produce the identical number.
    """

    seq: int
    trace_id: str
    time: float
    flow_id: str
    source: str
    destination: str
    demand_mbps: float
    routed: bool
    #: Node sequence of the hop-count route ('' route → empty tuple).
    path_nodes: Tuple[str, ...]
    admitted: bool
    available_bandwidth_mbps: float
    cache_state: str
    latency_seconds: float
    #: Carried-flow count *after* this decision took effect.
    carried_flows: int
    #: Digest of (model, link union, demand vector) — the exact cache
    #: locus this decision solved under; empty when unrouted.  Computed
    #: when first read.
    fingerprint: str = DeferredFingerprint("")  # type: ignore[assignment]
    #: Decision provenance (:class:`~repro.obs.explain.Explanation`),
    #: populated when the controller runs with ``explain=True`` and the
    #: decision came from an Eq. 6 solve (never for ``unrouted`` /
    #: ``twohop`` answers).
    explanation: Optional[Explanation] = None

    @classmethod
    def _of(cls, *values) -> "OnlineDecision":
        """The decision with every field's value, in field order: the
        instance ``OnlineDecision(*values)`` makes, with its attribute
        dict written in one update rather than one frozen-dataclass
        ``object.__setattr__`` per field."""
        decision = object.__new__(cls)
        decision.__dict__.update(zip(_DECISION_FIELDS, values))
        return decision


#: :class:`OnlineDecision`'s field names, in order.
_DECISION_FIELDS = tuple(field.name for field in fields(OnlineDecision))


class OnlineAdmissionController:
    """Streaming Eq. 6 admission over a churning carried-flow set.

    With ``incremental=True`` (the default) arrivals are answered
    through the session's union-keyed caches; ``incremental=False`` is
    the rebuild-per-event baseline — every arrival enumerates, assembles
    and solves from scratch — used by experiment X6 and the bench
    harness to price the caches.  Both
    modes make identical decisions (that *is* the byte-identity
    contract; ``pin=True`` asserts it per event).

    ``policy="twohop"`` swaps the Eq. 6 test for the distributed 2-hop
    estimate (:class:`~repro.routing.admission.TwoHopAdmission`) while
    keeping the event loop — routing, carried-set bookkeeping, node
    churn, telemetry — identical, so X6's head-to-head compares
    admission math, not harness differences.
    """

    def __init__(
        self,
        model: InterferenceModel,
        max_sets: Optional[int] = None,
        tolerance: float = 1e-6,
        cache_capacity: int = 64,
        result_capacity: int = 4096,
        slow_log: int = DEFAULT_SLOW_LOG_SIZE,
        incremental: bool = True,
        pin: bool = False,
        policy: str = "eq6",
        explain: bool = False,
    ):
        if policy not in ("eq6", "twohop"):
            raise ConfigurationError(
                f"unknown online admission policy {policy!r} "
                "(known: eq6, twohop)"
            )
        if pin and policy != "eq6":
            raise ConfigurationError(
                "pin mode asserts byte-identity with the cold Eq. 6 "
                "solver; it only applies to policy='eq6'"
            )
        self.model = model
        self.network = model.network
        self.tolerance = tolerance
        self.incremental = incremental
        self.pin = pin
        self.policy = policy
        if policy == "twohop":
            from repro.routing.admission import TwoHopAdmission

            self._twohop: Optional[object] = TwoHopAdmission(
                model, tolerance=tolerance
            )
        else:
            self._twohop = None
        model_fp = model_fingerprint(model)
        self.session = MasterSession(
            model,
            lambda union_key, demand_key: fingerprint(
                [model_fp, list(union_key), list(demand_key)]
            ),
            max_sets=max_sets,
            cache_capacity=cache_capacity,
            result_capacity=result_capacity,
            prefix="online.cache",
            explain=explain,
        )
        self.enum_cache = self.session.enum_cache
        self.master_cache = self.session.master_cache
        self.result_cache = self.session.result_cache
        self.flight = FlightRecorder(slow_log)
        #: Carried flows in admission order: flow id → (path, demand,
        #: the path's link ids).  Insertion order is load-bearing — it
        #: fixes the link-union order, hence the LP row order, hence
        #: byte-identity with a cold solve over the same sequence of
        #: decisions.
        self._carried: "OrderedDict[str, Tuple[Path, float, Tuple[str, ...]]]" = (
            OrderedDict()
        )
        self._down: set = set()
        #: Memoised hop-count routes: (source, destination) → the path,
        #: its node ids and its link ids, ``(None, (), ())`` when
        #: unroutable.
        self._routes: Dict[Tuple[str, str], _Route] = {}
        #: Link id → link, for every link of a path asked about: the
        #: link union is built by id and read back through it.
        self._links: Dict[str, Link] = {}
        self._metric = HopCountMetric()
        self._context = RoutingContext(model)
        #: Sequence ids handed to synthetic :meth:`admit_path` arrivals.
        self._synthetic_seq = 0

    # -- state ------------------------------------------------------------------

    def carried(self) -> List[Tuple[Path, float]]:
        """The carried flows as (path, demand) pairs, admission order."""
        return [(path, demand) for path, demand, _ids in self._carried.values()]

    def down_nodes(self) -> set:
        """Node ids currently down."""
        return set(self._down)

    # -- event loop -------------------------------------------------------------

    def handle(self, event: FlowEvent) -> Optional[OnlineDecision]:
        """Process one event; arrivals return a decision, churn returns None."""
        recorder = get_recorder()
        recorder.count("online.events")
        if event.kind == "arrival":
            return self._arrival(event)
        if event.kind == "departure":
            recorder.count("online.departures")
            self._carried.pop(event.flow_id, None)
            recorder.gauge("online.carried_flows", len(self._carried))
            return None
        if event.kind == "node-down":
            recorder.count("online.node_down")
            self._down.add(event.node_id)
            for flow_id in [
                flow_id
                for flow_id, (path, _demand, _ids) in self._carried.items()
                if any(event.node_id in link.endpoints for link in path)
            ]:
                del self._carried[flow_id]
                recorder.count("online.forced_departures")
            recorder.gauge("online.carried_flows", len(self._carried))
            return None
        if event.kind == "node-up":
            recorder.count("online.node_up")
            self._down.discard(event.node_id)
            return None
        raise ConfigurationError(f"unknown churn event kind {event.kind!r}")

    def admit_path(
        self,
        flow_id: str,
        path: Path,
        demand_mbps: float,
        at: float = 0.0,
    ) -> OnlineDecision:
        """Synthetic arrival over a caller-supplied, pre-routed path.

        The verify harness replays instances whose paths are arbitrary
        constructions, not hop-count routes, so the event API cannot
        reproduce them.  This entry point skips routing and runs the
        identical decision pipeline — solve (result/warm/cold), pin
        cross-check, carried-set update, telemetry — on ``path``
        directly.  Sequence ids are allocated from a private counter so
        synthetic arrivals interleave safely with a real event stream.
        """
        event = FlowEvent(
            time=at,
            kind="arrival",
            seq=self._synthetic_seq,
            flow_id=flow_id,
            source=path.source.node_id,
            destination=path.destination.node_id,
            demand_mbps=demand_mbps,
        )
        self._synthetic_seq += 1
        return self._arrival(event, path=path)

    def _arrival(
        self, event: FlowEvent, path: object = _AUTO_ROUTE
    ) -> OnlineDecision:
        recorder = get_recorder()
        started = time.perf_counter()
        recorder.count("online.arrivals")
        if path is _AUTO_ROUTE:
            path, path_nodes, link_ids = self._route(event.source, event.destination)
        elif path is None:
            path_nodes = link_ids = ()
        else:
            path_nodes, link_ids = _node_ids(path), self._link_ids(path)
        if path is None:
            outcome = SolveOutcome(cache_state="unrouted")
            admitted = False
            recorder.count("online.unrouted")
        else:
            if self._twohop is not None:
                outcome = SolveOutcome(cache_state="twohop")
                outcome.bandwidth = self._twohop.estimate(
                    path, self.carried()
                ).available_bandwidth
            else:
                outcome = self._solve(path, link_ids)
            admitted = outcome.bandwidth + self.tolerance >= event.demand_mbps
            if self.pin:
                self._pin_check(event, path, outcome, admitted)
            if admitted:
                self._carried[event.flow_id] = (path, event.demand_mbps, link_ids)
        latency = time.perf_counter() - started
        recorder.count("online.admitted" if admitted else "online.rejected")
        recorder.histogram("online.latency_seconds", latency)
        recorder.histogram("serve.latency_seconds", latency)
        recorder.histogram("online.bandwidth_mbps", outcome.bandwidth)
        recorder.gauge("online.carried_flows", len(self._carried))
        trace_id = f"e{event.seq:06d}"
        self.flight.offer(
            latency,
            partial(
                outcome.flight_record,
                trace_id,
                event.flow_id,
                latency,
                admitted,
                event.demand_mbps,
                carried_flows=len(self._carried),
            ),
        )
        return OnlineDecision._of(
            event.seq,
            trace_id,
            event.time,
            event.flow_id,
            event.source,
            event.destination,
            event.demand_mbps,
            path is not None,  # routed
            path_nodes,
            admitted,
            outcome.bandwidth,  # available_bandwidth_mbps
            outcome.cache_state,
            latency,  # latency_seconds
            len(self._carried),  # carried_flows
            outcome,  # fingerprint, computed when read
            outcome.explanation,
        )

    # -- routing ----------------------------------------------------------------

    def _route(self, source: str, destination: str) -> _Route:
        """Hop-count route with its node and link ids, or
        ``(None, (), ())`` when unroutable / through a down node."""
        if source in self._down or destination in self._down:
            return _UNROUTED
        key = (source, destination)
        if key not in self._routes:
            try:
                path = route(
                    self.network, source, destination,
                    self._metric, self._context,
                )
            except RoutingError:
                self._routes[key] = _UNROUTED
            else:
                self._routes[key] = (path, _node_ids(path), self._link_ids(path))
        routed = self._routes[key]
        # A path's node ids are its links' endpoints.
        if self._down and not self._down.isdisjoint(routed[1]):
            return _UNROUTED
        return routed

    def _link_ids(self, path: Path) -> Tuple[str, ...]:
        """The ids of ``path``'s links, in path order; the links are
        recorded by id (the first link seen under an id stays)."""
        link_ids = tuple(link.link_id for link in path)
        for link_id, link in zip(link_ids, path.links):
            self._links.setdefault(link_id, link)
        return link_ids

    # -- solving ----------------------------------------------------------------

    def _solve(self, path: Path, path_key: Tuple[str, ...]) -> Outcome:
        """Eq. 6 for ``path`` (link ids ``path_key``) against the carried
        set, via the session.

        The link union and the demand vector are built by link id, so no
        :class:`~repro.net.link.Link` is hashed: the union is the carried
        flows' link ids in first-appearance order, then the path's new
        ones (:func:`~repro.core.bandwidth._collect_links`'s order), and
        each link's demand is re-summed over the carried flows in
        carried order from ``0.0`` — the left fold
        :func:`~repro.core.bandwidth.link_demands_from_paths` makes, so
        the floats are bit-equal to a cold solve's.  The re-sum runs on
        every arrival rather than as running sums kept across events: a
        departure would re-sum its links anyway (subtracting drifts from
        the fold, since float addition is not associative), about half
        the arrivals follow a departure or a node-down, and the carried
        set is a few flows, so the sum is noise next to the solve.
        """
        recorder = get_recorder()
        demands: Dict[str, float] = {}
        for carried_path, demand, link_ids in self._carried.values():
            _check_demand(demand, "path", carried_path)
            for link_id in link_ids:
                demands[link_id] = demands.get(link_id, 0.0) + demand
        # The carried links lead the union in first-appearance order, so
        # the demand vector is their sums, then 0.0 per new path link.
        union_key = tuple(dict.fromkeys([*demands, *path_key]))
        demand_key = (*demands.values(), *[0.0] * (len(union_key) - len(demands)))
        links = self._links
        background = self.carried() if self.session.explain else ()
        outcome = self.session.solve(
            path,
            [links[link_id] for link_id in union_key],
            None,
            demand_key,
            background,
            self.incremental,
            union_key=union_key,
            path_key=path_key,
        )
        if outcome.cache_state == "warm":
            recorder.count("online.warm_resolves")
        elif outcome.cache_state == "cold":
            recorder.count("online.rebuild_fallbacks")
        if outcome.retired_rows:
            # Departed load left the warm master: each such demand row's
            # requirement shrank in place instead of a rebuild.
            recorder.count("online.column_retirements", outcome.retired_rows)
        return outcome

    def _pin_check(
        self,
        event: FlowEvent,
        path: Path,
        outcome: Outcome,
        admitted: bool,
    ) -> None:
        """Assert this decision == a cold Eq. 6 solve, bit for bit."""
        get_recorder().count("online.pin_checks")
        reference = available_path_bandwidth(
            self.model, path, self.carried(), max_sets=self.session.max_sets
        )
        cold = reference.available_bandwidth
        cold_admitted = cold + self.tolerance >= event.demand_mbps
        if outcome.bandwidth != cold or admitted != cold_admitted:
            raise VerificationError(
                f"online decision for {event.flow_id!r} diverged from the "
                f"cold Eq. 6 solve: online {outcome.bandwidth!r} "
                f"(admitted={admitted}) vs cold {cold!r} "
                f"(admitted={cold_admitted}), cache_state="
                f"{outcome.cache_state}"
            )


def run_online_session(
    controller: OnlineAdmissionController,
    events: Sequence[FlowEvent],
) -> Tuple[List[OnlineDecision], float]:
    """Drive ``controller`` over ``events``; (arrival decisions, wall s).

    Publishes the session's ``online.decisions_per_second`` gauge (the
    SLO floor reads it) from the caller-visible wall time.
    """
    recorder = get_recorder()
    started = time.perf_counter()
    decisions: List[OnlineDecision] = []
    with recorder.span("online.session"):
        for event in events:
            decision = controller.handle(event)
            if decision is not None:
                decisions.append(decision)
    wall = time.perf_counter() - started
    recorder.gauge(
        "online.decisions_per_second",
        len(decisions) / wall if wall > 0 else 0.0,
    )
    return decisions, wall
