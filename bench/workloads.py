"""The benchmark's four admission workloads.

Each workload turns a seed into inputs (:meth:`setup`), feeds them to
the program's public entry point one operation at a time in a closed
loop (:func:`run_loop`: one client, single-threaded, the next call only
after the previous one returned -- every caller in this repository waits
for its decision, and an online arrival changes the carried set the
next one sees), and checks the answers afterwards (:meth:`check`).

Sizes are constructor arguments so the tests can run every workload at
a tiny size; the defaults are the benchmark's, and everything else that
defines a workload is a module constant.  The pools are sized so one
pass outlasts the timed loop on a 2-core x86 box; a faster program that
exhausts its pool starts another pass on fresh services or controllers
(an "epoch"), which rebuilds them inside the timed loop.

Entry points are looked up on their modules when an epoch starts, never
bound at import, so a traced run reaches them through the tracer's
wrappers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import statistics
import time
import traceback
from array import array
from typing import Any, Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

import repro.core.bandwidth as bandwidth
import repro.routing.shortest_path as shortest_path
import repro.scale.tiles as tiles
from repro.errors import VerificationError
from repro.interference.protocol import ProtocolInterferenceModel
from repro.net.generators import scatter_topology
from repro.net.path import Path
from repro.routing.metrics import HopCountMetric, RoutingContext
from repro.serve import AdmissionQuery, AdmissionService
from repro.serve.online import OnlineAdmissionController
from repro.workloads.churn import OnlineChurnConfig, churn_event_stream
from repro.workloads.flows import random_flow_endpoints
from repro.workloads.scenarios import paper_random_topology

__all__ = [
    "Workload",
    "LoopLog",
    "CheckReport",
    "ServeHot",
    "ServeFresh",
    "OnlineChurn",
    "ScaleField",
    "WORKLOADS",
    "run_loop",
    "answers_digest",
]

#: One operation of a timed loop: ``(entry point, arguments, key)``.
Operation = Tuple[Callable[..., Any], tuple, Tuple[int, int]]

#: The X5/X6 paper topology every 30-node workload runs on.  The seed
#: varies the traffic, not the topology: with a random topology per
#: seed a few dense ones made single enumerations cost seconds, and the
#: seed decided the throughput more than the program did.
TOPOLOGY_SEED = 8
#: Background flows per serving workload, at 0.2 Mbps each.  With 10,
#: about 1-2% of fresh queries cost 30-100 ms and set the tail.
N_FLOWS = 8
BACKGROUND_MBPS = 0.2
#: Demands of the serving queries.
DEMANDS_MBPS = (0.5, 1.0, 2.0, 4.0)
#: Interleaved churn streams of ``online-churn``, one controller each.
STREAMS = 8
#: Tile decomposition of ``scale-field``'s estimates.
TILE_CONFIG = tiles.TileConfig(tile_size=6)
#: Loop seconds between two calls of :func:`run_loop`'s ``probe``.
PROBE_EVERY_S = 0.1


@dataclasses.dataclass
class LoopLog:
    """What one timed loop did."""

    wall: float = 0.0
    #: Public entry-point calls made, and how many of them raised.
    calls: int = 0
    failed: int = 0
    #: Passes over the workload's pool that were started.
    epochs: int = 0
    #: Seconds per completed decision (churn events are not decisions).
    latencies: "array[float]" = dataclasses.field(default_factory=lambda: array("d"))
    #: One tuple per decision of the first epoch, in stream order.
    answers: List[tuple] = dataclasses.field(default_factory=list)
    #: Services or controllers a traced loop used (their caches are read
    #: later); untraced loops drop each epoch's, so memory does not grow
    #: with the number of epochs.
    frontends: List[Any] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class CheckReport:
    """Outcome of a workload's output check."""

    checked: int
    what: str
    failures: List[str] = dataclasses.field(default_factory=list)


class Workload:
    """Defaults for workloads without an exact section or extra details."""

    name = ""

    def exact(self, inputs) -> None:
        return None

    def details(self, log: LoopLog, exact) -> dict:
        """Workload-specific numbers for the report (not metrics)."""
        return {}


def run_loop(workload, inputs, seconds: float, tracer=None, probe=None) -> LoopLog:
    """Drive ``workload`` for ``seconds`` of wall time, closed loop.

    ``probe``, when given, is called between operations every
    :data:`PROBE_EVERY_S` seconds; the time it takes is left out of the
    loop's wall time and moves its deadline.
    """
    log = LoopLog()
    perf = time.perf_counter
    started = perf()
    deadline = started + seconds
    next_probe = started + PROBE_EVERY_S
    paused = 0.0
    finished = False
    while not finished:
        first = log.epochs == 0
        log.epochs += 1
        operations = 0
        frontends = log.frontends if tracer is not None else []
        for function, args, key in workload.epoch(inputs, first, frontends):
            operations += 1
            if tracer is not None:
                tracer.op = log.calls
            log.calls += 1
            begin = perf()
            try:
                result = function(*args)
            except Exception:
                end = perf()
                log.failed += 1
                if log.failed == 1:
                    traceback.print_exc()
            else:
                end = perf()
                answer = workload.answer(key, result)
                if answer is not None:
                    log.latencies.append(end - begin)
                    if first:
                        log.answers.append(answer)
            if end >= deadline:
                finished = True
                break
            if probe is not None and end >= next_probe:
                probe()
                resumed = perf()
                paused += resumed - end
                deadline += resumed - end
                next_probe = resumed + PROBE_EVERY_S
        if not operations:
            raise RuntimeError(f"workload {workload.name} produced no operations")
    log.wall = perf() - started - paused
    return log


def answers_digest(answers: Sequence[tuple], limit: int) -> str:
    """sha256 over the first ``limit`` answers, floats written exactly."""
    digest = hashlib.sha256()
    for answer in answers[:limit]:
        digest.update(repr(answer).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _seeds(rng: np.random.Generator, count: int) -> List[int]:
    return [int(value) for value in rng.integers(0, 2**31, size=count)]


# -- batch serving ------------------------------------------------------------


class ServeUnit(NamedTuple):
    """One topology's model, fixed background and query stream."""

    model: Any
    background: List[Tuple[Path, float]]
    queries: List[AdmissionQuery]


class ServeInputs(NamedTuple):
    units: List[ServeUnit]
    #: One service per unit, built during set-up for the first epoch.
    services: List[AdmissionService]


def _services(units: Sequence[ServeUnit]) -> List[AdmissionService]:
    return [AdmissionService(unit.model, unit.background) for unit in units]


class _Serve(Workload):
    """Shared answer and check logic of the two batch-serving workloads."""

    check_samples = 100

    def answer(self, key, decision) -> tuple:
        return key + (decision.available_bandwidth_mbps, decision.admitted)

    def check(self, inputs: ServeInputs, log: LoopLog, seed: int, exact) -> CheckReport:
        """A seeded sample of decisions must equal a cold Eq. 6 solve."""
        rng = np.random.default_rng([seed, 1])
        count = min(self.check_samples, len(log.answers))
        picks = sorted(rng.choice(len(log.answers), size=count, replace=False))
        report = CheckReport(
            count, "sampled decisions equal a cold Eq. 6 solve (bandwidth and verdict)"
        )
        for pick in picks:
            unit_index, position, available, admitted = log.answers[pick]
            unit = inputs.units[unit_index]
            query = unit.queries[position]
            cold = bandwidth.available_path_bandwidth(
                unit.model, query.path, unit.background
            )
            if cold.available_bandwidth != available or (
                cold.supports(query.demand_mbps) != admitted
            ):
                report.failures.append(
                    f"{query.query_id} on topology {unit_index}: served "
                    f"{available!r} (admitted={admitted}), cold "
                    f"{cold.available_bandwidth!r}"
                )
        return report


class _PaperTopology:
    """The X5/X6 paper topology, one model, hop-count routes memoised."""

    def __init__(self):
        self.network = paper_random_topology(seed=TOPOLOGY_SEED)
        self.model = ProtocolInterferenceModel(self.network)
        self.nodes = [node.node_id for node in self.network.nodes]
        self._metric = HopCountMetric()
        self._context = RoutingContext(self.model)
        self._routes: dict = {}

    def route(self, source: str, destination: str) -> Path:
        # Hop-count routes ignore the background, so each endpoint pair
        # is routed once per set-up.
        key = (source, destination)
        if key not in self._routes:
            self._routes[key] = shortest_path.route(
                self.network, source, destination, self._metric, self._context
            )
        return self._routes[key]

    def background(self, flow_seed: int):
        """Section 5.2 background: random flows >= 100 m apart, hop routed."""
        return [
            (self.route(flow.source, flow.destination), BACKGROUND_MBPS)
            for flow in random_flow_endpoints(
                self.network,
                N_FLOWS,
                BACKGROUND_MBPS,
                seed=flow_seed,
                min_distance_m=100.0,
            )
        ]


def _subpath_queries(background, repeats: int) -> List[AdmissionQuery]:
    """The X5 stream: every subpath of the live routes, each demand, repeated."""
    subpaths: dict = {}
    for path, _demand in background:
        links = list(path.links)
        for start in range(len(links)):
            for stop in range(start + 1, len(links) + 1):
                subpath = Path(links[start:stop])
                subpaths.setdefault(tuple(link.link_id for link in subpath), subpath)
    return [
        AdmissionQuery(f"q{repeat}.{index}@{demand:g}", subpath, demand)
        for repeat in range(repeats)
        for index, subpath in enumerate(subpaths.values())
        for demand in DEMANDS_MBPS
    ]


class ServeHot(_Serve):
    """Subpath queries that all share their background's links.

    The query stream is ``admission_query_workload``'s (X5), over many
    backgrounds on one topology; building the topology once keeps
    set-up short enough for hundreds of backgrounds.
    """

    name = "serve-hot"

    def __init__(self, backgrounds: int = 320, repeats: int = 3):
        self.backgrounds = backgrounds
        self.repeats = repeats

    def setup(self, seed: int) -> ServeInputs:
        topology = _PaperTopology()
        units = []
        for flow_seed in _seeds(np.random.default_rng(seed), self.backgrounds):
            background = topology.background(flow_seed)
            queries = _subpath_queries(background, self.repeats)
            units.append(ServeUnit(topology.model, background, queries))
        return ServeInputs(units, _services(units))

    def epoch(self, inputs: ServeInputs, first: bool, frontends: list) -> Iterator[Operation]:
        services = inputs.services if first else _services(inputs.units)
        frontends.extend(services)
        for index, (unit, service) in enumerate(zip(inputs.units, services)):
            for position, query in enumerate(unit.queries):
                yield service.submit, (query,), (index, position)


class ServeFresh(_Serve):
    """Queries between random endpoints: most bring a new link union."""

    name = "serve-fresh"

    def __init__(self, backgrounds: int = 32, queries: int = 200):
        self.backgrounds = backgrounds
        self.queries = queries

    def setup(self, seed: int) -> ServeInputs:
        rng = np.random.default_rng(seed)
        flow_seeds = _seeds(rng, self.backgrounds)
        topology = _PaperTopology()
        units = []
        for flow_seed in flow_seeds:
            background = topology.background(flow_seed)
            queries = []
            for index in range(self.queries):
                source, destination = rng.choice(topology.nodes, size=2, replace=False)
                demand = float(rng.choice(DEMANDS_MBPS))
                queries.append(
                    AdmissionQuery(
                        f"q{index}@{demand:g}",
                        topology.route(str(source), str(destination)),
                        demand,
                    )
                )
            units.append(ServeUnit(topology.model, background, queries))
        return ServeInputs(units, _services(units))

    def epoch(self, inputs: ServeInputs, first: bool, frontends: list) -> Iterator[Operation]:
        services = inputs.services if first else _services(inputs.units)
        frontends.extend(services)
        # Round-robin over the backgrounds, so any prefix of the stream
        # mixes all of them.
        for position in range(self.queries):
            for index, (unit, service) in enumerate(zip(inputs.units, services)):
                yield service.submit, (unit.queries[position],), (index, position)


# -- online admission ---------------------------------------------------------


class OnlineInputs(NamedTuple):
    model: Any
    streams: List[list]
    #: One controller per stream, built during set-up for the first epoch.
    controllers: List[OnlineAdmissionController]


class OnlineChurn(Workload):
    """Churn streams replayed through the online admission controller."""

    name = "online-churn"
    check_events = 1000

    def __init__(self, events: int = 5_000, node_churn: int = 20):
        self.events = events
        self.node_churn = node_churn

    def setup(self, seed: int) -> OnlineInputs:
        rng = np.random.default_rng(seed)
        network = paper_random_topology(seed=TOPOLOGY_SEED)
        model = ProtocolInterferenceModel(network)
        config = OnlineChurnConfig(
            n_events=self.events,
            route_pool=4,
            mean_holding=4.0,
            min_distance_m=300.0,
            node_churn=self.node_churn,
        )
        streams = []
        for stream_seed in _seeds(rng, STREAMS):
            streams.append(
                [
                    dataclasses.replace(
                        event,
                        demand_mbps=round(float(rng.uniform(0.2, 2.0)), 2),
                    )
                    if event.kind == "arrival"
                    else event
                    for event in churn_event_stream(network, config, seed=stream_seed)
                ]
            )
        controllers = [OnlineAdmissionController(model) for _ in streams]
        return OnlineInputs(model, streams, controllers)

    @staticmethod
    def _interleave(streams, controllers) -> Iterator[Operation]:
        for position in range(max(len(events) for events in streams)):
            for index, (events, controller) in enumerate(zip(streams, controllers)):
                if position < len(events):
                    yield controller.handle, (events[position],), (index, position)

    def epoch(self, inputs: OnlineInputs, first: bool, frontends: list) -> Iterator[Operation]:
        controllers = inputs.controllers
        if not first:
            controllers = [OnlineAdmissionController(inputs.model) for _ in inputs.streams]
        frontends.extend(controllers)
        return self._interleave(inputs.streams, controllers)

    def answer(self, key, decision) -> Optional[tuple]:
        if decision is None:  # departures and node churn decide nothing
            return None
        return (
            key[0],
            decision.seq,
            decision.admitted,
            decision.available_bandwidth_mbps,
            decision.carried_flows,
        )

    def check(self, inputs: OnlineInputs, log: LoopLog, seed: int, exact) -> CheckReport:
        """Replay the first events on pinned controllers; decisions must match.

        ``pin=True`` re-solves every decision cold and raises on any
        difference, so the replay checks the warm path against Eq. 6
        and the timed run against the replay.
        """
        controllers = [
            OnlineAdmissionController(inputs.model, pin=True) for _ in inputs.streams
        ]
        replayed: List[tuple] = []
        report = CheckReport(
            0, "first events replayed on pinned controllers match the timed run"
        )
        try:
            for function, args, key in self._interleave(inputs.streams, controllers):
                if report.checked >= self.check_events:
                    break
                report.checked += 1
                answer = self.answer(key, function(*args))
                if answer is not None:
                    replayed.append(answer)
        except VerificationError as error:
            report.failures.append(str(error))
            return report
        for timed, pinned in zip(log.answers, replayed):
            if timed != pinned:
                report.failures.append(f"timed {timed!r} != pinned replay {pinned!r}")
        return report


# -- large fields -------------------------------------------------------------


class Field(NamedTuple):
    model: Any
    background: List[Tuple[Path, float]]
    paths: List[Path]


class ExactInstance(NamedTuple):
    network: Any
    path: Path
    background: List[Tuple[Path, float]]


class ExactRun(NamedTuple):
    seconds: List[float]
    value: float


class ScaleInputs(NamedTuple):
    fields: List[Field]
    exact: ExactInstance


def _hop_path(network, hops: Sequence[str]) -> Path:
    return Path(network.link_between(a, b) for a, b in zip(hops, hops[1:]))


def _x7_background(network, graph, n_nodes: int) -> List[Tuple[Path, float]]:
    """The X7 cross traffic: two fixed node pairs at 0.5 Mbps each."""
    background = []
    for source, destination in (
        ("n5", f"n{n_nodes // 2}"),
        (f"n{n_nodes // 3}", f"n{n_nodes - 3}"),
    ):
        try:
            hops = nx.shortest_path(graph, source, destination)
        except nx.NetworkXException:
            continue
        if len(hops) >= 2:
            background.append((_hop_path(network, hops), 0.5))
    return background


def _x7_field(n_nodes: int):
    """The X7 scatter field: seed 8, the 192-node density at every size."""
    scale = math.sqrt(n_nodes / 192)
    return scatter_topology(n_nodes, 850.0 * scale, 1275.0 * scale, seed=8)


def _x7_instance(n_nodes: int) -> ExactInstance:
    """The X7 speedup instance: the path from n0 to its farthest node."""
    network = _x7_field(n_nodes)
    graph = network.to_digraph()
    reachable = nx.single_source_shortest_path(graph, "n0")
    farthest = max(reachable, key=lambda node: len(reachable[node]))
    return ExactInstance(
        network,
        _hop_path(network, reachable[farthest]),
        _x7_background(network, graph, n_nodes),
    )


def _long_paths(network, graph, rng, count: int, hops: Tuple[int, int]) -> List[Path]:
    """``count`` hop-count shortest paths with ``hops[0]..hops[1]`` hops."""
    nodes = [node.node_id for node in network.nodes]
    paths: List[Path] = []
    for _ in range(50 * count):
        source = nodes[int(rng.integers(len(nodes)))]
        reachable = nx.single_source_shortest_path(graph, source)
        far = sorted(
            node
            for node, route in reachable.items()
            if hops[0] <= len(route) - 1 <= hops[1]
        )
        if not far:
            continue
        for target in rng.choice(far, size=min(len(far), 4), replace=False):
            paths.append(_hop_path(network, reachable[str(target)]))
            if len(paths) == count:
                return paths
    raise RuntimeError(
        f"found only {len(paths)} of {count} paths of {hops[0]}..{hops[1]} hops"
    )


class ScaleField(Workload):
    """Tiled estimates on constant-density fields, plus the exact X7 solve."""

    name = "scale-field"

    def __init__(
        self,
        sizes: Tuple[int, ...] = (192, 480),
        paths: int = 1000,
        hops: Tuple[int, int] = (8, 12),
        exact_nodes: int = 192,
        exact_repeats: int = 3,
    ):
        self.sizes = sizes
        self.paths = paths
        self.hops = hops
        self.exact_nodes = exact_nodes
        self.exact_repeats = exact_repeats

    def setup(self, seed: int) -> ScaleInputs:
        rng = np.random.default_rng(seed)
        fields = []
        for n_nodes in self.sizes:
            network = _x7_field(n_nodes)
            graph = network.to_digraph()
            fields.append(
                Field(
                    ProtocolInterferenceModel(network),
                    _x7_background(network, graph, n_nodes),
                    _long_paths(network, graph, rng, self.paths, self.hops),
                )
            )
        return ScaleInputs(fields, _x7_instance(self.exact_nodes))

    def epoch(self, inputs: ScaleInputs, first: bool, frontends: list) -> Iterator[Operation]:
        estimate = tiles.tiled_path_bandwidth
        for position in range(self.paths):
            for index, field in enumerate(inputs.fields):
                yield (
                    estimate,
                    (field.model, field.paths[position], field.background, TILE_CONFIG),
                    (index, position),
                )

    def answer(self, key, estimate) -> tuple:
        return key + (estimate.lower_bound, estimate.upper_bound)

    def exact(self, inputs: ScaleInputs) -> ExactRun:
        """Time the exact Eq. 6 solve of the X7 path, a fresh model each time."""
        instance = inputs.exact
        seconds = []
        value = math.nan
        for _ in range(self.exact_repeats):
            model = ProtocolInterferenceModel(instance.network)
            started = time.perf_counter()
            value = bandwidth.available_path_bandwidth(
                model, instance.path, instance.background
            ).available_bandwidth
            seconds.append(time.perf_counter() - started)
        return ExactRun(seconds, value)

    def details(self, log: LoopLog, exact: ExactRun) -> dict:
        ratios = [lower / upper for _, _, lower, upper in log.answers if upper > 0.0]
        return {
            "bracket_ratio": statistics.median(ratios) if ratios else 0.0,
            "exact_p50_s": statistics.median(exact.seconds),
            "exact_mbps": exact.value,
        }

    def check(self, inputs: ScaleInputs, log: LoopLog, seed: int, exact: ExactRun) -> CheckReport:
        """LB <= UB on every estimate; the exact X7 optimum inside its bracket."""
        report = CheckReport(
            len(log.answers) + 1,
            "estimates with LB <= UB, and the exact X7 optimum inside its bracket",
        )
        for index, position, lower, upper in log.answers:
            if lower > upper + 1e-6 * max(1.0, abs(upper)):
                report.failures.append(
                    f"field {index} path {position}: LB {lower!r} > UB {upper!r}"
                )
        instance = inputs.exact
        bracket = tiles.tiled_path_bandwidth(
            ProtocolInterferenceModel(instance.network),
            instance.path,
            instance.background,
            TILE_CONFIG,
        )
        tolerance = 1e-6 * max(1.0, abs(exact.value))
        if not (
            bracket.lower_bound <= exact.value + tolerance
            and exact.value <= bracket.upper_bound + tolerance
        ):
            report.failures.append(
                f"exact X7 optimum {exact.value!r} outside its bracket "
                f"[{bracket.lower_bound!r}, {bracket.upper_bound!r}]"
            )
        return report


WORKLOADS = {
    workload.name: workload for workload in (ServeHot, ServeFresh, OnlineChurn, ScaleField)
}
