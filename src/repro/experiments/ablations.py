"""Ablation experiments (A1–A3) for the design choices DESIGN.md calls out.

* **A1 — rate coupling**: how much throughput does time-varying link
  adaptation buy over the best *fixed* rate assignment?  (Scenario II:
  16.2 vs 15.43 Mbps; the gap is the paper's headline observation.)
* **A2 — column generation vs full enumeration**: same optimum, different
  cost profile.
* **A3 — analytic vs measured idleness**: feed the Section 4 estimators
  idleness from the optimal schedule vs from the CSMA/CA simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.bandwidth import available_path_bandwidth
from repro.core.column_generation import (
    min_airtime_column_generation,
    solve_with_column_generation,
)
from repro.core.independent_sets import ColumnFamily, CoupleSpace
from repro.errors import InterferenceError
from repro.estimation.estimators import ESTIMATORS
from repro.estimation.idle_time import node_idleness_from_schedule, path_state_for
from repro.experiments.fig3_routing import Fig3Config, run_fig3
from repro.experiments.report import format_table
from repro.interference.base import InterferenceModel, LinkRate
from repro.interference.protocol import ProtocolInterferenceModel
from repro.mac.config import CsmaConfig
from repro.mac.simulator import simulate_background
from repro.net.link import Link
from repro.obs import Recorder, get_recorder
from repro.net.path import Path
from repro.phy.rates import Rate
from repro.workloads.scenarios import scenario_two

__all__ = [
    "fixed_rate_available_bandwidth",
    "AblationA1Result",
    "run_ablation_a1",
    "AblationA2Result",
    "run_ablation_a2",
    "AblationA3Result",
    "run_ablation_a3",
    "AblationA4Result",
    "run_ablation_a4",
    "AblationA5Result",
    "run_ablation_a5",
]


def fixed_rate_available_bandwidth(
    model: InterferenceModel,
    path: Path,
    rate_vector: Dict[Link, Rate],
    background: Sequence[Tuple[Path, float]] = (),
) -> float:
    """Eq. 6 restricted to one fixed rate assignment.

    Columns are the maximal independent sets of the conflict graph induced
    on exactly the couples of ``rate_vector`` — the network each link pins
    to one rate forever — found by the same bitmask search as Eq. 6's
    enumeration, on the sub-mask of those couples in the couple space of
    ``rate_vector``'s links, and ordered as
    :func:`~repro.core.independent_sets.enumerate_maximal_independent_sets`
    orders its columns.

    Raises:
        InterferenceError: when a link does not support its pinned rate
            standalone (the couple is not in the space).
    """
    space = CoupleSpace(model, rate_vector)
    pinned = space.couple_mask(
        LinkRate(link, rate) for link, rate in rate_vector.items()
    )
    columns = ColumnFamily(
        space.couples, space.ordered_cliques(space.compatible, pinned)
    )
    result = available_path_bandwidth(
        model, path, background, independent_sets=columns
    )
    return result.available_bandwidth


@dataclass
class AblationA1Result:
    multirate: float
    #: (rate vector description, fixed-rate optimum).
    fixed: List[Tuple[str, float]]

    @property
    def best_fixed(self) -> float:
        return max(value for _name, value in self.fixed)

    @property
    def adaptation_gain(self) -> float:
        """Multirate optimum over the best fixed assignment (≥ 1)."""
        return self.multirate / self.best_fixed

    def table(self) -> str:
        rows: List[List[object]] = [["multirate (Eq. 6)", self.multirate]]
        rows.extend([name, value] for name, value in self.fixed)
        rows.append(["link adaptation gain", self.adaptation_gain])
        return format_table(
            headers=["configuration", "end-to-end throughput (Mbps)"],
            rows=rows,
            title="A1: link adaptation vs fixed rate assignments (Scenario II)",
        )


def run_ablation_a1() -> AblationA1Result:
    """A1: multirate optimum vs all fixed rate assignments (Scenario II)."""
    bundle = scenario_two()
    model, path = bundle.model, bundle.path
    table = bundle.network.radio.rate_table
    multirate = available_path_bandwidth(model, path).available_bandwidth
    fixed: List[Tuple[str, float]] = []
    import itertools

    for combo in itertools.product(table.rates, repeat=len(path)):
        vector = dict(zip(path.links, combo))
        name = "R = (" + ",".join(f"{r.mbps:g}" for r in combo) + ")"
        fixed.append(
            (name, fixed_rate_available_bandwidth(model, path, vector))
        )
    fixed.sort(key=lambda item: -item[1])
    return AblationA1Result(multirate=multirate, fixed=fixed)


@dataclass
class AblationA2Result:
    #: (instance label, enumerated value, cg value, enum seconds, cg
    #: seconds, cg iterations).
    rows: List[Tuple[str, float, float, float, float, int]]

    def table(self) -> str:
        return format_table(
            headers=[
                "instance",
                "enumerated",
                "column generation",
                "enum (s)",
                "cg (s)",
                "cg iterations",
            ],
            rows=self.rows,
            title="A2: full enumeration vs column generation (same optimum)",
        )


def run_ablation_a2(config: Fig3Config = Fig3Config()) -> AblationA2Result:
    """A2: full enumeration vs column generation on the Fig. 3 instances.

    The enum/CG split is timed with ``repro.obs`` spans — the same clock
    the bench harness records — so the ablation report and
    ``BENCH_*.json`` share one timing source.  When tracing is active the
    spans join the run's global trace; otherwise a private recorder serves
    purely as the timer.
    """
    fig3 = run_fig3(config)
    model = ProtocolInterferenceModel(fig3.network)
    report = fig3.reports["average-e2eD"]
    recorder = get_recorder()
    if not recorder.enabled:
        recorder = Recorder()
    rows: List[Tuple[str, float, float, float, float, int]] = []
    background: List[Tuple[Path, float]] = []
    for outcome in report.outcomes[:4]:
        if outcome.path is None:
            continue
        with recorder.span("ablation.a2.enumeration") as enum_span:
            enumerated = available_path_bandwidth(
                model, outcome.path, background
            ).available_bandwidth
        with recorder.span("ablation.a2.column_generation") as cg_span:
            cg = solve_with_column_generation(model, outcome.path, background)
        rows.append(
            (
                f"{outcome.flow.flow_id} (+{len(background)} background)",
                enumerated,
                cg.result.available_bandwidth,
                enum_span.seconds,
                cg_span.seconds,
                cg.iterations,
            )
        )
        if outcome.admitted:
            background.append(
                (outcome.path, outcome.flow.demand_mbps)
            )
    return AblationA2Result(rows=rows)


@dataclass
class AblationA3Result:
    #: (estimator, estimate w/ analytic idleness, estimate w/ CSMA
    #: idleness, Eq. 6 truth).
    rows: List[Tuple[str, float, float]]
    truth: float

    def table(self) -> str:
        rendered: List[List[object]] = [
            [name, analytic, measured] for name, analytic, measured in self.rows
        ]
        rendered.append(["Eq. 6 truth", self.truth, self.truth])
        return format_table(
            headers=["estimator", "analytic idleness", "CSMA idleness"],
            rows=rendered,
            title="A3: estimator inputs — optimal schedule vs measured MAC",
        )


@dataclass
class AblationA4Result:
    """Propagation-exponent sensitivity of the routing comparison."""

    #: (exponent, admitted count per metric, max range of the slowest rate).
    rows: List[Tuple[float, Dict[str, int], float]]

    def table(self) -> str:
        metric_names = ["hop-count", "e2eTD", "average-e2eD"]
        rendered: List[List[object]] = []
        for exponent, counts, max_range in self.rows:
            rendered.append(
                [exponent, max_range]
                + [counts.get(name, 0) for name in metric_names]
            )
        return format_table(
            headers=["exponent", "max range (m)"] + metric_names,
            rows=rendered,
            title=(
                "A4: admitted flows per routing metric vs propagation "
                "exponent (ranges re-derived per exponent)"
            ),
        )

    def ordering_holds_everywhere(self) -> bool:
        for _exp, counts, _range in self.rows:
            if not (
                counts["hop-count"]
                <= counts["e2eTD"]
                <= counts["average-e2eD"]
            ):
                return False
        return True


def run_ablation_a4(
    exponents: Sequence[float] = (3.2, 3.6, 4.0),
    n_flows: int = 8,
    topology_seed: int = 8,
    flow_seed: int = 801,
) -> AblationA4Result:
    """Re-run the Fig. 3 comparison under different path-loss exponents.

    Ranges are re-derived per exponent (sensitivities fixed, see
    :func:`repro.phy.rates.paper_rate_table_for_exponent`); lower
    exponents stretch every range, densifying both connectivity and
    interference.  The claim under test: the routing-metric ordering
    (hop count ≤ e2eTD ≤ average-e2eD) is not an artifact of γ = 4.
    """
    from repro.net.random_topology import RandomTopologyConfig, random_topology
    from repro.phy.propagation import LogDistancePathLoss
    from repro.phy.radio import RadioConfig
    from repro.phy.rates import paper_rate_table_for_exponent
    from repro.routing.admission import run_sequential_admission
    from repro.routing.metrics import METRICS
    from repro.workloads.flows import random_flow_endpoints

    rows: List[Tuple[float, Dict[str, int], float]] = []
    for exponent in exponents:
        table = paper_rate_table_for_exponent(exponent)
        radio = RadioConfig(
            rate_table=table,
            path_loss=LogDistancePathLoss(exponent=exponent),
        )
        network = random_topology(
            radio, RandomTopologyConfig(), seed=topology_seed
        )
        model = ProtocolInterferenceModel(network)
        flows = random_flow_endpoints(
            network, n_flows, demand_mbps=2.0, seed=flow_seed,
            min_distance_m=100.0,
        )
        counts: Dict[str, int] = {}
        for name in ("hop-count", "e2eTD", "average-e2eD"):
            report = run_sequential_admission(
                network, model, flows, METRICS[name],
                use_column_generation=True,
            )
            counts[name] = report.admitted_count
        rows.append((exponent, counts, table.max_range_m))
    return AblationA4Result(rows=rows)


@dataclass
class AblationA5Result:
    """Protocol (pairwise) vs physical (cumulative) interference model."""

    #: (instance, protocol bandwidth, physical bandwidth).
    rows: List[Tuple[str, float, float]]

    def table(self) -> str:
        rendered = [
            [name, protocol, physical, protocol - physical]
            for name, protocol, physical in self.rows
        ]
        return format_table(
            headers=[
                "instance",
                "protocol (pairwise)",
                "physical (cumulative)",
                "optimism gap",
            ],
            rows=rendered,
            title=(
                "A5: available bandwidth under pairwise vs cumulative "
                "interference (pairwise can only be more permissive)"
            ),
        )

    def pairwise_never_below_cumulative(self) -> bool:
        return all(
            protocol + 1e-6 >= physical
            for _name, protocol, physical in self.rows
        )


def run_ablation_a5(
    spacings: Sequence[float] = (110.0, 160.0, 250.0),
    background_mbps: float = 5.0,
) -> AblationA5Result:
    """Compare the two geometric models where cumulative interference bites.

    Three parallel 50 m links ``spacing`` metres apart; the outer two
    carry background traffic, the middle link is the new path.  Under the
    single-interferer (protocol) test each outer link alone may be
    tolerable at some rate, while the *sum* of both (physical, Eq. 3)
    pushes the middle receiver below that rate's threshold — the classic
    regime where pairwise models overestimate.  Cumulative interference
    only removes concurrent sets or lowers rate vectors, so the physical
    value can never exceed the protocol one; the gap measures the
    pairwise model's optimism per spacing.
    """
    from repro.interference.physical import PhysicalInterferenceModel
    from repro.net.topology import Network
    from repro.phy.radio import RadioConfig

    rows: List[Tuple[str, float, float]] = []
    for spacing in spacings:
        network = Network(RadioConfig(), name=f"parallel-{spacing:g}")
        for index in range(3):
            network.add_node(f"t{index}", x=0.0, y=index * spacing)
            network.add_node(f"r{index}", x=50.0, y=index * spacing)
            network.add_link(f"t{index}", f"r{index}", link_id=f"L{index}")
        path = Path([network.link("L1")])
        background = [
            (Path([network.link("L0")]), background_mbps),
            (Path([network.link("L2")]), background_mbps),
        ]
        protocol_value = available_path_bandwidth(
            ProtocolInterferenceModel(network), path, background
        ).available_bandwidth
        physical_value = available_path_bandwidth(
            PhysicalInterferenceModel(network), path, background
        ).available_bandwidth
        rows.append(
            (
                f"3 parallel links, {spacing:g} m apart",
                protocol_value,
                physical_value,
            )
        )
    return AblationA5Result(rows=rows)


def run_ablation_a3(
    config: Fig3Config = Fig3Config(),
    csma_config: Optional[CsmaConfig] = None,
    seed: int = 5,
) -> AblationA3Result:
    """A3: estimators fed optimal-schedule vs CSMA-measured idleness."""
    if csma_config is None:
        csma_config = CsmaConfig(sim_slots=60_000, warmup_slots=5_000)
    fig3 = run_fig3(config)
    model = ProtocolInterferenceModel(fig3.network)
    report = fig3.reports["average-e2eD"]
    outcomes = [o for o in report.outcomes if o.path is not None]
    if len(outcomes) < 2:
        raise InterferenceError("need at least two routed flows for A3")
    target = outcomes[-1]
    background = [
        (o.path, o.flow.demand_mbps)
        for o in outcomes[:-1]
        if o.admitted
    ]
    schedule = min_airtime_column_generation(model, background)
    analytic_idle = node_idleness_from_schedule(fig3.network, schedule, model)
    mac_report = simulate_background(
        fig3.network, model, background, config=csma_config, seed=seed
    )
    rows: List[Tuple[str, float, float]] = []
    state_analytic = path_state_for(model, target.path, analytic_idle)
    state_measured = path_state_for(
        model, target.path, mac_report.node_idleness
    )
    for name, estimator in ESTIMATORS.items():
        rows.append(
            (
                name,
                estimator.estimate(state_analytic),
                estimator.estimate(state_measured),
            )
        )
    return AblationA3Result(rows=rows, truth=target.available_bandwidth)
