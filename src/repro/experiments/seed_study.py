"""Seed-robustness study for the routing-metric comparison.

The paper evaluates on one unpublished random placement; any reproduction
must show its conclusions do not hinge on the placement.  This study
re-runs the Fig. 3 comparison across many (topology, flow) seeds and
aggregates:

* how often the admitted-flow ordering hop count ≤ e2eTD ≤ average-e2eD
  holds, and how often average-e2eD *strictly* beats e2eTD;
* the distribution of admitted counts per metric.

EXPERIMENTS.md quotes this study's outcome; the S1 benchmark runs a
reduced version and asserts the ordering never inverts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import TopologyError
from repro.experiments.report import format_table
from repro.experiments.parallel import fault_tolerant_map
from repro.interference.protocol import ProtocolInterferenceModel
from repro.routing.admission import run_sequential_admission
from repro.routing.metrics import METRICS
from repro.workloads.flows import random_flow_endpoints
from repro.workloads.scenarios import paper_random_topology

__all__ = ["SeedStudyResult", "run_seed_study"]

_METRIC_NAMES = ("hop-count", "e2eTD", "average-e2eD")


@dataclass
class SeedStudyResult:
    """Aggregated outcome over all evaluated seeds."""

    #: (seed, admitted count per metric).
    per_seed: List[Tuple[int, Dict[str, int]]]
    skipped_seeds: List[int]

    @property
    def seeds_evaluated(self) -> int:
        return len(self.per_seed)

    def ordering_violations(self) -> int:
        """Seeds where hop ≤ e2eTD ≤ average-e2eD fails."""
        violations = 0
        for _seed, counts in self.per_seed:
            if not (
                counts["hop-count"]
                <= counts["e2eTD"]
                <= counts["average-e2eD"]
            ):
                violations += 1
        return violations

    def strict_wins(self) -> int:
        """Seeds where average-e2eD strictly beats e2eTD."""
        return sum(
            1
            for _seed, counts in self.per_seed
            if counts["average-e2eD"] > counts["e2eTD"]
        )

    def mean_admitted(self) -> Dict[str, float]:
        means: Dict[str, float] = {}
        for name in _METRIC_NAMES:
            means[name] = sum(
                counts[name] for _s, counts in self.per_seed
            ) / max(1, self.seeds_evaluated)
        return means

    def table(self) -> str:
        rows: List[List[object]] = [
            [seed] + [counts[name] for name in _METRIC_NAMES]
            for seed, counts in self.per_seed
        ]
        means = self.mean_admitted()
        rows.append(["mean"] + [means[name] for name in _METRIC_NAMES])
        summary = format_table(
            headers=["seed"] + list(_METRIC_NAMES),
            rows=rows,
            title=(
                "S1: admitted flows per metric across seeds "
                f"({self.seeds_evaluated} placements, "
                f"{self.ordering_violations()} ordering violations, "
                f"{self.strict_wins()} strict average-e2eD wins)"
            ),
        )
        return summary


def _evaluate_seed(
    args: Tuple[int, int, float, float],
) -> Tuple[int, Optional[Dict[str, int]]]:
    """Admitted-count triple for one seed; ``None`` counts when skipped.

    Module-level (picklable) so
    :func:`~repro.experiments.parallel.fault_tolerant_map` can ship it to
    worker processes; everything is rebuilt from the seed, making
    parallel runs byte-identical to sequential ones.
    """
    seed, n_flows, demand_mbps, min_distance_m = args
    try:
        network = paper_random_topology(seed=seed)
    except TopologyError:
        return (seed, None)
    model = ProtocolInterferenceModel(network)
    flows = random_flow_endpoints(
        network,
        n_flows,
        demand_mbps=demand_mbps,
        seed=seed * 100 + 1,
        min_distance_m=min_distance_m,
    )
    counts: Dict[str, int] = {}
    for name in _METRIC_NAMES:
        report = run_sequential_admission(
            network, model, flows, METRICS[name],
            use_column_generation=True,
        )
        counts[name] = report.admitted_count
    return (seed, counts)


def run_seed_study(
    seeds: Sequence[int] = tuple(range(1, 13)),
    n_flows: int = 8,
    demand_mbps: float = 2.0,
    min_distance_m: float = 100.0,
    workers: Optional[int] = None,
) -> SeedStudyResult:
    """Run the Fig. 3 comparison for every seed; skip unconnectable ones.

    ``workers > 1`` evaluates seeds in parallel processes; results are
    identical to the sequential run (each seed is self-contained).

    The sweep is fault isolated per seed: with a failure collector active
    a crashing seed is recorded as an
    :class:`~repro.experiments.failures.ItemFailure` and omitted from the
    aggregate (like a skipped seed, but reported); with a checkpoint
    store active, evaluated seeds persist across interrupted runs.
    """
    seeds = list(seeds)
    outcomes = fault_tolerant_map(
        _evaluate_seed,
        [(seed, n_flows, demand_mbps, min_distance_m) for seed in seeds],
        workers=workers,
        item_keys=[f"seed-{seed}" for seed in seeds],
        item_seeds=seeds,
    )
    per_seed: List[Tuple[int, Dict[str, int]]] = []
    skipped: List[int] = []
    for outcome in outcomes:
        if outcome is None:
            continue
        seed, counts = outcome
        if counts is None:
            skipped.append(seed)
        else:
            per_seed.append((seed, counts))
    return SeedStudyResult(per_seed=per_seed, skipped_seeds=skipped)
