"""The differential oracle's invariants.

Each :class:`Invariant` states one relation the paper (or plain LP
algebra) guarantees, names the equation it comes from, and checks it on
one instance by comparing the optimized ``repro.core`` /
``repro.estimation`` stack against the brute-force references of
:mod:`repro.verify.reference`.  Violations are *data* — a check returns
``(passed, detail)`` and never raises for a broken relation; only a
crash inside the optimized code surfaces as an exception (the engine
converts those into violations too).

Scoping matters and is encoded in each invariant's predicate:

* the conservativeness of Eq. 13/15 against the true optimum is a
  theorem only in the **single-clique regime** (all links mutually
  conflicting, disjoint one-hop backgrounds) — on general instances the
  local estimators legitimately overestimate, which is the paper's
  Fig. 4 story, not a bug;
* the classical chain ``Eq. 9 ≤ min Eq. 7`` holds only for
  **single-rate** instances — Scenario II (16.2 > 13.5) is the paper's
  whole point;
* column generation prices on the link–rate conflict graph, so its
  equality with full enumeration applies to **pairwise** models only.

Expensive artifacts (enumerations, LP solutions, replays) are computed
once per instance through :class:`InstanceArtifacts` and shared by all
invariants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, FrozenSet, List, Tuple

from repro.core.bandwidth import available_path_bandwidth
from repro.core.bounds import clique_upper_bound, lower_bound_from_subset
from repro.core.column_generation import solve_with_column_generation
from repro.core.independent_sets import (
    RateIndependentSet,
    enumerate_maximal_independent_sets,
    prune_dominated,
)
from repro.errors import VerificationError
from repro.estimation.estimators import ESTIMATORS
from repro.estimation.idle_time import (
    node_idleness_from_schedule,
    path_state_for,
)
from repro.interference.base import LinkRate
from repro.interference.physical import PhysicalInterferenceModel
from repro.scale.tiles import TileConfig, TiledPathEstimate, tiled_path_bandwidth
from repro.verify.instances import VerifyInstance
from repro.verify.reference import (
    ReplayReport,
    reference_available_bandwidth,
    reference_best_pure_vector,
    reference_clique_upper_bound,
    reference_clique_value,
    reference_fixed_rate_cliques,
    reference_independent_sets,
    reference_maximal_sets,
    reference_prune,
    replay_schedule,
)

__all__ = [
    "InvariantOutcome",
    "Invariant",
    "InstanceArtifacts",
    "INVARIANTS",
]


def _tolerance(reference: float) -> float:
    """Comparison slack scaled to the magnitude under test."""
    return 1e-6 * max(1.0, abs(reference))


@dataclass(frozen=True)
class InvariantOutcome:
    """One invariant checked on one instance."""

    invariant: str
    instance: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class Invariant:
    """One verifiable relation between optimized code and its reference."""

    #: Stable kebab-case key, shown in tables and JSON.
    name: str
    #: The paper equation or section the relation comes from.
    equation: str
    #: One-line statement of what a violation would mean.
    description: str
    #: Check callback; returns (passed, human detail).
    check: Callable[["InstanceArtifacts"], Tuple[bool, str]]
    #: Instance filter — the regime where the relation is a theorem.
    predicate: Callable[[VerifyInstance], bool] = lambda _instance: True
    #: Profiles the invariant runs under.
    profiles: Tuple[str, ...] = ("quick", "deep")


class InstanceArtifacts:
    """Lazily computed, shared per-instance artifacts.

    Every property is cached: the first invariant that needs the Eq. 6
    optimum pays for it, later ones reuse it.  Nothing is computed for
    invariants that never run on the instance.
    """

    def __init__(self, instance: VerifyInstance, replay_slots: int = 100_000):
        self.instance = instance
        self.replay_slots = replay_slots

    @cached_property
    def optimized_sets(self) -> List[RateIndependentSet]:
        """The optimized enumeration's maximal independent sets."""
        return enumerate_maximal_independent_sets(
            self.instance.model, self.instance.links
        )

    @cached_property
    def reference_sets(self) -> List[FrozenSet[LinkRate]]:
        """The exhaustive reference's pruned maximal family."""
        return reference_independent_sets(
            self.instance.model, self.instance.links
        )

    @cached_property
    def reference_unpruned(self) -> List[FrozenSet[LinkRate]]:
        """The reference maximal family before dominance pruning."""
        return reference_maximal_sets(self.instance.model, self.instance.links)

    @cached_property
    def result(self):
        """The optimized Eq. 6 solution (value + schedule)."""
        return available_path_bandwidth(
            self.instance.model,
            self.instance.new_path,
            self.instance.background,
        )

    @property
    def optimum(self) -> float:
        """The optimized Eq. 6 optimum in Mbps."""
        return self.result.available_bandwidth

    @cached_property
    def explanation(self):
        """The instance's Eq. 6 solve explained (with dual certificate)."""
        from repro.obs.explain import explain_path_bandwidth

        return explain_path_bandwidth(
            self.instance.model,
            self.instance.new_path,
            self.instance.background,
        )[1]

    @cached_property
    def reference_optimum(self) -> float:
        """The dense-scipy reference Eq. 6 optimum."""
        return reference_available_bandwidth(
            self.instance.model,
            self.instance.new_path,
            self.instance.background,
        )

    @cached_property
    def column_generation(self):
        """The column-generation solution of the same instance."""
        return solve_with_column_generation(
            self.instance.model,
            self.instance.new_path,
            self.instance.background,
        )

    @cached_property
    def lower_bound(self) -> float:
        """A Section 3.3 restricted-family lower bound."""
        return lower_bound_from_subset(
            self.instance.model,
            self.instance.new_path,
            self.instance.background,
            subset_size=2,
        ).available_bandwidth

    @cached_property
    def tiled(self) -> TiledPathEstimate:
        """The scale layer's tile-decomposed two-sided estimate.

        Two-link tiles on purpose: the bracket must be exercised with a
        real multi-tile decomposition, not the degenerate single tile
        (which collapses bit-for-bit onto the exact solve).
        """
        return tiled_path_bandwidth(
            self.instance.model,
            self.instance.new_path,
            self.instance.background,
            TileConfig(tile_size=2),
        )

    @cached_property
    def upper_bound(self) -> float:
        """The optimized Eq. 9 upper bound."""
        return clique_upper_bound(
            self.instance.model,
            self.instance.new_path,
            self.instance.background,
        ).upper_bound

    @cached_property
    def reference_upper_bound(self) -> float:
        """The dense-scipy reference Eq. 9 bound."""
        return reference_clique_upper_bound(
            self.instance.model,
            self.instance.new_path,
            self.instance.background,
        )

    @cached_property
    def replay(self) -> ReplayReport:
        """Slot-quantized replay of the optimized schedule."""
        return replay_schedule(
            self.instance.model,
            self.result.schedule,
            self.instance.new_path,
            self.instance.background,
            slots=self.replay_slots,
        )

    @cached_property
    def estimates(self) -> Dict[str, float]:
        """All Section 4 estimates from optimally scheduled idleness."""
        return self._estimates_from_idleness(self._schedule_idleness)

    @cached_property
    def mac_report(self):
        """A CSMA simulation of the background traffic."""
        from repro.mac.simulator import CsmaConfig, simulate_background

        return simulate_background(
            self.instance.network,
            self.instance.model,
            list(self.instance.background),
            config=CsmaConfig(sim_slots=20_000, warmup_slots=2_000),
            seed=self.instance.seed,
        )

    @cached_property
    def mac_estimates(self) -> Dict[str, float]:
        """All Section 4 estimates from CSMA-simulated idleness."""
        return self._estimates_from_idleness(self.mac_report.node_idleness)

    @cached_property
    def mac_truth(self) -> float:
        """Eq. 6 optimum against the background the MAC *delivered*.

        CSMA drops and collisions can leave part of the nominal demand
        undelivered; the channel then really is more idle than the
        optimal schedule assumes, and idleness-based estimates must be
        judged against the optimum under the delivered load, not the
        nominal one.
        """
        delivered = []
        for path, demand in self.instance.background:
            measured = min(
                self.mac_report.delivered_mbps(link.link_id) for link in path
            )
            delivered.append((path, min(demand, measured)))
        return available_path_bandwidth(
            self.instance.model, self.instance.new_path, delivered
        ).available_bandwidth

    @cached_property
    def _schedule_idleness(self) -> Dict[str, float]:
        from repro.core.bandwidth import min_airtime_schedule

        schedule = min_airtime_schedule(
            self.instance.model, self.instance.background
        )
        return node_idleness_from_schedule(
            self.instance.network, schedule, self.instance.model
        )

    def _estimates_from_idleness(
        self, idleness: Dict[str, float]
    ) -> Dict[str, float]:
        state = path_state_for(
            self.instance.model, self.instance.new_path, idleness
        )
        return {name: est(state) for name, est in ESTIMATORS.items()}


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------


def _couple_sets(sets) -> set:
    return {
        frozenset(s.couples) if hasattr(s, "couples") else frozenset(s)
        for s in sets
    }


def _format_couples(couples: FrozenSet[LinkRate]) -> str:
    return "{" + ", ".join(sorted(str(c) for c in couples)) + "}"


def _check_enumeration(ctx: InstanceArtifacts) -> Tuple[bool, str]:
    optimized = _couple_sets(ctx.optimized_sets)
    reference = _couple_sets(ctx.reference_sets)
    if optimized == reference:
        return True, f"{len(optimized)} maximal sets"
    extra = [_format_couples(c) for c in sorted(
        optimized - reference, key=str)][:3]
    missing = [_format_couples(c) for c in sorted(
        reference - optimized, key=str)][:3]
    return False, (
        f"optimized family has {len(optimized)} sets, reference "
        f"{len(reference)}; spurious: {extra or 'none'}, "
        f"missing: {missing or 'none'}"
    )


def _check_pruning(ctx: InstanceArtifacts) -> Tuple[bool, str]:
    raw = [RateIndependentSet(c) for c in ctx.reference_unpruned]
    optimized = _couple_sets(prune_dominated(raw))
    reference = _couple_sets(reference_prune(ctx.reference_unpruned))
    if optimized == reference:
        return True, (
            f"{len(ctx.reference_unpruned)} -> {len(reference)} sets"
        )
    return False, (
        f"bitset prune kept {len(optimized)} sets, reference "
        f"kept {len(reference)} ({len(optimized ^ reference)} differ)"
    )


def _check_lp(ctx: InstanceArtifacts) -> Tuple[bool, str]:
    gap = abs(ctx.optimum - ctx.reference_optimum)
    detail = (
        f"optimized {ctx.optimum:.6f} vs reference "
        f"{ctx.reference_optimum:.6f} Mbps"
    )
    return gap <= _tolerance(ctx.reference_optimum), detail


def _check_column_generation(ctx: InstanceArtifacts) -> Tuple[bool, str]:
    cg = ctx.column_generation
    value = cg.result.available_bandwidth
    gap = abs(value - ctx.optimum)
    detail = (
        f"cg {value:.6f} vs full {ctx.optimum:.6f} Mbps in "
        f"{cg.iterations} iterations"
    )
    if not cg.proved_optimal:
        return False, detail + " (optimality not proved)"
    return gap <= _tolerance(ctx.optimum), detail


def _check_lower_bound(ctx: InstanceArtifacts) -> Tuple[bool, str]:
    detail = (
        f"subset LB {ctx.lower_bound:.6f} vs optimum {ctx.optimum:.6f} Mbps"
    )
    return ctx.lower_bound <= ctx.optimum + _tolerance(ctx.optimum), detail


def _check_upper_bound_order(ctx: InstanceArtifacts) -> Tuple[bool, str]:
    detail = (
        f"optimum {ctx.optimum:.6f} vs Eq. 9 bound "
        f"{ctx.upper_bound:.6f} Mbps"
    )
    return ctx.optimum <= ctx.upper_bound + _tolerance(ctx.upper_bound), detail


def _check_upper_bound_reference(ctx: InstanceArtifacts) -> Tuple[bool, str]:
    gap = abs(ctx.upper_bound - ctx.reference_upper_bound)
    detail = (
        f"optimized {ctx.upper_bound:.6f} vs reference "
        f"{ctx.reference_upper_bound:.6f} Mbps"
    )
    return gap <= _tolerance(ctx.reference_upper_bound), detail


def _check_pure_vectors(ctx: InstanceArtifacts) -> Tuple[bool, str]:
    best = reference_best_pure_vector(
        ctx.instance.model, ctx.instance.new_path
    )
    detail = (
        f"best pure-vector throughput {best:.6f} vs Eq. 9 bound "
        f"{ctx.upper_bound:.6f} Mbps"
    )
    return best <= ctx.upper_bound + _tolerance(ctx.upper_bound), detail


def _check_single_rate_chain(ctx: InstanceArtifacts) -> Tuple[bool, str]:
    model = ctx.instance.model
    links = list(ctx.instance.new_path.links)
    vector = {
        link: model.standalone_rates(link)[0] for link in links
    }
    classical = min(
        (
            reference_clique_value(clique)
            for clique in reference_fixed_rate_cliques(model, vector)
        ),
        default=float("inf"),
    )
    detail = (
        f"Eq. 9 bound {ctx.upper_bound:.6f} vs classical min Eq. 7 "
        f"{classical:.6f} Mbps"
    )
    return ctx.upper_bound <= classical + _tolerance(classical), detail


def _check_replay(ctx: InstanceArtifacts) -> Tuple[bool, str]:
    replay = ctx.replay
    slack = replay.quantization_tolerance + _tolerance(ctx.optimum)
    detail = (
        f"replayed {replay.achieved:.6f} vs claimed {ctx.optimum:.6f} Mbps "
        f"over {replay.slots} slots"
    )
    if not replay.entries_independent:
        return False, "a schedule entry failed the independence test"
    if not replay.airtime_ok:
        return False, "quantized schedule overflows the period"
    if not replay.delivers_background:
        return False, detail + " (background demand not delivered)"
    return replay.achieved + slack >= ctx.optimum, detail


def _check_estimator_ordering(ctx: InstanceArtifacts) -> Tuple[bool, str]:
    est = ctx.estimates
    conservative = est["conservative"]
    combined = est["min-clique-bottleneck"]
    clique = est["clique"]
    bottleneck = est["bottleneck"]
    detail = (
        f"Eq. 13 {conservative:.4f} <= Eq. 12 {combined:.4f} <= "
        f"Eq. 11 {clique:.4f}; Eq. 12 <= Eq. 10 {bottleneck:.4f}"
    )
    ordered = (
        conservative <= combined + _tolerance(combined)
        and combined <= clique + _tolerance(clique)
        and combined <= bottleneck + _tolerance(bottleneck)
    )
    return ordered, detail


def _check_conservative(ctx: InstanceArtifacts) -> Tuple[bool, str]:
    est = ctx.estimates
    truth = ctx.optimum
    replayed = ctx.replay.achieved + ctx.replay.quantization_tolerance
    slack = _tolerance(truth)
    detail = (
        f"Eq. 13 {est['conservative']:.6f} / Eq. 15 "
        f"{est['expected-ctt']:.6f} vs optimum {truth:.6f} Mbps"
    )
    below_truth = (
        est["conservative"] <= truth + slack
        and est["expected-ctt"] <= truth + slack
    )
    below_replay = (
        est["conservative"] <= replayed + slack
        and est["expected-ctt"] <= replayed + slack
    )
    if not below_truth:
        return False, detail
    if not below_replay:
        return False, detail + " (exceeds replayed throughput)"
    return True, detail


def _check_mac_conservative(ctx: InstanceArtifacts) -> Tuple[bool, str]:
    est = ctx.mac_estimates
    # The yardstick is the optimum under the *delivered* background: a
    # lossy MAC leaves the channel genuinely more idle than the nominal
    # demand would.  5% slack covers finite-simulation noise.
    truth = ctx.mac_truth
    ceiling = truth * 1.05 + _tolerance(truth)
    detail = (
        f"Eq. 13 {est['conservative']:.6f} (CSMA idleness) vs optimum "
        f"{truth:.6f} Mbps under delivered load"
    )
    return est["conservative"] <= ceiling, detail


def _check_online_identity(ctx: InstanceArtifacts) -> Tuple[bool, str]:
    """A pin-mode online episode over the instance's flows.

    Background flows are admitted in declaration order through
    :meth:`~repro.serve.online.OnlineAdmissionController.admit_path`
    (the synthetic-arrival entry point — verify paths are arbitrary
    constructions, not hop-count routes), the new path is probed twice
    (the repeat must come from the result cache, bit-equal), then the
    first admitted background flow departs and is re-admitted with
    probes in between — the episode walks the result, warm and cold
    decision paths while ``pin=True`` cross-checks every decision
    against a cold Eq. 6 solve with exact ``==``.
    """
    from repro.serve.online import OnlineAdmissionController
    from repro.workloads.churn import FlowEvent

    instance = ctx.instance
    controller = OnlineAdmissionController(instance.model, pin=True)
    reject_all = float("inf")
    states: List[str] = []
    try:
        flows = {}
        background_decisions = []
        for index, (path, demand) in enumerate(instance.background):
            flow_id = f"bg{index:02d}"
            flows[flow_id] = (path, demand)
            background_decisions.append(
                controller.admit_path(flow_id, path, demand)
            )
        probe = controller.admit_path(
            "probe-a", instance.new_path, reject_all
        )
        repeat = controller.admit_path(
            "probe-b", instance.new_path, reject_all
        )
        states += [probe.cache_state, repeat.cache_state]
        admitted = [d for d in background_decisions if d.admitted]
        if admitted:
            departed = admitted[0].flow_id
            controller.handle(
                FlowEvent(
                    time=probe.time, kind="departure",
                    seq=10_000, flow_id=departed,
                )
            )
            after = controller.admit_path(
                "probe-c", instance.new_path, reject_all
            )
            path, demand = flows[departed]
            controller.admit_path(f"{departed}-back", path, demand)
            again = controller.admit_path(
                "probe-d", instance.new_path, reject_all
            )
            states += [after.cache_state, again.cache_state]
    except VerificationError as exc:
        return False, f"pin divergence: {exc}"
    detail = (
        f"{len(instance.background)} background flows "
        f"({len(admitted)} admitted), probe states {'/'.join(states)}, "
        f"online {probe.available_bandwidth_mbps:.6f} Mbps"
    )
    if repeat.available_bandwidth_mbps != probe.available_bandwidth_mbps:
        return False, detail + " (repeat probe not bit-equal)"
    if repeat.cache_state != "result":
        return False, detail + " (repeat probe missed the result cache)"
    if len(admitted) == len(instance.background):
        # The carried set equals the instance's background in the same
        # order, so the online answer must be *bit-equal* to the shared
        # cold Eq. 6 artifact — same call, same floats.
        if probe.available_bandwidth_mbps != ctx.optimum:
            return False, detail + (
                f" != cold optimum {ctx.optimum:.6f} Mbps"
            )
    return True, detail


def _check_served_identity(ctx: InstanceArtifacts) -> Tuple[bool, str]:
    """Batch-service decisions against cold Eq. 6 solves, bit for bit.

    A service over the instance's background answers the new path
    (whose union leaves the background when the path has a link outside
    it: enumerated on the background's couple space, extended), then a
    path inside the background (its first route, whose union is the
    background's own: enumerated on that space once it exists), and a
    repeat of each, which must come from the result cache.
    """
    from repro.serve import AdmissionQuery, AdmissionService

    instance = ctx.instance
    service = AdmissionService(instance.model, instance.background)
    background_ids = {
        link.link_id for path, _demand in instance.background for link in path
    }
    # (label, path, its cold Eq. 6 answer), each asked twice.
    asked = [("new", instance.new_path, ctx.optimum)]
    if instance.background:
        inside = instance.background[0][0]
        solved = available_path_bandwidth(
            instance.model, inside, instance.background
        )
        asked.append(("inside", inside, solved.available_bandwidth))
    leaves = any(link.link_id not in background_ids for link in instance.new_path)
    states: List[str] = []
    for label, path, cold in asked + asked:
        decision = service.submit(AdmissionQuery(label, path, float("inf")))
        states.append(f"{label}:{decision.cache_state}")
        if decision.available_bandwidth_mbps != cold:
            return False, (
                f"{label} path served {decision.available_bandwidth_mbps!r} "
                f"!= cold {cold!r} Mbps ({' '.join(states)})"
            )
    detail = (
        f"new path {'leaves' if leaves else 'stays inside'} the background; "
        + " ".join(states)
    )
    if states[len(asked):] != [f"{label}:result" for label, _, _ in asked]:
        return False, detail + " (a repeat missed the result cache)"
    return True, detail


def _twohop_estimate(ctx: InstanceArtifacts):
    from repro.routing.admission import TwoHopAdmission

    return TwoHopAdmission(ctx.instance.model).estimate(
        ctx.instance.new_path, ctx.instance.background
    )


def _check_twohop_single_clique(ctx: InstanceArtifacts) -> Tuple[bool, str]:
    value = _twohop_estimate(ctx).available_bandwidth
    gap = abs(value - ctx.optimum)
    detail = (
        f"2-hop {value:.6f} vs optimum {ctx.optimum:.6f} Mbps"
    )
    return gap <= _tolerance(ctx.optimum), detail


def _check_twohop_sane(ctx: InstanceArtifacts) -> Tuple[bool, str]:
    estimate = _twohop_estimate(ctx)
    value = estimate.available_bandwidth
    detail = (
        f"2-hop estimate {value:.6f} Mbps "
        f"(bottleneck {estimate.bottleneck or 'none'}, "
        f"optimum {ctx.optimum:.6f})"
    )
    return math.isfinite(value) and value >= 0.0, detail


def _check_tiled_bracket(ctx: InstanceArtifacts) -> Tuple[bool, str]:
    estimate = ctx.tiled
    slack = _tolerance(ctx.optimum)
    detail = (
        f"tiled [{estimate.lower_bound:.6f}, {estimate.upper_bound:.6f}] "
        f"vs optimum {ctx.optimum:.6f} Mbps over "
        f"{len(estimate.tiles)} tiles"
    )
    bracketed = (
        estimate.lower_bound <= ctx.optimum + slack
        and ctx.optimum <= estimate.upper_bound + slack
    )
    return bracketed, detail


def _check_dual_certificate(ctx: InstanceArtifacts) -> Tuple[bool, str]:
    explanation = ctx.explanation
    certificate = explanation.certificate
    detail = (
        f"gap {certificate.gap:.3e}, row residual "
        f"{certificate.max_row_residual:.3e}, column residual "
        f"{certificate.max_column_residual:.3e}, dual infeasibility "
        f"{certificate.dual_infeasibility:.3e}"
    )
    if not certificate.valid(tolerance=1e-6):
        return False, detail + " (certificate invalid)"
    value = explanation.available_bandwidth_mbps
    if abs(value - ctx.optimum) > _tolerance(ctx.optimum):
        return False, detail + (
            f" (explained {value:.6f} != optimum {ctx.optimum:.6f} Mbps)"
        )
    return True, detail


def _pairwise(instance: VerifyInstance) -> bool:
    return not isinstance(instance.model, PhysicalInterferenceModel)


def _no_background(instance: VerifyInstance) -> bool:
    return not instance.background


#: All invariants, in report order.
INVARIANTS: Tuple[Invariant, ...] = (
    Invariant(
        name="enumeration-matches-reference",
        equation="Sec. 2.4 / Prop. 3",
        description=(
            "The optimized maximal-independent-set enumeration equals "
            "exhaustive subset search"
        ),
        check=_check_enumeration,
    ),
    Invariant(
        name="pruning-matches-reference",
        equation="Prop. 3",
        description=(
            "Vectorized dominance pruning keeps exactly the sets the "
            "quadratic reference keeps"
        ),
        check=_check_pruning,
    ),
    Invariant(
        name="lp-matches-reference",
        equation="Eq. 6",
        description=(
            "The sparse incremental Eq. 6 LP agrees with a dense "
            "scipy assembly"
        ),
        check=_check_lp,
    ),
    Invariant(
        name="column-generation-matches-full",
        equation="Eq. 6 / Sec. 3.3",
        description=(
            "Column generation with exact pricing reaches the full "
            "enumeration's optimum"
        ),
        check=_check_column_generation,
        predicate=_pairwise,
    ),
    Invariant(
        name="lower-bound-below-optimum",
        equation="Sec. 3.3",
        description=(
            "A restricted-column lower bound never exceeds the Eq. 6 "
            "optimum"
        ),
        check=_check_lower_bound,
    ),
    Invariant(
        name="optimum-below-upper-bound",
        equation="Eq. 9",
        description=(
            "The Eq. 6 optimum never exceeds the Eq. 9 per-rate-vector "
            "clique bound"
        ),
        check=_check_upper_bound_order,
    ),
    Invariant(
        name="upper-bound-matches-reference",
        equation="Eq. 9",
        description=(
            "The linearised Eq. 9 LP agrees with a dense scipy assembly "
            "over exhaustively enumerated cliques"
        ),
        check=_check_upper_bound_reference,
    ),
    Invariant(
        name="upper-bound-dominates-pure-vectors",
        equation="Eq. 7 vs Eq. 9",
        description=(
            "Every single-rate-vector strategy (max over vectors of min "
            "Eq. 7) stays below the Eq. 9 bound"
        ),
        check=_check_pure_vectors,
        predicate=_no_background,
    ),
    Invariant(
        name="single-rate-classical-chain",
        equation="Eq. 7 / Eq. 9",
        description=(
            "With one rate per link the classical clique bound dominates "
            "Eq. 9 (multirate instances legitimately break this — "
            "Scenario II)"
        ),
        check=_check_single_rate_chain,
        predicate=lambda i: i.single_rate and not i.background,
    ),
    Invariant(
        name="schedule-replay-achieves-optimum",
        equation="Eq. 2 / Eq. 6",
        description=(
            "The returned schedule, replayed slot by slot, is executable "
            "and delivers the claimed optimum"
        ),
        check=_check_replay,
    ),
    Invariant(
        name="estimator-ordering",
        equation="Eq. 10-13",
        description=(
            "Eq. 13 <= Eq. 12 <= Eq. 11 and Eq. 12 <= Eq. 10 on every "
            "path state"
        ),
        check=_check_estimator_ordering,
    ),
    Invariant(
        name="conservative-estimators-below-truth",
        equation="Eq. 13 / Eq. 15",
        description=(
            "In the single-clique regime the conservative estimators "
            "never exceed the true optimum (or its replayed throughput)"
        ),
        check=_check_conservative,
        predicate=lambda i: i.single_clique,
    ),
    Invariant(
        name="estimator-vs-mac",
        equation="Eq. 13 / Sec. 5.3",
        description=(
            "Eq. 13 fed with CSMA-simulated idleness stays conservative "
            "(collisions only reduce idleness) up to simulation noise"
        ),
        check=_check_mac_conservative,
        predicate=lambda i: i.single_clique and bool(i.background),
        profiles=("deep",),
    ),
    Invariant(
        name="online-matches-cold-solve",
        equation="Eq. 6",
        description=(
            "The incremental online controller's decisions (result, warm "
            "and cold paths, across a departure/re-admission episode) are "
            "byte-identical to cold Eq. 6 solves over the same carried set"
        ),
        check=_check_online_identity,
    ),
    Invariant(
        name="served-matches-cold-solve",
        equation="Eq. 6",
        description=(
            "The batch admission service's decisions (a path inside the "
            "background, the new path, and a repeat of each) are "
            "byte-identical to cold Eq. 6 solves"
        ),
        check=_check_served_identity,
    ),
    Invariant(
        name="twohop-exact-on-single-clique",
        equation="Eq. 6 / Sec. 2.2",
        description=(
            "The distributed 2-hop admission estimate equals the Eq. 6 "
            "optimum when all links are mutually conflicting (on general "
            "instances it legitimately diverges — that is X6's story)"
        ),
        check=_check_twohop_single_clique,
        predicate=lambda i: i.single_clique,
    ),
    Invariant(
        name="tiled-bracket-holds",
        equation="Eq. 6 / Sec. 3.3",
        description=(
            "The interference-tile estimate brackets the exact optimum: "
            "restricted-column LB <= Eq. 6 <= bottleneck-tile UB"
        ),
        check=_check_tiled_bracket,
    ),
    Invariant(
        name="dual-certificate-valid",
        equation="Eq. 6 / LP duality",
        description=(
            "Every explained Eq. 6 solve carries a checkable optimality "
            "certificate: zero duality gap and complementary slackness "
            "within 1e-6 of the primal scale"
        ),
        check=_check_dual_certificate,
    ),
    Invariant(
        name="twohop-estimate-sane",
        equation="Sec. 2.2",
        description=(
            "The distributed 2-hop estimate is finite and nonnegative "
            "on every instance"
        ),
        check=_check_twohop_sane,
    ),
)
