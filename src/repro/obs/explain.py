"""Decision provenance: dual-certificate explanations and attribution.

The Eq. 6 clique-constrained LP does more than produce a bandwidth
number — its dual solution *prices* every constraint.  The airtime row's
dual says how much bandwidth one extra unit of schedulable airtime would
buy; each ``demand[<link>]`` row's dual says how much available
bandwidth every additional Mbps of background demand on that link costs.
This module turns those prices into an :class:`Explanation` an operator
can act on:

* **binding cliques** — links whose demand rows are binding at the
  optimum, grouped into contention regions (two binding links share a
  region when no enumerated independent set can schedule them together,
  i.e. they mutually interfere) and ranked by total shadow price;
* **per-link marginal bandwidth** — the demand-row dual of every priced
  link, the first-order Mbps of answer lost per Mbps of background
  demand added there;
* **crowd-out attribution** — for each background flow, ``demand ×
  Σ link prices along its path``: the first-order bandwidth the flow
  costs the query path, attributed to the binding cliques it loads;
* a :class:`~repro.core.lp.DualCertificate` proving the underlying
  solve optimal (zero duality gap, complementary slackness), so the
  explanation inherits a checkable pedigree; and
* a **bottleneck fingerprint** — a short digest of the top clique's
  link set and shadow price, recorded in run history so
  ``repro obs diff`` can report that the bottleneck *migrated* between
  runs even when every counter held.

Everything here is pure post-processing of an :class:`LpSolution`: no
extra solves, deterministic output (ties broken on link ids), and
counters under the ``explain.*`` namespace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.fingerprint import fingerprint
from repro.obs.recorder import get_recorder

__all__ = [
    "BindingClique",
    "CrowdOut",
    "Explanation",
    "bottleneck_summary",
    "explain_path_bandwidth",
    "explain_solution",
    "explanation_from_dict",
    "explanation_to_dict",
    "format_explanation",
    "top_binding_link",
]

#: Slack below this (absolute, on unit-normalised airtime/demand rows)
#: marks a constraint as binding.
BINDING_SLACK_TOLERANCE = 1e-9

#: Shadow prices are quantised to this grid before fingerprinting, so the
#: bottleneck fingerprint is stable under last-bit float jitter.
_PRICE_QUANTUM = 1e-9

_DEMAND_PREFIX = "demand["


def _demand_link(row_name: str) -> Optional[str]:
    """The link id of a ``demand[<link>]`` row name, else ``None``."""
    if row_name.startswith(_DEMAND_PREFIX) and row_name.endswith("]"):
        return row_name[len(_DEMAND_PREFIX):-1]
    return None


@dataclass(frozen=True)
class BindingClique:
    """One contention region binding the Eq. 6 optimum.

    ``links`` are the region's binding link ids (sorted);
    ``shadow_price`` is the sum of the member demand-row duals — the
    first-order Mbps of available bandwidth lost per Mbps of background
    demand spread across the region; ``link_prices`` keeps the per-link
    breakdown.
    """

    links: Tuple[str, ...]
    shadow_price: float
    link_prices: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class CrowdOut:
    """A background flow's first-order cost to the query path.

    ``crowd_out_mbps = demand_mbps × Σ demand-row duals along the
    flow's links`` — by LP sensitivity, roughly the bandwidth the query
    path recovers per unit of this flow removed.  ``cliques`` indexes
    the :attr:`Explanation.binding_cliques` the flow loads.
    """

    flow: str
    demand_mbps: float
    crowd_out_mbps: float
    cliques: Tuple[int, ...] = ()


@dataclass(frozen=True)
class Explanation:
    """Why an admission decision came out the way it did."""

    #: The decision's available bandwidth (Eq. 6 optimum, clamped).
    available_bandwidth_mbps: float
    #: Dual of the global airtime row: Mbps gained per extra unit of
    #: schedulable airtime.
    airtime_price: float
    #: Contention regions binding the optimum, ranked by shadow price
    #: (descending; ties on the smallest member link id).
    binding_cliques: Tuple[BindingClique, ...]
    #: Demand-row dual of every priced or binding link.
    marginal_bandwidth: Mapping[str, float]
    #: Background flows ranked by what they cost the query path.
    crowd_out: Tuple[CrowdOut, ...]
    #: Optimality certificate of the solve being explained.
    certificate: Any
    #: Digest of the top clique's link set + quantised shadow price;
    #: equal fingerprints mean "same bottleneck".
    bottleneck_fingerprint: str

    @property
    def bottleneck(self) -> Optional[BindingClique]:
        """The top-ranked binding clique (``None`` when unconstrained)."""
        return self.binding_cliques[0] if self.binding_cliques else None


def top_binding_link(solution: Any) -> Optional[Tuple[str, float]]:
    """The highest-priced demand row's ``(link_id, shadow_price)``.

    A cheap always-on scan of the solution's duals — no columns, no
    grouping — used by the flight recorder so every slow-log row names
    where the query contended.  Returns ``None`` when no demand row
    carries a positive price (the path was not demand-constrained).
    Ties break on the smaller link id, keeping the pick deterministic.
    """
    best: Optional[Tuple[str, float]] = None
    for row_name, price in solution.duals.items():
        link_id = _demand_link(row_name)
        if link_id is None or price <= 0.0:
            continue
        if (
            best is None
            or price > best[1]
            or (price == best[1] and link_id < best[0])
        ):
            best = (link_id, price)
    return best


def _conflict_components(
    binding_ids: Sequence[str], columns: Sequence[Any]
) -> List[List[str]]:
    """Group binding links into mutually interfering regions.

    Two links can be scheduled together iff some enumerated maximal
    independent set carries positive throughput on both; binding links
    that can *never* be co-scheduled contend for the same airtime, and
    connected components of that conflict relation are the contention
    regions the explanation reports.  "Scheduled together" is read from
    one bitset of columns per binding link, filled from the masks of
    ``ColumnFamily.of(columns)``.
    """
    # Imported here: repro.core imports repro.obs for its recorder.
    from repro.core.independent_sets import ColumnFamily

    ids = sorted(binding_ids)
    position = {identifier: index for index, identifier in enumerate(ids)}
    family = ColumnFamily.of(columns)
    # owner[v]: the binding link couple v carries throughput on.
    owner: Dict[int, int] = {}
    relevant = 0
    for index, couple in enumerate(family.couples):
        at = position.get(couple.link.link_id)
        if at is not None and couple.rate.mbps > 0.0:
            owner[index] = at
            relevant |= 1 << index
    # held[p]: the columns scheduling binding link p.
    held = [0] * len(ids)
    column_bit = 1
    for mask in family.masks:
        mask &= relevant
        while mask:
            low_bit = mask & -mask
            mask ^= low_bit
            held[owner[low_bit.bit_length() - 1]] |= column_bit
        column_bit <<= 1
    components: List[List[str]] = []
    seen: set = set()
    for start in range(len(ids)):
        if start in seen:
            continue
        component = []
        frontier = [start]
        seen.add(start)
        while frontier:
            current = frontier.pop()
            component.append(ids[current])
            for neighbour in range(len(ids)):
                if (
                    neighbour not in seen
                    and not held[current] & held[neighbour]
                ):
                    seen.add(neighbour)
                    frontier.append(neighbour)
        components.append(sorted(component))
    return components


def explain_solution(
    solution: Any,
    certificate: Any,
    columns: Sequence[Any],
    links: Sequence[Any],
    background: Sequence[Tuple[Any, float]] = (),
    bandwidth: Optional[float] = None,
    tolerance: float = BINDING_SLACK_TOLERANCE,
) -> Explanation:
    """Build the :class:`Explanation` for a solved Eq. 6 program.

    ``solution`` is the master LP's :class:`~repro.core.lp.LpSolution`
    (duals + slacks populated), ``certificate`` its
    :class:`~repro.core.lp.DualCertificate`, ``columns`` the enumerated
    rate-coupled independent sets and ``links`` the LP's link universe
    in row order.  ``background`` (``(path, demand_mbps)`` pairs) feeds
    the crowd-out attribution; pass the decision's clamped bandwidth via
    ``bandwidth`` when it differs from the raw objective.
    """
    prices: Dict[str, float] = {}
    binding_ids: List[str] = []
    for link in links:
        row_name = f"demand[{link.link_id}]"
        price = float(solution.duals.get(row_name, 0.0))
        slack = float(solution.slacks.get(row_name, 0.0))
        binding = slack <= tolerance
        if binding:
            binding_ids.append(link.link_id)
        if binding or price > 0.0:
            prices[link.link_id] = price

    components = _conflict_components(binding_ids, columns)
    cliques = [
        BindingClique(
            links=tuple(component),
            shadow_price=sum(prices.get(member, 0.0) for member in component),
            link_prices={
                member: prices.get(member, 0.0) for member in component
            },
        )
        for component in components
    ]
    cliques.sort(key=lambda clique: (-clique.shadow_price, clique.links))

    clique_index = {
        member: position
        for position, clique in enumerate(cliques)
        for member in clique.links
    }
    crowd_out: List[CrowdOut] = []
    for position, (path, demand) in enumerate(background):
        path_link_ids = [link.link_id for link in path]
        cost = demand * sum(
            prices.get(link_id, 0.0) for link_id in path_link_ids
        )
        loaded = tuple(
            sorted(
                {
                    clique_index[link_id]
                    for link_id in path_link_ids
                    if link_id in clique_index
                }
            )
        )
        crowd_out.append(
            CrowdOut(
                flow=f"bg{position}",
                demand_mbps=float(demand),
                crowd_out_mbps=float(cost),
                cliques=loaded,
            )
        )
    crowd_out.sort(key=lambda item: (-item.crowd_out_mbps, item.flow))

    top = cliques[0] if cliques else None
    quantised = (
        round(top.shadow_price / _PRICE_QUANTUM) * _PRICE_QUANTUM
        if top
        else 0.0
    )
    bottleneck_fingerprint = fingerprint(
        {
            "links": list(top.links) if top else [],
            "shadow_price": quantised,
        }
    )
    get_recorder().count("explain.explanations")
    return Explanation(
        available_bandwidth_mbps=float(
            solution.objective if bandwidth is None else bandwidth
        ),
        airtime_price=float(solution.duals.get("airtime", 0.0)),
        binding_cliques=tuple(cliques),
        marginal_bandwidth=prices,
        crowd_out=tuple(crowd_out),
        certificate=certificate,
        bottleneck_fingerprint=bottleneck_fingerprint,
    )


def explain_path_bandwidth(
    model: Any,
    new_path: Any,
    background: Sequence[Tuple[Any, float]] = (),
    independent_sets: Optional[Sequence[Any]] = None,
    max_sets: Optional[int] = None,
) -> Tuple[Any, Explanation]:
    """Solve Eq. 6 for ``new_path`` and explain the optimum in one call.

    The standalone counterpart of the serving layer's per-decision
    explanations: builds the same master LP as
    :func:`~repro.core.bandwidth.available_path_bandwidth`, keeps it for
    certification, and returns ``(PathBandwidthResult, Explanation)``.
    Used by ``repro explain``, the ``dual-certificate-valid`` invariant
    and the property tests.
    """
    from repro.core.bandwidth import (
        _collect_links,
        _columns_for,
        build_path_bandwidth_lp,
        link_demands_from_paths,
        path_bandwidth_from_solution,
    )

    links = _collect_links(background, new_path)
    columns = _columns_for(model, links, independent_sets, max_sets)
    demands = link_demands_from_paths(background)
    lp, _f_var, lambda_vars = build_path_bandwidth_lp(
        columns, links, demands, set(new_path.links)
    )
    solution = lp.solve()
    result = path_bandwidth_from_solution(
        solution, lambda_vars, columns, demands
    )
    explanation = explain_solution(
        solution,
        lp.certificate(),
        columns,
        links,
        background=background,
        bandwidth=result.available_bandwidth,
    )
    return result, explanation


# -- serialization -------------------------------------------------------------


def explanation_to_dict(explanation: Explanation) -> Dict[str, Any]:
    """A JSON-ready rendering of ``explanation`` (lossless)."""
    return {
        "available_bandwidth_mbps": explanation.available_bandwidth_mbps,
        "airtime_price": explanation.airtime_price,
        "binding_cliques": [
            {
                "links": list(clique.links),
                "shadow_price": clique.shadow_price,
                "link_prices": dict(clique.link_prices),
            }
            for clique in explanation.binding_cliques
        ],
        "marginal_bandwidth": dict(explanation.marginal_bandwidth),
        "crowd_out": [
            {
                "flow": item.flow,
                "demand_mbps": item.demand_mbps,
                "crowd_out_mbps": item.crowd_out_mbps,
                "cliques": list(item.cliques),
            }
            for item in explanation.crowd_out
        ],
        "certificate": explanation.certificate.to_dict(),
        "bottleneck_fingerprint": explanation.bottleneck_fingerprint,
    }


def explanation_from_dict(payload: Mapping[str, Any]) -> Explanation:
    """Rebuild an :class:`Explanation` from its dict rendering."""
    from repro.core.lp import DualCertificate

    return Explanation(
        available_bandwidth_mbps=float(payload["available_bandwidth_mbps"]),
        airtime_price=float(payload["airtime_price"]),
        binding_cliques=tuple(
            BindingClique(
                links=tuple(entry["links"]),
                shadow_price=float(entry["shadow_price"]),
                link_prices={
                    key: float(value)
                    for key, value in entry["link_prices"].items()
                },
            )
            for entry in payload["binding_cliques"]
        ),
        marginal_bandwidth={
            key: float(value)
            for key, value in payload["marginal_bandwidth"].items()
        },
        crowd_out=tuple(
            CrowdOut(
                flow=entry["flow"],
                demand_mbps=float(entry["demand_mbps"]),
                crowd_out_mbps=float(entry["crowd_out_mbps"]),
                cliques=tuple(entry["cliques"]),
            )
            for entry in payload["crowd_out"]
        ),
        certificate=DualCertificate.from_dict(payload["certificate"]),
        bottleneck_fingerprint=str(payload["bottleneck_fingerprint"]),
    )


def format_explanation(explanation: Explanation) -> str:
    """A compact multi-line text rendering for the CLI."""
    lines = [
        f"available bandwidth: "
        f"{explanation.available_bandwidth_mbps:.6f} Mbps",
        f"airtime price: {explanation.airtime_price:.6f} Mbps per unit "
        "airtime",
        f"bottleneck fingerprint: {explanation.bottleneck_fingerprint}",
    ]
    certificate = explanation.certificate
    lines.append(
        "certificate: gap "
        f"{certificate.gap:.3e}, row residual "
        f"{certificate.max_row_residual:.3e}, column residual "
        f"{certificate.max_column_residual:.3e} -> "
        + ("valid" if certificate.valid() else "INVALID")
    )
    if not explanation.binding_cliques:
        lines.append("no binding demand rows: the airtime budget alone "
                     "limits the path")
    for position, clique in enumerate(explanation.binding_cliques):
        lines.append(
            f"clique #{position}: price {clique.shadow_price:.6f} "
            f"Mbps/Mbps over {{{', '.join(clique.links)}}}"
        )
    for item in explanation.crowd_out:
        if item.crowd_out_mbps <= 0.0:
            continue
        loaded = ",".join(f"#{index}" for index in item.cliques) or "-"
        lines.append(
            f"crowd-out {item.flow}: {item.demand_mbps:.3f} Mbps demanded "
            f"-> {item.crowd_out_mbps:.6f} Mbps cost (cliques {loaded})"
        )
    return "\n".join(lines)


# -- run-history integration ---------------------------------------------------


def bottleneck_summary(
    explanations: Sequence[Explanation],
) -> Optional[Dict[str, Any]]:
    """Aggregate a run's explanations into its dominant bottleneck.

    Picks the modal bottleneck fingerprint across the explained
    decisions (ties broken toward the higher shadow price, then the
    lexicographically smaller fingerprint) and returns the history-ready
    block recorded under ``"bottleneck"`` in run records — or ``None``
    when nothing was explained.
    """
    explained = [e for e in explanations if e is not None]
    if not explained:
        return None
    by_fingerprint: Dict[str, List[Explanation]] = {}
    for explanation in explained:
        by_fingerprint.setdefault(
            explanation.bottleneck_fingerprint, []
        ).append(explanation)

    def rank(item: Tuple[str, List[Explanation]]) -> Tuple[int, float, str]:
        digest, group = item
        top = group[0].bottleneck
        price = top.shadow_price if top else 0.0
        return (-len(group), -price, digest)

    digest, group = min(by_fingerprint.items(), key=rank)
    representative = group[0]
    top = representative.bottleneck
    return {
        "fingerprint": digest,
        "links": list(top.links) if top else [],
        "shadow_price": top.shadow_price if top else 0.0,
        "airtime_price": representative.airtime_price,
        "decisions": len(explained),
        "occurrences": len(group),
    }
