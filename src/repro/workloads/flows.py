"""End-to-end flows."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError, TopologyError
from repro.net.path import Path
from repro.net.topology import Network
from repro.rng import SeedLike, make_rng

__all__ = ["Flow", "random_flow_endpoints"]


@dataclass(frozen=True)
class Flow:
    """A unicast flow with a bandwidth demand.

    The path starts unset; routing (Section 4/5 experiments) assigns one
    with :meth:`routed`.
    """

    flow_id: str
    source: str
    destination: str
    demand_mbps: float
    path: Optional[Path] = None

    def __post_init__(self) -> None:
        if self.source == self.destination:
            raise ConfigurationError(
                f"flow {self.flow_id!r}: source equals destination"
            )
        if self.demand_mbps <= 0:
            raise ConfigurationError(
                f"flow {self.flow_id!r}: demand must be positive, got "
                f"{self.demand_mbps}"
            )

    @property
    def is_routed(self) -> bool:
        return self.path is not None

    def routed(self, path: Path) -> "Flow":
        """A copy of this flow carrying ``path``; endpoints must match."""
        if path.source.node_id != self.source:
            raise TopologyError(
                f"flow {self.flow_id!r}: path starts at "
                f"{path.source.node_id!r}, not {self.source!r}"
            )
        if path.destination.node_id != self.destination:
            raise TopologyError(
                f"flow {self.flow_id!r}: path ends at "
                f"{path.destination.node_id!r}, not {self.destination!r}"
            )
        return replace(self, path=path)

    def as_background(self) -> Tuple[Path, float]:
        """The (path, demand) pair the core LP consumes."""
        if self.path is None:
            raise TopologyError(f"flow {self.flow_id!r} is not routed yet")
        return self.path, self.demand_mbps

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        route = str(self.path) if self.path else "unrouted"
        return (
            f"{self.flow_id}: {self.source}->{self.destination} "
            f"@{self.demand_mbps:g}Mbps [{route}]"
        )


def random_flow_endpoints(
    network: Network,
    count: int,
    demand_mbps: float,
    seed: SeedLike = None,
    min_distance_m: float = 0.0,
) -> List[Flow]:
    """Draw ``count`` random source–destination pairs (Section 5.2 setup).

    Pairs are drawn without replacement over ordered node pairs; a minimum
    geometric separation can be required so flows are genuinely multihop.
    The candidate pairs are listed once per network state and separation
    (``Network.derived``) and shared by every draw.
    """
    rng = make_rng(seed)
    candidates = network.derived(
        ("flow_endpoints", min_distance_m),
        lambda: _endpoint_pairs(network, min_distance_m),
    )
    if len(candidates) < count:
        raise ConfigurationError(
            f"only {len(candidates)} endpoint pairs satisfy the separation "
            f"constraint; {count} requested"
        )
    picked = rng.choice(len(candidates), size=count, replace=False)
    return [
        Flow(
            flow_id=f"f{index}",
            source=candidates[pick][0],
            destination=candidates[pick][1],
            demand_mbps=demand_mbps,
        )
        for index, pick in enumerate(picked)
    ]


def _endpoint_pairs(
    network: Network, min_distance_m: float
) -> Tuple[Tuple[str, str], ...]:
    """Ordered node pairs at least ``min_distance_m`` apart, in node order."""
    nodes = [node.node_id for node in network.nodes]
    return tuple(
        (src, dst)
        for src in nodes
        for dst in nodes
        if src != dst
        and (
            min_distance_m <= 0.0
            or network.distance(src, dst) >= min_distance_m
        )
    )
