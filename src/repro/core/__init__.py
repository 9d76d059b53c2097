"""Core model: the paper's primary contribution.

Rate-coupled independent sets and cliques, link schedules, the Eq. 6
available-bandwidth LP, the Eq. 9 upper bound, Section 3.3 lower bounds and
a column-generation solver for instances too large to enumerate.
"""

from repro.core.bandwidth import (
    PathBandwidthResult,
    available_path_bandwidth,
    joint_admission_scale,
    link_demands_from_paths,
    min_airtime_schedule,
    tdma_schedule,
)
from repro.core.bounds import (
    CliqueUpperBoundResult,
    clique_upper_bound,
    enumerate_rate_vectors,
    fixed_rate_equal_throughput_bound,
    greedy_column_subset,
    hypothesis_min_clique_time,
    lower_bound_from_subset,
    max_clique_time,
)
from repro.core.cliques import (
    RateClique,
    enumerate_maximal_rate_cliques,
    fixed_rate_cliques,
    maximal_cliques_with_maximum_rates,
)
from repro.core.column_generation import (
    ColumnGenerationResult,
    solve_with_column_generation,
)
from repro.core.feasibility import (
    feasibility_margin,
    is_feasible,
    required_airtime,
)
from repro.core.fairness import MaxMinAllocation, max_min_fair_allocation
from repro.core.frame import TdmaFrame, realize_frame
from repro.core.independent_sets import (
    RateIndependentSet,
    enumerate_maximal_independent_sets,
    prune_dominated,
)
from repro.core.lp import LinearProgram, LpSolution
from repro.core.schedule import LinkSchedule, ScheduleEntry

__all__ = [
    "available_path_bandwidth",
    "PathBandwidthResult",
    "min_airtime_schedule",
    "tdma_schedule",
    "joint_admission_scale",
    "link_demands_from_paths",
    "clique_upper_bound",
    "CliqueUpperBoundResult",
    "enumerate_rate_vectors",
    "fixed_rate_equal_throughput_bound",
    "hypothesis_min_clique_time",
    "max_clique_time",
    "lower_bound_from_subset",
    "greedy_column_subset",
    "RateClique",
    "enumerate_maximal_rate_cliques",
    "maximal_cliques_with_maximum_rates",
    "fixed_rate_cliques",
    "solve_with_column_generation",
    "ColumnGenerationResult",
    "is_feasible",
    "required_airtime",
    "feasibility_margin",
    "RateIndependentSet",
    "enumerate_maximal_independent_sets",
    "prune_dominated",
    "LinearProgram",
    "LpSolution",
    "LinkSchedule",
    "ScheduleEntry",
    "TdmaFrame",
    "realize_frame",
    "MaxMinAllocation",
    "max_min_fair_allocation",
]
