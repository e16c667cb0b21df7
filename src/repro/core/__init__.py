"""The paper's primary contribution: budgeted reliability maximization."""

from .search_space import (
    CandidateSpace,
    PathInfo,
    PathSet,
    candidate_edges_between,
    eliminate_search_space,
    select_top_l_paths,
    top_r_nodes,
)
from .selection import (
    batch_selection,
    build_path_batches,
    individual_path_selection,
)
from .mrp_improvement import MRPSolution, improve_most_reliable_path
from .probability_budget import (
    BudgetedMRPSolution,
    improve_mrp_with_probability_budget,
)
from .multi import (
    AGGREGATES,
    MultiSolution,
    MultiSourceTargetMaximizer,
)

__all__ = [
    "CandidateSpace",
    "PathInfo",
    "PathSet",
    "candidate_edges_between",
    "eliminate_search_space",
    "select_top_l_paths",
    "top_r_nodes",
    "batch_selection",
    "build_path_batches",
    "individual_path_selection",
    "MRPSolution",
    "improve_most_reliable_path",
    "BudgetedMRPSolution",
    "improve_mrp_with_probability_budget",
    "AGGREGATES",
    "MultiSolution",
    "MultiSourceTargetMaximizer",
]
