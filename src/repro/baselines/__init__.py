"""Baseline edge-selection methods (§3 of the paper + multi-S/T competitors)."""

from .common import (
    Edge,
    NewEdgeProbability,
    ProbEdge,
    all_missing_edges,
    dedupe_canonical,
    selection_kernel_for,
)
from .individual_topk import individual_top_k
from .hill_climbing import hill_climbing
from .centrality import (
    betweenness_centrality,
    betweenness_centrality_selection,
    degree_centrality,
    degree_centrality_selection,
)
from .eigen import eigenvalue_selection, leading_eigen
from .esssp import esssp_selection
from .ima import ima_selection
from .exact_solution import exact_solution
from .random_addition import random_selection

__all__ = [
    "Edge",
    "NewEdgeProbability",
    "ProbEdge",
    "all_missing_edges",
    "dedupe_canonical",
    "selection_kernel_for",
    "individual_top_k",
    "hill_climbing",
    "betweenness_centrality",
    "betweenness_centrality_selection",
    "degree_centrality",
    "degree_centrality_selection",
    "eigenvalue_selection",
    "leading_eigen",
    "esssp_selection",
    "ima_selection",
    "exact_solution",
    "random_selection",
]
