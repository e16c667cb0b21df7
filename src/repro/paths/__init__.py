"""Path algorithms over uncertain graphs."""

from .dijkstra import (
    most_reliable_path,
    path_probability,
    reliability_dijkstra_all,
)
from .yen import top_l_most_reliable_paths
from .layered import (
    ConstrainedPath,
    best_improvement,
    constrained_most_reliable_paths,
)
from .maxflow import DinicMaxFlow, min_cut

__all__ = [
    "most_reliable_path",
    "path_probability",
    "reliability_dijkstra_all",
    "top_l_most_reliable_paths",
    "ConstrainedPath",
    "best_improvement",
    "constrained_most_reliable_paths",
    "DinicMaxFlow",
    "min_cut",
]
