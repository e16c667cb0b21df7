"""Reliability estimation: exact, Monte Carlo, RSS, lazy propagation."""

from .estimator import (
    Overlay,
    ReliabilityEstimator,
    SelectionBackend,
    build_overlay,
)
from .exact import (
    ExactEstimator,
    exact_reliability,
    exact_reliability_by_enumeration,
)
from .monte_carlo import MonteCarloEstimator
from .rss import RecursiveStratifiedSampler
from .lazy import LazyPropagationEstimator
from .bfs_sharing import BFSSharingIndex
from .adaptive import AdaptiveEstimate, AdaptiveMonteCarlo, wilson_interval
from .bounds import (
    ReliabilityBounds,
    reliability_bounds,
    reliability_lower_bound,
    reliability_upper_bound,
)
from .convergence import (
    estimator_bias_check,
    index_of_dispersion,
    required_samples,
)
from .registry import (
    EstimatorSpec,
    estimator_names,
    estimator_spec,
    make_estimator,
    register_estimator,
)

__all__ = [
    "Overlay",
    "ReliabilityEstimator",
    "SelectionBackend",
    "build_overlay",
    "ExactEstimator",
    "exact_reliability",
    "exact_reliability_by_enumeration",
    "MonteCarloEstimator",
    "RecursiveStratifiedSampler",
    "LazyPropagationEstimator",
    "BFSSharingIndex",
    "AdaptiveEstimate",
    "AdaptiveMonteCarlo",
    "wilson_interval",
    "ReliabilityBounds",
    "reliability_bounds",
    "reliability_lower_bound",
    "reliability_upper_bound",
    "estimator_bias_check",
    "index_of_dispersion",
    "required_samples",
    "EstimatorSpec",
    "estimator_names",
    "estimator_spec",
    "make_estimator",
    "register_estimator",
]
