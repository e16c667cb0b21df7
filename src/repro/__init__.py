"""repro — Reliability Maximization in Uncertain Graphs.

A pure-Python reproduction of Ke, Khan, Al Hasan & Rezvansangsari,
"Reliability Maximization in Uncertain Graphs" (ICDE 2021 / TKDE;
arXiv:1903.08587): add ``k`` shortcut edges to an uncertain graph to
maximize s-t reliability.

Quickstart
----------
>>> from repro import UncertainGraph, Session, MaximizeQuery
>>> g = UncertainGraph()
>>> g.add_edge(0, 1, 0.8); g.add_edge(1, 2, 0.5); g.add_edge(2, 3, 0.7)
>>> session = Session(g, r=10, l=10)
>>> result = session.maximize(MaximizeQuery(0, 3, k=1, zeta=0.5))
>>> len(result.edges)
1
>>> round(session.reliability(0, target=3, samples=4000).value, 1)
0.3

Subpackages
-----------
``repro.api``
    Declarative query/session layer and the one entry point to
    Problem 1: ``Session``, ``Workload``,
    ``ReliabilityQuery``/``MaximizeQuery``, structured results.
``repro.serve``
    Async serving: request-coalescing ``AsyncSession`` and the
    stdlib HTTP endpoint (``repro serve``).
``repro.graph``
    Uncertain-graph substrate, generators, probability models.
``repro.reliability``
    Exact / Monte Carlo / RSS / lazy-propagation estimators.
``repro.paths``
    Most reliable path, top-l paths, budget-constrained search.
``repro.baselines``
    Individual top-k, hill climbing, centrality, eigenvalue, ESSSP,
    IMA, exhaustive exact solution.
``repro.core``
    The paper's method: search-space elimination + path-batch selection;
    Problems 1-4 solvers.
``repro.influence``
    Independent-cascade influence application.
``repro.datasets`` / ``repro.queries`` / ``repro.experiments``
    Evaluation substrate.
"""

from .graph import UncertainGraph
from .reliability import (
    ExactEstimator,
    LazyPropagationEstimator,
    MonteCarloEstimator,
    RecursiveStratifiedSampler,
    ReliabilityEstimator,
    exact_reliability,
)
from .paths import most_reliable_path, top_l_most_reliable_paths
from .core import (
    MultiSolution,
    MultiSourceTargetMaximizer,
    improve_most_reliable_path,
)
from .influence import influence_spread, maximize_targeted_influence
from .reliability import make_estimator
from .api import (
    METHODS,
    MaximizeQuery,
    ReliabilityQuery,
    Session,
    Solution,
    Workload,
)
from . import api, baselines, datasets, experiments, graph, influence, paths, queries, reliability

__version__ = "1.0.0"

__all__ = [
    "UncertainGraph",
    "ExactEstimator",
    "LazyPropagationEstimator",
    "MonteCarloEstimator",
    "RecursiveStratifiedSampler",
    "ReliabilityEstimator",
    "exact_reliability",
    "most_reliable_path",
    "top_l_most_reliable_paths",
    "METHODS",
    "MultiSolution",
    "MultiSourceTargetMaximizer",
    "Solution",
    "improve_most_reliable_path",
    "influence_spread",
    "maximize_targeted_influence",
    "make_estimator",
    "MaximizeQuery",
    "ReliabilityQuery",
    "Session",
    "Workload",
    "api",
    "baselines",
    "datasets",
    "experiments",
    "graph",
    "influence",
    "paths",
    "queries",
    "reliability",
    "__version__",
]
