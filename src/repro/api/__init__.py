"""Declarative query/session API — the public entry point.

Describe *what* you want as query objects, collect them in a
:class:`Workload`, and let a :class:`Session` execute the whole batch
against one compiled plan and shared sampled worlds:

>>> from repro.api import Session, Workload, ReliabilityQuery
>>> from repro.graph import UncertainGraph
>>> g = UncertainGraph.from_edges([(0, 1, 0.8), (1, 2, 0.5), (0, 2, 0.3)])
>>> session = Session(g, seed=7)
>>> workload = Workload(
...     ReliabilityQuery(0, target=t, samples=2000) for t in (1, 2)
... )
>>> [round(r.value, 1) for r in session.run(workload)]
[0.8, 0.6]

All queries in the workload were answered inside the *same* 2000 sampled
worlds: one CSR compilation, one coin-flip pass, one batch BFS per
distinct source.  Results carry provenance — estimator, Z, seed,
shared-world flag, timings.

The legacy entry points (:class:`repro.core.facade.ReliabilityMaximizer`
and friends) remain as thin shims over this layer.
"""

from .delta import DeltaReport, GraphDelta
from .queries import MaximizeQuery, Query, ReliabilityQuery, Workload
from .results import (
    MaximizeResult,
    Provenance,
    ReliabilityResult,
    Timings,
    results_table,
)
from .session import Session
from .maximize import METHODS, dispatch_selection, execute_maximize

__all__ = [
    "DeltaReport",
    "GraphDelta",
    "MaximizeQuery",
    "Query",
    "ReliabilityQuery",
    "Workload",
    "MaximizeResult",
    "Provenance",
    "ReliabilityResult",
    "Timings",
    "results_table",
    "Session",
    "METHODS",
    "dispatch_selection",
    "execute_maximize",
]
