"""Shared helpers for edge-selection baselines.

Every selector returns the chosen edges as ``(u, v, p)`` triples ready to
be added to the graph; helpers here turn candidate ``(u, v)`` pairs into
such triples using a new-edge probability model (fixed ``zeta`` by
default, or any :class:`repro.graph.NewEdgeProbability`).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Set, Tuple

from ..engine.csr import QueryPlan
from ..engine.kernel import WorldBatch
from ..engine.selection import SelectionGainKernel
from ..graph import UncertainGraph
from ..reliability.estimator import ReliabilityEstimator

Edge = Tuple[int, int]
ProbEdge = Tuple[int, int, float]
NewEdgeProbability = Callable[[int, int], float]


def selection_kernel_for(
    graph: UncertainGraph,
    estimator: ReliabilityEstimator,
    kernel: Optional[SelectionGainKernel] = None,
    *,
    plan: Optional[QueryPlan] = None,
    worlds: Optional[Callable[[int, int], WorldBatch]] = None,
) -> Optional[SelectionGainKernel]:
    """Resolve the batched gain kernel a selection loop should use.

    The one estimator → kernel mapping.  A pre-built ``kernel`` (e.g.
    from :meth:`repro.api.Session.selection_kernel`) is used as-is.
    Otherwise the kernel is built from the estimator's shared-world
    backend
    (:meth:`~repro.reliability.estimator.ReliabilityEstimator.selection_backend`);
    backends carrying a ``make_batch`` factory (per-stratum ``rss``,
    per-block ``adaptive``) get a kernel that builds its base batch per
    query through that factory.  ``None`` — the estimator has no backend
    (exact or third-party estimators) — sends the caller to the
    per-candidate loop.

    ``plan`` (a compiled plan of ``graph``) and ``worlds(num_samples,
    seed)`` (the batch a fresh ``default_rng(seed)`` samples over it)
    let a caller with cached state — a session — skip compilation and
    coin flips; ``worlds`` serves only the factory-less backends.
    """
    if kernel is not None:
        return kernel
    backend = estimator.selection_backend()
    if backend is None:
        return None
    factory = backend.make_batch
    batch = (
        worlds(backend.num_samples, backend.seed)
        if worlds and factory is None else None
    )
    return SelectionGainKernel(
        graph, backend.num_samples, seed=backend.seed, plan=plan,
        batch=batch, batch_factory=factory,
    )


def all_missing_edges(
    graph: UncertainGraph,
    h: Optional[int] = None,
    forbidden_nodes: Optional[Set[int]] = None,
) -> List[Edge]:
    """The unrestricted candidate universe (optionally h-hop limited).

    With ``h`` set, only pairs within ``h`` hops in the topology are
    candidates (the paper's physical-constraint provision, §2.1 Remarks).
    O(n^2) in the worst case — intended for small graphs or post-
    elimination use.
    """
    forbidden = forbidden_nodes or set()
    if h is None:
        return [
            (u, v) for u, v in graph.missing_edges()
            if u not in forbidden and v not in forbidden
        ]
    candidates: List[Edge] = []
    for u in graph.nodes():
        if u in forbidden:
            continue
        for v in graph.within_hops(u, h):
            if v in forbidden or graph.has_edge(u, v):
                continue
            if not graph.directed and v < u:
                continue  # canonical orientation only
            candidates.append((u, v))
    return candidates


def dedupe_canonical(
    graph: UncertainGraph,
    candidates: Iterable[Edge],
) -> List[Edge]:
    """Canonicalize and de-duplicate candidate pairs."""
    seen: Set[Edge] = set()
    result: List[Edge] = []
    for u, v in candidates:
        if u == v:
            continue
        key = (u, v) if graph.directed or u <= v else (v, u)
        if key not in seen and not graph.has_edge(*key):
            seen.add(key)
            result.append(key)
    return result
