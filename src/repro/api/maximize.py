"""Execution of :class:`MaximizeQuery` — the paper's full pipeline.

The estimate → eliminate → select pipeline of Problem 1, run at the
session layer so a workload of maximize queries shares one compiled
plan and one paired-evaluation world batch.
"""

from __future__ import annotations

import time
import warnings
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..graph import UncertainGraph, fixed_new_edge_probability
from ..reliability import ReliabilityEstimator, make_estimator
from ..baselines import (
    all_missing_edges,
    betweenness_centrality_selection,
    degree_centrality_selection,
    eigenvalue_selection,
    exact_solution,
    hill_climbing,
    individual_top_k,
    random_selection,
)
from ..baselines.common import NewEdgeProbability, ProbEdge
from ..core.search_space import (
    CandidateSpace,
    eliminate_search_space,
    select_top_l_paths,
)
from ..core.selection import batch_selection, individual_path_selection
from ..core.mrp_improvement import improve_most_reliable_path
from .queries import METHODS, MaximizeQuery
from .results import MaximizeResult, Provenance, Solution, Timings

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .session import Session


def resolve_selection_estimator(
    session: "Session", query: MaximizeQuery
) -> Tuple[ReliabilityEstimator, str]:
    """The sampler driving selection loops for this query.

    Priority: an estimator instance on the query, a registry name on the
    query, then the session's default — rebuilt through the registry
    whenever the query overrides ``samples`` or ``seed``, so those
    fields are honored even without an explicit estimator name.
    Returns ``(estimator, name)``.
    """
    seed = query.seed if query.seed is not None else session.seed
    if isinstance(query.estimator, ReliabilityEstimator):
        return query.estimator, getattr(
            type(query.estimator), "name", type(query.estimator).__name__
        )
    name = (
        query.estimator if isinstance(query.estimator, str)
        else session.estimator_name
    )
    overrides = query.samples is not None or query.seed is not None
    if name is not None and (isinstance(query.estimator, str) or overrides):
        samples = (
            query.samples if query.samples is not None
            else session.selection_samples
        )
        return make_estimator(name, samples, seed=seed), name
    if overrides:
        # The session's default sampler is a custom instance the
        # registry cannot rebuild with the requested configuration.
        warnings.warn(
            "MaximizeQuery.samples/seed ignored: the session estimator "
            "is a custom instance; pass estimator=<registry name> to "
            "override its configuration",
            stacklevel=3,
        )
    return session.estimator, getattr(
        type(session.estimator), "name", type(session.estimator).__name__
    )


def execute_maximize(
    session: "Session",
    query: MaximizeQuery,
    base_value: Optional[float] = None,
) -> MaximizeResult:
    """Run one maximize query against the session's shared state.

    ``base_value`` lets :meth:`repro.api.Session.run` inject the paired
    base evaluation it already computed for a whole batch of maximize
    queries in one shared-world pass; it must equal what
    ``session.evaluate(query.source, query.target)`` would return.
    """
    graph = session.graph
    method = query.method
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    estimator, estimator_name = resolve_selection_estimator(session, query)
    prob_model = query.new_edge_prob or fixed_new_edge_probability(query.zeta)
    seed = query.seed if query.seed is not None else session.seed

    start = time.perf_counter()
    space = _candidate_space(session, query, estimator, prob_model)
    elimination_seconds = space.elapsed_seconds

    select_start = time.perf_counter()
    edges = dispatch_selection(
        graph,
        query.source,
        query.target,
        query.k,
        method,
        prob_model,
        space,
        query.eliminate,
        estimator=estimator,
        l=session.l,
        seed=seed,
        session=session,
    )
    selection_seconds = time.perf_counter() - select_start

    # Paired evaluation: base and final reliability in the same worlds
    # for every method — batched through the session's evaluation cache.
    base = (
        base_value
        if base_value is not None
        else session.evaluate(query.source, query.target)
    )
    new = (
        session.evaluate(query.source, query.target, edges) if edges else base
    )
    solution = Solution(
        method=method,
        edges=edges,
        base_reliability=base,
        new_reliability=new,
        elimination_seconds=elimination_seconds,
        selection_seconds=selection_seconds,
        num_candidates=len(space.edges),
    )
    provenance = Provenance(
        estimator=estimator_name,
        samples=getattr(
            estimator, "num_samples",
            getattr(estimator, "max_samples", session.selection_samples),
        ),
        seed=seed,
        timings=Timings(solve_seconds=time.perf_counter() - start),
    )
    return MaximizeResult(query=query, solution=solution, provenance=provenance)


def _candidate_space(
    session: "Session",
    query: MaximizeQuery,
    estimator: ReliabilityEstimator,
    prob_model: NewEdgeProbability,
) -> CandidateSpace:
    """Algorithm 4 elimination (or the no-elimination candidate set)."""
    if query.candidate_space is not None:
        return query.candidate_space
    graph = session.graph
    if query.eliminate:
        # Centrality/eigen baselines also benefit from elimination
        # (Table 5): restrict them to the relevant candidate set.
        return eliminate_search_space(
            graph,
            query.source,
            query.target,
            r=session.r,
            new_edge_prob=prob_model,
            estimator=estimator,
            h=session.h,
        )
    start = time.perf_counter()
    pairs = all_missing_edges(graph, h=session.h)
    return CandidateSpace(
        source_side=[],
        target_side=[],
        edges=[(u, v, prob_model(u, v)) for u, v in pairs],
        elapsed_seconds=time.perf_counter() - start,
    )


def dispatch_selection(
    graph: UncertainGraph,
    source: int,
    target: int,
    k: int,
    method: str,
    prob_model: NewEdgeProbability,
    space: CandidateSpace,
    eliminated: bool,
    estimator: ReliabilityEstimator,
    l: int,
    seed: int,
    session: Optional["Session"] = None,
) -> List[ProbEdge]:
    """Route one selection method to its implementation.

    With a ``session``, the candidate-enumerating methods (``hc``,
    ``topk``) receive the session's batched gain kernel when the
    estimator admits shared worlds — selection then reuses the cached
    compiled plan and ``(Z, seed)`` world batch instead of paying a
    fresh compile + coin-flip pass per query.
    """
    pairs = space.edge_pairs()
    kernel = (
        session.selection_kernel(estimator)
        if session is not None and method in ("hc", "topk")
        else None
    )
    if method in ("be", "ip"):
        path_set = select_top_l_paths(graph, source, target, l, space.edges)
        if method == "be":
            return batch_selection(graph, source, target, k, path_set, estimator)
        return individual_path_selection(
            graph, source, target, k, path_set, estimator
        )
    if method == "mrp":
        return improve_most_reliable_path(
            graph, source, target, k, prob_model, candidates=pairs
        ).edges
    if method == "hc":
        return hill_climbing(
            graph, source, target, k, pairs, prob_model, estimator,
            kernel=kernel,
        )
    if method == "topk":
        return individual_top_k(
            graph, source, target, k, pairs, prob_model, estimator,
            kernel=kernel,
        )
    if method == "degree":
        return degree_centrality_selection(
            graph, k, prob_model, candidates=pairs if eliminated else None
        )
    if method == "betweenness":
        return betweenness_centrality_selection(
            graph, k, prob_model,
            candidates=pairs if eliminated else None,
            seed=seed,
        )
    if method == "eigen":
        return eigenvalue_selection(
            graph, k, prob_model,
            candidates=pairs if eliminated else None,
            seed=seed,
        )
    if method == "random":
        return random_selection(pairs, k, prob_model, seed=seed)
    if method == "exact":
        return exact_solution(
            graph, source, target, k, pairs, prob_model, estimator
        )
    raise AssertionError(f"unhandled method {method!r}")  # pragma: no cover
