"""Reusable experiment drivers behind the per-table benchmarks.

Each driver mirrors one experimental protocol from §8: run a method set
over a query workload, average reliability gain / time / memory, and
return rows shaped like the corresponding paper table.  Benchmarks and
examples call these; keeping them in the library makes every number in
EXPERIMENTS.md reproducible from a plain Python session too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..graph import UncertainGraph
from ..reliability import ReliabilityEstimator, make_estimator
from ..api import MaximizeQuery, Session, Solution
from ..core import MultiSourceTargetMaximizer, eliminate_search_space
from ..baselines import esssp_selection, ima_selection, eigenvalue_selection
from ..baselines.common import (
    NewEdgeProbability,
    ProbEdge,
    selection_kernel_for,
)
from ..graph import fixed_new_edge_probability
from .metrics import measure
from .harness import MethodStats

Pair = Tuple[int, int]
EstimatorFactory = Callable[[int], ReliabilityEstimator]
"""``factory(seed) -> estimator`` — fresh sampler per method run."""


def estimator_factory(name: str, num_samples: int) -> EstimatorFactory:
    """Registry-backed factory: fresh ``name`` sampler per seed."""
    return lambda seed: make_estimator(name, num_samples, seed=seed)


def default_estimator_factory(num_samples: int = 250) -> EstimatorFactory:
    """RSS factory used across experiments (the paper's converged Z)."""
    return estimator_factory("rss", num_samples)


def mc_estimator_factory(num_samples: int = 500) -> EstimatorFactory:
    """Plain MC factory for the sampler-comparison tables."""
    return estimator_factory("mc", num_samples)


@dataclass
class SingleStProtocol:
    """Parameters shared by the single-source-target experiments."""

    k: int = 10
    zeta: float = 0.5
    r: int = 100
    l: int = 30
    h: Optional[int] = None
    eliminate: bool = True
    evaluation_samples: int = 1000
    track_memory: bool = False
    estimator_factory: EstimatorFactory = None  # type: ignore[assignment]
    new_edge_prob: Optional[NewEdgeProbability] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.estimator_factory is None:
            self.estimator_factory = default_estimator_factory()


def compare_methods_single_st(
    graph: UncertainGraph,
    queries: Sequence[Pair],
    methods: Sequence[str],
    protocol: SingleStProtocol,
) -> Dict[str, MethodStats]:
    """Run every method on every query; aggregate gain/time/memory.

    One :class:`~repro.api.Session` per query owns the compiled plan
    and the shared paired-evaluation world batch; the candidate space
    (Algorithm 4) is computed once per query and shared across methods,
    exactly as in the paper's Tables 5/9/10.  Each method still gets a
    fresh sampler from the protocol's factory so runs stay paired.
    Selection is session-backed: every registry sampler advertises a
    ``selection_backend()`` (see the support matrix in
    :mod:`repro.reliability.registry`), so ``hc`` and ``topk`` run on
    the session's batched gain kernel — against its cached ``(Z,
    seed)`` world batch for the plain-batch samplers (``mc``/``lazy``)
    or the backend's query-conditioned ``make_batch`` batch
    (per-stratum ``rss``, per-block ``adaptive``).  The Table 4/5 and
    vary-k protocols then pay two sweeps plus popcounts per greedy
    round instead of ``|C|`` full re-estimates.
    """
    stats = {m: MethodStats(method=m) for m in methods}
    for qi, (s, t) in enumerate(queries):
        session = Session(
            graph,
            seed=protocol.seed + qi,
            estimator=protocol.estimator_factory(protocol.seed + qi),
            evaluation_samples=protocol.evaluation_samples,
            r=protocol.r,
            l=protocol.l,
            h=protocol.h,
        )
        shared_space = None
        if protocol.eliminate:
            prob_model = protocol.new_edge_prob or fixed_new_edge_probability(
                protocol.zeta
            )
            shared_space = eliminate_search_space(
                graph,
                s,
                t,
                r=protocol.r,
                new_edge_prob=prob_model,
                estimator=protocol.estimator_factory(protocol.seed + qi),
                h=protocol.h,
            )
        for method in methods:
            query = MaximizeQuery(
                s,
                t,
                k=protocol.k,
                zeta=protocol.zeta,
                method=method,
                estimator=protocol.estimator_factory(protocol.seed + qi),
                new_edge_prob=protocol.new_edge_prob,
                candidate_space=shared_space,
                eliminate=protocol.eliminate,
            )
            result = measure(
                session.maximize,
                query,
                track_memory=protocol.track_memory,
            )
            solution: Solution = result.value.solution
            stats[method].gains.append(solution.gain)
            stats[method].seconds.append(result.seconds)
            stats[method].peak_mb.append(result.peak_mb)
    return stats


def elimination_timings(
    graph: UncertainGraph,
    queries: Sequence[Pair],
    estimator_factory: EstimatorFactory,
    r: int = 100,
    zeta: float = 0.5,
    seed: int = 0,
) -> Tuple[float, float]:
    """(mean elimination seconds, mean candidate count) over queries."""
    total_seconds, total_candidates = 0.0, 0
    prob_model = fixed_new_edge_probability(zeta)
    for qi, (s, t) in enumerate(queries):
        space = eliminate_search_space(
            graph, s, t, r=r,
            new_edge_prob=prob_model,
            estimator=estimator_factory(seed + qi),
        )
        total_seconds += space.elapsed_seconds
        total_candidates += len(space.edges)
    n = max(len(queries), 1)
    return total_seconds / n, total_candidates / n


def compare_methods_multi(
    graph: UncertainGraph,
    sources: Sequence[int],
    targets: Sequence[int],
    methods: Sequence[str],
    aggregate: str,
    k: int = 20,
    zeta: float = 0.5,
    r: int = 100,
    l: int = 30,
    h: Optional[int] = None,
    k1_fraction: float = 0.1,
    estimator_factory: Optional[EstimatorFactory] = None,
    evaluation_samples: int = 300,
    seed: int = 0,
) -> Dict[str, MethodStats]:
    """Multi-source-target comparison (Tables 23-25): BE vs HC/EO/ESSSP/IMA.

    ``methods`` may contain: ``be``, ``hc``, ``eo``, ``esssp``, ``ima``.
    """
    estimator_factory = estimator_factory or default_estimator_factory()
    prob_model = fixed_new_edge_probability(zeta)
    pairs = [(s, t) for s in sources for t in targets if s != t]
    stats = {m: MethodStats(method=m) for m in methods}
    # One session evaluates every method's solution: the no-overlay base
    # evaluation reuses one cached world batch across all methods.
    eval_session = Session(
        graph, seed=seed,
        evaluation_samples=evaluation_samples, evaluation_seed=9999,
    )

    def evaluate(extra: Optional[List[ProbEdge]]) -> float:
        values = eval_session.evaluate_pairs(pairs, extra)
        if aggregate in ("avg", "average"):
            return sum(values) / len(values)
        if aggregate in ("min", "minimum"):
            return min(values)
        return max(values)

    base_value = evaluate(None)
    solver = MultiSourceTargetMaximizer(
        estimator=estimator_factory(seed),
        r=r,
        l=l,
        h=h,
        k1_fraction=k1_fraction,
        evaluation_samples=evaluation_samples,
        seed=seed,
    )
    # Shared candidate space for the flat (non-BE) baselines.
    space = solver.candidate_space(graph, sources, targets, prob_model)
    candidate_pairs = space.edge_pairs()

    for method in methods:
        start = time.perf_counter()
        if method == "be":
            solution = solver.maximize(
                graph, sources, targets, k, zeta=zeta, aggregate=aggregate
            )
            edges = solution.edges
        elif method == "hc":
            edges = _multi_hill_climbing(
                graph, pairs, k, candidate_pairs, prob_model,
                estimator_factory(seed), aggregate,
            )
        elif method == "eo":
            edges = eigenvalue_selection(
                graph, k, prob_model, candidates=candidate_pairs, seed=seed
            )
        elif method == "esssp":
            edges = esssp_selection(
                graph, sources, targets, k, candidate_pairs, prob_model
            )
        elif method == "ima":
            edges = ima_selection(
                graph, sources, targets, k, candidate_pairs, prob_model,
                seed=seed,
            )
        else:
            raise ValueError(f"unknown multi method {method!r}")
        elapsed = time.perf_counter() - start
        new_value = evaluate(list(edges)) if edges else base_value
        stats[method].gains.append(new_value - base_value)
        stats[method].seconds.append(elapsed)
    return stats


def _multi_hill_climbing(
    graph: UncertainGraph,
    pairs: Sequence[Pair],
    k: int,
    candidates: Sequence[Tuple[int, int]],
    prob_model: NewEdgeProbability,
    estimator: ReliabilityEstimator,
    aggregate: str,
) -> List[ProbEdge]:
    """Hill climbing generalized to the aggregate objective.

    With any estimator advertising a ``selection_backend()`` (every
    registry sampler — see :mod:`repro.reliability.registry`), rounds
    run on the batched gain kernel: one sweep per distinct source/target
    plus bitwise ops per candidate, instead of ``|C|`` full multi-pair
    re-estimates.  Estimators without a backend (exact or third-party
    ones) keep the per-candidate loop.
    """
    if aggregate not in (
        "avg", "average", "min", "minimum", "max", "maximum"
    ):
        raise ValueError(f"unknown aggregate {aggregate!r}")
    remaining = [(u, v, prob_model(u, v)) for u, v in candidates]
    kernel = selection_kernel_for(graph, estimator)
    if kernel is not None and remaining and pairs:
        return kernel.greedy_select_multi(pairs, k, remaining, aggregate)

    def objective(extra: List[ProbEdge]) -> float:
        values = estimator.pair_reliabilities(graph, list(pairs), extra or None)
        if aggregate in ("avg", "average"):
            return sum(values.values()) / len(values)
        if aggregate in ("min", "minimum"):
            return min(values.values())
        return max(values.values())

    selected: List[ProbEdge] = []
    while len(selected) < k and remaining:
        best_index, best_value = -1, -1.0
        for index, edge in enumerate(remaining):
            value = objective([*selected, edge])
            if value > best_value:
                best_value, best_index = value, index
        selected.append(remaining.pop(best_index))
    return selected
