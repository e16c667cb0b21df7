"""Multiple-source-target reliability maximization (Problem 4, §6).

Three aggregate objectives over all ``(s, t)`` pairs in ``S x T``:

* **average** (§6.1) — one global batch selection over the union of all
  pairs' top-l paths, scoring batches by average-reliability gain: BE's
  own loop (:func:`~repro.core.selection.batch_greedy`) with the
  average as its objective;
* **minimum** (§6.2) — repeatedly improve the currently-weakest pair
  with a ``k1``-edge installment of the single-pair solver;
* **maximum** (§6.3) — the same loop aimed at the currently-strongest
  pair.

All three share Algorithm 4's elimination (run per source / per target)
and the path-batch machinery of §5.2.2.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..engine.selection import aggregate_name, aggregate_value
from ..graph import UncertainGraph, fixed_new_edge_probability
from ..reliability import ReliabilityEstimator, make_estimator
from ..baselines.common import Edge, NewEdgeProbability, ProbEdge
from .search_space import (
    CandidateSpace,
    PathInfo,
    candidate_edges_between,
    eliminate_search_space,
    select_top_l_paths,
    top_r_nodes,
)
from .selection import batch_greedy, path_subgraph

Pair = Tuple[int, int]


@dataclass
class MultiSolution:
    """Result of a multi-source-target run."""

    aggregate: str
    edges: List[ProbEdge]
    base_value: float
    new_value: float
    pair_base: Dict[Pair, float] = field(default_factory=dict)
    pair_new: Dict[Pair, float] = field(default_factory=dict)
    elimination_seconds: float = 0.0
    selection_seconds: float = 0.0

    @property
    def gain(self) -> float:
        """Improvement of the aggregate objective."""
        return self.new_value - self.base_value


class MultiSourceTargetMaximizer:
    """Solver for Problem 4 under average / minimum / maximum aggregates.

    ``estimator``, ``evaluation_samples`` / ``evaluation_seed``, ``r``,
    ``l``, ``h`` and ``seed`` mean what the same-named
    :class:`repro.api.Session` settings mean (each min/max installment
    runs on such a session); ``k1_fraction`` sets ``k1``, the per-round
    installment for the min/max strategies (the paper's default is
    ``k1 = 10% of k``).
    """

    def __init__(
        self,
        estimator: Optional[ReliabilityEstimator] = None,
        evaluation_samples: int = 500,
        evaluation_seed: int = 9_999,
        r: int = 100,
        l: int = 30,
        h: Optional[int] = None,
        k1_fraction: float = 0.1,
        seed: int = 0,
    ) -> None:
        self.estimator = estimator or make_estimator("rss", 250, seed=seed)
        self.evaluation_samples = evaluation_samples
        self.evaluation_seed = evaluation_seed
        self.r = r
        self.l = l
        self.h = h
        self.k1_fraction = k1_fraction
        self.seed = seed

    # ------------------------------------------------------------------
    def evaluate_pairs(
        self,
        graph: UncertainGraph,
        pairs: Sequence[Pair],
        extra_edges: Optional[Sequence[ProbEdge]] = None,
    ) -> Dict[Pair, float]:
        """Paired-seed evaluation of every pair's reliability.

        Goes through the batched ``reliability_many`` entry point, so
        one compiled plan and one shared world batch are amortized
        across the whole ``S x T`` workload.
        """
        pairs = list(pairs)
        estimator = make_estimator(
            "mc", self.evaluation_samples, seed=self.evaluation_seed
        )
        values = estimator.reliability_many(
            graph, pairs, list(extra_edges) if extra_edges else None
        )
        return dict(zip(pairs, values, strict=True))

    def candidate_space(
        self,
        graph: UncertainGraph,
        sources: Sequence[int],
        targets: Sequence[int],
        new_edge_prob: NewEdgeProbability,
        forbidden_nodes: Optional[Set[int]] = None,
    ) -> CandidateSpace:
        """Union-of-sides elimination (§6.1): C(s) over S and C(t) over T."""
        start = time.perf_counter()
        source_side: Dict[int, float] = {}
        for s in sources:
            for node, value in self.estimator.reachability_from(graph, s).items():
                if value > source_side.get(node, 0.0):
                    source_side[node] = value
        target_side: Dict[int, float] = {}
        for t in targets:
            for node, value in self.estimator.reachability_to(graph, t).items():
                if value > target_side.get(node, 0.0):
                    target_side[node] = value
        c_source: List[int] = []
        for s in sources:
            c_source.extend(top_r_nodes(source_side, self.r, s))
        c_target: List[int] = []
        for t in targets:
            c_target.extend(top_r_nodes(target_side, self.r, t))
        c_source = list(dict.fromkeys(c_source))
        c_target = list(dict.fromkeys(c_target))
        edges = candidate_edges_between(
            graph, c_source, c_target, new_edge_prob, h=self.h,
            forbidden_nodes=forbidden_nodes,
        )
        return CandidateSpace(
            source_side=c_source,
            target_side=c_target,
            edges=edges,
            elapsed_seconds=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------
    def maximize(
        self,
        graph: UncertainGraph,
        sources: Sequence[int],
        targets: Sequence[int],
        k: int,
        zeta: float = 0.5,
        aggregate: str = "average",
        new_edge_prob: Optional[NewEdgeProbability] = None,
        forbidden_nodes: Optional[Set[int]] = None,
    ) -> MultiSolution:
        """Problem 4: top-k edges maximizing the aggregate reliability."""
        aggregate = aggregate_name(aggregate)
        if k < 1:
            raise ValueError("k must be positive")
        if not sources or not targets:
            raise ValueError("sources and targets must be non-empty")
        prob_model = new_edge_prob or fixed_new_edge_probability(zeta)
        pairs = [(s, t) for s in sources for t in targets if s != t]
        if not pairs:
            raise ValueError("S x T contains only trivial pairs (s == t)")

        if aggregate == "average":
            return self._maximize_average(
                graph, sources, targets, pairs, k, prob_model, forbidden_nodes
            )
        return self._maximize_extreme(
            graph, pairs, k, prob_model, aggregate, forbidden_nodes
        )

    # ------------------------------------------------------------------
    def _maximize_average(
        self,
        graph: UncertainGraph,
        sources: Sequence[int],
        targets: Sequence[int],
        pairs: List[Pair],
        k: int,
        prob_model: NewEdgeProbability,
        forbidden_nodes: Optional[Set[int]],
    ) -> MultiSolution:
        space = self.candidate_space(
            graph, sources, targets, prob_model, forbidden_nodes
        )
        start = time.perf_counter()
        # Top-l paths per pair, merged into one labeled pool.
        pair_paths: Dict[Pair, List[PathInfo]] = {}
        candidate_probs: Dict[Edge, float] = {}
        for s, t in pairs:
            path_set = select_top_l_paths(graph, s, t, self.l, space.edges)
            pair_paths[(s, t)] = path_set.paths
            for u, v, p in path_set.surviving_candidates:
                candidate_probs[(u, v)] = p
        edges = self._batch_select_pairs(
            graph, pairs, pair_paths, candidate_probs, k
        )
        selection_seconds = time.perf_counter() - start

        pair_base = self.evaluate_pairs(graph, pairs)
        pair_new = self.evaluate_pairs(graph, pairs, edges) if edges else pair_base
        return MultiSolution(
            aggregate="average",
            edges=edges,
            base_value=aggregate_value(pair_base.values(), "average"),
            new_value=aggregate_value(pair_new.values(), "average"),
            pair_base=pair_base,
            pair_new=pair_new,
            elimination_seconds=space.elapsed_seconds,
            selection_seconds=selection_seconds,
        )

    def _batch_select_pairs(
        self,
        graph: UncertainGraph,
        pairs: List[Pair],
        pair_paths: Dict[Pair, List[PathInfo]],
        candidate_probs: Dict[Edge, float],
        k: int,
    ) -> List[ProbEdge]:
        """§6.1: BE's batch greedy on the average-reliability objective."""
        path_pair = {
            id(p): pair for pair, paths in pair_paths.items() for p in paths
        }
        endpoints = [node for pair in pairs for node in pair]

        def average(paths: List[PathInfo]) -> float:
            if not paths:
                return 0.0
            sub, overlay = path_subgraph(
                graph, paths, candidate_probs, endpoints
            )
            served = {path_pair[id(p)] for p in paths}
            values = self.estimator.pair_reliabilities(
                sub, [p for p in pairs if p in served], overlay
            )
            return sum(values.values()) / len(pairs)

        all_paths = [p for paths in pair_paths.values() for p in paths]
        return batch_greedy(all_paths, k, average, candidate_probs)

    # ------------------------------------------------------------------
    def _maximize_extreme(
        self,
        graph: UncertainGraph,
        pairs: List[Pair],
        k: int,
        prob_model: NewEdgeProbability,
        aggregate: str,
        forbidden_nodes: Optional[Set[int]],
    ) -> MultiSolution:
        """§6.2 / §6.3: k1-installment improvement of the extreme pair."""
        from ..api import MaximizeQuery, Session  # local: repro.api imports repro.core

        k1 = max(1, int(round(k * self.k1_fraction)))
        pick_min = aggregate == "minimum"

        elimination_seconds = 0.0
        start = time.perf_counter()
        working = graph.copy()
        added: List[ProbEdge] = []
        saturated: Set[Pair] = set()

        pair_values = self.estimator.pair_reliabilities(working, pairs)
        while len(added) < k:
            active = {p: v for p, v in pair_values.items() if p not in saturated}
            if not active:
                break
            chooser = min if pick_min else max
            pair = chooser(active, key=lambda p: (active[p], p))
            budget = min(k1, k - len(added))
            space = eliminate_search_space(
                working, pair[0], pair[1],
                r=self.r,
                new_edge_prob=prob_model,
                estimator=self.estimator,
                h=self.h,
                forbidden_nodes=forbidden_nodes,
            )
            elimination_seconds += space.elapsed_seconds
            session = Session(
                working,
                seed=self.seed,
                estimator=self.estimator,
                evaluation_samples=self.evaluation_samples,
                evaluation_seed=self.evaluation_seed,
                r=self.r,
                l=self.l,
                h=self.h,
            )
            solution = session.maximize(MaximizeQuery(
                pair[0], pair[1], k=budget, method="be",
                new_edge_prob=prob_model, candidate_space=space,
            )).solution
            if not solution.edges:
                saturated.add(pair)
                continue
            for u, v, p in solution.edges:
                working.add_edge(u, v, p)
                added.append((u, v, p))
            saturated.clear()
            pair_values = self.estimator.pair_reliabilities(working, pairs)
        selection_seconds = time.perf_counter() - start - elimination_seconds

        pair_base = self.evaluate_pairs(graph, pairs)
        pair_new = self.evaluate_pairs(graph, pairs, added) if added else pair_base
        return MultiSolution(
            aggregate=aggregate,
            edges=added,
            base_value=aggregate_value(pair_base.values(), aggregate),
            new_value=aggregate_value(pair_new.values(), aggregate),
            pair_base=pair_base,
            pair_new=pair_new,
            elimination_seconds=elimination_seconds,
            selection_seconds=max(selection_seconds, 0.0),
        )
