"""Recursive stratified sampling (RSS) for s-t reliability.

Follows Li et al., "Recursive Stratified Sampling: A New Framework for
Query Evaluation on Uncertain Graphs" (TKDE 2016), the advanced sampler
the paper plugs into its pipeline in §5.3: select ``r`` edges, partition
the probability space into ``r + 1`` non-overlapping strata (stratum ``i``
fixes edges ``1..i-1`` absent and edge ``i`` present), allocate samples
proportionally to stratum probability, recurse, and fall back to plain
Monte Carlo when a stratum's sample budget drops below a threshold.

The estimator keeps MC's ``O(Z (n + m))`` complexity but has a strictly
smaller variance, so fewer samples reach the same index of dispersion —
the effect Tables 6 and 7 measure.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Set, Tuple

import numpy as np

from ..engine import build_query_plan, sample_worlds, sample_worlds_stratified
# Leaf calls go through the module so wrappers installed on its globals
# (perfbench/spans.py) see the leaves' sampling.
from ..engine import batch as engine_batch
from ..graph import UncertainGraph
from .estimator import (
    Overlay,
    ReliabilityEstimator,
    SelectionBackend,
    build_overlay,
)

EdgeKey = Tuple[int, int]


class _Adjacency:
    """Merged view of graph + overlay edges with stable edge keys."""

    def __init__(self, graph: UncertainGraph, overlay: Dict[int, List[Tuple[int, float]]]):
        self._succ = graph.successors
        self._overlay = overlay
        self._canonical = not graph.directed

    def key(self, u: int, v: int) -> EdgeKey:
        if self._canonical and v < u:
            return (v, u)
        return (u, v)

    def neighbors(self, u: int) -> Iterable[Tuple[int, float, EdgeKey]]:
        for v, p in self._succ(u).items():
            yield v, p, self.key(u, v)
        for v, p in self._overlay.get(u, ()):
            yield v, p, self.key(u, v)


class RecursiveStratifiedSampler(ReliabilityEstimator):
    """RSS estimator with proportional sample allocation.

    Parameters
    ----------
    num_samples:
        Total sample budget ``Z`` (shared across strata).
    num_stratify_edges:
        ``r`` — how many frontier edges define the strata at each level.
    mc_threshold:
        Strata whose allocated budget falls below this run plain MC.
    max_depth:
        Recursion guard; deeper strata fall back to MC.
    seed:
        Seed of the estimator's generator, which samples the Monte
        Carlo leaves of the stratification tree (the stratum recursion
        itself is structure discovery, not sampling).

    Notes
    -----
    Not thread-safe: beyond the generator, the estimator briefly stores
    the active query's compiled plan while the recursion runs.
    """

    name = "rss"

    def __init__(
        self,
        num_samples: int = 250,
        num_stratify_edges: int = 6,
        mc_threshold: int = 40,
        max_depth: int = 8,
        seed: int = 0,
    ) -> None:
        if num_samples < 1:
            raise ValueError("num_samples must be positive")
        if num_stratify_edges < 1:
            raise ValueError("num_stratify_edges must be positive")
        self.num_samples = num_samples
        self.num_stratify_edges = num_stratify_edges
        self.mc_threshold = mc_threshold
        self.max_depth = max_depth
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._active_plan = None

    # ------------------------------------------------------------------
    # batched selection backend (per-stratum shared worlds)
    # ------------------------------------------------------------------
    def selection_backend(self):
        """Per-stratum shared-world backend.

        Selection loops score every candidate against one *stratified*
        base batch built by :meth:`selection_batch`: the estimator's
        level-1 stratification of the query's source frontier, with
        samples allocated proportionally to stratum probability — the
        same variance-reduction idea as the recursive estimate, flat
        enough to serve as a single shared world batch.
        """
        return SelectionBackend(
            self.num_samples, self.seed, make_batch=self.selection_batch
        )

    def selection_batch(self, graph, plan, source, target):
        """Level-1 stratified world batch for shared-world selection.

        Strata follow the estimator's own scheme (§5.3 / Li et al.):
        rank the undetermined edges on the frontier of ``source``'s
        certain region, stratum ``i`` pins edges ``1..i-1`` absent and
        edge ``i`` present, the remainder stratum pins all ``r``
        absent.  Proportional largest-remainder allocation keeps the
        uniform batch average equal to the stratified estimator (up to
        integer rounding), so the gain kernel can treat the batch
        exactly like a plain one.  Deterministic for a fixed seed; no
        strata (no undetermined frontier) degrades to plain sampling.
        """
        rng = np.random.default_rng(self.seed)
        if source not in graph:
            return sample_worlds(plan, self.num_samples, rng)
        adj = _Adjacency(graph, {})
        certain = self._certain_region(adj, source, {})
        ranked = self._select_strata_edges(adj, certain, {})
        strata = []
        absent: List[int] = []
        prefix = 1.0
        for _u, _v, p, key in ranked:
            ids = list(plan.edge_index.get(key, ()))
            if not ids:  # pragma: no cover - plan/graph mismatch guard
                continue
            strata.append((ids, list(absent), prefix * p))
            absent.extend(ids)
            prefix *= 1.0 - p
        if not strata:
            return sample_worlds(plan, self.num_samples, rng)
        strata.append(([], absent, prefix))
        return sample_worlds_stratified(
            plan, strata, self.num_samples, rng
        )

    # ------------------------------------------------------------------
    def reliability(
        self,
        graph: UncertainGraph,
        source: int,
        target: int,
        extra_edges: Overlay = None,
    ) -> float:
        if source == target:
            return 1.0
        extra = list(extra_edges) if extra_edges else None
        plan = build_query_plan(graph, extra)
        if plan.node_index(source) is None or plan.node_index(target) is None:
            return 0.0  # overlay endpoints count as nodes
        adj = _Adjacency(graph, build_overlay(graph, extra))
        self._active_plan = plan
        try:
            return self._estimate(adj, source, target, {}, self.num_samples, 0)
        finally:
            self._active_plan = None

    def reachability_from(
        self,
        graph: UncertainGraph,
        source: int,
        extra_edges: Overlay = None,
    ) -> Dict[int, float]:
        extra = list(extra_edges) if extra_edges else None
        plan = build_query_plan(graph, extra)
        if plan.node_index(source) is None:
            return {}  # named by neither the graph nor the overlay
        adj = _Adjacency(graph, build_overlay(graph, extra))
        self._active_plan = plan
        counts: Dict[int, float] = {}
        try:
            self._estimate_vector(
                adj, source, {}, self.num_samples, 0, 1.0, counts
            )
        finally:
            self._active_plan = None
        counts[source] = 1.0
        return counts

    # ------------------------------------------------------------------
    # scalar (s-t) recursion
    # ------------------------------------------------------------------
    def _estimate(
        self,
        adj: _Adjacency,
        source: int,
        target: int,
        forced: Dict[EdgeKey, bool],
        budget: int,
        depth: int,
    ) -> float:
        certain = self._certain_region(adj, source, forced)
        if target in certain:
            return 1.0
        if target not in self._potential_region(adj, source, forced):
            return 0.0
        if depth >= self.max_depth or budget < self.mc_threshold:
            return self._monte_carlo(source, target, forced, max(budget, 1))

        strata_edges = self._select_strata_edges(adj, certain, forced)
        if not strata_edges:
            return 0.0  # no undetermined frontier: target unreachable

        estimate = 0.0
        prefix_absent = 1.0
        forced_base = dict(forced)
        for _u, _v, p, key in strata_edges:
            pi = prefix_absent * p
            stratum_forced = dict(forced_base)
            stratum_forced[key] = True
            estimate += pi * self._recurse(
                adj, source, target, stratum_forced, pi, budget, depth
            )
            forced_base[key] = False
            prefix_absent *= 1.0 - p
        if prefix_absent > 0.0:
            estimate += prefix_absent * self._recurse(
                adj, source, target, forced_base, prefix_absent, budget, depth
            )
        return estimate

    def _recurse(
        self,
        adj: _Adjacency,
        source: int,
        target: int,
        forced: Dict[EdgeKey, bool],
        pi: float,
        budget: int,
        depth: int,
    ) -> float:
        allocated = int(round(budget * pi))
        if pi <= 1e-12:
            return 0.0
        allocated = max(allocated, 1)
        if allocated < self.mc_threshold:
            return self._monte_carlo(source, target, forced, allocated)
        return self._estimate(adj, source, target, forced, allocated, depth + 1)

    # ------------------------------------------------------------------
    # vector (reachability-from) recursion
    # ------------------------------------------------------------------
    def _estimate_vector(
        self,
        adj: _Adjacency,
        source: int,
        forced: Dict[EdgeKey, bool],
        budget: int,
        depth: int,
        weight: float,
        out: Dict[int, float],
    ) -> None:
        """Accumulate ``weight * P(node reachable)`` into ``out``."""
        certain = self._certain_region(adj, source, forced)
        if depth >= self.max_depth or budget < self.mc_threshold:
            self._monte_carlo_vector(source, forced, max(budget, 1), weight, out)
            return
        strata_edges = self._select_strata_edges(adj, certain, forced)
        if not strata_edges:
            for node in certain:
                out[node] = out.get(node, 0.0) + weight
            return
        prefix_absent = 1.0
        forced_base = dict(forced)
        for _u, _v, p, key in strata_edges:
            pi = prefix_absent * p
            if pi > 1e-12:
                stratum_forced = dict(forced_base)
                stratum_forced[key] = True
                allocated = max(int(round(budget * pi)), 1)
                if allocated < self.mc_threshold:
                    self._monte_carlo_vector(
                        source, stratum_forced, allocated, weight * pi, out
                    )
                else:
                    self._estimate_vector(
                        adj, source, stratum_forced, allocated,
                        depth + 1, weight * pi, out,
                    )
            forced_base[key] = False
            prefix_absent *= 1.0 - p
        if prefix_absent > 1e-12:
            allocated = max(int(round(budget * prefix_absent)), 1)
            if allocated < self.mc_threshold:
                self._monte_carlo_vector(
                    source, forced_base, allocated, weight * prefix_absent, out
                )
            else:
                self._estimate_vector(
                    adj, source, forced_base, allocated,
                    depth + 1, weight * prefix_absent, out,
                )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _certain_region(
        adj: _Adjacency,
        source: int,
        forced: Dict[EdgeKey, bool],
    ) -> Set[int]:
        """Nodes reachable via forced-present or probability-1 edges."""
        seen = {source}
        frontier = deque([source])
        while frontier:
            u = frontier.popleft()
            for v, p, key in adj.neighbors(u):
                if v in seen:
                    continue
                status = forced.get(key)
                if status is True or (status is None and p >= 1.0):
                    seen.add(v)
                    frontier.append(v)
        return seen

    @staticmethod
    def _potential_region(
        adj: _Adjacency,
        source: int,
        forced: Dict[EdgeKey, bool],
    ) -> Set[int]:
        """Nodes reachable if every undetermined edge were present."""
        seen = {source}
        frontier = deque([source])
        while frontier:
            u = frontier.popleft()
            for v, p, key in adj.neighbors(u):
                if v in seen:
                    continue
                status = forced.get(key)
                if status is False or (status is None and p <= 0.0):
                    continue
                seen.add(v)
                frontier.append(v)
        return seen

    def _select_strata_edges(
        self,
        adj: _Adjacency,
        certain: Set[int],
        forced: Dict[EdgeKey, bool],
    ) -> List[Tuple[int, int, float, EdgeKey]]:
        """Undetermined edges on the certain-region frontier, best first."""
        candidates: Dict[EdgeKey, Tuple[int, int, float, EdgeKey]] = {}
        for u in certain:
            for v, p, key in adj.neighbors(u):
                if v in certain or key in forced or key in candidates:
                    continue
                if 0.0 < p < 1.0:
                    candidates[key] = (u, v, p, key)
        ranked = sorted(candidates.values(), key=lambda item: -item[2])
        return ranked[: self.num_stratify_edges]

    def _monte_carlo(
        self,
        source: int,
        target: int,
        forced: Dict[EdgeKey, bool],
        num_samples: int,
    ) -> float:
        """MC leaf: hit rate conditioned on the stratum's pins."""
        plan = self._active_plan
        batch = engine_batch.sample(plan, num_samples, self._rng, forced)
        return engine_batch.pair_fraction(plan, batch, source, target)

    def _monte_carlo_vector(
        self,
        source: int,
        forced: Dict[EdgeKey, bool],
        num_samples: int,
        weight: float,
        out: Dict[int, float],
    ) -> None:
        """MC leaf: accumulate ``weight`` times conditioned reach rates."""
        plan = self._active_plan
        batch = engine_batch.sample(plan, num_samples, self._rng, forced)
        counts = engine_batch.reach_frequencies(plan, batch, [source])
        for node, fraction in counts.items():
            out[node] = out.get(node, 0.0) + weight * fraction
