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

The recursion is structure discovery: regions, strata and allocations
never read a leaf's value.  So both recursions only *record* their
Monte Carlo leaves (:class:`_Leaf`), and the leaves are drawn after the
recursion ends, in the order they were recorded, joined into one batch
(:func:`~repro.engine.kernel.concat_batches`) and swept by one
reachability fixpoint.  Worlds are column-independent, so a leaf's word
columns of the joined fixpoint are its own sweep; each leaf reads its
value off its own columns, and the values are combined with the
products and sums of the recursion, in its order.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

import numpy as np

from ..engine import (
    batch_reach,
    build_query_plan,
    concat_batches,
    num_words,
    popcount,
    sample_worlds,
    sample_worlds_stratified,
)
# Leaf draws go through the module so wrappers installed on its globals
# (perfbench/spans.py) see the leaves' sampling.
from ..engine import batch as engine_batch
from ..engine.csr import QueryPlan
from ..graph import UncertainGraph
from .estimator import (
    Overlay,
    ReliabilityEstimator,
    SelectionBackend,
    build_overlay,
)

EdgeKey = Tuple[int, int]


class _Leaf:
    """A Monte Carlo leaf of the stratification tree, recorded by the
    recursion: ``num_samples`` worlds under the stratum's ``pins``.
    An s-t leaf's ``value``, its hit rate, is filled in once the leaves
    are drawn."""

    __slots__ = ("pins", "num_samples", "value")

    def __init__(self, pins: Dict[EdgeKey, bool], num_samples: int) -> None:
        self.pins = pins
        self.num_samples = num_samples
        self.value = 0.0


#: A node of the s-t estimate: a constant, a leaf, or the stratum
#: terms ``(pi, estimate)`` summed from 0.0 in order.
_Estimate = Union[float, _Leaf, List[Tuple[float, "_Estimate"]]]


def _evaluate(estimate: _Estimate) -> float:
    """The float the leaf-at-a-time recursion computed: the same
    products and sums, in the same order."""
    if isinstance(estimate, list):
        total = 0.0
        for pi, part in estimate:
            total += pi * _evaluate(part)
        return total
    if isinstance(estimate, _Leaf):
        return estimate.value
    return estimate


class _Adjacency:
    """Merged view of graph + overlay edges with stable edge keys.

    ``reverse`` walks a directed graph's predecessors but keys each edge
    by its forward identity, so stratum pins name the forward plan's edges.
    """

    def __init__(self, graph: UncertainGraph, extra: Overlay, reverse: bool = False):
        self._reverse = reverse and graph.directed
        self._nbrs = graph.predecessors if self._reverse else graph.successors
        if self._reverse:
            extra = [(v, u, p) for u, v, p in extra or ()]
        self._overlay = build_overlay(graph, extra)
        self._canonical = not graph.directed

    def key(self, u: int, v: int) -> EdgeKey:
        """Forward key of the edge traversed ``u -> v``."""
        if self._reverse or (self._canonical and v < u):
            return (v, u)
        return (u, v)

    def neighbors(self, u: int) -> Iterable[Tuple[int, float, EdgeKey]]:
        for v, p in self._nbrs(u).items():
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
    Not thread-safe: the estimator's generator is shared by its calls.
    A call records its Monte Carlo leaves during the recursion, then
    draws them in recursion order (so the generator advances exactly as
    a leaf-at-a-time draw would) and sweeps them all with one fixpoint.
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
        adj = _Adjacency(graph, None)
        certain = self._region(adj, source, {}, lambda p: p >= 1.0)
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
        adj = _Adjacency(graph, extra)
        leaves: List[_Leaf] = []
        estimate = self._estimate(
            adj, source, target, {}, self.num_samples, 0, leaves
        )
        if leaves:
            hits = self._leaf_hits(
                plan, leaves, source, plan.index_of[target]
            )
            for leaf, count in zip(leaves, hits[0].tolist(), strict=True):
                leaf.value = count / leaf.num_samples
        return _evaluate(estimate)

    def reachability_from(
        self,
        graph: UncertainGraph,
        source: int,
        extra_edges: Overlay = None,
    ) -> Dict[int, float]:
        return self._reach(graph, source, extra_edges)

    def reachability_to(
        self,
        graph: UncertainGraph,
        target: int,
        extra_edges: Overlay = None,
    ) -> Dict[int, float]:
        """The vector recursion over predecessors, with Monte Carlo
        leaves swept over the plan's reverse view."""
        return self._reach(graph, target, extra_edges, reverse=True)

    def _reach(
        self,
        graph: UncertainGraph,
        node: int,
        extra_edges: Overlay,
        reverse: bool = False,
    ) -> Dict[int, float]:
        extra = list(extra_edges) if extra_edges else None
        plan = build_query_plan(graph, extra)
        if plan.node_index(node) is None:
            return {}  # named by neither the graph nor the overlay
        adj = _Adjacency(graph, extra, reverse)
        # The view shares the plan's edge table, hence its coins.
        if reverse:
            plan = plan.reverse_view()
        terms: List[Tuple[float, Union[_Leaf, Set[int]]]] = []
        self._estimate_vector(adj, node, {}, self.num_samples, 0, 1.0, terms)
        leaves = [part for _, part in terms if isinstance(part, _Leaf)]
        columns = iter(self._leaf_hits(plan, leaves, node).T if leaves else ())
        # Sum the terms in recursion order, every node at once: a leaf
        # adds ``weight * (hits / Z_i)`` (0.0 where it never reached the
        # node, which leaves the sum as it is), a certain region adds
        # ``weight`` to its nodes.  Keys come in the order the nodes
        # were first reached: by dense index within a leaf, in set order
        # within a region.
        total = np.zeros(plan.num_nodes)
        seen = np.zeros(plan.num_nodes, dtype=bool)
        order: List[int] = []
        for weight, part in terms:
            if isinstance(part, _Leaf):
                column = next(columns)
                reach = column > 0
                order.extend(np.flatnonzero(reach & ~seen).tolist())
                seen |= reach
                total += weight * (column / part.num_samples)
            else:
                region = [plan.index_of[v] for v in part]
                order.extend(i for i in region if not seen[i])
                seen[region] = True
                total[region] += weight
        node_ids = plan.node_ids
        out = dict(zip(
            [node_ids[i] for i in order], total[order].tolist()
        ))
        out[node] = 1.0
        return out

    def _leaf_hits(
        self,
        plan: QueryPlan,
        leaves: List[_Leaf],
        node: int,
        target_index: Optional[int] = None,
    ) -> np.ndarray:
        """Draw the recorded leaves in order and sweep them all at once.

        Each leaf is one ``engine_batch.sample`` call, so every leaf
        gets the coin base a leaf-at-a-time draw gave it and the
        generator ends in the same state.  The joined batch keeps each
        leaf on its own words; one fixpoint from ``node`` over it
        (stopping early only once ``target_index`` holds every world)
        equals each leaf's own sweep on its columns.  Returns each
        leaf's count of worlds reaching each node, ``(n, leaves)``, or
        only the target's row, ``(1, leaves)``.
        """
        batch = concat_batches([
            engine_batch.sample(plan, leaf.num_samples, self._rng, leaf.pins)
            for leaf in leaves
        ])
        reached = batch_reach(
            plan, batch, [plan.index_of[node]], target_index=target_index
        )
        if target_index is not None:
            reached = reached[target_index:target_index + 1]
        widths = [num_words(leaf.num_samples) for leaf in leaves]
        starts = np.cumsum([0] + widths[:-1])
        return np.add.reduceat(
            popcount(reached), starts, axis=1, dtype=np.int64
        )

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
        leaves: List[_Leaf],
    ) -> _Estimate:
        """The estimate's structure, with its Monte Carlo leaves
        appended to ``leaves`` (see :func:`_evaluate`)."""
        certain = self._region(
            adj, source, forced, lambda p: p >= 1.0, stop=target
        )
        if target in certain:
            return 1.0
        if target not in self._region(
            adj, source, forced, lambda p: p > 0.0, stop=target
        ):
            return 0.0
        if depth >= self.max_depth or budget < self.mc_threshold:
            return self._leaf(leaves, forced, max(budget, 1))

        strata_edges = self._select_strata_edges(adj, certain, forced)
        if not strata_edges:
            return 0.0  # no undetermined frontier: target unreachable

        terms: List[Tuple[float, _Estimate]] = []
        prefix_absent = 1.0
        forced_base = dict(forced)
        for _u, _v, p, key in strata_edges:
            pi = prefix_absent * p
            stratum_forced = dict(forced_base)
            stratum_forced[key] = True
            terms.append((pi, self._recurse(
                adj, source, target, stratum_forced, pi, budget, depth, leaves
            )))
            forced_base[key] = False
            prefix_absent *= 1.0 - p
        if prefix_absent > 0.0:
            terms.append((prefix_absent, self._recurse(
                adj, source, target, forced_base, prefix_absent, budget,
                depth, leaves,
            )))
        return terms

    def _recurse(
        self,
        adj: _Adjacency,
        source: int,
        target: int,
        forced: Dict[EdgeKey, bool],
        pi: float,
        budget: int,
        depth: int,
        leaves: List[_Leaf],
    ) -> _Estimate:
        allocated = int(round(budget * pi))
        if pi <= 1e-12:
            return 0.0
        allocated = max(allocated, 1)
        if allocated < self.mc_threshold:
            return self._leaf(leaves, forced, allocated)
        return self._estimate(
            adj, source, target, forced, allocated, depth + 1, leaves
        )

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
        terms: List[Tuple[float, Union[_Leaf, Set[int]]]],
    ) -> None:
        """Append the terms of ``weight * P(node reachable)`` to
        ``terms``, in the order they are summed: a Monte Carlo leaf's
        reach frequencies, or a certain region (frequency 1)."""
        if depth >= self.max_depth or budget < self.mc_threshold:
            terms.append((weight, _Leaf(forced, max(budget, 1))))
            return
        certain = self._region(adj, source, forced, lambda p: p >= 1.0)
        strata_edges = self._select_strata_edges(adj, certain, forced)
        if not strata_edges:
            terms.append((weight, certain))
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
                    terms.append(
                        (weight * pi, _Leaf(stratum_forced, allocated))
                    )
                else:
                    self._estimate_vector(
                        adj, source, stratum_forced, allocated,
                        depth + 1, weight * pi, terms,
                    )
            forced_base[key] = False
            prefix_absent *= 1.0 - p
        if prefix_absent > 1e-12:
            allocated = max(int(round(budget * prefix_absent)), 1)
            if allocated < self.mc_threshold:
                terms.append(
                    (weight * prefix_absent, _Leaf(forced_base, allocated))
                )
            else:
                self._estimate_vector(
                    adj, source, forced_base, allocated,
                    depth + 1, weight * prefix_absent, terms,
                )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _region(
        adj: _Adjacency,
        source: int,
        forced: Dict[EdgeKey, bool],
        unpinned: Callable[[float], bool],
        stop: Optional[int] = None,
    ) -> Set[int]:
        """Nodes reached from ``source`` over edges pinned present or,
        unpinned, passing ``unpinned(p)``: ``p >= 1`` gives the certain
        region, ``p > 0`` the region every undetermined edge could open.

        The walk ends as soon as it reaches ``stop``, so a partial set
        is returned only when it holds ``stop``."""
        seen = {source}
        frontier = deque([source])
        while frontier:
            u = frontier.popleft()
            for v, p, key in adj.neighbors(u):
                if v not in seen and forced.get(key, unpinned(p)):
                    seen.add(v)
                    if v == stop:
                        return seen
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

    @staticmethod
    def _leaf(
        leaves: List[_Leaf], forced: Dict[EdgeKey, bool], num_samples: int
    ) -> _Leaf:
        """Record an s-t Monte Carlo leaf under the stratum's pins."""
        leaf = _Leaf(forced, num_samples)
        leaves.append(leaf)
        return leaf
