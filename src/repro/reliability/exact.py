"""Exact s-t reliability.

Exact computation is #P-complete (Valiant 1979; Ball 1986) so these
routines only scale to small graphs.  They exist to (a) validate the
sampling estimators in tests, (b) power the paper's Figure 2 / Figure 3 /
Table 2 worked examples, and (c) drive the exhaustive Exact Solution
baseline (Table 11) on the Intel-Lab-sized network.

Two algorithms are provided:

* :func:`exact_reliability` — recursive *factoring* (conditioning on one
  edge at a time) with relevance pruning and certain-path early exit;
  practical up to a few dozen relevant edges.
* :func:`exact_reliability_by_enumeration` — brute-force possible-world
  enumeration; only for ~20 edges, used to cross-check the factoring
  implementation.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Optional, Set, Tuple

from ..graph import UncertainGraph
from .estimator import Overlay, ReliabilityEstimator


def _reachable(
    start: int,
    neighbors: Callable[[int], Dict[int, float]],
    usable: Callable[[float], bool],
) -> Set[int]:
    """Nodes BFS reaches from ``start`` over ``neighbors(u)`` entries
    ``(v, p)`` whose probability passes ``usable(p)``."""
    seen = {start}
    frontier = deque([start])
    while frontier:
        u = frontier.popleft()
        for v, p in neighbors(u).items():
            if v not in seen and usable(p):
                seen.add(v)
                frontier.append(v)
    return seen


def exact_reliability(
    graph: UncertainGraph,
    source: int,
    target: int,
    extra_edges: Overlay = None,
    max_edges: int = 64,
) -> float:
    """Exact ``R(source, target)`` by recursive edge factoring.

    ``R = p(e) * R(G | e present) + (1 - p(e)) * R(G | e absent)``

    At every step the graph is pruned to edges that lie on some
    source→target path, and the recursion exits early once a
    probability-1 path exists.  ``max_edges`` guards against accidentally
    factoring a graph that is too large (raises ``ValueError``).
    """
    if source == target:
        return 1.0
    work = graph.copy() if extra_edges is None else graph.with_edges(extra_edges)
    if source not in work or target not in work:
        return 0.0  # overlay endpoints count as nodes
    relevant = _relevant_subgraph(work, source, target)
    if relevant is None:
        return 0.0
    if relevant.num_edges > max_edges:
        raise ValueError(
            f"graph has {relevant.num_edges} relevant edges; factoring is "
            f"limited to {max_edges} (pass max_edges= to override)"
        )
    return _factor(relevant, source, target)


def _relevant_subgraph(
    graph: UncertainGraph,
    source: int,
    target: int,
) -> Optional[UncertainGraph]:
    """Subgraph of edges on some s→t path with p > 0; None if disconnected."""
    fwd = _reachable(source, graph.successors, lambda p: p > 0.0)
    if target not in fwd:
        return None
    keep = fwd & _reachable(target, graph.predecessors, lambda p: p > 0.0)
    keep.add(source)
    keep.add(target)
    sub = UncertainGraph(directed=graph.directed)
    sub.add_node(source)
    sub.add_node(target)
    for u, v, p in graph.edges():
        if p > 0.0 and u in keep and v in keep:
            sub.add_edge(u, v, p)
    return sub


def _factor(graph: UncertainGraph, source: int, target: int) -> float:
    """Recursive factoring on a pre-pruned graph."""
    sure = _reachable(source, graph.successors, lambda p: p >= 1.0)
    if target in sure:
        return 1.0
    # Pick an uncertain edge leaving the certain region (guaranteed to
    # exist: target is reachable with p > 0 but not certainly).
    pivot: Optional[Tuple[int, int, float]] = None
    for u in sure:
        for v, p in graph.successors(u).items():
            if p < 1.0 and (v not in sure):
                pivot = (u, v, p)
                break
        if pivot:
            break
    if pivot is None:
        return 0.0
    u, v, p = pivot

    present = graph.copy()
    present.set_probability(u, v, 1.0)
    prob_present = _factor_pruned(present, source, target)

    absent = graph.copy()
    absent.remove_edge(u, v)
    prob_absent = _factor_pruned(absent, source, target)

    return p * prob_present + (1.0 - p) * prob_absent


def _factor_pruned(graph: UncertainGraph, source: int, target: int) -> float:
    sub = _relevant_subgraph(graph, source, target)
    if sub is None:
        return 0.0
    return _factor(sub, source, target)


def exact_reliability_by_enumeration(
    graph: UncertainGraph,
    source: int,
    target: int,
    extra_edges: Overlay = None,
) -> float:
    """Brute-force Eq. 2: sum of world probabilities where t is reachable."""
    if source == target:
        return 1.0
    work = graph.copy() if extra_edges is None else graph.with_edges(extra_edges)
    if source not in work or target not in work:
        return 0.0
    total = 0.0
    for present, prob in work.possible_worlds():
        if _world_reaches(work, present, source, target):
            total += prob
    return total


def _world_reaches(
    graph: UncertainGraph,
    present: Set[Tuple[int, int]],
    source: int,
    target: int,
) -> bool:
    adjacency: Dict[int, list] = {}
    for u, v in present:
        adjacency.setdefault(u, []).append(v)
        if not graph.directed:
            adjacency.setdefault(v, []).append(u)
    seen = {source}
    frontier = deque([source])
    while frontier:
        u = frontier.popleft()
        for v in adjacency.get(u, ()):
            if v == target:
                return True
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return target in seen


class ExactEstimator(ReliabilityEstimator):
    """Estimator facade over :func:`exact_reliability`.

    Lets the selection algorithms run with *exact* reliability on small
    graphs — used by tests and the worked-example benchmarks.
    """

    name = "exact"

    def __init__(self, max_edges: int = 64) -> None:
        self.max_edges = max_edges

    def reliability(
        self,
        graph: UncertainGraph,
        source: int,
        target: int,
        extra_edges: Overlay = None,
    ) -> float:
        return exact_reliability(
            graph, source, target, extra_edges, max_edges=self.max_edges
        )

    def reachability_from(
        self,
        graph: UncertainGraph,
        source: int,
        extra_edges: Overlay = None,
    ) -> Dict[int, float]:
        return self._nonzero(graph, extra_edges, lambda node: (source, node))

    def reachability_to(
        self,
        graph: UncertainGraph,
        target: int,
        extra_edges: Overlay = None,
    ) -> Dict[int, float]:
        """``R(v, target)`` for every node ``v``."""
        if not graph.directed:  # R(v, t) = R(t, v)
            return self.reachability_from(graph, target, extra_edges)
        return self._nonzero(graph, extra_edges, lambda node: (node, target))

    def _nonzero(
        self,
        graph: UncertainGraph,
        extra_edges: Overlay,
        pair: Callable[[int], Tuple[int, int]],
    ) -> Dict[int, float]:
        """Each node's reliability over ``pair(node)`` where non-zero."""
        extra = list(extra_edges) if extra_edges else None
        # Overlay-only endpoints are nodes too (appended after the
        # graph's own nodes).
        nodes = graph.with_edges(extra).nodes() if extra else graph.nodes()
        result = {}
        for node in nodes:
            value = self.reliability(graph, *pair(node), extra)
            if value > 0.0:
                result[node] = value
        return result
