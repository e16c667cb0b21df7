"""Most reliable paths via Dijkstra on ``-log p`` weights.

The probability of a path is the product of its edge probabilities, so
the most reliable path (Eq. 5) is the shortest path under the additive
weight ``w(e) = -log p(e)`` — non-negative because ``p(e) <= 1``.

Every routine supports an ``extra_edges`` overlay so candidate edges can
be searched without copying the graph.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..graph import UncertainGraph
from ..reliability.estimator import Overlay, build_overlay

Path = List[int]


def path_probability(graph: UncertainGraph, path: Sequence[int],
                     extra_probs: Optional[Dict[Tuple[int, int], float]] = None) -> float:
    """Product of edge probabilities along ``path``.

    ``extra_probs`` supplies probabilities for edges that are not in the
    graph (candidate edges); keys may be given in either orientation for
    undirected graphs.
    """
    prob = 1.0
    for u, v in zip(path, path[1:], strict=False):
        if graph.has_edge(u, v):
            prob *= graph.probability(u, v)
        elif extra_probs is not None:
            if (u, v) in extra_probs:
                prob *= extra_probs[(u, v)]
            elif not graph.directed and (v, u) in extra_probs:
                prob *= extra_probs[(v, u)]
            else:
                raise KeyError(f"edge ({u}, {v}) on path but not in graph/extras")
        else:
            raise KeyError(f"edge ({u}, {v}) on path but not in graph")
    return prob


def most_reliable_path(
    graph: UncertainGraph,
    source: int,
    target: int,
    extra_edges: Overlay = None,
    forbidden_nodes: Optional[Set[int]] = None,
    forbidden_edges: Optional[Set[Tuple[int, int]]] = None,
) -> Tuple[Optional[Path], float]:
    """The single most reliable path and its probability.

    Returns ``(None, 0.0)`` when no path with positive probability
    exists.  ``forbidden_nodes``/``forbidden_edges`` support Yen's spur
    computations; forbidden edges are direction-sensitive keys as
    traversed (``(u, v)`` means the hop u→v is banned).
    """
    if source == target:
        return [source], 1.0
    if source not in graph or (target not in graph and not extra_edges):
        return None, 0.0
    overlay = build_overlay(graph, extra_edges)
    banned_nodes = forbidden_nodes or ()
    banned_edges = forbidden_edges or ()
    dist: Dict[int, float] = {source: 0.0}
    parent: Dict[int, int] = {}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    visited: Set[int] = set()
    while heap:
        d, u = heappop(heap)
        if u in visited:
            continue
        if u == target:
            break
        visited.add(u)
        neighbors: List[Tuple[int, float]] = list(graph.successors(u).items())
        if overlay and u in overlay:
            neighbors.extend(overlay[u])
        for v, p in neighbors:
            if v in visited or v in banned_nodes or p <= 0.0:
                continue
            if (u, v) in banned_edges:
                continue
            nd = d - math.log(p)
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                parent[v] = u
                heappush(heap, (nd, v))
    if target not in dist:
        return None, 0.0
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path, math.exp(-dist[target])


def reliability_dijkstra_all(
    graph: UncertainGraph,
    source: int,
    extra_edges: Overlay = None,
    reverse: bool = False,
) -> Dict[int, float]:
    """Most-reliable-path probability from ``source`` to every node.

    With ``reverse=True`` the graph's edges are traversed backwards, so
    the result is the best path probability *to* ``source`` from every
    node — a deterministic proxy for reliability-to-target used by tests
    and by fast heuristics.
    """
    if source not in graph:
        return {}
    neighbor_fn = graph.successors
    if reverse and graph.directed:
        neighbor_fn = graph.predecessors
        extra_edges = [(v, u, p) for u, v, p in extra_edges or ()]
    overlay = build_overlay(graph, extra_edges)
    dist: Dict[int, float] = {source: 0.0}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    visited: Set[int] = set()
    while heap:
        d, u = heappop(heap)
        if u in visited:
            continue
        visited.add(u)
        neighbors = list(neighbor_fn(u).items())
        if overlay and u in overlay:
            neighbors.extend(overlay[u])
        for v, p in neighbors:
            if v in visited or p <= 0.0:
                continue
            nd = d - math.log(p)
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heappush(heap, (nd, v))
    return {node: math.exp(-d) for node, d in dist.items()}
