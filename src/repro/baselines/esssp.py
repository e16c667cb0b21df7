"""ESSSP baseline: expected-shortest-path-length minimization.

Adaptation of Parotsidis et al., "Centrality-Aware Link Recommendations"
(WSDM 2016), which the paper uses as a multi-source-target competitor:
add ``k`` edges minimizing the sum of expected shortest path lengths over
all source-target pairs.

Expected path length over an uncertain edge is modeled as ``1 / p`` (the
expected number of trials until the edge materializes), so short
low-uncertainty routes are preferred.  Each greedy round evaluates every
candidate edge ``(u, v)`` by the total improvement
``sum max(0, d(s,t) - [d(s,u) + 1/zeta + d(v,t)])`` using Dijkstra
distance maps from every source and to every target.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Dict, List, Sequence, Tuple

from ..graph import UncertainGraph
from .common import Edge, NewEdgeProbability, ProbEdge


def _expected_length_dijkstra(
    graph: UncertainGraph,
    source: int,
    extra: List[ProbEdge],
    reverse: bool = False,
) -> Dict[int, float]:
    """Dijkstra with weights ``1 / p`` over graph plus accepted edges."""
    adjacency: Dict[int, List[Tuple[int, float]]] = {}

    def add(u: int, v: int, p: float) -> None:
        if p <= 0.0:
            return
        adjacency.setdefault(u, []).append((v, 1.0 / p))

    for u, v, p in [*graph.edges(), *extra]:
        if reverse:
            u, v = v, u
        add(u, v, p)
        if not graph.directed:
            add(v, u, p)

    dist = {source: 0.0}
    heap = [(0.0, source)]
    done = set()
    while heap:
        d, u = heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in adjacency.get(u, ()):
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heappush(heap, (nd, v))
    return dist


def esssp_selection(
    graph: UncertainGraph,
    sources: Sequence[int],
    targets: Sequence[int],
    k: int,
    candidates: Sequence[Edge],
    new_edge_prob: NewEdgeProbability,
) -> List[ProbEdge]:
    """Greedy k-round expected-shortest-path-length reduction."""
    if k < 1:
        raise ValueError("k must be positive")
    selected: List[ProbEdge] = []
    remaining = list(candidates)
    for _ in range(k):
        if not remaining:
            break
        from_source = {
            s: _expected_length_dijkstra(graph, s, selected) for s in sources
        }
        to_target = {
            t: _expected_length_dijkstra(graph, t, selected, reverse=True)
            for t in targets
        }
        best_index, best_score = -1, -math.inf
        for index, (u, v) in enumerate(remaining):
            p = new_edge_prob(u, v)
            if p <= 0.0:
                continue
            w_new = 1.0 / p
            score = 0.0
            for s in sources:
                d_su = from_source[s].get(u, math.inf)
                if math.isinf(d_su):
                    continue
                for t in targets:
                    d_vt = to_target[t].get(v, math.inf)
                    if math.isinf(d_vt):
                        continue
                    d_old = from_source[s].get(t, math.inf)
                    d_new = d_su + w_new + d_vt
                    if d_new < d_old:
                        if math.isinf(d_old):
                            # Newly connecting a pair dominates any
                            # shortening of an already-connected pair.
                            improvement = 1e6 / (1.0 + d_new)
                        else:
                            improvement = d_old - d_new
                        score += improvement
            if score > best_score:
                best_score = score
                best_index = index
        if best_index < 0:
            best_index = 0  # nothing scores: spend budget arbitrarily
        u, v = remaining.pop(best_index)
        selected.append((u, v, new_edge_prob(u, v)))
    return selected
