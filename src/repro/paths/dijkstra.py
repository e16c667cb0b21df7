"""Most reliable paths via Dijkstra on ``-log p`` weights.

The probability of a path is the product of its edge probabilities, so
the most reliable path (Eq. 5) is the shortest path under the additive
weight ``w(e) = -log p(e)`` — non-negative because ``p(e) <= 1``.

Every routine supports an ``extra_edges`` overlay so candidate edges can
be searched without copying the graph.  Every search runs one body,
:func:`_search`, over the ``-log p`` rows of one call (:class:`_Rows`):
a node's row is built the first time the node is settled and reused by
every later search of the same call, such as Yen's spur searches.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Collection, Dict, List, Optional, Sequence, Set, Tuple

from ..analysis import sanitize
from ..graph import UncertainGraph
from ..reliability.estimator import Overlay, ProbEdge

Path = List[int]
Row = List[Tuple[int, float]]

#: Relative slack on a guided search's bound.  The bound and the
#: estimates it is compared with are float sums taken in different
#: orders, so an estimate on a shortest path can exceed the bound by a
#: few rounding steps (without the slack, tie-prone inputs do show it);
#: 1e-9 covers the rounding of paths of millions of hops.  A larger
#: slack only skips less.
_SLACK = 1e-9


class _Rows:
    """``-log p`` adjacency of the graph plus an overlay, for one call.

    ``rows(u)`` lists ``(v, -log p)`` for the graph's neighbours of
    ``u`` first, then the overlay's, in the order the graph and the
    overlay give them; entries with ``p <= 0`` (or NaN) are dropped, as
    no search could ever relax them.  Each row is built once, on first
    use, and kept for the rest of the call — never on the graph.
    """

    __slots__ = ("graph", "extra", "reverse", "_overlay", "_built")

    def __init__(
        self,
        graph: UncertainGraph,
        extra: List[ProbEdge],
        reverse: bool = False,
    ) -> None:
        self.graph = graph
        self.extra = extra
        self.reverse = reverse and graph.directed
        self._overlay: Optional[Dict[int, Row]] = None
        self._built: Dict[int, Row] = {}

    def __call__(self, u: int) -> Row:
        row = self._built.get(u)
        if row is None:
            if self._overlay is None:
                self._overlay = self._overlay_rows()
            graph = self.graph
            neighbors = graph.predecessors(u) if self.reverse else graph.successors(u)
            row = [(v, -math.log(p)) for v, p in neighbors.items() if p > 0.0]
            overlay = self._overlay.get(u)
            if overlay:
                row += overlay
            self._built[u] = row
        return row

    def _overlay_rows(self) -> Dict[int, Row]:
        """The overlay's part of every row, in overlay order (the
        order :func:`~repro.reliability.estimator.build_overlay` gives)."""
        rows: Dict[int, Row] = {}
        weights: Dict[float, float] = {}  # candidates mostly share one p
        reverse, both = self.reverse, not self.graph.directed
        for u, v, p in self.extra:
            w = weights.get(p)
            if w is None:
                if not p > 0.0:
                    continue
                w = weights[p] = -math.log(p)
            if reverse:
                u, v = v, u
            rows.setdefault(u, []).append((v, w))
            if both:
                rows.setdefault(v, []).append((u, w))
        return rows

    @classmethod
    def for_call(cls, graph: UncertainGraph, extra_edges: Overlay) -> "_Rows":
        """The rows of one public call.  Checks the overlay's
        probabilities once when the sanitizer is on: a ``p > 1`` edge
        is a negative weight, which no shortest-path search handles."""
        extra = list(extra_edges) if extra_edges else []
        if extra and sanitize.enabled():
            sanitize.check_probabilities(
                [p for _, _, p in extra], "paths: overlay probs"
            )
        return cls(graph, extra)

    def reversed(self) -> "_Rows":
        """Rows of the same call with every arc flipped (``self`` when
        the graph is undirected, whose rows are their own reverse)."""
        if not self.graph.directed:
            return self
        return _Rows(self.graph, self.extra, reverse=not self.reverse)


class _Guide:
    """Reverse shortest-path tree into ``target`` over ``G+``.

    ``dist[v]`` is the ``-log`` distance from ``v`` to ``target`` with
    nothing banned and ``succ[v]`` the next hop on that tree path.  A
    node missing from ``dist`` cannot reach the target at all.  Bans
    only remove arcs, so ``dist[v]`` bounds every banned search's
    remaining distance from below; a tree path that meets no ban is a
    walk the banned search could take, so it bounds from above.
    """

    __slots__ = ("target", "dist", "succ")

    def __init__(self, rows: _Rows, target: int) -> None:
        self.target = target
        self.dist, self.succ = _search(rows.reversed(), target)

    def clear(
        self,
        v: int,
        banned_nodes: Collection[int],
        banned_edges: Collection[Tuple[int, int]],
    ) -> bool:
        """Whether ``v``'s tree path to the target meets no ban."""
        succ, target = self.succ, self.target
        while v != target:
            if v in banned_nodes:
                return False
            hop = succ[v]
            if (v, hop) in banned_edges:
                return False
            v = hop
        return True


def _search(
    rows: _Rows,
    source: int,
    target: Optional[int] = None,
    banned_nodes: Collection[int] = (),
    banned_edges: Collection[Tuple[int, int]] = (),
    guide: Optional[_Guide] = None,
) -> Tuple[Dict[int, float], Dict[int, int]]:
    """Dijkstra from ``source``; returns ``(dist, parent)``.

    Pops in ``(d, node)`` order, stops once ``target`` is popped, and
    sets a parent only on a strict improvement.  ``banned_nodes`` are
    never entered and ``banned_edges`` (hops ``(u, v)`` as traversed)
    never taken.

    With a ``guide`` the search also skips a relaxation into ``v``
    when ``v`` cannot reach the target, or when ``d + w + h(v)``
    exceeds (by more than :data:`_SLACK`) the best bound ``d(x) +
    h(x)`` seen so far at a relaxed node ``x`` whose tree path meets no
    ban.  A skipped relaxation pushes nothing and sets no parent, but
    still lowers ``dist[v]``: a later relaxation into ``v`` that is no
    better would be skipped too (the bound only falls), so it fails the
    first test.  No relaxation on a shortest path is ever skipped and
    the pop order is unchanged, so the path, its weight and every
    tie-break are those of the unguided search; only work off the
    shortest paths goes.  ``parent`` holds exactly the pushed nodes.
    """
    dist: Dict[int, float] = {source: 0.0}
    parent: Dict[int, int] = {}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    visited: Set[int] = set()
    inf = bound = limit = math.inf
    if guide is not None:
        to_target = guide.dist
    while heap:
        d, u = heappop(heap)
        if u in visited:
            continue
        if u == target:
            break
        visited.add(u)
        for v, w in rows(u):
            nd = d + w
            if (
                nd < dist.get(v, inf)
                and v not in visited
                and v not in banned_nodes
                and (u, v) not in banned_edges
            ):
                dist[v] = nd
                if guide is not None:
                    h = to_target.get(v)
                    if h is None:
                        continue
                    estimate = nd + h
                    if estimate > limit:
                        continue
                    if estimate < bound and guide.clear(v, banned_nodes, banned_edges):
                        bound = estimate
                        limit = bound + bound * _SLACK
                parent[v] = u
                heappush(heap, (nd, v))
    return dist, parent


def _best_path(
    rows: _Rows,
    source: int,
    target: int,
    banned_nodes: Collection[int] = (),
    banned_edges: Collection[Tuple[int, int]] = (),
    guide: Optional[_Guide] = None,
) -> Tuple[Optional[Path], float]:
    """:func:`most_reliable_path` over the rows of the current call."""
    if source == target:
        return [source], 1.0
    graph = rows.graph
    if source not in graph or (target not in graph and not rows.extra):
        return None, 0.0
    dist, parent = _search(rows, source, target, banned_nodes, banned_edges, guide)
    if target not in parent:
        return None, 0.0
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path, math.exp(-dist[target])


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
    return _best_path(
        _Rows.for_call(graph, extra_edges), source, target,
        forbidden_nodes or (), forbidden_edges or (),
    )


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
    rows = _Rows.for_call(graph, extra_edges)
    dist, _ = _search(rows.reversed() if reverse else rows, source)
    return {node: math.exp(-d) for node, d in dist.items()}
