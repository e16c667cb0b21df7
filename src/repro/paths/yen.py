"""Top-l most reliable simple paths (Yen's algorithm).

The paper extracts the top-l most reliable s-t paths from the
candidate-augmented graph (§5.1.2, citing Eppstein).  Eppstein's
algorithm allows non-simple paths; for reliability only *simple* paths
matter (revisiting a node never raises the product), so we use Yen's
k-shortest *simple* paths on the ``-log p`` weighting — the standard
choice in the uncertain-graph literature the paper builds on [20]-[22].

Every search of one call shares its ``-log p`` rows, and every spur
search is guided by one reverse search from the target
(:class:`~repro.paths.dijkstra._Guide`), which skips only work off the
shortest spur paths: the paths, probabilities and tie-breaks are those
of unguided spur searches.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Dict, List, Optional, Set, Tuple

from ..graph import UncertainGraph
from ..reliability.estimator import Overlay
from .dijkstra import _best_path, _Guide, _Rows, path_probability

Path = List[int]


def _overlay_probs(
    graph: UncertainGraph,
    extra_edges: Overlay,
) -> Dict[Tuple[int, int], float]:
    """The largest overlay probability of each hop (entries with
    ``p <= 0``, which no search relaxes, left out)."""
    probs: Dict[Tuple[int, int], float] = {}
    if extra_edges:
        for u, v, p in extra_edges:
            hops = [(u, v)] if graph.directed else [(u, v), (v, u)]
            for hop in hops:
                if p > probs.get(hop, 0.0):
                    probs[hop] = p
    return probs


def top_l_most_reliable_paths(
    graph: UncertainGraph,
    source: int,
    target: int,
    l: int,
    extra_edges: Overlay = None,
) -> List[Tuple[Path, float]]:
    """Up to ``l`` most reliable simple paths, most reliable first.

    Paths with zero probability are never returned.  ``extra_edges``
    triples participate exactly like graph edges.
    """
    if l < 1:
        raise ValueError("l must be positive")
    rows = _Rows.for_call(graph, extra_edges)

    first_path, first_prob = _best_path(rows, source, target)
    if first_path is None or first_prob <= 0.0:
        return []

    found: List[Tuple[Path, float]] = [(first_path, first_prob)]
    # Candidate heap entries: (weight, path); weight = -log prob.
    candidates: List[Tuple[float, Path]] = []
    seen_candidates: Set[Tuple[int, ...]] = {tuple(first_path)}
    # One reverse search from the target bounds every spur search of
    # the call; l = 1 runs no spur search, so it builds none.
    guide = _Guide(rows, target) if l > 1 else None
    extra_probs: Optional[Dict[Tuple[int, int], float]] = None

    while len(found) < l:
        prev_path = found[-1][0]
        for i in range(len(prev_path) - 1):
            spur_node = prev_path[i]
            root = prev_path[: i + 1]
            banned_edges: Set[Tuple[int, int]] = set()
            for path, _ in found:
                if len(path) > i and path[: i + 1] == root:
                    banned_edges.add((path[i], path[i + 1]))
                    if not graph.directed:
                        banned_edges.add((path[i + 1], path[i]))
            banned_nodes = set(root[:-1])
            spur_path, spur_prob = _best_path(
                rows, spur_node, target, banned_nodes, banned_edges, guide
            )
            if spur_path is None or spur_prob <= 0.0:
                continue
            total_path = root[:-1] + spur_path
            key = tuple(total_path)
            if key in seen_candidates:
                continue
            seen_candidates.add(key)
            if extra_probs is None:
                extra_probs = _overlay_probs(graph, rows.extra)
            prob = path_probability(graph, total_path, extra_probs)
            if prob <= 0.0:
                continue
            heappush(candidates, (-math.log(prob), total_path))
        if not candidates:
            break
        weight, best = heappop(candidates)
        found.append((best, math.exp(-weight)))
    # The first probability is exp of a Dijkstra -log sum and the rest
    # exp(log(product)), so two equally reliable paths can come out one
    # rounding step out of order; the stable sort moves only those.
    found.sort(key=lambda item: item[1], reverse=True)
    return found
