"""Individual Top-k baseline (§3.1).

Scores every candidate edge by the reliability gain of adding it *alone*
and returns the ``k`` highest scorers.  Fast but ignores interactions
between the selected edges, which the paper shows costs solution quality
(two edges completing the same path are each worthless alone).

On the per-candidate path this costs one reliability estimate per
candidate — ``O(|candidates| * Z * (n + m))``.  Every registry
estimator instead scores the whole candidate set against one
world batch through the selection-gain kernel
(:mod:`repro.engine.selection`) — two batch-BFS sweeps, then one coin
row + popcount per candidate, with the base batch following the
estimator's sampling scheme (shared i.i.d. worlds for ``mc``/``lazy``,
per-stratum for ``rss``, per-block for ``adaptive``).  Both paths are
stable under ties (equal gains keep candidate order).
"""

from __future__ import annotations

from typing import List, Sequence

from ..graph import UncertainGraph
from ..reliability import ReliabilityEstimator
from .common import Edge, NewEdgeProbability, ProbEdge, selection_kernel_for


def individual_top_k(
    graph: UncertainGraph,
    source: int,
    target: int,
    k: int,
    candidates: Sequence[Edge],
    new_edge_prob: NewEdgeProbability,
    estimator: ReliabilityEstimator,
    kernel=None,
) -> List[ProbEdge]:
    """Top-k candidate edges by *individual* reliability gain.

    ``kernel`` selects the batched gain kernel exactly as in
    :func:`~repro.baselines.hill_climbing.hill_climbing`.
    """
    if k < 1:
        raise ValueError("k must be positive")
    scored_edges: List[ProbEdge] = [
        (u, v, new_edge_prob(u, v)) for u, v in candidates
    ]
    gain_kernel = selection_kernel_for(graph, estimator, kernel)
    if gain_kernel is not None:
        return gain_kernel.top_k(source, target, k, scored_edges)
    base = estimator.reliability(graph, source, target)
    scored: List[tuple] = []
    for u, v, p in scored_edges:
        gain = estimator.reliability(graph, source, target, [(u, v, p)]) - base
        scored.append((gain, u, v, p))
    scored.sort(key=lambda item: -item[0])
    return [(u, v, p) for _, u, v, p in scored[:k]]
