"""Top-k edge selection along most reliable paths (§5.2).

Two selectors over the pruned path set:

* :func:`individual_path_selection` (IP, Algorithm 5) — greedily include
  whole paths, one per round, maximizing the reliability of the subgraph
  induced by the chosen paths.
* :func:`batch_selection` (BE, Algorithm 6 + §5.2.2) — group paths that
  need the same candidate edges into *batches*, include one batch per
  round, score batches by marginal gain **normalized by the number of
  genuinely new edges**, and activate for free every batch whose
  candidate edges are already covered.  BE is the paper's ultimate
  method.

Both evaluate reliability only on the small subgraph induced by the
selected paths (Problem 3's objective ``R(s, t, P1)``), which is what
makes them orders of magnitude faster than hill climbing.

BE's greedy loop, :func:`batch_greedy`, takes the objective as a
callable: :func:`batch_selection` passes ``R(s, t, P1)`` and the
multiple-source-target solver (:mod:`repro.core.multi`, §6.1) passes
the average reliability over its ``(s, t)`` pairs.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..graph import UncertainGraph
from ..reliability import ReliabilityEstimator
from ..baselines.common import Edge, ProbEdge
from .search_space import PathInfo, PathSet


def path_subgraph(
    graph: UncertainGraph,
    paths: Sequence[PathInfo],
    candidate_probs: Dict[Edge, float],
    endpoints: Iterable[int],
) -> Tuple[UncertainGraph, List[ProbEdge]]:
    """The subgraph induced by ``paths`` and its candidate-edge overlay.

    ``endpoints`` are added as nodes, so queries on them stay valid
    when no path touches them.
    """
    existing: Set[Edge] = set()
    needed: Set[Edge] = set()
    for path in paths:
        existing.update(path.existing_edges)
        needed.update(path.candidate_edges)
    sub = graph.edge_subgraph(existing)
    for node in endpoints:
        sub.add_node(node)
    return sub, [(u, v, candidate_probs[(u, v)]) for u, v in needed]


def _evaluate_path_set(
    graph: UncertainGraph,
    source: int,
    target: int,
    paths: Sequence[PathInfo],
    candidate_probs: Dict[Edge, float],
    estimator: ReliabilityEstimator,
) -> float:
    """``R(s, t, P1)`` — reliability on the subgraph induced by ``paths``."""
    if not paths:
        return 0.0
    sub, overlay = path_subgraph(
        graph, paths, candidate_probs, (source, target)
    )
    return estimator.reliability(sub, source, target, overlay)


def individual_path_selection(
    graph: UncertainGraph,
    source: int,
    target: int,
    k: int,
    path_set: PathSet,
    estimator: ReliabilityEstimator,
) -> List[ProbEdge]:
    """Algorithm 5: greedy per-path inclusion under the k-edge budget."""
    if k < 1:
        raise ValueError("k must be positive")
    candidate_probs = {(u, v): p for u, v, p in path_set.surviving_candidates}
    chosen: List[PathInfo] = [p for p in path_set.paths if not p.candidate_edges]
    remaining: List[PathInfo] = [p for p in path_set.paths if p.candidate_edges]
    selected_edges: Set[Edge] = set()

    while len(selected_edges) < k and remaining:
        best_path: Optional[PathInfo] = None
        best_value = -1.0
        for path in remaining:
            if len(selected_edges | path.candidate_edges) > k:
                continue
            value = _evaluate_path_set(
                graph, source, target, [*chosen, path], candidate_probs, estimator
            )
            if value > best_value:
                best_value = value
                best_path = path
        if best_path is None:
            break
        chosen.append(best_path)
        selected_edges |= best_path.candidate_edges
        remaining = [
            p for p in remaining
            if p is not best_path
            and len(selected_edges | p.candidate_edges) <= k
        ]
    return [(u, v, candidate_probs[(u, v)]) for u, v in sorted(selected_edges)]


def build_path_batches(paths: Sequence[PathInfo]) -> Dict[FrozenSet[Edge], List[PathInfo]]:
    """Algorithm 6: group paths by their candidate-edge label."""
    batches: Dict[FrozenSet[Edge], List[PathInfo]] = {}
    for path in paths:
        batches.setdefault(path.candidate_edges, []).append(path)
    return batches


def batch_greedy(
    paths: Sequence[PathInfo],
    k: int,
    objective: Callable[[List[PathInfo]], float],
    candidate_probs: Dict[Edge, float],
    normalize: bool = True,
) -> List[ProbEdge]:
    """BE's batch-at-a-time greedy over ``objective(paths) -> float``.

    Paths are grouped into batches by candidate-edge label
    (:func:`build_path_batches`); unlabeled paths are chosen up front.
    Every round activates for free the batches whose labels are already
    covered, then evaluates each feasible batch *together with* all
    batches it would activate (label a subset of the would-be selected
    edges) and includes the one with the best marginal gain divided by
    its number of new edges (``normalize=False``: the raw gain).  First
    maximum wins ties.
    """
    batches = build_path_batches(paths)
    chosen: List[PathInfo] = list(batches.pop(frozenset(), []))
    selected_edges: Set[Edge] = set()
    current_value = objective(chosen)

    while len(selected_edges) < k and batches:
        # Batches already fully covered by selected edges come for free.
        free_labels = [
            label for label in batches if label <= selected_edges
        ]
        for label in free_labels:
            chosen.extend(batches.pop(label))
        if free_labels:
            current_value = objective(chosen)
        best_label: Optional[FrozenSet[Edge]] = None
        best_norm_gain = float("-inf")
        best_value = current_value
        best_activated: List[FrozenSet[Edge]] = []
        for label in batches:
            new_edges = label - selected_edges
            if not new_edges or len(selected_edges) + len(new_edges) > k:
                continue
            would_have = selected_edges | new_edges
            activated = [
                other for other in batches
                if other != label and other <= would_have
            ]
            trial_paths = list(chosen) + list(batches[label])
            for other in activated:
                trial_paths.extend(batches[other])
            value = objective(trial_paths)
            divisor = len(new_edges) if normalize else 1
            norm_gain = (value - current_value) / divisor
            if norm_gain > best_norm_gain:
                best_norm_gain = norm_gain
                best_label = label
                best_value = value
                best_activated = activated
        if best_label is None:
            break
        selected_edges |= best_label
        chosen.extend(batches.pop(best_label))
        for other in best_activated:
            chosen.extend(batches.pop(other))
        current_value = best_value
    return [(u, v, candidate_probs[(u, v)]) for u, v in sorted(selected_edges)]


def batch_selection(
    graph: UncertainGraph,
    source: int,
    target: int,
    k: int,
    path_set: PathSet,
    estimator: ReliabilityEstimator,
    normalize: bool = True,
) -> List[ProbEdge]:
    """BE (§5.2.2): :func:`batch_greedy` on ``R(s, t, P1)``.

    ``normalize=False`` disables the per-new-edge normalization
    (ablation: reverts the scoring to Example 3's "raw gain" variant,
    which prefers the individually-best path batch).
    """
    if k < 1:
        raise ValueError("k must be positive")
    candidate_probs = {(u, v): p for u, v, p in path_set.surviving_candidates}
    return batch_greedy(
        path_set.paths,
        k,
        lambda paths: _evaluate_path_set(
            graph, source, target, paths, candidate_probs, estimator
        ),
        candidate_probs,
        normalize,
    )
