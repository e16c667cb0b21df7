"""High-level vectorized sampling engine.

:class:`VectorizedSamplingEngine` is the estimator-facing surface of the
engine: it owns a seeded :class:`numpy.random.Generator`, compiles (or
reuses the cached compilation of) the query plan, samples a batch of
possible worlds, and reduces reached-bitmasks into the estimates the
:class:`~repro.reliability.estimator.ReliabilityEstimator` interface
promises.

Statistical contract: every method is an unbiased possible-world Monte
Carlo estimate with one coin per canonical edge per world.  Each batch
draws a uint64 base from the engine's PCG64 generator and expands it
through identity-keyed SplitMix64 counters (see
:func:`repro.engine.kernel.sample_worlds`), so estimates with the same
seed are bit-for-bit deterministic.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..graph import UncertainGraph
from .csr import ProbEdge, QueryPlan, build_query_plan
from .kernel import (
    WorldBatch,
    batch_reach,
    hit_fraction,
    popcount,
    reach_each,
    sample_worlds,
)

Pair = Tuple[int, int]


def pair_hit_fractions(
    plan: QueryPlan,
    batch: WorldBatch,
    pairs: Sequence[Pair],
    num_samples: int,
    reach_cache: Optional[Dict[int, "np.ndarray"]] = None,
) -> Dict[Pair, float]:
    """Answer every (s, t) pair inside one shared world batch.

    Pairs are grouped by source so each distinct source costs one batch
    BFS sweep, and the distinct sources are swept together by
    :func:`~repro.engine.kernel.reach_each` (frontier-gated fused
    passes within a memory budget).  ``s == t`` pairs are 1.0 and
    endpoints unknown to the plan are 0.0 (matching the single-pair
    estimators' semantics).

    ``reach_cache`` maps dense source indices to full ``(n, W)``
    reached-fixpoint matrices over exactly this ``(plan, batch)``:
    sources found there skip their sweep, and every freshly swept
    source is written back (contiguous, caller-owned).  The cache is
    what :meth:`repro.api.Session.apply_delta` repairs in place after a
    graph edit, so post-edit queries resume sweeps instead of
    restarting them.  Purely a performance layer — a cached fixpoint is
    bit-identical to a fresh sweep by the resume contract of
    :func:`~repro.engine.kernel.batch_reach_resume`.
    """
    by_source: Dict[int, List[Pair]] = {}
    for s, t in pairs:
        by_source.setdefault(s, []).append((s, t))
    result: Dict[Pair, float] = {}

    # Resolve sources; unknown ones answer 0.0 (1.0 for s == t).
    indexed: List[Tuple[int, int]] = []  # (source id, dense index)
    cached_sources: List[Tuple[int, int]] = []
    for s, spairs in by_source.items():
        src = plan.node_index(s)
        if src is None:
            for pair in spairs:
                result[pair] = 1.0 if pair[1] == s else 0.0
        elif reach_cache is not None and src in reach_cache:
            cached_sources.append((s, src))
        else:
            indexed.append((s, src))

    def _reduce(s: int, reached_rows: "np.ndarray") -> None:
        for pair in by_source[s]:
            t = pair[1]
            if t == s:
                result[pair] = 1.0
                continue
            dst = plan.node_index(t)
            if dst is None:
                result[pair] = 0.0
            else:
                result[pair] = hit_fraction(reached_rows[dst], num_samples)

    if reach_cache is not None:
        for s, src in cached_sources:
            _reduce(s, reach_cache[src])
    fresh = reach_each(plan, batch, [src for _, src in indexed])
    for (s, src), rows in zip(indexed, fresh, strict=True):
        if reach_cache is not None:
            reach_cache[src] = rows
        _reduce(s, rows)
    return result


def reach_counts_dict(
    plan: QueryPlan,
    reached: "np.ndarray",
    num_samples: int,
    sources: Sequence[int],
) -> Dict[int, float]:
    """Reduce a reached-bitmask into a node-id -> frequency dict.

    Only nodes reached in at least one world appear; the sources are
    pinned to 1.0 (they are reached in every world by definition).
    """
    counts = popcount(reached).sum(axis=1)
    nonzero = np.flatnonzero(counts)
    result = {
        plan.node_ids[int(i)]: int(counts[i]) / num_samples
        for i in nonzero
    }
    for s in sources:
        result[s] = 1.0
    return result


class VectorizedSamplingEngine:
    """Batch possible-world sampler over cached CSR plans.

    Parameters
    ----------
    seed:
        Seed for the engine's PCG64 generator.  The generator is
        stateful: repeated calls advance the stream, and two engines
        built with the same seed replay the same estimates for the same
        query sequence.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # world sampling (low-level, reused by BFS-sharing / RSS)
    # ------------------------------------------------------------------
    def sample_worlds(
        self,
        plan: QueryPlan,
        num_samples: int,
        forced_true: Iterable[int] = (),
        forced_false: Iterable[int] = (),
    ) -> WorldBatch:
        """Sample ``num_samples`` worlds over ``plan``'s edge table."""
        return sample_worlds(
            plan, num_samples, self._rng, forced_true, forced_false
        )

    # ------------------------------------------------------------------
    # estimator surface
    # ------------------------------------------------------------------
    def reliability(
        self,
        graph: UncertainGraph,
        source: int,
        target: int,
        num_samples: int,
        extra_edges: Optional[Sequence[ProbEdge]] = None,
    ) -> float:
        """Fraction of sampled worlds in which ``target`` is reachable.

        Overlay endpoints count as nodes: an endpoint named only by
        ``extra_edges`` is reachable through them.
        """
        if source == target:
            return 1.0
        plan = build_query_plan(graph, extra_edges)
        src = plan.node_index(source)
        dst = plan.node_index(target)
        if src is None or dst is None:
            return 0.0
        batch = self.sample_worlds(plan, num_samples)
        reached = batch_reach(plan, batch, [src], target_index=dst)
        return hit_fraction(reached[dst], num_samples)

    def reachability_from(
        self,
        graph: UncertainGraph,
        source: int,
        num_samples: int,
        extra_edges: Optional[Sequence[ProbEdge]] = None,
    ) -> Dict[int, float]:
        """Per-node reach frequency from ``source`` (non-zero entries)."""
        if source not in graph:
            return {}
        plan = build_query_plan(graph, extra_edges)
        batch = self.sample_worlds(plan, num_samples)
        reached = batch_reach(plan, batch, [plan.node_index(source)])
        return reach_counts_dict(plan, reached, num_samples, [source])

    def pair_reliabilities(
        self,
        graph: UncertainGraph,
        pairs: Sequence[Pair],
        num_samples: int,
        extra_edges: Optional[Sequence[ProbEdge]] = None,
    ) -> Dict[Pair, float]:
        """Shared-world reliability of several pairs.

        One world batch is sampled and every pair is answered inside it,
        so pair estimates are mutually consistent — and the plan
        compilation plus coin flips are amortized over all pairs.
        """
        if not pairs:
            return {}
        plan = build_query_plan(graph, extra_edges)
        batch = self.sample_worlds(plan, num_samples)
        return pair_hit_fractions(plan, batch, pairs, num_samples)

    def multi_source_reachability(
        self,
        graph: UncertainGraph,
        sources: Sequence[int],
        num_samples: int,
        extra_edges: Optional[Sequence[ProbEdge]] = None,
    ) -> Dict[int, float]:
        """Per-node frequency of being reached from *any* source.

        All sources are seeded into one reached-bitmask, so each world
        is shared across sources by construction.
        """
        valid_sources = [s for s in sources if s in graph]
        if not valid_sources:
            return {}
        plan = build_query_plan(graph, extra_edges)
        batch = self.sample_worlds(plan, num_samples)
        indices = [plan.node_index(s) for s in valid_sources]
        reached = batch_reach(plan, batch, indices)
        return reach_counts_dict(plan, reached, num_samples, valid_sources)

    # ------------------------------------------------------------------
    # stratified leaves (RSS delegation)
    # ------------------------------------------------------------------
    def stratified_reliability(
        self,
        plan: QueryPlan,
        source: int,
        target: int,
        forced: Dict[Tuple[int, int], bool],
        num_samples: int,
    ) -> float:
        """Monte Carlo hit rate conditioned on forced edge states.

        ``forced`` maps canonical edge keys (node-id space) to pinned
        states; keys shared by several physical edges pin all of them.
        """
        src = plan.node_index(source)
        dst = plan.node_index(target)
        if src is None or dst is None:
            return 0.0
        forced_true, forced_false = self._forced_ids(plan, forced)
        batch = self.sample_worlds(plan, num_samples, forced_true, forced_false)
        reached = batch_reach(plan, batch, [src], target_index=dst)
        return hit_fraction(reached[dst], num_samples)

    def stratified_reach_counts(
        self,
        plan: QueryPlan,
        source: int,
        forced: Dict[Tuple[int, int], bool],
        num_samples: int,
    ) -> Dict[int, float]:
        """Per-node reach frequency conditioned on forced edge states."""
        src = plan.node_index(source)
        if src is None:
            return {}
        forced_true, forced_false = self._forced_ids(plan, forced)
        batch = self.sample_worlds(plan, num_samples, forced_true, forced_false)
        reached = batch_reach(plan, batch, [src])
        return reach_counts_dict(plan, reached, num_samples, [source])

    # ------------------------------------------------------------------
    @staticmethod
    def _forced_ids(
        plan: QueryPlan,
        forced: Dict[Tuple[int, int], bool],
    ) -> Tuple[List[int], List[int]]:
        forced_true: List[int] = []
        forced_false: List[int] = []
        for key, state in forced.items():
            ids = plan.edge_index.get(key, ())
            (forced_true if state else forced_false).extend(ids)
        return forced_true, forced_false
