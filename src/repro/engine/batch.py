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
    batch_reach_multi,
    hit_fraction,
    popcount,
    sample_worlds,
)

Pair = Tuple[int, int]

#: Fuse multi-source sweeps while each world batch row is at most this
#: many words.  The frontier-gated fused sweep
#: (:func:`repro.engine.kernel.batch_reach_multi`) does work
#: proportional to the *active* (arc, source) frontier, so — unlike the
#: old full-width fusion, whose hard ``_FUSE_MAX_WORDS = 4`` cliff this
#: knob replaces — fusion keeps winning on wide batches.  Measured by
#: ``benchmarks/bench_sweep_gated.py`` at S=16 on 1k-node graphs, W=1
#: (Z=64) through W=64 (Z=4096): 3.2-7.9x over per-source sweeps on
#: sweep-bound topologies (high-reliability ring) and 1.1-1.6x on a
#: frontier-dense random graph — no crossover back to per-source
#: anywhere in the measured range.  The default therefore only stops
#: fusing where the fused state (S * W * n words) would dwarf the
#: memory-budget chunking below; per-query overrides go through the
#: ``fuse_max_words`` arguments on :func:`pair_hit_fractions`,
#: :class:`VectorizedSamplingEngine` and :class:`repro.api.Session`
#: (``0`` disables fusion, ``None`` means this default).
DEFAULT_FUSE_MAX_WORDS = 1024

#: Word budget of one fused pass (S * W * num_nodes reached words);
#: 4M words = 32 MB.  Larger fused groups are chunked.
_MULTI_SOURCE_WORD_BUDGET = 4_000_000


def resolve_fuse_max_words(fuse_max_words: Optional[int]) -> int:
    """``None`` -> the measured default; negatives are rejected."""
    if fuse_max_words is None:
        return DEFAULT_FUSE_MAX_WORDS
    if fuse_max_words < 0:
        raise ValueError("fuse_max_words must be >= 0 (0 disables fusion)")
    return fuse_max_words


def pair_hit_fractions(
    plan: QueryPlan,
    batch: WorldBatch,
    pairs: Sequence[Pair],
    num_samples: int,
    fuse_max_words: Optional[int] = None,
    reach_cache: Optional[Dict[int, "np.ndarray"]] = None,
) -> Dict[Pair, float]:
    """Answer every (s, t) pair inside one shared world batch.

    Pairs are grouped by source so each distinct source costs one batch
    BFS sweep; multi-source groups are fused into frontier-gated
    multi-source kernel passes (:func:`batch_reach_multi`) while the
    batch row stays within ``fuse_max_words`` words (``None`` -> the
    measured :data:`DEFAULT_FUSE_MAX_WORDS`, ``0`` -> never fuse).
    ``s == t`` pairs are 1.0 and endpoints unknown to the plan are 0.0
    (matching the single-pair estimators' semantics).

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
    fuse_max_words = resolve_fuse_max_words(fuse_max_words)
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

    if batch.num_words <= fuse_max_words and len(indexed) > 1:
        chunk = max(
            1,
            _MULTI_SOURCE_WORD_BUDGET
            // max(plan.num_nodes * batch.num_words, 1),
        )
        groups = [
            indexed[start:start + chunk]
            for start in range(0, len(indexed), chunk)
        ]
    else:
        groups = [[entry] for entry in indexed]

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
    for group in groups:
        if len(group) == 1:
            s, src = group[0]
            rows = batch_reach(plan, batch, [src])
            if reach_cache is not None:
                reach_cache[src] = rows
            _reduce(s, rows)
        else:
            reached = batch_reach_multi(
                plan, batch, [src for _, src in group]
            )
            for i, (s, src) in enumerate(group):
                rows = reached[:, i]
                if reach_cache is not None:
                    rows = np.ascontiguousarray(rows)
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
    fuse_max_words:
        Multi-source fusion threshold for pair workloads — fuse while
        the batch row is at most this many words (``None`` -> the
        measured :data:`DEFAULT_FUSE_MAX_WORDS`, ``0`` disables
        fusion).  Purely a performance knob: results are bit-for-bit
        identical on every dispatch path.
    """

    def __init__(
        self,
        seed: int = 0,
        fuse_max_words: Optional[int] = None,
    ) -> None:
        self.seed = seed
        self.fuse_max_words = resolve_fuse_max_words(fuse_max_words)
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

    def selection_kernel(
        self,
        graph: UncertainGraph,
        num_samples: int,
    ) -> "SelectionGainKernel":
        """Batched candidate-gain kernel rooted at this engine's seed.

        The kernel samples its own base batch from a *fresh* generator
        seeded like this engine (selection results are deterministic
        regardless of the engine's prior call history) and evaluates
        every candidate edge against it — see
        :mod:`repro.engine.selection`.
        """
        from .selection import SelectionGainKernel

        return SelectionGainKernel(graph, num_samples, seed=self.seed)

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
        return pair_hit_fractions(
            plan, batch, pairs, num_samples,
            fuse_max_words=self.fuse_max_words,
        )

    def reliability_many(
        self,
        graph: UncertainGraph,
        pairs: Sequence[Pair],
        num_samples: int,
        extra_edges: Optional[Sequence[ProbEdge]] = None,
    ) -> List[float]:
        """Batched API: reliabilities aligned with ``pairs`` order."""
        values = self.pair_reliabilities(
            graph, list(pairs), num_samples, extra_edges
        )
        return [values[(s, t)] for s, t in pairs]

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
