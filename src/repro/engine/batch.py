"""The estimators' engine seam: sample world batches, answer over them.

Every registry estimator (``mc``/``lazy``, the Monte Carlo leaves of
``rss``, ``adaptive``) holds its own seeded
:class:`numpy.random.Generator` and calls the module functions here:

* :func:`sample` draws one batch of worlds over a plan, optionally with
  edge states pinned (the stratified sampler's conditioning; ``rss``
  draws each of its leaves here, then sweeps them all at once);
* the answer functions reduce a *given* ``(plan, batch)``:
  :func:`pair_fraction` (one pair), :func:`reach_frequencies` (every
  node's frequency of being reached from a source set) and
  :func:`pair_hit_fractions` (many pairs, one sweep per distinct
  source);
* :func:`overlay_batch` extends a stored batch with an overlay's keyed
  coin rows, which is how :class:`~repro.reliability.BFSSharingIndex`
  and :meth:`repro.api.Session.evaluate_pairs` answer overlay queries
  without resampling the base edges.

``sample_worlds`` and :func:`pair_hit_fractions` are module globals
that estimator calls resolve at call time (estimators import this
module, not its names), which is where ``perfbench/spans.py`` wraps
them to time sampling and sweeps.

Statistical contract: every estimate is an unbiased possible-world
Monte Carlo estimate with one coin per canonical edge per world.  A
batch draws one uint64 base from the caller's generator and expands it
through identity-keyed SplitMix64 counters (see
:func:`repro.engine.kernel.sample_worlds`), so equal seeds and equal
call sequences give bit-for-bit equal estimates.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..analysis import sanitize
from .csr import EdgeKey, ProbEdge, QueryPlan, extend_with_overlay
from .kernel import (
    WorldBatch,
    batch_reach,
    extend_batch,
    hit_fraction,
    keyed_coin_rows,
    popcount,
    reach_each,
    sample_worlds,
)

Pair = Tuple[int, int]


def sample(
    plan: QueryPlan,
    num_samples: int,
    rng: np.random.Generator,
    forced: Optional[Mapping[EdgeKey, bool]] = None,
) -> WorldBatch:
    """Sample ``num_samples`` worlds over ``plan``'s edge table.

    ``forced`` maps canonical edge keys (node-id space) to pinned
    states; a key shared by several physical edges pins all of them.
    """
    forced_true: List[int] = []
    forced_false: List[int] = []
    for key, state in (forced or {}).items():
        (forced_true if state else forced_false).extend(
            plan.edge_index.get(key, ())
        )
    return sample_worlds(plan, num_samples, rng, forced_true, forced_false)


def overlay_batch(
    plan: QueryPlan,
    batch: WorldBatch,
    base: np.uint64,
    extra_edges: Optional[Iterable[ProbEdge]],
) -> Tuple[QueryPlan, WorldBatch]:
    """``plan`` and ``batch`` extended with the overlay's keyed coin rows.

    ``batch`` must be the worlds :func:`~repro.engine.kernel.sample_worlds_keyed`
    draws over ``plan`` from key root ``base``.  Each overlay edge then
    gets exactly the row a fresh sample of the merged plan from the
    same root would draw, so the result is bit-identical to resampling
    ``extend_with_overlay(plan, extra_edges)`` while flipping only
    ``len(extra_edges)`` rows.  An empty overlay returns the inputs.
    """
    extra = list(extra_edges) if extra_edges else []
    if not extra:
        return plan, batch
    merged = extend_with_overlay(plan, extra)
    new = slice(plan.num_edges, merged.num_edges)
    probs = merged.probs[new]
    if sanitize.enabled():
        sanitize.check_probabilities(probs, "overlay_batch: overlay probs")
    rows = keyed_coin_rows(
        base, merged.edge_u[new], merged.edge_v[new],
        merged.edge_ordinal[new], probs, batch.valid,
    )
    return merged, extend_batch(batch, rows)


def pair_fraction(
    plan: QueryPlan, batch: WorldBatch, source: int, target: int
) -> float:
    """Fraction of ``batch``'s worlds in which ``source`` reaches ``target``.

    1.0 when ``source == target`` and 0.0 for an endpoint ``plan`` does
    not know.  The sweep stops as soon as every world reached the
    target.
    """
    if source == target:
        return 1.0
    src = plan.node_index(source)
    dst = plan.node_index(target)
    if src is None or dst is None:
        return 0.0
    reached = batch_reach(plan, batch, [src], target_index=dst)
    return hit_fraction(reached[dst], batch.num_samples)


def reach_frequencies(
    plan: QueryPlan, batch: WorldBatch, sources: Sequence[int]
) -> Dict[int, float]:
    """Per-node frequency of being reached from *any* of ``sources``.

    All sources seed one reached-bitmask, so each world is shared
    across them.  Only nodes reached in some world appear, and every
    source ``plan`` knows maps to 1.0; unknown sources are skipped
    (none known gives ``{}``).
    """
    known = [s for s in sources if plan.node_index(s) is not None]
    if not known:
        return {}
    reached = batch_reach(plan, batch, [plan.index_of[s] for s in known])
    counts = popcount(reached).sum(axis=1)
    result = {
        plan.node_ids[int(i)]: int(counts[i]) / batch.num_samples
        for i in np.flatnonzero(counts)
    }
    for s in known:
        result[s] = 1.0
    return result


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
    endpoints unknown to the plan are 0.0 (matching
    :func:`pair_fraction`).

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
