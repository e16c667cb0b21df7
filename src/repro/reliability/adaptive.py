"""Adaptive-precision Monte Carlo with confidence intervals.

Fixed sample budgets (the paper's Z) waste work on easy queries and
under-sample hard ones.  This estimator keeps sampling in blocks until a
Wilson-score confidence interval around the hit ratio is narrower than a
target half-width, then reports the estimate together with the interval
— the natural "production" interface on top of the paper's machinery.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..engine import batch_reach, build_query_plan, concat_batches, popcount
# Block sampling goes through the module so wrappers installed on its
# globals (perfbench/spans.py) see it.
from ..engine import batch as engine_batch
from ..graph import UncertainGraph
from .estimator import Overlay, ReliabilityEstimator, SelectionBackend
from .monte_carlo import MonteCarloEstimator

#: z-scores for common confidence levels.
_Z_SCORES = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


def wilson_interval(
    hits: int,
    samples: int,
    confidence: float = 0.95,
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Well-behaved near 0 and 1, exactly where reliability queries live.
    """
    if samples <= 0:
        return 0.0, 1.0
    try:
        z = _Z_SCORES[confidence]
    except KeyError:
        raise ValueError(
            f"confidence must be one of {sorted(_Z_SCORES)}"
        ) from None
    phat = hits / samples
    denom = 1.0 + z * z / samples
    center = (phat + z * z / (2 * samples)) / denom
    margin = (
        z
        * math.sqrt(phat * (1 - phat) / samples + z * z / (4 * samples**2))
        / denom
    )
    return max(0.0, center - margin), min(1.0, center + margin)


@dataclass
class AdaptiveEstimate:
    """A reliability estimate with its confidence interval."""

    value: float
    lower: float
    upper: float
    samples_used: int

    @property
    def half_width(self) -> float:
        """Half the confidence interval's width."""
        return (self.upper - self.lower) / 2.0


class AdaptiveMonteCarlo(ReliabilityEstimator):
    """Monte Carlo that stops when the CI is tight enough.

    Parameters
    ----------
    target_half_width:
        Stop when the Wilson interval's half-width drops below this.
    confidence:
        Interval confidence level (0.90 / 0.95 / 0.99).
    block_size:
        Samples drawn between convergence checks.
    max_samples:
        Hard budget cap (the estimator always stops here).
    seed:
        Seed of the estimator's generator, which samples each block
        (and seeds the fixed-budget fallback of vector queries).

    Notes
    -----
    Each sample block is a fresh world batch (block sampling maps
    directly onto :func:`repro.engine.batch.sample` with incremental
    Z).  Because Z is chosen at query time, the estimator cannot reuse
    a pre-sampled shared batch (see :mod:`repro.reliability.registry`).
    """

    name = "adaptive-mc"

    def __init__(
        self,
        target_half_width: float = 0.01,
        confidence: float = 0.95,
        block_size: int = 200,
        max_samples: int = 50_000,
        seed: int = 0,
    ) -> None:
        if not 0.0 < target_half_width < 0.5:
            raise ValueError("target_half_width must be in (0, 0.5)")
        if block_size < 1 or max_samples < block_size:
            raise ValueError("need max_samples >= block_size >= 1")
        wilson_interval(0, 1, confidence)  # validates the level
        self.target_half_width = target_half_width
        self.confidence = confidence
        self.block_size = block_size
        self.max_samples = max_samples
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        # Seeds the fixed-budget fallback of vector queries.
        self._fallback_seeds = random.Random(seed)

    # ------------------------------------------------------------------
    # batched selection backend (per-block shared worlds)
    # ------------------------------------------------------------------
    def selection_backend(self):
        """Per-block shared-world backend.

        Selection loops score every candidate against one shared batch
        built by :meth:`selection_batch` — grown block by block, like
        the estimator's own estimate, until the Wilson interval
        around the *base* query's hit rate is tight (or the budget cap
        is hit).  So ``Z`` is still chosen adaptively per query, but
        all candidates of that query share one fixed batch, which is
        what the gain kernel needs for comparable popcount gains.
        """
        return SelectionBackend(
            self.max_samples, self.seed, make_batch=self.selection_batch
        )

    def selection_batch(self, graph, plan, source, target):
        """Adaptively-sized base batch for shared-world selection.

        Blocks of ``block_size`` worlds are drawn from one generator
        seeded like the estimator; after each block the base
        ``source -> target`` hit rate's Wilson interval decides whether
        to stop.  The concatenated blocks
        (:func:`~repro.engine.kernel.concat_batches`) behave exactly
        like one batch of the accumulated ``Z``.  Deterministic for a
        fixed seed; degenerate endpoints stop after one block.
        """
        rng = np.random.default_rng(self.seed)
        src = plan.node_index(source)
        dst = plan.node_index(target)
        blocks = []
        hits, samples = 0, 0
        while samples < self.max_samples:
            size = min(self.block_size, self.max_samples - samples)
            block = engine_batch.sample(plan, size, rng)
            blocks.append(block)
            samples += size
            if src is None or dst is None or src == dst:
                break  # nothing to adapt on
            reached = batch_reach(plan, block, [src], target_index=dst)
            hits += int(popcount(reached[dst]).sum())
            lower, upper = wilson_interval(hits, samples, self.confidence)
            if (upper - lower) / 2.0 <= self.target_half_width:
                break
        return concat_batches(blocks)

    # ------------------------------------------------------------------
    def estimate(
        self,
        graph: UncertainGraph,
        source: int,
        target: int,
        extra_edges: Overlay = None,
    ) -> AdaptiveEstimate:
        """Full result: value, interval and the samples it took.

        One compiled plan, a fresh world block per round.  Overlay
        endpoints count as nodes.
        """
        if source == target:
            return AdaptiveEstimate(1.0, 1.0, 1.0, 0)
        plan = build_query_plan(
            graph, list(extra_edges) if extra_edges else None
        )
        src = plan.node_index(source)
        dst = plan.node_index(target)
        if src is None or dst is None:
            return AdaptiveEstimate(0.0, 0.0, 0.0, 0)
        hits, samples = 0, 0
        while samples < self.max_samples:
            block = min(self.block_size, self.max_samples - samples)
            batch = engine_batch.sample(plan, block, self._rng)
            reached = batch_reach(plan, batch, [src], target_index=dst)
            hits += int(popcount(reached[dst]).sum())
            samples += block
            lower, upper = wilson_interval(hits, samples, self.confidence)
            if (upper - lower) / 2.0 <= self.target_half_width:
                break
        lower, upper = wilson_interval(hits, samples, self.confidence)
        return AdaptiveEstimate(
            value=hits / samples, lower=lower, upper=upper,
            samples_used=samples,
        )

    def reliability(
        self,
        graph: UncertainGraph,
        source: int,
        target: int,
        extra_edges: Overlay = None,
    ) -> float:
        """Point estimate (the ReliabilityEstimator interface)."""
        return self.estimate(graph, source, target, extra_edges).value

    def reachability_from(
        self,
        graph: UncertainGraph,
        source: int,
        extra_edges: Overlay = None,
    ) -> Dict[int, float]:
        """Vector queries fall back to fixed-budget MC at the cap/10."""
        budget = max(self.block_size, self.max_samples // 10)
        fallback = MonteCarloEstimator(
            budget, seed=self._fallback_seeds.randrange(2**31)
        )
        return fallback.reachability_from(graph, source, extra_edges)
