"""Monte Carlo reliability estimation.

The fundamental estimator (Fishman 1986): sample ``Z`` possible worlds
and report the fraction in which the target is reachable.  Sampling
runs on the batch engine (:mod:`repro.engine`): every edge's coins in
all ``Z`` worlds are keyed SplitMix64 hashes of one base drawn from the
seeded generator, bit-packed into ``(num_edges, Z/64)`` words, and a
batch BFS advances every sample per sweep.

The estimate is unbiased with variance ``R(1-R)/Z`` and deterministic
given a seed.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..engine import QueryPlan, WorldBatch, build_query_plan
# Calls go through the module so wrappers installed on its globals
# (perfbench/spans.py) see every estimator's sampling and sweeps.
from ..engine import batch as engine_batch
from ..graph import UncertainGraph
from .estimator import Overlay, ReliabilityEstimator, SelectionBackend


class MonteCarloEstimator(ReliabilityEstimator):
    """Monte Carlo sampling over ``Z`` possible worlds.

    Parameters
    ----------
    num_samples:
        Number of sampled possible worlds ``Z``.
    seed:
        Seed of the estimator's generator.  The generator is stateful:
        every sampled query advances it, so two estimators with the
        same seed produce identical estimates for identical query
        sequences.  Degenerate queries (``source == target``, an
        endpoint neither the graph nor the overlay names, no pairs)
        draw nothing.

    Notes
    -----
    Complexity is ``O(Z * (n + m))`` per query.  The estimator is
    unbiased; its variance shrinks as ``R(1-R)/Z``.
    """

    name = "mc"

    def __init__(self, num_samples: int = 1000, seed: int = 0) -> None:
        if num_samples < 1:
            raise ValueError("num_samples must be positive")
        self.num_samples = num_samples
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def selection_backend(self) -> Optional[SelectionBackend]:
        """Plain fixed-Z hit rates on an i.i.d. batch into the
        selection-gain kernel."""
        return SelectionBackend(self.num_samples, self.seed)

    def _sample(self, plan: QueryPlan) -> WorldBatch:
        return engine_batch.sample(plan, self.num_samples, self._rng)

    # ------------------------------------------------------------------
    def reliability(
        self,
        graph: UncertainGraph,
        source: int,
        target: int,
        extra_edges: Overlay = None,
    ) -> float:
        """Fraction of sampled worlds in which ``target`` is reachable."""
        if source == target:
            return 1.0
        extra = list(extra_edges) if extra_edges else None
        plan = build_query_plan(graph, extra)
        if plan.node_index(source) is None or plan.node_index(target) is None:
            return 0.0
        return engine_batch.pair_fraction(
            plan, self._sample(plan), source, target
        )

    def reachability_from(
        self,
        graph: UncertainGraph,
        source: int,
        extra_edges: Overlay = None,
    ) -> Dict[int, float]:
        return self.multi_source_reachability(graph, [source], extra_edges)

    def reachability_to(
        self,
        graph: UncertainGraph,
        target: int,
        extra_edges: Overlay = None,
    ) -> Dict[int, float]:
        """The plan's reverse view, swept from ``target`` over one batch
        sampled on the plan."""
        return self._reach(graph, [target], extra_edges, reverse=True)

    def pair_reliabilities(
        self,
        graph: UncertainGraph,
        pairs: Sequence[Tuple[int, int]],
        extra_edges: Overlay = None,
    ) -> Dict[Tuple[int, int], float]:
        """Shared-world evaluation of many pairs.

        One world batch answers every pair, so pair estimates are
        consistent — exactly how the paper evaluates
        multi-source-target objectives — and the plan compilation plus
        coin flips are amortized over all pairs.
        """
        if not pairs:
            return {}
        extra = list(extra_edges) if extra_edges else None
        plan = build_query_plan(graph, extra)
        return engine_batch.pair_hit_fractions(
            plan, self._sample(plan), list(pairs), self.num_samples
        )

    def multi_source_reachability(
        self,
        graph: UncertainGraph,
        sources: Sequence[int],
        extra_edges: Overlay = None,
    ) -> Dict[int, float]:
        """Per-node frequency of being reached from *any* source.

        All sources seed one reached-bitmask, so each world is shared
        across sources by construction.
        """
        return self._reach(graph, sources, extra_edges)

    def _reach(
        self,
        graph: UncertainGraph,
        sources: Sequence[int],
        extra_edges: Overlay,
        reverse: bool = False,
    ) -> Dict[int, float]:
        extra = list(extra_edges) if extra_edges else None
        plan = build_query_plan(graph, extra)
        if all(plan.node_index(s) is None for s in sources):
            return {}
        batch = self._sample(plan)
        sweep = plan.reverse_view() if reverse else plan
        return engine_batch.reach_frequencies(sweep, batch, sources)
