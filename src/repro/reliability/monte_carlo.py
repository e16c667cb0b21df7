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

from ..engine import VectorizedSamplingEngine
from ..graph import UncertainGraph
from .estimator import Overlay, ReliabilityEstimator, SelectionBackend


class MonteCarloEstimator(ReliabilityEstimator):
    """Monte Carlo sampling over ``Z`` possible worlds.

    Parameters
    ----------
    num_samples:
        Number of sampled possible worlds ``Z``.
    seed:
        Seed for the engine's generator.  Two estimators with the same
        seed produce identical estimates for identical query sequences.

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
        self._engine = VectorizedSamplingEngine(seed)

    def selection_backend(self) -> Optional[Tuple[int, int]]:
        """Plain fixed-Z hit rates on the engine batch into the
        selection-gain kernel."""
        return SelectionBackend(self.num_samples, self._engine.seed)

    # ------------------------------------------------------------------
    def reliability(
        self,
        graph: UncertainGraph,
        source: int,
        target: int,
        extra_edges: Overlay = None,
    ) -> float:
        return self._engine.reliability(
            graph, source, target, self.num_samples,
            list(extra_edges) if extra_edges else None,
        )

    def reachability_from(
        self,
        graph: UncertainGraph,
        source: int,
        extra_edges: Overlay = None,
    ) -> Dict[int, float]:
        return self._engine.reachability_from(
            graph, source, self.num_samples,
            list(extra_edges) if extra_edges else None,
        )

    def pair_reliabilities(
        self,
        graph: UncertainGraph,
        pairs: Sequence[Tuple[int, int]],
        extra_edges: Overlay = None,
    ) -> Dict[Tuple[int, int], float]:
        """Shared-world evaluation of many pairs.

        One world batch answers every pair, so pair estimates are
        consistent — exactly how the paper evaluates
        multi-source-target objectives.
        """
        return self._engine.pair_reliabilities(
            graph, list(pairs), self.num_samples,
            list(extra_edges) if extra_edges else None,
        )

    def multi_source_reachability(
        self,
        graph: UncertainGraph,
        sources: Sequence[int],
        extra_edges: Overlay = None,
    ) -> Dict[int, float]:
        return self._engine.multi_source_reachability(
            graph, list(sources), self.num_samples,
            list(extra_edges) if extra_edges else None,
        )
