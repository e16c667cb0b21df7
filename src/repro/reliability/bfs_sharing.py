"""BFS-sharing index: pre-sampled worlds shared across queries.

The paper's related work (§7, citing the in-depth comparison of s-t
reliability algorithms) includes *BFSSharing* — an offline index that
samples ``Z`` possible worlds once and answers every subsequent query by
traversing the stored worlds.  Amortized over a query workload (e.g. the
multi-source-target loops, which re-evaluate hundreds of pairs on the
same graph) this is far cheaper than re-sampling per query.

The ``Z`` worlds are stored as one bit-packed ``(num_edges, Z/64)``
matrix and every query is a batch BFS over all worlds at once.

Overlay (``extra_edges``) support: stored worlds cover only the indexed
graph; each overlay edge gets the identity-keyed coin row a fresh
sample of the merged plan would give it
(:func:`repro.engine.overlay_batch`, the helper
:meth:`repro.api.Session.evaluate_pairs` uses for the same purpose), so
repeated queries see identical overlay states and an overlay query
answers bit-for-bit like a fresh ``mc`` estimator with the same seed.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from ..engine import (
    coin_base,
    compile_plan,
    overlay_batch,
    pair_fraction,
    pair_hit_fractions,
    reach_frequencies,
    sample_worlds_keyed,
)
from ..graph import UncertainGraph
from .estimator import Overlay, ReliabilityEstimator


class BFSSharingIndex(ReliabilityEstimator):
    """Offline sampled-worlds index over one uncertain graph.

    Parameters
    ----------
    graph:
        The graph to index.  The index snapshots the graph at build
        time; later mutations are NOT reflected (rebuild instead).
    num_samples:
        Number of stored possible worlds ``Z``.
    seed:
        Sampling seed; also derives per-query overlay coin seeds.
    """

    name = "bfs-sharing"

    def __init__(
        self,
        graph: UncertainGraph,
        num_samples: int = 500,
        seed: int = 0,
    ) -> None:
        if num_samples < 1:
            raise ValueError("num_samples must be positive")
        self.graph = graph
        self.num_samples = num_samples
        self.seed = seed
        # Snapshot: the compiled plan and sampled bits are immutable, so
        # later graph mutations can't leak into the index.
        self._plan = compile_plan(graph)
        self._base = coin_base(np.random.default_rng(seed))
        self._batch = sample_worlds_keyed(self._plan, num_samples, self._base)

    # ------------------------------------------------------------------
    def reliability(
        self,
        graph: UncertainGraph,
        source: int,
        target: int,
        extra_edges: Overlay = None,
    ) -> float:
        """Fraction of stored worlds where target is reachable.

        ``graph`` must be the indexed graph (defensive check by
        identity); pass ``extra_edges`` for candidate-edge overlays.
        An endpoint named by neither the snapshot nor the overlay (e.g.
        added to the graph after the snapshot was built) is isolated in
        every stored world.
        """
        self._check(graph)
        if source == target:
            return 1.0
        plan, batch = self._query_batch(extra_edges)
        return pair_fraction(plan, batch, source, target)

    def reachability_from(
        self,
        graph: UncertainGraph,
        source: int,
        extra_edges: Overlay = None,
    ) -> Dict[int, float]:
        return self._reach(graph, source, extra_edges)

    def reachability_to(
        self,
        graph: UncertainGraph,
        target: int,
        extra_edges: Overlay = None,
    ) -> Dict[int, float]:
        """The reverse view, swept from ``target`` over the stored worlds."""
        return self._reach(graph, target, extra_edges, reverse=True)

    def pair_reliabilities(
        self,
        graph: UncertainGraph,
        pairs: Sequence[Tuple[int, int]],
        extra_edges: Overlay = None,
    ) -> Dict[Tuple[int, int], float]:
        """Worlds are shared across all pairs — the index's sweet spot."""
        self._check(graph)
        if not pairs:
            return {}
        plan, batch = self._query_batch(extra_edges)
        return pair_hit_fractions(plan, batch, pairs, self.num_samples)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check(self, graph: UncertainGraph) -> None:
        if graph is not self.graph:
            raise ValueError(
                "BFSSharingIndex answers queries only for the graph it "
                "indexed; rebuild the index for a different graph"
            )

    def _query_batch(self, extra_edges: Overlay):
        """Stored worlds, extended with the overlay edges' keyed coin rows."""
        return overlay_batch(self._plan, self._batch, self._base, extra_edges)

    def _reach(
        self,
        graph: UncertainGraph,
        node: int,
        extra_edges: Overlay,
        reverse: bool = False,
    ) -> Dict[int, float]:
        self._check(graph)
        plan, batch = self._query_batch(extra_edges)
        if plan.node_index(node) is None:
            # Added to the graph after the snapshot: isolated in every
            # stored world.
            return {node: 1.0} if node in graph else {}
        sweep = plan.reverse_view() if reverse else plan
        return reach_frequencies(sweep, batch, [node])
