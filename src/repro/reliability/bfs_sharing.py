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
sample of the merged plan would give it (:func:`repro.engine.keyed_coin_rows`),
so repeated queries see identical overlay states and an overlay query
answers bit-for-bit like a fresh ``mc`` estimator with the same seed.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from ..engine import (
    batch_reach,
    coin_base,
    compile_plan,
    extend_batch,
    extend_with_overlay,
    hit_fraction,
    keyed_coin_rows,
    pair_hit_fractions,
    reach_counts_dict,
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
        """
        self._check(graph)
        if source == target:
            return 1.0
        plan, batch = self._query_batch(extra_edges)
        src = plan.node_index(source)
        dst = plan.node_index(target)
        if src is None or dst is None:
            # Named by neither the snapshot nor the overlay (e.g. added
            # to the graph after the snapshot was built): it is
            # isolated in every stored world.
            return 0.0
        reached = batch_reach(plan, batch, [src], target_index=dst)
        return hit_fraction(reached[dst], self.num_samples)

    def reachability_from(
        self,
        graph: UncertainGraph,
        source: int,
        extra_edges: Overlay = None,
    ) -> Dict[int, float]:
        self._check(graph)
        if source not in graph:
            return {}
        plan, batch = self._query_batch(extra_edges)
        src = plan.node_index(source)
        if src is None:
            return {source: 1.0}
        reached = batch_reach(plan, batch, [src])
        return reach_counts_dict(plan, reached, self.num_samples, [source])

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
        extra = list(extra_edges) if extra_edges else None
        if not extra:
            return self._plan, self._batch
        plan = extend_with_overlay(self._plan, extra)
        new = slice(self._plan.num_edges, plan.num_edges)
        rows = keyed_coin_rows(
            self._base, plan.edge_u[new], plan.edge_v[new],
            plan.edge_ordinal[new], plan.probs[new], self._batch.valid,
        )
        return plan, extend_batch(self._batch, rows)
