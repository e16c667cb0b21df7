"""The estimator interface shared by every reliability algorithm.

The paper stresses (§5.3) that the edge-selection machinery is orthogonal
to the sampling method: Monte Carlo, recursive stratified sampling, lazy
propagation and exact computation are interchangeable.  Every estimator
implements this abstract interface; selection algorithms receive an
estimator instance and never sample on their own.

All evaluation methods accept an ``extra_edges`` overlay — an iterable of
``(u, v, p)`` triples treated as if they were added to the graph, so an
endpoint that only the overlay names is a node too — so that
candidate-edge evaluation never needs to copy the graph.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..engine.selection import BatchFactory
from ..graph import UncertainGraph

ProbEdge = Tuple[int, int, float]
Overlay = Optional[Iterable[ProbEdge]]


@dataclass(frozen=True)
class SelectionBackend:
    """Descriptor of an estimator's shared-world selection backend.

    ``num_samples`` and ``seed`` size and seed the base world batch the
    selection-gain kernel scores candidates against.  ``make_batch``
    (``make_batch(graph, plan, source, target) -> WorldBatch``) builds
    that batch per query for estimators whose sampling is conditioned
    on the query: recursive stratified sampling builds a level-1
    *per-stratum* batch and adaptive MC a *per-block* batch grown until
    its confidence interval is tight.  ``make_batch=None`` means the
    plain i.i.d. batch ``sample_worlds(plan, num_samples,
    default_rng(seed))`` (plain MC / lazy propagation), which a session
    may serve from its cache.
    """

    num_samples: int
    seed: int
    make_batch: Optional[BatchFactory] = None


def build_overlay(
    graph: UncertainGraph,
    extra_edges: Overlay,
) -> Dict[int, List[Tuple[int, float]]]:
    """Adjacency overlay for extra edges (both directions if undirected)."""
    overlay: Dict[int, List[Tuple[int, float]]] = {}
    if not extra_edges:
        return overlay
    for u, v, p in extra_edges:
        overlay.setdefault(u, []).append((v, p))
        if not graph.directed:
            overlay.setdefault(v, []).append((u, p))
    return overlay


class ReliabilityEstimator(ABC):
    """Estimates s-t reliability and reachability probability vectors."""

    @abstractmethod
    def reliability(
        self,
        graph: UncertainGraph,
        source: int,
        target: int,
        extra_edges: Overlay = None,
    ) -> float:
        """Estimate ``R(source, target, graph + extra_edges)``."""

    @abstractmethod
    def reachability_from(
        self,
        graph: UncertainGraph,
        source: int,
        extra_edges: Overlay = None,
    ) -> Dict[int, float]:
        """Probability that each node is reachable *from* ``source``.

        Returns a dict containing every node with non-zero estimated
        reachability (``source`` maps to 1.0), overlay-only nodes
        included; a source neither the graph nor the overlay names
        gives ``{}``.
        """

    def reachability_to(
        self,
        graph: UncertainGraph,
        target: int,
        extra_edges: Overlay = None,
    ) -> Dict[int, float]:
        """Probability that each node reaches ``target``.

        Mirrors :meth:`reachability_from`.  Samplers sweep their
        forward plan's :meth:`~repro.engine.csr.QueryPlan.reverse_view`
        from ``target``.  The default serves undirected graphs only.
        """
        if not graph.directed:
            return self.reachability_from(graph, target, extra_edges)
        raise NotImplementedError(
            f"{type(self).__name__} does not support directed reachability_to"
        )

    def pair_reliabilities(
        self,
        graph: UncertainGraph,
        pairs: Sequence[Tuple[int, int]],
        extra_edges: Overlay = None,
    ) -> Dict[Tuple[int, int], float]:
        """Reliability of several s-t pairs.

        The default implementation evaluates pairs one by one; samplers
        override this to share possible worlds across pairs.
        """
        extra = list(extra_edges) if extra_edges else None
        return {
            (s, t): self.reliability(graph, s, t, extra)
            for s, t in pairs
        }

    def selection_backend(self) -> Optional[SelectionBackend]:
        """A :class:`SelectionBackend` when selection loops may batch
        this estimator's per-candidate estimates through the
        shared-world gain kernel
        (:class:`repro.engine.selection.SelectionGainKernel`).

        Estimators whose estimate is a plain hit-rate over ``Z`` i.i.d.
        engine-sampled worlds (plain Monte Carlo, lazy propagation)
        return a backend without ``make_batch``; estimators whose
        sampling is conditioned per query set ``make_batch`` to build
        the query-specific base batch the kernel scores candidates
        against — per-stratum for recursive stratified sampling,
        per-block for adaptive MC.  The gain identity is exact per
        world regardless of how the worlds were sampled, so every
        backend gets the same ``O(Z/64)``-words-per-candidate rounds.
        ``None`` (the default, e.g. exact estimation) sends selection
        loops to per-candidate estimation.
        """
        return None

    def multi_source_reachability(
        self,
        graph: UncertainGraph,
        sources: Sequence[int],
        extra_edges: Overlay = None,
    ) -> Dict[int, float]:
        """Probability each node is reachable from *any* source.

        Used by the influence-spread application (Eq. 13).  The default
        implementation is exact only for a single source; samplers
        override it with a shared-world version.
        """
        if len(sources) == 1:
            return self.reachability_from(graph, sources[0], extra_edges)
        raise NotImplementedError(
            f"{type(self).__name__} does not support multi-source queries"
        )
