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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..graph import UncertainGraph

ProbEdge = Tuple[int, int, float]
Overlay = Optional[Iterable[ProbEdge]]


class SelectionBackend(tuple):
    """Descriptor of an estimator's shared-world selection backend.

    Behaves exactly like the legacy ``(num_samples, seed)`` 2-tuple —
    unpacking and equality against plain tuples keep working — plus an
    optional ``make_batch`` factory
    (``make_batch(graph, plan, source, target) -> WorldBatch``) for
    estimators whose base batch is conditioned per query: recursive
    stratified sampling builds a level-1 *per-stratum* batch and
    adaptive MC a *per-block* batch grown until its confidence interval
    is tight.  ``make_batch=None`` means the plain i.i.d. batch a fresh
    engine seeded ``seed`` would sample (plain MC / lazy propagation).
    """

    def __new__(cls, num_samples: int, seed: int, make_batch=None):
        self = super().__new__(cls, (int(num_samples), int(seed)))
        self.make_batch = make_batch
        return self

    @property
    def num_samples(self) -> int:
        return self[0]

    @property
    def seed(self) -> int:
        return self[1]


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


def resolve_selection_backend(estimator) -> Optional[Tuple[int, int]]:
    """Duck-typed :meth:`ReliabilityEstimator.selection_backend` lookup.

    The single place routing layers (baselines, sessions) consult, so
    third-party estimators only need the method — not the base class —
    to opt into batched selection.  The result is ``None`` or a
    ``(num_samples, seed)`` tuple, possibly a :class:`SelectionBackend`
    carrying a ``make_batch`` factory (read with
    ``getattr(backend, "make_batch", None)`` so plain tuples keep
    working).
    """
    backend = getattr(estimator, "selection_backend", None)
    return backend() if callable(backend) else None


def reverse_overlay(
    graph: UncertainGraph,
    extra_edges: Overlay,
) -> Optional[List[ProbEdge]]:
    """Flip an overlay for reverse-graph traversal (directed graphs)."""
    if not extra_edges:
        return None
    return [(v, u, p) for u, v, p in extra_edges]


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
        reachability (``source`` maps to 1.0).
        """

    def reachability_to(
        self,
        graph: UncertainGraph,
        target: int,
        extra_edges: Overlay = None,
    ) -> Dict[int, float]:
        """Probability that each node reaches ``target``.

        Default implementation runs :meth:`reachability_from` on the
        reverse graph; undirected graphs reuse the forward direction.
        """
        if not graph.directed:
            return self.reachability_from(graph, target, extra_edges)
        reversed_graph = graph.reverse()
        flipped = reverse_overlay(graph, extra_edges)
        return self.reachability_from(reversed_graph, target, flipped)

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

    def reliability_many(
        self,
        graph: UncertainGraph,
        pairs: Sequence[Tuple[int, int]],
        extra_edges: Overlay = None,
    ) -> List[float]:
        """Reliability of many s-t pairs, aligned with ``pairs`` order.

        The batched entry point selection and multi-source loops should
        prefer: shared-world estimators answer every pair against one
        compiled plan and one shared world batch, amortizing the setup
        cost over thousands of queries.  The default implementation
        delegates to :meth:`pair_reliabilities`.
        """
        pairs = list(pairs)
        values = self.pair_reliabilities(graph, pairs, extra_edges)
        return [values[(s, t)] for s, t in pairs]

    def selection_backend(self) -> Optional[Tuple[int, int]]:
        """``(num_samples, seed)`` when selection loops may batch this
        estimator's per-candidate estimates through the shared-world
        gain kernel (:class:`repro.engine.selection.SelectionGainKernel`).

        Estimators whose estimate is a plain hit-rate over ``Z`` i.i.d.
        engine-sampled worlds (plain Monte Carlo, lazy propagation)
        return the bare tuple; estimators whose sampling is conditioned
        per query return a :class:`SelectionBackend` whose
        ``make_batch`` factory builds the query-specific base batch the
        kernel scores candidates against — per-stratum for recursive
        stratified sampling, per-block for adaptive MC.  The gain
        identity is exact per world regardless of how the worlds were
        sampled, so every backend gets the same ``O(Z/64)``-words-per-
        candidate rounds.  ``None`` (the default, e.g. exact
        estimation) sends selection loops to per-candidate estimation.
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
