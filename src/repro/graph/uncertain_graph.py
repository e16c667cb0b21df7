"""The uncertain graph data structure.

An uncertain graph ``G = (V, E, p)`` attaches an independent existence
probability ``p(e) in [0, 1]`` to every edge.  Under possible-world
semantics the graph represents a distribution over ``2^m`` deterministic
graphs, each obtained by independently sampling every edge.

This module provides :class:`UncertainGraph`, the substrate every other
subsystem of the library builds on.  It supports directed and undirected
graphs, cheap copies, edge addition/removal, h-hop neighborhoods and
possible-world enumeration (for small graphs).
"""

from __future__ import annotations

import hashlib
import itertools
import math
import struct
from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

Edge = Tuple[int, int]
ProbEdge = Tuple[int, int, float]


class UncertainGraph:
    """A probabilistic graph with per-edge existence probabilities.

    Parameters
    ----------
    directed:
        When ``False`` (default) every edge is stored in both directions
        and reported once in canonical ``(min, max)`` order.
    name:
        Optional label used by datasets and experiment harnesses.

    Examples
    --------
    >>> g = UncertainGraph()
    >>> g.add_edge(0, 1, 0.5)
    >>> g.add_edge(1, 2, 0.9)
    >>> g.num_nodes, g.num_edges
    (3, 2)
    >>> g.probability(2, 1)
    0.9
    """

    def __init__(self, directed: bool = False, name: str = "") -> None:
        self.directed = directed
        self.name = name
        self._succ: Dict[int, Dict[int, float]] = {}
        self._pred: Dict[int, Dict[int, float]] = {}
        self._num_edges = 0
        self._version = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[ProbEdge],
        directed: bool = False,
        name: str = "",
    ) -> "UncertainGraph":
        """Build a graph from an iterable of ``(u, v, p)`` triples."""
        graph = cls(directed=directed, name=name)
        for u, v, p in edges:
            graph.add_edge(u, v, p)
        return graph

    def add_node(self, u: int) -> None:
        """Add an isolated node (no-op if it already exists)."""
        if u not in self._succ:
            self._succ[u] = {}
            self._pred[u] = {}
            self._version += 1

    def add_edge(self, u: int, v: int, p: float) -> None:
        """Add edge ``(u, v)`` with probability ``p``.

        Self-loops are rejected (they never affect reachability).  Adding
        an existing edge overwrites its probability.
        """
        if u == v:
            raise ValueError(f"self-loop ({u}, {u}) is not allowed")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"edge probability {p!r} outside [0, 1]")
        self.add_node(u)
        self.add_node(v)
        is_new = v not in self._succ[u]
        self._succ[u][v] = p
        self._pred[v][u] = p
        if not self.directed:
            self._succ[v][u] = p
            self._pred[u][v] = p
        if is_new:
            self._num_edges += 1
        self._version += 1

    def remove_edge(self, u: int, v: int) -> None:
        """Remove edge ``(u, v)``; raises ``KeyError`` when absent."""
        if v not in self._succ.get(u, {}):
            raise KeyError(f"edge ({u}, {v}) not in graph")
        del self._succ[u][v]
        del self._pred[v][u]
        if not self.directed:
            del self._succ[v][u]
            del self._pred[u][v]
        self._num_edges -= 1
        self._version += 1

    def set_probability(self, u: int, v: int, p: float) -> None:
        """Update the probability of an existing edge."""
        if not self.has_edge(u, v):
            raise KeyError(f"edge ({u}, {v}) not in graph")
        self.add_edge(u, v, p)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Mutation counter: bumps on any node/edge change.

        Compiled representations (e.g. the vectorized engine's CSR
        cache, see :mod:`repro.engine`) key their per-graph caches on
        this counter so they recompile exactly when the graph changes.
        """
        return self._version

    def content_hash(self) -> str:
        """Stable hex digest of the graph *content* (nodes, edges, probs).

        Unlike :attr:`version` — a per-instance mutation counter on
        which two distinct graph objects can collide — the content hash
        identifies what the graph *is*: two graphs with the same node
        set, the same edges and bit-identical probabilities hash equal
        regardless of construction history or insertion order, and any
        semantic difference changes the digest.  This is the key the
        persistent reliability index (:mod:`repro.index`) files world
        batches and cached results under, so an index survives process
        restarts and ``POST /graph`` hot-swaps invalidate exactly when
        the served graph really changed.

        The digest is cached per :attr:`version`, so repeated calls
        between mutations are free.

        Examples
        --------
        >>> a = UncertainGraph.from_edges([(0, 1, 0.5), (1, 2, 0.9)])
        >>> b = UncertainGraph.from_edges([(1, 2, 0.9), (0, 1, 0.5)])
        >>> a.content_hash() == b.content_hash()
        True
        >>> b.add_edge(0, 2, 0.1)
        >>> a.content_hash() == b.content_hash()
        False
        """
        cached = getattr(self, "_content_hash_cache", None)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        digest = hashlib.sha256()
        digest.update(b"repro-graph-v1|")
        digest.update(b"directed|" if self.directed else b"undirected|")
        # Probabilities hash by their exact float64 bits: estimates are
        # deterministic functions of those bits, so equal hash => equal
        # sampling behavior, and any reweighting invalidates.
        # The sorted order here is load-bearing: the engine compiler
        # (repro.engine.csr._compile) assigns edge ids in the same
        # sorted order, so equal hash => identical edge-id layout =>
        # a persisted world batch's coin rows line up for every graph
        # that hashes to it.
        for u, v, p in sorted(self.edges()):
            digest.update(struct.pack("<qqd", u, v, p))
        digest.update(b"|nodes|")
        for u in sorted(self._succ):
            digest.update(struct.pack("<q", u))
        value = digest.hexdigest()
        self._content_hash_cache = (self._version, value)
        return value

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._succ)

    @property
    def num_edges(self) -> int:
        """Number of edges (undirected edges counted once)."""
        return self._num_edges

    def nodes(self) -> Iterator[int]:
        """Iterate over node ids."""
        return iter(self._succ)

    def has_node(self, u: int) -> bool:
        """True when node ``u`` exists."""
        return u in self._succ

    def has_edge(self, u: int, v: int) -> bool:
        """True when edge ``(u, v)`` exists (either direction if undirected)."""
        return v in self._succ.get(u, {})

    def probability(self, u: int, v: int) -> float:
        """Existence probability of edge ``(u, v)``."""
        try:
            return self._succ[u][v]
        except KeyError:
            raise KeyError(f"edge ({u}, {v}) not in graph") from None

    def successors(self, u: int) -> Dict[int, float]:
        """Mapping ``v -> p(u, v)`` of out-neighbors.  Do not mutate."""
        return self._succ.get(u, {})

    def predecessors(self, u: int) -> Dict[int, float]:
        """Mapping ``v -> p(v, u)`` of in-neighbors.  Do not mutate."""
        return self._pred.get(u, {})

    def edges(self) -> Iterator[ProbEdge]:
        """Iterate ``(u, v, p)`` triples, each undirected edge once."""
        for u, nbrs in self._succ.items():
            for v, p in nbrs.items():
                if self.directed or u <= v:
                    yield (u, v, p)

    def edge_set(self) -> Set[Edge]:
        """All edges as a set of ``(u, v)`` pairs (canonical for undirected)."""
        return {(u, v) for u, v, _ in self.edges()}

    def degree(self, u: int) -> int:
        """Number of distinct neighbors (in + out for directed graphs)."""
        if self.directed:
            merged = set(self._succ.get(u, {})) | set(self._pred.get(u, {}))
            return len(merged)
        return len(self._succ.get(u, {}))

    def weighted_degree(self, u: int) -> float:
        """Sum of incident edge probabilities (the paper's degree centrality)."""
        total = sum(self._succ.get(u, {}).values())
        if self.directed:
            total += sum(self._pred.get(u, {}).values())
        return total

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "UncertainGraph":
        """Deep copy (adjacency dictionaries are copied, node ids shared)."""
        clone = UncertainGraph(directed=self.directed, name=self.name)
        clone._succ = {u: dict(nbrs) for u, nbrs in self._succ.items()}
        clone._pred = {u: dict(nbrs) for u, nbrs in self._pred.items()}
        clone._num_edges = self._num_edges
        return clone

    def with_edges(self, extra: Iterable[ProbEdge]) -> "UncertainGraph":
        """Copy of this graph with extra ``(u, v, p)`` edges added."""
        clone = self.copy()
        for u, v, p in extra:
            clone.add_edge(u, v, p)
        return clone

    def subgraph(self, keep: Iterable[int]) -> "UncertainGraph":
        """Induced subgraph on ``keep`` (nodes preserved even if isolated)."""
        keep_set = set(keep)
        sub = UncertainGraph(directed=self.directed, name=self.name)
        for u in keep_set:
            if u in self._succ:
                sub.add_node(u)
        for u, v, p in self.edges():
            if u in keep_set and v in keep_set:
                sub.add_edge(u, v, p)
        return sub

    def edge_subgraph(self, edges: Iterable[Edge]) -> "UncertainGraph":
        """Subgraph containing exactly ``edges`` (with their probabilities)."""
        sub = UncertainGraph(directed=self.directed, name=self.name)
        for u, v in edges:
            sub.add_edge(u, v, self.probability(u, v))
        return sub

    # ------------------------------------------------------------------
    # traversal helpers
    # ------------------------------------------------------------------
    def hop_distances(self, source: int, max_hops: Optional[int] = None) -> Dict[int, int]:
        """BFS hop distance from ``source`` to every reachable node.

        Edge probabilities are ignored: this is distance in the *topology*,
        used for the h-hop candidate constraint and query generation.
        """
        if source not in self._succ:
            raise KeyError(f"node {source} not in graph")
        dist = {source: 0}
        frontier = deque([source])
        while frontier:
            u = frontier.popleft()
            d = dist[u]
            if max_hops is not None and d >= max_hops:
                continue
            for v in self._succ[u]:
                if v not in dist:
                    dist[v] = d + 1
                    frontier.append(v)
        return dist

    def within_hops(self, source: int, h: int) -> Set[int]:
        """Nodes within ``h`` hops of ``source`` (excluding ``source``)."""
        dist = self.hop_distances(source, max_hops=h)
        del dist[source]
        return set(dist)

    def connected_components(self) -> List[Set[int]]:
        """Weakly connected components (ignores direction and probability)."""
        seen: Set[int] = set()
        components = []
        for start in self._succ:
            if start in seen:
                continue
            comp = {start}
            frontier = deque([start])
            seen.add(start)
            while frontier:
                u = frontier.popleft()
                neighbors = set(self._succ[u]) | set(self._pred[u])
                for v in neighbors:
                    if v not in seen:
                        seen.add(v)
                        comp.add(v)
                        frontier.append(v)
            components.append(comp)
        return components

    # ------------------------------------------------------------------
    # possible-world semantics
    # ------------------------------------------------------------------
    def possible_worlds(self) -> Iterator[Tuple[Set[Edge], float]]:
        """Enumerate every possible world as ``(present_edges, probability)``.

        Exponential in the number of edges — intended for graphs with at
        most ~20 edges (validation, tests, exact baselines).
        """
        edge_list = list(self.edges())
        if len(edge_list) > 25:
            raise ValueError(
                f"refusing to enumerate 2^{len(edge_list)} possible worlds; "
                "use a sampling estimator instead"
            )
        for mask in itertools.product((False, True), repeat=len(edge_list)):
            prob = 1.0
            present: Set[Edge] = set()
            for include, (u, v, p) in zip(mask, edge_list, strict=True):
                if include:
                    prob *= p
                    present.add((u, v))
                else:
                    prob *= 1.0 - p
            if prob > 0.0:
                yield present, prob

    def world_probability(self, present: Set[Edge]) -> float:
        """Probability of observing exactly the world ``present`` (Eq. 1)."""
        prob = 1.0
        for u, v, p in self.edges():
            prob *= p if (u, v) in present else 1.0 - p
        return prob

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def log_weight(self, u: int, v: int) -> float:
        """``-log p(u, v)`` — the additive weight used by path algorithms."""
        p = self.probability(u, v)
        if p <= 0.0:
            return math.inf
        return -math.log(p)

    def missing_edges(self) -> Iterator[Edge]:
        """All node pairs that are *not* edges (candidate universe).

        O(n^2); only call on small graphs or after search-space reduction.
        """
        nodes = list(self._succ)
        if self.directed:
            for u in nodes:
                for v in nodes:
                    if u != v and not self.has_edge(u, v):
                        yield (u, v)
        else:
            for i, u in enumerate(nodes):
                for v in nodes[i + 1:]:
                    if not self.has_edge(u, v):
                        yield (u, v)

    def __contains__(self, u: int) -> bool:
        return u in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<UncertainGraph{label} {kind} "
            f"n={self.num_nodes} m={self.num_edges}>"
        )
