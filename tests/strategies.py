"""Shared hypothesis strategies for the test suite.

One home for the generators every property-based suite draws from, so
``test_properties.py``, ``test_bounds_maxflow.py``,
``test_delta_parity.py`` and ``test_paths.py`` exercise the *same*
distribution of graphs — a shrunk counterexample from one suite
reproduces in the others.

``conftest.py`` re-exports :func:`small_uncertain_graphs` for backward
compatibility with older imports.
"""

from __future__ import annotations

from typing import List, Tuple

from hypothesis import strategies as st

from repro.api import GraphDelta
from repro.graph import UncertainGraph

#: Edit-op token: ``("upsert", u, v, p)`` or ``("delete", u, v, 0.0)``.
EditOp = Tuple[str, int, int, float]

#: ``(graph, overlay, source, target)`` for path-layer properties.
PathInputs = Tuple[UncertainGraph, List[Tuple[int, int, float]], int, int]

#: Few distinct probabilities, so many paths share one ``-log`` weight
#: (1/8 = (1/2)^3, 1/4 = (1/2)^2) and equally reliable paths are common;
#: 0 is an edge no search may take, 1 a free hop.
TIE_PRONE_PROBABILITIES = (0.0, 0.125, 0.25, 0.5, 0.9, 1.0)


def edge_probabilities(min_value: float = 0.05) -> st.SearchStrategy[float]:
    """Edge probabilities bounded away from 0 (degenerate coins)."""
    return st.floats(
        min_value=min_value, max_value=1.0,
        allow_nan=False, allow_infinity=False,
    )


def small_uncertain_graphs(
    max_nodes: int = 6,
    directed: bool = False,
) -> st.SearchStrategy[UncertainGraph]:
    """Hypothesis strategy: random small graphs with probabilistic edges."""

    @st.composite
    def build(draw) -> UncertainGraph:
        n = draw(st.integers(min_value=2, max_value=max_nodes))
        is_directed = draw(st.booleans()) if directed else False
        g = UncertainGraph(directed=is_directed)
        for u in range(n):
            g.add_node(u)
        max_edges = n * (n - 1) if is_directed else n * (n - 1) // 2
        num_edges = draw(st.integers(min_value=0, max_value=min(max_edges, 9)))
        for _ in range(num_edges):
            u = draw(st.integers(min_value=0, max_value=n - 1))
            v = draw(st.integers(min_value=0, max_value=n - 1))
            if u == v:
                continue
            p = draw(edge_probabilities())
            g.add_edge(u, v, p)
        return g

    return build()


def edit_ops(
    max_node: int = 7,
    max_ops: int = 6,
) -> st.SearchStrategy[List[EditOp]]:
    """Abstract edit-op sequences for streaming-update tests.

    Ops are *tokens*, not yet a valid :class:`~repro.api.GraphDelta` —
    a drawn delete may name an edge the graph does not have.  Resolve a
    token list against the live graph with :func:`resolve_delta`, which
    keeps only applicable deletes; this keeps the strategy independent
    of the (evolving) graph the test applies it to.
    """
    node = st.integers(min_value=0, max_value=max_node)
    upsert = st.tuples(st.just("upsert"), node, node, edge_probabilities())
    delete = st.tuples(st.just("delete"), node, node, st.just(0.0))
    return st.lists(st.one_of(upsert, delete), min_size=1, max_size=max_ops)


def resolve_delta(graph: UncertainGraph, ops: List[EditOp]) -> GraphDelta:
    """Turn abstract :func:`edit_ops` tokens into a valid delta.

    Self-loops are dropped, deletes that do not name a live edge are
    dropped, duplicate deletes collapse (undirected edges canonicalize
    on the sorted endpoint pair), and later upserts of the same edge
    win.  The result always passes ``GraphDelta.validate(graph)``.
    """
    deletes: dict = {}
    upserts: dict = {}

    def canon(u: int, v: int) -> Tuple[int, int]:
        if graph.directed or u <= v:
            return (u, v)
        return (v, u)

    for op, u, v, p in ops:
        if u == v:
            continue
        if op == "delete":
            if graph.has_edge(u, v):
                deletes[canon(u, v)] = (u, v)
                upserts.pop(canon(u, v), None)
        else:
            upserts[canon(u, v)] = (u, v, p)
    return GraphDelta(
        upserts=tuple(upserts.values()), deletes=tuple(deletes.values())
    )


def batch_shapes(
    min_samples: int = 64,
    max_samples: int = 512,
) -> st.SearchStrategy[Tuple[int, int]]:
    """``(samples, seed)`` pairs spanning sub-word and multi-word batches."""
    return st.tuples(
        st.integers(min_value=min_samples, max_value=max_samples),
        st.integers(min_value=0, max_value=2**31 - 1),
    )


def tie_prone_path_inputs(max_nodes: int = 7) -> st.SearchStrategy[PathInputs]:
    """Graphs, overlays and query pairs where path ties are common.

    Directed or undirected; every probability comes from
    :data:`TIE_PRONE_PROBABILITIES`.  The overlay may name node
    ``n``, which only the overlay knows, may repeat a graph edge with
    another probability, and may carry ``p = 0`` edges.  The target
    differs from the source and may be the overlay-only node.
    """

    @st.composite
    def build(draw) -> PathInputs:
        n = draw(st.integers(min_value=3, max_value=max_nodes))
        directed = draw(st.booleans())
        prob = st.sampled_from(TIE_PRONE_PROBABILITIES)
        graph = UncertainGraph(directed=directed)
        for u in range(n):
            graph.add_node(u)
        node = st.integers(min_value=0, max_value=n - 1)
        for _ in range(draw(st.integers(min_value=n - 1, max_value=3 * n))):
            u, v = draw(node), draw(node)
            if u != v:
                graph.add_edge(u, v, draw(prob))
        any_node = st.integers(min_value=0, max_value=n)  # n: overlay-only
        overlay = []
        for _ in range(draw(st.integers(min_value=0, max_value=n))):
            u, v = draw(any_node), draw(any_node)
            if u != v:
                overlay.append((u, v, draw(prob)))
        edges = sorted(graph.edges())
        if edges and draw(st.booleans()):
            u, v, _ = draw(st.sampled_from(edges))
            overlay.append((u, v, draw(prob)))
        source = draw(node)
        return graph, overlay, source, draw(any_node.filter(lambda v: v != source))

    return build()
