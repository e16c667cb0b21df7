"""Compiled CSR-style adjacency for the vectorized sampling engine.

The engine never traverses the dict-of-dicts :class:`UncertainGraph`
directly.  Instead it compiles the graph once into flat numpy arrays —
one canonical *edge* table (probabilities, one coin per edge) and one
*arc* table (directed traversal entries, two per undirected edge) sorted
by destination so a whole BFS sweep is a gather + ``bitwise_or.reduceat``
scatter.  The compilation is cached per graph and keyed on
:attr:`UncertainGraph.version`, so selection loops that evaluate
thousands of candidate overlays against the same base graph compile
exactly once.

Candidate-edge overlays never mutate the base compilation: an
:func:`extend_with_overlay` call produces a merged :class:`QueryPlan`
that appends overlay edges (and any overlay-only endpoints) behind the
base arrays.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..graph import UncertainGraph

ProbEdge = Tuple[int, int, float]
EdgeKey = Tuple[int, int]


class QueryPlan:
    """Flat arrays the batch kernel consumes.

    Attributes
    ----------
    num_nodes:
        Total node count, including overlay-only endpoints.
    probs:
        ``(num_edges,)`` float64 — one existence probability per
        canonical edge (undirected edges appear once).
    arc_src / arc_eid:
        ``(num_arcs,)`` — source node index and edge id of every
        traversal arc, **sorted by destination index**.
    node_ids / index_of:
        Bidirectional node id <-> dense index mapping.
    edge_index:
        Canonical ``(u, v)`` node-id key -> tuple of edge ids carrying
        that key (used by stratified sampling to force edge states;
        base and overlay edges with the same endpoints share a key).
    edge_u / edge_v / edge_ordinal:
        ``(num_edges,)`` int64 — the *identity* of each edge id in
        node-id space: canonical endpoints plus the edge's ordinal
        among same-key duplicates (0 for every base edge; > 0 only for
        overlay edges stacked on an existing key).  The keyed coin
        generator (:func:`~repro.engine.kernel.sample_worlds`) seeds
        each edge's coin row from this identity, never from the edge
        id, so recompiling after a graph edit leaves untouched edges'
        coins bit-identical even when their edge ids shift.  Filled
        where the edge table is built (:func:`compile_plan`,
        :func:`extend_with_overlay`); a reverse view shares its forward
        plan's arrays.
    """

    __slots__ = (
        "directed",
        "num_nodes",
        "num_edges",
        "probs",
        "arc_src",
        "arc_dst",
        "arc_eid",
        "node_ids",
        "index_of",
        "edge_index",
        "edge_u",
        "edge_v",
        "edge_ordinal",
        "_reverse",
        "_forward",
        "__weakref__",
    )

    def __init__(
        self,
        directed: bool,
        num_nodes: int,
        probs: np.ndarray,
        arc_src: np.ndarray,
        arc_dst: np.ndarray,
        arc_eid: np.ndarray,
        node_ids: List[int],
        index_of: Dict[int, int],
        edge_index: Dict[EdgeKey, Tuple[int, ...]],
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        edge_ordinal: np.ndarray,
    ) -> None:
        self.directed = directed
        self.num_nodes = num_nodes
        self.num_edges = int(probs.shape[0])
        self.probs = probs
        self.node_ids = node_ids
        self.index_of = index_of
        self.edge_index = edge_index
        if arc_dst.size == 0 or bool(np.all(arc_dst[1:] >= arc_dst[:-1])):
            # Already destination-sorted — the overlay-merge fast path
            # (:func:`extend_with_overlay` inserts in sorted position)
            # and the empty table; skip the O(A log A) argsort that
            # would otherwise run once per greedy round.
            self.arc_dst = np.ascontiguousarray(arc_dst)
            self.arc_src = np.ascontiguousarray(arc_src)
            self.arc_eid = np.ascontiguousarray(arc_eid)
        else:
            order = np.argsort(arc_dst, kind="stable")
            self.arc_dst = np.ascontiguousarray(arc_dst[order])
            self.arc_src = np.ascontiguousarray(arc_src[order])
            self.arc_eid = np.ascontiguousarray(arc_eid[order])
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.edge_ordinal = edge_ordinal
        self._reverse: Optional["QueryPlan"] = None
        self._forward: Optional["weakref.ref[QueryPlan]"] = None

    def node_index(self, node: int) -> Optional[int]:
        """Dense index of ``node`` or ``None`` when absent."""
        return self.index_of.get(node)

    def reverse_view(self) -> "QueryPlan":
        """Plan over the same worlds with every arc flipped.

        The reverse view shares edge ids (and therefore
        :class:`~repro.engine.kernel.WorldBatch` coin rows), node
        indexing and probabilities with this plan — only the traversal
        direction changes, so a reverse batch BFS from ``t`` over the
        *same* sampled worlds yields, for every node ``v``, the bitmask
        of worlds in which ``v`` reaches ``t``.  Undirected plans are
        their own reverse (the arc table already holds both
        orientations).  The view is built once per plan and cached;
        ``rv.reverse_view() is plan`` holds while ``plan`` lives (the
        back-reference is weak, so no reference cycle keeps either).
        """
        if not self.directed:
            return self
        forward = self._forward() if self._forward is not None else None
        if forward is not None:
            return forward
        if self._reverse is None:
            reverse = QueryPlan(
                directed=True,
                num_nodes=self.num_nodes,
                probs=self.probs,
                arc_src=self.arc_dst,
                arc_dst=self.arc_src,
                arc_eid=self.arc_eid,
                node_ids=self.node_ids,
                index_of=self.index_of,
                edge_index=self.edge_index,
                edge_u=self.edge_u,
                edge_v=self.edge_v,
                edge_ordinal=self.edge_ordinal,
            )
            reverse._forward = weakref.ref(self)
            self._reverse = reverse
        return self._reverse


def canonical_key(directed: bool, u: int, v: int) -> EdgeKey:
    """Stable edge key: ``(min, max)`` for undirected graphs."""
    if not directed and v < u:
        return (v, u)
    return (u, v)


def _compile(graph: UncertainGraph) -> QueryPlan:
    node_ids = list(graph.nodes())
    index_of = {u: i for i, u in enumerate(node_ids)}
    directed = graph.directed

    num_edges = graph.num_edges
    probs = np.empty(num_edges, dtype=np.float64)
    num_arcs = num_edges if directed else 2 * num_edges
    arc_src = np.empty(num_arcs, dtype=np.int64)
    arc_dst = np.empty(num_arcs, dtype=np.int64)
    arc_eid = np.empty(num_arcs, dtype=np.int64)
    edge_index: Dict[EdgeKey, Tuple[int, ...]] = {}

    # Edge ids are assigned in sorted (u, v) order — the same canonical
    # order UncertainGraph.content_hash() hashes edges in — never in
    # insertion order.  The persistent index (repro.index) files world
    # batches by content hash with one coin row per edge id, so two
    # content-equal graphs MUST compile to the same edge-id layout or a
    # store hit would hand one graph coin rows permuted against the
    # other's probabilities.
    pos = 0
    for eid, (u, v, p) in enumerate(sorted(graph.edges())):
        probs[eid] = p
        key = canonical_key(directed, u, v)
        edge_index[key] = (*edge_index.get(key, ()), eid)
        ui, vi = index_of[u], index_of[v]
        arc_src[pos] = ui
        arc_dst[pos] = vi
        arc_eid[pos] = eid
        pos += 1
        if not directed:
            arc_src[pos] = vi
            arc_dst[pos] = ui
            arc_eid[pos] = eid
            pos += 1

    # A graph holds one edge per canonical key, so every compiled edge
    # has ordinal 0 and its identity is its canonical endpoints — read
    # off the first arc each edge wrote.
    node_array = np.asarray(node_ids, dtype=np.int64)
    step = 1 if directed else 2
    edge_u = node_array[arc_src[:pos:step]]
    edge_v = node_array[arc_dst[:pos:step]]
    if not directed:
        edge_u, edge_v = (
            np.minimum(edge_u, edge_v), np.maximum(edge_u, edge_v)
        )

    return QueryPlan(
        directed=directed,
        num_nodes=len(node_ids),
        probs=probs,
        arc_src=arc_src[:pos],
        arc_dst=arc_dst[:pos],
        arc_eid=arc_eid[:pos],
        node_ids=node_ids,
        index_of=index_of,
        edge_index=edge_index,
        edge_u=edge_u,
        edge_v=edge_v,
        edge_ordinal=np.zeros(num_edges, dtype=np.int64),
    )


#: ``graph -> (version, plan)``.  Weakly keyed, so a plan lives as long
#: as its graph, and nothing is stored on the graph: a pickled graph
#: (the shard pool's swaps and respawns) carries no plan, and its copy
#: compiles its own on first use.  A plan holds no reference to its
#: graph, which would keep both alive.
_PLANS: "weakref.WeakKeyDictionary[UncertainGraph, Tuple[int, QueryPlan]]" = (
    weakref.WeakKeyDictionary()
)


def compile_plan(graph: UncertainGraph) -> QueryPlan:
    """Compiled base plan for ``graph``, cached per graph version.

    The cache (:data:`_PLANS`) is invalidated by
    :attr:`UncertainGraph.version`, which bumps on every mutation.
    Holding a returned plan across graph mutations is safe — plans are
    immutable snapshots.
    """
    cached = _PLANS.get(graph)
    if cached is not None and cached[0] == graph.version:
        return cached[1]
    plan = _compile(graph)
    _PLANS[graph] = (graph.version, plan)
    return plan


def extend_with_overlay(
    base: QueryPlan,
    extra_edges: Iterable[ProbEdge],
) -> QueryPlan:
    """Merged plan: base graph plus overlay ``(u, v, p)`` edges.

    Overlay edges are appended with fresh edge ids (coins independent of
    base edges); endpoints unknown to the base graph get new dense
    indices so overlays may route through nodes the graph has never
    seen, matching the legacy scalar traversal semantics.
    """
    extra = list(extra_edges)
    if not extra:
        return base

    index_of = dict(base.index_of)
    node_ids = list(base.node_ids)

    def intern(node: int) -> int:
        idx = index_of.get(node)
        if idx is None:
            idx = len(node_ids)
            index_of[node] = idx
            node_ids.append(node)
        return idx

    directed = base.directed
    n_extra = len(extra)
    probs = np.empty(n_extra, dtype=np.float64)
    num_arcs = n_extra if directed else 2 * n_extra
    arc_src = np.empty(num_arcs, dtype=np.int64)
    arc_dst = np.empty(num_arcs, dtype=np.int64)
    arc_eid = np.empty(num_arcs, dtype=np.int64)
    edge_index = dict(base.edge_index)
    edge_u = np.empty(n_extra, dtype=np.int64)
    edge_v = np.empty(n_extra, dtype=np.int64)
    edge_ordinal = np.empty(n_extra, dtype=np.int64)

    pos = 0
    for offset, (u, v, p) in enumerate(extra):
        eid = base.num_edges + offset
        probs[offset] = p
        key = canonical_key(directed, u, v)
        ids = edge_index.get(key, ())
        edge_index[key] = (*ids, eid)
        # Stacked on an existing key, the edge's ordinal is its position
        # among the key's ids.
        edge_u[offset], edge_v[offset] = key
        edge_ordinal[offset] = len(ids)
        ui, vi = intern(u), intern(v)
        arc_src[pos] = ui
        arc_dst[pos] = vi
        arc_eid[pos] = eid
        pos += 1
        if not directed:
            arc_src[pos] = vi
            arc_dst[pos] = ui
            arc_eid[pos] = eid
            pos += 1

    # The base arc table is destination-sorted; insert the few overlay
    # arcs at their sorted positions (side="right" keeps base arcs
    # before overlay arcs of equal destination, matching what a stable
    # argsort of the concatenation produced) so QueryPlan's
    # sorted-input fast path skips the O(A log A) re-sort — this runs
    # once per greedy round in the incremental selection loop.
    new_order = np.argsort(arc_dst[:pos], kind="stable")
    ins_dst = arc_dst[:pos][new_order]
    positions = np.searchsorted(base.arc_dst, ins_dst, side="right")
    merged_dst = np.insert(base.arc_dst, positions, ins_dst)
    merged_src = np.insert(base.arc_src, positions, arc_src[:pos][new_order])
    merged_eid = np.insert(base.arc_eid, positions, arc_eid[:pos][new_order])
    return QueryPlan(
        directed=directed,
        num_nodes=len(node_ids),
        probs=np.concatenate([base.probs, probs]),
        arc_src=merged_src,
        arc_dst=merged_dst,
        arc_eid=merged_eid,
        node_ids=node_ids,
        index_of=index_of,
        edge_index=edge_index,
        edge_u=np.concatenate([base.edge_u, edge_u]),
        edge_v=np.concatenate([base.edge_v, edge_v]),
        edge_ordinal=np.concatenate([base.edge_ordinal, edge_ordinal]),
    )


def build_query_plan(
    graph: UncertainGraph,
    extra_edges: Optional[Sequence[ProbEdge]] = None,
) -> QueryPlan:
    """One-call helper: cached base compile, optionally overlay-merged."""
    plan = compile_plan(graph)
    if extra_edges:
        plan = extend_with_overlay(plan, extra_edges)
    return plan
