"""Tests for path algorithms: Dijkstra MRP, Yen top-l, layered search."""

import heapq
import math
import sys
from heapq import heappop, heappush

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.paths.dijkstra as dijkstra_mod
from repro.graph import UncertainGraph, assign_uniform, erdos_renyi
from repro.paths import (
    best_improvement,
    constrained_most_reliable_paths,
    most_reliable_path,
    path_probability,
    reliability_dijkstra_all,
    top_l_most_reliable_paths,
)

from strategies import tie_prone_path_inputs


class TestMostReliablePath:
    def test_picks_higher_product(self, diamond):
        path, prob = most_reliable_path(diamond, 0, 3)
        assert path == [0, 2, 3]
        assert prob == pytest.approx(0.42)

    def test_longer_but_stronger_path_wins(self):
        g = UncertainGraph.from_edges(
            [(0, 1, 0.1), (0, 2, 0.9), (2, 3, 0.9), (3, 1, 0.9)]
        )
        path, prob = most_reliable_path(g, 0, 1)
        assert path == [0, 2, 3, 1]
        assert prob == pytest.approx(0.9 ** 3)

    def test_source_is_target(self, diamond):
        path, prob = most_reliable_path(diamond, 1, 1)
        assert path == [1] and prob == 1.0

    def test_unreachable(self):
        g = UncertainGraph()
        g.add_edge(0, 1, 0.5)
        g.add_node(5)
        path, prob = most_reliable_path(g, 0, 5)
        assert path is None and prob == 0.0

    def test_zero_probability_edges_skipped(self):
        g = UncertainGraph.from_edges([(0, 1, 0.0)])
        path, prob = most_reliable_path(g, 0, 1)
        assert path is None

    def test_overlay_edges(self):
        g = UncertainGraph()
        g.add_node(0)
        g.add_node(1)
        path, prob = most_reliable_path(g, 0, 1, [(0, 1, 0.7)])
        assert path == [0, 1]
        assert prob == pytest.approx(0.7)

    def test_forbidden_node(self, diamond):
        path, prob = most_reliable_path(diamond, 0, 3, forbidden_nodes={2})
        assert path == [0, 1, 3]

    def test_forbidden_edge(self, diamond):
        path, _ = most_reliable_path(
            diamond, 0, 3, forbidden_edges={(0, 2), (2, 0)}
        )
        assert path == [0, 1, 3]

    def test_directed_orientation(self):
        g = UncertainGraph(directed=True)
        g.add_edge(1, 0, 0.9)
        path, prob = most_reliable_path(g, 0, 1)
        assert path is None


class TestPathProbability:
    def test_product(self, diamond):
        assert path_probability(diamond, [0, 1, 3]) == pytest.approx(0.4)

    def test_single_node(self, diamond):
        assert path_probability(diamond, [2]) == 1.0

    def test_extra_probs(self, diamond):
        assert path_probability(
            diamond, [0, 3], {(0, 3): 0.9}
        ) == pytest.approx(0.9)

    def test_extra_probs_reverse_orientation(self, diamond):
        # Undirected: key stored as (3, 0) must be found for hop 0 -> 3.
        assert path_probability(
            diamond, [0, 3], {(3, 0): 0.9}
        ) == pytest.approx(0.9)

    def test_missing_edge_raises(self, diamond):
        with pytest.raises(KeyError):
            path_probability(diamond, [0, 3])


class TestReliabilityDijkstraAll:
    def test_forward(self, diamond):
        best = reliability_dijkstra_all(diamond, 0)
        assert best[0] == 1.0
        assert best[3] == pytest.approx(0.42)

    def test_reverse_directed(self):
        g = UncertainGraph(directed=True)
        g.add_edge(0, 1, 0.5)
        g.add_edge(1, 2, 0.4)
        to_2 = reliability_dijkstra_all(g, 2, reverse=True)
        assert to_2[0] == pytest.approx(0.2)

    def test_missing_source(self, diamond):
        assert reliability_dijkstra_all(diamond, 77) == {}


class TestTopLPaths:
    def test_equally_reliable_paths_come_most_reliable_first(self):
        """Both paths have reliability 0.0224, but the first is found by
        Dijkstra (exp of a -log sum) and the second through a product,
        one rounding step higher; the list must still be non-increasing."""
        g = UncertainGraph.from_edges(
            [(0, 1, 0.16), (1, 3, 0.14), (0, 2, 0.08), (2, 3, 0.28)]
        )
        probs = [pr for _, pr in top_l_most_reliable_paths(g, 0, 3, 8)]
        assert probs == sorted(probs, reverse=True)
        assert probs == pytest.approx([0.0224, 0.0224])

    def test_diamond_both_paths(self, diamond):
        paths = top_l_most_reliable_paths(diamond, 0, 3, 5)
        assert [p for p, _ in paths] == [[0, 2, 3], [0, 1, 3]]
        probs = [pr for _, pr in paths]
        assert probs == sorted(probs, reverse=True)

    def test_l_limits_output(self, diamond):
        paths = top_l_most_reliable_paths(diamond, 0, 3, 1)
        assert len(paths) == 1

    def test_invalid_l(self, diamond):
        with pytest.raises(ValueError):
            top_l_most_reliable_paths(diamond, 0, 3, 0)

    def test_no_paths(self):
        g = UncertainGraph()
        g.add_edge(0, 1, 0.5)
        g.add_node(5)
        assert top_l_most_reliable_paths(g, 0, 5, 3) == []

    def test_paths_are_simple(self):
        g = UncertainGraph.from_edges(
            [(0, 1, 0.9), (1, 2, 0.9), (2, 0, 0.9), (2, 3, 0.9), (1, 3, 0.2)]
        )
        for path, _ in top_l_most_reliable_paths(g, 0, 3, 10):
            assert len(path) == len(set(path))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_bruteforce_enumeration(self, seed):
        import random

        rng = random.Random(seed)
        g = UncertainGraph()
        n = 6
        for u in range(n):
            g.add_node(u)
        for _ in range(10):
            u, v = rng.sample(range(n), 2)
            g.add_edge(u, v, round(rng.uniform(0.1, 0.95), 2))

        def all_simple_paths(s, t):
            found = []

            def dfs(node, visited, prob):
                if node == t:
                    found.append(prob)
                    return
                for nbr, p in g.successors(node).items():
                    if nbr not in visited:
                        dfs(nbr, visited | {nbr}, prob * p)

            dfs(s, {s}, 1.0)
            return sorted(found, reverse=True)

        brute = all_simple_paths(0, n - 1)
        yen = [pr for _, pr in top_l_most_reliable_paths(g, 0, n - 1, 50)]
        assert len(yen) == len(brute)
        for a, b in zip(yen, brute, strict=True):
            assert a == pytest.approx(b)

    def test_overlay_candidates_usable(self, diamond):
        paths = top_l_most_reliable_paths(diamond, 0, 3, 5, [(0, 3, 0.99)])
        assert paths[0][0] == [0, 3]



class TestConstrainedPaths:
    def test_zero_budget_equals_mrp(self, diamond):
        result = constrained_most_reliable_paths(diamond, 0, 3, 0, [])
        assert result[0].nodes == [0, 2, 3]
        assert result[0].probability == pytest.approx(0.42)

    def test_red_edge_improves(self, diamond):
        result = constrained_most_reliable_paths(
            diamond, 0, 3, 1, [(0, 3, 0.9)]
        )
        assert result[1].nodes == [0, 3]
        assert result[1].red_edges == [(0, 3)]

    def test_red_budget_enforced(self):
        g = UncertainGraph()
        for u in range(4):
            g.add_node(u)
        reds = [(0, 1, 0.9), (1, 2, 0.9), (2, 3, 0.9)]
        result = constrained_most_reliable_paths(g, 0, 3, 2, reds)
        # Three red edges are needed; budget 2 cannot reach t.
        assert 3 not in result and 2 not in result and 1 not in result

    def test_exactly_j_red_edges_tracked(self):
        g = UncertainGraph()
        g.add_edge(1, 2, 0.5)
        for u in (0, 3):
            g.add_node(u)
        reds = [(0, 1, 0.8), (2, 3, 0.8)]
        result = constrained_most_reliable_paths(g, 0, 3, 2, reds)
        assert result[2].red_edges == [(0, 1), (2, 3)]
        assert result[2].probability == pytest.approx(0.8 * 0.5 * 0.8)

    def test_negative_budget_rejected(self, diamond):
        with pytest.raises(ValueError):
            constrained_most_reliable_paths(diamond, 0, 3, -1, [])

    def test_best_improvement_none_when_no_gain(self, diamond):
        result = constrained_most_reliable_paths(
            diamond, 0, 3, 1, [(0, 3, 0.1)]
        )
        assert best_improvement(result) is None

    def test_best_improvement_prefers_lowest_weight(self, diamond):
        result = constrained_most_reliable_paths(
            diamond, 0, 3, 2, [(0, 3, 0.9), (1, 3, 0.99)]
        )
        best = best_improvement(result)
        assert best is not None
        assert best.probability > 0.42

    def test_directed_red_edges(self):
        g = UncertainGraph(directed=True)
        g.add_node(0)
        g.add_node(1)
        result = constrained_most_reliable_paths(g, 0, 1, 1, [(1, 0, 0.9)])
        assert 1 not in result  # red edge points the wrong way

    def test_weight_property(self, diamond):
        result = constrained_most_reliable_paths(diamond, 0, 3, 0, [])
        assert result[0].weight == pytest.approx(-math.log(0.42))


# ----------------------------------------------------------------------
# Frozen reference: the unguided path layer as it stood before the
# shared -log p rows and the reverse guide (one overlay build and one
# plain Dijkstra per search).  Copied verbatim but for the names and for
# Yen's candidate heap, which pops through ``heapq.heappop`` so that a
# spy on this module's ``heappop`` counts Dijkstra pops only.
# ----------------------------------------------------------------------


def _frozen_build_overlay(graph, extra_edges):
    overlay = {}
    if not extra_edges:
        return overlay
    for u, v, p in extra_edges:
        overlay.setdefault(u, []).append((v, p))
        if not graph.directed:
            overlay.setdefault(v, []).append((u, p))
    return overlay


def _frozen_path_probability(graph, path, extra_probs=None):
    prob = 1.0
    for u, v in zip(path, path[1:], strict=False):
        if graph.has_edge(u, v):
            prob *= graph.probability(u, v)
        elif extra_probs is not None:
            if (u, v) in extra_probs:
                prob *= extra_probs[(u, v)]
            elif not graph.directed and (v, u) in extra_probs:
                prob *= extra_probs[(v, u)]
            else:
                raise KeyError(f"edge ({u}, {v}) on path but not in graph/extras")
        else:
            raise KeyError(f"edge ({u}, {v}) on path but not in graph")
    return prob


def _frozen_most_reliable_path(graph, source, target, extra_edges=None,
                               forbidden_nodes=None, forbidden_edges=None):
    if source == target:
        return [source], 1.0
    if source not in graph or (target not in graph and not extra_edges):
        return None, 0.0
    overlay = _frozen_build_overlay(graph, extra_edges)
    banned_nodes = forbidden_nodes or ()
    banned_edges = forbidden_edges or ()
    dist = {source: 0.0}
    parent = {}
    heap = [(0.0, source)]
    visited = set()
    while heap:
        d, u = heappop(heap)
        if u in visited:
            continue
        if u == target:
            break
        visited.add(u)
        neighbors = list(graph.successors(u).items())
        if overlay and u in overlay:
            neighbors.extend(overlay[u])
        for v, p in neighbors:
            if v in visited or v in banned_nodes or p <= 0.0:
                continue
            if (u, v) in banned_edges:
                continue
            nd = d - math.log(p)
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                parent[v] = u
                heappush(heap, (nd, v))
    if target not in dist:
        return None, 0.0
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path, math.exp(-dist[target])


def _frozen_reliability_dijkstra_all(graph, source, extra_edges=None,
                                     reverse=False):
    if source not in graph:
        return {}
    neighbor_fn = graph.successors
    if reverse and graph.directed:
        neighbor_fn = graph.predecessors
        extra_edges = [(v, u, p) for u, v, p in extra_edges or ()]
    overlay = _frozen_build_overlay(graph, extra_edges)
    dist = {source: 0.0}
    heap = [(0.0, source)]
    visited = set()
    while heap:
        d, u = heappop(heap)
        if u in visited:
            continue
        visited.add(u)
        neighbors = list(neighbor_fn(u).items())
        if overlay and u in overlay:
            neighbors.extend(overlay[u])
        for v, p in neighbors:
            if v in visited or p <= 0.0:
                continue
            nd = d - math.log(p)
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heappush(heap, (nd, v))
    return {node: math.exp(-d) for node, d in dist.items()}


def _frozen_top_l(graph, source, target, l, extra_edges=None):
    if l < 1:
        raise ValueError("l must be positive")
    extra = list(extra_edges) if extra_edges else None
    extra_probs = {}
    if extra:
        for u, v, p in extra:
            extra_probs[(u, v)] = p
            if not graph.directed:
                extra_probs[(v, u)] = p
    first_path, first_prob = _frozen_most_reliable_path(graph, source, target, extra)
    if first_path is None or first_prob <= 0.0:
        return []
    found = [(first_path, first_prob)]
    candidates = []
    seen_candidates = {tuple(first_path)}
    while len(found) < l:
        prev_path = found[-1][0]
        for i in range(len(prev_path) - 1):
            spur_node = prev_path[i]
            root = prev_path[: i + 1]
            banned_edges = set()
            for path, _ in found:
                if len(path) > i and path[: i + 1] == root:
                    banned_edges.add((path[i], path[i + 1]))
                    if not graph.directed:
                        banned_edges.add((path[i + 1], path[i]))
            banned_nodes = set(root[:-1])
            spur_path, spur_prob = _frozen_most_reliable_path(
                graph, spur_node, target, extra,
                forbidden_nodes=banned_nodes, forbidden_edges=banned_edges,
            )
            if spur_path is None or spur_prob <= 0.0:
                continue
            total_path = root[:-1] + spur_path
            key = tuple(total_path)
            if key in seen_candidates:
                continue
            seen_candidates.add(key)
            prob = _frozen_path_probability(graph, total_path, extra_probs)
            if prob <= 0.0:
                continue
            heappush(candidates, (-math.log(prob), total_path))
        if not candidates:
            break
        weight, best = heapq.heappop(candidates)
        found.append((best, math.exp(-weight)))
    found.sort(key=lambda item: item[1], reverse=True)
    return found


def bits(value):
    """Exact float identity for a path-layer result (``hex`` tells two
    floats one rounding step apart)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [(key, bits(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [bits(item) for item in value]
    return value


PROPERTY = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestMatchesFrozenReference:
    """The shared rows and the guided spur searches change work only:
    every answer equals the unguided reference's, list for list and
    float bit for float bit, on inputs where equally reliable paths are
    common."""

    @given(inputs=tie_prone_path_inputs(), l=st.integers(min_value=1, max_value=12))
    @settings(max_examples=300, **PROPERTY)
    def test_top_l(self, inputs, l):
        graph, overlay, s, t = inputs
        got = top_l_most_reliable_paths(graph, s, t, l, overlay)
        assert bits(got) == bits(_frozen_top_l(graph, s, t, l, overlay))

    @given(inputs=tie_prone_path_inputs(), data=st.data())
    @settings(max_examples=200, **PROPERTY)
    def test_most_reliable_path_with_bans(self, inputs, data):
        graph, overlay, s, t = inputs
        nodes = sorted(set(graph.nodes()) | {graph.num_nodes})
        banned_nodes = data.draw(st.sets(st.sampled_from(nodes), max_size=2))
        arcs = [(u, v) for u, v, _ in graph.edges()] + [
            (u, v) for u, v, _ in overlay
        ]
        if not graph.directed:
            arcs += [(v, u) for u, v in arcs]
        banned_edges = (
            data.draw(st.sets(st.sampled_from(arcs), max_size=3)) if arcs else set()
        )
        got = most_reliable_path(graph, s, t, overlay, banned_nodes, banned_edges)
        want = _frozen_most_reliable_path(
            graph, s, t, overlay, banned_nodes, banned_edges
        )
        assert bits(got) == bits(want)

    @given(inputs=tie_prone_path_inputs(), reverse=st.booleans())
    @settings(max_examples=150, **PROPERTY)
    def test_reliability_dijkstra_all(self, inputs, reverse):
        graph, overlay, s, _ = inputs
        got = reliability_dijkstra_all(graph, s, overlay, reverse=reverse)
        want = _frozen_reliability_dijkstra_all(graph, s, overlay, reverse=reverse)
        assert bits(got) == bits(want)


class TestSettleBudget:
    """Deterministic work counter for Yen's searches: heap pops (each
    settle plus each stale entry) of one top-l call on a BE-shaped
    fixture, counted by a spy on the path module's ``heappop``.  A
    search without the guide, or one that rebuilds what the call
    already has, fails here on any machine."""

    L = 12
    #: Pops of the whole call, the reverse search included; the
    #: unguided reference pops 1,028 on the same fixture.
    PINNED = 288
    UNGUIDED = 1028

    @staticmethod
    def fixture():
        """A directed ER graph and a candidate block shaped like the one
        BE's elimination leaves: every missing edge from a block of 12
        nodes holding the source to a block of 12 holding the target,
        all at one probability (``zeta``)."""
        graph = assign_uniform(
            erdos_renyi(60, num_edges=150, seed=3, directed=True), 0.1, 0.9, seed=4
        )
        candidates = [
            (a, b, 0.5)
            for a in range(12) for b in range(40, 52)
            if not graph.has_edge(a, b)
        ]
        return graph, 0, 50, candidates

    def count(self, monkeypatch, module, call):
        pops = 0
        real = module.heappop

        def spy(heap):
            nonlocal pops
            pops += 1
            return real(heap)

        monkeypatch.setattr(module, "heappop", spy)
        result = call()
        monkeypatch.setattr(module, "heappop", real)
        return pops, result

    def test_top_l_call_pops(self, monkeypatch):
        graph, s, t, candidates = self.fixture()
        guided, got = self.count(
            monkeypatch, dijkstra_mod,
            lambda: top_l_most_reliable_paths(graph, s, t, self.L, candidates),
        )
        unguided, want = self.count(
            monkeypatch, sys.modules[__name__],
            lambda: _frozen_top_l(graph, s, t, self.L, candidates),
        )
        assert bits(got) == bits(want) and len(got) == self.L
        assert (guided, unguided) == (self.PINNED, self.UNGUIDED)

    def test_guide_built_at_the_first_spur_round(self, monkeypatch):
        """A call that runs spur searches builds one reverse search
        before the first of them; l = 1 runs none and builds none."""
        import repro.paths.yen as yen_mod

        built = []
        real = yen_mod._Guide

        def spy(rows, target):
            built.append(target)
            return real(rows, target)

        monkeypatch.setattr(yen_mod, "_Guide", spy)
        g = UncertainGraph.from_edges(
            [(0, 1, 0.9), (1, 3, 0.9), (0, 2, 0.5), (2, 3, 0.9)], directed=True
        )
        extra = [(0, 3, 0.95)]
        for l, guides in [(1, []), (2, [3]), (3, [3])]:
            built.clear()
            got = top_l_most_reliable_paths(g, 0, 3, l, extra)
            assert bits(got) == bits(_frozen_top_l(g, 0, 3, l, extra))
            assert built == guides, l

    def test_l_one_builds_no_guide(self, monkeypatch):
        """l = 1 runs the first search only: the same pops as the
        reference, and no reverse search."""
        graph, s, t, candidates = self.fixture()
        guided, _ = self.count(
            monkeypatch, dijkstra_mod,
            lambda: top_l_most_reliable_paths(graph, s, t, 1, candidates),
        )
        unguided, _ = self.count(
            monkeypatch, sys.modules[__name__],
            lambda: _frozen_top_l(graph, s, t, 1, candidates),
        )
        assert guided == unguided
