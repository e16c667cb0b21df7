"""Tests for path algorithms: Dijkstra MRP, Yen top-l, layered search."""

import math

import pytest

from repro.graph import UncertainGraph
from repro.paths import (
    best_improvement,
    constrained_most_reliable_paths,
    most_reliable_path,
    path_probability,
    paths_induced_edges,
    reliability_dijkstra_all,
    top_l_most_reliable_paths,
)


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

    def test_induced_edges(self, diamond):
        paths = [p for p, _ in top_l_most_reliable_paths(diamond, 0, 3, 5)]
        edges = paths_induced_edges(diamond, paths)
        assert edges == {(0, 2), (2, 3), (0, 1), (1, 3)}


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
