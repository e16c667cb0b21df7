"""Unit tests for the UncertainGraph substrate."""

import math

import pytest

from repro.graph import UncertainGraph


class TestConstruction:
    def test_empty_graph(self):
        g = UncertainGraph()
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert list(g.edges()) == []

    def test_add_edge_creates_nodes(self):
        g = UncertainGraph()
        g.add_edge(1, 2, 0.5)
        assert g.num_nodes == 2
        assert g.num_edges == 1
        assert g.has_node(1) and g.has_node(2)

    def test_add_node_idempotent(self):
        g = UncertainGraph()
        g.add_node(7)
        g.add_node(7)
        assert g.num_nodes == 1

    def test_from_edges(self):
        g = UncertainGraph.from_edges([(0, 1, 0.3), (1, 2, 0.9)])
        assert g.num_edges == 2
        assert g.probability(0, 1) == 0.3

    def test_self_loop_rejected(self):
        g = UncertainGraph()
        with pytest.raises(ValueError, match="self-loop"):
            g.add_edge(3, 3, 0.5)

    def test_probability_out_of_range_rejected(self):
        g = UncertainGraph()
        with pytest.raises(ValueError):
            g.add_edge(0, 1, 1.5)
        with pytest.raises(ValueError):
            g.add_edge(0, 1, -0.1)

    def test_overwrite_edge_probability(self):
        g = UncertainGraph()
        g.add_edge(0, 1, 0.3)
        g.add_edge(0, 1, 0.8)
        assert g.num_edges == 1
        assert g.probability(0, 1) == 0.8

    def test_repr_mentions_size(self):
        g = UncertainGraph(name="toy")
        g.add_edge(0, 1, 0.5)
        text = repr(g)
        assert "toy" in text and "n=2" in text and "m=1" in text


class TestUndirectedSemantics:
    def test_edge_visible_both_directions(self):
        g = UncertainGraph()
        g.add_edge(0, 1, 0.4)
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert g.probability(1, 0) == 0.4

    def test_edges_reported_once(self):
        g = UncertainGraph()
        g.add_edge(2, 1, 0.4)
        assert list(g.edges()) == [(1, 2, 0.4)]

    def test_successors_symmetric(self):
        g = UncertainGraph()
        g.add_edge(0, 1, 0.4)
        assert dict(g.successors(1)) == {0: 0.4}
        assert dict(g.predecessors(0)) == {1: 0.4}

    def test_remove_edge_both_directions(self):
        g = UncertainGraph()
        g.add_edge(0, 1, 0.4)
        g.remove_edge(1, 0)
        assert g.num_edges == 0
        assert not g.has_edge(0, 1)


class TestDirectedSemantics:
    def test_direction_respected(self):
        g = UncertainGraph(directed=True)
        g.add_edge(0, 1, 0.4)
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)

    def test_antiparallel_edges_distinct(self):
        g = UncertainGraph(directed=True)
        g.add_edge(0, 1, 0.4)
        g.add_edge(1, 0, 0.7)
        assert g.num_edges == 2
        assert g.probability(0, 1) == 0.4
        assert g.probability(1, 0) == 0.7

    def test_degree_counts_in_and_out(self):
        g = UncertainGraph(directed=True)
        g.add_edge(0, 1, 0.4)
        g.add_edge(2, 0, 0.5)
        assert g.degree(0) == 2
        assert g.weighted_degree(0) == pytest.approx(0.9)


class TestErrors:
    def test_probability_missing_edge(self):
        g = UncertainGraph()
        g.add_edge(0, 1, 0.4)
        with pytest.raises(KeyError):
            g.probability(0, 2)

    def test_remove_missing_edge(self):
        g = UncertainGraph()
        with pytest.raises(KeyError):
            g.remove_edge(0, 1)

    def test_set_probability_missing_edge(self):
        g = UncertainGraph()
        g.add_node(0)
        g.add_node(1)
        with pytest.raises(KeyError):
            g.set_probability(0, 1, 0.5)

    def test_hop_distances_missing_source(self):
        g = UncertainGraph()
        with pytest.raises(KeyError):
            g.hop_distances(5)


class TestDerivedGraphs:
    def test_copy_independent(self, diamond):
        clone = diamond.copy()
        clone.add_edge(0, 3, 0.9)
        assert not diamond.has_edge(0, 3)
        assert clone.num_edges == diamond.num_edges + 1

    def test_with_edges_leaves_original(self, diamond):
        augmented = diamond.with_edges([(0, 3, 0.9)])
        assert augmented.has_edge(0, 3)
        assert not diamond.has_edge(0, 3)

    def test_subgraph_induced(self, diamond):
        sub = diamond.subgraph([0, 1, 3])
        assert sub.num_nodes == 3
        assert sub.has_edge(0, 1) and sub.has_edge(1, 3)
        assert not sub.has_edge(0, 2)

    def test_edge_subgraph(self, diamond):
        sub = diamond.edge_subgraph([(0, 1)])
        assert sub.num_edges == 1
        assert sub.probability(0, 1) == 0.8

    def test_edge_set_canonical(self):
        g = UncertainGraph()
        g.add_edge(2, 1, 0.4)
        assert g.edge_set() == {(1, 2)}


class TestTraversal:
    def test_hop_distances(self, diamond):
        dist = diamond.hop_distances(0)
        assert dist == {0: 0, 1: 1, 2: 1, 3: 2}

    def test_hop_distances_bounded(self, diamond):
        dist = diamond.hop_distances(0, max_hops=1)
        assert 3 not in dist

    def test_within_hops_excludes_source(self, diamond):
        assert 0 not in diamond.within_hops(0, 2)
        assert diamond.within_hops(0, 1) == {1, 2}

    def test_connected_components(self):
        g = UncertainGraph()
        g.add_edge(0, 1, 0.5)
        g.add_edge(2, 3, 0.5)
        g.add_node(4)
        comps = sorted(g.connected_components(), key=min)
        assert comps == [{0, 1}, {2, 3}, {4}]

    def test_components_ignore_direction(self):
        g = UncertainGraph(directed=True)
        g.add_edge(0, 1, 0.5)
        g.add_edge(2, 1, 0.5)
        assert g.connected_components() == [{0, 1, 2}]


class TestPossibleWorlds:
    def test_world_count_and_probability_sum(self, diamond):
        worlds = list(diamond.possible_worlds())
        assert len(worlds) == 2 ** 4
        assert sum(p for _, p in worlds) == pytest.approx(1.0)

    def test_world_probability_formula(self):
        g = UncertainGraph()
        g.add_edge(0, 1, 0.25)
        worlds = dict(
            (frozenset(present), prob) for present, prob in g.possible_worlds()
        )
        assert worlds[frozenset({(0, 1)})] == pytest.approx(0.25)
        assert worlds[frozenset()] == pytest.approx(0.75)

    def test_refuses_large_graphs(self):
        g = UncertainGraph()
        for i in range(30):
            g.add_edge(i, i + 1, 0.5)
        with pytest.raises(ValueError, match="possible worlds"):
            list(g.possible_worlds())

    def test_world_probability_method(self, diamond):
        full = {(0, 1), (1, 3), (0, 2), (2, 3)}
        expected = 0.8 * 0.5 * 0.6 * 0.7
        assert diamond.world_probability(full) == pytest.approx(expected)


class TestMisc:
    def test_log_weight(self):
        g = UncertainGraph()
        g.add_edge(0, 1, 0.5)
        assert g.log_weight(0, 1) == pytest.approx(math.log(2))

    def test_log_weight_zero_probability(self):
        g = UncertainGraph()
        g.add_edge(0, 1, 0.0)
        assert g.log_weight(0, 1) == math.inf

    def test_missing_edges_undirected(self):
        g = UncertainGraph()
        g.add_edge(0, 1, 0.5)
        g.add_node(2)
        assert sorted(g.missing_edges()) == [(0, 2), (1, 2)]

    def test_missing_edges_directed(self):
        g = UncertainGraph(directed=True)
        g.add_edge(0, 1, 0.5)
        assert sorted(g.missing_edges()) == [(1, 0)]

    def test_len_and_contains(self, diamond):
        assert len(diamond) == 4
        assert 2 in diamond
        assert 9 not in diamond
