"""Cross-cutting edge cases and failure-injection tests."""

import pytest

from repro.graph import (
    UncertainGraph,
    assign_fixed,
    erdos_renyi,
    fixed_new_edge_probability,
    path_graph,
    powerlaw_cluster,
)
from repro.reliability import (
    BFSSharingIndex,
    ExactEstimator,
    MonteCarloEstimator,
    RecursiveStratifiedSampler,
)
from repro.api import MaximizeQuery, Session
from repro.core import (
    MultiSourceTargetMaximizer,
    eliminate_search_space,
    select_top_l_paths,
)
from repro.paths import most_reliable_path, top_l_most_reliable_paths


class TestDisconnectedQueries:
    """The solver must behave sensibly when s and t share no component."""

    @pytest.fixture
    def split_graph(self):
        g = UncertainGraph()
        g.add_edge(0, 1, 0.8)
        g.add_edge(1, 2, 0.8)
        g.add_edge(10, 11, 0.8)
        g.add_edge(11, 12, 0.8)
        return g

    def test_be_bridges_components(self, split_graph):
        session = Session(
            split_graph,
            estimator=ExactEstimator(), r=6, l=5, evaluation_samples=2000,
        )
        solution = session.maximize(MaximizeQuery(0, 12, k=1, zeta=0.9))
        assert solution.base_reliability == 0.0
        assert solution.new_reliability > 0.3
        # The single new edge must cross the component boundary.
        (u, v, _), = solution.edges
        assert (u < 10) != (v < 10)

    def test_mrp_method_bridges_too(self, split_graph):
        session = Session(
            split_graph,
            estimator=ExactEstimator(), r=6, l=5, evaluation_samples=2000,
        )
        solution = session.maximize(
            MaximizeQuery(0, 12, k=2, zeta=0.9, method="mrp")
        )
        assert solution.new_reliability > 0.0


class TestDegenerateGraphs:
    def test_two_isolated_nodes(self):
        g = UncertainGraph()
        g.add_node(0)
        g.add_node(1)
        session = Session(
            g, estimator=ExactEstimator(), r=4, l=3, evaluation_samples=500
        )
        solution = session.maximize(MaximizeQuery(0, 1, k=1, zeta=0.7))
        assert [(u, v) for u, v, _ in solution.edges] == [(0, 1)]
        assert solution.new_reliability == pytest.approx(0.7, abs=0.05)

    def test_complete_graph_has_no_candidates(self):
        g = UncertainGraph()
        for u in range(4):
            for v in range(u + 1, 4):
                g.add_edge(u, v, 0.5)
        session = Session(
            g, estimator=ExactEstimator(), r=4, l=5, evaluation_samples=500
        )
        solution = session.maximize(MaximizeQuery(0, 3, k=2, zeta=0.9))
        assert solution.edges == []
        assert solution.gain == pytest.approx(0.0, abs=0.05)

    def test_all_zero_probability_graph(self):
        g = path_graph(4)
        assign_fixed(g, 0.0)
        assert MonteCarloEstimator(100, seed=0).reliability(g, 0, 3) == 0.0
        path, prob = most_reliable_path(g, 0, 3)
        assert path is None

    def test_probability_one_graph(self):
        g = path_graph(4)
        assign_fixed(g, 1.0)
        assert RecursiveStratifiedSampler(50, seed=0).reliability(g, 0, 3) == 1.0


class TestEliminationEdgeCases:
    def test_r_of_one_keeps_anchors(self):
        g = path_graph(5)
        assign_fixed(g, 0.5)
        space = eliminate_search_space(
            g, 0, 4, r=1,
            new_edge_prob=fixed_new_edge_probability(0.5),
            estimator=ExactEstimator(),
        )
        assert space.source_side == [0]
        assert space.target_side == [4]
        assert [(u, v) for u, v, _ in space.edges] == [(0, 4)]

    def test_r_larger_than_graph(self):
        g = path_graph(4)
        assign_fixed(g, 0.5)
        space = eliminate_search_space(
            g, 0, 3, r=100,
            new_edge_prob=fixed_new_edge_probability(0.5),
            estimator=ExactEstimator(),
        )
        pairs = {(u, v) for u, v, _ in space.edges}
        assert pairs == {(0, 2), (0, 3), (1, 3)}

    def test_top_l_with_l_one(self):
        g = path_graph(5)
        assign_fixed(g, 0.5)
        path_set = select_top_l_paths(g, 0, 4, l=1, candidates=[(0, 4, 0.9)])
        assert len(path_set.paths) == 1
        assert path_set.paths[0].nodes == [0, 4]


class TestDirectedAsymmetry:
    """Directed graphs: candidates and paths must respect orientation."""

    @pytest.fixture
    def one_way(self):
        g = UncertainGraph(directed=True)
        g.add_edge(0, 1, 0.9)
        g.add_edge(1, 2, 0.9)
        return g

    def test_candidates_directed(self, one_way):
        space = eliminate_search_space(
            one_way, 0, 2, r=3,
            new_edge_prob=fixed_new_edge_probability(0.5),
            estimator=ExactEstimator(),
        )
        pairs = {(u, v) for u, v, _ in space.edges}
        assert (0, 2) in pairs
        # (2, 0) would not help 0 -> 2 reachability and is a different
        # candidate; it is generated only if 2 has reliability from s.
        for u, v, _ in space.edges:
            assert not one_way.has_edge(u, v)

    def test_reverse_query_needs_reverse_edges(self, one_way):
        session = Session(
            one_way, estimator=ExactEstimator(), r=3, l=5,
            evaluation_samples=500,
        )
        solution = session.maximize(MaximizeQuery(2, 0, k=1, zeta=0.8))
        assert solution.base_reliability == 0.0
        assert solution.new_reliability > 0.0

    def test_bfs_sharing_directed(self, one_way):
        index = BFSSharingIndex(one_way, num_samples=4000, seed=1)
        assert index.reliability(one_way, 0, 2) == pytest.approx(0.81, abs=0.03)
        assert index.reliability(one_way, 2, 0) == 0.0


class TestMultiEdgeCases:
    def test_single_pair_multi_equals_meaningful(self):
        g = path_graph(5)
        assign_fixed(g, 0.5)
        solver = MultiSourceTargetMaximizer(
            estimator=ExactEstimator(), r=5, l=5,
            evaluation_samples=2000, k1_fraction=1.0,
        )
        solution = solver.maximize(g, [0], [4], k=2, zeta=0.8,
                                   aggregate="average")
        assert solution.gain > 0.1

    def test_overlapping_sets_skip_trivial_pairs(self):
        g = path_graph(5)
        assign_fixed(g, 0.5)
        solver = MultiSourceTargetMaximizer(
            estimator=ExactEstimator(), r=5, l=5, evaluation_samples=500,
        )
        solution = solver.maximize(g, [0, 2], [2, 4], k=1, zeta=0.8,
                                   aggregate="average")
        assert (2, 2) not in solution.pair_base


class TestGeneratorDeterminismAcrossCalls:
    def test_powerlaw_cluster_deterministic(self):
        a = powerlaw_cluster(120, m=2, triad_probability=0.5, seed=3)
        b = powerlaw_cluster(120, m=2, triad_probability=0.5, seed=3)
        assert a.edge_set() == b.edge_set()

    def test_er_directed_gnp(self):
        g = erdos_renyi(40, p=0.08, seed=2, directed=True)
        assert g.directed
        assert g.num_edges > 0


class TestYenStress:
    def test_dense_graph_many_paths(self):
        g = UncertainGraph()
        for u in range(6):
            for v in range(u + 1, 6):
                g.add_edge(u, v, 0.5 + 0.01 * (u + v))
        paths = top_l_most_reliable_paths(g, 0, 5, 20)
        assert len(paths) == 20
        probs = [p for _, p in paths]
        assert probs == sorted(probs, reverse=True)
        assert len({tuple(p) for p, _ in paths}) == 20
