"""Final-pass tests for corners not covered elsewhere."""

import pytest

from repro.datasets import intel_lab
from repro.graph import (
    UncertainGraph,
    assign_fixed,
    fixed_new_edge_probability,
    path_graph,
)
from repro.reliability import (
    ExactEstimator,
    MonteCarloEstimator,
    RecursiveStratifiedSampler,
    exact_reliability,
)
from repro.api import MaximizeQuery, Session
from repro.core import (
    MultiSourceTargetMaximizer,
    eliminate_search_space,
    improve_mrp_with_probability_budget,
)
from repro.experiments import measure
from repro.queries import pairs_at_exact_distance


class TestRssConfiguration:
    """RSS must stay correct under degenerate configurations."""

    def test_depth_cap_falls_back_to_mc(self, diamond):
        est = RecursiveStratifiedSampler(
            2000, max_depth=0, seed=1  # every call is an MC leaf
        )
        truth = exact_reliability(diamond, 0, 3)
        assert est.reliability(diamond, 0, 3) == pytest.approx(truth, abs=0.05)

    def test_tiny_threshold_forces_recursion(self, diamond):
        est = RecursiveStratifiedSampler(
            2000, mc_threshold=1, max_depth=3, seed=2
        )
        truth = exact_reliability(diamond, 0, 3)
        assert est.reliability(diamond, 0, 3) == pytest.approx(truth, abs=0.05)

    def test_single_stratum_edge(self, diamond):
        est = RecursiveStratifiedSampler(
            2000, num_stratify_edges=1, seed=3
        )
        truth = exact_reliability(diamond, 0, 3)
        assert est.reliability(diamond, 0, 3) == pytest.approx(truth, abs=0.05)


class TestIntelLabDirectionality:
    def test_links_can_be_asymmetric(self):
        graph = intel_lab.build()
        asymmetric = sum(
            1 for u, v, _ in graph.edges() if not graph.has_edge(v, u)
        )
        assert asymmetric > 0  # radio links are direction-specific

    def test_candidate_links_are_directed_pairs(self):
        graph = intel_lab.build()
        positions = intel_lab.sensor_positions()
        pairs = intel_lab.candidate_links(graph, positions)
        # The directed candidate list may contain (u,v) without (v,u)
        # when one direction already exists.
        as_set = set(pairs)
        assert all((u, v) not in as_set or not graph.has_edge(u, v)
                   for u, v in pairs)


class TestProbabilityBudgetWithH:
    def test_h_constraint_respected(self):
        g = path_graph(8)
        assign_fixed(g, 0.5)
        solution = improve_mrp_with_probability_budget(
            g, 0, 7, max_new_edges=2, total_probability=1.6, h=2
        )
        for u, v, _ in solution.edges:
            assert abs(u - v) <= 2


class TestMeasureKwargs:
    def test_kwargs_forwarded(self):
        result = measure(sorted, [3, 1, 2], reverse=True)
        assert result.value == [3, 2, 1]


class TestQueriesDirected:
    def test_exact_distance_respects_direction(self):
        g = UncertainGraph(directed=True)
        for i in range(5):
            g.add_edge(i, i + 1, 0.5)
        pairs = pairs_at_exact_distance(g, 3, 2, seed=1)
        for s, t in pairs:
            assert t - s == 3  # only forward hops exist


class TestK1Installments:
    def test_quarter_fraction_runs_multiple_rounds(self):
        g = UncertainGraph()
        # Weak pair that can absorb several rounds of improvement.
        g.add_edge(0, 1, 0.2)
        g.add_edge(1, 2, 0.2)
        g.add_edge(2, 3, 0.2)
        solver = MultiSourceTargetMaximizer(
            estimator=ExactEstimator(), evaluation_samples=800,
            r=4, l=5, k1_fraction=0.25,
        )
        solution = solver.maximize(
            g, [0], [3], k=4, zeta=0.9, aggregate="minimum"
        )
        # Four rounds of k1=1 should fill the budget.
        assert len(solution.edges) >= 2
        assert solution.gain > 0.2


class TestSessionDeterminism:
    def test_same_seed_same_solution(self):
        g = path_graph(7)
        assign_fixed(g, 0.5)

        def run():
            session = Session(
                g,
                estimator=RecursiveStratifiedSampler(150, seed=5),
                evaluation_samples=300, r=5, l=8, seed=5,
            )
            return session.maximize(MaximizeQuery(0, 6, k=2, zeta=0.6))

        a, b = run(), run()
        assert [(u, v) for u, v, _ in a.edges] == [
            (u, v) for u, v, _ in b.edges
        ]
        assert a.new_reliability == b.new_reliability

    def test_random_method_seeded(self):
        g = path_graph(7)
        assign_fixed(g, 0.5)
        session = Session(
            g, estimator=ExactEstimator(), evaluation_samples=200,
            r=5, l=8, seed=11,
        )
        query = MaximizeQuery(0, 6, k=2, method="random")
        a = session.maximize(query)
        b = session.maximize(query)
        assert [(u, v) for u, v, _ in a.edges] == [
            (u, v) for u, v, _ in b.edges
        ]


class TestEmptyPairWorkload:
    """An empty pair workload is a no-op on every batched entry point.

    The empty workload must neither compile a plan nor flip a single
    coin — and certainly not raise — at any of the three entry points
    (``MonteCarloEstimator``, the estimator base class,
    ``Session.evaluate_pairs``).
    """

    def _graph(self):
        g = path_graph(4)
        assign_fixed(g, 0.5)
        return g

    def test_engine_empty_pairs(self):
        est = MonteCarloEstimator(128, seed=1)
        assert est.pair_reliabilities(self._graph(), []) == {}
        # Nothing was drawn: the next estimate is a fresh estimator's.
        assert est.reliability(self._graph(), 0, 3) == (
            MonteCarloEstimator(128, seed=1).reliability(self._graph(), 0, 3)
        )

    def test_estimator_empty_pairs(self):
        est = RecursiveStratifiedSampler(100, seed=1)
        assert est.pair_reliabilities(self._graph(), []) == {}

    def test_session_empty_pairs(self):
        session = Session(
            self._graph(), estimator=ExactEstimator(), evaluation_samples=100,
        )
        assert session.evaluate_pairs([]) == []


class TestSolutionReporting:
    def test_num_candidates_tracks_space(self):
        g = path_graph(6)
        assign_fixed(g, 0.5)
        session = Session(
            g, estimator=ExactEstimator(), evaluation_samples=200, r=3, l=5,
        )
        solution = session.maximize(
            MaximizeQuery(0, 5, k=1, zeta=0.5)
        ).solution
        space = eliminate_search_space(
            g, 0, 5,
            r=session.r,
            new_edge_prob=fixed_new_edge_probability(0.5),
            estimator=session.estimator,
            h=session.h,
        )
        assert solution.num_candidates == len(space.edges)
