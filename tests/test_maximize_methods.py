"""Every Problem 1 selection method, run through ``Session.maximize``."""

import pytest

from repro.api import METHODS, MaximizeQuery, Session, Solution
from repro.core import eliminate_search_space
from repro.graph import assign_fixed, fixed_new_edge_probability, path_graph
from repro.reliability import ExactEstimator


@pytest.fixture
def chain():
    g = path_graph(6)
    assign_fixed(g, 0.5)
    return g


@pytest.fixture
def session(chain):
    return Session(
        chain,
        estimator=ExactEstimator(),
        evaluation_samples=2000,
        r=4,
        l=5,
    )


class TestMaximize:
    @pytest.mark.parametrize(
        "method", [m for m in METHODS if m != "exact"]
    )
    def test_every_method_runs(self, session, method):
        result = session.maximize(
            MaximizeQuery(0, 5, k=2, zeta=0.5, method=method)
        )
        assert isinstance(result.solution, Solution)
        assert len(result.edges) <= 2
        assert 0.0 <= result.base_reliability <= 1.0
        assert 0.0 <= result.new_reliability <= 1.0

    def test_be_gain_positive_on_chain(self, session):
        result = session.maximize(MaximizeQuery(0, 5, k=2, zeta=0.5))
        assert result.gain > 0.1  # direct/2-hop shortcuts dwarf 0.5^5

    def test_exact_method_with_small_space(self, chain):
        session = Session(chain, estimator=ExactEstimator(), r=3, l=5)
        result = session.maximize(
            MaximizeQuery(0, 5, k=1, zeta=0.5, method="exact")
        )
        assert len(result.edges) == 1

    def test_unknown_method(self, session):
        with pytest.raises(ValueError, match="unknown method"):
            session.maximize(MaximizeQuery(0, 5, k=2, method="magic"))

    def test_invalid_k(self, session):
        with pytest.raises(ValueError):
            session.maximize(MaximizeQuery(0, 5, k=0))

    def test_candidate_space_reuse(self, session, chain):
        space = eliminate_search_space(
            chain, 0, 5,
            r=session.r,
            new_edge_prob=fixed_new_edge_probability(0.5),
            estimator=session.estimator,
            h=session.h,
        )
        query = MaximizeQuery(0, 5, k=2, method="be", candidate_space=space)
        a = session.maximize(query)
        b = session.maximize(query)
        assert {(u, v) for u, v, _ in a.edges} == {(u, v) for u, v, _ in b.edges}

    def test_no_elimination_uses_all_missing(self, chain):
        session = Session(chain, estimator=ExactEstimator(), r=2, l=5)
        eliminated = session.maximize(MaximizeQuery(0, 5, k=1)).solution
        full = session.maximize(
            MaximizeQuery(0, 5, k=1, eliminate=False)
        ).solution
        assert full.num_candidates >= eliminated.num_candidates

    def test_h_constraint_respected(self):
        g = path_graph(8)
        assign_fixed(g, 0.5)
        session = Session(g, estimator=ExactEstimator(), r=8, l=5, h=3)
        result = session.maximize(MaximizeQuery(0, 7, k=2, zeta=0.9))
        for u, v, _ in result.edges:
            assert abs(u - v) <= 3

    def test_timings_recorded(self, session):
        solution = session.maximize(MaximizeQuery(0, 5, k=2)).solution
        assert solution.selection_seconds > 0
        assert solution.elimination_seconds >= 0

    def test_observation4_direct_edge_selected(self, session):
        """The direct s-t edge is in BE's solution when addable (Obs. 4)."""
        result = session.maximize(MaximizeQuery(0, 5, k=2, zeta=0.5))
        assert (0, 5) in {(u, v) for u, v, _ in result.edges}

    def test_custom_new_edge_probabilities(self, session):
        from repro.graph import uniform_new_edge_probability

        model = uniform_new_edge_probability(0.3, 0.7, seed=5)
        result = session.maximize(
            MaximizeQuery(0, 5, k=2, method="be", new_edge_prob=model)
        )
        for u, v, p in result.edges:
            assert p == model(u, v)


class TestSolutionDataclass:
    def test_gain_property(self):
        s = Solution(
            method="be", edges=[], base_reliability=0.2, new_reliability=0.5
        )
        assert s.gain == pytest.approx(0.3)

    def test_total_seconds(self):
        s = Solution(
            method="be", edges=[], base_reliability=0, new_reliability=0,
            elimination_seconds=1.0, selection_seconds=2.0,
        )
        assert s.total_seconds == pytest.approx(3.0)
