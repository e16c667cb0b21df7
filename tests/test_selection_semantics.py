"""Deeper semantics tests for the batch-selection machinery."""

from typing import ClassVar

from repro.graph import UncertainGraph, fixed_new_edge_probability
from repro.reliability import ExactEstimator, make_estimator
from repro.core import (
    batch_selection,
    build_path_batches,
    individual_path_selection,
    select_top_l_paths,
)
from repro.baselines import hill_climbing, individual_top_k

S, T = 0, 99


class TestActivationChains:
    def test_subset_batches_activate_transitively(self):
        """Selecting a 2-edge batch activates every subset-label batch."""
        g = UncertainGraph(directed=True)
        g.add_node(S)
        # Intermediate chain nodes.
        g.add_edge(1, 2, 0.9)
        # Candidates: a=(S,1), b=(2,T), c=(S,T? no) -- design paths:
        #   S -a-> 1 -> 2 -b-> T        label {a, b}
        #   S -a-> 1 -> 2 ... (shorter) label {a} needs direct 1->T edge
        g.add_edge(1, T, 0.3)
        candidates = [(S, 1, 0.5), (2, T, 0.5)]
        path_set = select_top_l_paths(g, S, T, l=5, candidates=candidates)
        labels = set(build_path_batches(path_set.paths))
        assert frozenset({(S, 1)}) in labels            # S-1-T
        assert frozenset({(S, 1), (2, T)}) in labels    # S-1-2-T
        edges = batch_selection(g, S, T, 2, path_set, ExactEstimator())
        # Both candidate edges fit the budget; the single-edge batch is
        # activated for free alongside the 2-edge batch.
        assert {(u, v) for u, v, _ in edges} == {(S, 1), (2, T)}

    def test_free_batches_claimed_between_rounds(self):
        """A batch whose label is already covered joins without cost."""
        g = UncertainGraph(directed=True)
        g.add_node(S)
        g.add_edge(1, T, 0.6)
        g.add_edge(1, 2, 0.9)
        g.add_edge(2, T, 0.6)
        candidates = [(S, 1, 0.5)]
        path_set = select_top_l_paths(g, S, T, l=5, candidates=candidates)
        batches = build_path_batches(path_set.paths)
        # Two distinct paths share the single-candidate label.
        assert len(batches[frozenset({(S, 1)})]) == 2
        edges = batch_selection(g, S, T, 1, path_set, ExactEstimator())
        assert [(u, v) for u, v, _ in edges] == [(S, 1)]


class TestIpBeEquivalence:
    def test_equal_when_paths_have_single_candidates(self):
        """With one candidate per path, normalization is a no-op and the
        two selectors agree."""
        g = UncertainGraph(directed=True)
        g.add_node(S)
        for i, p in ((1, 0.9), (2, 0.7), (3, 0.5)):
            g.add_edge(i, T, p)
        candidates = [(S, 1, 0.5), (S, 2, 0.5), (S, 3, 0.5)]
        path_set = select_top_l_paths(g, S, T, l=5, candidates=candidates)
        ip = individual_path_selection(g, S, T, 2, path_set, ExactEstimator())
        be = batch_selection(g, S, T, 2, path_set, ExactEstimator())
        assert {(u, v) for u, v, _ in ip} == {(u, v) for u, v, _ in be}
        # Both take the two strongest branches.
        assert {(u, v) for u, v, _ in be} == {(S, 1), (S, 2)}


class TestBudgetBoundary:
    def test_oversized_batches_skipped(self):
        """A batch needing more edges than the remaining budget is
        skipped even if it has the best raw gain."""
        g = UncertainGraph(directed=True)
        g.add_node(S)
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 3, 1.0)
        # Path A: S->4->T needs 2 candidates but weak (0.3 legs).
        g.add_edge(4, T, 0.3)
        candidates = [
            (S, 1, 0.9), (3, T, 0.9),   # strong 2-candidate path
            (S, 4, 0.9),                 # weak 1-candidate path
        ]
        path_set = select_top_l_paths(g, S, T, l=5, candidates=candidates)
        edges = batch_selection(g, S, T, 1, path_set, ExactEstimator())
        # Budget 1 cannot afford the 2-candidate batch.
        assert {(u, v) for u, v, _ in edges} == {(S, 4)}

    def test_zero_gain_batches_still_spend_budget(self):
        """The greedy keeps selecting while feasible batches remain."""
        g = UncertainGraph(directed=True)
        g.add_node(S)
        g.add_edge(1, T, 0.8)
        g.add_edge(2, T, 0.0001)  # nearly-useless second branch
        candidates = [(S, 1, 0.9), (S, 2, 0.9)]
        path_set = select_top_l_paths(g, S, T, l=5, candidates=candidates)
        edges = batch_selection(g, S, T, 2, path_set, ExactEstimator())
        assert len(edges) == 2


def two_chain_graph():
    """0-1-2   3-4-5 with certain edges: candidate (2, 3) has gain
    exactly 1.0, every later round has all-zero gains — so selection
    order is fully deterministic on every path, sampling included."""
    g = UncertainGraph()
    for u, v in ((0, 1), (1, 2), (3, 4), (4, 5)):
        g.add_edge(u, v, 1.0)
    return g


class TestGreedyTieBreakParity:
    """The documented tie-break: lowest candidate index on equal gain.

    The per-candidate greedy keeps the *first* maximum of its scan; the
    batched kernel's argmax (and the top-k stable sort) must match,
    and duplicated candidates must tie exactly on the kernel (they draw
    identical coin rows by construction).
    """

    CANDIDATES: ClassVar = [(2, 3), (0, 5), (1, 4)]

    def custom_prob(self, u, v):
        return {(2, 3): 1.0, (0, 5): 0.5, (1, 4): 0.25}[(u, v)]

    def selection_order(self, estimator):
        g = two_chain_graph()
        edges = hill_climbing(
            g, 0, 5, 3, self.CANDIDATES, self.custom_prob, estimator,
        )
        return [(u, v) for u, v, _ in edges]

    def test_kernel_and_per_candidate_loop_agree(self):
        # Round 1: (2, 3) wins structurally (gain exactly 1.0).  Later
        # rounds: all gains zero -> lowest remaining index, on both
        # paths, independent of sampling noise.  ExactEstimator has no
        # selection backend, so it runs the per-candidate loop.
        expected = [(2, 3), (0, 5), (1, 4)]
        kernel = self.selection_order(make_estimator("mc", 200, seed=1))
        exact = self.selection_order(ExactEstimator())
        assert kernel == exact == expected

    def test_duplicate_candidates_pick_lowest_index(self):
        g = two_chain_graph()
        zeta = fixed_new_edge_probability(1.0)
        candidates = [(2, 3), (2, 3), (2, 3)]
        for estimator in (ExactEstimator(), make_estimator("mc", 128, seed=0)):
            edges = hill_climbing(g, 0, 5, 2, candidates, zeta, estimator)
            # All three duplicates tie exactly; rounds pop the lowest
            # index first, so the first two duplicates are selected.
            assert [(u, v) for u, v, _ in edges] == [(2, 3), (2, 3)]

    def test_topk_stable_order_on_ties(self):
        g = two_chain_graph()
        zeta = fixed_new_edge_probability(1.0)
        # (2, 3) and its duplicate both gain exactly 1.0; stable sort
        # must keep candidate order among the tied maxima.
        candidates = [(2, 3), (2, 3), (0, 5)]
        for estimator in (ExactEstimator(), make_estimator("mc", 128, seed=2)):
            edges = individual_top_k(g, 0, 5, 2, candidates, zeta, estimator)
            assert [(u, v) for u, v, _ in edges] == [(2, 3), (2, 3)]

    def test_session_dispatch_matches_direct_call(self):
        from repro.api import MaximizeQuery, Session
        from repro.core.search_space import CandidateSpace

        g = two_chain_graph()
        space = CandidateSpace(
            source_side=[], target_side=[],
            edges=[(u, v, self.custom_prob(u, v)) for u, v in self.CANDIDATES],
            elapsed_seconds=0.0,
        )
        session = Session(g, seed=0, estimator="mc", selection_samples=200)
        result = session.maximize(
            MaximizeQuery(
                0, 5, k=3, method="hc", candidate_space=space,
                new_edge_prob=self.custom_prob,
            )
        )
        assert [(u, v) for u, v, _ in result.solution.edges] == [
            (2, 3), (0, 5), (1, 4),
        ]


class TestPathSetHygiene:
    def test_duplicate_candidate_orientations_collapse(self):
        g = UncertainGraph()  # undirected
        g.add_node(S)
        g.add_edge(1, T, 0.7)
        path_set = select_top_l_paths(
            g, S, T, l=3, candidates=[(1, S, 0.5)]  # reversed orientation
        )
        assert len(path_set.surviving_candidates) == 1
        edges = batch_selection(g, S, T, 1, path_set, ExactEstimator())
        assert len(edges) == 1
