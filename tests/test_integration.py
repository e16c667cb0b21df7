"""End-to-end integration tests across subsystem boundaries."""

import pytest

from repro import datasets
from repro.api import MaximizeQuery, Session
from repro.core import MultiSourceTargetMaximizer
from repro.queries import sample_multi_sets, sample_st_pairs
from repro.reliability import (
    BFSSharingIndex,
    LazyPropagationEstimator,
    MonteCarloEstimator,
    RecursiveStratifiedSampler,
    reliability_bounds,
)


@pytest.fixture(scope="module")
def small_real_graphs():
    return {
        name: datasets.load(name, num_nodes=200, seed=0)
        for name in ("lastfm", "as-topology", "dblp", "twitter")
    }


class TestPipelineAcrossDatasets:
    @pytest.mark.parametrize(
        "name", ["lastfm", "as-topology", "dblp", "twitter"]
    )
    def test_be_improves_or_matches_base(self, small_real_graphs, name):
        graph = small_real_graphs[name]
        (s, t), = sample_st_pairs(graph, 1, seed=3)
        session = Session(
            graph,
            estimator=RecursiveStratifiedSampler(80, seed=1),
            evaluation_samples=400, r=10, l=10,
        )
        solution = session.maximize(MaximizeQuery(s, t, k=3, zeta=0.5))
        assert len(solution.edges) <= 3
        assert solution.new_reliability >= solution.base_reliability - 0.05
        for u, v, p in solution.edges:
            assert p == 0.5
            assert not graph.has_edge(u, v)

    def test_estimator_injection_is_interchangeable(self, small_real_graphs):
        """§5.3's claim: the pipeline is orthogonal to the sampler."""
        graph = small_real_graphs["lastfm"]
        (s, t), = sample_st_pairs(graph, 1, seed=5)
        gains = {}
        for label, estimator in [
            ("mc", MonteCarloEstimator(150, seed=2)),
            ("rss", RecursiveStratifiedSampler(100, seed=2)),
            ("lazy", LazyPropagationEstimator(150, seed=2)),
        ]:
            session = Session(
                graph, estimator=estimator, evaluation_samples=500, r=10, l=10,
            )
            gains[label] = session.maximize(
                MaximizeQuery(s, t, k=3, zeta=0.5)
            ).gain
        values = list(gains.values())
        # All samplers land in the same ballpark solution quality.
        assert max(values) - min(values) < 0.25


class TestBoundsAgainstPipeline:
    def test_solution_respects_upper_bound(self, small_real_graphs):
        """After adding edges, sampled reliability stays under the
        certified min-cut bound of the augmented graph."""
        graph = small_real_graphs["dblp"]
        (s, t), = sample_st_pairs(graph, 1, seed=7)
        session = Session(
            graph,
            estimator=RecursiveStratifiedSampler(100, seed=3),
            evaluation_samples=800, r=10, l=10,
        )
        solution = session.maximize(MaximizeQuery(s, t, k=3, zeta=0.5))
        augmented = graph.with_edges(solution.edges)
        bracket = reliability_bounds(augmented, s, t, num_paths=10)
        assert solution.new_reliability <= bracket.upper + 0.07
        assert solution.new_reliability >= bracket.lower - 0.07


class TestIndexWithPipeline:
    def test_bfs_sharing_drives_multi_objective(self):
        graph = datasets.load("lastfm", num_nodes=150, seed=1)
        sources, targets = sample_multi_sets(graph, 2, seed=9)
        pairs = [(s, t) for s in sources for t in targets if s != t]
        index = BFSSharingIndex(graph, num_samples=400, seed=2)
        values = index.pair_reliabilities(graph, pairs)
        mc = MonteCarloEstimator(400, seed=3)
        for pair, value in values.items():
            assert value == pytest.approx(
                mc.reliability(graph, *pair), abs=0.12
            )


class TestMultiEndToEnd:
    @pytest.mark.parametrize("aggregate", ["average", "minimum", "maximum"])
    def test_multi_on_directed_dataset(self, small_real_graphs, aggregate):
        graph = small_real_graphs["as-topology"]
        sources, targets = sample_multi_sets(graph, 2, seed=11)
        solver = MultiSourceTargetMaximizer(
            estimator=RecursiveStratifiedSampler(80, seed=4),
            evaluation_samples=300, r=8, l=8, k1_fraction=0.5,
        )
        solution = solver.maximize(
            graph, sources, targets, k=2, zeta=0.6, aggregate=aggregate
        )
        assert len(solution.edges) <= 2
        assert solution.new_value >= solution.base_value - 0.05
        for u, v, _ in solution.edges:
            assert not graph.has_edge(u, v)
