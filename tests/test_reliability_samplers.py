"""Tests for the sampling estimators: MC, RSS, lazy propagation."""

import pytest

from repro.graph import UncertainGraph, assign_uniform, erdos_renyi
from repro.reliability import (
    LazyPropagationEstimator,
    MonteCarloEstimator,
    RecursiveStratifiedSampler,
    exact_reliability,
)

SAMPLERS = [
    lambda z, s: MonteCarloEstimator(z, seed=s),
    lambda z, s: RecursiveStratifiedSampler(z, seed=s),
    lambda z, s: LazyPropagationEstimator(z, seed=s),
]
SAMPLER_IDS = ["mc", "rss", "lazy"]


@pytest.fixture
def medium_graph():
    g = erdos_renyi(30, num_edges=60, seed=3)
    return assign_uniform(g, 0.1, 0.9, seed=4)


class TestAgainstExact:
    @pytest.mark.parametrize("factory", SAMPLERS, ids=SAMPLER_IDS)
    def test_diamond_converges(self, factory, diamond):
        truth = exact_reliability(diamond, 0, 3)
        estimate = factory(8000, 1).reliability(diamond, 0, 3)
        assert estimate == pytest.approx(truth, abs=0.03)

    @pytest.mark.parametrize("factory", SAMPLERS, ids=SAMPLER_IDS)
    def test_series_graph(self, factory):
        g = UncertainGraph.from_edges([(0, 1, 0.6), (1, 2, 0.6)])
        estimate = factory(8000, 2).reliability(g, 0, 2)
        assert estimate == pytest.approx(0.36, abs=0.03)

    @pytest.mark.parametrize("factory", SAMPLERS, ids=SAMPLER_IDS)
    def test_directed(self, factory, directed_diamond):
        truth = exact_reliability(directed_diamond, 0, 3)
        estimate = factory(8000, 3).reliability(directed_diamond, 0, 3)
        assert estimate == pytest.approx(truth, abs=0.03)
        assert factory(2000, 3).reliability(directed_diamond, 3, 0) == 0.0


class TestEdgeCases:
    @pytest.mark.parametrize("factory", SAMPLERS, ids=SAMPLER_IDS)
    def test_source_equals_target(self, factory, diamond):
        assert factory(10, 0).reliability(diamond, 1, 1) == 1.0

    @pytest.mark.parametrize("factory", SAMPLERS, ids=SAMPLER_IDS)
    def test_missing_nodes(self, factory, diamond):
        assert factory(10, 0).reliability(diamond, 0, 42) == 0.0
        assert factory(10, 0).reliability(diamond, 42, 0) == 0.0

    @pytest.mark.parametrize("factory", SAMPLERS, ids=SAMPLER_IDS)
    def test_certain_edges(self, factory):
        g = UncertainGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0)])
        assert factory(50, 0).reliability(g, 0, 2) == 1.0

    @pytest.mark.parametrize("factory", SAMPLERS, ids=SAMPLER_IDS)
    def test_impossible_edges(self, factory):
        g = UncertainGraph.from_edges([(0, 1, 0.0)])
        assert factory(200, 0).reliability(g, 0, 1) == 0.0

    @pytest.mark.parametrize("factory", SAMPLERS, ids=SAMPLER_IDS)
    def test_invalid_sample_count(self, factory):
        with pytest.raises(ValueError):
            factory(0, 0)

    @pytest.mark.parametrize("factory", SAMPLERS, ids=SAMPLER_IDS)
    def test_deterministic_given_seed(self, factory, medium_graph):
        a = factory(300, 7).reliability(medium_graph, 0, 29)
        b = factory(300, 7).reliability(medium_graph, 0, 29)
        assert a == b


class TestOverlay:
    @pytest.mark.parametrize("factory", SAMPLERS, ids=SAMPLER_IDS)
    def test_extra_edges_counted(self, factory):
        g = UncertainGraph()
        g.add_node(0)
        g.add_node(1)
        estimate = factory(6000, 5).reliability(g, 0, 1, [(0, 1, 0.4)])
        assert estimate == pytest.approx(0.4, abs=0.03)

    @pytest.mark.parametrize("factory", SAMPLERS, ids=SAMPLER_IDS)
    def test_overlay_undirected_semantics(self, factory):
        g = UncertainGraph()  # undirected
        g.add_node(0)
        g.add_node(1)
        g.add_node(2)
        # Overlay edge (1, 0) must also carry 0 -> 1 traffic.
        estimate = factory(6000, 6).reliability(
            g, 0, 2, [(1, 0, 0.8), (1, 2, 0.8)]
        )
        assert estimate == pytest.approx(0.64, abs=0.03)


class TestReachabilityVectors:
    @pytest.mark.parametrize("factory", SAMPLERS, ids=SAMPLER_IDS)
    def test_reachability_from_matches_pointwise(self, factory, diamond):
        reach = factory(8000, 8).reachability_from(diamond, 0)
        assert reach[0] == 1.0
        for node in (1, 2, 3):
            truth = exact_reliability(diamond, 0, node)
            assert reach[node] == pytest.approx(truth, abs=0.04)

    @pytest.mark.parametrize("factory", SAMPLERS, ids=SAMPLER_IDS)
    def test_reachability_to_directed(self, factory, directed_diamond):
        reach = factory(8000, 9).reachability_to(directed_diamond, 3)
        truth = exact_reliability(directed_diamond, 0, 3)
        assert reach[3] == 1.0
        assert reach[0] == pytest.approx(truth, abs=0.04)

    def test_mc_reachability_missing_source(self):
        g = UncertainGraph()
        g.add_edge(0, 1, 0.5)
        assert MonteCarloEstimator(10).reachability_from(g, 9) == {}


class TestSharedWorldQueries:
    def test_pair_reliabilities_match_singles(self, medium_graph):
        pairs = [(0, 10), (0, 20), (5, 25)]
        joint = MonteCarloEstimator(4000, seed=11).pair_reliabilities(
            medium_graph, pairs
        )
        for s, t in pairs:
            single = MonteCarloEstimator(4000, seed=12).reliability(
                medium_graph, s, t
            )
            assert joint[(s, t)] == pytest.approx(single, abs=0.05)

    def test_pair_reliabilities_empty(self, medium_graph):
        assert MonteCarloEstimator(10).pair_reliabilities(medium_graph, []) == {}

    def test_multi_source_union_bounds(self, diamond):
        est = MonteCarloEstimator(4000, seed=13)
        union = est.multi_source_reachability(diamond, [0, 1])
        single = MonteCarloEstimator(4000, seed=14).reachability_from(diamond, 0)
        # Union reachability dominates single-source reachability.
        for node, value in single.items():
            assert union.get(node, 0.0) >= value - 0.05

    def test_multi_source_includes_sources(self, diamond):
        union = MonteCarloEstimator(100, seed=1).multi_source_reachability(
            diamond, [0, 3]
        )
        assert union[0] == 1.0 and union[3] == 1.0


class TestRssSpecifics:
    def test_rss_variance_not_worse_than_mc(self, medium_graph):
        import statistics

        truth_proxy = MonteCarloEstimator(20000, seed=99).reliability(
            medium_graph, 0, 29
        )
        mc_vals = [
            MonteCarloEstimator(200, seed=s).reliability(medium_graph, 0, 29)
            for s in range(25)
        ]
        rss_vals = [
            RecursiveStratifiedSampler(200, seed=s).reliability(medium_graph, 0, 29)
            for s in range(25)
        ]
        mc_err = statistics.mean((v - truth_proxy) ** 2 for v in mc_vals)
        rss_err = statistics.mean((v - truth_proxy) ** 2 for v in rss_vals)
        # RSS's stratification should not inflate the error materially.
        assert rss_err <= mc_err * 1.5

    @pytest.mark.parametrize("p", [1.0, 0.5])
    def test_region_walks_stop_at_the_target(self, monkeypatch, p):
        """The target is one hop from the source and a long tail hangs
        off the source.  With a certain hop the certain-region walk ends
        at the target (the answer is 1.0); with an uncertain one the
        potential-region walk does, before the MC leaf (a threshold
        above the budget sends the query straight there).  Neither walk
        may visit the tail."""
        from repro.reliability import rss

        yields = []
        neighbors = rss._Adjacency.neighbors

        def counted(adj, u):
            for item in neighbors(adj, u):
                yields.append(u)
                yield item

        monkeypatch.setattr(rss._Adjacency, "neighbors", counted)
        graph = UncertainGraph.from_edges(
            [(0, 1, p), (0, 2, p)] + [(i, i + 1, p) for i in range(2, 60)]
        )
        value = RecursiveStratifiedSampler(
            100, mc_threshold=1000, seed=3
        ).reliability(graph, 0, 1)
        assert (value == 1.0) == (p == 1.0)
        assert set(yields) == {0}  # only the source's own arcs
        assert len(yields) <= 3

    def test_rss_parameter_validation(self):
        with pytest.raises(ValueError):
            RecursiveStratifiedSampler(num_samples=100, num_stratify_edges=0)


class TestLazySpecifics:
    def test_marginal_frequency_single_edge(self):
        g = UncertainGraph.from_edges([(0, 1, 0.3)])
        estimate = LazyPropagationEstimator(20000, seed=3).reliability(g, 0, 1)
        assert estimate == pytest.approx(0.3, abs=0.02)

    def test_schedule_consistency_across_samples(self):
        # Two serial edges: per-sample states must be independent, so the
        # product law holds.
        g = UncertainGraph.from_edges([(0, 1, 0.5), (1, 2, 0.5)])
        estimate = LazyPropagationEstimator(20000, seed=4).reliability(g, 0, 2)
        assert estimate == pytest.approx(0.25, abs=0.02)
