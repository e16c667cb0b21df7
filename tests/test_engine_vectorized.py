"""Engine tests: kernel primitives, CSR plans, and estimators vs exact.

Every sampler runs on the engine, so correctness is checked against the
exact oracle (:func:`repro.reliability.exact_reliability`) on graphs it
can solve, with a Hoeffding bound at a 1e-6 false-alarm rate
(:func:`oracle.assert_close_to_exact`).
"""

from typing import ClassVar

import pytest

from repro.api import Session
from repro.engine import (
    build_query_plan,
    compile_plan,
    extend_with_overlay,
    num_words,
    pack_bool_matrix,
    popcount,
    valid_sample_mask,
)
from repro.graph import UncertainGraph, assign_uniform, erdos_renyi
from repro.reliability import (
    BFSSharingIndex,
    ExactEstimator,
    LazyPropagationEstimator,
    MonteCarloEstimator,
    RecursiveStratifiedSampler,
    estimator_names,
    exact_reliability,
    exact_reliability_by_enumeration,
    make_estimator,
)

import numpy as np

from oracle import assert_close_to_exact


@pytest.fixture
def medium_graph():
    g = erdos_renyi(30, num_edges=60, seed=3)
    return assign_uniform(g, 0.1, 0.9, seed=4)


@pytest.fixture
def small_graph():
    """Small enough for exact factoring, large enough to branch."""
    g = erdos_renyi(10, num_edges=16, seed=3)
    return assign_uniform(g, 0.2, 0.9, seed=4)


class TestKernelPrimitives:
    def test_num_words(self):
        assert num_words(1) == 1
        assert num_words(64) == 1
        assert num_words(65) == 2
        assert num_words(1000) == 16

    def test_pack_roundtrip_via_popcount(self):
        rng = np.random.default_rng(0)
        for z in (1, 7, 64, 100, 129):
            bools = rng.random((5, z)) < 0.5
            words = pack_bool_matrix(bools, z)
            assert words.shape == (5, num_words(z))
            counts = popcount(words).sum(axis=1)
            assert counts.tolist() == bools.sum(axis=1).tolist()

    def test_valid_mask_counts_z_bits(self):
        for z in (1, 63, 64, 65, 1000):
            assert int(popcount(valid_sample_mask(z)).sum()) == z

    def test_pad_bits_are_zero(self):
        words = pack_bool_matrix(np.ones((1, 70), dtype=bool), 70)
        assert int(popcount(words).sum()) == 70


class TestCSRCompilation:
    def test_cache_hit_until_mutation(self, diamond):
        first = compile_plan(diamond)
        assert compile_plan(diamond) is first
        diamond.add_edge(1, 2, 0.5)
        second = compile_plan(diamond)
        assert second is not first
        assert second.num_edges == first.num_edges + 1

    def test_version_bumps_on_mutations(self, diamond):
        v = diamond.version
        diamond.add_node(99)
        assert diamond.version > v
        v = diamond.version
        diamond.set_probability(0, 1, 0.9)
        assert diamond.version > v
        v = diamond.version
        diamond.remove_edge(0, 1)
        assert diamond.version > v

    def test_undirected_edges_share_one_coin_id(self, diamond):
        plan = compile_plan(diamond)
        assert plan.num_edges == 4
        assert plan.arc_src.shape[0] == 8  # two arcs per undirected edge
        assert plan.edge_index[(0, 1)] == (0,)

    def test_overlay_extends_without_touching_base(self, diamond):
        base = compile_plan(diamond)
        merged = extend_with_overlay(base, [(0, 3, 0.5), (3, 77, 0.2)])
        assert base.num_edges == 4
        assert merged.num_edges == 6
        assert merged.num_nodes == base.num_nodes + 1  # node 77 interned
        assert merged.node_index(77) is not None
        assert base.node_index(77) is None
        # base stays cached and untouched
        assert compile_plan(diamond) is base

    @pytest.mark.parametrize("directed", [False, True])
    def test_edge_identities_match_edge_index_loop(self, directed):
        """Identities are filled where edge tables are built; they must
        equal a loop over ``edge_index`` (the ordinal is the edge id's
        position in its key's tuple) for compiled, overlay-stacked and
        reverse plans."""

        def from_edge_index(plan):
            table = np.empty((3, plan.num_edges), dtype=np.int64)
            for (key_u, key_v), eids in plan.edge_index.items():
                for ordinal, eid in enumerate(eids):
                    table[:, eid] = (key_u, key_v, ordinal)
            return table

        graph = assign_uniform(
            erdos_renyi(20, num_edges=40, seed=5, directed=directed),
            0.1, 0.9, seed=6,
        )
        base = compile_plan(graph)
        u, v, _p = sorted(graph.edges())[0]
        # Stack twice on an existing key (an undirected (v, u) folds onto
        # (u, v)) and twice on a key whose endpoint 99 is overlay-only.
        once = extend_with_overlay(base, [(v, u, 0.3), (u, 99, 0.4)])
        twice = extend_with_overlay(once, [(u, v, 0.2), (u, 99, 0.5)])
        assert twice.edge_ordinal[-4:].tolist() == (
            [0, 0, 1, 1] if directed else [1, 0, 2, 1]
        )
        for plan in (base, once, twice, base.reverse_view(),
                     twice.reverse_view()):
            got = np.stack([plan.edge_u, plan.edge_v, plan.edge_ordinal])
            assert np.array_equal(got, from_edge_index(plan))
        reverse = twice.reverse_view()
        assert (reverse is twice) != directed
        assert reverse.edge_u is twice.edge_u

    def test_empty_overlay_returns_base(self, diamond):
        base = compile_plan(diamond)
        assert build_query_plan(diamond, None) is base
        assert build_query_plan(diamond, []) is base


class TestEngineAgainstExact:
    def test_diamond(self, diamond):
        truth = exact_reliability(diamond, 0, 3)
        est = MonteCarloEstimator(8000, seed=1).reliability(diamond, 0, 3)
        assert_close_to_exact(est, truth, 8000)

    def test_directed(self, directed_diamond):
        truth = exact_reliability(directed_diamond, 0, 3)
        mc = MonteCarloEstimator(8000, seed=2)
        assert_close_to_exact(
            mc.reliability(directed_diamond, 0, 3), truth, 8000
        )
        assert mc.reliability(directed_diamond, 3, 0) == 0.0

    def test_deterministic_given_seed(self, medium_graph):
        a = MonteCarloEstimator(300, seed=7).reliability(medium_graph, 0, 29)
        b = MonteCarloEstimator(300, seed=7).reliability(medium_graph, 0, 29)
        assert a == b

    def test_z_not_word_aligned(self, diamond):
        truth = exact_reliability(diamond, 0, 3)
        est = MonteCarloEstimator(7001, seed=3).reliability(diamond, 0, 3)
        assert_close_to_exact(est, truth, 7001)


class TestEstimatorsAgainstExact:
    """Engine-backed estimators agree with the exact oracle."""

    def test_mc_single_pair(self, small_graph):
        est = MonteCarloEstimator(6000, seed=1).reliability(small_graph, 0, 9)
        assert_close_to_exact(est, exact_reliability(small_graph, 0, 9), 6000)

    def test_mc_reachability_vector(self, diamond):
        vec = MonteCarloEstimator(8000, seed=2).reachability_from(diamond, 0)
        assert set(vec) == set(diamond.nodes())
        for node, value in vec.items():
            assert_close_to_exact(
                value, exact_reliability(diamond, 0, node), 8000
            )

    def test_mc_pair_reliabilities(self, small_graph):
        pairs = [(0, 9), (0, 5), (3, 8), (7, 7)]
        values = MonteCarloEstimator(6000, seed=3).pair_reliabilities(
            small_graph, pairs
        )
        assert list(values) == pairs
        assert values[(7, 7)] == 1.0  # s == t
        for (s, t), value in values.items():
            assert_close_to_exact(
                value, exact_reliability(small_graph, s, t), 6000
            )

    def test_mc_multi_source(self, diamond):
        vec = MonteCarloEstimator(8000, seed=5).multi_source_reachability(
            diamond, [0, 3]
        )
        assert vec[0] == vec[3] == 1.0
        # "Reached from 0 or 3" is reachability from a virtual source
        # tied to both by certain overlay edges.
        hub = [(-1, 0, 1.0), (-1, 3, 1.0)]
        for node in (1, 2):
            assert_close_to_exact(
                vec[node], exact_reliability(diamond, -1, node, hub), 8000
            )

    def test_rss_single_pair(self, small_graph):
        est = RecursiveStratifiedSampler(1000, seed=1).reliability(
            small_graph, 0, 9
        )
        assert_close_to_exact(est, exact_reliability(small_graph, 0, 9), 1000)

    def test_rss_reachability_vector(self, diamond):
        vec = RecursiveStratifiedSampler(2000, seed=2).reachability_from(
            diamond, 0
        )
        for node in (1, 2, 3):
            assert_close_to_exact(
                vec[node], exact_reliability(diamond, 0, node), 2000
            )

    def test_bfs_sharing(self, diamond):
        index = BFSSharingIndex(diamond, num_samples=8000, seed=1)
        assert_close_to_exact(
            index.reliability(diamond, 0, 3),
            exact_reliability(diamond, 0, 3),
            8000,
        )

    def test_bfs_sharing_node_added_after_build(self, diamond):
        # Nodes added after the snapshot are isolated in every stored
        # world; queries must degrade gracefully, not crash.
        index = BFSSharingIndex(diamond, num_samples=100, seed=3)
        diamond.add_node(7)
        assert index.reliability(diamond, 7, 3) == 0.0
        assert index.reliability(diamond, 0, 7) == 0.0
        assert index.reachability_from(diamond, 7) == {7: 1.0}
        assert index.pair_reliabilities(diamond, [(7, 3), (0, 7)]) == {
            (7, 3): 0.0,
            (0, 7): 0.0,
        }

    @pytest.mark.parametrize("method, args", [
        ("reliability", (0, 9)),
        ("pair_reliabilities", ([(3, 3), (0, 42)],)),
        ("pair_reliabilities", ([(0, 9), (3, 8)],)),
        ("reachability_from", (0,)),
        ("reachability_to", (9,)),
        ("multi_source_reachability", ([0, 3],)),
    ])
    def test_lazy_is_mc_bit_for_bit(self, small_graph, method, args):
        overlay = [(0, 9, 0.3)]
        mc = MonteCarloEstimator(500, seed=4)
        lazy = LazyPropagationEstimator(500, seed=4)
        for extra in (None, overlay):  # second call: advanced streams
            assert getattr(lazy, method)(small_graph, *args, extra) == (
                getattr(mc, method)(small_graph, *args, extra)
            )


class TestOverlayOnlyEndpoints:
    """An endpoint named only by ``extra_edges`` is a node on every
    entry point: the overlay acts as if added to the graph."""

    GRAPH_EDGES: ClassVar = [(0, 1, 0.5)]
    OVERLAY: ClassVar = [(1, 99, 1.0)]
    SAMPLES = 2000

    def graph(self):
        return UncertainGraph.from_edges(self.GRAPH_EDGES)

    def test_exact(self):
        assert exact_reliability(self.graph(), 0, 99, self.OVERLAY) == 0.5

    @pytest.mark.parametrize("name", sorted(estimator_names()))
    def test_registry_estimators(self, name):
        g = self.graph()
        truth = exact_reliability(g, 0, 99, self.OVERLAY)
        single = make_estimator(name, self.SAMPLES, seed=1).reliability(
            g, 0, 99, self.OVERLAY
        )
        many = make_estimator(name, self.SAMPLES, seed=1).pair_reliabilities(
            g, [(0, 99)], self.OVERLAY
        )[(0, 99)]
        assert_close_to_exact(single, truth, self.SAMPLES)
        assert_close_to_exact(many, truth, self.SAMPLES)

    def test_session_evaluate(self):
        g = self.graph()
        value = Session(g, seed=1).evaluate(
            0, 99, self.OVERLAY, samples=self.SAMPLES
        )
        assert_close_to_exact(
            value, exact_reliability(g, 0, 99, self.OVERLAY), self.SAMPLES
        )

    @pytest.mark.parametrize("name", sorted(estimator_names()))
    def test_unnamed_endpoint_stays_unreachable(self, name):
        g = self.graph()
        est = make_estimator(name, 100, seed=1)
        assert est.reliability(g, 0, 42, self.OVERLAY) == 0.0
        assert exact_reliability(g, 0, 42, self.OVERLAY) == 0.0

    def test_bfs_sharing_overlay_deterministic(self, diamond):
        index = BFSSharingIndex(diamond, num_samples=2000, seed=2)
        overlay = [(0, 3, 0.5)]
        first = index.reliability(diamond, 0, 3, overlay)
        assert index.reliability(diamond, 0, 3, overlay) == first
        # Independent overlay coins: R' = R + (1 - R) * 0.5 in law.
        truth = exact_reliability(diamond, 0, 3, overlay)
        assert_close_to_exact(first, truth, 2000)

    def test_bfs_sharing_overlay_matches_fresh_mc(self, diamond):
        """Overlay rows are the keyed rows a fresh sample of the merged
        plan draws, so the index answers like a same-seed ``mc``."""
        overlay = [(0, 3, 0.5), (1, 2, 0.4), (3, 7, 0.9)]
        index = BFSSharingIndex(diamond, num_samples=700, seed=5)
        # (7, 0): a source only the overlay names.
        for s, t in [(0, 3), (0, 7), (2, 1), (7, 0)]:
            fresh = MonteCarloEstimator(700, seed=5)
            assert index.reliability(diamond, s, t, overlay) == (
                fresh.reliability(diamond, s, t, overlay)
            )

    # Reachability vectors: the overlay-only node is the query's own
    # source (or target), so it and everything it reaches must appear.
    VECTOR_NAMES: ClassVar = [*sorted(estimator_names()), "exact", "bfs-sharing"]

    def vector_estimator(self, name, graph):
        """``(estimator, Z of its vector answers)``; ``Z`` is ``None``
        for the exact estimator."""
        if name == "exact":
            return ExactEstimator(), None
        if name == "bfs-sharing":
            return BFSSharingIndex(graph, self.SAMPLES, seed=1), self.SAMPLES
        # adaptive answers vector queries with fixed-budget MC at a
        # tenth of its sample cap.
        samples = self.SAMPLES // 10 if name == "adaptive" else self.SAMPLES
        return make_estimator(name, self.SAMPLES, seed=1), samples

    @staticmethod
    def check_vector(vector, truth, samples):
        assert set(vector) == set(truth)
        for node, value in truth.items():
            if samples is None:
                assert vector[node] == pytest.approx(value)
            else:
                assert_close_to_exact(vector[node], value, samples)

    @pytest.mark.parametrize("name", VECTOR_NAMES)
    @pytest.mark.parametrize(
        "entry", ["reachability_from", "multi_source_reachability"]
    )
    def test_overlay_only_source(self, name, entry):
        g = self.graph()
        overlay = [(99, 0, 1.0)]
        est, samples = self.vector_estimator(name, g)
        if entry == "reachability_from":
            vector = est.reachability_from(g, 99, overlay)
        else:
            vector = est.multi_source_reachability(g, [99], overlay)
        truth = {
            node: exact_reliability_by_enumeration(g, 99, node, overlay)
            for node in (99, 0, 1)
        }
        self.check_vector(vector, truth, samples)

    # BFS-sharing indexes one graph, and the default reachability_to
    # runs on its reverse, so it answers only undirected queries.
    @pytest.mark.parametrize("name", VECTOR_NAMES[:-1])
    def test_overlay_only_target_of_reachability_to(self, name):
        g = UncertainGraph.from_edges(self.GRAPH_EDGES, directed=True)
        overlay = [(1, 99, 1.0)]
        est, samples = self.vector_estimator(name, g)
        truth = {
            node: exact_reliability_by_enumeration(g, node, 99, overlay)
            for node in (0, 1, 99)
        }
        self.check_vector(est.reachability_to(g, 99, overlay), truth, samples)


class TestOverlayAndEdgeCases:
    @pytest.fixture
    def mc(self):
        """``mc(Z)``: a Monte Carlo estimator at ``Z`` with the seed
        every check here uses."""
        return lambda samples: MonteCarloEstimator(samples, seed=11)

    def test_overlay_edge_counted(self, mc):
        g = UncertainGraph()
        g.add_node(0)
        g.add_node(1)
        est = mc(8000).reliability(g, 0, 1, [(0, 1, 0.4)])
        assert_close_to_exact(est, 0.4, 8000)

    def test_overlay_undirected_semantics(self, mc):
        g = UncertainGraph()
        g.add_node(0)
        g.add_node(1)
        g.add_node(2)
        # Overlay edge (1, 0) must also carry 0 -> 1 traffic.
        est = mc(8000).reliability(g, 0, 2, [(1, 0, 0.8), (1, 2, 0.8)])
        assert_close_to_exact(est, 0.64, 8000)

    def test_overlay_through_unknown_node(self, mc):
        g = UncertainGraph()
        g.add_node(0)
        g.add_node(1)
        # Node 99 exists only in the overlay but may relay traffic.
        est = mc(8000).reliability(g, 0, 1, [(0, 99, 0.8), (99, 1, 0.8)])
        assert_close_to_exact(est, 0.64, 8000)

    def test_source_equals_target(self, mc, diamond):
        assert mc(10).reliability(diamond, 1, 1) == 1.0

    def test_missing_nodes(self, mc, diamond):
        assert mc(10).reliability(diamond, 0, 42) == 0.0
        assert mc(10).reliability(diamond, 42, 0) == 0.0

    def test_disconnected(self, mc):
        g = UncertainGraph()
        g.add_edge(0, 1, 0.9)
        g.add_edge(2, 3, 0.9)
        assert mc(500).reliability(g, 0, 3) == 0.0

    def test_certain_and_impossible_edges(self, mc):
        certain = UncertainGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0)])
        assert mc(50).reliability(certain, 0, 2) == 1.0
        impossible = UncertainGraph.from_edges([(0, 1, 0.0)])
        assert mc(200).reliability(impossible, 0, 1) == 0.0

    def test_edgeless_graph(self, mc):
        g = UncertainGraph()
        g.add_node(0)
        g.add_node(1)
        assert mc(100).reliability(g, 0, 1) == 0.0
        assert mc(100).reachability_from(g, 0) == {0: 1.0}

    def test_reachability_missing_source(self, mc, diamond):
        assert mc(10).reachability_from(diamond, 42) == {}

    def test_pair_reliabilities_empty(self, mc, diamond):
        assert mc(10).pair_reliabilities(diamond, []) == {}

    def test_pair_reliabilities_with_overlay(self, mc, diamond):
        pairs = [(0, 3), (1, 2)]
        with_edge = mc(8000).pair_reliabilities(diamond, pairs, [(0, 3, 1.0)])
        assert with_edge[(0, 3)] == 1.0  # certain overlay edge closes the pair
        without = mc(8000).pair_reliabilities(diamond, pairs)
        assert_close_to_exact(
            without[(0, 3)], exact_reliability(diamond, 0, 3), 8000
        )


class TestMultiSourceFusedSweep:
    """batch_reach_multi: S independent BFS sweeps fused into one pass."""

    @pytest.mark.parametrize("z", [17, 64, 256, 1000])
    def test_bitwise_parity_with_per_source_sweeps(self, medium_graph, z):
        from repro.engine import batch_reach, batch_reach_multi, sample_worlds

        plan = compile_plan(medium_graph)
        batch = sample_worlds(plan, z, np.random.default_rng(5))
        sources = [0, 7, 13, 29]
        fused = batch_reach_multi(plan, batch, sources)
        assert fused.shape == (plan.num_nodes, len(sources), num_words(z))
        for i, src in enumerate(sources):
            single = batch_reach(plan, batch, [src])
            assert np.array_equal(fused[:, i], single)

    def test_empty_sources(self, medium_graph):
        from repro.engine import batch_reach_multi, sample_worlds

        plan = compile_plan(medium_graph)
        batch = sample_worlds(plan, 64, np.random.default_rng(5))
        assert batch_reach_multi(plan, batch, []).shape == (plan.num_nodes, 0, 1)

    def test_edgeless_graph(self):
        from repro.engine import batch_reach_multi, sample_worlds

        g = UncertainGraph()
        for node in range(4):
            g.add_node(node)
        plan = compile_plan(g)
        batch = sample_worlds(plan, 64, np.random.default_rng(5))
        reached = batch_reach_multi(plan, batch, [0, 2])
        assert int(popcount(reached[0, 0]).sum()) == 64  # own source row
        assert int(popcount(reached[1, 0]).sum()) == 0

    @pytest.mark.parametrize("z", [64, 256, 1024, 4096])
    @pytest.mark.parametrize("per_pass", [1, 2, None])
    def test_reach_each_matches_per_source_sweeps(
        self, medium_graph, monkeypatch, z, per_pass
    ):
        """reach_each yields each source's own batch_reach fixpoint, in
        source order, C-contiguous and unaliased, however the word
        budget splits the sources into passes: one per pass, two per
        pass, or all in one fused pass (None), at W = 1 .. 64."""
        import repro.engine.kernel as kernel
        from repro.engine import batch_reach, reach_each, sample_worlds

        plan = compile_plan(medium_graph)
        batch = sample_worlds(plan, z, np.random.default_rng(11))
        sources = [29, 0, 13, 3, 21, 7]
        per_pass = per_pass or len(sources)
        monkeypatch.setattr(
            kernel, "_MULTI_SOURCE_WORD_BUDGET",
            per_pass * plan.num_nodes * batch.num_words,
        )
        fused_passes = []
        fused_sweep = kernel.batch_reach_multi

        def spy(plan, batch, group):
            fused_passes.append(list(group))
            return fused_sweep(plan, batch, group)

        monkeypatch.setattr(kernel, "batch_reach_multi", spy)
        masks = list(reach_each(plan, batch, sources))
        expected = [
            sources[lo:lo + per_pass]
            for lo in range(0, len(sources), per_pass)
        ] if per_pass > 1 else []
        assert fused_passes == expected
        assert len(masks) == len(sources)
        for src, mask in zip(sources, masks, strict=True):
            assert mask.shape == (plan.num_nodes, batch.num_words)
            assert mask.flags["C_CONTIGUOUS"]
            assert np.array_equal(mask, batch_reach(plan, batch, [src])), (
                z, src,
            )
        for i, mask in enumerate(masks):
            for other in masks[i + 1:]:
                assert not np.shares_memory(mask, other)

    @pytest.mark.parametrize("z", [64, 1000])
    @pytest.mark.parametrize("per_pass", [1, 2, None])
    def test_pair_hit_fractions_same_on_every_dispatch_path(
        self, medium_graph, monkeypatch, z, per_pass
    ):
        # The word budget decides how many sources share a fused pass:
        # one (per-source sweeps), two, or all of them (None, the
        # default budget here); every split must agree with independent
        # single-pair answers.
        import repro.engine.kernel as kernel
        from repro.engine import pair_hit_fractions, sample_worlds

        plan = compile_plan(medium_graph)
        batch = sample_worlds(plan, z, np.random.default_rng(6))
        pairs = [(0, 10), (7, 20), (13, 5), (0, 25), (2, 2), (0, 999)]
        solo = {
            pair: pair_hit_fractions(plan, batch, [pair], z)[pair]
            for pair in [(0, 10), (7, 20), (13, 5), (0, 25)]
        }
        if per_pass is not None:
            monkeypatch.setattr(
                kernel, "_MULTI_SOURCE_WORD_BUDGET",
                per_pass * plan.num_nodes * batch.num_words,
            )
        values = pair_hit_fractions(plan, batch, pairs, z)
        assert values[(2, 2)] == 1.0
        assert values[(0, 999)] == 0.0
        for pair, value in solo.items():
            assert values[pair] == value, (pair, per_pass)
