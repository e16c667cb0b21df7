"""Incremental selection restarts and conditioned selection backends.

Two contracts from the frontier-gated sweep-engine rework:

* **Incremental restarts are exact.**  After a greedy round commits a
  winner, resuming the forward/reverse sweeps from the winner's
  endpoints (restricted to worlds where its coin landed heads) must
  reproduce, bit for bit, the masks a full re-sweep over the extended
  plan and batch would compute — monotone reachability makes the
  restart a fixpoint continuation, not an approximation.  Selections
  with ``incremental=True`` and ``incremental=False`` are therefore
  identical.

* **Conditioned samplers drive batched selection.**  ``rss`` and
  ``adaptive`` expose factory-carrying selection backends (per-stratum
  and per-block base batches); ``hill_climbing`` / ``individual_top_k``
  auto-route them through the gain kernel, and on fixtures whose greedy
  choices are forced (gains separated far beyond sampling noise) the
  routed selection equals the per-candidate loop's over exact estimates.
"""

import numpy as np
import pytest

from repro.baselines import hill_climbing, individual_top_k, selection_kernel_for
from repro.engine import (
    SelectionGainKernel,
    WorldBatch,
    allocate_proportional,
    batch_reach,
    batch_reach_resume,
    compile_plan,
    concat_batches,
    extend_batch,
    extend_with_overlay,
    hit_fraction,
    popcount,
    sample_worlds,
    sample_worlds_stratified,
    unpack_word_row,
    valid_sample_mask,
)
from repro.graph import (
    UncertainGraph,
    assign_uniform,
    erdos_renyi,
    fixed_new_edge_probability,
)
from repro.reliability import ExactEstimator, make_estimator

Z = 192  # deliberately not a multiple of 64: pad bits must stay clean
SEED = 13
ZETA = fixed_new_edge_probability(0.5)


def build_graph(directed: bool, n: int = 16, m: int = 30, seed: int = 4):
    graph = erdos_renyi(n, num_edges=m, seed=seed, directed=directed)
    return assign_uniform(graph, 0.1, 0.7, seed=seed + 1)


def candidate_pool(n: int):
    return [
        (0, n - 1, 0.4),
        (2, n - 3, 0.8),
        (2, n - 3, 0.8),        # duplicate: identical coins, exact tie
        (3, n + 1000, 0.9),     # unknown endpoint: structurally zero
        (5, 7, 0.0),            # impossible edge
        (1, n - 2, 1.0),        # certain edge
        (4, 9, 0.6),
        (6, 11, 0.3),
    ]


class TestResume:
    @pytest.mark.parametrize("directed", [False, True])
    def test_resume_from_partial_state_reaches_fixpoint(self, directed):
        """Zeroing arbitrary non-source rows and resuming from the
        nodes that feed them reconverges to the full sweep."""
        graph = build_graph(directed, seed=9)
        plan = compile_plan(graph)
        batch = sample_worlds(plan, Z, np.random.default_rng(3))
        full = batch_reach(plan, batch, [0])
        partial = full.copy()
        partial[3:9] = 0
        partial[0] = batch.valid  # source row stays seeded
        resumed = batch_reach_resume(
            plan, batch, partial, [i for i in range(plan.num_nodes) if i not in range(3, 9)]
        )
        assert np.array_equal(resumed, full)

    def test_resume_rejects_unpadded_state(self):
        graph = build_graph(False)
        plan = compile_plan(graph)
        batch = sample_worlds(plan, Z, np.random.default_rng(3))
        short = np.zeros((plan.num_nodes - 1, batch.num_words), dtype=np.uint64)
        with pytest.raises(ValueError, match="pad"):
            batch_reach_resume(plan, batch, short, [0])


class TestIncrementalMasks:
    @pytest.mark.parametrize("directed", [False, True])
    def test_advanced_masks_equal_full_resweep_each_round(self, directed):
        """Step the greedy by hand: after each commit, the incrementally
        advanced forward/reverse masks equal from-scratch sweeps over
        the extended plan and batch, bit for bit."""
        graph = build_graph(directed, seed=21)
        n = graph.num_nodes
        kernel = SelectionGainKernel(graph, Z, seed=SEED)
        plan, batch = kernel.plan, kernel.batch
        src = plan.node_index(0)
        dst = plan.node_index(n - 1)
        forward = batch_reach(plan, batch, [src])
        reverse = batch_reach(plan.reverse_view(), batch, [dst])
        commits = [(2, n - 3, 0.8), (0, n - 1, 0.4), (3, n + 1000, 0.9)]
        for round_index, edge in enumerate(commits):
            row = kernel.candidate_rows(round_index, [edge], batch)[0]
            plan = extend_with_overlay(plan, [edge])
            batch = extend_batch(batch, row[None, :])
            forward, reverse = kernel._advance_masks(
                plan, batch, forward, reverse, edge, row
            )
            assert np.array_equal(forward, batch_reach(plan, batch, [src]))
            assert np.array_equal(
                reverse, batch_reach(plan.reverse_view(), batch, [dst])
            )

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("seed", [4, 21, 33])
    def test_greedy_select_incremental_parity(self, directed, seed):
        graph = build_graph(directed, seed=seed)
        n = graph.num_nodes
        pool = candidate_pool(n)
        fast = SelectionGainKernel(graph, Z, seed=SEED).greedy_select(
            0, n - 1, 4, pool
        )
        slow = SelectionGainKernel(
            graph, Z, seed=SEED, incremental=False
        ).greedy_select(0, n - 1, 4, pool)
        assert fast == slow

    @pytest.mark.parametrize("aggregate", ["avg", "min", "max"])
    def test_greedy_select_multi_incremental_parity(self, aggregate):
        graph = build_graph(False, seed=8)
        n = graph.num_nodes
        pairs = [(0, n - 1), (1, n - 2), (0, n - 2), (2, 2), (3, n + 50)]
        pool = candidate_pool(n)
        fast = SelectionGainKernel(graph, Z, seed=SEED).greedy_select_multi(
            pairs, 4, pool, aggregate=aggregate
        )
        slow = SelectionGainKernel(
            graph, Z, seed=SEED, incremental=False
        ).greedy_select_multi(pairs, 4, pool, aggregate=aggregate)
        assert fast == slow

    def test_multi_factory_seeds_first_non_degenerate_pair(self):
        """A degenerate leading pair must not collapse a factory batch:
        the factory is seeded with the first useful pair."""
        graph = build_graph(False, seed=8)
        n = graph.num_nodes
        est = make_estimator("adaptive", 600, seed=2)
        kernel = SelectionGainKernel(
            graph, 600, seed=2,
            batch_factory=est.selection_backend().make_batch,
        )
        kernel.greedy_select_multi(
            [(3, 3), (0, n - 1)], 1, [(0, n - 1, 0.5)]
        )
        assert list(kernel._query_batches) == [(0, n - 1)]

    def test_fused_mask_sweeps_match_one_source_per_pass(self, monkeypatch):
        import repro.engine.kernel as kernel

        graph = build_graph(False, seed=8)
        n = graph.num_nodes
        pairs = [(0, n - 1), (1, n - 2)]
        pool = candidate_pool(n)
        fused_passes = []
        fused_sweep = kernel.batch_reach_multi

        def spy(*args):
            fused_passes.append(args[2])
            return fused_sweep(*args)

        monkeypatch.setattr(kernel, "batch_reach_multi", spy)
        fused = SelectionGainKernel(graph, Z, seed=SEED).greedy_select_multi(
            pairs, 2, pool
        )
        # Forward and reverse masks each fuse their two endpoints.
        assert [len(group) for group in fused_passes] == [2, 2]
        # A one-word budget leaves room for one source per pass.
        monkeypatch.setattr(kernel, "_MULTI_SOURCE_WORD_BUDGET", 1)
        monkeypatch.setattr(
            kernel, "batch_reach_multi",
            lambda *a, **kw: pytest.fail("fused sweep at a one-source budget"),
        )
        per_source = SelectionGainKernel(graph, Z, seed=SEED).greedy_select_multi(
            pairs, 2, pool
        )
        assert fused == per_source

    def test_multi_interns_pair_endpoint_via_winner(self):
        """A pair target outside the base graph gets a mask once a
        committed winner interns it (parity with per-round rebuilds)."""
        graph = UncertainGraph()
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(1, 2, 1.0)
        pairs = [(0, 99)]
        pool = [(2, 99, 1.0), (0, 1, 0.5)]
        fast = SelectionGainKernel(graph, 64, seed=1).greedy_select_multi(
            pairs, 2, pool
        )
        slow = SelectionGainKernel(
            graph, 64, seed=1, incremental=False
        ).greedy_select_multi(pairs, 2, pool)
        assert fast == slow
        assert fast[0] == (2, 99, 1.0)


def forced_fixtures():
    """Fixtures whose greedy choices are forced far beyond noise."""
    chains = UncertainGraph()
    for u, v in ((0, 1), (1, 2), (3, 4), (4, 5)):
        chains.add_edge(u, v, 1.0)
    probs1 = {(2, 3): 1.0, (0, 5): 0.5, (1, 4): 0.25}

    star = UncertainGraph()
    star.add_edge(1, 5, 1.0)
    star.add_edge(2, 5, 0.5)
    star.add_edge(3, 5, 0.1)
    star.add_node(0)
    probs2 = {(0, 1): 0.9, (0, 2): 0.9, (0, 3): 0.9}
    return [
        ("forced-tie-break", chains, 0, 5, 3, list(probs1), probs1),
        ("separated-gains", star, 0, 5, 2, list(probs2), probs2),
    ]


class TestConditionedBackendRouting:
    @pytest.mark.parametrize("name", ["rss", "adaptive"])
    @pytest.mark.parametrize("method", [hill_climbing, individual_top_k])
    def test_routed_selection_matches_scalar_loop(self, name, method):
        for label, graph, s, t, k, candidates, probs in forced_fixtures():
            prob_model = lambda u, v, probs=probs: probs[(u, v)]
            # The per-candidate loop over exact estimates.
            scalar = method(
                graph, s, t, k, candidates, prob_model, ExactEstimator(),
            )
            routed = method(
                graph, s, t, k, candidates, prob_model,
                make_estimator(name, 400, seed=SEED),
            )
            assert scalar == routed, (label, name)

    @pytest.mark.parametrize("name", ["rss", "adaptive"])
    def test_conditioned_backends_route_through_kernel(self, name):
        graph = UncertainGraph()
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(2, 3, 1.0)
        est = make_estimator(name, 200, seed=3)
        kernel = selection_kernel_for(graph, est)
        assert kernel is not None and kernel.batch_factory is not None
        edges = hill_climbing(graph, 0, 3, 1, [(1, 2)], ZETA, est)
        assert [(u, v) for u, v, _ in edges] == [(1, 2)]

    def test_rss_stratified_batch_is_conditioned(self):
        """The per-stratum base batch pins the stratified edge states:
        the top-ranked frontier edge is forced present in its own
        stratum's block and absent in every later block."""
        from repro.reliability.rss import _Adjacency

        graph = build_graph(False, seed=5)
        est = make_estimator("rss", 256, seed=2)
        plan = compile_plan(graph)
        batch = est.selection_backend().make_batch(
            graph, plan, 0, graph.num_nodes - 1
        )
        assert batch.num_samples == 256
        assert int(popcount(batch.valid).sum()) == 256
        adj = _Adjacency(graph, {})
        certain = est._certain_region(adj, 0, {})
        ranked = est._select_strata_edges(adj, certain, {})
        assert ranked  # source 0 has an undetermined frontier here
        weights = []
        prefix = 1.0
        for _u, _v, p, _key in ranked:
            weights.append(prefix * p)
            prefix *= 1.0 - p
        weights.append(prefix)
        counts = allocate_proportional(weights, 256)
        first = counts[0]
        eid = plan.edge_index[ranked[0][3]][0]
        bits = unpack_word_row(batch.alive[eid])[unpack_word_row(batch.valid)]
        assert bits[:first].all()       # stratum 1: forced present
        assert not bits[first:].any()   # strata 2..r+1: forced absent

    def test_factory_kernel_query_batch_cache_is_bounded(self):
        from repro.engine.selection import _MAX_QUERY_BATCHES

        graph = build_graph(False, seed=9)
        n = graph.num_nodes
        est = make_estimator("rss", 64, seed=1)
        backend = est.selection_backend()
        kernel = SelectionGainKernel(
            graph, 64, seed=1, batch_factory=backend.make_batch
        )
        for t in range(1, _MAX_QUERY_BATCHES + 4):
            kernel.base_batch(0, t % n)
        assert len(kernel._query_batches) <= _MAX_QUERY_BATCHES
        # cached: same query returns the same object
        assert kernel.base_batch(0, 1) is kernel.base_batch(0, 1)

    def test_factory_kernel_candidate_rows_requires_batch(self):
        graph = build_graph(False, seed=9)
        est = make_estimator("rss", 64, seed=1)
        kernel = SelectionGainKernel(
            graph, 64, seed=1,
            batch_factory=est.selection_backend().make_batch,
        )
        with pytest.raises(ValueError, match="base batch per query"):
            kernel.candidate_rows(0, [(0, 1, 0.5)])

    def test_adaptive_block_batch_respects_cap_and_blocks(self):
        est = make_estimator("adaptive", 500, seed=4)
        graph = build_graph(False, seed=6)
        plan = compile_plan(graph)
        backend = est.selection_backend()
        batch = backend.make_batch(graph, plan, 0, graph.num_nodes - 1)
        assert batch.num_samples <= 500
        assert batch.num_samples % min(200, 500) == 0 or batch.num_samples == 500
        assert int(popcount(batch.valid).sum()) == batch.num_samples


class TestBatchHelpers:
    def test_allocate_proportional_sums_and_rounds(self):
        assert allocate_proportional([1.0], 7) == [7]
        counts = allocate_proportional([0.5, 0.3, 0.2], 10)
        assert sum(counts) == 10 and counts == [5, 3, 2]
        counts = allocate_proportional([0.4, 0.4, 0.2], 7)
        assert sum(counts) == 7
        assert allocate_proportional([0.0, 1.0], 4) == [0, 4]
        with pytest.raises(ValueError):
            allocate_proportional([], 5)
        with pytest.raises(ValueError):
            allocate_proportional([0.0, 0.0], 5)

    def test_concat_batches_behaves_like_one_batch(self):
        """A concatenated batch (interior pad bits) answers reachability
        exactly like the union of its blocks."""
        graph = build_graph(False, seed=12)
        plan = compile_plan(graph)
        rng = np.random.default_rng(5)
        blocks = [sample_worlds(plan, z, rng) for z in (70, 64, 9)]
        combined = concat_batches(blocks)
        assert combined.num_samples == 143
        assert int(popcount(combined.valid).sum()) == 143
        hits = sum(
            int(popcount(batch_reach(plan, b, [0])[plan.node_index(3)]).sum())
            for b in blocks
        )
        row = batch_reach(plan, combined, [0])[plan.node_index(3)]
        assert int(popcount(row).sum()) == hits
        assert hit_fraction(row, combined.num_samples) == hits / 143

    def test_concat_single_and_empty(self):
        graph = build_graph(False)
        plan = compile_plan(graph)
        b = sample_worlds(plan, 10, np.random.default_rng(0))
        assert concat_batches([b]) is b
        with pytest.raises(ValueError):
            concat_batches([])

    def test_candidate_rows_depend_only_on_layout(self):
        """Candidate rows are a function of (seed, round, candidate,
        valid layout): a factory kernel handed a prefix batch draws
        exactly the rows the plain kernel draws on its own batch."""
        graph = build_graph(False, seed=8)
        plain = SelectionGainKernel(graph, Z, seed=SEED)
        factory = SelectionGainKernel(
            graph, Z, seed=SEED,
            batch_factory=lambda g, plan, s, t: sample_worlds(
                plan, Z, np.random.default_rng(99)
            ),
        )
        pool = [(0, 5, 0.0), (1, 4, 0.3), (2, 6, 1.0)]
        prefix = factory.base_batch(0, 5)
        assert np.array_equal(prefix.valid, valid_sample_mask(Z))
        for round_index in (0, 3):
            assert np.array_equal(
                plain.candidate_rows(round_index, pool),
                factory.candidate_rows(round_index, pool, prefix),
            )

    def test_candidate_rows_interior_pad_layout(self):
        """Coins land exactly on the valid positions of a concatenated
        layout; pad bits stay zero."""
        graph = build_graph(False, seed=8)
        plan = compile_plan(graph)
        rng = np.random.default_rng(8)
        layout = concat_batches([sample_worlds(plan, z, rng) for z in (70, 9)])
        kernel = SelectionGainKernel(graph, Z, seed=SEED)
        rows = kernel.candidate_rows(
            0, [(0, 5, 1.0), (0, 5, 0.0), (1, 4, 0.5)], layout
        )
        assert np.array_equal(rows[0], layout.valid)
        assert not rows[1].any()
        assert not (rows[2] & ~layout.valid).any()

    def test_stratified_sampling_pins_forced_edges(self):
        graph = build_graph(False, seed=3)
        plan = compile_plan(graph)
        strata = [
            ([0], [], 0.5),
            ([1], [0], 0.3),
            ([], [0, 1], 0.2),
        ]
        batch = sample_worlds_stratified(
            plan, strata, 100, np.random.default_rng(2)
        )
        assert batch.num_samples == 100
        counts = allocate_proportional([0.5, 0.3, 0.2], 100)
        bits0 = unpack_word_row(batch.alive[0])[unpack_word_row(batch.valid)]
        bits1 = unpack_word_row(batch.alive[1])[unpack_word_row(batch.valid)]
        a, b, c = counts
        assert bits0[:a].all() and not bits0[a:].any()
        assert bits1[a:a + b].all() and not bits1[a + b:].any()

    def test_extended_batch_keeps_word_layout(self):
        """extend_batch on a concatenated base keeps candidate rows and
        alive rows aligned (the factory-backend greedy path)."""
        graph = build_graph(False, seed=14)
        plan = compile_plan(graph)
        rng = np.random.default_rng(5)
        base = concat_batches([sample_worlds(plan, z, rng) for z in (70, 30)])
        kernel = SelectionGainKernel(graph, base.num_samples, seed=SEED)
        row = kernel.candidate_rows(0, [(0, 1, 0.5)], base)[0]
        extended = extend_batch(base, row[None, :])
        assert isinstance(extended, WorldBatch)
        assert extended.alive.shape == (plan.num_edges + 1, base.num_words)
        assert not (extended.alive[-1] & ~base.valid).any()
