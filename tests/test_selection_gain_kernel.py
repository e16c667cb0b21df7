"""Tests for the batched selection-gain kernel (engine/selection.py).

The kernel's contract is *exactness against the shared batch*: for any
candidate edge, the gain it reports must equal the brute-force estimate
obtained by appending the candidate (with the same coin row) to the
world batch and re-running the full batch BFS.  These tests pin that
identity on directed and undirected graphs, the reverse-plan cache
semantics, and the routing/backend plumbing around the kernel.
"""

import gc
import pickle

import numpy as np
import pytest

from repro.graph import (
    UncertainGraph,
    assign_uniform,
    erdos_renyi,
    fixed_new_edge_probability,
)
from repro.engine import (
    QueryPlan,
    SelectionGainKernel,
    batch_reach,
    compile_plan,
    extend_batch,
    extend_with_overlay,
    popcount,
    sample_worlds,
)
from repro.reliability import ExactEstimator, SelectionBackend, make_estimator
from repro.baselines import hill_climbing, individual_top_k, selection_kernel_for

Z = 192  # deliberately not a multiple of 64: pad bits must stay clean
SEED = 13
ZETA = fixed_new_edge_probability(0.5)


def build_graph(directed: bool, n: int = 16, m: int = 30, seed: int = 4):
    graph = erdos_renyi(n, num_edges=m, seed=seed, directed=directed)
    return assign_uniform(graph, 0.1, 0.7, seed=seed + 1)


def candidate_pool(n: int):
    """Candidates covering the tricky cases: duplicates (exact ties),
    unknown endpoints, certain and impossible edges."""
    return [
        (0, n - 1, 0.4),
        (2, n - 3, 0.8),
        (2, n - 3, 0.8),        # duplicate: must draw identical coins
        (3, n + 1000, 0.9),     # unknown endpoint: structurally zero
        (5, 7, 0.0),            # impossible edge
        (1, n - 2, 1.0),        # certain edge
        (n - 3, 2, 0.8),        # reversed orientation of candidate 1
    ]


def brute_force_gain(plan, batch, src, dst, edge, row):
    """Reference gain: append the candidate + its coin row, full BFS."""
    base = int(popcount(batch_reach(plan, batch, [src])[dst]).sum())
    plan2 = extend_with_overlay(plan, [edge])
    batch2 = extend_batch(batch, row[None, :])
    hits = int(popcount(batch_reach(plan2, batch2, [src])[dst]).sum())
    return hits - base


class TestGainIdentity:
    @pytest.mark.parametrize("directed", [False, True])
    def test_individual_gains_match_brute_force(self, directed):
        graph = build_graph(directed)
        n = graph.num_nodes
        kernel = SelectionGainKernel(graph, Z, seed=SEED)
        candidates = candidate_pool(n)
        gains = kernel.individual_gains(0, n - 1, candidates)

        plan = compile_plan(graph)
        batch = sample_worlds(plan, Z, np.random.default_rng(SEED))
        src, dst = plan.node_index(0), plan.node_index(n - 1)
        for j, edge in enumerate(candidates):
            row = kernel.candidate_rows(0, [edge])[0]
            assert gains[j] == brute_force_gain(
                plan, batch, src, dst, edge, row
            ), f"candidate {j} ({edge}) gain mismatch"

    @pytest.mark.parametrize("directed", [False, True])
    def test_greedy_rounds_match_in_batch_brute_force(self, directed):
        """Every round's winner equals the naive shared-batch greedy
        (per candidate: extend plan + batch, full BFS, argmax)."""
        graph = build_graph(directed, seed=9)
        n = graph.num_nodes
        k = 3
        candidates = candidate_pool(n)
        kernel = SelectionGainKernel(graph, Z, seed=SEED)
        selected = kernel.greedy_select(0, n - 1, k, candidates)

        # Naive re-implementation sharing the same batch and coin rows.
        plan = compile_plan(graph)
        batch = sample_worlds(plan, Z, np.random.default_rng(SEED))
        src, dst = plan.node_index(0), plan.node_index(n - 1)
        remaining = list(range(len(candidates)))
        naive = []
        for round_index in range(k):
            gains = []
            rows = []
            for j in remaining:
                row = kernel.candidate_rows(round_index, [candidates[j]])[0]
                rows.append(row)
                gains.append(
                    brute_force_gain(
                        plan, batch, src, dst, candidates[j], row
                    )
                )
            best = int(np.argmax(gains))
            j = remaining.pop(best)
            naive.append(candidates[j])
            plan = extend_with_overlay(plan, [candidates[j]])
            batch = extend_batch(batch, rows[best][None, :])
        assert selected == naive

    def test_duplicate_candidates_tie_exactly(self):
        graph = build_graph(False)
        n = graph.num_nodes
        kernel = SelectionGainKernel(graph, Z, seed=SEED)
        gains = kernel.individual_gains(0, n - 1, candidate_pool(n))
        assert gains[1] == gains[2]

    def test_undirected_orientations_tie_exactly(self):
        """(u, v) and (v, u) are one undirected edge: both orientations
        must draw the same canonical coin row (exact tie -> lowest
        index), matching the orientation-independent scalar path."""
        graph = build_graph(False)
        n = graph.num_nodes
        kernel = SelectionGainKernel(graph, Z, seed=SEED)
        pool = candidate_pool(n)
        gains = kernel.individual_gains(0, n - 1, pool)
        assert gains[1] == gains[6]  # (2, n-3) vs (n-3, 2)
        # On directed graphs the orientations are distinct edges and
        # must stay independent.
        directed = build_graph(True)
        dk = SelectionGainKernel(directed, Z, seed=SEED)
        rows = dk.candidate_rows(0, [(2, 9, 0.8), (9, 2, 0.8)])
        assert not np.array_equal(rows[0], rows[1])

    def test_reversed_duplicate_keeps_lowest_index_every_seed(self):
        """Two certain chains, candidates [(2, 3), (3, 2)]: one
        undirected edge in two orientations.  The kernel ties exactly
        (canonical coin rows) and must keep the lowest index on *every*
        seed, like the per-candidate loop over exact estimates."""
        g = UncertainGraph()
        for u, v in ((0, 1), (1, 2), (3, 4), (4, 5)):
            g.add_edge(u, v, 1.0)
        for prob_model in (ZETA, fixed_new_edge_probability(1.0)):
            exact = hill_climbing(
                g, 0, 5, 1, [(2, 3), (3, 2)], prob_model, ExactEstimator(),
            )
            assert [(u, v) for u, v, _ in exact] == [(2, 3)]
            for seed in range(6):
                batched = hill_climbing(
                    g, 0, 5, 1, [(2, 3), (3, 2)], prob_model,
                    make_estimator("mc", 256, seed=seed),
                )
                assert batched == exact

    def test_gains_nonnegative_and_degenerate_queries(self):
        graph = build_graph(False)
        n = graph.num_nodes
        kernel = SelectionGainKernel(graph, Z, seed=SEED)
        pool = candidate_pool(n)
        assert (kernel.individual_gains(0, n - 1, pool) >= 0).all()
        # s == t and unknown endpoints: constant objective, zero gains,
        # greedy degrades to first-k in candidate order.
        assert (kernel.individual_gains(0, 0, pool) == 0).all()
        assert (kernel.individual_gains(0, n + 999, pool) == 0).all()
        assert kernel.greedy_select(0, 0, 2, pool) == pool[:2]
        assert kernel.top_k(0, n + 999, 2, pool) == pool[:2]

    def test_invalid_budget(self):
        graph = build_graph(False)
        kernel = SelectionGainKernel(graph, Z, seed=SEED)
        with pytest.raises(ValueError):
            kernel.greedy_select(0, 1, 0, [])
        with pytest.raises(ValueError):
            kernel.top_k(0, 1, 0, [])


class TestGreedySelectMulti:
    def test_single_pair_equals_single_objective(self):
        graph = build_graph(True, seed=21)
        n = graph.num_nodes
        pool = candidate_pool(n)
        kernel = SelectionGainKernel(graph, Z, seed=SEED)
        single = kernel.greedy_select(0, n - 1, 3, pool)
        multi = kernel.greedy_select_multi([(0, n - 1)], 3, pool, "avg")
        assert single == multi

    @pytest.mark.parametrize("aggregate", ["avg", "min", "max"])
    def test_aggregates_run_and_respect_budget(self, aggregate):
        graph = build_graph(False, seed=22)
        n = graph.num_nodes
        pairs = [(0, n - 1), (1, n - 2), (3, 3)]  # incl. s == t pair
        kernel = SelectionGainKernel(graph, Z, seed=SEED)
        edges = kernel.greedy_select_multi(
            pairs, 2, candidate_pool(n), aggregate
        )
        assert len(edges) == 2

    def test_unknown_aggregate_rejected(self):
        graph = build_graph(False)
        kernel = SelectionGainKernel(graph, Z, seed=SEED)
        with pytest.raises(ValueError, match="aggregate"):
            kernel.greedy_select_multi([(0, 1)], 1, [(0, 2, 0.5)], "sum")

    def test_duplicate_pairs_collapse_like_scalar_objective(self):
        """The scalar path's dict-valued objective counts each distinct
        pair once; the kernel must match, not weight duplicates."""
        graph = build_graph(False, seed=23)
        n = graph.num_nodes
        pool = candidate_pool(n)
        kernel = SelectionGainKernel(graph, Z, seed=SEED)
        unique = [(0, n - 1), (1, n - 2)]
        doubled = [(0, n - 1), (0, n - 1), (1, n - 2), (0, n - 1)]
        assert kernel.greedy_select_multi(
            doubled, 3, pool, "avg"
        ) == kernel.greedy_select_multi(unique, 3, pool, "avg")

    def test_multi_driver_rejects_unknown_aggregate_on_both_paths(self):
        from repro.experiments.tables import _multi_hill_climbing

        graph = build_graph(False)
        n = graph.num_nodes
        # Kernel path, and the per-candidate loop (no selection backend).
        for estimator in (make_estimator("mc", 64), ExactEstimator()):
            with pytest.raises(ValueError, match="aggregate"):
                _multi_hill_climbing(
                    graph, [(0, n - 1)], 1, [(0, 5)],
                    ZETA, estimator, "sum",
                )


class TestReversePlan:
    def test_reverse_view_is_identity_on_undirected(self, diamond):
        plan = compile_plan(diamond)
        assert plan.reverse_view() is plan

    def test_reverse_view_involution_and_caching(self, directed_diamond):
        plan = compile_plan(directed_diamond)
        reverse = plan.reverse_view()
        assert reverse is not plan
        assert reverse.reverse_view() is plan
        assert plan.reverse_view() is reverse  # cached

    def test_plan_and_view_freed_without_cyclic_gc(self):
        """Only the plan holds its view strongly, so dropping the graph
        frees the plan and its reverse view by reference counting."""

        def live_plans():
            return sum(isinstance(o, QueryPlan) for o in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before = live_plans()
            g = build_graph(True, seed=33)
            p = compile_plan(g)
            p.reverse_view()
            assert live_plans() == before + 2
            del p, g
            assert live_plans() == before
        finally:
            gc.enable()

    def test_graph_with_cached_view_pickles(self, directed_diamond):
        """A pickled graph leaves its cached plan (and the plan's reverse
        view) out, so it pickles to the same bytes as before it was
        compiled; the copy compiles an equal plan on first use."""
        uncompiled = pickle.dumps(directed_diamond)
        plan = compile_plan(directed_diamond)
        view = plan.reverse_view()
        assert pickle.dumps(directed_diamond) == uncompiled
        graph = pickle.loads(uncompiled)
        copy = compile_plan(graph)
        assert copy is not plan
        assert copy.reverse_view().reverse_view() is copy
        for name in ("arc_src", "arc_dst", "arc_eid", "probs", "edge_u"):
            assert np.array_equal(getattr(copy, name), getattr(plan, name))
            assert np.array_equal(
                getattr(copy.reverse_view(), name), getattr(view, name)
            )

    def test_reverse_reach_transposes_forward_reach(self):
        """Bit-exact: x⇝t via the reverse plan == t-row of the forward
        BFS from x, for every node x, in every sampled world."""
        graph = build_graph(True, seed=33)
        plan = compile_plan(graph)
        batch = sample_worlds(plan, Z, np.random.default_rng(SEED))
        t = plan.node_index(graph.num_nodes - 1)
        into_t = batch_reach(plan.reverse_view(), batch, [t])
        for x in range(plan.num_nodes):
            forward = batch_reach(plan, batch, [x])
            assert np.array_equal(into_t[x], forward[t]), f"node {x}"

    def test_compile_reverse_plan_cached_per_version(self, directed_diamond):
        first = compile_plan(directed_diamond).reverse_view()
        assert compile_plan(directed_diamond).reverse_view() is first
        directed_diamond.add_edge(3, 0, 0.5)  # version bump
        second = compile_plan(directed_diamond).reverse_view()
        assert second is not first
        assert second.num_edges == first.num_edges + 1
        # The new reverse plan must traverse the new edge backwards.
        src_ids = {second.node_ids[i] for i in second.arc_src}
        assert 0 in src_ids and 3 in src_ids

    def test_reverse_shares_worlds_with_forward(self, directed_diamond):
        plan = compile_plan(directed_diamond)
        reverse = plan.reverse_view()
        assert reverse.probs is plan.probs
        assert reverse.index_of is plan.index_of
        assert set(reverse.arc_eid) == set(plan.arc_eid)


class TestSelectionBackend:
    def test_mc_and_lazy_expose_backend(self):
        for name in ("mc", "lazy"):
            est = make_estimator(name, 123, seed=5)
            assert est.selection_backend() == SelectionBackend(123, 5)

    def test_exact_estimator_does_not(self):
        assert ExactEstimator().selection_backend() is None
        assert selection_kernel_for(build_graph(False), ExactEstimator()) is None

    def test_conditioned_samplers_expose_factory_backend(self):
        """rss / adaptive route selection through the gain kernel via a
        query-conditioned base-batch factory."""
        for name in ("rss", "adaptive"):
            est = make_estimator(name, 120, seed=7)
            backend = est.selection_backend()
            assert backend is not None, name
            assert (backend.num_samples, backend.seed) == (120, 7)
            assert callable(backend.make_batch), name
        # plain-batch backends carry no factory
        assert make_estimator("mc", 10).selection_backend().make_batch is None

    def test_no_backend_runs_per_candidate_loop(self):
        """An estimator without a selection backend is asked for every
        candidate's reliability (the per-candidate loop)."""

        class CountingExact(ExactEstimator):
            calls = 0

            def reliability(self, *args, **kwargs):
                CountingExact.calls += 1
                return super().reliability(*args, **kwargs)

        graph = UncertainGraph()
        graph.add_edge(0, 1, 0.4)
        graph.add_edge(1, 2, 0.4)
        for method in (hill_climbing, individual_top_k):
            CountingExact.calls = 0
            edges = method(
                graph, 0, 2, 1, [(0, 2)], ZETA, CountingExact()
            )
            assert [(u, v) for u, v, _ in edges] == [(0, 2)]
            assert CountingExact.calls >= 1, method.__name__

    def test_explicit_kernel_wins_over_backend(self):
        graph = build_graph(False)
        kernel = SelectionGainKernel(graph, Z, seed=SEED)
        for estimator in (ExactEstimator(), make_estimator("mc", 64)):
            assert selection_kernel_for(graph, estimator, kernel) is kernel


class TestSessionKernel:
    def test_session_kernel_reuses_cached_batch(self):
        from repro.api import Session

        graph = build_graph(False)
        session = Session(graph, seed=0)
        est = make_estimator("mc", 96, seed=11)
        kernel = session.selection_kernel(est)
        assert kernel is not None
        assert kernel.batch is session.world_batch(96, 11)[0]
        # Factory backends (per-stratum rss) reuse the session's plan
        # but build their query-conditioned batch lazily per query.
        rss_kernel = session.selection_kernel(make_estimator("rss", 96))
        assert rss_kernel is not None
        assert rss_kernel.plan is session.plan()[0]
        assert rss_kernel.batch is None
        assert rss_kernel.batch_factory is not None
        # Estimators without a selection backend have no kernel.
        assert session.selection_kernel(ExactEstimator()) is None

    def test_session_kernel_selection_matches_fresh_kernel(self):
        from repro.api import Session

        graph = build_graph(False, seed=44)
        n = graph.num_nodes
        pool = candidate_pool(n)
        est = make_estimator("mc", Z, seed=SEED)
        session = Session(graph, seed=0)
        via_session = session.selection_kernel(est).greedy_select(
            0, n - 1, 3, pool
        )
        fresh = SelectionGainKernel(graph, Z, seed=SEED).greedy_select(
            0, n - 1, 3, pool
        )
        assert via_session == fresh


class TestCoinBudget:
    """Deterministic work counters for candidate coins: a round draws
    exactly the coin words its gain masks need, so a silent return to
    dense per-candidate rows fails here on any machine."""

    Z = 640  # W = 10 words
    K = 3
    #: Coin words the whole greedy run draws, per fixture: 569 of 1980
    #: dense words undirected, 360 of 3870 directed.
    PINNED = {False: 569, True: 360}

    @staticmethod
    def fixture(directed):
        n, m, seed = (30, 60, 9) if directed else (40, 60, 9)
        graph = build_graph(directed, n=n, m=m, seed=seed)
        source, target = 0, n - 1
        pool = [
            (u, v, 0.5)
            for u in range(12) for v in range(12)
            if u != v and (directed or u < v) and not graph.has_edge(u, v)
        ] + [(u, target, 0.5) for u in range(12, 16)]
        return graph, source, target, pool

    def reference_words(self, graph, source, target, pool, selected):
        """Per round: nonzero words of the union of the gain masks
        ``(F[u] & R[v] | F[v] & R[u]) & ~already``, from full re-sweeps
        of the plan and batch extended with the earlier winners."""
        kernel = SelectionGainKernel(graph, self.Z, seed=SEED)
        plan, batch = kernel.plan, kernel.batch
        remaining = list(pool)
        per_round = []
        for round_index, winner in enumerate(selected):
            fwd = batch_reach(plan, batch, [plan.node_index(source)])
            rev = batch_reach(
                plan.reverse_view(), batch, [plan.node_index(target)]
            )
            already = fwd[plan.node_index(target)]
            words = 0
            for u, v, _p in remaining:
                a, b = plan.node_index(u), plan.node_index(v)
                mask = fwd[a] & rev[b]
                if not graph.directed:
                    mask |= fwd[b] & rev[a]
                words += int(np.count_nonzero(mask & ~already))
            per_round.append(words)
            remaining.remove(winner)
            row = kernel.candidate_rows(round_index, [winner], batch)
            plan = extend_with_overlay(plan, [winner])
            batch = extend_batch(batch, row)
        return per_round

    @pytest.mark.parametrize("directed", [False, True])
    def test_rounds_draw_only_nonzero_mask_words(self, monkeypatch, directed):
        from repro.engine import coin_base
        from repro.engine import selection as selection_mod
        from repro.engine.selection import _CANDIDATE_TAG

        graph, source, target, pool = self.fixture(directed)
        draws = []  # (round root, words drawn)
        real_draw = selection_mod.keyed_coin_words

        def spy_draw(base, *args):
            draws.append((int(base), len(args[-1])))
            return real_draw(base, *args)

        row_calls = []
        real_rows = SelectionGainKernel.candidate_rows

        def spy_rows(kernel, round_index, edges, batch=None):
            row_calls.append((round_index, list(edges)))
            return real_rows(kernel, round_index, edges, batch)

        monkeypatch.setattr(selection_mod, "keyed_coin_words", spy_draw)
        monkeypatch.setattr(SelectionGainKernel, "candidate_rows", spy_rows)
        kernel = SelectionGainKernel(graph, self.Z, seed=SEED)
        selected = kernel.greedy_select(source, target, self.K, pool)
        assert len(selected) == self.K
        # One full row per committed winner, none for the last round.
        assert row_calls == [
            (r, [selected[r]]) for r in range(self.K - 1)
        ]
        roots = [
            int(coin_base(np.random.default_rng([SEED, r, _CANDIDATE_TAG])))
            for r in range(self.K)
        ]
        assert {root for root, _ in draws} <= set(roots)
        per_round = [
            sum(words for root, words in draws if root == r) for r in roots
        ]
        monkeypatch.undo()
        assert per_round == self.reference_words(
            graph, source, target, pool, selected
        )
        total = sum(per_round)
        assert total == self.PINNED[directed]
        dense = len(pool) * kernel.batch.num_words * self.K
        assert total < dense // 3

        # Top-k scores one round: round 0's words, no full rows.
        draws.clear()
        monkeypatch.setattr(selection_mod, "keyed_coin_words", spy_draw)
        monkeypatch.setattr(SelectionGainKernel, "candidate_rows", spy_rows)
        row_calls.clear()
        kernel.top_k(source, target, self.K, pool)
        assert sum(words for _, words in draws) == per_round[0]
        assert row_calls == []
