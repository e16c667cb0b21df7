"""Tests for the declarative query/session API (`repro.api`)."""

import pytest

import repro.api.session as session_module
from repro.api import (
    GraphDelta,
    MaximizeQuery,
    ReliabilityQuery,
    Session,
    Workload,
    results_table,
)
from repro.engine import compile_plan, extend_with_overlay
from repro.graph import UncertainGraph, assign_uniform, erdos_renyi
from repro.index import IndexStore
from repro.reliability import (
    MonteCarloEstimator,
    estimator_names,
    estimator_spec,
    exact_reliability,
    make_estimator,
    register_estimator,
)

from oracle import assert_close_to_exact


@pytest.fixture
def graph():
    g = erdos_renyi(50, num_edges=120, seed=7)
    return assign_uniform(g, 0.2, 0.8, seed=8)


class TestQueries:
    def test_single_target_normalized(self):
        q = ReliabilityQuery(0, target=3)
        assert q.targets == (3,)
        assert q.pairs == [(0, 3)]

    def test_multi_target(self):
        q = ReliabilityQuery(0, targets=(3, 4))
        assert q.pairs == [(0, 3), (0, 4)]

    def test_target_xor_targets(self):
        with pytest.raises(ValueError, match="exactly one"):
            ReliabilityQuery(0, target=1, targets=(2,))
        with pytest.raises(ValueError, match="exactly one"):
            ReliabilityQuery(0)
        with pytest.raises(ValueError, match="non-empty"):
            ReliabilityQuery(0, targets=())

    def test_unknown_estimator_fails_fast(self):
        with pytest.raises(ValueError, match="unknown estimator"):
            ReliabilityQuery(0, target=1, estimator="nope")
        with pytest.raises(ValueError, match="unknown estimator"):
            MaximizeQuery(0, 1, estimator="nope")

    def test_invalid_budgets(self):
        with pytest.raises(ValueError):
            ReliabilityQuery(0, target=1, samples=0)
        with pytest.raises(ValueError):
            MaximizeQuery(0, 1, k=0)

    def test_workload_container(self):
        wl = Workload([ReliabilityQuery(0, target=1)])
        wl.add(MaximizeQuery(0, 2, k=1))
        assert len(wl) == 2
        with pytest.raises(TypeError):
            wl.add("not a query")

    def test_workload_pairs_constructor(self):
        wl = Workload.reliability([(0, 1), (2, 3)], samples=64)
        assert len(wl) == 2
        assert all(q.samples == 64 for q in wl)


class TestSessionParity:
    """Session-batched answers equal one-off calls at a fixed seed."""

    @pytest.mark.filterwarnings("ignore:estimator 'adaptive'")
    @pytest.mark.parametrize("name", sorted(estimator_names()))
    def test_batched_matches_per_call(self, graph, name):
        pairs = [(0, 10), (1, 20), (2, 30), (0, 40)]
        session = Session(graph, seed=13)
        workload = Workload.reliability(
            pairs, estimator=name, samples=256, seed=13
        )
        results = session.run(workload)
        for (s, t), result in zip(pairs, results, strict=True):
            solo = make_estimator(name, 256, seed=13).reliability(graph, s, t)
            assert result.values[0] == solo, (
                f"{name}: session={result.values[0]} solo={solo}"
            )

    def test_shared_batch_is_engine_deterministic(self, graph):
        # The shared world batch for (Z, seed) must be the batch a fresh
        # estimator with that seed would sample.
        session = Session(graph, seed=5)
        a = session.reliability(0, target=30, samples=512, seed=21)
        solo = MonteCarloEstimator(512, seed=21)
        assert a.value == solo.reliability(graph, 0, 30)

    def test_multi_target_consistent_with_single(self, graph):
        session = Session(graph, seed=3)
        multi = session.reliability(0, targets=(10, 20, 30), samples=256)
        for t, value in multi.by_target.items():
            single = session.reliability(0, target=t, samples=256)
            assert single.value == value

    def test_evaluate_pairs_matches_legacy_estimator(self, graph):
        session = Session(graph, evaluation_samples=300, evaluation_seed=42)
        pairs = [(0, 10), (5, 20), (7, 7)]
        batched = session.evaluate_pairs(pairs)
        legacy = MonteCarloEstimator(300, seed=42).pair_reliabilities(
            graph, pairs
        )
        assert batched == [legacy[pair] for pair in pairs]

    @pytest.mark.parametrize("case", [
        "plain", "stacked-key", "overlay-only-endpoint", "same-endpoints",
        "monotone-delta", "non-monotone-delta", "store",
    ])
    def test_evaluate_pairs_with_overlay(self, graph, tmp_path, case):
        """An overlay evaluation extends the session's cached (Z, seed)
        batch with the overlay's keyed coin rows, so it equals a
        same-seed estimator that resamples the merged plan, and it
        leaves the result and reach-fixpoint caches alone."""
        (u, v, p), (x, y, _) = sorted(graph.edges())[:2]
        missing = next(
            (a, b) for a in range(50) for b in range(a + 1, 50)
            if not graph.has_edge(a, b)
        )
        pairs, extra = [(0, 30), (5, 20)], [(0, 30, 0.9)]
        store = IndexStore(tmp_path / "store") if case == "store" else None
        session = Session(
            graph, evaluation_samples=300, evaluation_seed=42, store=store
        )
        session.evaluate_pairs(pairs)  # caches the batch and fixpoints
        if case == "stacked-key":
            # (v, u) folds onto the existing key (u, v) as its ordinal 1.
            extra = [(v, u, 0.7)]
            merged = extend_with_overlay(compile_plan(graph), extra)
            assert merged.edge_ordinal[-1] == 1
            pairs = [(u, v), (0, 30)]
        elif case == "overlay-only-endpoint":
            extra = [(0, 999, 0.8), (999, 30, 0.6)]
            pairs = [(0, 999), (999, 30), (0, 30)]
        elif case == "same-endpoints":
            pairs = [(7, 7), (0, 30)]
        elif case == "monotone-delta":
            delta = GraphDelta(upserts=((u, v, 1.0), (*missing, 0.5)))
            assert session.apply_delta(delta).strategy == "repair"
        elif case == "non-monotone-delta":
            delta = GraphDelta(upserts=((u, v, p / 2),), deletes=((x, y),))
            assert session.apply_delta(delta).strategy == "repair"
        reach = {key: set(states) for key, states in session._reach.items()}
        if store is not None:
            results = store.stats().num_results
            counters = store.counters.as_dict()
            assert results > 0
        values = session.evaluate_pairs(pairs, extra)
        fresh = MonteCarloEstimator(300, seed=42).pair_reliabilities(
            graph, pairs, extra
        )
        assert values == [fresh[pair] for pair in pairs]
        assert {
            key: set(states) for key, states in session._reach.items()
        } == reach
        if store is not None:
            assert store.stats().num_results == results
            assert store.counters.as_dict() == counters
            store.close()


class TestSessionBatching:
    def test_worlds_shared_across_queries_and_estimators(self, graph):
        # mc and lazy share the same statistical contract, so equal
        # (Z, seed) groups reuse one world batch across both.
        session = Session(graph, seed=9)
        results = session.run(Workload([
            ReliabilityQuery(0, target=10, estimator="mc", samples=128),
            ReliabilityQuery(1, target=20, estimator="mc", samples=128),
            ReliabilityQuery(2, target=30, estimator="lazy", samples=128),
        ]))
        assert len(session._worlds) == 1
        assert results[0].provenance.shared_worlds

    def test_distinct_seeds_get_distinct_worlds(self, graph):
        session = Session(graph, seed=9)
        session.run(Workload([
            ReliabilityQuery(0, target=10, samples=128, seed=1),
            ReliabilityQuery(0, target=10, samples=128, seed=2),
            ReliabilityQuery(0, target=10, samples=256, seed=1),
        ]))
        assert len(session._worlds) == 3

    def test_world_cache_bounded_with_fifo_eviction(self, graph, monkeypatch):
        monkeypatch.setattr(session_module, "_MAX_CACHED_BATCHES", 2)
        session = Session(graph, seed=9)
        baseline = session.reliability(0, target=10, samples=128, seed=1)
        session.reliability(0, target=10, samples=128, seed=2)
        session.reliability(0, target=10, samples=128, seed=3)  # evicts seed=1
        assert len(session._worlds) == 2
        assert (128, 1) not in session._worlds
        # Re-sampling an evicted (Z, seed) regenerates the identical
        # batch (fresh generator per key), so answers never change.
        again = session.reliability(0, target=10, samples=128, seed=1)
        assert again.value == baseline.value

    def test_results_align_with_query_order(self, graph):
        queries = [
            ReliabilityQuery(0, target=10, estimator="rss", samples=64),
            MaximizeQuery(0, 20, k=1, method="mrp"),
            ReliabilityQuery(1, target=20, estimator="mc", samples=64),
        ]
        results = Session(graph, seed=2).run(Workload(queries))
        assert results[0].query is queries[0]
        assert results[1].query is queries[1]
        assert results[2].query is queries[2]

    def test_adaptive_workload_warns_no_sharing(self, graph):
        session = Session(graph, seed=4)
        workload = Workload.reliability(
            [(0, 10), (1, 20)], estimator="adaptive", samples=400
        )
        with pytest.warns(UserWarning, match="cannot share"):
            results = session.run(workload)
        assert all(not r.provenance.shared_worlds for r in results)

    def test_timings_recorded_once_per_batch(self, graph):
        session = Session(graph, seed=1)
        first = session.reliability(0, target=10, samples=256)
        second = session.reliability(1, target=20, samples=256)
        # First query pays compile + sampling; second reuses both.
        assert first.provenance.timings.sample_seconds > 0
        assert second.provenance.timings.compile_seconds == 0.0
        assert second.provenance.timings.sample_seconds == 0.0
        assert second.provenance.shared_worlds


class TestCacheInvalidation:
    def test_graph_mutation_evicts_plan_and_worlds(self, graph):
        session = Session(graph, seed=6)
        before = session.reliability(0, target=10, samples=512)
        assert session._worlds and session._plan is not None
        old_version = graph.version

        graph.add_edge(0, 10, 0.99)  # bumps graph.version
        assert graph.version > old_version

        after = session.reliability(0, target=10, samples=512)
        # The stale plan/batch were evicted and the answer reflects the
        # mutated graph: a 0.99 direct edge dominates.
        assert after.value >= 0.99
        assert after.value > before.value
        assert session._version == graph.version

    def test_invalidate_resets_state(self, graph):
        session = Session(graph, seed=6)
        session.reliability(0, target=10, samples=128)
        session.invalidate()
        assert session._plan is None and not session._worlds

    def test_mutation_between_runs_matches_fresh_session(self, graph):
        session = Session(graph, seed=6)
        session.reliability(0, target=10, samples=128)
        graph.add_edge(0, 10, 0.5)
        stale = session.reliability(0, target=10, samples=128)
        fresh = Session(graph, seed=6).reliability(0, target=10, samples=128)
        assert stale.value == fresh.value


class TestSessionValidation:
    @pytest.mark.parametrize(
        "fail, field",
        [
            (lambda g: Session(g, evaluation_samples=0), "evaluation_samples"),
            (lambda g: Session(g, evaluation_seed=-1), "evaluation_seed"),
            (lambda g: Session(g, l=0), "l"),
            (lambda g: Session(g, r=0), "r"),
            (lambda g: Session(g, r=-1), "r"),
            (lambda g: Session(g, h=-1), "h"),
            (lambda g: Session(g).evaluate(0, 30, samples=0), "samples"),
            (lambda g: Session(g).evaluate(0, 0, seed=-1), "seed"),
            (lambda g: Session(g).evaluate_pairs([(0, 30)], samples=0),
             "samples"),
            (lambda g: Session(g).evaluate_pairs([(0, 30)], seed=-1), "seed"),
        ],
        ids=[
            "evaluation_samples", "evaluation_seed", "l", "r-zero",
            "r-negative", "h",
            "evaluate-samples", "evaluate-seed",
            "evaluate_pairs-samples", "evaluate_pairs-seed",
        ],
    )
    def test_bad_settings_fail_fast_naming_the_field(self, graph, fail, field):
        # Unchecked, each would pass here and fail deep in the engine
        # (ZeroDivisionError, numpy's seed check, Yen's l check) on the
        # first query that needs it.
        with pytest.raises(ValueError, match=rf"^{field} must"):
            fail(graph)


class TestMaximizeThroughSession:
    def test_unknown_method(self, graph):
        with pytest.raises(ValueError, match="unknown method"):
            Session(graph).maximize(MaximizeQuery(0, 1, method="magic"))

    def test_query_samples_and_seed_override_session_default(self, graph):
        # Even without an explicit estimator name, samples/seed on the
        # query must reconfigure the (registry-built) default sampler.
        session = Session(graph, seed=3, r=8, l=8)
        result = session.maximize(
            MaximizeQuery(0, 30, k=1, samples=64, seed=99)
        )
        assert result.provenance.samples == 64
        assert result.provenance.seed == 99
        assert result.provenance.estimator == "rss"

    def test_query_overrides_warn_on_custom_instance(self):
        from repro.graph import UncertainGraph
        from repro.reliability import ExactEstimator

        small = UncertainGraph.from_edges(
            [(0, 1, 0.6), (1, 2, 0.5), (2, 3, 0.7), (0, 4, 0.4), (4, 3, 0.5)]
        )
        session = Session(small, estimator=ExactEstimator(), r=4, l=4)
        with pytest.warns(UserWarning, match="custom instance"):
            session.maximize(MaximizeQuery(0, 3, k=1, samples=64))

    def test_provenance(self, graph):
        result = Session(graph, seed=3, r=8, l=8).maximize(
            MaximizeQuery(0, 30, k=1, estimator="mc", samples=100)
        )
        assert result.provenance.estimator == "mc"
        assert result.provenance.samples == 100
        assert result.provenance.timings.solve_seconds > 0

    def test_batched_workload_matches_sequential(self, graph):
        """Session.run batches maximize queries (one shared base-
        evaluation pass, shared selection worlds) bit-for-bit equal to
        one-by-one execution."""
        queries = [
            MaximizeQuery(0, 30, k=2, method="hc", estimator="mc",
                          samples=128, eliminate=False),
            MaximizeQuery(1, 25, k=2, method="topk", estimator="mc",
                          samples=128, eliminate=False),
            MaximizeQuery(2, 20, k=1, method="degree", eliminate=False),
        ]
        batched = Session(graph, seed=3, r=8, l=8).run(Workload(queries))
        sequential_session = Session(graph, seed=3, r=8, l=8)
        sequential = [sequential_session.maximize(q) for q in queries]
        for got, want in zip(batched, sequential, strict=True):
            assert got.solution.edges == want.solution.edges
            assert got.solution.base_reliability == want.solution.base_reliability
            assert got.solution.new_reliability == want.solution.new_reliability

    def test_mixed_workload_ordering(self, graph):
        """Reliability and maximize queries interleave; result order
        matches query order."""
        queries = [
            ReliabilityQuery(0, target=30, samples=64),
            MaximizeQuery(0, 30, k=1, method="degree", eliminate=False),
            ReliabilityQuery(1, target=25, samples=64),
        ]
        results = Session(graph, seed=3, r=8, l=8).run(queries)
        assert results[0].query is queries[0]
        assert results[1].query is queries[1]
        assert results[2].query is queries[2]

    def test_hc_query_coin_word_budget(self, monkeypatch):
        """Work counter for every keyed coin word one hill-climbing
        ``mc`` query draws, so a return of a full resample (say, of
        the final evaluation) fails here on any machine."""
        import repro.engine.batch as batch_module
        import repro.engine.kernel as kernel_module
        import repro.engine.selection as selection_module

        draws = []  # (call site, uint64 coin words drawn)

        def spy(module, name, site):
            real = getattr(module, name)

            def counted(*args):
                words = real(*args)
                draws.append((site, words.size))
                return words

            monkeypatch.setattr(module, name, counted)

        spy(kernel_module, "keyed_coin_rows", "sample")
        spy(selection_module, "keyed_coin_rows", "winner")
        spy(selection_module, "keyed_coin_words", "sparse")
        spy(batch_module, "keyed_coin_rows", "overlay")
        graph = assign_uniform(
            erdos_renyi(30, num_edges=70, seed=9, directed=True),
            0.2, 0.8, seed=10,
        )
        session = Session(
            graph, seed=4, estimator="mc", selection_samples=640,
            evaluation_samples=960, r=10, l=8,
        )
        result = session.maximize(MaximizeQuery(0, 29, k=3, method="hc"))
        assert len(result.edges) == 3
        select_w, evaluate_w = 10, 15  # words per row at Z = 640 / 960
        full_select = graph.num_edges * select_w
        assert draws == [
            ("sample", full_select),  # elimination: reach from s
            ("sample", full_select),  # elimination: reach into t
            ("sample", full_select),  # the selection batch
            # Greedy rounds: coin words only where a gain mask is
            # nonzero, and each committed winner's full row.
            ("sparse", 542), ("winner", select_w),
            ("sparse", 426), ("winner", select_w),
            ("sparse", 333),
            ("sample", graph.num_edges * evaluate_w),  # evaluation batch
            # The final evaluation adds only the chosen edges' rows.
            ("overlay", len(result.edges) * evaluate_w),
        ]


class TestResults:
    def test_value_raises_on_multi_target(self, graph):
        result = Session(graph).reliability(0, targets=(1, 2), samples=32)
        with pytest.raises(ValueError, match="multi-target"):
            result.value
        assert len(result.values) == 2

    def test_results_table_renders(self, graph):
        results = Session(graph, seed=1).run(
            Workload.reliability([(0, 10), (1, 20)], samples=64)
        )
        rendered = results_table(results, title="t").render()
        assert "R(s,t)" in rendered and "shared" in rendered


class TestRegistry:
    def test_builtins_registered(self):
        assert {"mc", "rss", "lazy", "adaptive"} <= set(estimator_names())

    def test_aliases(self):
        assert estimator_spec("monte-carlo").name == "mc"
        assert estimator_spec("adaptive-mc").name == "adaptive"

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown estimator"):
            make_estimator("definitely-not-registered")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_estimator("mc", lambda samples, seed, **kw: None)

    def test_conflicting_alias_leaves_no_partial_entry(self):
        # "mc" is taken, so the whole registration must be rolled
        # back — neither the name nor the first alias may stick.
        with pytest.raises(ValueError, match="alias 'mc' is already taken"):
            register_estimator(
                "fresh-name",
                lambda samples, seed, **kw: None,
                aliases=("fresh-alias", "mc"),
            )
        with pytest.raises(ValueError, match="unknown estimator"):
            estimator_spec("fresh-name")
        with pytest.raises(ValueError, match="unknown estimator"):
            estimator_spec("fresh-alias")

    def test_make_estimator_types(self):
        from repro.reliability import (
            AdaptiveMonteCarlo,
            LazyPropagationEstimator,
            MonteCarloEstimator,
            RecursiveStratifiedSampler,
        )

        assert isinstance(make_estimator("mc", 10), MonteCarloEstimator)
        assert isinstance(make_estimator("rss", 10), RecursiveStratifiedSampler)
        assert isinstance(make_estimator("lazy", 10), LazyPropagationEstimator)
        adaptive = make_estimator("adaptive", 500)
        assert isinstance(adaptive, AdaptiveMonteCarlo)
        assert adaptive.max_samples == 500

    def test_custom_estimator_usable_in_session(self, graph):
        class ConstantEstimator:
            def __init__(self, value):
                self.value = value

            def reliability(self, graph, source, target, extra_edges=None):
                return self.value

        register_estimator(
            "constant-test",
            lambda samples, seed, **kw: ConstantEstimator(0.25),
            overwrite=True,
        )
        result = Session(graph).reliability(
            0, target=10, estimator="constant-test", samples=16
        )
        assert result.value == 0.25


class TestEngineEstimators:
    """Registry estimators against the exact oracle; adaptive's cap and
    overlay handling."""

    @pytest.fixture
    def small(self):
        return UncertainGraph.from_edges([
            (0, 1, 0.6), (1, 2, 0.5), (2, 3, 0.7), (0, 4, 0.4),
            (4, 3, 0.5), (1, 4, 0.3),
        ])

    def test_lazy_against_exact(self, small):
        value = make_estimator("lazy", 4000, seed=1).reliability(small, 0, 3)
        assert_close_to_exact(value, exact_reliability(small, 0, 3), 4000)

    def test_adaptive_against_exact(self, small):
        est = make_estimator(
            "adaptive", 20000, seed=1, target_half_width=0.02,
        ).estimate(small, 0, 3)
        assert_close_to_exact(
            est.value, exact_reliability(small, 0, 3), est.samples_used
        )
        assert est.half_width <= 0.02 + 1e-9

    def test_adaptive_respects_cap(self, graph):
        est = make_estimator(
            "adaptive", 600, target_half_width=0.0001, block_size=250,
        )
        result = est.estimate(graph, 0, 20)
        assert result.samples_used == 600

    def test_adaptive_overlay(self, graph):
        est = make_estimator("adaptive", 5000, target_half_width=0.02)
        plain = est.estimate(graph, 0, 20)
        boosted = make_estimator(
            "adaptive", 5000, target_half_width=0.02
        ).estimate(graph, 0, 20, [(0, 20, 0.95)])
        assert boosted.value > plain.value
