"""Store-backed sessions: hashing, tiering, parity, invalidation."""

import pytest

from repro.api import ReliabilityQuery, Session, Workload
from repro.graph import UncertainGraph, assign_uniform, erdos_renyi
from repro.index import IndexStore
from repro.reliability import estimator_names


@pytest.fixture
def graph():
    g = erdos_renyi(40, num_edges=100, seed=5)
    return assign_uniform(g, 0.2, 0.8, seed=6)


@pytest.fixture
def store(tmp_path):
    with IndexStore(tmp_path / "store") as s:
        yield s


def reopen(store):
    return IndexStore(store.root)


class TestContentHash:
    def test_insertion_order_independent(self):
        a = UncertainGraph()
        a.add_edge(0, 1, 0.5)
        a.add_edge(1, 2, 0.25)
        b = UncertainGraph()
        b.add_edge(1, 2, 0.25)
        b.add_edge(0, 1, 0.5)
        assert a.content_hash() == b.content_hash()

    def test_sensitive_to_probability_bits(self):
        a = UncertainGraph.from_edges([(0, 1, 0.5)])
        b = UncertainGraph.from_edges([(0, 1, 0.5 + 1e-12)])
        assert a.content_hash() != b.content_hash()

    def test_sensitive_to_direction_and_isolated_nodes(self):
        a = UncertainGraph.from_edges([(0, 1, 0.5)])
        b = UncertainGraph.from_edges([(0, 1, 0.5)], directed=True)
        assert a.content_hash() != b.content_hash()
        c = UncertainGraph.from_edges([(0, 1, 0.5)])
        c.add_node(99)
        assert c.content_hash() != a.content_hash()

    def test_tracks_mutation(self):
        g = UncertainGraph.from_edges([(0, 1, 0.5)])
        before = g.content_hash()
        g.add_edge(1, 2, 0.5)
        assert g.content_hash() != before

    def test_stable_across_version_counters(self):
        # Same content reached through different mutation histories
        # (different version counters) must hash identically — that is
        # the whole point of content addressing.
        a = UncertainGraph.from_edges([(0, 1, 0.5)])
        b = UncertainGraph.from_edges([(0, 1, 0.9)])
        b.set_probability(0, 1, 0.5)
        assert a.version != b.version
        assert a.content_hash() == b.content_hash()


class TestTieringAndProvenance:
    def test_cold_store_samples_then_persists(self, graph, store):
        session = Session(graph, seed=9, store=store)
        result = session.reliability(0, target=30, samples=2048)
        assert result.provenance.world_source == "sampled"
        assert result.provenance.cache_hits == 0
        assert result.provenance.cache_misses == 1
        stats = store.stats()
        assert stats.num_batches == 1
        assert stats.num_results == 1

    def test_fresh_session_answers_from_result_cache(self, graph, store):
        first = Session(graph, seed=9, store=store).reliability(
            0, target=30, samples=2048
        )
        warm = Session(graph, seed=9, store=reopen(store))
        second = warm.reliability(0, target=30, samples=2048)
        assert second.values == first.values
        assert second.provenance.world_source is None  # no worlds touched
        assert second.provenance.cache_hits == 1
        assert second.provenance.cache_misses == 0
        assert second.provenance.shared_worlds is True

    def test_new_pair_loads_batch_from_store(self, graph, store):
        Session(graph, seed=9, store=store).reliability(
            0, target=30, samples=2048
        )
        warm = Session(graph, seed=9, store=reopen(store))
        result = warm.reliability(1, target=31, samples=2048)
        assert result.provenance.world_source == "store"
        assert warm.store.counters.batch_hits == 1

    def test_memory_tier_beats_store(self, graph, store):
        session = Session(graph, seed=9, store=store)
        session.reliability(0, target=30, samples=2048)
        result = session.reliability(1, target=31, samples=2048)
        # Same process: the in-memory batch cache answers first.
        assert result.provenance.world_source == "memory"

    def test_no_store_leaves_cache_fields_none(self, graph):
        result = Session(graph, seed=9).reliability(0, target=30,
                                                    samples=2048)
        assert result.provenance.cache_hits is None
        assert result.provenance.cache_misses is None

    def test_store_stats_surface(self, graph, store):
        session = Session(graph, seed=9, store=store)
        assert session.store_stats()["num_batches"] == 0
        assert Session(graph, seed=9).store_stats() is None


class TestParity:
    @pytest.mark.parametrize("estimator", sorted(estimator_names()))
    def test_store_backed_matches_cold_per_estimator(self, graph, store,
                                                     estimator):
        query = ReliabilityQuery(0, target=30, estimator=estimator,
                                 samples=1024)
        [cold] = Session(graph, seed=13).run(Workload([query]))
        [prime] = Session(graph, seed=13, store=store).run(Workload([query]))
        [warm] = Session(graph, seed=13, store=reopen(store)).run(
            Workload([query])
        )
        assert prime.values == cold.values
        assert warm.values == cold.values

    def test_mmap_batch_is_bit_identical_to_fresh_sampling(self, graph,
                                                           store):
        import numpy as np

        cold = Session(graph, seed=21)
        batch_cold, _, source_cold = cold.world_batch(512, 21)
        assert source_cold == "sampled"

        Session(graph, seed=21, store=store).world_batch(512, 21)
        warm = Session(graph, seed=21, store=reopen(store))
        batch_warm, _, source_warm = warm.world_batch(512, 21)
        assert source_warm == "store"
        np.testing.assert_array_equal(
            np.asarray(batch_warm.alive), np.asarray(batch_cold.alive)
        )
        np.testing.assert_array_equal(
            np.asarray(batch_warm.valid), np.asarray(batch_cold.valid)
        )
        assert batch_warm.num_samples == batch_cold.num_samples

    def test_insertion_order_cannot_permute_store_batches(self, store):
        # Two content-equal graphs built in different edge insertion
        # orders share a content hash, so they share store entries.
        # The compiled edge-id layout must therefore be canonical
        # (sorted, like the hash) or a warm load would pair one graph's
        # coin rows with the other's edge probabilities.
        import numpy as np

        from repro.engine import compile_plan

        edges = [(0, 1, 0.9), (1, 2, 0.1), (0, 3, 0.5), (3, 2, 0.7)]
        a = UncertainGraph.from_edges(edges)
        b = UncertainGraph.from_edges(list(reversed(edges)))
        assert a.content_hash() == b.content_hash()
        np.testing.assert_array_equal(
            compile_plan(a).probs, compile_plan(b).probs
        )

        primed = Session(a, seed=17, store=store)
        primed.world_batch(1024, 17)  # persist under the shared hash

        warm = Session(b, seed=17, store=reopen(store))
        batch, _, source = warm.world_batch(1024, 17)
        assert source == "store"
        cold_batch, _, _ = Session(b, seed=17).world_batch(1024, 17)
        np.testing.assert_array_equal(
            np.asarray(batch.alive), np.asarray(cold_batch.alive)
        )
        # And the values answered from the shared batch match B's own
        # cold sampling bit-for-bit.
        warm_result = warm.reliability(0, target=2, samples=1024)
        cold_result = Session(b, seed=17).reliability(0, target=2,
                                                      samples=1024)
        assert warm_result.values == cold_result.values

    def test_evaluate_pairs_uses_result_cache(self, graph, store):
        pairs = [(0, 30), (1, 31)]
        cold = Session(graph, seed=9).evaluate_pairs(pairs, samples=2048,
                                                     seed=9)
        Session(graph, seed=9, store=store).evaluate_pairs(pairs,
                                                           samples=2048,
                                                           seed=9)
        warm_store = reopen(store)
        warm = Session(graph, seed=9, store=warm_store)
        assert warm.evaluate_pairs(pairs, samples=2048, seed=9) == cold
        assert warm_store.counters.result_hits == len(pairs)
        assert warm_store.counters.batch_misses == 0  # never touched worlds


class TestInvalidation:
    def test_swap_reaches_the_new_graphs_namespace(self, graph, store):
        other = assign_uniform(
            erdos_renyi(40, num_edges=100, seed=50), 0.2, 0.8, seed=51
        )
        session = Session(graph, seed=9, store=store)
        before = session.reliability(0, target=30, samples=2048)

        session.graph = other
        session.invalidate()
        swapped = session.reliability(0, target=30, samples=2048)
        # Different content hash => different store namespace: the swap
        # must recompute, not replay the old graph's cached result.
        expected = Session(other, seed=9).reliability(0, target=30,
                                                      samples=2048)
        assert swapped.values == expected.values
        assert swapped.values != before.values
        assert store.stats().num_batches == 2  # both namespaces persisted

    def test_version_collision_cannot_alias_store_entries(self, store):
        # Two distinct graphs built the same way share a version
        # counter — the hazard that made version-keyed caching unsafe
        # across swaps.  Content hashing keys them apart.
        a = UncertainGraph.from_edges([(0, 1, 0.9), (1, 2, 0.9)])
        b = UncertainGraph.from_edges([(0, 1, 0.1), (1, 2, 0.1)])
        assert a.version == b.version

        session = Session(a, seed=3, store=store)
        high = session.reliability(0, target=2, samples=4096)
        session.graph = b
        session.invalidate()
        low = session.reliability(0, target=2, samples=4096)
        assert high.value > 0.7 > 0.1 > low.value

        # And the original namespace is still warm after swapping back.
        session.graph = a
        session.invalidate()
        again = session.reliability(0, target=2, samples=4096)
        assert again.values == high.values
        assert again.provenance.cache_hits == 1

    def test_broken_store_degrades_to_cold_serving(self, graph, store):
        # "Persistence is an optimization; serving must not fail":
        # break the catalog underneath a live session and every tier —
        # result-cache read/write, batch load/save, /healthz stats —
        # must degrade best-effort instead of raising.
        session = Session(graph, seed=9, store=store)
        store._conn.close()  # simulate a dead catalog, store not closed
        result = session.reliability(0, target=30, samples=2048)
        expected = Session(graph, seed=9).reliability(0, target=30,
                                                      samples=2048)
        assert result.values == expected.values
        assert store.counters.save_failures > 0
        stats = session.store_stats()
        assert "error" in stats
        assert stats["counters"]["save_failures"] > 0
