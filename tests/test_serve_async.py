"""Coalescer semantics of :class:`repro.serve.AsyncSession`.

The serving layer's contract: coalescing only changes *when* queries
execute, never what they compute.  These tests pin bit-for-bit parity
with one-off ``Session.run`` calls plus the edge cases a coalescer must
get right — mixed ``(Z, seed)`` requests landing in separate shared
batches, cancellation of an awaiting client, and graph mutations /
hot-swaps mid-stream invalidating the cached plan.
"""

import asyncio

import pytest

from repro.api import MaximizeQuery, ReliabilityQuery, Session, Workload
from repro.graph import UncertainGraph, assign_uniform, erdos_renyi
from repro.reliability import ReliabilityEstimator
from repro.serve import AsyncSession, split_batchable


def build_graph(num_nodes=60, num_edges=150, seed=3):
    graph = erdos_renyi(num_nodes, num_edges=num_edges, seed=seed)
    return assign_uniform(graph, 0.2, 0.8, seed=seed + 1)


def one_off_results(graph, queries, seed=7, **session_kwargs):
    """What independent per-query Session.run calls would return."""
    results = []
    for query in queries:
        session = Session(graph, seed=seed, **session_kwargs)
        results.append(session.run(Workload([query]))[0])
    return results


def test_concurrent_submits_coalesce_and_match_one_off():
    graph = build_graph()
    queries = [
        ReliabilityQuery(i, target=graph.num_nodes - 1 - i, samples=500)
        for i in range(8)
    ]

    async def scenario():
        async with AsyncSession(graph, seed=7, max_wait_ms=20.0) as serving:
            results = await asyncio.gather(
                *(serving.submit(q) for q in queries)
            )
            return results, serving.stats

    results, stats = asyncio.run(scenario())
    assert stats.batches == 1
    assert stats.largest_batch == len(queries)
    assert stats.mean_batch_size == len(queries)
    for result in results:
        assert result.provenance.shared_worlds  # coalesced into one group

    for got, expected in zip(results, one_off_results(graph, queries), strict=True):
        assert got.values == expected.values  # bit-for-bit
        assert got.provenance.estimator == expected.provenance.estimator
        assert got.provenance.samples == expected.provenance.samples
        assert got.provenance.seed == expected.provenance.seed


def test_results_align_with_submission_order():
    graph = build_graph()
    queries = [
        ReliabilityQuery(0, target=t, samples=300)
        for t in range(1, 9)
    ]

    async def scenario():
        async with AsyncSession(graph, seed=1, max_wait_ms=10.0) as serving:
            return await serving.run(queries)

    results = asyncio.run(scenario())
    assert [r.query.targets[0] for r in results] == list(range(1, 9))


def test_mixed_z_seed_requests_split_into_separate_world_batches():
    graph = build_graph()
    # Three shared-world groups inside one coalesced flush: the session
    # must answer each from its own (Z, seed) batch.
    group_a = [ReliabilityQuery(0, target=40, samples=400, seed=1),
               ReliabilityQuery(1, target=41, samples=400, seed=1)]
    group_b = [ReliabilityQuery(0, target=40, samples=400, seed=2)]
    group_c = [ReliabilityQuery(0, target=40, samples=800, seed=1)]
    queries = group_a + group_b + group_c

    assert len(split_batchable(queries)) == 3  # the diagnostic agrees

    async def scenario():
        async with AsyncSession(graph, seed=7, max_wait_ms=20.0) as serving:
            results = await asyncio.gather(
                *(serving.submit(q) for q in queries)
            )
            return results, serving.stats

    results, stats = asyncio.run(scenario())
    assert stats.batches == 1  # one flush, session splits internally

    for got, expected in zip(results, one_off_results(graph, queries), strict=True):
        assert got.values == expected.values
    # Provenance reflects each query's own sampling configuration.
    assert [r.provenance.seed for r in results] == [1, 1, 2, 1]
    assert [r.provenance.samples for r in results] == [400, 400, 400, 800]
    # Same pair under different seeds / Z: distinct worlds, and the
    # multi-member group is flagged as shared.
    assert results[0].provenance.shared_worlds
    assert results[1].provenance.shared_worlds


def test_max_batch_flushes_immediately():
    graph = build_graph()
    queries = [ReliabilityQuery(0, target=t + 1, samples=200)
               for t in range(10)]

    async def scenario():
        async with AsyncSession(
            graph, seed=7, max_batch=4, max_wait_ms=200.0
        ) as serving:
            await asyncio.gather(*(serving.submit(q) for q in queries))
            return serving.stats

    stats = asyncio.run(scenario())
    # 10 queries at max_batch=4: two full flushes, the remainder (2)
    # flushed by the timer or by close().
    assert stats.batches == 3
    assert stats.largest_batch == 4
    assert stats.batched_requests == 10


def test_zero_wait_still_coalesces_same_tick_submissions():
    graph = build_graph()
    queries = [ReliabilityQuery(0, target=t + 1, samples=200)
               for t in range(4)]

    async def scenario():
        async with AsyncSession(graph, seed=7, max_wait_ms=0.0) as serving:
            await asyncio.gather(*(serving.submit(q) for q in queries))
            return serving.stats

    stats = asyncio.run(scenario())
    # call_later(0) fires after the current tick: everything submitted
    # synchronously by gather still lands in one workload.
    assert stats.batches == 1
    assert stats.largest_batch == 4


def test_cancelled_client_is_dropped_without_affecting_others():
    graph = build_graph()
    keep = ReliabilityQuery(0, target=10, samples=300)
    drop = ReliabilityQuery(1, target=11, samples=300)

    async def scenario():
        async with AsyncSession(graph, seed=7, max_wait_ms=50.0) as serving:
            kept_task = asyncio.ensure_future(serving.submit(keep))
            dropped_task = asyncio.ensure_future(serving.submit(drop))
            await asyncio.sleep(0)  # both queries are now pending
            dropped_task.cancel()
            result = await kept_task
            with pytest.raises(asyncio.CancelledError):
                await dropped_task
            return result, serving.stats

    result, stats = asyncio.run(scenario())
    assert stats.requests == 2
    assert stats.cancelled == 1
    assert stats.batched_requests == 1  # the cancelled query never ran
    [expected] = one_off_results(graph, [keep])
    assert result.values == expected.values


def test_graph_mutation_mid_stream_invalidates_cached_plan():
    graph = UncertainGraph.from_edges([(0, 1, 0.6), (1, 2, 0.5)])

    async def scenario():
        async with AsyncSession(graph, seed=7, max_wait_ms=1.0) as serving:
            before = await serving.reliability(0, target=2, samples=2000)
            version_before = serving.session._version
            # Mutate the served graph between requests: the session must
            # notice the version bump and recompile before answering.
            graph.add_edge(0, 2, 1.0)
            after = await serving.reliability(0, target=2, samples=2000)
            return before, after, version_before, serving.session._version

    before, after, version_before, version_after = asyncio.run(scenario())
    assert before.value < 1.0
    assert after.value == 1.0
    assert version_after > version_before


def test_swap_graph_invalidates_even_on_version_collision():
    # Two graphs built by the same number of mutations share a version
    # counter value — the swap must invalidate anyway.
    old = UncertainGraph.from_edges([(0, 1, 0.5), (1, 2, 0.5)])
    new = UncertainGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0)])
    assert old.version == new.version

    async def scenario():
        async with AsyncSession(old, seed=7, max_wait_ms=1.0) as serving:
            before = await serving.reliability(0, target=2, samples=2000)
            swapped_version = await serving.swap_graph(new)
            after = await serving.reliability(0, target=2, samples=2000)
            return before, after, swapped_version, serving.stats

    before, after, swapped_version, stats = asyncio.run(scenario())
    assert before.value < 1.0
    assert after.value == 1.0
    assert swapped_version == new.version
    assert stats.graph_swaps == 1


def test_maximize_queries_coalesce_and_match_session_maximize():
    graph = build_graph(num_nodes=25, num_edges=60)
    queries = [
        MaximizeQuery(0, 20, k=2, zeta=0.5, method="hc"),
        MaximizeQuery(1, 21, k=2, zeta=0.5, method="topk"),
    ]

    async def scenario():
        async with AsyncSession(
            graph, seed=7, r=15, l=10, max_wait_ms=20.0
        ) as serving:
            return await asyncio.gather(
                *(serving.submit(q) for q in queries)
            )

    results = asyncio.run(scenario())
    # Maximize parity is defined against sequential execution on one
    # session (the selection estimator is a long-lived, stateful
    # instance, exactly as on the server) — the contract Session.run's
    # own batching is pinned to.
    session = Session(graph, seed=7, r=15, l=10)
    expected = [session.maximize(q) for q in queries]
    for got, want in zip(results, expected, strict=True):
        assert got.solution.edges == want.solution.edges
        assert got.solution.base_reliability == want.solution.base_reliability
        assert got.solution.new_reliability == want.solution.new_reliability


def test_bad_method_fails_at_submit_not_mid_batch():
    # Unknown methods must never enter a coalesced batch: they fail at
    # query construction (so no companion ever pays for a batch rerun).
    with pytest.raises(ValueError, match="unknown method"):
        MaximizeQuery(0, 10, k=1, method="not-a-method")


class _ExplodingEstimator(ReliabilityEstimator):
    """Estimator whose execution always fails."""

    def reliability(self, graph, source, target, extra_edges=None):
        raise RuntimeError("boom")

    def reachability_from(self, graph, source, extra_edges=None):
        raise RuntimeError("boom")


def test_failing_query_does_not_poison_batch_companions():
    graph = build_graph(num_nodes=20, num_edges=50)
    good = ReliabilityQuery(0, target=10, samples=300)
    # A custom estimator instance that explodes at execution time — the
    # kind of mid-batch failure construction-time validation can't
    # catch — lands in the same coalesced batch as `good`.
    bad = MaximizeQuery(0, 10, k=1, method="hc",
                        estimator=_ExplodingEstimator())

    async def scenario():
        async with AsyncSession(
            graph, seed=7, r=10, l=8, max_wait_ms=20.0
        ) as serving:
            good_task = asyncio.ensure_future(serving.submit(good))
            bad_task = asyncio.ensure_future(serving.submit(bad))
            result = await good_task
            with pytest.raises(RuntimeError, match="boom"):
                await bad_task
            return result

    result = asyncio.run(scenario())
    [expected] = one_off_results(graph, [good])
    assert result.values == expected.values  # unaffected by the failure


def test_swap_graph_flushes_pending_queries_onto_old_graph():
    old = UncertainGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0)])
    new = UncertainGraph.from_edges([(0, 1, 1.0)])  # node 2 gone

    async def scenario():
        async with AsyncSession(old, seed=7, max_wait_ms=10_000.0) as serving:
            pending = asyncio.ensure_future(
                serving.reliability(0, target=2, samples=500)
            )
            await asyncio.sleep(0)  # query accepted while `old` is served
            await serving.swap_graph(new)
            before = await pending
            serving.max_wait_ms = 1.0  # don't wait out the huge window
            after = await serving.reliability(0, target=2, samples=500)
            return before, after

    before, after = asyncio.run(scenario())
    assert before.value == 1.0  # answered on the graph it was accepted for
    assert after.value == 0.0   # node 2 does not exist in the new graph


def test_split_batchable_resolves_aliases_and_session_seed():
    queries = [
        ReliabilityQuery(0, target=1, samples=100, seed=None),
        ReliabilityQuery(0, target=2, samples=100, seed=5),
        ReliabilityQuery(0, target=3, samples=100, estimator="monte-carlo",
                         seed=5),
    ]
    # With the session seed known, seed=None resolves onto seed=5 and
    # the "monte-carlo" alias collapses onto "mc": one group, exactly
    # how Session.run batches them.
    groups = split_batchable(queries, session_seed=5)
    assert len(groups) == 1
    assert groups[0][0] == ("mc", 100, 5)
    # Without it, unresolved seeds stay apart from explicit ones.
    assert len(split_batchable(queries)) == 2


def test_close_flushes_pending_and_rejects_new_submissions():
    graph = build_graph()

    async def scenario():
        serving = AsyncSession(graph, seed=7, max_wait_ms=10_000.0)
        task = asyncio.ensure_future(
            serving.submit(ReliabilityQuery(0, target=5, samples=200))
        )
        await asyncio.sleep(0)  # query is pending, timer far away
        await serving.close()  # must flush instead of stranding the client
        result = await task
        with pytest.raises(RuntimeError):
            await serving.submit(ReliabilityQuery(0, target=5, samples=200))
        await serving.close()  # idempotent
        return result

    result = asyncio.run(scenario())
    assert len(result.values) == 1


def test_constructor_validation():
    graph = build_graph(num_nodes=5, num_edges=6)
    with pytest.raises(ValueError):
        AsyncSession(graph, max_batch=0)
    with pytest.raises(ValueError):
        AsyncSession(graph, max_wait_ms=-1.0)
    session = Session(graph, seed=1)
    with pytest.raises(TypeError):
        AsyncSession(session, seed=2)  # kwargs need a graph target

    async def bad_submit():
        async with AsyncSession(graph) as serving:
            await serving.submit("not a query")

    with pytest.raises(TypeError):
        asyncio.run(bad_submit())


def test_wrapping_an_existing_session_reuses_its_caches():
    graph = build_graph()
    session = Session(graph, seed=7)
    # Warm the session with a direct call, then serve through it.
    direct = session.run(Workload([
        ReliabilityQuery(0, target=10, samples=400)
    ]))[0]

    async def scenario():
        async with AsyncSession(session, max_wait_ms=5.0) as serving:
            return await serving.reliability(0, target=10, samples=400)

    served = asyncio.run(scenario())
    assert served.values == direct.values
    assert served.provenance.shared_worlds  # answered from the warm cache
