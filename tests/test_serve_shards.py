"""Self-healing shard pool: routing, crash replay, two-phase swap.

The headline contract under test: a shard death mid-burst yields
**zero failed responses**, and every answer — original or replayed —
is bit-for-bit what a one-off ``Session.run`` returns, because the
stack below the session is deterministic in ``(graph content,
estimator, Z, seed)``.  The supervisor must also respawn the dead
worker under its doubling backoff, survive all shards dying at once
(requests park until a respawn), detect hung workers by heartbeat,
and keep graph swaps atomic across the pool.

Workers are real ``spawn``-context processes; tests that need requests
pinned in flight at kill time slow the workers down by exporting a
latency-only ``REPRO_FAULTS`` profile — the child processes arm it at
import, the parent registry stays disarmed.
"""

import asyncio
import os
import signal
import time

import pytest

import repro.serve.shard as shard_module
from repro import faults
from repro.api import (
    GraphDelta,
    MaximizeQuery,
    ReliabilityQuery,
    Session,
    Workload,
    batch_key,
)
from repro.graph import UncertainGraph, assign_uniform, erdos_renyi
from repro.serve import (
    OverloadedError,
    SessionClosedError,
    ShardCrashError,
    ShardSupervisor,
    shard_index,
)

pytestmark = pytest.mark.skipif(
    os.name != "posix", reason="shard pool tests use POSIX signals"
)

#: Latency-only chaos for the *worker* processes: batches take ~300ms,
#: long enough for a test to SIGKILL a shard while requests are in
#: flight.  ``fail=0`` keeps answers bit-for-bit clean.
SLOW_WORKER_PROFILE = "serve.worker:latency_ms=300,fail=0"

#: Fast supervision so hang detection completes in test time: a worker
#: silent for four 0.2 s intervals is dead (the production default is
#: a 1 s interval).
FAST = dict(heartbeat_interval_s=0.2)


@pytest.fixture(autouse=True)
def clean_registry():
    faults.disarm()
    yield
    faults.disarm()


@pytest.fixture
def graph():
    g = erdos_renyi(30, num_edges=70, seed=3)
    return assign_uniform(g, 0.2, 0.9, seed=4)


def one_off(graph, queries, **session_kwargs):
    session = Session(graph, **session_kwargs)
    return [session.run(Workload([q]))[0] for q in queries]


def burst_queries(n, samples=500):
    # Distinct seeds spread the burst across shards (distinct routing
    # keys) while staying deterministic.
    return [
        ReliabilityQuery(source=i % 5, target=29 - (i % 7), samples=samples, seed=100 + i)
        for i in range(n)
    ]


async def wait_until(predicate, timeout_s=30.0, message="condition"):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {message}"
        await asyncio.sleep(0.05)


async def wait_all_live(supervisor, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        rows = supervisor.describe()["shards"]
        if all(row["live"] for row in rows):
            return rows
        await asyncio.sleep(0.05)
    raise AssertionError(f"shards not all live: {supervisor.describe()['shards']}")


def shard_pids(supervisor):
    return [row["pid"] for row in supervisor.describe()["shards"]]


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------


def test_routing_key_is_the_batch_key():
    q = ReliabilityQuery(source=0, target=1, samples=400, seed=None)
    # seed=None resolves to the session seed, exactly as Session.run
    # groups batches — so both spellings land on the same shard.
    assert batch_key(q, 7) == ("mc", 400, 7)
    explicit = ReliabilityQuery(source=3, target=4, samples=400, seed=7)
    assert batch_key(explicit, 7) == batch_key(q, 7)
    # Maximize queries collapse onto one key (their base evaluations
    # batch together regardless of configuration).
    m = MaximizeQuery(source=0, target=1, k=2)
    assert batch_key(m, 7) == ("maximize", 0, None)


def test_shard_index_is_stable_and_in_range():
    key = ("mc", 400, 7)
    first = shard_index(key, 4)
    assert 0 <= first < 4
    assert all(shard_index(key, 4) == first for _ in range(100))
    # Different keys spread: over many seeds every shard gets traffic.
    homes = {shard_index(("mc", 400, s), 4) for s in range(64)}
    assert homes == {0, 1, 2, 3}


# ----------------------------------------------------------------------
# parity (healthy pool)
# ----------------------------------------------------------------------


def test_burst_parity_across_shards(graph):
    queries = burst_queries(16)
    expected = [r.values for r in one_off(graph, queries)]

    async def run():
        async with ShardSupervisor(graph, num_shards=4, **FAST) as sup:
            results = await asyncio.gather(*(sup.submit(q) for q in queries))
            return [r.values for r in results]

    assert asyncio.run(run()) == expected


def test_maximize_parity_through_pool(graph):
    query = MaximizeQuery(source=0, target=29, k=2, samples=100)
    expected = one_off(graph, [query])[0]

    async def run():
        async with ShardSupervisor(graph, num_shards=2, **FAST) as sup:
            return await sup.submit(query)

    got = asyncio.run(run())
    assert got.edges == expected.edges
    assert got.new_reliability == expected.new_reliability


# ----------------------------------------------------------------------
# crash recovery
# ----------------------------------------------------------------------


def test_sigkill_mid_burst_replays_bit_for_bit(graph, monkeypatch):
    """The chaos parity gate: SIGKILL one of 4 workers mid-burst."""
    monkeypatch.setenv("REPRO_FAULTS", SLOW_WORKER_PROFILE)
    queries = burst_queries(12, samples=2000)
    expected = [r.values for r in one_off(graph, queries)]

    async def run():
        async with ShardSupervisor(graph, num_shards=4, **FAST) as sup:
            pids = shard_pids(sup)
            burst = asyncio.ensure_future(
                asyncio.gather(*(sup.submit(q) for q in queries))
            )
            await asyncio.sleep(0.15)  # inside the 300ms injected batch
            os.kill(pids[0], signal.SIGKILL)
            results = await burst  # zero failed responses
            await wait_until(lambda: sup.stats.deaths >= 1, message="death")
            stats = sup.stats.as_dict()
            rows = await wait_all_live(sup)
            return [r.values for r in results], stats, pids, rows

    values, stats, old_pids, rows = asyncio.run(run())
    assert values == expected
    assert stats["deaths"] >= 1
    # The respawned worker is a fresh process on the same shard slot.
    assert rows[0]["pid"] != old_pids[0]


def test_all_shards_killed_parks_until_respawn(graph, monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", SLOW_WORKER_PROFILE)
    queries = burst_queries(8, samples=2000)
    expected = [r.values for r in one_off(graph, queries)]

    async def run():
        async with ShardSupervisor(graph, num_shards=2, **FAST) as sup:
            pids = shard_pids(sup)
            burst = asyncio.ensure_future(
                asyncio.gather(*(sup.submit(q) for q in queries))
            )
            await asyncio.sleep(0.15)
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            results = await burst
            return [r.values for r in results], sup.stats.as_dict()

    values, stats = asyncio.run(run())
    assert values == expected
    assert stats["deaths"] == 2
    assert stats["replays"] >= len(queries)
    assert stats["crashed"] == 0


def test_heartbeat_detects_hung_worker(graph):
    """SIGSTOP (no EOF!) must be caught by heartbeat staleness."""

    async def run():
        async with ShardSupervisor(graph, num_shards=2, **FAST) as sup:
            victim = shard_pids(sup)[0]
            os.kill(victim, signal.SIGSTOP)
            try:
                deadline = time.monotonic() + 30.0
                while sup.stats.heartbeat_timeouts == 0:
                    assert time.monotonic() < deadline, "heartbeat never fired"
                    await asyncio.sleep(0.05)
                rows = await wait_all_live(sup)
                assert rows[0]["pid"] != victim
                # The pool still answers after the hang.
                q = ReliabilityQuery(source=0, target=29, samples=300, seed=1)
                result = await sup.submit(q)
                return result.values
            finally:
                try:
                    os.kill(victim, signal.SIGCONT)
                except ProcessLookupError:
                    pass  # already SIGKILLed and reaped

    values = asyncio.run(run())
    q = ReliabilityQuery(source=0, target=29, samples=300, seed=1)
    assert values == one_off(graph, [q])[0].values


def test_replay_budget_exhaustion_fails_typed(graph, monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", SLOW_WORKER_PROFILE)

    async def run():
        sup = ShardSupervisor(graph, num_shards=2, replay_budget=0, **FAST)
        async with sup:
            q = ReliabilityQuery(source=0, target=29, samples=2000, seed=5)
            pending = asyncio.ensure_future(sup.submit(q))
            await asyncio.sleep(0.15)
            home = shard_index(batch_key(q, 0), 2)
            os.kill(shard_pids(sup)[home], signal.SIGKILL)
            with pytest.raises(ShardCrashError):
                await pending
            assert sup.stats.crashed == 1

    asyncio.run(run())


def test_spawn_fault_backs_off_then_recovers(graph):
    async def run():
        async with ShardSupervisor(graph, num_shards=2, **FAST) as sup:
            # The next spawn attempt fails once; the doubling backoff
            # retries and the shard comes back anyway.
            with faults.inject("shard.spawn", count=1):
                os.kill(shard_pids(sup)[0], signal.SIGKILL)
                await wait_until(lambda: sup.stats.deaths >= 1, message="death")
                await wait_until(
                    lambda: sup.stats.spawn_failures >= 1, message="failed spawn"
                )
                await wait_all_live(sup)
            assert sup.stats.respawns >= 1

    asyncio.run(run())


def test_respawn_backoff_resets_after_a_stable_run(graph, monkeypatch):
    """Quick deaths double the backoff; a death after a stable run resets it."""
    monkeypatch.setattr(shard_module, "_RESPAWN_BACKOFF_CEILING_S", 0.2)
    monkeypatch.setattr(shard_module, "_BACKOFF_RESET_S", 1.0)

    async def kill_and_respawn(sup):
        """SIGKILL shard 0; its backoff once the respawn is live."""
        pid = shard_pids(sup)[0]
        os.kill(pid, signal.SIGKILL)
        await wait_until(lambda: shard_pids(sup)[0] != pid
                         and sup.describe()["shards"][0]["live"],
                         message="respawn")
        return sup.describe()["shards"][0]["backoff_s"]

    async def run():
        async with ShardSupervisor(graph, num_shards=2, **FAST) as sup:
            quick = [await kill_and_respawn(sup) for _ in range(3)]
            await asyncio.sleep(1.2)  # outlive the reset threshold
            return quick, await kill_and_respawn(sup)

    quick, after_stable_run = asyncio.run(run())
    # Each respawn waits the current backoff and doubles it: 0.05 s,
    # 0.1 s, then 0.2 s held at the ceiling.
    assert quick == [0.1, 0.2, 0.2]
    # The stable run restarts the ladder: wait 0.05 s, double to 0.1 s.
    assert after_stable_run == 0.1


def test_ipc_write_fault_is_a_death_signal(graph):
    q = ReliabilityQuery(source=0, target=29, samples=400, seed=9)
    expected = one_off(graph, [q])[0].values

    async def run():
        async with ShardSupervisor(graph, num_shards=2, **FAST) as sup:
            with faults.inject("shard.ipc.write", count=1):
                # Whichever write trips first (request or ping), the
                # supervisor treats the shard as dead and the request
                # still completes on a healthy worker.
                result = await sup.submit(q)
            await wait_all_live(sup)
            assert sup.stats.deaths >= 1
            return result.values

    assert asyncio.run(run()) == expected


# ----------------------------------------------------------------------
# two-phase graph swap
# ----------------------------------------------------------------------


def swapped_graph(graph):
    edges = [(u, v, min(1.0, p + 0.03)) for u, v, p in graph.edges()]
    return UncertainGraph.from_edges(edges, directed=graph.directed, name="swapped")


#: Edits of the ``graph`` fixture: lower edge (0, 29), delete edge
#: (0, 8), and attach a new node 30.
EDGE_DELTA = GraphDelta(upserts=((0, 29, 0.5), (29, 30, 0.7)), deletes=((0, 8),))


def pool_edit(graph, edit):
    """``(edited graph, coroutine function applying the edit to a pool)``."""
    if edit == "swap":
        new = swapped_graph(graph)
        return new, lambda sup: sup.swap_graph(new)
    new = graph.copy()
    EDGE_DELTA.apply_to(new)
    return new, lambda sup: sup.apply_delta(EDGE_DELTA)


def check_edit(sup, edit, new, outcome):
    """What a finished swap (a version) or delta (a report) leaves behind."""
    if edit == "swap":
        assert outcome == new.version
        assert sup.graph is new
        assert (sup.stats.graph_swaps, sup.stats.graph_deltas) == (1, 0)
    else:
        assert outcome.strategy == "broadcast"
        assert outcome.content_hash == new.content_hash()
        assert sup.graph.content_hash() == new.content_hash()
        assert (sup.stats.graph_swaps, sup.stats.graph_deltas) == (0, 1)


@pytest.mark.parametrize("edit", ["swap", "delta"])
def test_two_phase_swap_parity(graph, edit):
    new, make_edit = pool_edit(graph, edit)
    q = ReliabilityQuery(source=0, target=29, samples=500, seed=2)
    expected = one_off(new, [q])[0].values
    assert expected != one_off(graph, [q])[0].values  # the edit shows

    async def run():
        async with ShardSupervisor(graph, num_shards=2, **FAST) as sup:
            check_edit(sup, edit, new, await make_edit(sup))
            result = await sup.submit(q)
            return result.values

    assert asyncio.run(run()) == expected


@pytest.mark.parametrize("edit", ["swap", "delta"])
def test_swap_with_dead_shard_completes_on_new_graph(graph, edit):
    """A shard dying mid-edit restarts directly on the edited graph."""
    new, make_edit = pool_edit(graph, edit)
    # Seeds 3 and 4 route to different shards, so the respawned worker
    # answers one of them.
    queries = [ReliabilityQuery(source=1, target=28, samples=500, seed=s)
               for s in (3, 4)]
    assert {shard_index(batch_key(q, 0), 2) for q in queries} == {0, 1}
    expected = [r.values for r in one_off(new, queries)]

    async def run():
        async with ShardSupervisor(graph, num_shards=2, **FAST) as sup:
            os.kill(shard_pids(sup)[0], signal.SIGKILL)
            # Edit immediately: phase one must wait out the respawn,
            # which starts the worker on the pending graph.
            check_edit(sup, edit, new, await make_edit(sup))
            rows = await wait_all_live(sup)
            generation = sup.describe()["shards"][0]["generation"]
            assert all(row["generation"] >= 1 for row in rows), rows
            results = await asyncio.gather(*(sup.submit(q) for q in queries))
            return generation, [r.values for r in results]

    generation, values = asyncio.run(run())
    assert generation >= 1
    assert values == expected


def test_delta_deleting_absent_edge_fails_before_broadcast(graph):
    """A bad delete raises ``KeyError`` and leaves every shard as it was."""
    q = ReliabilityQuery(source=0, target=29, samples=500, seed=2)
    expected = one_off(graph, [q])[0].values
    content = graph.content_hash()
    bad = GraphDelta(upserts=((0, 29, 0.9),), deletes=((100, 101),))

    async def run():
        async with ShardSupervisor(graph, num_shards=2, **FAST) as sup:
            generations = [row["generation"] for row in sup.describe()["shards"]]
            with pytest.raises(KeyError):
                await sup.apply_delta(bad)
            assert sup.graph is graph
            assert graph.content_hash() == content
            assert [row["generation"] for row in sup.describe()["shards"]] == generations
            assert sup.stats.graph_deltas == 0
            result = await sup.submit(q)
            return result.values

    assert asyncio.run(run()) == expected


# ----------------------------------------------------------------------
# lifecycle and admission
# ----------------------------------------------------------------------


def test_close_is_idempotent_and_submissions_fail_typed(graph):
    async def run():
        sup = ShardSupervisor(graph, num_shards=2, **FAST)
        await sup.start()
        await sup.close()
        await sup.close()  # idempotent
        with pytest.raises(SessionClosedError):
            await sup.submit(ReliabilityQuery(source=0, target=1, samples=100))

    asyncio.run(run())


def test_submit_before_start_is_an_error(graph):
    async def run():
        sup = ShardSupervisor(graph, num_shards=2, **FAST)
        with pytest.raises(RuntimeError):
            await sup.submit(ReliabilityQuery(source=0, target=1, samples=100))

    asyncio.run(run())


def test_admission_shed_is_pool_wide(graph, monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", SLOW_WORKER_PROFILE)

    async def run():
        sup = ShardSupervisor(graph, num_shards=2, max_pending=2, **FAST)
        async with sup:
            queries = burst_queries(8, samples=1000)
            outcomes = await asyncio.gather(
                *(sup.submit(q) for q in queries), return_exceptions=True
            )
            shed = [o for o in outcomes if isinstance(o, OverloadedError)]
            served = [o for o in outcomes if not isinstance(o, Exception)]
            assert len(shed) + len(served) == len(queries)
            assert shed, "max_pending=2 under an 8-burst must shed"
            assert sup.stats.shed == len(shed)

    asyncio.run(run())


def test_constructor_validation(graph):
    with pytest.raises(ValueError):
        ShardSupervisor(graph, num_shards=0)
    with pytest.raises(ValueError):
        ShardSupervisor(graph, replay_budget=-1)
    with pytest.raises(ValueError):
        ShardSupervisor(graph, heartbeat_interval_s=0.0)


def test_shared_store_across_shards(graph, tmp_path):
    """All workers share one IndexStore directory (flock-guarded)."""
    store_dir = str(tmp_path / "store")
    queries = burst_queries(6)
    expected = [r.values for r in one_off(graph, queries)]

    async def run(values_out):
        sup = ShardSupervisor(graph, num_shards=2, store_path=store_dir, **FAST)
        async with sup:
            results = await asyncio.gather(*(sup.submit(q) for q in queries))
            values_out.extend(r.values for r in results)
            stats = await sup.shard_stats()
            assert any(s is not None and "store" in s for s in stats)

    first: list = []
    asyncio.run(run(first))
    assert first == expected
    # A second pool warm-starts from the same directory and agrees.
    second: list = []
    asyncio.run(run(second))
    assert second == expected


# ----------------------------------------------------------------------
# HTTP front end over the pool
# ----------------------------------------------------------------------


def test_http_server_over_shard_pool(graph):
    """ReliabilityServer fronts the pool: healthz, parity, hot swap."""
    import json
    import urllib.request

    from repro.serve import ReliabilityServer

    new = swapped_graph(graph)
    q = ReliabilityQuery(source=0, target=29, samples=400, seed=6)
    expected_old = one_off(graph, [q])[0]
    expected_new = one_off(new, [q])[0]

    def call(host, port, method, path, payload=None):
        data = json.dumps(payload).encode() if payload is not None else None
        req = urllib.request.Request(
            f"http://{host}:{port}{path}", data=data, method=method
        )
        with urllib.request.urlopen(req, timeout=30) as response:
            return json.loads(response.read())

    async def run():
        sup = ShardSupervisor(graph, num_shards=2, **FAST)
        server = ReliabilityServer(sup)
        host, port = await server.start()  # starts the pool too
        loop = asyncio.get_running_loop()
        try:
            health = await loop.run_in_executor(
                None, call, host, port, "GET", "/healthz"
            )
            body = {"source": 0, "target": 29, "samples": 400, "seed": 6}
            served = await loop.run_in_executor(
                None, call, host, port, "POST", "/reliability", body
            )
            swap = await loop.run_in_executor(
                None, call, host, port, "POST", "/graph",
                {"edges": [list(e) for e in new.edges()],
                 "directed": new.directed, "name": "swapped"},
            )
            after = await loop.run_in_executor(
                None, call, host, port, "POST", "/reliability", body
            )
            return health, served, swap, after
        finally:
            await server.stop()
            await sup.close()

    health, served, swap, after = asyncio.run(run())
    assert "supervisor" in health and "coalescer" not in health
    assert health["supervisor"]["num_shards"] == 2
    assert [row["live"] for row in health["supervisor"]["shards"]] == [True, True]
    assert served["results"][0]["value"] == expected_old.value
    assert swap["status"] == "swapped"
    assert after["results"][0]["value"] == expected_new.value
