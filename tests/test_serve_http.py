"""The stdlib HTTP endpoint: routing, parsing, hot-swap, coalescing.

Each test spins up a real :class:`repro.serve.ReliabilityServer` on a
free loopback port and talks to it with ``urllib`` from worker threads,
so the full parse → coalesce → execute → respond path is exercised.
"""

import asyncio
import json
import threading
import urllib.error
import urllib.request

import pytest

import repro.serve.http as http_module
from repro.api import ReliabilityQuery, Session, Workload
from repro.graph import UncertainGraph, assign_uniform, erdos_renyi
from repro.serve import (
    HttpError,
    ReliabilityServer,
    parse_graph,
    parse_maximize_query,
    parse_reliability_query,
)


def build_graph(num_nodes=40, num_edges=100, seed=5):
    graph = erdos_renyi(num_nodes, num_edges=num_edges, seed=seed)
    return assign_uniform(graph, 0.3, 0.9, seed=seed + 1)


def serve(graph_or_session, coroutine_factory, **server_kwargs):
    """Start a server, run ``coroutine_factory(host, port)``, stop."""

    async def _main():
        server = ReliabilityServer(graph_or_session, **server_kwargs)
        host, port = await server.start()
        try:
            return await coroutine_factory(host, port)
        finally:
            await server.stop()

    return asyncio.run(_main())


async def request(method, host, port, path, payload=None):
    """One HTTP request from a worker thread; returns (status, body)."""

    def _call():
        data = json.dumps(payload).encode() if payload is not None else None
        req = urllib.request.Request(
            f"http://{host}:{port}{path}", data=data, method=method
        )
        try:
            with urllib.request.urlopen(req, timeout=10) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    return await asyncio.get_running_loop().run_in_executor(None, _call)


def test_healthz_reports_graph_and_coalescer():
    graph = build_graph()
    graph.name = "http-test"

    async def scenario(host, port):
        return await request("GET", host, port, "/healthz")

    status, body = serve(graph, scenario, seed=3)
    assert status == 200
    assert body["status"] == "ok"
    assert body["graph"]["name"] == "http-test"
    assert body["graph"]["num_nodes"] == graph.num_nodes
    assert body["graph"]["num_edges"] == graph.num_edges
    assert body["graph"]["version"] == graph.version
    assert body["coalescer"]["requests"] == 0
    assert body["coalescer"]["max_batch"] == 64


def test_reliability_endpoint_matches_session_run():
    graph = build_graph()

    async def scenario(host, port):
        single = await request("POST", host, port, "/reliability",
                               {"source": 0, "target": 30, "samples": 500})
        fanout = await request("POST", host, port, "/reliability",
                               {"source": 0, "targets": [10, 30],
                                "samples": 500, "estimator": "mc"})
        return single, fanout

    (s1, single), (s2, fanout) = serve(graph, scenario, seed=9)
    assert s1 == s2 == 200

    session = Session(graph, seed=9)
    expected = session.run(Workload([
        ReliabilityQuery(0, target=30, samples=500)
    ]))[0]
    assert single["results"] == [{"target": 30, "value": expected.value}]
    assert single["provenance"]["estimator"] == "mc"
    assert single["provenance"]["samples"] == 500
    assert single["provenance"]["seed"] == 9

    assert [r["target"] for r in fanout["results"]] == [10, 30]
    # Multi-target queries answer every target inside the same worlds,
    # so the single-target value reappears exactly.
    assert fanout["results"][1]["value"] == expected.value


def test_maximize_endpoint_returns_solution():
    graph = build_graph(num_nodes=20, num_edges=50)

    async def scenario(host, port):
        return await request("POST", host, port, "/maximize",
                             {"source": 0, "target": 15, "k": 2,
                              "zeta": 0.5, "method": "hc"})

    status, body = serve(graph, scenario, seed=2, r=12, l=8)
    assert status == 200
    assert body["method"] == "hc"
    assert len(body["edges"]) <= 2
    assert body["gain"] == pytest.approx(
        body["new_reliability"] - body["base_reliability"]
    )
    assert body["provenance"]["estimator"] == "rss"


@pytest.mark.parametrize("method, path, body, status_word, counter", [
    ("POST", "/graph", {"edges": [[0, 1, 1.0], [1, 2, 1.0]], "name": "after"},
     "swapped", "graph_swaps"),
    ("PATCH", "/edges", {"upserts": [[0, 1, 1.0], [1, 2, 1.0]]},
     "patched", "graph_deltas"),
])
def test_graph_hot_swap_changes_answers_and_version(
    method, path, body, status_word, counter
):
    graph = UncertainGraph.from_edges([(0, 1, 0.5), (1, 2, 0.5)],
                                      name="before")

    async def scenario(host, port):
        before = await request("POST", host, port, "/reliability",
                               {"source": 0, "target": 2, "samples": 1000})
        swap = await request(method, host, port, path, body)
        after = await request("POST", host, port, "/reliability",
                              {"source": 0, "target": 2, "samples": 1000})
        health = await request("GET", host, port, "/healthz")
        return before, swap, after, health

    (_, before), (swap_status, swap), (_, after), (_, health) = serve(
        graph, scenario, seed=4
    )
    name = body.get("name", "before")
    assert before["results"][0]["value"] < 1.0
    assert swap_status == 200
    assert swap["status"] == status_word
    assert swap["graph"]["name"] == name
    assert after["results"][0]["value"] == 1.0
    assert health["graph"]["name"] == name
    assert health["graph"]["version"] == swap["graph"]["version"]
    assert health["coalescer"][counter] == 1
    if method == "PATCH":
        # The cached (Z, seed) batch of the first request is repaired.
        report = swap["report"]
        assert report["strategy"] == "repair"
        assert report["num_edits"] == 2
        assert report["repaired_batches"] == 1
        assert report["version"] == swap["graph"]["version"]


def test_concurrent_http_clients_coalesce_into_shared_worlds():
    graph = build_graph()
    num_clients = 6

    async def scenario(host, port):
        barrier = threading.Barrier(num_clients)

        def fire(target):
            barrier.wait()  # all clients hit the window together
            data = json.dumps({"source": 0, "target": target,
                               "samples": 400}).encode()
            with urllib.request.urlopen(
                f"http://{host}:{port}/reliability", data=data, timeout=10
            ) as response:
                return json.loads(response.read())

        loop = asyncio.get_running_loop()
        # A dedicated pool: the loop's default executor may have fewer
        # workers than clients (cpu-count dependent), which would
        # deadlock the barrier.
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=num_clients) as pool:
            bodies = await asyncio.gather(*(
                loop.run_in_executor(pool, fire, 10 + i)
                for i in range(num_clients)
            ))
        _, health = await request("GET", host, port, "/healthz")
        return bodies, health

    bodies, health = serve(graph, scenario, seed=6, max_wait_ms=300.0)
    stats = health["coalescer"]
    assert stats["requests"] == num_clients
    assert stats["batches"] < num_clients  # coalescing actually happened
    # Members of a multi-query group carry the shared-world provenance
    # the quickstart example prints.
    assert any(b["provenance"]["shared_worlds"] for b in bodies)
    # Responses are bit-for-bit one-off session results regardless.
    session = Session(graph, seed=6)
    for i, body in enumerate(bodies):
        expected = session.run(Workload([
            ReliabilityQuery(0, target=10 + i, samples=400)
        ]))[0]
        assert body["results"][0]["value"] == expected.value


def test_error_statuses():
    graph = build_graph(num_nodes=10, num_edges=20)

    async def scenario(host, port):
        unknown = await request("GET", host, port, "/nope")
        wrong_method = await request("GET", host, port, "/reliability")
        missing_body = await request("POST", host, port, "/reliability")
        bad_estimator = await request(
            "POST", host, port, "/reliability",
            {"source": 0, "target": 1, "estimator": "definitely-not-real"},
        )
        both_targets = await request(
            "POST", host, port, "/reliability",
            {"source": 0, "target": 1, "targets": [2, 3]},
        )
        bad_graph = await request("POST", host, port, "/graph",
                                  {"edges": []})
        bad_method = await request(
            "POST", host, port, "/maximize",
            {"source": 0, "target": 1, "method": "not-a-method"},
        )
        bad_zeta = await request(
            "POST", host, port, "/maximize",
            {"source": 0, "target": 1, "zeta": 1.5},
        )
        bad_deltas = [
            await request("PATCH", host, port, "/edges", payload)
            for payload in (
                {},
                {"upserts": [[0, 1]]},
                {"upserts": [[True, 1, 0.5]]},
                {"deletes": [[100, 101]]},  # absent edge
            )
        ]
        edges_get = await request("GET", host, port, "/edges")
        return (unknown, wrong_method, missing_body, bad_estimator,
                both_targets, bad_graph, bad_method, bad_zeta,
                *bad_deltas, edges_get)

    results = serve(graph, scenario)
    statuses = [status for status, _ in results]
    assert statuses == [404, 405, 400, 400, 400, 400, 400, 400,
                        400, 400, 400, 400, 405]
    for _, body in results:
        assert "error" in body


def test_malformed_content_length_gets_400_not_dropped_connection():
    graph = build_graph(num_nodes=8, num_edges=12)

    async def scenario(host, port):
        async def raw(payload: bytes) -> bytes:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(payload)
            await writer.drain()
            response = await asyncio.wait_for(reader.read(4096), timeout=10)
            writer.close()
            return response

        bad_length = await raw(
            b"POST /reliability HTTP/1.1\r\nContent-Length: abc\r\n\r\n"
        )
        negative = await raw(
            b"POST /reliability HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
        )
        garbage_line = await raw(b"garbage\r\n\r\n")
        return bad_length, negative, garbage_line

    responses = serve(graph, scenario)
    for response in responses:
        assert response.startswith(b"HTTP/1.1 400")
        assert b"error" in response


def test_targets_as_json_string_gets_400():
    graph = build_graph(num_nodes=8, num_edges=12)

    async def scenario(host, port):
        # A buggy client sending "12" must not be served nodes 1 and 2.
        return await request(
            "POST", host, port, "/reliability",
            {"source": 0, "targets": "12", "samples": 100},
        )

    status, body = serve(graph, scenario)
    assert status == 400
    assert "targets" in body["error"]


def test_idle_connection_is_closed_by_read_timeout(monkeypatch):
    monkeypatch.setattr(http_module, "_READ_TIMEOUT_S", 0.2)
    graph = build_graph(num_nodes=8, num_edges=12)

    async def scenario(host, port):
        reader, writer = await asyncio.open_connection(host, port)
        # Send nothing: the slow-loris guard must close on us instead
        # of pinning a server task forever.
        data = await asyncio.wait_for(reader.read(100), timeout=10)
        writer.close()
        return data

    data = serve(graph, scenario)
    assert data == b""  # server closed the idle connection


def test_query_string_is_ignored_in_routing():
    graph = build_graph(num_nodes=8, num_edges=12)

    async def scenario(host, port):
        # Health checkers append cache-busting params.
        return await request("GET", host, port, "/healthz?probe=1")

    status, body = serve(graph, scenario)
    assert status == 200
    assert body["status"] == "ok"


def test_negative_seed_and_zero_samples_get_400_at_the_door():
    graph = build_graph(num_nodes=8, num_edges=12)

    async def scenario(host, port):
        bad_seed = await request(
            "POST", host, port, "/reliability",
            {"source": 0, "target": 1, "seed": -1},
        )
        zero_samples = await request(
            "POST", host, port, "/maximize",
            {"source": 0, "target": 1, "samples": 0},
        )
        bad_zeta_range = await request(
            "POST", host, port, "/maximize",
            {"source": 0, "target": 1, "zeta": 1.5},
        )
        zero_zeta = await request(
            "POST", host, port, "/maximize",
            {"source": 0, "target": 1, "zeta": 0},
        )
        return bad_seed, zero_samples, bad_zeta_range, zero_zeta

    results = serve(graph, scenario)
    assert [status for status, _ in results] == [400, 400, 400, 400]
    # The same constraints hold at query construction, so direct
    # AsyncSession callers fail before entering a shared batch too.
    with pytest.raises(ValueError, match="seed"):
        ReliabilityQuery(0, target=1, seed=-1)
    from repro.api import MaximizeQuery
    with pytest.raises(ValueError, match="samples"):
        MaximizeQuery(0, 1, samples=0)
    with pytest.raises(ValueError, match="zeta"):
        MaximizeQuery(0, 1, zeta=1.5)
    with pytest.raises(ValueError, match="zeta"):
        MaximizeQuery(0, 1, zeta=0.0)


def test_transfer_encoding_is_rejected_not_desynced():
    graph = build_graph(num_nodes=8, num_edges=12)

    async def scenario(host, port):
        reader, writer = await asyncio.open_connection(host, port)
        # A chunked body whose content is a valid request line: if the
        # server ignored Transfer-Encoding it would execute /healthz as
        # a request the client never sent (request smuggling).
        writer.write(
            b"POST /reliability HTTP/1.1\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"11\r\nGET /healthz HTTP/1.1\r\n0\r\n\r\n"
        )
        await writer.drain()
        response = await asyncio.wait_for(reader.read(8192), timeout=10)
        writer.close()
        return response

    response = serve(graph, scenario)
    assert response.startswith(b"HTTP/1.1 400")
    assert b"Transfer-Encoding" in response
    # The connection was closed — the smuggled line was never answered.
    assert response.count(b"HTTP/1.1") == 1


def test_float_and_bool_node_ids_get_400():
    graph = build_graph(num_nodes=8, num_edges=12)

    async def scenario(host, port):
        truncating = await request(
            "POST", host, port, "/reliability",
            {"source": 0.9, "target": 5, "samples": 100},
        )
        boolean = await request(
            "POST", host, port, "/reliability",
            {"source": True, "target": 5, "samples": 100},
        )
        float_target_list = await request(
            "POST", host, port, "/reliability",
            {"source": 0, "targets": [1.5, 2], "samples": 100},
        )
        bad_k = await request(
            "POST", host, port, "/maximize",
            {"source": 0, "target": 5, "k": 1.5},
        )
        bad_edge = await request(
            "POST", host, port, "/graph",
            {"edges": [[0.5, 1, 0.5]]},
        )
        return truncating, boolean, float_target_list, bad_k, bad_edge

    results = serve(graph, scenario)
    assert [status for status, _ in results] == [400] * 5


def test_parse_helpers_reject_bad_payloads():
    with pytest.raises(HttpError) as excinfo:
        parse_reliability_query({"target": 1})
    assert excinfo.value.status == 400

    with pytest.raises(HttpError):
        parse_reliability_query({"source": 0, "target": 1, "samples": 0})

    with pytest.raises(HttpError):
        parse_maximize_query({"source": 0, "target": 1, "k": 0})

    with pytest.raises(HttpError):
        parse_graph({"edges": [[0, 0, 0.5]]})  # self-loop

    query = parse_reliability_query(
        {"source": 0, "targets": [1, 2], "samples": 64, "seed": 5}
    )
    assert query.targets == (1, 2)
    assert query.seed == 5

    graph = parse_graph({"edges": [[0, 1, 0.5]], "directed": True})
    assert graph.directed
    assert graph.num_edges == 1


def test_server_over_existing_async_session_rejects_kwargs():
    graph = build_graph(num_nodes=8, num_edges=12)
    session = Session(graph, seed=1)
    with pytest.raises(TypeError):
        from repro.serve import AsyncSession
        ReliabilityServer(AsyncSession(session), seed=2)


def test_null_target_with_targets_and_duplicate_targets():
    graph = build_graph()

    async def scenario(host, port):
        # Clients serializing their full request struct send explicit
        # nulls for unused fields — that must parse like an absent key.
        null_target = await request(
            "POST", host, port, "/reliability",
            {"source": 0, "target": None, "targets": [10, 30],
             "samples": 300, "seed": None},
        )
        # Duplicate targets must come back positionally aligned.
        duplicates = await request(
            "POST", host, port, "/reliability",
            {"source": 0, "targets": [30, 30, 10], "samples": 300},
        )
        return null_target, duplicates

    (s1, null_target), (s2, duplicates) = serve(graph, scenario, seed=9)
    assert s1 == s2 == 200
    assert [r["target"] for r in null_target["results"]] == [10, 30]
    assert [r["target"] for r in duplicates["results"]] == [30, 30, 10]
    assert (duplicates["results"][0]["value"]
            == duplicates["results"][1]["value"])


def test_unbounded_header_stream_gets_400():
    graph = build_graph(num_nodes=8, num_edges=12)

    async def scenario(host, port):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"GET /healthz HTTP/1.1\r\n")
        # Stream far more header lines than the cap; the server must
        # answer 400 instead of buffering forever.
        for i in range(1000):
            writer.write(f"x-flood-{i}: junk\r\n".encode())
        try:
            await writer.drain()
        except ConnectionError:
            pass  # server already answered 400 and closed on us
        response = await asyncio.wait_for(reader.read(4096), timeout=10)
        writer.close()
        return response

    response = serve(graph, scenario)
    assert response.startswith(b"HTTP/1.1 400")


def test_retry_after_derives_from_coalescing_window():
    from repro.serve import retry_after_seconds

    # RFC 9110: integer delay-seconds, rounded up from window + beat,
    # never below one second.
    assert retry_after_seconds(2.0) == 1          # default window
    assert retry_after_seconds(400.0) == 1
    assert retry_after_seconds(1000.0) == 2       # 1.0s + beat rounds up
    assert retry_after_seconds(1500.0) == 2
    assert retry_after_seconds(2500.0) == 3
    assert retry_after_seconds(0.0) == 1


def test_shed_retry_after_tracks_configured_window():
    """A server with a long window advertises a matching Retry-After."""
    graph = build_graph(num_nodes=10, num_edges=20)

    async def scenario(host, port):
        def _call():
            req = urllib.request.Request(
                f"http://{host}:{port}/reliability",
                data=json.dumps({"source": 0, "target": 5,
                                 "samples": 200}).encode(),
                method="POST",
            )
            try:
                with urllib.request.urlopen(req, timeout=10) as response:
                    return response.status, dict(response.headers)
            except urllib.error.HTTPError as error:
                return error.code, dict(error.headers)

        loop = asyncio.get_running_loop()
        first = asyncio.ensure_future(loop.run_in_executor(None, _call))
        await asyncio.sleep(0.1)  # first request now occupies max_pending
        shed_status, shed_headers = await loop.run_in_executor(None, _call)
        await first
        return shed_status, shed_headers

    status, headers = serve(
        graph, scenario, max_pending=1, max_wait_ms=1200.0
    )
    assert status == 503
    # ceil(1.2s window + 0.1s beat) = 2, not the old hard-coded 1.
    assert headers["Retry-After"] == "2"


@pytest.mark.parametrize("method, path, payload", [
    ("POST", "/reliability", {"source": 0, "target": 5, "samples": 100}),
    ("POST", "/graph", {"edges": [[0, 1, 0.5]]}),
    ("PATCH", "/edges", {"upserts": [[0, 1, 0.5]]}),
])
def test_drain_time_503_carries_retry_after(method, path, payload):
    """SessionClosedError 503s advertise Retry-After too, not just sheds,
    on the query route and both graph-edit routes alike."""
    from repro.serve import AsyncSession

    graph = build_graph(num_nodes=10, num_edges=20)

    async def scenario():
        serving = AsyncSession(graph, max_wait_ms=1.0)
        server = ReliabilityServer(serving)
        host, port = await server.start()
        await serving.close()  # the pool behind the server went away
        status, headers = await asyncio.get_running_loop().run_in_executor(
            None, lambda: _raw_status_headers(host, port)
        )
        await server.stop()
        return status, headers

    def _raw_status_headers(host, port):
        req = urllib.request.Request(
            f"http://{host}:{port}{path}",
            data=json.dumps(payload).encode(),
            method=method,
        )
        try:
            with urllib.request.urlopen(req, timeout=10) as response:
                return response.status, dict(response.headers)
        except urllib.error.HTTPError as error:
            return error.code, dict(error.headers)

    status, headers = asyncio.run(scenario())
    assert status == 503
    assert headers["Retry-After"] == "1"


def test_stop_leaves_caller_provided_async_session_open():
    from repro.serve import AsyncSession

    graph = build_graph(num_nodes=8, num_edges=12)

    async def scenario():
        serving = AsyncSession(graph, max_wait_ms=1.0)
        server = ReliabilityServer(serving)
        await server.start()
        await server.stop()
        # The caller's coalescer must survive the HTTP front end.
        result = await serving.reliability(0, target=3, samples=200)
        await serving.close()
        return result

    result = asyncio.run(scenario())
    assert len(result.values) == 1
