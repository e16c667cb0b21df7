"""Stdlib-only HTTP/1.1 JSON endpoint over :class:`AsyncSession`.

A deliberately small server — ``asyncio.start_server`` plus a
hand-rolled HTTP/1.1 request parser — so the serving layer stays free
of third-party dependencies.  Five endpoints:

``POST /reliability``
    Body ``{"source": 0, "target": 3, "samples": 1000, "estimator":
    "mc", "seed": null}`` (or ``"targets": [..]`` for a fan-out query).
    Responds with per-target values plus full provenance.
``POST /maximize``
    Body ``{"source": 0, "target": 3, "k": 5, "zeta": 0.5, "method":
    "be", ...}``.  Responds with the selected edges, base/new
    reliability, gain, and provenance.
``POST /graph``
    Hot-swap the served graph: body ``{"edges": [[u, v, p], ...],
    "directed": false, "name": "..."}``.  The swap serializes with
    in-flight batches (see :meth:`AsyncSession.swap_graph`) and the
    response echoes the new graph's ``version`` — the key every cached
    plan and world batch is invalidated on.
``PATCH /edges``
    Streaming edge edits: body ``{"upserts": [[u, v, p], ...],
    "deletes": [[u, v], ...]}``.  Unlike a full ``/graph`` swap, the
    session *repairs* its cached world batches in place (re-flipping
    only the edited edges' keyed coins) and resumes cached reach
    states where the edit was monotone; the response echoes the
    :class:`~repro.api.DeltaReport` (strategy, repair counters, new
    ``version``/``content_hash``).
``GET /healthz``
    Liveness plus the served graph's identity/version, the coalescer's
    batching counters and — when a persistent index is attached
    (``repro serve --store``) — the store's catalog sizes and hit/miss
    counters.

Concurrent requests hitting ``/reliability`` and ``/maximize`` within
one coalescing window are folded into a single ``Session.run``
workload; responses are bit-for-bit what one-off sessions would return.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import asdict
from typing import Any, Awaitable, Optional, Tuple, TypeVar, Union

from .. import faults
from ..api import GraphDelta, Session
from ..api.queries import MaximizeQuery, ReliabilityQuery
from ..api.results import MaximizeResult, ReliabilityResult
from ..faults import fault_point
from ..graph import UncertainGraph
from .async_session import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_WAIT_MS,
    AsyncSession,
    DeadlineExceededError,
    OverloadedError,
    SessionClosedError,
)
from .shard import ShardCrashError, ShardSupervisor

#: Largest accepted request body (a graph upload dominates sizing).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Caps on the header section, so a client streaming endless header
#: lines cannot grow server memory without bound.
MAX_HEADER_LINES = 256
MAX_HEADER_BYTES = 64 * 1024

#: Idle/slow-client bound: a connection that takes longer than this to
#: deliver one complete request (or to send its next keep-alive
#: request) is closed, so stalled sockets cannot pin server tasks.
_READ_TIMEOUT_S = 60.0

_T = TypeVar("_T")


class HttpError(Exception):
    """A request failure carrying the HTTP status to respond with.

    ``headers`` carries extra response headers (e.g. ``Retry-After``
    on a 503 shed response).
    """

    def __init__(
        self,
        status: int,
        message: str,
        headers: Optional[dict] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers


class _Request:
    """One parsed HTTP request (method, path, body)."""

    def __init__(
        self, method: str, path: str, body: bytes, keep_alive: bool
    ) -> None:
        self.method = method
        self.path = path
        self.body = body
        self.keep_alive = keep_alive

    def json(self) -> dict:
        """Decode the body as a JSON object; 400 on anything else."""
        if not self.body:
            raise HttpError(400, "request body required")
        try:
            payload = json.loads(self.body)
        except json.JSONDecodeError as error:
            raise HttpError(400, f"invalid JSON body: {error}") from None
        if not isinstance(payload, dict):
            raise HttpError(400, "JSON body must be an object")
        return payload


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Beat added on top of the coalescing window when deriving the
#: ``Retry-After`` hint: by window + beat the burst that caused a shed
#: has flushed and its worker slot is free again.
RETRY_AFTER_BEAT_S = 0.1


def retry_after_seconds(max_wait_ms: float) -> int:
    """``Retry-After`` seconds for 503 responses, from the real window.

    The server's actual coalescing window plus :data:`RETRY_AFTER_BEAT_S`,
    rounded up to whole seconds (RFC 9110 ``Retry-After`` carries an
    integer ``delay-seconds``), never below 1.

    Parameters
    ----------
    max_wait_ms : float
        The serving target's coalescing window in milliseconds.

    Returns
    -------
    int
        Suggested client back-off in seconds.
    """
    return max(1, math.ceil(max_wait_ms / 1000.0 + RETRY_AFTER_BEAT_S))


def provenance_dict(result: Union[ReliabilityResult, MaximizeResult]) -> dict:
    """JSON-ready provenance of any session result."""
    return asdict(result.provenance)


def reliability_response(result: ReliabilityResult) -> dict:
    """JSON-ready body for a ``/reliability`` response.

    Results iterate ``result.pairs`` (query order, duplicate targets
    preserved) so positional indexing against the request stays valid.
    """
    return {
        "source": result.query.source,
        "results": [
            {"target": target, "value": value}
            for (_, target), value in result.pairs
        ],
        "provenance": provenance_dict(result),
    }


def maximize_response(result: MaximizeResult) -> dict:
    """JSON-ready body for a ``/maximize`` response."""
    solution = result.solution
    return {
        "source": result.query.source,
        "target": result.query.target,
        "method": solution.method,
        "edges": [[u, v, p] for u, v, p in solution.edges],
        "base_reliability": solution.base_reliability,
        "new_reliability": solution.new_reliability,
        "gain": solution.gain,
        "num_candidates": solution.num_candidates,
        "provenance": provenance_dict(result),
    }


def _as_int(
    payload: dict, field: str, default: Optional[int] = None
) -> Optional[int]:
    """Strict integer field: JSON floats and booleans are 400s.

    ``int(0.9)`` would silently truncate to node 0 and ``int(True)`` to
    node 1 — answers for queries the client never asked.
    """
    value = payload.get(field, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise HttpError(400, f"{field} must be an integer, got {value!r}")
    return value


def _as_number(payload: dict, field: str) -> Optional[float]:
    """Optional numeric field (int or float); booleans are 400s."""
    value = payload.get(field)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise HttpError(400, f"{field} must be a number, got {value!r}")
    return float(value)


def parse_reliability_query(payload: dict) -> ReliabilityQuery:
    """Build a :class:`ReliabilityQuery` from a JSON payload; 400 on bad input."""
    targets = payload.get("targets")
    if targets is not None:
        # A JSON string would silently iterate character by character.
        if not isinstance(targets, (list, tuple)):
            raise HttpError(400, "targets must be a list of node ids")
        for t in targets:
            if isinstance(t, bool) or not isinstance(t, int):
                raise HttpError(
                    400, f"targets must be integers, got {t!r}"
                )
    if "source" not in payload:
        raise HttpError(400, "bad reliability query: missing 'source'")
    try:
        return ReliabilityQuery(
            source=_as_int(payload, "source"),
            target=_as_int(payload, "target"),
            targets=tuple(targets) if targets is not None else None,
            estimator=str(payload.get("estimator", "mc")),
            samples=_as_int(payload, "samples", 1000),
            seed=_as_int(payload, "seed"),
            deadline_ms=_as_number(payload, "deadline_ms"),
        )
    except HttpError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise HttpError(400, f"bad reliability query: {error}") from None


def parse_maximize_query(payload: dict) -> MaximizeQuery:
    """Build a :class:`MaximizeQuery` from a JSON payload; 400 on bad input.

    Most validation (method, estimator name, ``k``, ``zeta``, seed)
    lives on the query classes themselves — their ``ValueError`` maps
    to 400 below — so bad input is rejected at the door for HTTP and
    direct :class:`AsyncSession` callers alike.
    """
    zeta = payload.get("zeta", 0.5)
    if isinstance(zeta, bool) or not isinstance(zeta, (int, float)):
        raise HttpError(400, "zeta must be a number")
    zeta = float(zeta)
    method = str(payload.get("method", "be"))
    for field in ("source", "target"):
        if field not in payload:
            raise HttpError(400, f"bad maximize query: missing {field!r}")
    try:
        return MaximizeQuery(
            source=_as_int(payload, "source"),
            target=_as_int(payload, "target"),
            k=_as_int(payload, "k", 5),
            zeta=zeta,
            method=method,
            estimator=(
                str(payload["estimator"])
                if payload.get("estimator") is not None else None
            ),
            samples=_as_int(payload, "samples"),
            seed=_as_int(payload, "seed"),
            eliminate=bool(payload.get("eliminate", True)),
            deadline_ms=_as_number(payload, "deadline_ms"),
        )
    except HttpError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise HttpError(400, f"bad maximize query: {error}") from None


def parse_graph(payload: dict) -> UncertainGraph:
    """Build an :class:`UncertainGraph` from a ``/graph`` payload."""
    edges = payload.get("edges")
    if not isinstance(edges, list) or not edges:
        raise HttpError(400, "graph upload requires a non-empty 'edges' list")
    try:
        graph = UncertainGraph(
            directed=bool(payload.get("directed", False)),
            name=str(payload.get("name", "uploaded")),
        )
        for entry in edges:
            u, v, p = entry
            if any(isinstance(x, bool) or not isinstance(x, int)
                   for x in (u, v)):
                raise HttpError(400, f"edge endpoints must be integers: "
                                     f"{entry!r}")
            graph.add_edge(u, v, float(p))
    except HttpError:
        raise
    except (TypeError, ValueError) as error:
        raise HttpError(400, f"bad graph upload: {error}") from None
    return graph


def parse_delta(payload: dict) -> GraphDelta:
    """Build a :class:`GraphDelta` from a ``PATCH /edges`` payload.

    Shape checks (lists of well-typed triples/pairs) happen here so a
    malformed body is a 400; *semantic* validation — deletes naming
    absent edges — happens inside the session against the live graph
    and also maps to 400 at the dispatch site.
    """
    upserts = payload.get("upserts", [])
    deletes = payload.get("deletes", [])
    for field, value in (("upserts", upserts), ("deletes", deletes)):
        if not isinstance(value, list):
            raise HttpError(400, f"{field} must be a list")
    if not upserts and not deletes:
        raise HttpError(400, "delta requires 'upserts' and/or 'deletes'")
    for entry in upserts:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise HttpError(400, f"upserts entries must be [u, v, p]: "
                                 f"{entry!r}")
        u, v, p = entry
        if any(isinstance(x, bool) or not isinstance(x, int) for x in (u, v)):
            raise HttpError(400, f"edge endpoints must be integers: {entry!r}")
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            raise HttpError(400, f"edge probability must be a number: "
                                 f"{entry!r}")
    for entry in deletes:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise HttpError(400, f"deletes entries must be [u, v]: {entry!r}")
        if any(isinstance(x, bool) or not isinstance(x, int) for x in entry):
            raise HttpError(400, f"edge endpoints must be integers: {entry!r}")
    try:
        return GraphDelta(
            upserts=tuple((u, v, float(p)) for u, v, p in upserts),
            deletes=tuple((u, v) for u, v in deletes),
        )
    except ValueError as error:
        raise HttpError(400, f"bad delta: {error}") from None


class ReliabilityServer:
    """Serve coalesced reliability/maximize queries over HTTP.

    Parameters
    ----------
    target : UncertainGraph or Session or AsyncSession
        What to serve.  A graph gets a fresh
        :class:`~repro.api.Session` (configured by
        ``**session_kwargs``); a session or async session is wrapped
        as-is.
    host, port : str, int, optional
        Bind address.  ``port=0`` picks a free port (the default, for
        tests); :attr:`address` reports the bound endpoint after
        :meth:`start`.
    max_batch, max_wait_ms, max_pending : int, float, int, optional
        Coalescer settings (see :class:`AsyncSession`); ignored when an
        ``AsyncSession`` is passed in directly.  ``max_pending`` bounds
        admission: excess requests are shed with ``503`` plus a
        ``Retry-After`` header instead of queueing without bound.
    **session_kwargs
        Forwarded to the :class:`~repro.api.Session` constructor when
        ``target`` is a graph (``seed``, ``estimator``, ``store``,
        ...).

    Examples
    --------
    >>> import asyncio, json, urllib.request
    >>> from repro.graph import UncertainGraph
    >>> from repro.serve import ReliabilityServer
    >>> g = UncertainGraph.from_edges([(0, 1, 0.8), (1, 2, 0.5)])
    >>> async def demo():
    ...     server = ReliabilityServer(g, seed=7)
    ...     host, port = await server.start()
    ...     url = f"http://{host}:{port}/reliability"
    ...     body = json.dumps({"source": 0, "target": 2,
    ...                        "samples": 2000}).encode()
    ...     loop = asyncio.get_running_loop()
    ...     response = await loop.run_in_executor(
    ...         None, lambda: urllib.request.urlopen(url, data=body).read())
    ...     await server.stop()
    ...     return json.loads(response)
    >>> payload = asyncio.run(demo())
    >>> round(payload["results"][0]["value"], 1)
    0.4
    """

    def __init__(
        self,
        target: Union[UncertainGraph, Session, AsyncSession, ShardSupervisor],
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
        max_pending: Optional[int] = None,
        **session_kwargs: Any,
    ) -> None:
        if isinstance(target, (AsyncSession, ShardSupervisor)):
            if session_kwargs:
                raise TypeError(
                    "session_kwargs only apply when constructing from a "
                    "graph; configure the AsyncSession directly instead"
                )
            self.serving: Union[AsyncSession, ShardSupervisor] = target
            self._owns_serving = False
        else:
            self.serving = AsyncSession(
                target,
                max_batch=max_batch,
                max_wait_ms=max_wait_ms,
                max_pending=max_pending,
                **session_kwargs,
            )
            self._owns_serving = True
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = False
        # Open connections and whether each is mid-request: drain
        # closes the idle ones immediately and waits (bounded) for the
        # busy ones to finish their response.
        self._connections: dict = {}
        self._handler_tasks: set = set()

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (valid after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting connections; returns ``(host, port)``.

        A caller-provided :class:`ShardSupervisor` that has not been
        started yet is started here (workers spawn before the socket
        binds, so the first request never races the pool coming up).
        """
        if self._server is not None:
            raise RuntimeError("server already started")
        if isinstance(self.serving, ShardSupervisor) and not self.serving.started:
            await self.serving.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        return self.address

    async def serve_forever(self) -> None:
        """Block serving requests until cancelled or :meth:`stop` is called."""
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:  # pragma: no cover - shutdown path
            pass

    async def stop(self, drain_timeout_s: float = 10.0) -> None:
        """Gracefully drain and shut down.

        The drain ladder: stop accepting new connections, close idle
        keep-alive connections, let the coalescer flush and finish its
        in-flight batches (via ``AsyncSession.close`` when we own it),
        then wait up to ``drain_timeout_s`` for busy handlers to write
        their final responses before force-cancelling stragglers.  A
        request already submitted when the drain starts still gets its
        real answer; responses written during the drain carry
        ``Connection: close``.

        A caller-provided :class:`AsyncSession` is left open — its
        owner may keep submitting to it after the HTTP front end goes
        away.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()  # stop accepting; sockets unbind now
        for writer, busy in list(self._connections.items()):
            if not busy:
                # Idle keep-alive connections: their pending read wakes
                # with EOF and the handler exits cleanly.
                writer.close()
        if self._owns_serving:
            await self.serving.close()
        pending = {task for task in self._handler_tasks if not task.done()}
        if pending:
            _, stragglers = await asyncio.wait(
                pending, timeout=drain_timeout_s
            )
            for task in stragglers:
                task.cancel()
            if stragglers:
                await asyncio.gather(*stragglers, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Serve one client connection (HTTP/1.1 keep-alive loop).

        A connection whose next request is not fully received within
        :data:`_READ_TIMEOUT_S` is closed (slow-loris guard).
        """
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
        self._connections[writer] = False  # idle until a request lands
        try:
            while True:
                try:
                    fault_point("serve.http.read", ConnectionError)
                    request = await asyncio.wait_for(
                        _read_request(reader), timeout=_READ_TIMEOUT_S
                    )
                except asyncio.TimeoutError:
                    break  # idle or slow-drip client: reclaim the task
                except HttpError as error:
                    await asyncio.wait_for(
                        _write_response(
                            writer, error.status, {"error": error.message},
                            keep_alive=False, headers=error.headers,
                        ),
                        timeout=_READ_TIMEOUT_S,
                    )
                    break
                if request is None:
                    break
                self._connections[writer] = True  # busy: drain must wait
                headers: Optional[dict] = None
                try:
                    status, payload = await self._dispatch(request)
                except HttpError as error:
                    status, payload = error.status, {"error": error.message}
                    headers = error.headers
                except Exception as error:  # server boundary: catch-all by design
                    status, payload = 500, {"error": f"{type(error).__name__}: {error}"}
                # Responses written mid-drain say Connection: close so
                # the client re-connects elsewhere instead of idling on
                # a server that is going away.
                keep_alive = request.keep_alive and not self._draining
                # The write is bounded too: a client that stops reading
                # must not pin this task in drain() forever.
                await asyncio.wait_for(
                    _write_response(
                        writer, status, payload,
                        keep_alive=keep_alive, headers=headers,
                    ),
                    timeout=_READ_TIMEOUT_S,
                )
                self._connections[writer] = False
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.TimeoutError):
            pass
        finally:
            self._connections.pop(writer, None)
            if task is not None:
                self._handler_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - client vanished
                pass

    async def _dispatch(self, request: _Request) -> Tuple[int, dict]:
        """Route one request; returns ``(status, JSON payload)``."""
        route = (request.method, request.path)
        if route == ("GET", "/healthz"):
            return 200, self._healthz()
        if route == ("POST", "/reliability"):
            query = parse_reliability_query(request.json())
            result = await self._call(self.serving.submit(query))
            return 200, reliability_response(result)
        if route == ("POST", "/maximize"):
            query = parse_maximize_query(request.json())
            result = await self._call(self.serving.submit(query))
            return 200, maximize_response(result)
        if route == ("POST", "/graph"):
            graph = parse_graph(request.json())
            version = await self._call(self.serving.swap_graph(graph))
            return 200, {"status": "swapped", "graph": self._graph_info(version)}
        if route == ("PATCH", "/edges"):
            delta = parse_delta(request.json())
            try:
                report = await self._call(self.serving.apply_delta(delta))
            except KeyError as error:
                # A delete naming an absent edge: the graph is untouched
                # (GraphDelta.validate runs before any mutation).
                raise HttpError(400, f"bad delta: {error}") from None
            return 200, {
                "status": "patched",
                "report": report.as_dict(),
                "graph": self._graph_info(report.version),
            }
        if request.path in ("/healthz", "/reliability", "/maximize", "/graph",
                            "/edges"):
            raise HttpError(405, f"method {request.method} not allowed "
                                 f"for {request.path}")
        raise HttpError(404, f"unknown path {request.path}")

    async def _call(self, call: Awaitable[_T]) -> _T:
        """Await a serving call, mapping resilience errors to HTTP.

        Every retryable 503 — a shed (``OverloadedError``), a
        closed/draining serving target (``SessionClosedError``), a
        request that exhausted its crash-replay budget
        (``ShardCrashError``) — carries a ``Retry-After`` derived from
        the server's actual coalescing window
        (:func:`retry_after_seconds`), whether the call was a query or
        a graph edit; an expired per-request deadline
        (``DeadlineExceededError``) maps to 504.
        """
        try:
            return await call
        except (OverloadedError, ShardCrashError, SessionClosedError) as error:
            retry_after = retry_after_seconds(self.serving.max_wait_ms)
            raise HttpError(
                503, str(error), headers={"Retry-After": str(retry_after)}
            ) from None
        except DeadlineExceededError as error:
            raise HttpError(504, str(error)) from None

    def _graph_info(self, version: Optional[int] = None) -> dict:
        """Identity of the currently served graph (for /healthz, /graph)."""
        graph = self.serving.graph
        return {
            "name": graph.name,
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "directed": graph.directed,
            "version": graph.version if version is None else version,
        }

    def _healthz(self) -> dict:
        """Body of the ``/healthz`` response.

        When the wrapped session has a persistent index attached
        (``repro serve --store``), a ``"store"`` section reports the
        catalog sizes and hit/miss counters next to the coalescer's
        batching counters; without one the key is absent entirely, so
        monitors can distinguish "no store" from "store with no
        traffic".

        Sharded serving (``repro serve --shards N``) replaces the
        ``"coalescer"`` section with a ``"supervisor"`` section: pool
        configuration, death/replay/respawn counters, and one row per
        shard.  When the fault registry is armed a ``"faults"`` section
        reports per-seam fire counts so chaos runs can scrape them
        without process introspection.
        """
        payload: dict
        payload = {
            "status": "draining" if self._draining else "ok",
            "graph": self._graph_info(),
        }
        if isinstance(self.serving, ShardSupervisor):
            payload["supervisor"] = self.serving.describe()
        else:
            payload["coalescer"] = {
                "max_batch": self.serving.max_batch,
                "max_wait_ms": self.serving.max_wait_ms,
                "max_pending": self.serving.max_pending,
                **self.serving.stats.as_dict(),
            }
        store = self.serving.store_stats()
        if store is not None:
            payload["store"] = store
        if faults.armed():
            payload["faults"] = {"seams": faults.seam_report()}
        return payload


async def _read_request(reader: asyncio.StreamReader) -> Optional[_Request]:
    """Parse one HTTP/1.1 request; ``None`` on a cleanly closed connection.

    Malformed input — a garbage request line, an over-long header line
    (``StreamReader`` raises ``ValueError`` past its limit), a
    non-numeric or negative ``Content-Length`` — raises
    :class:`HttpError` (400) so the caller can still answer instead of
    dropping the connection with an unhandled traceback.
    """
    try:
        request_line = await reader.readline()
    except ValueError:
        raise HttpError(400, "request line too long") from None
    if not request_line:
        return None
    try:
        method, path, version = request_line.decode("ascii").split()
    except ValueError:
        raise HttpError(400, "malformed request line") from None
    # Routing ignores the query string: health checkers commonly append
    # cache-busting params (GET /healthz?probe=1).
    path = path.partition("?")[0]
    headers = {}
    header_bytes = 0
    while True:
        try:
            line = await reader.readline()
        except ValueError:
            raise HttpError(400, "header line too long") from None
        if line in (b"\r\n", b"\n", b""):
            break
        header_bytes += len(line)
        if len(headers) >= MAX_HEADER_LINES or header_bytes > MAX_HEADER_BYTES:
            raise HttpError(400, "header section too large")
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        # We never decode chunked bodies; silently ignoring the header
        # would desync the keep-alive stream (the body would be parsed
        # as the next request — the classic smuggling vector).
        raise HttpError(400, "Transfer-Encoding is not supported; "
                             "send Content-Length")
    try:
        length = int(headers.get("content-length", 0) or 0)
    except ValueError:
        raise HttpError(400, "malformed Content-Length header") from None
    if length < 0:
        raise HttpError(400, "negative Content-Length header")
    if length > MAX_BODY_BYTES:
        raise HttpError(400, "request body too large")
    body = await reader.readexactly(length) if length else b""
    keep_alive = (
        headers.get("connection", "").lower() != "close"
        and version.upper() != "HTTP/1.0"
    )
    return _Request(method.upper(), path, body, keep_alive)


async def _write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: dict,
    keep_alive: bool,
    headers: Optional[dict] = None,
) -> None:
    """Serialize one JSON response and flush it."""
    fault_point("serve.http.write", ConnectionError)
    body = json.dumps(payload).encode("utf-8")
    reason = _STATUS_TEXT.get(status, "Unknown")
    connection = "keep-alive" if keep_alive else "close"
    extra = "".join(
        f"{name}: {value}\r\n" for name, value in (headers or {}).items()
    )
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {connection}\r\n"
        f"{extra}"
        f"\r\n"
    ).encode("ascii")
    writer.write(head + body)
    await writer.drain()
