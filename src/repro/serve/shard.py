"""Self-healing multi-process shard pool over :class:`AsyncSession`.

One :class:`AsyncSession` coalesces beautifully but runs every batch on
a single worker thread inside a single process: one crash kills every
client and one core answers all of them.  :class:`ShardSupervisor`
spreads the load over ``N`` worker *processes* — each one owning its
own :class:`repro.api.Session` + :class:`AsyncSession` — while keeping
the two properties that make the serving layer trustworthy:

**Deterministic routing.**  Requests are routed by a stable hash of
their :func:`~repro.api.batch_key` — the ``(estimator, Z, seed)`` group
``Session.run`` batches by — so concurrently arriving requests that
*would* share a possible-world batch in a single-process server still
land on the same shard and still share one coin-flip pass there.
Routing depends only on the query, never on load, so a replayed
request reproduces the original shard's answer bit-for-bit on any
other shard.

**Exactness-preserving crash recovery.**  Everything below the session
is deterministic in ``(graph content, estimator, Z, seed)``, so a
request is safe to replay.  The supervisor detects shard death three
ways — pipe EOF (SIGKILL, crash), heartbeat timeout (hang, SIGSTOP),
and IPC write failure — then SIGKILLs the remains, respawns the worker
under doubling backoff (reset once a worker has stayed up
:data:`_BACKOFF_RESET_S`), and transparently re-dispatches the dead
shard's in-flight requests to a healthy shard (or parks them until one
respawns).  A crash mid-burst yields zero failed responses; replayed
responses are bit-for-bit equal to one-off ``Session.run`` calls.

IPC protocol
------------
Each worker talks to the supervisor over one ``socket.socketpair()``
(AF_UNIX).  Frames are 4-byte big-endian length prefixes followed by a
pickled ``(kind, payload)`` tuple.  Supervisor → worker kinds:
``request``, ``ping``, ``prepare``, ``commit``, ``stats``,
``shutdown``.  Worker → supervisor kinds: ``ready``, ``result``,
``pong``, ``prepared``, ``committed``, ``stats``, ``bye``.  Workers are
started with the ``spawn`` start method (never ``fork``: the parent
runs an asyncio loop and holds locks), and the child's socket end is
passed as a ``Process`` argument via multiprocessing's fd-passing
reduction.

Graph edits — a hot-swap (:meth:`ShardSupervisor.swap_graph`) or a
streaming delta (:meth:`ShardSupervisor.apply_delta`) — are one
two-phase broadcast: phase one ships the change (the new graph, or the
small :class:`~repro.api.GraphDelta`) to every shard (``prepare``),
phase two flips them over (``commit``; a delta commit repairs the
worker's session caches in place).  The supervisor builds the
post-edit graph first, and a shard that dies mid-edit is respawned
directly on it, so it counts as both prepared and committed (a fresh
session needs no repair); clients never observe a pool that answers
from two different graphs after an edit returns.

Fault seams ``shard.spawn``, ``shard.heartbeat``, ``shard.ipc.read``
and ``shard.ipc.write`` (see :mod:`repro.faults`) let the chaos suite
exercise every recovery path deterministically.
"""

from __future__ import annotations

import asyncio
import hashlib
import multiprocessing
import os
import pickle
import signal
import socket
import struct
import time
from dataclasses import asdict, dataclass
from types import TracebackType
from typing import Any, Callable, Dict, List, Optional, Tuple, Type, Union

from ..api import DeltaReport, GraphDelta, Query, Session, Workload, batch_key
from ..api.queries import BatchKey
from ..faults import fault_point
from ..graph import UncertainGraph
from .async_session import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_WAIT_MS,
    AsyncSession,
    OverloadedError,
    Result,
    SessionClosedError,
)

#: Frame header: 4-byte big-endian payload length.
_FRAME_HEADER = struct.Struct(">I")

#: Upper bound on a single IPC frame; anything larger is a protocol
#: error, not a graph (a multi-million-edge graph pickles well below
#: this).
_MAX_FRAME_BYTES = 1 << 30

#: A worker silent for this many heartbeat intervals is declared dead.
_HEARTBEAT_TIMEOUT_INTERVALS = 4.0

#: Initial and maximum delay between respawn attempts (doubling).
_RESPAWN_BACKOFF_S = 0.05
_RESPAWN_BACKOFF_CEILING_S = 2.0

#: Uptime after which a dead shard's backoff restarts from
#: :data:`_RESPAWN_BACKOFF_S`: guards against crash-loop spin without
#: penalizing a one-off kill.
_BACKOFF_RESET_S = 5.0

#: Deadline for a spawned worker's ``ready`` handshake.
_SPAWN_TIMEOUT_S = 60.0

#: How long :meth:`ShardSupervisor.close` waits for in-flight answers.
_DRAIN_TIMEOUT_S = 10.0


class ShardError(RuntimeError):
    """Base class for shard-pool failures."""


class ShardSpawnError(ShardError):
    """Spawning a worker process failed (exec, handshake, or timeout).

    At :meth:`ShardSupervisor.start` this propagates to the caller —
    a pool that cannot start should fail loudly.  During respawn it is
    swallowed and retried under the same doubling backoff.
    """


class ShardCrashError(ShardError):
    """A request exhausted its replay budget across shard crashes.

    Raised to the submitting caller after ``replay_budget`` consecutive
    shard deaths each took this request down with them.  The request
    never produced a (possibly torn) partial answer — retrying is safe,
    and HTTP maps this to 503 with ``Retry-After``.
    """


# ----------------------------------------------------------------------
# Frame codec (shared by supervisor and worker)
# ----------------------------------------------------------------------


def _encode_frame(kind: str, payload: object) -> bytes:
    data = pickle.dumps((kind, payload), protocol=pickle.HIGHEST_PROTOCOL)
    return _FRAME_HEADER.pack(len(data)) + data


async def _read_frame(reader: asyncio.StreamReader) -> Tuple[str, Any]:
    header = await reader.readexactly(_FRAME_HEADER.size)
    (length,) = _FRAME_HEADER.unpack(header)
    if length > _MAX_FRAME_BYTES:
        raise ShardError(f"oversized IPC frame ({length} bytes)")
    kind, payload = pickle.loads(await reader.readexactly(length))
    return kind, payload


def _portable_error(error: BaseException) -> BaseException:
    """Return ``error`` if it survives a pickle round-trip, else a repr wrapper."""
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return RuntimeError(f"{type(error).__name__}: {error}")


# ----------------------------------------------------------------------
# Deterministic routing
# ----------------------------------------------------------------------


def shard_index(key: BatchKey, num_shards: int) -> int:
    """Map a routing key onto a shard index with a stable hash.

    Uses the first 8 bytes of SHA-256 over ``repr(key)`` so the mapping
    is identical across processes, Python versions and restarts (no
    ``PYTHONHASHSEED`` dependence) — a replay after a respawn computes
    the same home shard the original dispatch did.

    Parameters
    ----------
    key : (estimator, samples, seed)
        Routing key from :func:`~repro.api.batch_key`.
    num_shards : int
        Pool size.

    Returns
    -------
    int
        Home shard in ``range(num_shards)``.
    """
    digest = hashlib.sha256(repr(key).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------


def _worker_stats(serving: AsyncSession) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "pid": os.getpid(),
        "coalescer": serving.stats.as_dict(),
    }
    store = serving.store_stats()
    if store is not None:
        payload["store"] = store
    return payload


async def _shard_worker(sock: socket.socket, graph: UncertainGraph, options: Dict[str, Any]) -> None:
    reader, writer = await asyncio.open_connection(sock=sock)
    store = None
    store_path = options.get("store_path")
    if store_path is not None:
        from ..index import IndexStore

        store = IndexStore(store_path)
    session = Session(graph, store=store, **options.get("session_kwargs", {}))
    serving = AsyncSession(
        session,
        max_batch=options["max_batch"],
        max_wait_ms=options["max_wait_ms"],
        max_pending=None,  # the supervisor owns admission control
    )
    write_lock = asyncio.Lock()
    # The prepared ``(generation, new graph or GraphDelta)``, if any.
    staged: Optional[Tuple[int, Union[UncertainGraph, GraphDelta]]] = None
    tasks: set = set()

    async def send(kind: str, payload: object) -> None:
        frame = _encode_frame(kind, payload)
        async with write_lock:
            writer.write(frame)
            await writer.drain()

    def spawn(coro: Any) -> None:
        task = asyncio.get_running_loop().create_task(coro)
        tasks.add(task)
        task.add_done_callback(tasks.discard)

    async def answer(request_id: int, query: Query) -> None:
        try:
            result = await serving.submit(query)
        except asyncio.CancelledError:
            raise
        except BaseException as error:
            await send("result", (request_id, False, _portable_error(error)))
        else:
            await send("result", (request_id, True, result))

    async def commit(generation: int) -> None:
        nonlocal staged
        if staged is not None and staged[0] == generation:
            change, staged = staged[1], None
            if isinstance(change, GraphDelta):
                # Streaming edit: repair this worker's session caches
                # in place instead of evicting them via a full swap.
                await serving.apply_delta(change)
            else:
                await serving.swap_graph(change)
        await send("committed", generation)

    await send("ready", {"pid": os.getpid(), "index": options.get("index", -1)})
    try:
        while True:
            try:
                kind, payload = await _read_frame(reader)
            except (asyncio.IncompleteReadError, ConnectionError):
                break
            if kind == "request":
                request_id, query = payload
                spawn(answer(request_id, query))
            elif kind == "ping":
                spawn(send("pong", payload))
            elif kind == "prepare":
                # One edit at a time (the supervisor serializes them):
                # a newer prepare replaces any stale staged change.
                staged = payload
                spawn(send("prepared", payload[0]))
            elif kind == "commit":
                spawn(commit(payload))
            elif kind == "stats":
                spawn(send("stats", (payload, _worker_stats(serving))))
            elif kind == "shutdown":
                break
    finally:
        await serving.close()  # flush + answer every in-flight query
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        if store is not None:
            store.close()
        try:
            async with write_lock:
                writer.write(_encode_frame("bye", None))
                await writer.drain()
            writer.close()
        except (ConnectionError, RuntimeError):
            pass


def _shard_worker_main(sock: socket.socket, graph: UncertainGraph, options: Dict[str, Any]) -> None:
    """Entry point of one shard worker process (``spawn``-picklable).

    Ignores SIGINT so a terminal Ctrl-C (delivered to the whole
    foreground process group) cannot kill workers out from under the
    supervisor's graceful drain; shutdown arrives over the socket.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        asyncio.run(_shard_worker(sock, graph, options))
    except (ConnectionError, KeyboardInterrupt):
        pass


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------


@dataclass
class SupervisorStats:
    """Counters the supervisor exposes under ``/healthz``.

    Attributes
    ----------
    requests, shed : int
        Total submissions and admission-control rejections.
    replays : int
        In-flight requests re-dispatched after a shard death.
    crashed : int
        Requests that exhausted ``replay_budget`` (failed typed).
    respawns : int
        Successful worker respawns after a death.
    spawn_failures : int
        Respawn attempts that failed and backed off.
    deaths : int
        Shard deaths detected (EOF, heartbeat, write failure).
    heartbeat_timeouts : int
        Deaths declared specifically by heartbeat staleness.
    graph_swaps : int
        Completed two-phase graph swaps.
    graph_deltas : int
        Completed two-phase streaming deltas
        (:meth:`ShardSupervisor.apply_delta`).
    """

    requests: int = 0
    shed: int = 0
    replays: int = 0
    crashed: int = 0
    respawns: int = 0
    spawn_failures: int = 0
    deaths: int = 0
    heartbeat_timeouts: int = 0
    graph_swaps: int = 0
    graph_deltas: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Return the counters as a plain dict (JSON-ready)."""
        return asdict(self)


class _Inflight:
    __slots__ = ("request_id", "query", "future", "attempts")

    def __init__(self, request_id: int, query: Query, future: "asyncio.Future[Result]") -> None:
        self.request_id = request_id
        self.query = query
        self.future = future
        self.attempts = 0


class _Shard:
    """Supervisor-side handle for one worker process."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.live = False
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.pid: Optional[int] = None
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.reader_task: Optional["asyncio.Task[None]"] = None
        self.heartbeat_task: Optional["asyncio.Task[None]"] = None
        self.respawn_task: Optional["asyncio.Task[None]"] = None
        self.inflight: Dict[int, _Inflight] = {}
        self.acks: Dict[Tuple[str, int], "asyncio.Future[Any]"] = {}
        self.generation = 0
        self.backoff_s = _RESPAWN_BACKOFF_S
        self.respawns = 0
        self.spawned_at = 0.0
        self.last_seen = 0.0
        self.write_lock = asyncio.Lock()


class ShardSupervisor:
    """Supervised pool of ``num_shards`` worker processes.

    Drop-in serving target for :class:`repro.serve.ReliabilityServer`:
    exposes the same ``submit`` / ``swap_graph`` / ``apply_delta`` /
    ``close`` surface as :class:`AsyncSession`, but spreads requests
    over worker processes, survives worker crashes by replaying
    in-flight requests, and keeps graph edits atomic across the pool
    via a two-phase broadcast.

    Parameters
    ----------
    graph : UncertainGraph
        The graph every worker serves initially.
    num_shards : int, optional
        Worker-process count (default 2).
    max_batch, max_wait_ms : optional
        Per-worker coalescing knobs, forwarded to each worker's
        :class:`AsyncSession`.
    max_pending : int or None, optional
        Pool-wide admission cap; beyond it submissions are shed with
        :class:`OverloadedError` (workers themselves never shed).
    heartbeat_interval_s : float, optional
        Ping cadence (> 0).  A worker silent for
        :data:`_HEARTBEAT_TIMEOUT_INTERVALS` intervals is declared dead
        and SIGKILLed.
    replay_budget : int, optional
        How many shard deaths one request may survive (be replayed
        past) before failing typed with :class:`ShardCrashError`.
    store_path : str or None, optional
        Directory of a shared :class:`repro.index.IndexStore`; each
        worker opens its own handle (flock + breakers handle
        contention).
    **session_kwargs
        Forwarded to each worker's :class:`repro.api.Session`
        (``seed``, ``estimator``, sample budgets, ...).
    """

    def __init__(
        self,
        graph: UncertainGraph,
        num_shards: int = 2,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
        max_pending: Optional[int] = None,
        heartbeat_interval_s: float = 1.0,
        replay_budget: int = 3,
        store_path: Optional[str] = None,
        **session_kwargs: Any,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if replay_budget < 0:
            raise ValueError(f"replay_budget must be >= 0, got {replay_budget}")
        if not heartbeat_interval_s > 0:
            raise ValueError(
                f"heartbeat_interval_s must be > 0, got {heartbeat_interval_s}"
            )
        self._graph = graph
        self.num_shards = num_shards
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self.max_pending = max_pending
        self.heartbeat_interval_s = heartbeat_interval_s
        self.replay_budget = replay_budget
        self.store_path = store_path
        self.session_kwargs = dict(session_kwargs)
        self.stats = SupervisorStats()
        self._session_seed: Optional[int] = session_kwargs.get("seed", 0)
        self._shards = [_Shard(i) for i in range(num_shards)]
        self._parked: List[_Inflight] = []
        self._next_request_id = 0
        self._generation = 0
        self._pending_graph: Optional[UncertainGraph] = None
        self._started = False
        self._closed = False
        self._swap_lock: Optional[asyncio.Lock] = None
        self._topology_event: Optional[asyncio.Event] = None
        self._mp_context = multiprocessing.get_context("spawn")

    # -- lifecycle -----------------------------------------------------

    @property
    def graph(self) -> UncertainGraph:
        """The graph the pool currently serves (committed, not pending)."""
        return self._graph

    @property
    def started(self) -> bool:
        """Whether :meth:`start` has run."""
        return self._started

    async def start(self) -> None:
        """Spawn every worker and wait for all ``ready`` handshakes.

        Raises
        ------
        ShardSpawnError
            A worker failed to start; already-started workers are torn
            down before the error propagates.
        """
        if self._started:
            raise RuntimeError("ShardSupervisor is already started")
        if self._closed:
            raise SessionClosedError("ShardSupervisor is closed")
        self._started = True
        self._swap_lock = asyncio.Lock()
        self._topology_event = asyncio.Event()
        try:
            await asyncio.gather(*(self._spawn_worker(s) for s in self._shards))
        except BaseException:
            await self.close()
            raise

    async def close(self) -> None:
        """Drain in-flight requests, stop every worker, reap processes.

        Idempotent.  Parked requests that never reached a worker fail
        typed with :class:`SessionClosedError`; in-flight requests get
        up to :data:`_DRAIN_TIMEOUT_S` to finish (workers flush and
        answer their pending batches on shutdown).
        """
        if self._closed:
            return
        self._closed = True
        if not self._started:
            return
        for shard in self._shards:
            if shard.respawn_task is not None:
                shard.respawn_task.cancel()
            if shard.heartbeat_task is not None:
                shard.heartbeat_task.cancel()
        parked, self._parked = self._parked, []
        for entry in parked:
            if not entry.future.done():
                entry.future.set_exception(SessionClosedError("ShardSupervisor is closed"))
        waiting = [
            entry.future
            for shard in self._shards
            for entry in shard.inflight.values()
            if not entry.future.done()
        ]
        for shard in self._shards:
            if shard.live:
                try:
                    await self._send(shard, "shutdown", None)
                except (ShardError, ConnectionError, RuntimeError):
                    pass
        if waiting:
            await asyncio.wait(waiting, timeout=_DRAIN_TIMEOUT_S)
        self._wake_topology_waiters()
        loop = asyncio.get_running_loop()
        for shard in self._shards:
            shard.live = False
            if shard.reader_task is not None:
                shard.reader_task.cancel()
            if shard.writer is not None:
                shard.writer.close()
            for entry in shard.inflight.values():
                if not entry.future.done():
                    entry.future.set_exception(SessionClosedError("ShardSupervisor is closed"))
            shard.inflight.clear()
            for ack in shard.acks.values():
                if not ack.done():
                    ack.set_exception(SessionClosedError("ShardSupervisor is closed"))
            shard.acks.clear()
            process = shard.process
            if process is not None and process.is_alive():
                await loop.run_in_executor(None, process.join, 5.0)
                if process.is_alive():
                    process.kill()
                    await loop.run_in_executor(None, process.join, 5.0)

    async def __aenter__(self) -> "ShardSupervisor":
        """Start the pool on entry."""
        await self.start()
        return self

    async def __aexit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        """Close the pool on exit."""
        await self.close()

    # -- spawning and death --------------------------------------------

    async def _spawn_worker(self, shard: _Shard) -> None:
        fault_point("shard.spawn", ShardSpawnError)
        loop = asyncio.get_running_loop()
        parent_sock, child_sock = socket.socketpair()
        graph = self._pending_graph if self._pending_graph is not None else self._graph
        generation = self._generation
        options = {
            "index": shard.index,
            "max_batch": self.max_batch,
            "max_wait_ms": self.max_wait_ms,
            "store_path": self.store_path,
            "session_kwargs": self.session_kwargs,
        }
        process = self._mp_context.Process(
            target=_shard_worker_main,
            args=(child_sock, graph, options),
            daemon=True,
            name=f"repro-shard-{shard.index}",
        )
        try:
            try:
                await loop.run_in_executor(None, process.start)
            finally:
                child_sock.close()
            reader, writer = await asyncio.open_connection(sock=parent_sock)
        except BaseException as error:
            parent_sock.close()
            if process.is_alive():
                process.kill()
            raise ShardSpawnError(f"shard {shard.index}: spawn failed: {error}") from error
        try:
            kind, payload = await asyncio.wait_for(_read_frame(reader), _SPAWN_TIMEOUT_S)
            if kind != "ready":
                raise ShardError(f"expected ready handshake, got {kind!r}")
        except BaseException as error:
            writer.close()
            if process.is_alive():
                process.kill()
            await loop.run_in_executor(None, process.join, 5.0)
            raise ShardSpawnError(f"shard {shard.index}: handshake failed: {error}") from error
        now = time.monotonic()
        shard.process = process
        shard.pid = payload["pid"]
        shard.reader = reader
        shard.writer = writer
        shard.generation = generation
        shard.spawned_at = now
        shard.last_seen = now
        shard.live = True
        shard.reader_task = loop.create_task(self._reader_loop(shard))
        shard.heartbeat_task = loop.create_task(self._heartbeat_loop(shard))
        self._wake_topology_waiters()

    async def _reader_loop(self, shard: _Shard) -> None:
        reason = "pipe EOF"
        try:
            assert shard.reader is not None
            while True:
                fault_point("shard.ipc.read", ConnectionError)
                kind, payload = await _read_frame(shard.reader)
                shard.last_seen = time.monotonic()
                if kind == "result":
                    self._on_result(shard, payload)
                elif kind == "pong":
                    pass
                elif kind in ("prepared", "committed"):
                    if kind == "committed":
                        shard.generation = max(shard.generation, payload)
                    ack = shard.acks.pop((kind, payload), None)
                    if ack is not None and not ack.done():
                        ack.set_result(None)
                elif kind == "stats":
                    token, data = payload
                    stats_ack = shard.acks.pop(("stats", token), None)
                    if stats_ack is not None and not stats_ack.done():
                        stats_ack.set_result(data)
                elif kind == "bye":
                    reason = "worker shut down"
        except asyncio.CancelledError:
            raise
        except (asyncio.IncompleteReadError, ConnectionError) as error:
            if isinstance(error, ConnectionError) and str(error):
                reason = f"pipe error: {error}"
        except Exception as error:  # malformed frame, unpickling failure
            reason = f"IPC protocol error: {error}"
        await self._on_shard_death(shard, reason)

    async def _heartbeat_loop(self, shard: _Shard) -> None:
        seq = 0
        while True:
            await asyncio.sleep(self.heartbeat_interval_s)
            if not shard.live:
                return
            age = time.monotonic() - shard.last_seen
            if age > _HEARTBEAT_TIMEOUT_INTERVALS * self.heartbeat_interval_s:
                self.stats.heartbeat_timeouts += 1
                await self._on_shard_death(shard, f"heartbeat timeout ({age:.1f}s silent)")
                return
            seq += 1
            try:
                fault_point("shard.heartbeat", ConnectionError)
                await self._send(shard, "ping", seq)
            except asyncio.CancelledError:
                raise
            except Exception:
                await self._on_shard_death(shard, "heartbeat write failed")
                return

    async def _on_shard_death(self, shard: _Shard, reason: str) -> None:
        if not shard.live:
            return
        shard.live = False
        self.stats.deaths += 1
        if time.monotonic() - shard.spawned_at >= _BACKOFF_RESET_S:
            shard.backoff_s = _RESPAWN_BACKOFF_S  # a stable run: start over
        current = asyncio.current_task()
        for task in (shard.reader_task, shard.heartbeat_task):
            if task is not None and task is not current:
                task.cancel()
        if shard.writer is not None:
            shard.writer.close()
        process = shard.process
        if process is not None and process.is_alive():
            process.kill()
            asyncio.get_running_loop().run_in_executor(None, process.join, 5.0)
        for ack in shard.acks.values():
            if not ack.done():
                ack.set_exception(ShardError(f"shard {shard.index} died: {reason}"))
        shard.acks.clear()
        entries = [e for e in shard.inflight.values() if not e.future.done()]
        shard.inflight.clear()
        if self._closed:
            for entry in entries:
                entry.future.set_exception(SessionClosedError("ShardSupervisor is closed"))
            return
        shard.respawn_task = asyncio.get_running_loop().create_task(self._respawn(shard))
        self._wake_topology_waiters()
        for entry in entries:
            await self._replay(entry, reason)

    async def _replay(self, entry: _Inflight, reason: str) -> None:
        entry.attempts += 1
        if entry.attempts > self.replay_budget:
            self.stats.crashed += 1
            entry.future.set_exception(
                ShardCrashError(
                    f"request survived {self.replay_budget} shard deaths "
                    f"(last: {reason}); giving up"
                )
            )
            return
        self.stats.replays += 1
        await self._dispatch(entry)

    async def _respawn(self, shard: _Shard) -> None:
        while not self._closed:
            delay = shard.backoff_s
            shard.backoff_s = min(shard.backoff_s * 2.0, _RESPAWN_BACKOFF_CEILING_S)
            await asyncio.sleep(delay)
            if self._closed:
                return
            try:
                await self._spawn_worker(shard)
            except asyncio.CancelledError:
                raise
            except ShardSpawnError:
                self.stats.spawn_failures += 1
                continue
            shard.respawns += 1
            self.stats.respawns += 1
            parked, self._parked = self._parked, []
            for entry in parked:
                if not entry.future.done():
                    await self._dispatch(entry)
            return

    def _wake_topology_waiters(self) -> None:
        event = self._topology_event
        if event is not None:
            event.set()
            self._topology_event = asyncio.Event()

    async def _wait_topology_change(self) -> None:
        event = self._topology_event
        assert event is not None
        await event.wait()

    # -- request path --------------------------------------------------

    def _check_running(self) -> None:
        if self._closed:
            raise SessionClosedError("ShardSupervisor is closed")
        if not self._started:
            raise RuntimeError("ShardSupervisor.start() has not run")

    def _load(self) -> int:
        return sum(len(s.inflight) for s in self._shards) + len(self._parked)

    def _pick_shard(self, query: Query) -> Optional[_Shard]:
        home = shard_index(batch_key(query, self._session_seed), self.num_shards)
        for offset in range(self.num_shards):
            shard = self._shards[(home + offset) % self.num_shards]
            if shard.live:
                return shard
        return None

    async def _send(self, shard: _Shard, kind: str, payload: object) -> None:
        if shard.writer is None:
            raise ShardError(f"shard {shard.index} has no connection")
        frame = _encode_frame(kind, payload)
        async with shard.write_lock:
            fault_point("shard.ipc.write", ConnectionError)
            shard.writer.write(frame)
            await shard.writer.drain()

    async def _dispatch(self, entry: _Inflight) -> None:
        shard = self._pick_shard(entry.query)
        if shard is None:
            self._parked.append(entry)  # drained by the next respawn
            return
        shard.inflight[entry.request_id] = entry
        try:
            await self._send(shard, "request", (entry.request_id, entry.query))
        except asyncio.CancelledError:
            raise
        except Exception:
            # A write failure is a death signal; the death handler
            # replays every entry it still finds in ``inflight`` —
            # including this one, unless a concurrent death already
            # drained the dict, in which case we replay it ourselves.
            await self._on_shard_death(shard, "request write failed")
            stranded = shard.inflight.pop(entry.request_id, None)
            if stranded is not None and not stranded.future.done():
                await self._replay(stranded, "request write failed")

    def _on_result(self, shard: _Shard, payload: Tuple[int, bool, Any]) -> None:
        request_id, ok, outcome = payload
        entry = shard.inflight.pop(request_id, None)
        if entry is None or entry.future.done():
            return  # cancelled by the caller, or already replayed
        if ok:
            entry.future.set_result(outcome)
        else:
            entry.future.set_exception(outcome)

    async def submit(self, query: Query) -> Result:
        """Route one query to its home shard; await the result.

        Requests sharing a coalescing key land on the same shard and
        share one possible-world batch there.  If the shard dies before
        answering, the request is transparently replayed on a healthy
        shard (up to ``replay_budget`` times) — the determinism
        contract makes the replayed answer bit-for-bit identical.

        Parameters
        ----------
        query : ReliabilityQuery or MaximizeQuery
            The query to execute.

        Returns
        -------
        ReliabilityResult or MaximizeResult
            Exactly what ``Session.run(Workload([query]))[0]`` returns.

        Raises
        ------
        SessionClosedError
            The pool is closed (or closed mid-request).
        OverloadedError
            ``max_pending`` requests already in flight; shed.
        ShardCrashError
            The request exhausted its replay budget.
        """
        self._check_running()
        Workload._check(query)
        self.stats.requests += 1
        if self.max_pending is not None and self._load() >= self.max_pending:
            self.stats.shed += 1
            raise OverloadedError(
                f"{self._load()} requests already in flight "
                f"(max_pending={self.max_pending}); request shed"
            )
        self._next_request_id += 1
        loop = asyncio.get_running_loop()
        entry = _Inflight(self._next_request_id, query, loop.create_future())
        await self._dispatch(entry)
        return await entry.future

    # -- two-phase graph edits -----------------------------------------

    async def swap_graph(self, graph: UncertainGraph) -> int:
        """Atomically swap every shard onto ``graph`` (two-phase).

        Requests keep flowing during the swap; each batch sees either
        the old graph or the new one, never a mix (see
        :meth:`_broadcast`).

        Parameters
        ----------
        graph : UncertainGraph
            The replacement graph.

        Returns
        -------
        int
            ``graph.version`` once every shard is committed.
        """
        await self._broadcast(graph, lambda current: graph)
        self.stats.graph_swaps += 1
        return graph.version

    async def apply_delta(self, delta: GraphDelta) -> DeltaReport:
        """Broadcast streaming edge edits to every shard (two-phase).

        The prepare frame carries the small
        :class:`~repro.api.GraphDelta` instead of a whole graph, and
        each worker's commit *repairs* its session caches in place
        (:meth:`repro.api.Session.apply_delta`) rather than evicting
        them.  A shard that dies mid-delta respawns directly on the
        post-delta graph (see :meth:`_broadcast`).

        Parameters
        ----------
        delta : GraphDelta
            The edits to apply pool-wide.  A delete naming an absent
            edge raises :class:`KeyError` before anything is broadcast.

        Returns
        -------
        DeltaReport
            Pool-level report: ``strategy="broadcast"`` with the
            committed graph's version/content hash.  Per-worker repair
            counters surface through :meth:`shard_stats` (each worker's
            coalescer reports its ``graph_deltas`` count).
        """
        start = time.monotonic()

        def edited(current: UncertainGraph) -> UncertainGraph:
            final = current.copy()
            delta.apply_to(final)
            return final

        final = await self._broadcast(delta, edited)
        self.stats.graph_deltas += 1
        return DeltaReport(
            strategy="broadcast",
            num_edits=delta.num_edits,
            version=final.version,
            content_hash=final.content_hash(),
            seconds=time.monotonic() - start,
        )

    async def _broadcast(
        self,
        change: Union[UncertainGraph, GraphDelta],
        edit: Callable[[UncertainGraph], UncertainGraph],
    ) -> UncertainGraph:
        """Ship ``change`` to every shard in two phases; return the new graph.

        Under the edit lock, ``edit`` builds the post-edit graph from
        the committed one — so it may raise (a delta naming an absent
        edge) before anything is sent.  Phase one broadcasts ``change``
        (``prepare``) and waits for every shard's ack; phase two flips
        them over (``commit``).  A shard that dies mid-edit respawns
        directly on the post-edit graph and counts as both prepared
        and committed.
        """
        self._check_running()
        assert self._swap_lock is not None
        async with self._swap_lock:
            graph = edit(self._graph)
            self._generation += 1
            generation = self._generation
            self._pending_graph = graph
            try:
                await asyncio.gather(
                    *(self._phase(s, "prepare", generation, change) for s in self._shards)
                )
                self._graph = graph
                await asyncio.gather(
                    *(self._phase(s, "commit", generation, None) for s in self._shards)
                )
            finally:
                self._pending_graph = None
            return graph

    async def _phase(
        self,
        shard: _Shard,
        kind: str,
        generation: int,
        staged: Optional[Union[UncertainGraph, GraphDelta]],
    ) -> None:
        ack_kind = "prepared" if kind == "prepare" else "committed"
        while True:
            if self._closed:
                raise SessionClosedError("ShardSupervisor is closed")
            if not shard.live:
                # Wait for the respawn; a worker spawned mid-swap starts
                # on the pending graph at this generation, so the
                # generation check below completes the phase for it.
                await self._wait_topology_change()
                continue
            if shard.generation >= generation:
                return
            ack: "asyncio.Future[Any]" = asyncio.get_running_loop().create_future()
            shard.acks[(ack_kind, generation)] = ack
            try:
                payload = (generation, staged) if kind == "prepare" else generation
                await self._send(shard, kind, payload)
                await ack
                return
            except asyncio.CancelledError:
                raise
            except Exception:
                shard.acks.pop((ack_kind, generation), None)
                if shard.live:
                    await self._on_shard_death(shard, f"{kind} broadcast failed")
                continue

    # -- introspection -------------------------------------------------

    def store_stats(self) -> Optional[dict]:
        """Pool-level store statistics — ``None`` (stores live in workers).

        Per-worker store counters are available via :meth:`shard_stats`
        and surface under the ``shards`` key of ``/healthz``.
        """
        return None

    def describe(self) -> Dict[str, Any]:
        """Supervisor-side health snapshot (no worker round-trips).

        Returns
        -------
        dict
            Pool configuration, lifetime counters, and one row per
            shard (liveness, pid, respawns, in-flight count, committed
            graph generation, current backoff).
        """
        return {
            "num_shards": self.num_shards,
            "max_batch": self.max_batch,
            "max_wait_ms": self.max_wait_ms,
            "max_pending": self.max_pending,
            "heartbeat_interval_s": self.heartbeat_interval_s,
            "heartbeat_timeout_s": _HEARTBEAT_TIMEOUT_INTERVALS * self.heartbeat_interval_s,
            "replay_budget": self.replay_budget,
            "parked": len(self._parked),
            **self.stats.as_dict(),
            "shards": [
                {
                    "index": s.index,
                    "live": s.live,
                    "pid": s.pid,
                    "respawns": s.respawns,
                    "inflight": len(s.inflight),
                    "generation": s.generation,
                    "backoff_s": s.backoff_s,
                }
                for s in self._shards
            ],
        }

    async def shard_stats(self, timeout_s: float = 2.0) -> List[Optional[Dict[str, Any]]]:
        """Collect per-worker coalescer/store stats over IPC.

        Best-effort: a dead or slow shard contributes ``None`` instead
        of blocking health checks.

        Parameters
        ----------
        timeout_s : float, optional
            Per-pool deadline for the stats round-trip.

        Returns
        -------
        list of dict or None
            One entry per shard index.
        """

        async def one(shard: _Shard) -> Optional[Dict[str, Any]]:
            if not shard.live:
                return None
            self._next_request_id += 1
            token = self._next_request_id
            ack: "asyncio.Future[Any]" = asyncio.get_running_loop().create_future()
            shard.acks[("stats", token)] = ack
            try:
                await self._send(shard, "stats", token)
                return await asyncio.wait_for(ack, timeout_s)
            except Exception:
                shard.acks.pop(("stats", token), None)
                return None

        return list(await asyncio.gather(*(one(s) for s in self._shards)))
