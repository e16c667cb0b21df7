"""Micro-batching asyncio facade over :class:`repro.api.Session`.

A :class:`Session` already makes *whole-workload* execution the cheap
unit of work: one compiled plan, one coin-flip pass, one fused sweep
group per ``(estimator, Z, seed)``.  What a server needs on top is
**request coalescing** — concurrently arriving single-query requests
should be folded into one workload so they share that amortized cost.

:class:`AsyncSession` is that coalescer.  Awaiting callers submit
individual queries; the session collects them for up to ``max_wait_ms``
(or until ``max_batch`` queries are pending), executes the collected
batch as **one** ``Session.run`` workload on a single worker thread,
and fans the results back to the awaiting callers.  Because execution
goes through the ordinary session path, coalesced responses are
bit-for-bit identical to one-off ``Session.run`` calls with the same
configuration — the property ``tests/test_serve_async.py`` and
``benchmarks/bench_serve_async.py`` pin down.

Concurrency model
-----------------
All coalescer state is touched only from the event-loop thread; the
blocking ``Session.run`` happens on a dedicated single-thread executor,
so session caches (compiled plan, world batches) are only ever accessed
by one thread at a time.  Graph edits — hot-swaps
(:meth:`AsyncSession.swap_graph`) and streaming deltas
(:meth:`AsyncSession.apply_delta`) — run on the same executor and
therefore serialize with in-flight batches: a batch sees either the old
graph or the edited one, never a mix.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from types import TracebackType
from typing import Any, Callable, List, Optional, Sequence, Type, TypeVar, Union

from ..api import DeltaReport, GraphDelta, Query, Session, Workload
from ..api.queries import ReliabilityQuery
from ..api.results import MaximizeResult, ReliabilityResult
from ..faults import fault_point
from ..graph import UncertainGraph

Result = Union[ReliabilityResult, MaximizeResult]

_T = TypeVar("_T")

#: Default coalescing window in milliseconds — long enough to collect a
#: burst of concurrent requests, short enough to stay invisible next to
#: sampling cost.
DEFAULT_MAX_WAIT_MS = 2.0

#: Default batch-size cap: a full batch flushes immediately instead of
#: waiting out the window.
DEFAULT_MAX_BATCH = 64


class SessionClosedError(RuntimeError):
    """Submitted to an :class:`AsyncSession` that is (or went) closed.

    Raised both at submission time and for requests caught mid-close by
    the submit/close race: a query whose batch can no longer reach the
    worker fails fast with this instead of hanging.  HTTP maps it to
    503.  Subclasses ``RuntimeError`` for backward compatibility with
    callers that caught the old untyped error.
    """


class OverloadedError(RuntimeError):
    """Admission control shed this request: too many pending queries.

    Raised by :meth:`AsyncSession.submit` when ``max_pending`` queries
    are already waiting or executing.  The request never entered a
    batch; retrying after a short backoff is safe (HTTP maps this to
    503 with a ``Retry-After`` header).
    """


class DeadlineExceededError(TimeoutError):
    """The request's ``deadline_ms`` expired before its batch started.

    Deadlines are enforced at flush time: an expired query is failed
    with this error *instead of* entering the shared workload, so its
    batch companions pay nothing for it and their results are
    bit-for-bit unchanged.  HTTP maps it to 504.
    """


@dataclass
class CoalescerStats:
    """Counters describing how requests were batched.

    Attributes
    ----------
    requests : int
        Queries submitted (including later-cancelled ones).
    cancelled : int
        Queries dropped before execution because the awaiting caller
        cancelled.
    batches : int
        ``Session.run`` workloads executed.
    batched_requests : int
        Queries that executed inside those workloads.
    largest_batch : int
        Size of the largest single workload.
    graph_swaps : int
        Completed :meth:`AsyncSession.swap_graph` calls.
    graph_deltas : int
        Completed :meth:`AsyncSession.apply_delta` calls (streaming
        edge edits absorbed without a full swap).
    shed : int
        Submissions rejected by admission control (``max_pending``).
    deadline_expired : int
        Queries whose ``deadline_ms`` ran out before their batch
        started; they were failed at flush time without executing.
    """

    requests: int = 0
    cancelled: int = 0
    batches: int = 0
    batched_requests: int = 0
    largest_batch: int = 0
    graph_swaps: int = 0
    graph_deltas: int = 0
    shed: int = 0
    deadline_expired: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Average executed workload size (0.0 before the first batch)."""
        if not self.batches:
            return 0.0
        return self.batched_requests / self.batches

    def as_dict(self) -> dict:
        """Plain-dict view (what ``/healthz`` reports)."""
        return {**asdict(self), "mean_batch_size": self.mean_batch_size}


@dataclass
class _PendingRequest:
    """One submitted query waiting for its coalesced batch to run.

    ``expires_at`` is the absolute :func:`time.monotonic` deadline
    derived from the query's ``deadline_ms`` at submission, or ``None``
    for no deadline.
    """

    query: Query
    future: "asyncio.Future[Result]" = field(repr=False)
    expires_at: Optional[float] = None


class _Failure:
    """Per-query failure marker inside an otherwise-successful batch."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException) -> None:
        self.error = error


class AsyncSession:
    """Coalesce concurrent queries into batched ``Session.run`` calls.

    Parameters
    ----------
    target : UncertainGraph or Session
        Either a graph (a :class:`~repro.api.Session` is built from it
        with ``**session_kwargs``) or an existing session to wrap.  The
        wrapped session must not be used concurrently from outside.
    max_batch : int, optional
        Flush as soon as this many queries are pending, without waiting
        out the coalescing window.
    max_wait_ms : float, optional
        Coalescing window: the longest a submitted query waits for
        companions before its batch is flushed.  ``0`` flushes on the
        next event-loop tick — concurrent submitters still coalesce,
        but no extra latency is ever added.
    max_pending : int, optional
        Admission-control bound: when this many queries are already
        waiting or executing, further submissions are shed with
        :class:`OverloadedError` instead of growing the queue without
        bound.  ``None`` (the default) disables shedding.
    **session_kwargs
        Forwarded to the :class:`~repro.api.Session` constructor when
        ``target`` is a graph (``seed``, ``estimator``, ``store``,
        ...).

    Notes
    -----
    Results are **bit-for-bit identical** to one-off ``Session.run``
    calls: coalescing only changes *when* queries execute, never what
    they compute, because ``Session.run`` groups by
    ``(estimator, Z, seed)`` and answers each group from the same
    deterministic world batch a single-query workload would use.

    Examples
    --------
    Two concurrent clients share one compiled plan, one coin-flip pass
    and one fused sweep:

    >>> import asyncio
    >>> from repro.graph import UncertainGraph
    >>> from repro.api import ReliabilityQuery
    >>> from repro.serve import AsyncSession
    >>> g = UncertainGraph.from_edges([(0, 1, 0.8), (1, 2, 0.5)])
    >>> async def clients():
    ...     async with AsyncSession(g, seed=7, max_wait_ms=5.0) as serving:
    ...         return await asyncio.gather(
    ...             serving.submit(ReliabilityQuery(0, target=1, samples=2000)),
    ...             serving.submit(ReliabilityQuery(0, target=2, samples=2000)),
    ...         )
    >>> results = asyncio.run(clients())
    >>> [round(r.value, 1) for r in results]
    [0.8, 0.4]
    >>> all(r.provenance.shared_worlds for r in results)
    True
    """

    def __init__(
        self,
        target: Union[UncertainGraph, Session],
        max_batch: int = DEFAULT_MAX_BATCH,
        max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
        max_pending: Optional[int] = None,
        **session_kwargs: Any,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be positive (or None)")
        if isinstance(target, Session):
            if session_kwargs:
                raise TypeError(
                    "session_kwargs only apply when constructing from a "
                    "graph; configure the Session directly instead"
                )
            self.session = target
        else:
            self.session = Session(target, **session_kwargs)
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self.max_pending = max_pending
        self.stats = CoalescerStats()
        self._pending: List[_PendingRequest] = []
        self._timer: Optional[asyncio.TimerHandle] = None
        self._inflight: List["asyncio.Future"] = []
        # Queries dispatched to the worker whose results have not fanned
        # out yet — the executing half of the admission-control load.
        self._inflight_requests = 0
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._closed = False
        # Ownership hand-off for the sanitizer's race detector: from
        # here on, the single worker thread owns the session (and its
        # store's write paths) — a wrapped session that was used on the
        # constructing thread before is explicitly re-homed.  Reads the
        # coalescer itself performs from the event loop (store_stats,
        # graph identity) stay unguarded by design.
        self.session._affinity.rebind()
        if self.session.store is not None:
            self.session.store._write_affinity.rebind()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    async def submit(self, query: Query) -> Result:
        """Submit one query; await its result.

        The query joins the current coalescing window and executes in
        one ``Session.run`` workload together with every other query
        pending when the window flushes.  Cancelling the awaiting task
        before the flush drops the query from the batch entirely.

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
            The coalescer is closed (or closed while this query was
            pending).
        OverloadedError
            ``max_pending`` queries are already waiting or executing;
            this one was shed without entering a batch.
        DeadlineExceededError
            The query's ``deadline_ms`` expired before its batch
            started executing.
        """
        if self._closed:
            raise SessionClosedError("AsyncSession is closed")
        Workload._check(query)
        self.stats.requests += 1
        if self.max_pending is not None:
            load = len(self._pending) + self._inflight_requests
            if load >= self.max_pending:
                self.stats.shed += 1
                raise OverloadedError(
                    f"{load} queries already pending or executing "
                    f"(max_pending={self.max_pending}); request shed"
                )
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Result]" = loop.create_future()
        deadline_ms = query.deadline_ms
        expires_at = (
            None if deadline_ms is None
            else time.monotonic() + deadline_ms / 1000.0
        )
        self._pending.append(_PendingRequest(query, future, expires_at))
        if len(self._pending) >= self.max_batch:
            self._flush(loop)
        elif self._timer is None:
            self._timer = loop.call_later(
                self.max_wait_ms / 1000.0, self._flush, loop
            )
        return await future

    async def run(self, queries: Union[Workload, Sequence[Query]]) -> List[Result]:
        """Submit several queries concurrently; results align with input.

        Each query is submitted individually, so it can coalesce not
        just with its siblings but with every other client's concurrent
        requests.

        Parameters
        ----------
        queries : Workload or sequence of queries
            The queries to execute.

        Returns
        -------
        list of ReliabilityResult or MaximizeResult
            In the same order as ``queries``.
        """
        return list(await asyncio.gather(*(self.submit(q) for q in queries)))

    async def reliability(
        self,
        source: int,
        target: Optional[int] = None,
        targets: Optional[Sequence[int]] = None,
        estimator: str = "mc",
        samples: int = 1000,
        seed: Optional[int] = None,
    ) -> ReliabilityResult:
        """One-call coalescible reliability estimate.

        Mirrors :meth:`repro.api.Session.reliability`; see
        :class:`~repro.api.ReliabilityQuery` for parameter semantics.
        """
        return await self.submit(ReliabilityQuery(
            source,
            target=target,
            targets=tuple(targets) if targets is not None else None,
            estimator=estimator,
            samples=samples,
            seed=seed,
        ))

    # ------------------------------------------------------------------
    # graph edits
    # ------------------------------------------------------------------
    async def swap_graph(self, graph: UncertainGraph) -> int:
        """Replace the served graph; returns the new graph's version.

        Serializes with in-flight workloads like every edit (see
        :meth:`_edit`).  The session's compiled plan and every cached
        world batch are evicted explicitly — two distinct graph objects
        may share a ``version`` counter value, so the version check
        alone cannot be trusted across a swap.  Entries in an attached
        persistent store need no eviction at all: they are keyed by the
        graph's **content hash**
        (:meth:`repro.graph.UncertainGraph.content_hash`), so the new
        graph simply reads and writes its own namespace — the
        version-collision hazard cannot reach the disk tier.
        """

        def _swap() -> int:
            self.session.graph = graph
            self.session.invalidate()
            return graph.version

        version = await self._edit(_swap)
        self.stats.graph_swaps += 1
        return version

    async def apply_delta(self, delta: GraphDelta) -> DeltaReport:
        """Apply streaming edge edits to the served graph in place.

        Serializes with in-flight workloads like every edit (see
        :meth:`_edit`).  Unlike a swap, the session keeps (and
        repairs) its cached world batches via
        :meth:`repro.api.Session.apply_delta`; the returned
        :class:`~repro.api.DeltaReport` says whether repair or eviction
        ran.  A delete naming an absent edge raises :class:`KeyError`
        and leaves the graph untouched.
        """
        report = await self._edit(lambda: self.session.apply_delta(delta))
        self.stats.graph_deltas += 1
        return report

    async def _edit(self, edit: Callable[[], _T]) -> _T:
        """Flush pending queries, then run ``edit`` on the worker thread.

        The edit runs on the same single-thread executor as batch
        execution, so it serializes with in-flight workloads: batches
        flushed before it answer against the old graph, batches flushed
        after it against the edited one.  Queries already *pending* in
        the coalescing window are flushed first — their batch is
        enqueued ahead of the edit — because a query accepted while the
        old graph was served must never silently execute against the
        edited one.
        """
        if self._closed:
            raise SessionClosedError("AsyncSession is closed")
        loop = asyncio.get_running_loop()
        if self._pending:
            self._flush(loop)
        return await loop.run_in_executor(self._executor, edit)

    @property
    def graph(self) -> UncertainGraph:
        """The graph the wrapped session currently serves."""
        return self.session.graph

    def store_stats(self) -> Optional[dict]:
        """Persistent-index statistics of the wrapped session.

        ``None`` when the session has no :class:`repro.index.IndexStore`
        attached; otherwise the dict ``/healthz`` embeds under
        ``"store"`` (catalog sizes plus hit/miss counters).  Reading
        SQLite aggregates from the event-loop thread is safe: the
        catalog connection is WAL-mode and the worker thread only ever
        appends.
        """
        return self.session.store_stats()

    # ------------------------------------------------------------------
    # flushing
    # ------------------------------------------------------------------
    def _flush(self, loop: asyncio.AbstractEventLoop) -> None:
        """Execute every pending (non-cancelled) query as one workload.

        Deadlines are enforced here, at the last moment before the
        batch is committed to the worker: an expired query fails with
        :class:`DeadlineExceededError` and never joins the workload, so
        companions' results are bit-for-bit what they would have been
        without it.
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        now = time.monotonic()
        batch: List[_PendingRequest] = []
        for p in self._pending:
            if p.future.cancelled():
                self.stats.cancelled += 1
            elif p.expires_at is not None and now >= p.expires_at:
                self.stats.deadline_expired += 1
                p.future.set_exception(DeadlineExceededError(
                    f"deadline_ms={p.query.deadline_ms} expired before "
                    f"the batch started"
                ))
            else:
                batch.append(p)
        self._pending.clear()
        if not batch:
            return
        self.stats.batches += 1
        self.stats.batched_requests += len(batch)
        self.stats.largest_batch = max(self.stats.largest_batch, len(batch))
        queries = [p.query for p in batch]
        futures = [p.future for p in batch]
        try:
            task = loop.run_in_executor(
                self._executor, self._run_batch, queries
            )
        except RuntimeError:
            # Submit/close race: the executor shut down between this
            # flush being scheduled and running.  Fail the batch fast
            # and typed instead of stranding its awaiting callers.
            error = SessionClosedError(
                "AsyncSession closed while the batch was pending"
            )
            for future in futures:
                if not future.done():
                    future.set_exception(error)
            return
        self._inflight_requests += len(futures)
        self._inflight.append(task)
        task.add_done_callback(
            lambda done, futures=futures: self._fan_out(done, futures)
        )

    def _run_batch(self, queries: List[Query]) -> List[object]:
        """Worker-thread body: one ordinary ``Session.run`` call.

        A query that makes the whole workload raise must not poison its
        batch companions: on failure the batch re-runs query by query,
        so every caller gets its own result — or its own exception —
        instead of someone else's.  Reliability answers are
        deterministic per ``(estimator, Z, seed)``, so the isolation
        rerun returns the same values the clean run would have.
        Maximize companions of a *failed* batch may observe advanced
        state on a stateful session selection estimator (the failed
        attempt consumed RNG draws); queries validate what they can at
        construction (method, estimator names, ``k``) precisely to
        keep failures out of shared batches.
        """
        try:
            fault_point("serve.worker")
            return self.session.run(Workload(queries))
        except Exception:
            outcomes: List[object] = []
            for query in queries:
                try:
                    outcomes.append(self.session.run(Workload([query]))[0])
                except Exception as error:  # per-caller fault isolation
                    outcomes.append(_Failure(error))
            return outcomes

    def _fan_out(
        self,
        done: "asyncio.Future[List[Result]]",
        futures: List["asyncio.Future[Result]"],
    ) -> None:
        """Deliver a finished batch to its awaiting callers."""
        self._inflight_requests -= len(futures)
        if done in self._inflight:
            self._inflight.remove(done)
        if done.cancelled():
            for future in futures:
                if not future.done():
                    future.cancel()
            return
        error = done.exception()
        if error is not None:
            for future in futures:
                if not future.done():
                    future.set_exception(error)
            return
        for future, result in zip(futures, done.result(), strict=True):
            if future.done():
                continue
            if isinstance(result, _Failure):
                future.set_exception(result.error)
            else:
                future.set_result(result)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def close(self) -> None:
        """Flush pending queries, drain in-flight batches, shut down.

        Idempotent.  Queries submitted after ``close`` raise
        :class:`SessionClosedError`; a query racing ``close`` either
        lands in the final flush (and completes normally) or fails
        fast with the same typed error — it never hangs.
        """
        if self._closed:
            return
        self._closed = True
        loop = asyncio.get_running_loop()
        if self._pending:
            self._flush(loop)
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)
        self._executor.shutdown(wait=True)

    async def __aenter__(self) -> "AsyncSession":
        """Enter the async context manager; returns self."""
        return self

    async def __aexit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        """Close the session on context exit."""
        await self.close()
