"""Async serving layer: request coalescing over sessions, plus HTTP.

The scaling path named in ROADMAP.md: :class:`~repro.api.Session`
already executes *whole workloads* against one compiled plan and shared
sampled worlds, so a server's job reduces to folding concurrently
arriving single-query requests into workloads.  This package provides
exactly that, in two layers:

:class:`AsyncSession`
    An asyncio facade over a session.  Concurrent ``submit`` calls are
    **coalesced** — collected for up to ``max_wait_ms`` (or until
    ``max_batch`` queries are pending) and executed as one
    ``Session.run`` workload on a worker thread — bit-for-bit identical
    to one-off session calls, ≥3× faster at 64 concurrent clients
    (gated by ``benchmarks/bench_serve_async.py``).
:class:`ShardSupervisor`
    A self-healing pool of N worker processes (one ``AsyncSession``
    each, stdlib socket IPC).  Requests route by a stable hash of
    :func:`repro.api.batch_key` — the ``(estimator, Z, seed)`` key
    ``Session.run`` groups by — so shared-world batching still fires
    within a shard; a shard death (pipe EOF, heartbeat timeout,
    SIGKILL) triggers respawn under doubling backoff and bit-for-bit
    replay of its in-flight requests on a healthy shard.  Graph swaps
    and streaming deltas broadcast in two phases (prepare/commit) so
    the pool never answers from two graphs.
:class:`ReliabilityServer`
    A stdlib-only HTTP/1.1 JSON endpoint over an ``AsyncSession`` or
    ``ShardSupervisor``: ``POST /reliability``, ``POST /maximize``,
    ``POST /graph`` (hot swap, keyed on ``UncertainGraph.version``),
    ``PATCH /edges`` (streaming edits that repair cached world batches
    in place), ``GET /healthz``.  Start it from the command line with
    ``repro serve`` (``--shards N`` for the supervised pool).

See ``docs/architecture.md`` ("Serving layer") for the data flow and
the coalescer tuning knobs, and ``examples/serve_quickstart.py`` for a
runnable end-to-end tour.
"""

from .async_session import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_WAIT_MS,
    AsyncSession,
    CoalescerStats,
    DeadlineExceededError,
    OverloadedError,
    SessionClosedError,
)
from .http import (
    HttpError,
    ReliabilityServer,
    maximize_response,
    parse_delta,
    parse_graph,
    parse_maximize_query,
    parse_reliability_query,
    provenance_dict,
    reliability_response,
    retry_after_seconds,
)
from .shard import (
    ShardCrashError,
    ShardError,
    ShardSpawnError,
    ShardSupervisor,
    SupervisorStats,
    shard_index,
)

__all__ = [
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_WAIT_MS",
    "AsyncSession",
    "CoalescerStats",
    "DeadlineExceededError",
    "OverloadedError",
    "SessionClosedError",
    "HttpError",
    "ReliabilityServer",
    "maximize_response",
    "parse_delta",
    "parse_graph",
    "parse_maximize_query",
    "parse_reliability_query",
    "provenance_dict",
    "reliability_response",
    "retry_after_seconds",
    "ShardCrashError",
    "ShardError",
    "ShardSpawnError",
    "ShardSupervisor",
    "SupervisorStats",
    "shard_index",
]
