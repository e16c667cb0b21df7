"""The session: one compiled plan, shared worlds, batched execution.

A :class:`Session` binds a graph to the execution state every query over
that graph wants to share:

* the **compiled CSR plan** (:mod:`repro.engine.csr`) — paid once per
  graph version, reused by every query;
* a **world-batch cache** keyed ``(graph.version, Z, seed)`` — queries
  whose estimator admits shared worlds (see
  :mod:`repro.reliability.registry`) and whose ``(Z, seed)`` align are
  all answered inside the *same* sampled worlds, so an N-query workload
  pays one coin-flip pass instead of N;
* a **seeded RNG discipline** — a batch for ``(Z, seed)`` is always the
  worlds a fresh estimator with that seed would sample, so
  session-batched results are bit-for-bit identical to one-off
  estimator calls.

Mutating the graph bumps ``UncertainGraph.version``; the session notices
on the next query and evicts both the plan reference and every cached
world batch, so results never reflect a stale graph.

The session is also the entry point for reliability *maximization*: it
owns the solver configuration (``r``, ``l``, ``h``, selection estimator,
paired evaluation sampler) and executes :class:`MaximizeQuery` objects
via :mod:`repro.api.maximize`.
"""

from __future__ import annotations

import time
import warnings
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
    cast,
)

import numpy as np

from ..analysis import sanitize
from ..baselines.common import selection_kernel_for
from ..engine import (
    QueryPlan,
    SelectionGainKernel,
    WorldBatch,
    batch_from_words,
    batch_reach_resume,
    batch_to_words,
    coin_base,
    compile_plan,
    extract_world_columns,
    extract_worlds,
    overlay_batch,
    pair_hit_fractions,
    repair_batch,
    sample_worlds,
    scatter_world_columns,
    seed_resume,
    world_index_of,
)
from ..faults import FaultError, fault_point
from ..graph import UncertainGraph
from ..index.store import StoreError
from ..reliability import (
    ReliabilityEstimator,
    estimator_spec,
    make_estimator,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..index import IndexStore
    from ..index.breaker import CircuitBreaker
from .delta import DeltaReport, GraphDelta
from .queries import BatchKey, MaximizeQuery, Pair, Query, ReliabilityQuery, Workload, batch_key
from .results import (
    MaximizeResult,
    Provenance,
    ReliabilityResult,
    Timings,
)

Result = Union[ReliabilityResult, MaximizeResult]

_T = TypeVar("_T")

#: Overlay edge: ``(u, v, probability)``.
ProbEdge = Tuple[int, int, float]

#: Paired-evaluation defaults: every method's gain is measured in
#: these worlds unless the session is configured otherwise.
DEFAULT_EVALUATION_SAMPLES = 1000
DEFAULT_EVALUATION_SEED = 9_999

#: Bound on the world-batch cache: at most this many distinct
#: ``(Z, seed)`` batches are kept (FIFO eviction), so long-lived
#: sessions serving heterogeneous workloads stay bounded in memory.
_MAX_CACHED_BATCHES = 8

#: Bound on the per-source reached-fixpoint cache: at most this many
#: ``(n, W)`` reached matrices across all ``(Z, seed)`` batches,
#: FIFO-evicted by batch key.  Cached fixpoints make repeat-source
#: queries sweep-free and are what :meth:`Session.apply_delta` resumes
#: after a monotone edit instead of re-sweeping; they are bit-identical
#: to fresh sweeps.
_MAX_CACHED_REACH = 128


def _check_sampling(
    samples: Optional[int], seed: Optional[int], prefix: str = ""
) -> None:
    """Reject a sample budget or seed the engine would fail on later."""
    if samples is not None and samples < 1:
        raise ValueError(f"{prefix}samples must be positive, got {samples!r}")
    if seed is not None and seed < 0:
        raise ValueError(f"{prefix}seed must be non-negative, got {seed!r}")


class Session:
    """Batched query execution over one uncertain graph.

    Parameters
    ----------
    graph:
        The graph every query in this session runs against.
    seed:
        Session seed: the default for queries that do not set their own,
        and the seed of the default selection estimator.
    estimator:
        Selection-loop sampler for :class:`MaximizeQuery` execution — a
        registry name or an estimator instance (default: ``"rss"`` at
        ``selection_samples``, the paper's converged configuration).
    selection_samples:
        Sample budget of the default selection estimator.
    evaluation_samples / evaluation_seed:
        Paired Monte Carlo evaluation of solutions: every method's gain
        is measured in the same worlds (fixed seed).
    r, l, h:
        Search-space parameters (Algorithm 4 / top-l paths / hop bound):
        ``r >= 1``, ``l >= 1``, and ``h >= 0`` or ``None`` (no bound).
    store:
        Optional persistent index (:class:`repro.index.IndexStore`).
        World-batch lookup becomes a three-tier path — memory cache →
        store mmap → fresh sampling — and shared-world reliability
        queries consult the store's exact-match result cache before
        touching worlds at all; newly sampled batches and freshly
        computed values are persisted back.  Entries are keyed by the
        graph *content hash*, so a store outlives this process and a
        graph swap can never serve stale answers.  Purely a
        performance layer: store-backed answers are bit-for-bit
        identical to cold sampling.

    See Also
    --------
    repro.serve.AsyncSession : request-coalescing asyncio facade.
    docs/architecture.md : the full engine → session → serving data flow.

    Examples
    --------
    One session answers a whole workload against one compiled plan and
    one shared world batch:

    >>> from repro.graph import UncertainGraph
    >>> from repro.api import ReliabilityQuery, Session, Workload
    >>> g = UncertainGraph.from_edges([(0, 1, 0.9), (1, 2, 0.6)])
    >>> session = Session(g, seed=11)
    >>> r1, r2 = session.run(Workload([
    ...     ReliabilityQuery(0, target=2, samples=4000),
    ...     ReliabilityQuery(0, targets=(1, 2), samples=4000),
    ... ]))
    >>> (round(r1.value, 1), r1.provenance.shared_worlds)
    (0.5, True)
    >>> r2.by_target[2] == r1.value  # same worlds, same answer
    True

    Mutating the graph bumps its version; the next query recompiles:

    >>> g.add_edge(0, 2, 1.0)
    >>> session.reliability(0, target=2, samples=4000).value
    1.0
    """

    def __init__(
        self,
        graph: UncertainGraph,
        seed: int = 0,
        estimator: Optional[Union[str, ReliabilityEstimator]] = None,
        selection_samples: int = 250,
        evaluation_samples: int = DEFAULT_EVALUATION_SAMPLES,
        evaluation_seed: int = DEFAULT_EVALUATION_SEED,
        r: int = 100,
        l: int = 30,
        h: Optional[int] = None,
        store: Optional["IndexStore"] = None,
        store_breaker: Optional["CircuitBreaker"] = None,
    ) -> None:
        _check_sampling(evaluation_samples, evaluation_seed, "evaluation_")
        if r < 1:
            raise ValueError(f"r must be positive, got {r!r}")
        if l < 1:
            raise ValueError(f"l must be positive, got {l!r}")
        if h is not None and h < 0:
            raise ValueError(f"h must be non-negative, got {h!r}")
        self.graph = graph
        self.seed = seed
        self.store = store
        # Circuit breaker in front of every best-effort store call: a
        # dead store stops costing a round-trip per request.  Attached
        # whenever a store is; pass an explicit breaker to tune
        # thresholds (or inject a test clock).
        self.store_breaker: Optional["CircuitBreaker"] = None
        if store is not None:
            if store_breaker is None:
                from ..index.breaker import CircuitBreaker
                store_breaker = CircuitBreaker()
            self.store_breaker = store_breaker
        self.selection_samples = selection_samples
        self.evaluation_samples = evaluation_samples
        self.evaluation_seed = evaluation_seed
        self.r = r
        self.l = l
        self.h = h
        # Registry name of the default selection estimator, when known:
        # maximize queries overriding samples/seed rebuild through it.
        self.estimator_name: Optional[str] = None
        if estimator is None:
            self.estimator_name = "rss"
            estimator = make_estimator("rss", selection_samples, seed=seed)
        elif isinstance(estimator, str):
            self.estimator_name = estimator_spec(estimator).name
            estimator = make_estimator(estimator, selection_samples, seed=seed)
        self.estimator: ReliabilityEstimator = estimator

        self._version: Optional[int] = None
        self._plan: Optional["QueryPlan"] = None
        self._worlds: Dict[Tuple[int, int], Tuple["WorldBatch", float]] = {}
        # Per-(Z, seed) per-source reached fixpoints over the cached
        # batches — resumed (not recomputed) across monotone deltas.
        self._reach: Dict[Tuple[int, int], Dict[int, "np.ndarray"]] = {}
        # Sanitizer-mode race detector: sessions are single-threaded by
        # contract (AsyncSession serializes onto one worker thread).
        # The owner binds on first guarded use, not construction, so a
        # serving layer may build here and hand off (see
        # AsyncSession.__init__, which rebinds).
        self._affinity = sanitize.ThreadAffinity(
            f"Session(graph={graph.name!r})"
        )

    # ------------------------------------------------------------------
    # cache management
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop the compiled plan and every cached world batch.

        Persistent-store entries are *not* dropped: they are keyed by
        graph content hash, so a swapped-in graph simply reads and
        writes its own namespace while the old graph's entries stay
        valid for whoever serves that graph next.
        """
        self._version = None
        self._plan = None
        self._worlds.clear()
        self._reach.clear()

    def store_stats(self) -> Optional[dict]:
        """Persistent-store catalog totals + hit/miss counters, or ``None``.

        JSON-ready (what ``GET /healthz`` reports under ``"store"``).
        Best-effort like every other store interaction: a broken
        catalog degrades to the in-process counters plus an ``"error"``
        field instead of failing the health check.
        """
        store = self.store
        if store is None:
            return None
        try:
            payload = store.stats().as_dict()
        except StoreError as error:
            payload = {
                "error": str(error),
                "counters": store.counters.as_dict(),
            }
        if self.store_breaker is not None:
            payload["breaker"] = self.store_breaker.stats()
        return payload

    # ------------------------------------------------------------------
    # best-effort store access
    # ------------------------------------------------------------------
    def _store_call(
        self, call: Callable[["IndexStore"], _T], default: _T
    ) -> _T:
        """``call(store)`` under the circuit breaker, or ``default``.

        The documented contract is "persistence is an optimization;
        serving must not fail".  :class:`~repro.index.IndexStore`
        raises ``StoreError`` for every failure mode (lock timeouts,
        sqlite contention like 'database is locked' under
        multi-process result writes, a closed store); here it becomes
        ``default`` — reads degrade to misses, writes are dropped — and
        ``save_failures`` records that it happened.  The breaker turns
        *consecutive* failures into skipped calls (same ``default``,
        none of the round-trip latency) until a half-open probe
        succeeds.  Without a store this returns ``default`` at once.
        Every ``call`` starts with its own ``session.store.*`` fault
        seam, so chaos tests drive these paths through the registry.
        """
        store, breaker = self.store, self.store_breaker
        # The constructor attaches a breaker with every store.
        if store is None or breaker is None or not breaker.allow():
            return default
        try:
            value = call(store)
        except StoreError:
            store.counters.save_failures += 1
            breaker.record_failure()
            return default
        breaker.record_success()
        return value

    def _save_batch(self, samples: int, seed: int, batch: "WorldBatch") -> bool:
        """Persist ``batch`` under the current content hash (best-effort)."""

        def save(store: "IndexStore") -> bool:
            fault_point("session.store.save_batch", StoreError)
            store.save_batch(
                self.graph_hash(), samples, seed, batch_to_words(batch)
            )
            return True

        return self._store_call(save, False)

    def _sync_version(self) -> None:
        if self._version != self.graph.version:
            self.invalidate()
            self._version = self.graph.version

    def plan(self) -> Tuple["QueryPlan", float]:
        """``(compiled plan, compile_seconds)`` for the current graph.

        ``compile_seconds`` is 0.0 on a cache hit — only the query that
        first touches a graph version pays the compilation.
        """
        self._affinity.check("Session.plan")
        self._sync_version()
        if self._plan is not None:
            return self._plan, 0.0
        start = time.perf_counter()
        self._plan = compile_plan(self.graph)
        return self._plan, time.perf_counter() - start

    def graph_hash(self) -> str:
        """Content hash of the served graph — the persistent store key.

        Unlike ``graph.version`` (an in-process mutation counter two
        distinct graph objects can collide on), the content hash
        identifies the graph by its nodes, edges and probability bits,
        so index entries stay valid across restarts and can never be
        aliased by a hot-swap.  Cached per graph version on the graph
        itself.
        """
        return self.graph.content_hash()

    def world_batch(
        self, samples: int, seed: int
    ) -> Tuple["WorldBatch", float, str]:
        """``(batch, sample_seconds, source)`` for ``(Z, seed)``.

        ``source`` names the tier that answered: ``"memory"`` (session
        cache), ``"store"`` (memory-mapped from the persistent index),
        or ``"sampled"`` (fresh coin flips — persisted back to the
        store when one is attached).  Every tier yields bit-for-bit
        ``sample_worlds(plan, samples, default_rng(seed))`` — the
        property the parity tests pin down.
        """
        self._affinity.check("Session.world_batch")
        plan, _ = self.plan()
        key = (samples, seed)
        cached = self._worlds.get(key)
        if cached is not None:
            return cached[0], 0.0, "memory"

        def load(store: "IndexStore") -> Optional["np.ndarray"]:
            fault_point("session.store.load_batch", StoreError)
            return store.load_batch(
                self.graph_hash(), samples, seed,
                expected_edges=plan.num_edges,
            )

        start = time.perf_counter()
        # A broken catalog reads as a miss: fall through to sampling.
        words = self._store_call(load, None)
        if words is not None:
            batch = batch_from_words(words, samples)
            elapsed = time.perf_counter() - start
            self._remember_batch(key, batch, elapsed)
            return batch, elapsed, "store"
        start = time.perf_counter()
        batch = sample_worlds(plan, samples, np.random.default_rng(seed))
        elapsed = time.perf_counter() - start
        self._save_batch(samples, seed, batch)
        self._remember_batch(key, batch, elapsed)
        return batch, elapsed, "sampled"

    def _remember_batch(
        self, key: Tuple[int, int], batch: "WorldBatch", elapsed: float
    ) -> None:
        """Insert a batch into the bounded in-memory cache.

        Cached batches are shared by every later query with the same
        ``(Z, seed)`` — their arrays are frozen read-only so an aliased
        in-place write fails fast instead of silently corrupting every
        sharer (the mmap store tier is read-only already; this closes
        the memory tier).
        """
        sanitize.freeze(batch.alive)
        sanitize.freeze(batch.valid)
        while len(self._worlds) >= _MAX_CACHED_BATCHES:
            # FIFO eviction keeps long-lived heterogeneous sessions
            # bounded; dict preserves insertion order.
            self._worlds.pop(next(iter(self._worlds)))
        self._worlds[key] = (batch, elapsed)

    def _reach_for(self, samples: int, seed: int) -> Dict[int, "np.ndarray"]:
        """The reach-fixpoint cache for ``(Z, seed)``.

        A cached fixpoint stays valid across world-batch eviction —
        every batch tier rebuilds ``(Z, seed)`` bit-identically — so
        reach entries are bounded separately
        (:data:`_MAX_CACHED_REACH`), FIFO by batch key.
        """
        return self._reach.setdefault((samples, seed), {})

    def _trim_reach(self) -> None:
        """Enforce the reach-cache bound (whole batch keys at a time)."""
        total = sum(len(states) for states in self._reach.values())
        while total > _MAX_CACHED_REACH and self._reach:
            key = next(iter(self._reach))
            total -= len(self._reach.pop(key))

    # ------------------------------------------------------------------
    # streaming updates
    # ------------------------------------------------------------------
    def apply_delta(self, delta: GraphDelta) -> DeltaReport:
        """Apply edge edits to the live graph, repairing caches in place.

        The delta mutates :attr:`graph` (deletes before upserts), then
        every cached world batch is *repaired* instead of evicted:
        untouched edges keep their rows (bit-identical under the keyed
        coin contract), edited edges get exactly their rows re-flipped
        (:func:`repro.engine.kernel.repair_batch`), and cached
        reached fixpoints are resumed from the edited endpoints when
        the edit is monotone for them — dropped (to recompute lazily)
        when it is not.  With a store attached, repaired batches
        persist back under the graph's new content hash.

        Falls back to plain eviction when there is nothing worth
        repairing (no cached batches) or when the
        ``session.delta.apply`` fault seam fires — degradation changes
        cost, never answers.  Either way, post-delta results are
        bit-for-bit what a cold session on the edited graph computes
        (``tests/test_delta_parity.py`` pins this).
        """
        self._affinity.check("Session.apply_delta")
        self._sync_version()
        start = time.perf_counter()
        old_plan = self._plan
        old_worlds = dict(self._worlds)
        old_reach = {key: dict(states) for key, states in self._reach.items()}
        delta.apply_to(self.graph)  # validates first; all-or-nothing
        if old_plan is not None and old_worlds:
            try:
                fault_point("session.delta.apply", FaultError)
                return self._repair_after_delta(
                    delta, old_plan, old_worlds, old_reach, start
                )
            except FaultError:
                # Chaos path: degrade to eviction — slower, never wrong.
                pass
        self.invalidate()
        self._sync_version()
        return DeltaReport(
            strategy="evict",
            num_edits=delta.num_edits,
            version=self.graph.version,
            content_hash=self.graph_hash(),
            seconds=time.perf_counter() - start,
        )

    def _repair_after_delta(
        self,
        delta: GraphDelta,
        old_plan: "QueryPlan",
        old_worlds: Dict[Tuple[int, int], Tuple["WorldBatch", float]],
        old_reach: Dict[Tuple[int, int], Dict[int, "np.ndarray"]],
        start: float,
    ) -> DeltaReport:
        """Repair strategy of :meth:`apply_delta` (caches live)."""
        new_plan = compile_plan(self.graph)
        self._version = self.graph.version
        self._plan = new_plan
        self._worlds = {}
        self._reach = {}
        repaired = resumed = dropped = persisted = 0
        for key, states in old_reach.items():
            if key not in old_worlds:
                # No batch to repair against (it was FIFO-evicted);
                # these fixpoints recompute lazily.
                dropped += len(states)
        for (samples, seed), (batch, elapsed) in old_worlds.items():
            # The batch's key root is recomputable from the seed alone:
            # sampling consumed exactly one uint64 (see coin_base).
            base = coin_base(np.random.default_rng(seed))
            new_batch, changes = repair_batch(new_plan, old_plan, batch, base)
            repaired += 1
            kept, n_resumed, n_dropped = self._repair_reach(
                new_plan, new_batch, changes,
                old_reach.get((samples, seed), {}),
            )
            resumed += n_resumed
            dropped += n_dropped
            self._remember_batch((samples, seed), new_batch, elapsed)
            if kept:
                self._reach[(samples, seed)] = kept
            # Rekey under the post-delta content hash so the next
            # restart (or shard) warm-starts on the edited graph.
            persisted += self._save_batch(samples, seed, new_batch)
        self._trim_reach()
        return DeltaReport(
            strategy="repair",
            num_edits=delta.num_edits,
            version=self.graph.version,
            content_hash=self.graph_hash(),
            repaired_batches=repaired,
            resumed_states=resumed,
            dropped_states=dropped,
            persisted_batches=persisted,
            seconds=time.perf_counter() - start,
        )

    def _repair_reach(
        self,
        plan: "QueryPlan",
        batch: "WorldBatch",
        changes: Sequence[Any],
        states: Dict[int, "np.ndarray"],
    ) -> Tuple[Dict[int, "np.ndarray"], int, int]:
        """Carry reached fixpoints across a repaired batch.

        For every cached per-source fixpoint: coin-row *removals* keep
        the state exact iff the source never reached the edge's tail
        (either endpoint, undirected) in a removed world — a removed
        world-bit only matters when the edge was traversable from the
        reached set, so a clean overlap check proves the old fixpoint
        is the new one.  Dirty states are dropped (they recompute
        lazily).  Coin-row *additions* are monotone:
        :func:`~repro.engine.kernel.seed_resume` pads the state and
        seeds the far endpoint with the worlds the near one already
        reaches, then one
        :func:`~repro.engine.kernel.batch_reach_resume` from the
        seeded endpoints converges to the exact new fixpoint.  The
        resume runs over a world-compacted sub-batch
        (:func:`~repro.engine.kernel.extract_worlds`) holding only the
        columns where some edit flipped a coin on — worlds are
        column-independent, so the narrow sweep is bit-exact and costs
        ``W'/W`` of a full-width one.
        """
        if not states:
            return {}, 0, 0
        removals = [c for c in changes if bool(np.any(c.removed))]
        additions = [c for c in changes if bool(np.any(c.added))]
        kept: Dict[int, "np.ndarray"] = {}
        resumed = dropped = 0
        # Worlds are column-independent, so only the worlds where some
        # edited edge gained a coin can grow any fixpoint.  Resume over
        # a sub-batch of exactly those columns (built lazily, shared by
        # every state) at W'/W of the full-width sweep cost.
        gain_index: Optional["np.ndarray"] = None
        compact_batch: Optional["WorldBatch"] = None
        if additions:
            gain_mask = additions[0].added.copy()
            for change in additions[1:]:
                gain_mask |= change.added
            gain_index = world_index_of(gain_mask)
        added_arcs = [(c.u, c.v, c.added) for c in additions]
        for src, state in states.items():
            dirty = False
            for change in removals:
                u_idx = plan.index_of[change.u]
                v_idx = plan.index_of[change.v]
                touch = state[u_idx]
                if not plan.directed:
                    touch = touch | state[v_idx]
                if bool(np.any(touch & change.removed)):
                    dirty = True
                    break
            if dirty:
                dropped += 1
                continue
            # Pads rows for interned nodes even with nothing to seed.
            state, frontier = seed_resume(plan, state, added_arcs)
            if frontier and gain_index is not None and gain_index.size:
                if compact_batch is None:
                    compact_batch = extract_worlds(batch, gain_index)
                narrow = extract_world_columns(state, gain_index)
                seeded = narrow.copy()
                batch_reach_resume(plan, compact_batch, narrow, frontier)
                # Scatter back only the rows the resume actually grew;
                # seeds were applied full-width above already.
                grew = np.flatnonzero(np.any(narrow != seeded, axis=1))
                if grew.size:
                    state[grew] = scatter_world_columns(
                        state[grew], narrow[grew], gain_index
                    )
            kept[src] = state
            resumed += 1
        return kept, resumed, dropped

    def selection_kernel(
        self, estimator: ReliabilityEstimator
    ) -> Optional["SelectionGainKernel"]:
        """Batched gain kernel over the session's cached plan and worlds.

        :func:`~repro.baselines.common.selection_kernel_for` on the
        session's compiled plan and, for the plain-batch backends
        (``mc``/``lazy``), its cached ``(Z, seed)`` world batch, so
        consecutive maximize queries with the same sampler
        configuration skip both compilation and coin flips.  ``None``
        when the estimator has no selection backend (exact or
        third-party estimators); selection loops then run per-candidate.
        """
        return selection_kernel_for(
            self.graph, estimator, plan=self.plan()[0],
            worlds=lambda samples, seed: self.world_batch(samples, seed)[0],
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, workload: Union[Workload, Sequence[Query]]) -> List[Result]:
        """Execute a workload; results align with query order.

        Reliability queries are grouped by their
        :func:`~repro.api.queries.batch_key` ``(estimator, Z, seed)``:
        world-sharing groups are answered against one cached batch with
        one batch-BFS per distinct source; other estimators run
        per-query with a fresh, deterministically-seeded sampler.
        Maximize queries are batched too: their paired base evaluations
        are answered in *one* shared-batch pass over all their pairs
        before the queries execute in submission order, and every
        selection loop whose estimator admits shared worlds runs on the
        session's cached plan and world batches.
        """
        if not isinstance(workload, Workload):
            workload = Workload(workload)
        self._affinity.check("Session.run")
        self._sync_version()
        results: List[Optional[Result]] = [None] * len(workload)

        groups: Dict[BatchKey, List[Tuple[int, ReliabilityQuery]]] = {}
        maximize_members: List[Tuple[int, MaximizeQuery]] = []
        for index, query in enumerate(workload):
            if isinstance(query, MaximizeQuery):
                maximize_members.append((index, query))
            else:
                groups.setdefault(batch_key(query, self.seed), []).append(
                    (index, query)
                )
        if maximize_members:
            self._run_maximize_batch(maximize_members, results)

        for (name, samples, key_seed), members in groups.items():
            seed = cast(int, key_seed)  # batch_key resolved None to self.seed
            spec = estimator_spec(name)
            if spec.shares_worlds:
                self._run_shared(name, samples, seed, members, results)
            else:
                if not spec.fixed_samples and len(members) > 1:
                    warnings.warn(
                        f"estimator {name!r} chooses Z adaptively and cannot "
                        f"share a fixed-Z world batch; running "
                        f"{len(members)} queries individually",
                        stacklevel=2,
                    )
                self._run_individual(name, samples, seed, members, results)
        # Every index was filled by exactly one of the dispatchers above.
        return cast(List[Result], results)

    def _run_maximize_batch(
        self,
        members: List[Tuple[int, MaximizeQuery]],
        results: List[Optional[Result]],
    ) -> None:
        """Execute a workload's maximize queries with shared evaluation.

        The paired *base* evaluation of every query — the reliability of
        its ``(source, target)`` pair before any edges are added — is
        answered in one shared-batch ``evaluate_pairs`` call (one sweep
        group instead of one per query), bit-for-bit identical to what
        each query's standalone execution would compute from the same
        cached batch.  Selection then runs per query in submission
        order, reusing the session's compiled plan and world-batch
        cache (see :meth:`selection_kernel`).
        """
        from .maximize import execute_maximize  # local: keep import light

        base_values = self.evaluate_pairs(
            [(query.source, query.target) for _, query in members]
        )
        for (index, query), base in zip(members, base_values, strict=True):
            results[index] = execute_maximize(self, query, base_value=base)

    def _run_shared(
        self,
        name: str,
        samples: int,
        seed: int,
        members: List[Tuple[int, ReliabilityQuery]],
        results: List[Optional[Result]],
    ) -> None:
        """Answer a world-sharing group against one cached batch.

        All pairs of all member queries go through one
        ``pair_hit_fractions`` call, which runs one batch BFS per
        distinct *source* — multi-target queries and repeated sources
        are free.  Timings on each result are the group's batched
        totals, not per-query costs.

        With a persistent store attached, the group consults the
        exact-match result cache first: pairs already answered for this
        graph content under ``(estimator, Z, seed)`` skip the sweep
        entirely (a fully-cached group never even materializes a world
        batch), and freshly computed values are written back.  Cached
        values are bit-for-bit what the sweep would produce — the key
        pins the deterministic computation completely.
        """
        all_pairs: List[Pair] = []
        for _, query in members:
            all_pairs.extend(query.pairs)
        values, cached_values, world_source, timings = self._shared_values(
            name, all_pairs, samples, seed
        )
        batch_was_cached = world_source in ("memory", "store")
        for index, query in members:
            if self.store is not None:
                hits = sum(1 for pair in query.pairs if pair in cached_values)
                cache_hits: Optional[int] = hits
                cache_misses: Optional[int] = len(query.pairs) - hits
            else:
                cache_hits = cache_misses = None
            results[index] = ReliabilityResult(
                query=query,
                values=tuple(values[pair] for pair in query.pairs),
                provenance=Provenance(
                    estimator=name,
                    samples=samples,
                    seed=seed,
                    shared_worlds=(
                        batch_was_cached
                        or len(members) > 1
                        or world_source is None
                    ),
                    timings=timings,
                    world_source=world_source,
                    cache_hits=cache_hits,
                    cache_misses=cache_misses,
                ),
            )

    def _shared_values(
        self, name: str, pairs: Sequence[Pair], samples: int, seed: int
    ) -> Tuple[Dict[Pair, float], Dict[Pair, float], Optional[str], Timings]:
        """``(values, cached, world_source, timings)`` for shared pairs.

        Pairs the store's result cache holds under ``(name, Z, seed)``
        come back in ``cached`` and skip the sweep.  The rest go through
        one ``pair_hit_fractions`` call over the session's plan, world
        batch and reach fixpoints, and are written back to the store.
        ``world_source`` is ``None`` when nothing was swept: a fully
        cached set of pairs never touches a plan or a world batch.
        """

        def get(store: "IndexStore") -> Dict[Pair, float]:
            fault_point("session.store.get_results", StoreError)
            return store.get_results(
                self.graph_hash(), name, pairs, samples, seed
            )

        start = time.perf_counter()
        cached = self._store_call(get, {})
        missing = [
            pair for pair in dict.fromkeys(pairs) if pair not in cached
        ]
        solve_s = time.perf_counter() - start
        compile_s = sample_s = 0.0
        world_source: Optional[str] = None
        values = dict(cached)
        if missing:
            plan, compile_s = self.plan()
            batch, sample_s, world_source = self.world_batch(samples, seed)
            start = time.perf_counter()
            fresh = pair_hit_fractions(
                plan, batch, missing, samples,
                reach_cache=self._reach_for(samples, seed),
            )
            self._trim_reach()
            solve_s += time.perf_counter() - start
            values.update(fresh)

            def put(store: "IndexStore") -> None:
                fault_point("session.store.put_results", StoreError)
                store.put_results(
                    self.graph_hash(), name, fresh, samples, seed
                )

            self._store_call(put, None)
        timings = Timings(
            compile_seconds=compile_s,
            sample_seconds=sample_s,
            solve_seconds=solve_s,
        )
        return values, cached, world_source, timings

    def _run_individual(
        self,
        name: str,
        samples: int,
        seed: int,
        members: List[Tuple[int, ReliabilityQuery]],
        results: List[Optional[Result]],
    ) -> None:
        """Per-query path: fresh deterministic sampler per query.

        Each query gets its own estimator seeded ``seed``, so results
        equal a one-off call with the same configuration regardless of
        the query's position in the workload.
        """
        for index, query in members:
            estimator = make_estimator(name, samples, seed=seed)
            start = time.perf_counter()
            values = tuple(
                estimator.reliability(self.graph, s, t)
                for s, t in query.pairs
            )
            solve_s = time.perf_counter() - start
            results[index] = ReliabilityResult(
                query=query,
                values=values,
                provenance=Provenance(
                    estimator=name,
                    samples=samples,
                    seed=seed,
                    shared_worlds=False,
                    timings=Timings(solve_seconds=solve_s),
                ),
            )

    # ------------------------------------------------------------------
    # convenience entry points
    # ------------------------------------------------------------------
    def reliability(
        self,
        source: int,
        target: Optional[int] = None,
        targets: Optional[Sequence[int]] = None,
        estimator: str = "mc",
        samples: int = 1000,
        seed: Optional[int] = None,
    ) -> ReliabilityResult:
        """One-call reliability estimate through the session caches."""
        query = ReliabilityQuery(
            source,
            target=target,
            targets=tuple(targets) if targets is not None else None,
            estimator=estimator,
            samples=samples,
            seed=seed,
        )
        return self.run(Workload([query]))[0]

    def maximize(self, query: MaximizeQuery) -> MaximizeResult:
        """Execute one maximize query (see :mod:`repro.api.maximize`)."""
        from .maximize import execute_maximize  # local: keep import light

        self._affinity.check("Session.maximize")
        self._sync_version()
        return execute_maximize(self, query)

    # ------------------------------------------------------------------
    # paired evaluation (used by maximize execution)
    # ------------------------------------------------------------------
    def evaluate_pairs(
        self,
        pairs: Sequence[Pair],
        extra_edges: Optional[Sequence[ProbEdge]] = None,
        samples: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> List[float]:
        """Paired-seed MC evaluation of pairs in the session's worlds.

        Every pair is answered inside the session's cached ``(Z, seed)``
        world batch (:meth:`world_batch`).  Candidate ``extra_edges``
        extend that batch with the overlay's keyed coin rows under the
        batch's key root ``coin_base(default_rng(seed))``
        (:func:`repro.engine.overlay_batch`), so only the overlay edges
        are flipped.  Either way the values equal what a standalone
        ``MonteCarloEstimator(Z, seed=seed).pair_reliabilities`` returns
        for the same pairs and overlay, so gains stay comparable across
        methods and sessions.  Overlay-free evaluations share the
        store's result cache and the reach-fixpoint cache with ``mc``
        reliability queries; overlay evaluations read and write
        neither.
        """
        self._affinity.check("Session.evaluate_pairs")
        _check_sampling(samples, seed)
        samples = samples if samples is not None else self.evaluation_samples
        seed = seed if seed is not None else self.evaluation_seed
        pairs = list(pairs)
        if not pairs:
            return []
        if not extra_edges:
            # The same deterministic hit fractions over the same
            # (Z, seed) batch as mc reliability queries, so they share
            # the "mc" result-cache namespace.
            values, _, _, _ = self._shared_values("mc", pairs, samples, seed)
        else:
            plan, batch = overlay_batch(
                self.plan()[0], self.world_batch(samples, seed)[0],
                coin_base(np.random.default_rng(seed)), extra_edges,
            )
            values = pair_hit_fractions(plan, batch, pairs, samples)
        return [values[pair] for pair in pairs]

    def evaluate(
        self,
        source: int,
        target: int,
        extra_edges: Optional[Sequence[ProbEdge]] = None,
        samples: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> float:
        """Reliability of one pair under the paired evaluation sampler."""
        _check_sampling(samples, seed)
        if source == target:
            return 1.0
        return self.evaluate_pairs(
            [(source, target)], extra_edges, samples=samples, seed=seed
        )[0]
