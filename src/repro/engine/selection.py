"""Batched candidate-gain kernel: every candidate edge against one
shared world batch.

Greedy selection (hill climbing, individual top-k) is the paper's
quality frontier and its cost wall: one round of the naive greedy
re-estimates reliability once per candidate — ``O(|C| * Z * (n + m))``
per round.  This kernel collapses a round to **two batch-BFS sweeps
plus bitwise ops**: one forward sweep from ``s`` and one reverse sweep
into ``t`` over the current graph-plus-selected overlay, after which
every candidate's marginal gain is a keyed coin row plus
AND/OR + popcount over uint64 words — ``O(Z / 64)`` words per
candidate.

Exactness of the single-edge gain identity
------------------------------------------
Fix one sampled world ``G_i`` (base graph plus already-selected edges,
each with its sampled state) and one candidate edge ``e = (u, v)`` with
its own independent coin ``c_i``.  Any ``s``-``t`` path in ``G_i + e``
either avoids ``e`` — then it is an ``s``-``t`` path of ``G_i`` — or it
can be shortened to a *simple* path that uses ``e`` exactly once, and a
simple path using ``e`` once decomposes into an ``s``⇝``u`` prefix and
a ``v``⇝``t`` suffix inside ``G_i`` (or ``s``⇝``v`` and ``u``⇝``t`` for
the other orientation of an undirected edge).  Hence, bit-exactly per
world::

    s⇝t in G_i + e  ⇔  s⇝t in G_i
                        OR (c_i AND ((s⇝u AND v⇝t) OR (s⇝v AND u⇝t)))

One forward batch BFS gives every ``s⇝x`` bitmask (``F``), one reverse
batch BFS over :meth:`~repro.engine.csr.QueryPlan.reverse_view` gives
every ``x⇝t`` bitmask (``R``), and the candidate's new-world hits are
``c AND (F[u] & R[v] | F[v] & R[u]) AND NOT already`` — no
approximation is involved: the kernel's per-candidate estimate equals
the brute-force estimate obtained by appending the candidate (with the
same coin row) to the batch and re-running the full BFS.

Incremental restarts across greedy rounds
-----------------------------------------
Committing a winner ``(u, v)`` with coin row ``c`` changes
reachability *only* in worlds where ``c`` landed heads, and only
downstream of the winner's endpoints.  Because batch reachability is
monotone (the old fixpoint is a valid partial state of the new one),
the next round's forward mask is obtained by seeding
``F[v] |= c & F[u]`` (plus the swap for undirected edges) and resuming
the sweep from the endpoints whose rows changed
(:func:`~repro.engine.kernel.batch_reach_resume`) — instead of
re-sweeping all ``Z`` worlds from ``s`` and ``t`` from scratch.  The
restart converges to the exact same fixpoint bit for bit (pinned by
``tests/test_selection_incremental.py``); ``incremental=False`` keeps
the full re-sweep for comparison, and
``benchmarks/bench_sweep_gated.py`` gates the per-round speedup.

Determinism & tie-breaking
--------------------------
Candidate coin rows come from the identity-keyed coin stream that
samples world batches (:func:`~repro.engine.kernel.keyed_coin_rows`),
in one vectorized call per round: candidate ``(u, v, p)`` gets the
keyed row of edge identity ``(u, v, 0)`` — canonical endpoints — under
the per-round root ``coin_base(default_rng([seed, round, tag]))``.
The domain tag keeps round 0 off the root of same-seed world batches
(see :data:`_CANDIDATE_TAG`).  Rows are fresh every round and
independent of the base batch and of candidate *position*, so
duplicated candidates draw identical coins and tie exactly.  Coins are
drawn over the batch's full ``W * 64`` word width and ANDed with its
``valid`` mask, so prefix batches and interior-pad factory batches
share one path and pad bits stay zero.  Ties (equal popcount) are
broken by the **lowest candidate index** (numpy ``argmax`` / stable
sort first-max), matching the per-candidate loop's first-maximum scan;
the contract is pinned by ``tests/test_selection_semantics.py``.

Custom base batches (per-stratum / per-block backends)
------------------------------------------------------
The gain identity above is exact *per world* no matter how the worlds
were sampled, so the kernel also accepts a ``batch_factory`` building
a query-specific base batch: recursive stratified sampling supplies a
level-1 stratified batch (proportional allocation keeps the uniform
batch average equal to the stratified estimate) and adaptive MC
supplies a per-block batch grown until its confidence interval is
tight — which is how ``rss`` and ``adaptive`` estimators drive
vectorized selection (see
:meth:`repro.reliability.estimator.ReliabilityEstimator.selection_backend`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis import sanitize
from ..graph import UncertainGraph
from .csr import (
    ProbEdge,
    QueryPlan,
    compile_plan,
    extend_with_overlay,
)
from .kernel import (
    WorldBatch,
    batch_reach,
    batch_reach_resume,
    coin_base,
    extend_batch,
    keyed_coin_rows,
    popcount,
    reach_each,
    sample_worlds,
)

Pair = Tuple[int, int]

#: Domain tag of the per-round candidate coin root
#: ``coin_base(default_rng([seed, round, tag]))``.  SeedSequence
#: zero-pads its entropy, so an untagged ``[seed, 0]`` would draw the
#: same root as ``default_rng(seed)`` — the base of every same-seed
#: batch — and round-0 candidate rows would equal the overlay rows an
#: ``mc`` estimator at the selection seed samples when it re-evaluates
#: the chosen edges.
_CANDIDATE_TAG = 0x63616E64

#: ``factory(graph, plan, source, target) -> WorldBatch`` building a
#: query-specific base batch (see the module docstring).
BatchFactory = Callable[
    [UncertainGraph, QueryPlan, int, int], WorldBatch
]

#: Factory-built query batches cached per kernel (FIFO bound, matching
#: the memory discipline of ``Session.world_batch``).
_MAX_QUERY_BATCHES = 8

#: Aggregates supported by :meth:`SelectionGainKernel.greedy_select_multi`.
_AGGREGATES = {
    "avg": lambda counts: counts.mean(axis=0),
    "average": lambda counts: counts.mean(axis=0),
    "min": lambda counts: counts.min(axis=0),
    "minimum": lambda counts: counts.min(axis=0),
    "max": lambda counts: counts.max(axis=0),
    "maximum": lambda counts: counts.max(axis=0),
}


class SelectionGainKernel:
    """Batched per-candidate gain evaluation over one shared world batch.

    Parameters
    ----------
    graph:
        The base graph candidates would be added to.
    num_samples:
        Worlds per estimate (``Z``).
    seed:
        Root seed: the base batch is the batch a fresh engine seeded
        ``seed`` would sample, and candidate coin rows derive from
        ``(seed, round, endpoints)``, so selections are deterministic
        regardless of any sampler's prior call history.
    plan / batch:
        Optional pre-compiled plan and pre-sampled batch (e.g. a
        :class:`repro.api.Session`'s cached ones).  ``batch`` must be
        the batch a fresh ``default_rng(seed)`` would sample over
        ``plan`` for results to be reproducible across call sites.
    batch_factory:
        Query-specific base-batch builder
        (``factory(graph, plan, source, target) -> WorldBatch``) for
        estimators whose sampling is conditioned per query — the
        per-stratum (``rss``) and per-block (``adaptive``) selection
        backends.  Mutually exclusive with ``batch``; built lazily on
        the first non-degenerate query and cached per ``(source,
        target)``.
    incremental:
        Maintain the forward/reverse reached masks across greedy
        rounds by restarting sweeps from each committed winner's
        endpoints (monotone-exact; see the module docstring).
        ``False`` re-sweeps from scratch every round — bit-identical,
        only slower.
    """

    def __init__(
        self,
        graph: UncertainGraph,
        num_samples: int,
        seed: int = 0,
        plan: Optional[QueryPlan] = None,
        batch: Optional[WorldBatch] = None,
        batch_factory: Optional[BatchFactory] = None,
        incremental: bool = True,
    ) -> None:
        if num_samples < 1:
            raise ValueError("num_samples must be positive")
        if batch is not None and batch_factory is not None:
            raise ValueError("pass either batch or batch_factory, not both")
        self.graph = graph
        self.num_samples = int(num_samples)
        self.seed = seed
        self.incremental = incremental
        self.batch_factory = batch_factory
        self.plan = plan if plan is not None else compile_plan(graph)
        if batch is not None:
            self.batch: Optional[WorldBatch] = batch
        elif batch_factory is None:
            self.batch = sample_worlds(
                self.plan, self.num_samples, np.random.default_rng(seed)
            )
        else:
            self.batch = None
            self._query_batches: Dict[Pair, WorldBatch] = {}

    def base_batch(self, source: int, target: int) -> WorldBatch:
        """The base world batch gains for ``(source, target)`` use.

        The shared eagerly-sampled batch, unless the kernel was built
        with a ``batch_factory`` — then the factory's query-specific
        batch, built once per ``(source, target)`` and cached.
        """
        if self.batch is not None:
            return self.batch
        key = (source, target)
        cached = self._query_batches.get(key)
        if cached is None:
            cached = self.batch_factory(
                self.graph, self.plan, source, target
            )
            while len(self._query_batches) >= _MAX_QUERY_BATCHES:
                # FIFO bound, like the session's world-batch cache:
                # long-lived kernels serving many (s, t) queries must
                # not accumulate one full batch per pair forever.
                self._query_batches.pop(next(iter(self._query_batches)))
            self._query_batches[key] = cached
        return cached

    # ------------------------------------------------------------------
    # coin rows
    # ------------------------------------------------------------------
    def candidate_rows(
        self,
        round_index: int,
        edges: Sequence[ProbEdge],
        batch: Optional[WorldBatch] = None,
    ) -> np.ndarray:
        """Bit-packed coin rows ``(len(edges), W)`` for one greedy round.

        One vectorized :func:`~repro.engine.kernel.keyed_coin_rows`
        call: candidate ``(u, v, p)`` gets the keyed row of edge
        identity ``(u, v, 0)`` under the round's tagged root
        ``coin_base(default_rng([seed, round, tag]))`` (see
        :data:`_CANDIDATE_TAG`).  Undirected endpoints fold onto
        ``(min, max)`` like the edge table, so both orientations of one
        candidate draw the same coins and tie exactly.

        ``batch`` fixes the word layout the rows must match: coins cover
        its full ``W * 64`` width and are ANDed with ``batch.valid``, so
        prefix batches and the interior-pad layouts of factory batches
        share one path.  Defaults to the kernel's shared batch; factory
        kernels have no shared batch — pass the query's (see
        :meth:`base_batch`).
        """
        if batch is None:
            batch = self.batch
            if batch is None:
                raise ValueError(
                    "this kernel builds its base batch per query "
                    "(batch_factory); pass batch=base_batch(source, "
                    "target) explicitly"
                )
        count = len(edges)
        u = np.fromiter((e[0] for e in edges), dtype=np.int64, count=count)
        v = np.fromiter((e[1] for e in edges), dtype=np.int64, count=count)
        p = np.fromiter((e[2] for e in edges), dtype=np.float64, count=count)
        if sanitize.enabled():
            sanitize.check_probabilities(p, "candidate_rows: p")
        if not self.plan.directed:
            u, v = np.minimum(u, v), np.maximum(u, v)
        root = coin_base(
            np.random.default_rng([self.seed, round_index, _CANDIDATE_TAG])
        )
        return keyed_coin_rows(
            root, u, v, np.zeros(count, dtype=np.int64), p, batch.valid
        )

    # ------------------------------------------------------------------
    # single-pair selection
    # ------------------------------------------------------------------
    def individual_gains(
        self,
        source: int,
        target: int,
        candidates: Sequence[ProbEdge],
    ) -> np.ndarray:
        """New-world hit counts of adding each candidate *alone*.

        Returns an int64 array aligned with ``candidates``; the
        reliability gain estimate of candidate ``j`` is
        ``gains[j] / num_samples``.  Exact against the shared batch (see
        the module docstring), hence always non-negative.
        """
        candidates = list(candidates)
        src = self.plan.node_index(source)
        dst = self.plan.node_index(target)
        if source == target or src is None or dst is None:
            return np.zeros(len(candidates), dtype=np.int64)
        batch = self.base_batch(source, target)
        forward = batch_reach(self.plan, batch, [src])
        reverse = batch_reach(self.plan.reverse_view(), batch, [dst])
        rows = self.candidate_rows(0, candidates, batch)
        return self._gains(self.plan, forward, reverse, dst, candidates, rows)

    def top_k(
        self,
        source: int,
        target: int,
        k: int,
        candidates: Sequence[ProbEdge],
    ) -> List[ProbEdge]:
        """Individual Top-k: the ``k`` best candidates by solo gain.

        Stable-sorted, so equal gains preserve candidate order — the
        same tie behavior as the scalar baseline's stable sort.
        """
        if k < 1:
            raise ValueError("k must be positive")
        candidates = list(candidates)
        gains = self.individual_gains(source, target, candidates)
        order = np.argsort(-gains, kind="stable")
        return [candidates[int(i)] for i in order[:k]]

    def greedy_select(
        self,
        source: int,
        target: int,
        k: int,
        candidates: Sequence[ProbEdge],
    ) -> List[ProbEdge]:
        """Hill climbing: ``k`` rounds of batched marginal-gain argmax.

        Round 0 costs one forward and one reverse batch BFS; later
        rounds *resume* those sweeps from the previous winner's
        endpoints restricted to the worlds where its coin landed heads
        (monotone-exact, see the module docstring), then ``O(Z/64)``
        words per candidate.  The winner's coin row is appended to the
        batch, so the next round's "current" reliability is conditioned
        on the exact worlds in which the winner was evaluated — one
        persistent world batch across the whole selection.
        """
        if k < 1:
            raise ValueError("k must be positive")
        candidates = list(candidates)
        selected: List[ProbEdge] = []
        remaining = list(range(len(candidates)))
        plan = self.plan
        src = plan.node_index(source)
        dst = plan.node_index(target)
        # Degenerate queries (s == t, or an endpoint the graph has never
        # seen) have constant objective: the scalar greedy sees all-equal
        # values and always pops the lowest remaining index.
        degenerate = source == target or src is None or dst is None
        batch = None if degenerate else self.base_batch(source, target)
        forward: Optional[np.ndarray] = None
        reverse: Optional[np.ndarray] = None
        while len(selected) < k and remaining:
            if degenerate:
                selected.append(candidates[remaining.pop(0)])
                continue
            if forward is None:
                forward = batch_reach(plan, batch, [src])
                reverse = batch_reach(plan.reverse_view(), batch, [dst])
            round_index = len(selected)
            pool = [candidates[j] for j in remaining]
            rows = self.candidate_rows(round_index, pool, batch)
            gains = self._gains(plan, forward, reverse, dst, pool, rows)
            best = int(np.argmax(gains))  # first max = lowest index
            edge = candidates[remaining.pop(best)]
            selected.append(edge)
            if len(selected) >= k or not remaining:
                break  # no further rounds to prepare state for
            plan = extend_with_overlay(plan, [edge])
            batch = extend_batch(batch, rows[best][None, :])
            if self.incremental:
                forward, reverse = self._advance_masks(
                    plan, batch, forward, reverse, edge, rows[best]
                )
            else:
                forward = reverse = None  # full re-sweep next round
        return selected

    # ------------------------------------------------------------------
    # multi-pair selection (aggregate objectives, Tables 23-25)
    # ------------------------------------------------------------------
    def greedy_select_multi(
        self,
        pairs: Sequence[Pair],
        k: int,
        candidates: Sequence[ProbEdge],
        aggregate: str = "avg",
    ) -> List[ProbEdge]:
        """Hill climbing on an aggregate of several ``(s, t)`` pairs.

        Round 0 sweeps the distinct sources, and the distinct targets
        of the reverse plan, through the fused multi-source path
        (:func:`~repro.engine.kernel.reach_each`); every
        candidate's updated per-pair hit counts are then pure bitwise
        ops.  The aggregate (``avg`` / ``min`` / ``max``) is taken over
        the pair axis and the first-max candidate wins.  Later rounds
        advance every maintained mask incrementally from the committed
        winner's endpoints (worlds where its coin landed heads) instead
        of re-sweeping, exactly like :meth:`greedy_select`.  The scalar
        equivalent re-runs ``pair_reliabilities`` once per candidate
        per round; matching its dict-valued objective, duplicate pairs
        are collapsed before aggregation (each distinct pair counts
        once).  With a ``batch_factory``, the first pair seeds the
        factory (one shared batch must serve every pair).
        """
        if k < 1:
            raise ValueError("k must be positive")
        try:
            agg = _AGGREGATES[aggregate]
        except KeyError:
            raise ValueError(
                f"unknown aggregate {aggregate!r}; expected one of "
                f"{sorted(_AGGREGATES)}"
            ) from None
        pairs = list(dict.fromkeys(pairs))  # dedupe, preserve order
        if not pairs:
            raise ValueError("pairs must be non-empty")
        candidates = list(candidates)
        selected: List[ProbEdge] = []
        remaining = list(range(len(candidates)))
        plan = self.plan
        # Seed a query-conditioned factory with the first *useful* pair:
        # a degenerate one (s == t, unknown endpoint) would collapse an
        # adaptive backend's shared batch to a single block for every
        # pair in the workload.
        seed_pair = next(
            (
                (s, t) for s, t in pairs
                if s != t
                and plan.node_index(s) is not None
                and plan.node_index(t) is not None
            ),
            pairs[0],
        )
        batch = self.base_batch(*seed_pair)
        forward: Optional[Dict[int, np.ndarray]] = None
        reverse: Optional[Dict[int, np.ndarray]] = None
        while len(selected) < k and remaining:
            if forward is None:
                forward, reverse = self._pair_masks(plan, batch, pairs)
            round_index = len(selected)
            pool = [candidates[j] for j in remaining]
            rows = self.candidate_rows(round_index, pool, batch)
            counts = self._pair_counts(
                plan, batch, pairs, pool, rows, forward, reverse
            )
            best = int(np.argmax(agg(counts)))  # first max = lowest index
            edge = candidates[remaining.pop(best)]
            selected.append(edge)
            if len(selected) >= k or not remaining:
                break
            plan = extend_with_overlay(plan, [edge])
            batch = extend_batch(batch, rows[best][None, :])
            if self.incremental:
                row = rows[best]
                forward = {
                    s: self._advance_forward(plan, batch, mask, edge, row)
                    for s, mask in forward.items()
                }
                reverse = {
                    t: self._advance_reverse(plan, batch, mask, edge, row)
                    for t, mask in reverse.items()
                }
                # A pair endpoint unknown to the base graph may have
                # just been interned by the committed overlay edge;
                # give it a fresh mask (the per-round rebuild used to
                # pick these up implicitly).
                for s, t in pairs:
                    si = plan.node_index(s)
                    if si is not None and s not in forward:
                        forward[s] = batch_reach(plan, batch, [si])
                    ti = plan.node_index(t)
                    if ti is not None and t not in reverse:
                        reverse[t] = batch_reach(
                            plan.reverse_view(), batch, [ti]
                        )
            else:
                forward = reverse = None
        return selected

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _gains(
        self,
        plan: QueryPlan,
        forward: np.ndarray,
        reverse: np.ndarray,
        dst: int,
        pool: Sequence[ProbEdge],
        rows: np.ndarray,
    ) -> np.ndarray:
        """New-world hit counts for one round's candidate pool.

        ``forward`` / ``reverse`` are the round's reached masks (fresh
        sweeps or incrementally maintained — identical either way);
        the pool is scored in one vectorized bitwise pass.
        """
        already = forward[dst]
        via = self._via_masks(
            plan, forward, reverse, self._resolve_endpoints(plan, pool)
        )
        # ~already sets pad bits, but coin rows keep pad bits zero, so
        # the AND chain stays pad-clean and popcounts stay exact.
        new_hits = rows & via & ~already[None, :]
        return popcount(new_hits).sum(axis=1, dtype=np.int64)

    def _advance_masks(
        self,
        plan: QueryPlan,
        batch: WorldBatch,
        forward: np.ndarray,
        reverse: np.ndarray,
        edge: ProbEdge,
        row: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fold a committed winner into the maintained ``(F, R)`` masks."""
        return (
            self._advance_forward(plan, batch, forward, edge, row),
            self._advance_reverse(plan, batch, reverse, edge, row),
        )

    def _advance_forward(
        self,
        plan: QueryPlan,
        batch: WorldBatch,
        reached: np.ndarray,
        edge: ProbEdge,
        row: np.ndarray,
    ) -> np.ndarray:
        """Resume a forward mask after committing ``edge`` with ``row``."""
        u, v, _p = edge
        return self._advance(
            plan, batch, reached, plan.node_index(u), plan.node_index(v),
            row,
        )

    def _advance_reverse(
        self,
        plan: QueryPlan,
        batch: WorldBatch,
        reached: np.ndarray,
        edge: ProbEdge,
        row: np.ndarray,
    ) -> np.ndarray:
        """Resume a reverse (into-target) mask after committing ``edge``.

        On the reverse plan the committed arc ``u -> v`` is traversed
        ``v -> u``: ``u`` reaches the target via ``v`` in worlds where
        the winner's coin landed heads.
        """
        u, v, _p = edge
        return self._advance(
            plan.reverse_view(), batch, reached,
            plan.node_index(v), plan.node_index(u), row,
        )

    @staticmethod
    def _advance(
        plan: QueryPlan,
        batch: WorldBatch,
        reached: np.ndarray,
        from_idx: Optional[int],
        to_idx: Optional[int],
        row: np.ndarray,
    ) -> np.ndarray:
        """Seed the winner's newly-reachable worlds and resume the sweep.

        ``reached[to] |= row & reached[from]`` (and the swap for
        undirected plans) is exactly the set of worlds the new edge
        connects that weren't connected before; restarting the sweep
        from the endpoints whose rows changed converges to the full
        re-sweep's fixpoint because reachability is monotone
        (:func:`~repro.engine.kernel.batch_reach_resume`).  No change
        means the mask already is the fixpoint and the sweep is
        skipped entirely.
        """
        if reached.shape[0] < plan.num_nodes:
            # The winner introduced overlay-only endpoints: their rows
            # start all-zero (unreachable until an edge connects them).
            pad = np.zeros(
                (plan.num_nodes - reached.shape[0], reached.shape[1]),
                dtype=np.uint64,
            )
            reached = np.concatenate([reached, pad])
        if from_idx is None or to_idx is None:  # pragma: no cover
            return reached
        frontier: List[int] = []
        new_to = row & reached[from_idx] & ~reached[to_idx]
        if new_to.any():
            reached[to_idx] |= new_to
            frontier.append(to_idx)
        if not plan.directed:
            new_from = row & reached[to_idx] & ~reached[from_idx]
            if new_from.any():
                reached[from_idx] |= new_from
                frontier.append(from_idx)
        if frontier:
            batch_reach_resume(plan, batch, reached, frontier)
        return reached

    @staticmethod
    def _resolve_endpoints(
        plan: QueryPlan,
        pool: Sequence[ProbEdge],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dense ``(ui, vi, known)`` endpoint arrays for a pool.

        Depends only on ``(plan, pool)`` — resolved once per round and
        reused across every pair of a multi-pair objective.
        """
        n = len(pool)
        ui = np.zeros(n, dtype=np.int64)
        vi = np.zeros(n, dtype=np.int64)
        known = np.ones(n, dtype=bool)
        for i, (u, v, _p) in enumerate(pool):
            a = plan.node_index(u)
            b = plan.node_index(v)
            if a is None or b is None:
                # A single new edge to a node outside the graph cannot
                # lie on any s-t path; its gain is structurally zero.
                known[i] = False
            else:
                ui[i] = a
                vi[i] = b
        return ui, vi, known

    @staticmethod
    def _via_masks(
        plan: QueryPlan,
        forward: np.ndarray,
        reverse: np.ndarray,
        endpoints: Tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> np.ndarray:
        """Per-candidate ``s⇝u AND v⇝t`` (plus swap when undirected)."""
        ui, vi, known = endpoints
        via = forward[ui] & reverse[vi]
        if not plan.directed:
            via |= forward[vi] & reverse[ui]
        via[~known] = 0
        return via

    def _pair_masks(
        self,
        plan: QueryPlan,
        batch: WorldBatch,
        pairs: Sequence[Pair],
    ) -> Tuple[Dict[int, np.ndarray], Dict[int, np.ndarray]]:
        """Forward masks per distinct source, reverse per distinct target.

        Both directions sweep their distinct endpoints through
        :func:`~repro.engine.kernel.reach_each` — the same fused,
        memory-chunked path as the session's pair sweeps.  Each mask is
        its own contiguous matrix, advanced independently across rounds.
        """
        sources: Dict[int, int] = {}  # endpoint id -> dense index
        targets: Dict[int, int] = {}
        for s, t in pairs:
            si, ti = plan.node_index(s), plan.node_index(t)
            if si is not None:
                sources.setdefault(s, si)
            if ti is not None:
                targets.setdefault(t, ti)
        forward: Dict[int, np.ndarray] = {}
        reverse: Dict[int, np.ndarray] = {}
        for out, ends, sweep_plan in (
            (forward, sources, plan),
            (reverse, targets, plan.reverse_view()),
        ):
            masks = reach_each(sweep_plan, batch, list(ends.values()))
            out.update(zip(ends, masks, strict=True))
        return forward, reverse

    def _pair_counts(
        self,
        plan: QueryPlan,
        batch: WorldBatch,
        pairs: Sequence[Pair],
        pool: Sequence[ProbEdge],
        rows: np.ndarray,
        forward: Dict[int, np.ndarray],
        reverse: Dict[int, np.ndarray],
    ) -> np.ndarray:
        """Updated hit counts ``(num_pairs, num_candidates)`` per pair.

        Entry ``[p, j]`` is the number of worlds in which pair ``p`` is
        connected after adding candidate ``j`` alone — the exact batch
        count against the round's maintained masks.
        """
        endpoints = self._resolve_endpoints(plan, pool)
        counts = np.empty((len(pairs), len(pool)), dtype=np.int64)
        for p_i, (s, t) in enumerate(pairs):
            if s == t:
                counts[p_i] = batch.num_samples
                continue
            ti = plan.node_index(t)
            if s not in forward or ti is None:
                counts[p_i] = 0
                continue
            already = forward[s][ti]
            base = int(popcount(already).sum())
            via = self._via_masks(plan, forward[s], reverse[t], endpoints)
            new_hits = rows & via & ~already[None, :]
            counts[p_i] = base + popcount(new_hits).sum(
                axis=1, dtype=np.int64
            )
        return counts
