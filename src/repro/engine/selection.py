"""Batched candidate-gain kernel: every candidate edge against one
shared world batch.

Greedy selection (hill climbing, individual top-k) is the paper's
quality frontier and its cost wall: one round of the naive greedy
re-estimates reliability once per candidate — ``O(|C| * Z * (n + m))``
per round.  This kernel collapses a round to **two batch-BFS sweeps
plus bitwise ops**: one forward sweep from ``s`` and one reverse sweep
into ``t`` over the current graph-plus-selected overlay, after which
every candidate's marginal gain is AND/OR + popcount over uint64 words
— ``O(Z / 64)`` words per candidate — plus keyed coins drawn only in
the words where the candidate's gain mask is nonzero.

There is one greedy loop,
:meth:`SelectionGainKernel.greedy_select_multi`, over an aggregate of
several ``(s, t)`` pairs (Problem 4, §6); single-pair hill climbing
(:meth:`SelectionGainKernel.greedy_select`) is its one-pair case, and
individual top-k scores one round of the same per-pair counts.

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
``F[v] |= c & F[u]`` (plus the swap for undirected edges;
:func:`~repro.engine.kernel.seed_resume`, the seed delta repair uses
too) and resuming the sweep from the endpoints whose rows changed
(:func:`~repro.engine.kernel.batch_reach_resume`) — instead of
re-sweeping all ``Z`` worlds from ``s`` and ``t`` from scratch.  The
greedy loop advances every pair's masks this way, so ``greedy_select``
and ``greedy_select_multi`` restart alike.  The restart converges to
the exact same fixpoint bit for bit (pinned by
``tests/test_selection_incremental.py``); ``incremental=False`` keeps
the full re-sweep for comparison, and
``benchmarks/bench_sweep_gated.py`` gates the per-round speedup.

Sparse coins
------------
A candidate's coins only matter in worlds its gain mask
``(F[u] & R[v] | F[v] & R[u]) & ~already`` covers, and greedy rounds
are mostly zero-gain candidates: on a 1000-node AS topology at
``Z = 1000`` the masks were nonzero in 3.5-12.3% of candidate words.
So a round draws coins one 64-bit word at a time, only where some
pair's mask word is nonzero (:func:`~repro.engine.kernel.keyed_coin_words`,
each word once across pairs), and the winner's full row alone
(:meth:`SelectionGainKernel.candidate_rows`) is appended to the batch.
The candidate list is resolved to endpoint, identity and probability
arrays once per call; a winner that interns new nodes triggers a
lookup of the still-unknown endpoints only.

Determinism & tie-breaking
--------------------------
Candidate coins come from the identity-keyed coin stream that samples
world batches (:func:`~repro.engine.kernel.keyed_coin_rows`):
candidate ``(u, v, p)`` gets the keyed row of edge identity
``(u, v, 0)`` — canonical endpoints — under the per-round root
``coin_base(default_rng([seed, round, tag]))``, whether a round draws
single words of it or the whole row.  The domain tag keeps round 0 off
the root of same-seed world batches (see :data:`_CANDIDATE_TAG`).
Rows are fresh every round and independent of the base batch and of
candidate *position*, so duplicated candidates draw identical coins
and tie exactly.  Rows span the batch's full ``W * 64`` word width and
are ANDed with its ``valid`` mask, so prefix batches and interior-pad
factory batches share one path and pad bits stay zero.  Ties (equal
popcount) are broken by the **lowest candidate index** (numpy
``argmax`` / stable sort first-max), matching the per-candidate loop's
first-maximum scan; the contract is pinned by
``tests/test_selection_semantics.py``.

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

from itertools import repeat
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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
    batch_reach_resume,
    coin_base,
    extend_batch,
    keyed_coin_rows,
    keyed_coin_words,
    popcount,
    reach_each,
    sample_worlds,
    seed_resume,
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

#: Aggregate objectives over several ``(s, t)`` pairs (Problem 4, §6),
#: by canonical name: the scalar over pair values, and the column-wise
#: reduction :meth:`SelectionGainKernel.greedy_select_multi` takes over
#: a round's ``(pairs, candidates)`` hit counts.
_AGGREGATES: Dict[str, Tuple[Callable, Callable]] = {
    "average": (
        lambda values: sum(values) / len(values),
        lambda counts: counts.mean(axis=0),
    ),
    "minimum": (min, lambda counts: counts.min(axis=0)),
    "maximum": (max, lambda counts: counts.max(axis=0)),
}

#: Canonical aggregate names (also exported as ``repro.core.AGGREGATES``).
AGGREGATES = tuple(_AGGREGATES)

_ALIASES = {"avg": "average", "min": "minimum", "max": "maximum"}


def aggregate_name(aggregate: str) -> str:
    """Canonical name of ``aggregate``; ``avg``/``min``/``max`` are aliases."""
    name = _ALIASES.get(aggregate, aggregate)
    if name not in _AGGREGATES:
        raise ValueError(
            f"unknown aggregate {aggregate!r}; expected one of {AGGREGATES}"
        )
    return name


def aggregate_value(values: Iterable[float], aggregate: str) -> float:
    """``aggregate`` of pair values, in iteration order; 0.0 when empty.

    The average is ``sum(values) / len(values)`` — not ``numpy.mean``,
    which sums in a different order and can differ in the last bit.
    """
    scalar = _AGGREGATES[aggregate_name(aggregate)][0]
    values = list(values)
    return scalar(values) if values else 0.0


class SelectionGainKernel:
    """Batched per-candidate gain evaluation over one shared world batch.

    Parameters
    ----------
    graph:
        The base graph candidates would be added to.
    num_samples:
        Worlds per estimate (``Z``).
    seed:
        Root seed: the base batch is ``sample_worlds(plan, Z,
        default_rng(seed))``, and candidate coin rows derive from
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
        candidate draw the same coins and tie exactly.  A greedy round
        scores candidates from single words of these rows, drawn only
        where a gain mask is nonzero, and calls this for the winner's
        full row alone (see :meth:`_pair_counts`).

        ``batch`` fixes the word layout the rows must match: coins are
        drawn at the set bits of ``batch.valid`` only, so prefix batches
        and the interior-pad layouts of factory batches share one path.  Defaults to the kernel's shared batch; factory
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
        key_u, key_v, p = _candidate_arrays(
            edges, self.plan.directed, "candidate_rows: p"
        )
        return keyed_coin_rows(
            self._round_root(round_index), key_u, key_v,
            np.zeros_like(key_u), p, batch.valid,
        )

    def _round_root(self, round_index: int) -> np.uint64:
        """Key root of one round's candidate coins."""
        return coin_base(
            np.random.default_rng([self.seed, round_index, _CANDIDATE_TAG])
        )

    # ------------------------------------------------------------------
    # selection
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
        pool = _CandidatePool(list(candidates), self.plan)
        pairs = [(source, target)]
        batch = self.base_batch(source, target)
        forward: Dict[int, np.ndarray] = {}
        reverse: Dict[int, np.ndarray] = {}
        self._pair_masks(self.plan, batch, pairs, forward, reverse)
        _base, gained = self._pair_counts(
            self.plan, batch, pairs, pool, 0, forward, reverse
        )
        return gained[0]

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
        """Hill climbing: :meth:`greedy_select_multi` on the one pair
        ``(source, target)``."""
        return self.greedy_select_multi([(source, target)], k, candidates)

    def greedy_select_multi(
        self,
        pairs: Sequence[Pair],
        k: int,
        candidates: Sequence[ProbEdge],
        aggregate: str = "avg",
    ) -> List[ProbEdge]:
        """Hill climbing on an aggregate of several ``(s, t)`` pairs.

        The kernel's one greedy loop (:meth:`greedy_select` runs it on
        one pair).  Round 0 sweeps the distinct sources, and the
        distinct targets of the reverse plan, through the fused
        multi-source path (:func:`~repro.engine.kernel.reach_each`);
        every candidate's updated per-pair hit counts are then pure
        bitwise ops.  The aggregate (:func:`aggregate_name`) is taken
        over the pair axis and the first-max candidate wins.  Later
        rounds advance every maintained mask incrementally from the
        committed winner's endpoints (worlds where its coin landed
        heads) instead of re-sweeping.  The winner's coin row is
        appended to the batch, so the next round is conditioned on the
        exact worlds the winner was measured in.  The scalar equivalent
        re-runs ``pair_reliabilities`` once per candidate per round;
        matching its dict-valued objective, duplicate pairs are
        collapsed before aggregation (each distinct pair counts once).
        With a ``batch_factory``, the first pair seeds the factory (one
        shared batch must serve every pair).
        """
        if k < 1:
            raise ValueError("k must be positive")
        agg = _AGGREGATES[aggregate_name(aggregate)][1]
        pairs = list(dict.fromkeys(pairs))  # dedupe, preserve order
        if not pairs:
            raise ValueError("pairs must be non-empty")
        candidates = list(candidates)
        selected: List[ProbEdge] = []
        plan = self.plan
        pool = _CandidatePool(candidates, plan)
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
        forward: Dict[int, np.ndarray] = {}
        reverse: Dict[int, np.ndarray] = {}
        while len(selected) < k and pool:
            self._pair_masks(plan, batch, pairs, forward, reverse)
            round_index = len(selected)
            base, gained = self._pair_counts(
                plan, batch, pairs, pool, round_index, forward, reverse
            )
            # First max = lowest candidate index (the pool keeps order).
            best = int(np.argmax(agg(base[:, None] + gained)))
            edge = candidates[pool.pop(best)]
            selected.append(edge)
            if len(selected) >= k or not pool:
                break
            row = self.candidate_rows(round_index, [edge], batch)
            plan = extend_with_overlay(plan, [edge])
            pool.resolve(plan)
            batch = extend_batch(batch, row)
            if self.incremental:
                u, v, _p = edge
                forward = {
                    s: self._advance(plan, batch, mask, u, v, row[0])
                    for s, mask in forward.items()
                }
                reverse = {  # the reverse view runs u -> v as v -> u
                    t: self._advance(
                        plan.reverse_view(), batch, mask, v, u, row[0]
                    )
                    for t, mask in reverse.items()
                }
            else:
                forward, reverse = {}, {}  # full re-sweep next round
        return selected

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _advance(
        plan: QueryPlan,
        batch: WorldBatch,
        reached: np.ndarray,
        tail: int,
        head: int,
        row: np.ndarray,
    ) -> np.ndarray:
        """Resume a mask swept over ``plan`` (the extended plan, or its
        reverse view) after committing the arc ``tail -> head``.

        :func:`~repro.engine.kernel.seed_resume` seeds exactly the
        worlds the new edge connects that weren't connected before;
        restarting the sweep from the rows it seeded converges to the
        full re-sweep's fixpoint because reachability is monotone
        (:func:`~repro.engine.kernel.batch_reach_resume`).  No seeded
        row means the mask already is the fixpoint and the sweep is
        skipped entirely.
        """
        reached, seeded = seed_resume(plan, reached, [(tail, head, row)])
        if seeded:
            batch_reach_resume(plan, batch, reached, seeded)
        return reached

    def _pair_masks(
        self,
        plan: QueryPlan,
        batch: WorldBatch,
        pairs: Sequence[Pair],
        forward: Dict[int, np.ndarray],
        reverse: Dict[int, np.ndarray],
    ) -> None:
        """Sweep the masks pair endpoints known to ``plan`` still lack.

        Fills ``forward`` (per distinct source) and ``reverse`` (per
        distinct target) in place: every endpoint in round 0, and after
        an incremental advance only those the committed overlay edge
        just interned.  Both directions sweep through
        :func:`~repro.engine.kernel.reach_each` — the same fused,
        memory-chunked path as the session's pair sweeps.  Each mask is
        its own contiguous matrix, advanced independently across rounds.
        """
        for masks, ends, sweep_plan in (
            (forward, [s for s, _ in pairs], plan),
            (reverse, [t for _, t in pairs], plan.reverse_view()),
        ):
            todo: Dict[int, int] = {}  # endpoint id -> dense index
            for node in ends:
                index = plan.node_index(node)
                if index is not None and node not in masks:
                    todo.setdefault(node, index)
            swept = reach_each(sweep_plan, batch, list(todo.values()))
            masks.update(zip(todo, swept, strict=True))

    def _pair_counts(
        self,
        plan: QueryPlan,
        batch: WorldBatch,
        pairs: Sequence[Pair],
        pool: _CandidatePool,
        round_index: int,
        forward: Dict[int, np.ndarray],
        reverse: Dict[int, np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Base and gained hit counts of one round, per pair.

        ``base[p]`` counts the worlds in which pair ``p`` is connected
        now; ``gained[p, j]`` the further worlds adding candidate ``j``
        alone connects — exact batch counts against the round's
        maintained masks.  A pair with ``s == t`` is connected in every
        world; one with an endpoint the plan does not know yet, in none.

        A candidate's coins matter only in the words where some pair's
        gain mask ``(F[u] & R[v] | F[v] & R[u]) & ~already`` is nonzero,
        so the round draws exactly those words of its keyed rows
        (:func:`~repro.engine.kernel.keyed_coin_words`), each once
        across pairs, instead of ``W`` words per candidate.
        """
        base = np.zeros(len(pairs), dtype=np.int64)
        gained = np.zeros((len(pairs), len(pool)), dtype=np.int64)
        ui, vi = pool.ui, pool.vi
        coins = np.zeros((len(pool), batch.num_words), dtype=np.uint64)
        drawn = np.zeros(coins.shape, dtype=bool)
        root = self._round_root(round_index)
        for p_i, (s, t) in enumerate(pairs):
            if s == t:
                base[p_i] = batch.num_samples
                continue
            ti = plan.node_index(t)
            if s not in forward or ti is None:
                continue
            fwd, rev = forward[s], reverse[t]
            already = fwd[ti]
            base[p_i] = popcount(already).sum()
            # Per candidate: s⇝u AND v⇝t (plus the swap when undirected),
            # in the worlds the pair is not connected in yet.
            mask = fwd[ui] & rev[vi]
            if not plan.directed:
                mask |= fwd[vi] & rev[ui]
            mask &= ~already
            mask[~pool.known] = 0
            rows, words = np.nonzero((mask != 0) & ~drawn)
            coins[rows, words] = keyed_coin_words(
                root, pool.key_u, pool.key_v, np.zeros_like(pool.key_u),
                pool.p, batch.valid, rows, words,
            )
            drawn[rows, words] = True
            gained[p_i] = popcount(coins & mask).sum(axis=1, dtype=np.int64)
        return base, gained


def _candidate_arrays(
    edges: Sequence[ProbEdge], directed: bool, label: str
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coin identities ``(u, v)`` and probabilities of candidate edges.

    Undirected endpoints fold onto ``(min, max)`` like the edge table.
    ``label`` names the caller in the sanitizer's probability check.
    """
    count = len(edges)
    u = np.fromiter((e[0] for e in edges), dtype=np.int64, count=count)
    v = np.fromiter((e[1] for e in edges), dtype=np.int64, count=count)
    p = np.fromiter((e[2] for e in edges), dtype=np.float64, count=count)
    if sanitize.enabled():
        sanitize.check_probabilities(p, label)
    if not directed:
        u, v = np.minimum(u, v), np.maximum(u, v)
    return u, v, p


class _CandidatePool:
    """The candidates of one selection call, resolved once.

    Per candidate still in play, in the caller's order: its position in
    the caller's list (``index``), its coin identity and probability
    (``key_u``, ``key_v``, ``p``) and the dense plan indices of its
    endpoints (``ui``, ``vi``, valid where ``known``).  Undirected
    endpoints are the canonical ``(min, max)``, which the symmetric
    undirected gain mask does not mind.  A greedy round takes its winner
    out with :meth:`pop`; :meth:`resolve` looks up only the endpoints
    still unknown, once a winner has interned new nodes.
    """

    def __init__(
        self, candidates: Sequence[ProbEdge], plan: QueryPlan
    ) -> None:
        count = len(candidates)
        self.index = np.arange(count)
        self.key_u, self.key_v, self.p = _candidate_arrays(
            candidates, plan.directed, "candidate pool: p"
        )
        self.ui = np.zeros(count, dtype=np.int64)
        self.vi = np.zeros(count, dtype=np.int64)
        self.known = np.zeros(count, dtype=bool)
        self._resolved_nodes = 0
        self.resolve(plan)

    def __len__(self) -> int:
        return int(self.index.shape[0])

    def resolve(self, plan: QueryPlan) -> None:
        """Resolve the still-unknown endpoints against a grown ``plan``.

        A candidate with an endpoint the plan does not know keeps
        ``known`` False and scores zero.  That is exact unless the
        unknown endpoint is the query's own source or target, where the
        edge alone can connect the pair; the kernel keeps scoring it
        zero because fixing that changes selections (ROADMAP.md, open
        item 5).
        """
        if plan.num_nodes == self._resolved_nodes:
            return
        self._resolved_nodes = plan.num_nodes
        todo = np.flatnonzero(~self.known)
        lookup = plan.index_of.get
        ui, vi = (
            np.fromiter(
                map(lookup, ends[todo].tolist(), repeat(-1)),
                dtype=np.int64, count=todo.shape[0],
            )
            for ends in (self.key_u, self.key_v)
        )
        found = (ui >= 0) & (vi >= 0)
        todo = todo[found]
        self.ui[todo], self.vi[todo] = ui[found], vi[found]
        self.known[todo] = True

    def pop(self, row: int) -> int:
        """Take candidate row ``row`` out; return its caller position."""
        position = int(self.index[row])
        for name in ("index", "key_u", "key_v", "p", "ui", "vi", "known"):
            setattr(self, name, np.delete(getattr(self, name), row))
        return position
