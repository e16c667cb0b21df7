"""Declarative query objects.

A query describes *what* to compute — endpoints, estimator, budget —
without touching a graph.  The :class:`~repro.api.session.Session`
decides *how*: which queries share a compiled plan, which share a
sampled world batch, and which must run on their own.

Two query kinds cover the paper's pipeline:

* :class:`ReliabilityQuery` — estimate ``R(s, t)`` (or ``R(s, t_i)`` for
  several targets at once; a multi-target query costs one BFS sweep on
  the engine because reachability from ``s`` answers every target).
* :class:`MaximizeQuery` — Problem 1: add ``k`` new ``zeta``-probability
  edges to maximize ``R(s, t)`` with any of the paper's methods.

A :class:`Workload` is an ordered bag of queries over one graph —
the unit of batching the session optimizes across.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..reliability import ReliabilityEstimator, estimator_spec

Pair = Tuple[int, int]

#: Selection methods accepted by :class:`MaximizeQuery`.
METHODS = (
    "be",           # path-batch edge selection (the paper's method)
    "ip",           # individual path-based edge selection
    "mrp",          # most reliable path improvement (Algorithm 3)
    "hc",           # hill climbing (Algorithm 1)
    "topk",         # individual top-k (§3.1)
    "degree",       # degree-centrality baseline (§3.3)
    "betweenness",  # betweenness-centrality baseline (§3.3)
    "eigen",        # eigenvalue-based baseline (Algorithm 2)
    "random",       # random candidate edges (ablation)
    "exact",        # exhaustive subset enumeration (Table 11)
)


def _check_deadline(deadline_ms: Optional[float]) -> None:
    # `not (x > 0)` rather than `x <= 0`: NaN must fail validation too.
    if deadline_ms is not None and not deadline_ms > 0:
        raise ValueError(f"deadline_ms must be > 0, got {deadline_ms!r}")


def _normalize_targets(
    target: Optional[int],
    targets: Optional[Sequence[int]],
) -> Tuple[int, ...]:
    if (target is None) == (targets is None):
        raise ValueError("provide exactly one of target= or targets=")
    if target is not None:
        return (target,)
    normalized = tuple(targets)
    if not normalized:
        raise ValueError("targets must be non-empty")
    return normalized


@dataclass(frozen=True)
class ReliabilityQuery:
    """Estimate the reliability of ``source`` -> target(s).

    Parameters
    ----------
    source:
        Source node id.
    target / targets:
        One target node id, or several (mutually exclusive).  All
        targets of one query are answered inside the same sampled
        worlds, so the estimates are mutually consistent.
    estimator:
        Registry name (``"mc"``, ``"rss"``, ``"lazy"``, ``"adaptive"``,
        or anything registered via ``register_estimator``).
    samples:
        Sample budget Z (the cap for adaptive estimators).
    seed:
        Per-query seed override; ``None`` inherits the session seed.
        Queries with equal ``(estimator, samples, seed)`` share sampled
        worlds when the estimator's registry entry allows it.
    deadline_ms:
        Serving-layer budget: when set, an ``AsyncSession`` expires the
        request at flush time if it has waited longer than this, so a
        stale request never costs a shared batch any work (HTTP maps
        expiry to 504).  Ignored by direct ``Session.run`` execution.
        Excluded from equality: a retry with a fresh deadline is the
        same query.

    Examples
    --------
    >>> ReliabilityQuery(0, targets=(3, 5), samples=500).pairs
    [(0, 3), (0, 5)]
    >>> ReliabilityQuery(0, target=1, estimator="no-such")
    ... # doctest: +IGNORE_EXCEPTION_DETAIL
    Traceback (most recent call last):
        ...
    ValueError: unknown estimator 'no-such'
    """

    source: int
    target: Optional[int] = None
    targets: Optional[Tuple[int, ...]] = None
    estimator: str = "mc"
    samples: int = 1000
    seed: Optional[int] = None
    deadline_ms: Optional[float] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        normalized = _normalize_targets(self.target, self.targets)
        object.__setattr__(self, "targets", normalized)
        if self.samples < 1:
            raise ValueError("samples must be positive")
        if self.seed is not None and self.seed < 0:
            # The engine's numpy generator rejects negative seeds at
            # execution time; fail here instead, before the query can
            # enter a shared batch.
            raise ValueError("seed must be non-negative")
        _check_deadline(self.deadline_ms)
        estimator_spec(self.estimator)  # fail fast on unknown names

    @property
    def pairs(self) -> List[Pair]:
        """The (source, target) pairs this query asks about."""
        return [(self.source, t) for t in self.targets]


@dataclass(frozen=True)
class MaximizeQuery:
    """Problem 1: add ``k`` new edges maximizing ``R(source, target)``.

    ``estimator``/``samples``/``seed`` configure the sampler used inside
    the selection loop; ``None`` values inherit the session's defaults
    (overriding ``samples``/``seed`` requires a registry-built default —
    a custom estimator *instance* on the session cannot be rebuilt and
    the overrides are ignored with a warning).
    ``new_edge_prob`` replaces the fixed ``zeta`` probability of new
    edges with a per-pair model; ``candidate_space`` shares one
    Algorithm 4 run across methods, and ``eliminate=False`` reproduces
    the no-elimination tables.
    ``deadline_ms`` carries the same serving-layer budget semantics as
    :attr:`ReliabilityQuery.deadline_ms`.

    Examples
    --------
    >>> from repro.graph import UncertainGraph
    >>> from repro.api import MaximizeQuery, Session
    >>> g = UncertainGraph.from_edges(
    ...     [(0, 1, 0.8), (1, 2, 0.4), (2, 3, 0.7)])
    >>> result = Session(g, r=10, l=10).maximize(
    ...     MaximizeQuery(0, 3, k=1, zeta=0.5, method="hc"))
    >>> len(result.edges)
    1
    >>> result.gain > 0
    True
    """

    source: int
    target: int
    k: int = 5
    zeta: float = 0.5
    method: str = "be"
    estimator: Optional[Union[str, ReliabilityEstimator]] = None
    samples: Optional[int] = None
    seed: Optional[int] = None
    new_edge_prob: Optional[object] = field(default=None, compare=False)
    candidate_space: Optional[object] = field(default=None, compare=False)
    eliminate: bool = True
    deadline_ms: Optional[float] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.method not in METHODS:
            # Fail at construction, not mid-batch: a query that blows
            # up inside a shared workload costs its companions a rerun.
            raise ValueError(
                f"unknown method {self.method!r}; expected one of {METHODS}"
            )
        if not 0.0 <= self.zeta <= 1.0:
            raise ValueError(f"zeta {self.zeta!r} outside [0, 1]")
        if self.new_edge_prob is None and self.zeta == 0.0:
            # Execution turns zeta into the fixed new-edge probability,
            # which must be positive.
            raise ValueError("zeta must be in (0, 1] without new_edge_prob")
        if self.samples is not None and self.samples < 1:
            raise ValueError("samples must be positive")
        if self.seed is not None and self.seed < 0:
            raise ValueError("seed must be non-negative")
        _check_deadline(self.deadline_ms)
        if isinstance(self.estimator, str):
            estimator_spec(self.estimator)  # fail fast on unknown names


Query = Union[ReliabilityQuery, MaximizeQuery]

#: Batching key of a query: ``(estimator, samples, seed)``.
BatchKey = Tuple[str, int, Optional[int]]


def batch_key(query: Query, default_seed: Optional[int]) -> BatchKey:
    """The ``(estimator, Z, seed)`` group a query batches in.

    ``Session.run`` answers each group of reliability queries from one
    world batch, and the shard pool routes by this key so a group stays
    on one worker.  The estimator name is canonicalized through the
    registry (aliases collapse onto their entry) and ``seed=None``
    resolves to ``default_seed``.  Every maximize query maps to
    ``("maximize", 0, None)``: their base evaluations batch together
    regardless of configuration.

    >>> batch_key(ReliabilityQuery(0, target=1, samples=400), 7)
    ('mc', 400, 7)
    >>> batch_key(MaximizeQuery(0, 1, k=2), 7)
    ('maximize', 0, None)
    """
    if isinstance(query, MaximizeQuery):
        return ("maximize", 0, None)
    seed = query.seed if query.seed is not None else default_seed
    return (estimator_spec(query.estimator).name, query.samples, seed)


class Workload:
    """An ordered collection of queries answered against one graph.

    The session executes a workload as a unit: one compiled plan for
    every query, and one shared world batch per ``(samples, seed)``
    group of world-sharing estimators.  Order of results always matches
    order of queries.

    Examples
    --------
    >>> workload = Workload.reliability([(0, 2), (1, 2)], samples=500)
    >>> _ = workload.add(MaximizeQuery(0, 2, k=3))
    >>> len(workload)
    3
    >>> workload
    Workload(1 MaximizeQuery, 2 ReliabilityQuery)
    """

    def __init__(self, queries: Iterable[Query] = ()) -> None:
        self.queries: List[Query] = list(queries)
        for q in self.queries:
            self._check(q)

    @staticmethod
    def _check(query: Query) -> None:
        if not isinstance(query, (ReliabilityQuery, MaximizeQuery)):
            raise TypeError(
                f"expected ReliabilityQuery or MaximizeQuery, got {query!r}"
            )

    def add(self, query: Query) -> "Workload":
        """Append a query; returns self for chaining."""
        self._check(query)
        self.queries.append(query)
        return self

    @classmethod
    def reliability(
        cls,
        pairs: Sequence[Pair],
        estimator: str = "mc",
        samples: int = 1000,
        seed: Optional[int] = None,
    ) -> "Workload":
        """Workload of single-target reliability queries over ``pairs``."""
        return cls(
            ReliabilityQuery(
                s, target=t, estimator=estimator, samples=samples, seed=seed
            )
            for s, t in pairs
        )

    def __iter__(self) -> Iterator[Query]:
        return iter(self.queries)

    def __len__(self) -> int:
        return len(self.queries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kinds = {}
        for q in self.queries:
            kinds[type(q).__name__] = kinds.get(type(q).__name__, 0) + 1
        inner = ", ".join(f"{n} {k}" for k, n in sorted(kinds.items()))
        return f"Workload({inner})"
