"""Structured results with provenance.

Every query answered by a :class:`~repro.api.session.Session` comes back
as a result object carrying not just the value but *how* it was
computed: estimator, sample count, seed, whether the worlds were shared
from the session cache, and the compile/sample/solve timings.  The CLI
and the experiments harness render these directly instead of
re-deriving the context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from ..baselines.common import ProbEdge
from .queries import MaximizeQuery, Pair, ReliabilityQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.harness import ResultTable


@dataclass
class Timings:
    """Wall-clock breakdown of one query's execution.

    ``compile_seconds`` and ``sample_seconds`` are 0.0 when the plan or
    world batch came from the session cache — the point of batching is
    that most queries in a workload pay nothing for either.
    """

    compile_seconds: float = 0.0
    sample_seconds: float = 0.0
    solve_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """End-to-end wall clock: compile + sample + solve."""
        return self.compile_seconds + self.sample_seconds + self.solve_seconds


@dataclass
class Provenance:
    """How an estimate was produced.

    Attributes
    ----------
    estimator : str
        Registry name of the sampler that answered the query.
    samples : int
        Sample budget ``Z`` (the cap for adaptive estimators).
    seed : int
        The seed actually used (query override or session default).
    shared_worlds : bool
        Whether the answer came out of a world batch shared with other
        queries (session cache hit, or a multi-member workload group —
        how coalesced serving shows up in responses).
    timings : Timings
        Compile/sample/solve wall-clock breakdown.
    world_source : str or None
        Which tier produced the world batch: ``"memory"`` (session
        cache), ``"store"`` (memory-mapped from a persistent
        :class:`repro.index.IndexStore`), ``"sampled"`` (fresh coin
        flips), or ``None`` when no batch was needed — per-query
        estimators, and shared-world queries answered entirely from the
        persistent result cache.
    cache_hits, cache_misses : int or None
        Exact-match result-cache accounting for this query's pairs
        (``None`` when the session has no store attached).  A fully
        warm query shows ``cache_misses == 0`` and never touched
        worlds.

    Examples
    --------
    >>> Provenance(estimator="mc", samples=1000, seed=7,
    ...            shared_worlds=True).describe()
    'mc, Z=1000, seed=7, shared worlds, 0.0 ms'
    >>> Provenance(estimator="mc", samples=1000, seed=7, shared_worlds=True,
    ...            cache_hits=2, cache_misses=0).describe()
    'mc, Z=1000, seed=7, shared worlds, cache 2/2, 0.0 ms'
    """

    estimator: str
    samples: int
    seed: int
    shared_worlds: bool = False
    timings: Timings = field(default_factory=Timings)
    world_source: "str | None" = None
    cache_hits: "int | None" = None
    cache_misses: "int | None" = None

    def describe(self) -> str:
        """One-line human-readable provenance summary."""
        shared = ", shared worlds" if self.shared_worlds else ""
        cache = ""
        if self.cache_hits is not None and self.cache_misses is not None:
            total = self.cache_hits + self.cache_misses
            cache = f", cache {self.cache_hits}/{total}"
        return (
            f"{self.estimator}, Z={self.samples}, seed={self.seed}"
            f"{shared}{cache}, {self.timings.total_seconds * 1000:.1f} ms"
        )


@dataclass
class ReliabilityResult:
    """Answer to one :class:`ReliabilityQuery`.

    Examples
    --------
    >>> from repro.graph import UncertainGraph
    >>> from repro.api import Session
    >>> g = UncertainGraph.from_edges([(0, 1, 0.8), (0, 2, 0.2)])
    >>> result = Session(g, seed=3).reliability(0, targets=(1, 2),
    ...                                         samples=2000)
    >>> sorted(result.by_target)
    [1, 2]
    >>> [round(v, 1) for _, v in result.pairs]
    [0.8, 0.2]
    """

    query: ReliabilityQuery
    values: Tuple[float, ...]  # aligned with query.targets
    provenance: Provenance

    @property
    def value(self) -> float:
        """The estimate of a single-target query."""
        if len(self.values) != 1:
            raise ValueError(
                "multi-target query: use .values / .by_target instead"
            )
        return self.values[0]

    @property
    def by_target(self) -> Dict[int, float]:
        """Target node id -> estimated reliability."""
        return dict(zip(self.query.targets, self.values, strict=True))

    @property
    def pairs(self) -> List[Tuple[Pair, float]]:
        """((source, target), value) in query order."""
        return list(zip(self.query.pairs, self.values, strict=True))


@dataclass
class Solution:
    """Result of one budgeted reliability-maximization run."""

    method: str
    edges: List[ProbEdge]
    base_reliability: float
    new_reliability: float
    elimination_seconds: float = 0.0
    selection_seconds: float = 0.0
    num_candidates: int = 0

    @property
    def gain(self) -> float:
        """Reliability gain achieved by the selected edges."""
        return self.new_reliability - self.base_reliability

    @property
    def total_seconds(self) -> float:
        """End-to-end time: elimination plus selection."""
        return self.elimination_seconds + self.selection_seconds


@dataclass
class MaximizeResult:
    """Answer to one :class:`MaximizeQuery`.

    Wraps the :class:`Solution` the selection pipeline produces and adds
    the session-level provenance of the sampler that drove selection.
    """

    query: MaximizeQuery
    solution: Solution
    provenance: Provenance

    # Convenience pass-throughs so renderers only need the result.
    @property
    def edges(self) -> List[Tuple[int, int, float]]:
        """The selected ``(u, v, p)`` edges (at most ``query.k``)."""
        return self.solution.edges

    @property
    def gain(self) -> float:
        """Reliability gain: ``new_reliability - base_reliability``."""
        return self.solution.gain

    @property
    def base_reliability(self) -> float:
        """``R(s, t)`` before any edges were added (paired sampler)."""
        return self.solution.base_reliability

    @property
    def new_reliability(self) -> float:
        """``R(s, t)`` with the selected edges added (same worlds)."""
        return self.solution.new_reliability


def results_table(
    results: Sequence[ReliabilityResult],
    title: str = "Reliability workload",
) -> "ResultTable":
    """Render reliability results as an experiments-harness table.

    Returns a :class:`repro.experiments.ResultTable` with one row per
    (source, target) pair, including provenance columns — what the CLI
    and notebook workflows print.
    """
    from ..experiments.harness import ResultTable  # local: avoid cycle

    table = ResultTable(
        title,
        ["s", "t", "R(s,t)", "estimator", "Z", "shared"],
    )
    for result in results:
        prov = result.provenance
        for (s, t), value in result.pairs:
            table.add_row(
                s, t, value, prov.estimator, prov.samples,
                "yes" if prov.shared_worlds else "no",
            )
    return table
