"""String-keyed estimator registry.

One construction path for every sampler in the repo.  The CLI, the
experiments harness and the :mod:`repro.api` session layer all call
:func:`make_estimator` instead of hand-rolled
``if name == "mc": ...`` ladders.

Each entry is an :class:`EstimatorSpec` describing, besides the factory,
the capabilities the session layer needs to plan execution:

``shares_worlds``
    Estimates are a plain hit-rate over ``Z`` i.i.d. possible worlds, so
    a :class:`~repro.api.Session` may answer the query from a *shared*
    fixed-Z world batch (true for plain MC and lazy propagation, whose
    geometric skipping is only a sampling-order optimization).
    Stratified and adaptive samplers condition or grow their sample sets
    and must run per query.
``fixed_samples``
    ``Z`` is a fixed budget.  Adaptive estimators choose ``Z`` at query
    time, which is exactly what a pre-sampled shared batch cannot serve.

Selection-backend support matrix
--------------------------------
Every registered estimator holds its own seeded
:class:`numpy.random.Generator`, samples through the module functions
of :mod:`repro.engine.batch`, and reports a
:class:`~repro.reliability.estimator.SelectionBackend` record
``(num_samples, seed, make_batch)`` from
:meth:`~repro.reliability.estimator.ReliabilityEstimator.selection_backend`,
so ``hill_climbing`` / ``individual_top_k`` (and session maximize
queries) auto-route all of them through the batched selection-gain
kernel (:mod:`repro.engine.selection`); estimators whose
``selection_backend()`` is ``None`` (the base-class default, e.g.
:class:`~repro.reliability.exact.ExactEstimator`) keep the
per-candidate loop.  What differs is the *base batch* candidates are
scored against:

========== =============== ============================================
name       shares_worlds   selection_backend base batch
========== =============== ============================================
mc         yes             plain i.i.d. shared batch (session-cachable)
lazy       yes             plain i.i.d. shared batch (session-cachable)
rss        no              per-stratum: level-1 stratified batch via
                           ``make_batch`` (proportional allocation)
adaptive   no              per-block: batch grown until the base
                           query's Wilson interval is tight
========== =============== ============================================

``shares_worlds`` stays about *reliability queries* (may a session
answer them from one cached fixed-Z batch); the factory-built selection
batches of ``rss`` / ``adaptive`` are query-conditioned, so those two
still run reliability queries individually.

Third-party estimators can join via :func:`register_estimator`; every
registered name immediately works in the CLI (``--estimator``),
``Session`` workloads, and the HTTP serving layer
(:mod:`repro.serve`).  Selection loops call ``selection_backend()``
directly, so an estimator used for selection subclasses
:class:`~repro.reliability.estimator.ReliabilityEstimator`.  See ``docs/architecture.md`` ("Estimator
registry") for how these capabilities drive execution planning end to
end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from .adaptive import AdaptiveMonteCarlo
from .estimator import ReliabilityEstimator
from .lazy import LazyPropagationEstimator
from .monte_carlo import MonteCarloEstimator
from .rss import RecursiveStratifiedSampler

EstimatorFactory = Callable[..., ReliabilityEstimator]
"""``factory(samples, seed, **kwargs) -> estimator``."""


@dataclass(frozen=True)
class EstimatorSpec:
    """Registry entry: factory plus execution-planning capabilities."""

    name: str
    factory: EstimatorFactory
    description: str = ""
    shares_worlds: bool = False
    fixed_samples: bool = True


_REGISTRY: Dict[str, EstimatorSpec] = {}
_ALIASES: Dict[str, str] = {}


def register_estimator(
    name: str,
    factory: EstimatorFactory,
    *,
    description: str = "",
    shares_worlds: bool = False,
    fixed_samples: bool = True,
    aliases: Tuple[str, ...] = (),
    overwrite: bool = False,
) -> EstimatorSpec:
    """Register ``factory`` under ``name`` (and optional aliases).

    Parameters
    ----------
    name : str
        Registry key (case-insensitive).
    factory : callable
        ``factory(samples, seed, **kwargs) -> ReliabilityEstimator``.
    description : str, optional
        One-line human-readable summary.
    shares_worlds, fixed_samples : bool, optional
        Execution-planning capabilities (see the module docstring).
    aliases : tuple of str, optional
        Additional lookup keys for the same entry.
    overwrite : bool, optional
        Replace an existing entry instead of raising.

    Returns
    -------
    EstimatorSpec
        The stored registry entry.

    Examples
    --------
    A registered name immediately works everywhere estimators are
    named — CLI, sessions, and the serving layer:

    >>> from repro.reliability import (
    ...     MonteCarloEstimator, make_estimator, register_estimator)
    >>> _ = register_estimator(
    ...     "tutorial-mc",
    ...     lambda samples, seed, **kw: MonteCarloEstimator(
    ...         samples, seed=seed, **kw),
    ...     description="plain MC registered from a tutorial",
    ...     shares_worlds=True,
    ...     overwrite=True,
    ... )
    >>> make_estimator("tutorial-mc", 500, seed=3).num_samples
    500
    """
    key = name.lower()
    alias_keys = [alias.lower() for alias in aliases]
    if not overwrite:
        # Validate every key before inserting any, so a conflicting
        # alias cannot leave a half-registered entry behind.
        if key in _REGISTRY or key in _ALIASES:
            raise ValueError(f"estimator {name!r} is already registered")
        for alias, alias_key in zip(aliases, alias_keys, strict=True):
            if alias_key in _REGISTRY or alias_key in _ALIASES:
                raise ValueError(
                    f"estimator alias {alias!r} is already taken"
                )
    spec = EstimatorSpec(
        name=key,
        factory=factory,
        description=description,
        shares_worlds=shares_worlds,
        fixed_samples=fixed_samples,
    )
    _REGISTRY[key] = spec
    for alias_key in alias_keys:
        _ALIASES[alias_key] = key
    return spec


def estimator_spec(name: str) -> EstimatorSpec:
    """Look up a spec by name or alias; raises ``ValueError`` if absent."""
    key = name.lower()
    key = _ALIASES.get(key, key)
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ValueError(
            f"unknown estimator {name!r}; registered: {estimator_names()}"
        ) from None


def estimator_names() -> Tuple[str, ...]:
    """Canonical names of all registered estimators."""
    return tuple(sorted(_REGISTRY))


def make_estimator(
    name: str,
    samples: int = 1000,
    seed: int = 0,
    **kwargs,
) -> ReliabilityEstimator:
    """Build any registered estimator by name.

    Parameters
    ----------
    name : str
        Registry name or alias (``"mc"``, ``"rss"``, ``"lazy"``,
        ``"adaptive"``, or anything registered).
    samples : int, optional
        Sample budget ``Z`` (the cap for adaptive estimators).
    seed : int, optional
        Sampler seed; equal seeds give bit-identical estimates.
    **kwargs
        Passed to the registered factory verbatim.

    Returns
    -------
    ReliabilityEstimator
        A fresh estimator instance.

    Examples
    --------
    >>> from repro.graph import UncertainGraph
    >>> from repro.reliability import make_estimator
    >>> g = UncertainGraph.from_edges([(0, 1, 0.7)])
    >>> est = make_estimator("mc", 2000, seed=5)
    >>> round(est.reliability(g, 0, 1), 1)
    0.7
    """
    return estimator_spec(name).factory(samples, seed, **kwargs)


# ----------------------------------------------------------------------
# built-in entries
# ----------------------------------------------------------------------
register_estimator(
    "mc",
    lambda samples, seed, **kw: MonteCarloEstimator(samples, seed=seed, **kw),
    description="plain Monte Carlo over Z possible worlds",
    shares_worlds=True,
    aliases=("monte-carlo", "montecarlo"),
)
register_estimator(
    "rss",
    lambda samples, seed, **kw: RecursiveStratifiedSampler(
        num_samples=samples, seed=seed, **kw
    ),
    description="recursive stratified sampling (Li et al., TKDE'16)",
    shares_worlds=False,  # strata condition edge states per query
    aliases=("stratified",),
)
register_estimator(
    "lazy",
    lambda samples, seed, **kw: LazyPropagationEstimator(
        samples, seed=seed, **kw
    ),
    description="lazy-propagation MC (geometric coin skipping)",
    shares_worlds=True,  # same i.i.d.-worlds contract as plain MC
    aliases=("lazy-propagation",),
)
def _make_adaptive(samples, seed, **kw):
    # The registry treats ``samples`` as the hard cap; keep the default
    # block size valid for small caps.
    kw.setdefault("block_size", min(200, samples))
    return AdaptiveMonteCarlo(max_samples=samples, seed=seed, **kw)


register_estimator(
    "adaptive",
    _make_adaptive,
    description="adaptive-precision MC with Wilson confidence stopping",
    shares_worlds=False,
    fixed_samples=False,  # Z grows until the interval is tight
    aliases=("adaptive-mc",),
)
