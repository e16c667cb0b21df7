"""Lazy-propagation Monte Carlo (geometric run-length coin flipping).

The sampling trick of Li et al. (SIGMOD 2017): instead of flipping a
fresh coin for an edge in every sample, draw from a geometric
distribution how many consecutive samples the edge stays *absent* and
skip ahead.  Marginally each sample still sees an independent
Bernoulli(p) state per edge, so the trick is an *ordering* optimization
of the same statistical object plain MC estimates: ``Z`` i.i.d.
possible worlds.

On the batch engine (:mod:`repro.engine`) all coins of all ``Z`` worlds
are drawn in one pass, so skipping buys nothing: lazy propagation *is*
plain Monte Carlo there, kept under its own registry name.
"""

from __future__ import annotations

from .monte_carlo import MonteCarloEstimator


class LazyPropagationEstimator(MonteCarloEstimator):
    """Lazy-propagation MC: :class:`MonteCarloEstimator` on the engine.

    Same seed, same bits as ``mc`` — the geometric schedule is subsumed
    by batched coin generation.
    """

    name = "lazy"
