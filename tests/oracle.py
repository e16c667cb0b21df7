"""Statistical check of a sampled estimate against the exact oracle."""

from __future__ import annotations

import math

#: False-alarm probability of one check: a red check is a bug, not a flake.
ALPHA = 1e-6


def assert_close_to_exact(estimate: float, exact: float, samples: int) -> None:
    """Assert ``|estimate - exact| <= sqrt(ln(2/α) / (2Z))`` (Hoeffding).

    The mean of ``Z`` independent Bernoulli draws leaves this interval
    around its expectation with probability at most :data:`ALPHA`.
    """
    bound = math.sqrt(math.log(2 / ALPHA) / (2 * samples))
    assert abs(estimate - exact) <= bound, (
        f"estimate {estimate} vs exact {exact}: off by more than {bound:.4f}"
    )
