"""Runtime sanitizer: dynamic checks for the contracts repro-check lints.

Static rules catch what the AST shows; this module catches what only
shows up at runtime — a second thread slipping into a session, a kernel
fed NaN probabilities, a cached world batch mutated through an alias.
Off by default and free when off (every guard is behind one
:func:`enabled` check); turn it on with either::

    REPRO_SANITIZE=1 pytest            # environment switch (CI)
    repro.analysis.sanitize.enable()   # programmatic switch

Three guard families:

* :class:`ThreadAffinity` — ``Session`` and ``IndexStore`` bind to the
  first thread that *uses* them and raise :class:`SanitizerError` on
  cross-thread calls.  Binding is lazy (first guarded call, not
  construction) so :class:`~repro.serve.AsyncSession` can construct a
  session on the event-loop thread and hand ownership to its single
  worker thread; the hand-off is explicit via :meth:`ThreadAffinity.rebind`.
* :func:`check_probabilities` — kernel entry points assert their
  probability arrays are finite and inside ``[0, 1]`` before any coin
  is flipped, and the path layer asserts an overlay's before it turns
  them into ``-log p`` weights.
* :func:`freeze` — marks an array read-only so in-place mutation of a
  shared world batch fails fast instead of corrupting every query that
  shares it.  (The session's cache tiers freeze unconditionally; this
  helper exists so callers need no numpy import of their own.)
"""

from __future__ import annotations

import os
import threading
from typing import Any, Optional

_TRUTHY = {"1", "true", "yes", "on"}

#: Programmatic override: ``None`` defers to the environment.
_override: Optional[bool] = None


class SanitizerError(RuntimeError):
    """A contract the runtime sanitizer guards was violated."""


def enabled() -> bool:
    """Whether sanitizer checks are active for this process."""
    if _override is not None:
        return _override
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in _TRUTHY


def enable() -> None:
    """Turn the sanitizer on, regardless of ``REPRO_SANITIZE``."""
    global _override
    _override = True


def disable() -> None:
    """Turn the sanitizer off, regardless of ``REPRO_SANITIZE``."""
    global _override
    _override = False


def reset() -> None:
    """Drop the programmatic override; the environment decides again."""
    global _override
    _override = None


class ThreadAffinity:
    """Lazily bound owning-thread guard for single-threaded objects.

    The owner is whichever thread first calls :meth:`check` while the
    sanitizer is enabled; later calls from any other thread raise.
    :meth:`rebind` forgets the owner — the sanctioned ownership
    hand-off when a session moves onto a serving worker thread.
    """

    __slots__ = ("label", "_owner")

    def __init__(self, label: str) -> None:
        self.label = label
        self._owner: Optional[int] = None

    def rebind(self) -> None:
        """Forget the owner; the next guarded call binds a new one."""
        self._owner = None

    def check(self, operation: str) -> None:
        """Bind to the calling thread or raise on a cross-thread call."""
        if not enabled():
            return
        current = threading.get_ident()
        if self._owner is None:
            self._owner = current
        elif self._owner != current:
            raise SanitizerError(
                f"{operation}: {self.label} is owned by thread "
                f"{self._owner} but was called from thread {current}; "
                f"sessions and stores are single-threaded — route "
                f"concurrent callers through repro.serve.AsyncSession"
            )


def freeze(array: Any) -> Any:
    """Mark a numpy array read-only (no-op for anything else).

    Read-only memmaps are already frozen; re-freezing is harmless.
    Returns the array for call-site chaining.
    """
    flags = getattr(array, "flags", None)
    if flags is not None:
        try:
            flags.writeable = False
        except (AttributeError, ValueError):  # e.g. an exotic view
            pass
    return array


def check_probabilities(probs: Any, label: str = "probs") -> None:
    """Raise unless every probability is finite and inside ``[0, 1]``.

    Callers gate on :func:`enabled` so the scan never costs anything in
    normal operation.
    """
    import numpy as np  # deferred: this module must import without numpy

    values = np.asarray(probs, dtype=np.float64)
    if values.size == 0:
        return
    if not bool(np.all(np.isfinite(values))):
        raise SanitizerError(f"{label}: non-finite probability (NaN/inf)")
    low = float(values.min())
    high = float(values.max())
    if low < 0.0 or high > 1.0:
        raise SanitizerError(
            f"{label}: probability outside [0, 1] (min={low!r}, max={high!r})"
        )
