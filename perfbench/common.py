"""Shared helpers: the graph, statistics, host facts, set-up timing."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The benchmark runs from the root of a checkout of the repository.
ROOT = Path.cwd()
SRC = ROOT / "src"
#: Scratch space for one run (stores, server traces); removed at exit.
WORK = ROOT / ".perfbench_work"

DATASET = ("as-topology", 1000, 0)

#: Each workload's set-up step runs at least SETUP_REPS times and until
#: SETUP_MIN_S have passed; ``setup_s`` is the median.
SETUP_REPS = 3
SETUP_MIN_S = 1.5


def load_graph():
    """Build the benchmark graph from scratch (no dataset-cache hit)."""
    from repro import datasets

    datasets.clear_cache()
    name, num_nodes, seed = DATASET
    return datasets.load(name, num_nodes=num_nodes, seed=seed)


def graph_facts() -> Dict[str, Any]:
    graph = load_graph()
    name, _, seed = DATASET
    return {"dataset": name, "seed": seed, "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges}


def percentile(values: List[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (``pct`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def hoeffding(samples: int, delta: float) -> float:
    """Half-width ``eps`` with ``P(|estimate - R| > eps) <= delta``."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * samples))


def timed_setup(setup: Callable[[], Any],
                discard: Optional[Callable[[Any], None]] = None) -> Tuple[float, Any]:
    """Repeat ``setup`` (see :data:`SETUP_REPS`); ``(median s, last state)``."""
    times: List[float] = []
    state = None
    while len(times) < SETUP_REPS or sum(times) < SETUP_MIN_S:
        if state is not None and discard is not None:
            discard(state)
        start = time.perf_counter()
        state = setup()
        times.append(time.perf_counter() - start)
    return statistics.median(times), state


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def source_digest() -> str:
    """sha256 over ``src/`` — identifies the code when there is no git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_probe_ms() -> float:
    """Median time of a fixed numpy + Python loop that uses no repro code.

    On a shared virtual machine the host's speed drifts by tens of
    percent over minutes; comparing this figure across runs tells a slow
    host apart from a slow program.
    """
    import numpy

    words = numpy.arange(4000 * 64, dtype=numpy.uint64).reshape(4000, 64)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(20):
            (words * numpy.uint64(0x9E3779B97F4A7C15)) ^ (words >> numpy.uint64(31))
        sum(i * i for i in range(200_000))
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def host_facts() -> Dict[str, Any]:
    import numpy

    return {
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "probe_ms": host_probe_ms(),
    }


@dataclass
class Outcome:
    """What one measured pass of a workload produced."""

    latencies: List[float]
    wall_s: float
    attempted: int
    failed: int = 0
    #: Operations that count towards ``ops_per_s`` over ``wall_s``
    #: (default: every operation that did not fail).
    completed: Optional[int] = None
    problems: List[str] = field(default_factory=list)
    #: Facts about the inputs and secondary results (printed, not gated).
    details: Dict[str, Any] = field(default_factory=dict)
    #: Work counts that must repeat exactly for the same code and seed.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Extra per-layer figures a workload measures itself.
    layers: Dict[str, float] = field(default_factory=dict)
