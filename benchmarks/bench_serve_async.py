"""Benchmark: coalesced async serving vs sequential per-request sessions.

The serving layer's claim (:mod:`repro.serve`): folding concurrently
arriving single-query requests into one ``Session.run`` workload makes
a server pay one compile + one coin-flip pass + fused sweeps per
coalescing window instead of per request.  This benchmark simulates 64
concurrent clients, each firing one reliability query at an
:class:`~repro.serve.AsyncSession`, and compares against the
no-coalescing baseline a naive server would be: one fresh session per
request, answered sequentially (each request pays its own compile and
sampling, as a cold per-request process would).

Gates (the PR gate, enforced in nightly CI):

* coalesced serving >= 3x faster than sequential per-request sessions
  at 64 concurrent clients;
* every coalesced response **bit-for-bit equal** to what a one-off
  ``Session.run`` of the same query returns.

Usage::

    python benchmarks/bench_serve_async.py                 # full gate (>= 3x)
    python benchmarks/bench_serve_async.py --smoke         # quick CI check
    python benchmarks/bench_serve_async.py --json out.json # also dump timings
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.api import ReliabilityQuery, Session, Workload  # noqa: E402
from repro.engine import csr  # noqa: E402
from repro.graph import assign_uniform, erdos_renyi  # noqa: E402
from repro.serve import AsyncSession  # noqa: E402


def build_graph(num_nodes: int, num_edges: int, seed: int = 0):
    graph = erdos_renyi(num_nodes, num_edges=num_edges, seed=seed)
    return assign_uniform(graph, 0.05, 0.5, seed=seed + 1)


def drop_csr_cache(graph) -> None:
    """Make the next compile cold, as a fresh server process would be."""
    csr._PLANS.pop(graph, None)


def client_queries(graph, num_clients: int, samples: int):
    """One query per client: an S x T block of pairs (S = T = sqrt)."""
    n = graph.num_nodes
    side = max(1, int(round(num_clients ** 0.5)))
    sources = [(i * n) // (side + 1) for i in range(side)]
    targets = [n - 1 - (j * n) // (side + 2) for j in range(side)]
    queries = [
        ReliabilityQuery(s, target=t, samples=samples)
        for s in sources for t in targets if s != t
    ]
    return queries[:num_clients]


def time_sequential(graph, queries, seed: int):
    """The no-coalescing baseline: one cold session per request."""
    values = []
    start = time.perf_counter()
    for query in queries:
        drop_csr_cache(graph)
        session = Session(graph, seed=seed)
        [result] = session.run(Workload([query]))
        values.append(result.values[0])
    return time.perf_counter() - start, values


def time_coalesced(graph, queries, seed: int, max_batch: int, wait_ms: float):
    """64 concurrent clients against one coalescing AsyncSession."""
    drop_csr_cache(graph)  # the serving process starts cold too

    async def _run():
        async with AsyncSession(
            graph, seed=seed, max_batch=max_batch, max_wait_ms=wait_ms
        ) as serving:
            results = await asyncio.gather(
                *(serving.submit(query) for query in queries)
            )
            return [r.values[0] for r in results], serving.stats.as_dict()

    start = time.perf_counter()
    values, stats = asyncio.run(_run())
    return time.perf_counter() - start, values, stats


def run(smoke: bool, json_path: str | None) -> int:
    if smoke:
        num_nodes, num_edges, z = 200, 600, 256
        num_clients = 16
        required_speedup = 1.0  # smoke only gates "runs and agrees"
    else:
        num_nodes, num_edges, z = 1000, 3000, 1000
        num_clients = 64
        required_speedup = 3.0

    graph = build_graph(num_nodes, num_edges)
    queries = client_queries(graph, num_clients, z)
    print(f"graph: n={graph.num_nodes} m={graph.num_edges} Z={z} "
          f"clients={len(queries)}")

    sequential_s, sequential_values = time_sequential(graph, queries, seed=17)
    coalesced_s, coalesced_values, stats = time_coalesced(
        graph, queries, seed=17, max_batch=num_clients, wait_ms=10.0
    )
    speedup = sequential_s / coalesced_s if coalesced_s > 0 else float("inf")

    print(f"  sequential per-request sessions: {sequential_s * 1000:9.1f} ms "
          f"({sequential_s * 1000 / len(queries):.2f} ms/request)")
    print(f"  coalesced async serving:         {coalesced_s * 1000:9.1f} ms "
          f"({coalesced_s * 1000 / len(queries):.2f} ms/request)")
    print(f"  speedup:                         {speedup:9.1f}x")
    print(f"  coalescer: {stats['batches']} batch(es), "
          f"largest {stats['largest_batch']}, "
          f"mean size {stats['mean_batch_size']:.1f}")

    # The coalesced path must return exactly what one-off Session.run
    # calls return: same (Z, seed) worlds, same plan, same values.
    mismatches = sum(
        1 for a, b in zip(sequential_values, coalesced_values, strict=True) if a != b
    )

    report = {
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "num_samples": z,
        "num_clients": len(queries),
        "required_speedup": required_speedup,
        "sequential_seconds": sequential_s,
        "coalesced_seconds": coalesced_s,
        "speedup": speedup,
        "value_mismatches": mismatches,
        "coalescer": stats,
    }
    if json_path:
        Path(json_path).write_text(json.dumps(report, indent=2))
        print(f"wrote {json_path}")

    if mismatches:
        print(f"FAIL: {mismatches} coalesced responses differ from "
              f"one-off Session.run results")
        return 1
    if speedup < required_speedup:
        print(f"FAIL: speedup {speedup:.1f}x below {required_speedup}x")
        return 1
    print("OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small graph / few clients quick check for CI",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the timing report as JSON",
    )
    args = parser.parse_args()
    return run(smoke=args.smoke, json_path=args.json)


if __name__ == "__main__":
    raise SystemExit(main())
