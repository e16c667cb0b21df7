"""Benchmark: warm store-backed restarts vs cold per-process sessions.

The persistent index's claim (:mod:`repro.index`): a repeat-heavy
workload answered by a fresh process should not re-flip coins or
re-sweep worlds it has already paid for.  This benchmark simulates R
process restarts, each running the same reliability workload.  The
cold baseline gets a fresh :class:`~repro.api.Session` per restart
with no store — every restart pays compile + sampling + sweeps.  The
warm run primes an :class:`~repro.index.IndexStore` once, then gives
every "restarted" session a freshly opened store over the same
directory — restarts answer from the exact-match result cache and
never materialize worlds.

Gates (the PR gate, enforced in nightly CI):

* warm store-backed restarts >= 5x faster than cold restarts on the
  repeat-heavy workload;
* every warm value **bit-for-bit equal** to the cold run's (the store
  is a cache, never an approximation).

Usage::

    python benchmarks/bench_index_warm.py                 # full gate (>= 5x)
    python benchmarks/bench_index_warm.py --smoke         # quick CI check
    python benchmarks/bench_index_warm.py --json out.json # also dump timings
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.api import ReliabilityQuery, Session, Workload  # noqa: E402
from repro.engine import csr  # noqa: E402
from repro.graph import assign_uniform, erdos_renyi  # noqa: E402
from repro.index import IndexStore  # noqa: E402


def build_graph(num_nodes: int, num_edges: int, seed: int = 0):
    graph = erdos_renyi(num_nodes, num_edges=num_edges, seed=seed)
    return assign_uniform(graph, 0.05, 0.5, seed=seed + 1)


def drop_csr_cache(graph) -> None:
    """Make the next compile cold, as a fresh process would be."""
    csr._PLANS.pop(graph, None)


def build_workload(graph, num_queries: int, samples: int) -> Workload:
    """A fan-out reliability workload over spread s-t pairs."""
    n = graph.num_nodes
    queries = []
    for i in range(num_queries):
        s = (i * n) // (num_queries + 1)
        t = n - 1 - ((i * n) // (num_queries + 2))
        if s == t:
            t = (t + 1) % n
        queries.append(ReliabilityQuery(s, target=t, samples=samples))
    return Workload(queries)


def restart_values(graph, workload, seed: int, store_root=None):
    """Run the workload as one fresh 'process' (cold compile)."""
    drop_csr_cache(graph)
    store = IndexStore(store_root) if store_root is not None else None
    try:
        session = Session(graph, seed=seed, store=store)
        results = session.run(workload)
    finally:
        if store is not None:
            store.close()
    return [value for result in results for value in result.values]


def time_restarts(graph, workload, seed: int, rounds: int, store_root=None):
    """Total wall clock of `rounds` restarts; values from the last one."""
    values = []
    start = time.perf_counter()
    for _ in range(rounds):
        values = restart_values(graph, workload, seed, store_root=store_root)
    return time.perf_counter() - start, values


def run(smoke: bool, json_path: str | None) -> int:
    if smoke:
        num_nodes, num_edges, z = 200, 600, 2048
        num_queries, rounds = 8, 2
        required_speedup = 1.0  # smoke only gates "runs and agrees"
    else:
        num_nodes, num_edges, z = 1000, 3000, 16384
        num_queries, rounds = 24, 5
        required_speedup = 5.0

    graph = build_graph(num_nodes, num_edges)
    workload = build_workload(graph, num_queries, z)
    print(f"graph: n={graph.num_nodes} m={graph.num_edges} Z={z} "
          f"queries={num_queries} restarts={rounds}")

    cold_s, cold_values = time_restarts(graph, workload, seed=17,
                                        rounds=rounds)

    with tempfile.TemporaryDirectory(prefix="bench-index-") as root:
        prime_start = time.perf_counter()
        restart_values(graph, workload, seed=17, store_root=root)
        prime_s = time.perf_counter() - prime_start
        warm_s, warm_values = time_restarts(graph, workload, seed=17,
                                            rounds=rounds, store_root=root)
        with IndexStore(root) as store:
            stats = store.stats().as_dict()

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    print(f"  cold restarts (no store):   {cold_s * 1000:9.1f} ms "
          f"({cold_s * 1000 / rounds:.2f} ms/restart)")
    print(f"  store prime (first run):    {prime_s * 1000:9.1f} ms")
    print(f"  warm restarts (store):      {warm_s * 1000:9.1f} ms "
          f"({warm_s * 1000 / rounds:.2f} ms/restart)")
    print(f"  speedup:                    {speedup:9.1f}x")
    print(f"  store: {stats['num_batches']} batch(es), "
          f"{stats['num_results']} cached results, "
          f"{stats['batch_bytes'] / 1e6:.1f} MB")

    # The store is a cache of deterministic computations: a warm restart
    # must return exactly what the cold computation produced.
    mismatches = sum(1 for a, b in zip(cold_values, warm_values, strict=True) if a != b)

    report = {
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "num_samples": z,
        "num_queries": num_queries,
        "rounds": rounds,
        "required_speedup": required_speedup,
        "cold_seconds": cold_s,
        "prime_seconds": prime_s,
        "warm_seconds": warm_s,
        "speedup": speedup,
        "value_mismatches": mismatches,
        "store": stats,
    }
    if json_path:
        Path(json_path).write_text(json.dumps(report, indent=2))
        print(f"wrote {json_path}")

    if mismatches:
        print(f"FAIL: {mismatches} warm values differ from cold values")
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
        help="small graph / few restarts quick check for CI",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the timing report as JSON",
    )
    args = parser.parse_args()
    return run(smoke=args.smoke, json_path=args.json)


if __name__ == "__main__":
    raise SystemExit(main())
