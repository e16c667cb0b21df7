"""Benchmark: session-batched workloads vs cold per-call estimator queries.

The point of :class:`repro.api.Session` is amortization: an N-query
workload pays one CSR compilation and one world-sampling pass, and pairs
sharing a source share one batch-BFS sweep.  This benchmark times a
50-pair-query workload both ways on a 1k-node graph and asserts the
session is >= 3x faster (the PR gate), then reports the numbers as JSON.

The gated workload is the paper's multi-source-target query shape
(Tables 23-25): an S x T block of pairs — 10 sources x 5 targets = 50
pair queries.  A second, un-gated workload of 50 all-distinct pairs is
also reported; there the sweep cost cannot be shared across sources, so
the speedup is just the compile+sampling amortization (~2x).

"Cold" means what a fresh process per query would see: the graph's
cached compilation is dropped before every call, and each call builds a
fresh ``MonteCarloEstimator`` with the session's ``(Z, seed)``.

Usage::

    python benchmarks/bench_api_session.py                 # full gate (>= 3x)
    python benchmarks/bench_api_session.py --smoke         # quick CI check
    python benchmarks/bench_api_session.py --json out.json # also dump timings
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.api import Session, Workload  # noqa: E402
from repro.engine import csr  # noqa: E402
from repro.graph import assign_uniform, erdos_renyi  # noqa: E402
from repro.reliability import MonteCarloEstimator  # noqa: E402


def build_graph(num_nodes: int, num_edges: int, seed: int = 0):
    graph = erdos_renyi(num_nodes, num_edges=num_edges, seed=seed)
    return assign_uniform(graph, 0.05, 0.5, seed=seed + 1)


def st_block_queries(graph, num_sources: int, per_source: int):
    """S x T pair block (the paper's multi-source-target workload)."""
    n = graph.num_nodes
    sources = [(i * n) // (num_sources + 1) for i in range(num_sources)]
    targets = [n - 1 - (j * n) // (per_source + 2) for j in range(per_source)]
    return [(s, t) for s in sources for t in targets if s != t]


def distinct_pair_queries(graph, count: int):
    """Pairs with all-distinct sources spread across the node range."""
    n = graph.num_nodes
    pairs = []
    step = max(1, n // (count + 1))
    for i in range(count):
        s = (i * step) % n
        t = (n - 1 - i * step) % n
        if s != t:
            pairs.append((s, t))
    return pairs or [(0, n - 1)]


def time_cold_estimator(graph, pairs, samples: int, seed: int):
    """N independent estimator calls, each paying compile + sampling."""
    values = []
    start = time.perf_counter()
    for s, t in pairs:
        csr._PLANS.pop(graph, None)  # a cold process compiles anew
        estimator = MonteCarloEstimator(samples, seed=seed)
        values.append(estimator.reliability(graph, s, t))
    return time.perf_counter() - start, values


def time_session(graph, pairs, samples: int, seed: int):
    """One session, one workload: compile once, sample worlds once."""
    csr._PLANS.pop(graph, None)  # session starts cold too
    start = time.perf_counter()
    session = Session(graph, seed=seed)
    results = session.run(Workload.reliability(pairs, samples=samples, seed=seed))
    elapsed = time.perf_counter() - start
    return elapsed, [r.values[0] for r in results]


def compare(graph, pairs, samples: int, label: str):
    cold_s, cold_values = time_cold_estimator(graph, pairs, samples, seed=17)
    session_s, session_values = time_session(graph, pairs, samples, seed=17)
    speedup = cold_s / session_s if session_s > 0 else float("inf")
    print(f"[{label}] {len(pairs)} pair queries")
    print(f"  cold calls:        {cold_s * 1000:9.1f} ms "
          f"({cold_s * 1000 / len(pairs):.2f} ms/query)")
    print(f"  session workload:  {session_s * 1000:9.1f} ms "
          f"({session_s * 1000 / len(pairs):.2f} ms/query)")
    print(f"  speedup:           {speedup:9.1f}x")
    mismatches = [
        (pair, a, b)
        for pair, a, b in zip(pairs, cold_values, session_values, strict=True)
        if a != b
    ]
    return {
        "workload": label,
        "num_queries": len(pairs),
        "cold_estimator_seconds": cold_s,
        "session_seconds": session_s,
        "speedup": speedup,
        "value_mismatches": len(mismatches),
    }


def run(smoke: bool, json_path: str | None) -> int:
    if smoke:
        num_nodes, num_edges, z = 200, 600, 256
        num_sources, per_source = 4, 5  # 20 pair queries
        required_speedup = 1.0  # smoke only gates "runs and agrees"
    else:
        num_nodes, num_edges, z = 1000, 3000, 1000
        num_sources, per_source = 10, 5  # 50 pair queries
        required_speedup = 3.0

    graph = build_graph(num_nodes, num_edges)
    print(f"graph: n={graph.num_nodes} m={graph.num_edges} Z={z}")

    block = compare(
        graph,
        st_block_queries(graph, num_sources, per_source),
        z,
        label="s-t block (10 sources x 5 targets)" if not smoke
        else "s-t block",
    )
    distinct = compare(
        graph,
        distinct_pair_queries(graph, num_sources * per_source),
        z,
        label="all-distinct pairs",
    )

    report = {
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "num_samples": z,
        "required_speedup": required_speedup,
        "workloads": [block, distinct],
    }
    if json_path:
        Path(json_path).write_text(json.dumps(report, indent=2))
        print(f"wrote {json_path}")

    # Same seed, same Z, same plan: the session's shared batch must give
    # bit-for-bit the values the one-off estimator calls produced.
    for wl in (block, distinct):
        if wl["value_mismatches"]:
            print(f"FAIL: {wl['value_mismatches']} value mismatches "
                  f"in {wl['workload']}")
            return 1
    if block["speedup"] < required_speedup:
        print(f"FAIL: speedup {block['speedup']:.1f}x below "
              f"{required_speedup}x")
        return 1
    print("OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small graph / small workload quick check for CI",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the timing report as JSON",
    )
    args = parser.parse_args()
    return run(smoke=args.smoke, json_path=args.json)


if __name__ == "__main__":
    raise SystemExit(main())
