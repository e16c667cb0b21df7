"""Benchmark: frontier-gated fused sweeps + incremental selection restarts.

Two gates from the sweep-engine rework:

* **Gated multi-source fusion.**  ``reach_each`` sweeps a pass of
  ``S`` sources as ``S`` blocks of one fixpoint loop that gathers only
  the active ``(arc, source)`` pairs per sweep, so fusing ``S``
  sources costs ``max`` (not ``sum``) of the per-source sweep counts
  without the old full-width byte blowup.  On sweep-bound graphs
  (high diameter, near-deterministic edges — the paper's road/sensor
  chains) the fused pass must be **>= 3x** faster than per-source
  sweeps at Z=4096 / S=16 on a 1k-node graph; on frontier-dense random
  graphs it must at least break even (the measured crossover that
  replaced the hard-coded ``_FUSE_MAX_WORDS = 4`` cliff).  Every fused
  mask is bit-for-bit its source's own ``batch_reach``.

* **Incremental selection restarts.**  Greedy rounds resume the
  forward/reverse sweeps from the committed winner's endpoints instead
  of re-sweeping all worlds from s and t; at k=20 the per-round cost
  must drop **>= 2x**, with selections identical to the full re-sweep
  path.

Usage::

    python benchmarks/bench_sweep_gated.py             # full gates
    python benchmarks/bench_sweep_gated.py --smoke     # quick CI parity
    python benchmarks/bench_sweep_gated.py --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro.engine import (  # noqa: E402
    SelectionGainKernel,
    batch_reach,
    compile_plan,
    reach_each,
    sample_worlds,
)
from repro.graph import UncertainGraph, assign_uniform, erdos_renyi  # noqa: E402


def ring_graph(n: int, seed: int = 7) -> UncertainGraph:
    """High-reliability cycle: deep sweeps, narrow frontiers.

    The sweep-bound regime (diameter ~n/2, most nodes change once per
    wave) where per-source sweeps drown in per-sweep overhead — road /
    pipeline / sensor-chain topologies.
    """
    rng = np.random.default_rng(seed)
    g = UncertainGraph()
    for i in range(n):
        g.add_edge(i, (i + 1) % n, float(rng.uniform(0.95, 0.999)))
    return g


def er_graph(n: int, m: int, seed: int = 0) -> UncertainGraph:
    """Frontier-dense random graph: the bandwidth-bound regime."""
    return assign_uniform(
        erdos_renyi(n, num_edges=m, seed=seed), 0.05, 0.5, seed=seed + 1
    )


def best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def sweep_case(graph, num_samples: int, num_sources: int, repeats: int):
    """Time per-source vs gated-fused sweeps; check parity."""
    plan = compile_plan(graph)
    batch = sample_worlds(plan, num_samples, np.random.default_rng(9))
    sources = [
        int(x) for x in np.linspace(0, graph.num_nodes - 1, num_sources)
    ]
    singles = [batch_reach(plan, batch, [s]) for s in sources]
    fused = list(reach_each(plan, batch, sources))
    mismatches = sum(
        not np.array_equal(mask, single)
        for mask, single in zip(fused, singles, strict=True)
    )
    per_source = best_of(
        lambda: [batch_reach(plan, batch, [s]) for s in sources], repeats
    )
    gated = best_of(lambda: list(reach_each(plan, batch, sources)), repeats)
    return {
        "num_samples": num_samples,
        "num_words": (num_samples + 63) // 64,
        "num_sources": num_sources,
        "per_source_seconds": per_source,
        "gated_seconds": gated,
        "gated_speedup": per_source / gated if gated > 0 else float("inf"),
        "parity_mismatches": mismatches,
    }


def missing_candidates(graph, count: int, seed: int = 7):
    n = graph.num_nodes
    rng = np.random.default_rng(seed)
    seen = set()
    pairs = []
    while len(pairs) < count:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen or graph.has_edge(*key):
            continue
        seen.add(key)
        pairs.append((key[0], key[1], 0.5))
    return pairs


def selection_case(graph, num_samples: int, num_candidates: int, k: int,
                   repeats: int):
    """Time incremental vs full-re-sweep greedy selection; check parity."""
    s, t = 0, graph.num_nodes - 1
    candidates = missing_candidates(graph, num_candidates)
    incremental = SelectionGainKernel(
        graph, num_samples, seed=17
    ).greedy_select(s, t, k, candidates)
    full = SelectionGainKernel(
        graph, num_samples, seed=17, incremental=False
    ).greedy_select(s, t, k, candidates)
    inc_seconds = best_of(
        lambda: SelectionGainKernel(graph, num_samples, seed=17)
        .greedy_select(s, t, k, candidates),
        repeats,
    )
    full_seconds = best_of(
        lambda: SelectionGainKernel(
            graph, num_samples, seed=17, incremental=False
        ).greedy_select(s, t, k, candidates),
        repeats,
    )
    return {
        "num_samples": num_samples,
        "num_candidates": num_candidates,
        "k": k,
        "incremental_seconds": inc_seconds,
        "full_resweep_seconds": full_seconds,
        "per_round_speedup": (
            full_seconds / inc_seconds if inc_seconds > 0 else float("inf")
        ),
        "selections_identical": incremental == full,
    }


def run(smoke: bool, json_path: str | None) -> int:
    if smoke:
        ring_n, er_n, er_m = 200, 200, 600
        widths = [64, 256]
        gate_z, gate_s = 256, 8
        sel_z, sel_c, sel_k = 256, 30, 4
        repeats = 1
        sweep_floor = 0.0   # parity-only in CI; timings too noisy
        round_floor = 0.0
    else:
        ring_n, er_n, er_m = 1000, 1000, 3000
        widths = [64, 256, 1024, 4096]
        gate_z, gate_s = 4096, 16
        sel_z, sel_c, sel_k = 1000, 200, 20
        repeats = 3
        sweep_floor = 3.0
        round_floor = 2.0

    ring = ring_graph(ring_n)
    er = er_graph(er_n, er_m)
    report = {
        "sweep_floor": sweep_floor,
        "round_floor": round_floor,
        "sweep": {"ring": [], "er": []},
        "selection": None,
    }

    print("== frontier-gated fused multi-source sweeps ==")
    failures = []
    for label, graph in (("ring", ring), ("er", er)):
        for z in widths:
            case = sweep_case(graph, z, gate_s, repeats)
            report["sweep"][label].append(case)
            print(
                f"[{label}] Z={z:5d} W={case['num_words']:3d} S={gate_s}: "
                f"per-source {case['per_source_seconds'] * 1000:8.1f} ms  "
                f"gated {case['gated_seconds'] * 1000:8.1f} ms "
                f"({case['gated_speedup']:5.2f}x)"
            )
            if case["parity_mismatches"]:
                failures.append(
                    f"sweep parity: {label} Z={z} has "
                    f"{case['parity_mismatches']} mismatching masks"
                )
    gate_case = next(
        c for c in report["sweep"]["ring"] if c["num_samples"] == gate_z
    )
    if gate_case["gated_speedup"] < sweep_floor:
        failures.append(
            f"gated sweep speedup {gate_case['gated_speedup']:.2f}x below "
            f"{sweep_floor}x at Z={gate_z}/S={gate_s} on the ring graph"
        )
    # The dense graph must at least break even under the new default
    # dispatch (this is what retiring the fuse cliff is predicated on).
    if not smoke:
        worst_dense = min(
            c["gated_speedup"] for c in report["sweep"]["er"]
        )
        report["worst_dense_gated_speedup"] = worst_dense
        if worst_dense < 0.7:
            failures.append(
                f"gated sweeps regress the dense graph to "
                f"{worst_dense:.2f}x of per-source"
            )

    print("== incremental selection restarts ==")
    sel = selection_case(er, sel_z, sel_c, sel_k, repeats)
    report["selection"] = sel
    print(
        f"k={sel['k']} Z={sel['num_samples']} |C|={sel['num_candidates']}: "
        f"full re-sweep {sel['full_resweep_seconds'] * 1000:8.1f} ms  "
        f"incremental {sel['incremental_seconds'] * 1000:8.1f} ms "
        f"({sel['per_round_speedup']:5.2f}x per round)"
    )
    if not sel["selections_identical"]:
        failures.append("incremental selection diverged from full re-sweep")
    if sel["per_round_speedup"] < round_floor:
        failures.append(
            f"incremental per-round speedup {sel['per_round_speedup']:.2f}x "
            f"below {round_floor}x"
        )

    if json_path:
        Path(json_path).write_text(json.dumps(report, indent=2))
        print(f"wrote {json_path}")

    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small graphs / parity-only quick check for CI",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the timing report as JSON",
    )
    args = parser.parse_args()
    return run(smoke=args.smoke, json_path=args.json)


if __name__ == "__main__":
    raise SystemExit(main())
