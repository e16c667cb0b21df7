"""End-to-end benchmark of the reliability library, server and index.

Run from the root of a checkout (the program is imported from ``src/``):

    python3 perfbench/run.py --workload cold-query --seed 1 --seconds 10 --trace 0

``--trace 0`` measures with nothing wrapped and prints the end-to-end
metrics.  ``--trace 1`` runs the same inputs twice, first untraced and
then with span wrappers around each layer's entry points
(:mod:`spans`), and prints the per-layer metrics, the tracing overhead
and the time no layer span covers.  Either way the last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it holds the host, the inputs and the work counts.

``python3 perfbench/run.py --write-spec`` rewrites ``BENCHMARK.json``
from :data:`END_TO_END`, :data:`PER_LAYER` and the workload list.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import spans  # noqa: E402

RUN_SECONDS = 10

MALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(1 << 32),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 32),
    "MALLOC_TOP_PAD_": str(1 << 28),
}

#: ``(name, unit, better, bound)``; every workload reports each one.  An
#: operation is the workload's unit of work: a cold 2x8 workload, one
#: maximize query, one HTTP read, one store-backed restart.  The timing
#: bounds are wide because the 10-seed spread of compute-bound workloads
#: on a shared 2-core VM reaches 0.1-0.2; tail percentiles spread wider
#: still, so they are printed with the inputs but not gated.
END_TO_END = [
    ("p50_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

#: ``(name, unit)``; layers a workload does not touch report 0.  Lower
#: is better except for :data:`HIGHER_IS_BETTER`.
PER_LAYER = [
    ("csr.compile_ms", "ms"),
    ("kernel.sample_ms", "ms"),
    ("kernel.sample_ns_per_coin", "ns"),
    ("kernel.coin_words", "count"),
    ("kernel.repair_ms", "ms"),
    ("batch.sweep_ms", "ms"),
    ("batch.sweep_us_per_source", "us"),
    ("selection.greedy_ms", "ms"),
    ("selection.candidate_rows_ms", "ms"),
    ("selection.ns_per_candidate_word", "ns"),
    ("selection.candidates", "count"),
    ("paths.top_l_ms", "ms"),
    ("paths.count", "count"),
    ("core.elimination_ms", "ms"),
    ("core.candidates", "count"),
    ("core.batch_selection_ms", "ms"),
    ("core.estimator_calls", "count"),
    ("session.run_us", "us"),
    ("session.evaluate_ms", "ms"),
    ("session.apply_delta_ms", "ms"),
    ("delta.resumed_states", "count"),
    ("delta.dropped_states", "count"),
    ("delta.repaired_batches", "count"),
    ("http.parse_us", "us"),
    ("http.serialize_us", "us"),
    ("coalescer.wait_ms", "ms"),
    ("coalescer.mean_batch_size", "queries"),
    ("index.open_ms", "ms"),
    ("index.result_lookup_us", "us"),
    ("index.put_results_us", "us"),
    ("index.load_batch_ms", "ms"),
    ("index.result_hit_ratio", "ratio"),
    ("graph.content_hash_ms", "ms"),
    ("client.busy_us_per_request", "us"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
] + [(f"self_share.{layer}", "ratio") for layer in spans.LAYERS]


HIGHER_IS_BETTER = {"coalescer.mean_batch_size", "index.result_hit_ratio"}


def write_spec() -> None:
    from workloads import WORKLOADS

    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u,
             "better": "higher" if n in HIGHER_IS_BETTER else "lower"}
            for n, u in PER_LAYER
        ],
    }
    path = HERE.parent / "BENCHMARK.json"
    path.write_text(json.dumps(spec, indent=2) + "\n")
    print(f"wrote {path}")


def end_to_end(outcome: common.Outcome, setup_s: float) -> dict:
    lat = outcome.latencies
    return {
        "p50_ms": statistics.median(lat) * 1e3,
        "ops_per_s": (
            outcome.completed if outcome.completed is not None
            else outcome.attempted - outcome.failed
        ) / outcome.wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": common.peak_rss_mb(),
    }


def per_layer(summary: dict, plain: common.Outcome, traced: common.Outcome,
              covered: dict) -> dict:
    names, counts = summary["names"], summary["counts"]

    def total(name: str) -> float:
        return names.get(name, (0, 0.0, 0.0))[1]

    def per_call(name: str, scale: float) -> float:
        calls = names.get(name, (0, 0.0, 0.0))[0]
        return total(name) / calls * scale if calls else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    requests = names.get("serve.http.decode", (0,))[0]
    responses = names.get("serve.http.encode", (0,))[0]
    waits = summary["waits"]
    op_time = sum(traced.latencies)
    if requests:
        # Server-side spans cannot be matched to client operations; the
        # covered time is what each request spent in a traced layer.
        attributed = (
            total("serve.http.decode") + total("serve.http.parse")
            + sum(waits) + counts.get("session.run_member_s", 0.0)
            + total("api.session.apply_delta")
            + total("serve.http.serialize") + total("serve.http.encode")
        )
        op_time = traced.details["all_request_s"]
    else:
        attributed = sum(covered.values())
    self_time: dict = {}
    for name, (_, _, self_s) in names.items():
        layer = name.rsplit(".", 1)[0]
        self_time[layer] = self_time.get(layer, 0.0) + self_s
    plain_p50 = statistics.median(plain.latencies)
    overhead = statistics.median(traced.latencies) - plain_p50
    metrics = {
        "csr.compile_ms": per_call("engine.csr.compile", 1e3),
        "kernel.sample_ms": per_call("engine.kernel.sample", 1e3),
        "kernel.sample_ns_per_coin": ratio(
            total("engine.kernel.sample") * 1e9, counts.get("kernel.coins", 0)
        ),
        "kernel.coin_words": counts.get("kernel.coin_words", 0),
        "kernel.repair_ms": per_call("engine.kernel.repair", 1e3),
        "batch.sweep_ms": per_call("engine.batch.sweep", 1e3),
        "batch.sweep_us_per_source": ratio(
            total("engine.batch.sweep") * 1e6, counts.get("batch.sources", 0)
        ),
        "selection.greedy_ms": per_call("engine.selection.greedy", 1e3),
        "selection.candidate_rows_ms": per_call(
            "engine.selection.candidate_rows", 1e3
        ),
        "selection.ns_per_candidate_word": ratio(
            total("engine.selection.greedy") * 1e9,
            counts.get("selection.candidate_words", 0),
        ),
        "selection.candidates": counts.get("selection.candidates", 0),
        "paths.top_l_ms": per_call("paths.top_l", 1e3),
        "paths.count": counts.get("paths.count", 0),
        "core.elimination_ms": per_call("core.elimination", 1e3),
        "core.candidates": counts.get("core.candidates", 0),
        "core.batch_selection_ms": per_call("core.batch_selection", 1e3),
        "core.estimator_calls": counts.get("core.estimator_calls", 0),
        "session.run_us": per_call("api.session.run", 1e6),
        "session.evaluate_ms": per_call("api.session.evaluate", 1e3),
        "session.apply_delta_ms": per_call("api.session.apply_delta", 1e3),
        "delta.resumed_states": counts.get("delta.resumed_states", 0),
        "delta.dropped_states": counts.get("delta.dropped_states", 0),
        "delta.repaired_batches": counts.get("delta.repaired_batches", 0),
        "http.parse_us": ratio(
            (total("serve.http.decode") + total("serve.http.parse")) * 1e6,
            requests,
        ),
        "http.serialize_us": ratio(
            (total("serve.http.serialize") + total("serve.http.encode")) * 1e6,
            responses,
        ),
        "coalescer.wait_ms": statistics.fmean(waits) * 1e3 if waits else 0.0,
        "coalescer.mean_batch_size": traced.layers.get(
            "coalescer.mean_batch_size", 0.0
        ),
        "index.open_ms": per_call("index.open", 1e3),
        "index.result_lookup_us": per_call("index.get_results", 1e6),
        "index.put_results_us": per_call("index.put_results", 1e6),
        "index.load_batch_ms": per_call("index.load_batch", 1e3),
        "index.result_hit_ratio": traced.layers.get(
            "index.result_hit_ratio", 0.0
        ),
        "graph.content_hash_ms": per_call("graph.content_hash", 1e3),
        "client.busy_us_per_request": traced.layers.get(
            "client.busy_us_per_request", 0.0
        ),
        "trace.overhead_ms": overhead * 1e3,
        "trace.overhead_share": overhead / plain_p50,
        "trace.unattributed_share": max(0.0, 1.0 - ratio(attributed, op_time)),
    }
    for name, _ in PER_LAYER:
        if name.startswith("self_share."):
            layer = name.split(".", 1)[1]
            metrics[name] = ratio(self_time.get(layer, 0.0), op_time)
    return metrics


def run(args: argparse.Namespace) -> int:
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {common.SRC}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    ops = workload.operations(args.seconds)
    common.WORK.mkdir(exist_ok=True)
    problems: list = []
    try:
        setup_s, state = common.timed_setup(
            lambda: workload.setup(args.seed, ops, False), workload.teardown
        )
        try:
            plain = workload.measure(state, None)
        finally:
            workload.teardown(state)
        outcomes = [plain]
        if args.trace:
            tracer = spans.Tracer()
            spans.install(tracer)
            state = workload.setup(args.seed, ops, True)
            try:
                traced = workload.measure(state, tracer)
            finally:
                workload.teardown(state)
            outcomes.append(traced)
            summary = tracer.summary()
            server_spans = common.WORK / "server-spans.json"
            if server_spans.exists():
                summary = spans.merge([summary, json.loads(server_spans.read_text())])
            if plain.counts != traced.counts:
                problems.append(f"work counts differ between two passes of "
                                f"the same inputs: {plain.counts} != "
                                f"{traced.counts}")
            metrics = per_layer(summary, plain, traced, tracer.covered_by_op())
            counts = {**traced.counts, **{
                n: metrics[n] for n, unit in PER_LAYER if unit == "count"
            }}
            units = dict(PER_LAYER)
        else:
            metrics = end_to_end(plain, setup_s)
            counts = plain.counts
            units = {n: u for n, u, _, _ in END_TO_END}
    finally:
        shutil.rmtree(common.WORK, ignore_errors=True)

    for outcome in outcomes:
        problems.extend(outcome.problems)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    digest = hashlib.sha256(
        json.dumps(counts, sort_keys=True).encode()
    ).hexdigest()[:16]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": common.host_facts(),
        "graph": common.graph_facts(),
        "inputs": plain.details, "counts": counts, "counts_digest": digest,
        "latency_ms": {
            "operations": len(plain.latencies),
            **{f"p{q}": common.percentile(plain.latencies, q) * 1e3
               for q in (50, 90, 99)},
        },
        "setup_s": setup_s,
    }, default=str))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if not problems else 1


def steady_allocator() -> None:
    """Re-exec with glibc told to keep freed memory instead of unmapping it.

    The engine allocates large temporaries per call.  By default glibc
    maps blocks above 32 MiB fresh each time, and on a virtual machine
    the page faults that follow vary by more than 10% from one run to the
    next.  Keeping the memory makes runs comparable; the memory traffic
    of each temporary is still paid.  The server inherits the setting.
    """
    if all(os.environ.get(name) == value for name, value in MALLOC_ENV.items()):
        return
    os.environ.update(MALLOC_ENV)
    os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                              *sys.argv[1:]])


def main() -> int:
    steady_allocator()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args()
    if args.write_spec:
        write_spec()
        return 0
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
