"""Consolidate benchmark timing JSON into BENCH_* trajectory files.

Each full benchmark run writes a one-off timing JSON (``--json``); this
script folds those into the per-benchmark **perf-trajectory** files at
the repo root — ``BENCH_session.json``, ``BENCH_selection.json``,
``BENCH_sweep.json``, ``BENCH_serve.json``, ``BENCH_index.json``,
``BENCH_delta.json`` — so speedups are trackable across PRs.
(``BENCH_engine.json`` is history: the engine-vs-scalar benchmark it
tracked was retired with the scalar samplers.)  Every entry records the
UTC date, the commit (if resolvable), a label, and the benchmark's
headline metrics; the full per-run report stays an artifact, the
trajectory keeps only what a regression plot needs.

Nightly CI runs the full gates, appends a ``nightly`` entry per
benchmark, and commits the updated trajectory files back to the repo.

Usage::

    python benchmarks/update_trajectory.py --label nightly \
        session=bench-api-session.json selection=bench-selection.json \
        sweep=bench-sweep.json
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Benchmarks the trajectory tracks -> headline-metric extractor.
EXTRACTORS = {}

#: Reports that fold into another benchmark's trajectory file.  The
#: resilience and shard-pool runs are facets of the serving story, so
#: their entries land in BENCH_serve.json next to the coalescing
#: speedups.
TRAJECTORY_FILES = {"serve_resilience": "serve", "serve_shards": "serve"}


def extractor(name):
    def register(fn):
        EXTRACTORS[name] = fn
        return fn
    return register


@extractor("session")
def _session(report: dict) -> dict:
    return {
        workload["workload"]: {
            "speedup": workload["speedup"],
            "session_seconds": workload["session_seconds"],
        }
        for workload in report["workloads"]
    }


@extractor("selection")
def _selection(report: dict) -> dict:
    return {
        method["method"]: {
            "speedup": method["speedup"],
            "kernel_seconds": method["kernel_seconds"],
        }
        for method in report["methods"]
    }


@extractor("serve")
def _serve(report: dict) -> dict:
    return {
        "speedup": report["speedup"],
        "coalesced_seconds": report["coalesced_seconds"],
        "num_clients": report["num_clients"],
        "mean_batch_size": report["coalescer"]["mean_batch_size"],
    }


@extractor("serve_resilience")
def _serve_resilience(report: dict) -> dict:
    return {
        "benchmark": "serve_resilience",
        "max_pending": report["max_pending"],
        "burst_clients": report["burst_clients"],
        "accepted_p99_seconds": report["accepted_p99_seconds"],
        "shed_p99_seconds": report["shed_p99_seconds"],
        "disarmed_seam_ns_per_call": report["disarmed_seam_ns_per_call"],
    }


@extractor("serve_shards")
def _serve_shards(report: dict) -> dict:
    return {
        "benchmark": "serve_shards",
        "num_shards": report["num_shards"],
        "num_clients": report["num_clients"],
        "speedup": report["speedup"],
        "sharded_seconds": report["sharded_seconds"],
        "one_shard_seconds": report["one_shard_seconds"],
        "non_200": report["non_200"],
        "replays": report["sharded_supervisor"]["replays"],
    }


@extractor("delta")
def _delta(report: dict) -> dict:
    return {
        "speedup": report["speedup"],
        "repair_seconds": report["repair_seconds"],
        "evict_seconds": report["evict_seconds"],
        "rounds": report["rounds"],
        "num_edits": report["num_edits"],
    }


@extractor("index")
def _index(report: dict) -> dict:
    return {
        "speedup": report["speedup"],
        "cold_seconds": report["cold_seconds"],
        "warm_seconds": report["warm_seconds"],
        "prime_seconds": report["prime_seconds"],
        "rounds": report["rounds"],
    }


@extractor("sweep")
def _sweep(report: dict) -> dict:
    def widest(cases):
        case = max(cases, key=lambda c: c["num_samples"])
        return {
            "num_samples": case["num_samples"],
            "gated_speedup": case["gated_speedup"],
            "gated_seconds": case["gated_seconds"],
        }

    selection = report["selection"]
    return {
        "ring": widest(report["sweep"]["ring"]),
        "er": widest(report["sweep"]["er"]),
        "incremental_per_round_speedup": selection["per_round_speedup"],
        "incremental_seconds": selection["incremental_seconds"],
    }


def current_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
    except OSError:  # pragma: no cover - git absent
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def append_entry(name: str, report_path: Path, label: str) -> Path:
    report = json.loads(report_path.read_text())
    trajectory_path = (
        REPO_ROOT / f"BENCH_{TRAJECTORY_FILES.get(name, name)}.json"
    )
    if trajectory_path.exists():
        trajectory = json.loads(trajectory_path.read_text())
    else:
        trajectory = []
    trajectory.append({
        "date": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%d"),
        "commit": current_commit(),
        "label": label,
        "metrics": EXTRACTORS[name](report),
    })
    trajectory_path.write_text(json.dumps(trajectory, indent=2) + "\n")
    return trajectory_path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "reports", nargs="+", metavar="NAME=PATH",
        help=f"benchmark reports to fold in; names: {sorted(EXTRACTORS)}",
    )
    parser.add_argument(
        "--label", default="local",
        help="entry label (e.g. nightly, local, pr-gate)",
    )
    args = parser.parse_args()
    for spec in args.reports:
        name, _, path = spec.partition("=")
        if name not in EXTRACTORS or not path:
            raise SystemExit(
                f"bad report spec {spec!r}; expected NAME=PATH with NAME "
                f"in {sorted(EXTRACTORS)}"
            )
        written = append_entry(name, Path(path), args.label)
        print(f"appended {name} entry -> {written.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
