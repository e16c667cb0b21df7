"""The benchmark's workloads: inputs, the measured loop, output checks.

Each workload is a :class:`Workload` with three steps:

``setup(seed, ops, traced)``
    builds the inputs for ``ops`` operations from the seed (and any
    server or store the workload needs); repeated for ``setup_s`` (see
    :func:`common.timed_setup`).
``measure(state, tracer)``
    runs those operations and returns an :class:`~common.Outcome` with
    one latency per operation.  ``ops`` comes from ``--seconds`` and the
    workload's nominal operation time, so a run on a 2-core box takes
    about that long and does the same work for the same seed.
``teardown(state)``
    stops what ``setup`` started.

Output checks run inside ``measure`` after the timed loop; any failed
check lands in ``Outcome.problems`` and fails the run.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import common
from common import Outcome, hoeffding, load_graph, percentile


@dataclass
class Workload:
    name: str
    why: str
    #: Nominal seconds per operation on the reference box; sizes a run.
    op_seconds: float
    setup: Callable[..., Any]
    measure: Callable[..., Outcome]
    teardown: Callable[[Any], None] = lambda state: None

    def operations(self, seconds: float) -> int:
        return max(4, round(seconds / self.op_seconds))


def _timed(tracer, op: int, fn: Callable[[], Any]) -> Tuple[Any, float]:
    if tracer is not None:
        tracer.op = op
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.op = None
    return result, elapsed


# ----------------------------------------------------------------------
# cold-query
# ----------------------------------------------------------------------
COLD_Z = 4096
COLD_REF_Z = 8192
COLD_SETS = 8
#: Family-wise false-alarm budget of the cold-query value checks.
COLD_ALPHA = 1e-6


def cold_setup(seed: int, ops: int, traced: bool) -> dict:
    from repro.queries import sample_st_pairs

    graph = load_graph()
    sets = []
    for j in range(COLD_SETS):
        pairs = sample_st_pairs(graph, 8, seed=seed * 101 + j)
        sources = (pairs[0][0], pairs[1][0])
        sets.append((sources, tuple(t for _, t in pairs)))
    return {"graph": graph, "sets": sets, "seed": seed, "ops": ops}


def _cold_reference(state: dict) -> Dict[Tuple[int, int], float]:
    """High-Z values for every pair, sampled with an unrelated seed."""
    from repro.api import ReliabilityQuery, Session

    session = Session(state["graph"].copy(), seed=state["seed"] + 7_919_777)
    queries = [
        ReliabilityQuery(s, targets=targets, samples=COLD_REF_Z)
        for sources, targets in state["sets"] for s in sources
    ]
    reference = {}
    for result in session.run(queries):
        reference.update(dict(result.pairs))
    return reference


def cold_measure(state: dict, tracer) -> Outcome:
    from repro.api import ReliabilityQuery, Session

    graph, sets, ops = state["graph"], state["sets"], state["ops"]
    latencies, answers = [], []
    for i in range(ops):
        sources, targets = sets[i % COLD_SETS]
        copy = graph.copy()
        batch = [ReliabilityQuery(s, targets=targets, samples=COLD_Z)
                 for s in sources]
        session_seed = state["seed"] * 100_003 + i + 1
        results, elapsed = _timed(
            tracer, i, lambda: Session(copy, seed=session_seed).run(batch)
        )
        latencies.append(elapsed)
        answers.extend(pair for result in results for pair in result.pairs)
    wall = sum(latencies)

    # Every value and every reference value is within its Hoeffding
    # half-width of the true R(s, t), jointly with probability 1 - alpha.
    reference = _cold_reference(state)
    delta = COLD_ALPHA / (len(answers) + len(reference))
    tolerance = hoeffding(COLD_Z, delta) + hoeffding(COLD_REF_Z, delta)
    problems = [
        f"R{pair}={value} vs reference {reference[pair]} (tol {tolerance:.4f})"
        for pair, value in answers
        if abs(value - reference[pair]) > tolerance
    ]
    return Outcome(
        latencies=latencies, wall_s=wall, attempted=ops, problems=problems,
        details={
            "Z": COLD_Z, "reference_Z": COLD_REF_Z, "operations": ops,
            "pairs_per_operation": 16, "alpha": COLD_ALPHA,
            "tolerance": round(tolerance, 5),
            "max_abs_error": max(
                abs(v - reference[p]) for p, v in answers
            ),
        },
    )


# ----------------------------------------------------------------------
# maximize-be / maximize-hc
# ----------------------------------------------------------------------
MAXIMIZE = {
    "be": dict(method="be", estimator="rss", samples=250, k=5),
    "hc": dict(method="hc", estimator="mc", samples=1000, k=5),
}


def maximize_setup(seed: int, ops: int, traced: bool) -> dict:
    from repro.queries import sample_st_pairs

    graph = load_graph()
    return {"graph": graph, "pairs": sample_st_pairs(graph, ops, seed=seed)}


def _maximize_measure(kind: str) -> Callable[[dict, Any], Outcome]:
    def measure(state: dict, tracer) -> Outcome:
        from repro.api import MaximizeQuery, Session

        graph, pairs = state["graph"], state["pairs"]
        latencies, solutions = [], []
        for i, (s, t) in enumerate(pairs):
            copy = graph.copy()
            query = MaximizeQuery(s, t, **MAXIMIZE[kind])
            result, elapsed = _timed(
                tracer, i, lambda: Session(copy, r=100, l=30).maximize(query)
            )
            latencies.append(elapsed)
            solutions.append(((s, t), result.solution))

        # Paired evaluation must be reproducible by a fresh session, and
        # adding edges never lowers reliability in the same worlds.
        problems = []
        for (s, t), solution in solutions:
            fresh = Session(graph.copy())
            base = fresh.evaluate(s, t)
            new = fresh.evaluate(s, t, solution.edges)
            if (base, new) != (solution.base_reliability,
                               solution.new_reliability):
                problems.append(
                    f"{kind} {(s, t)}: reported {solution.base_reliability}"
                    f"->{solution.new_reliability}, fresh {base}->{new}"
                )
            if solution.gain < 0:
                problems.append(f"{kind} {(s, t)}: negative gain {solution.gain}")
        gains = [solution.gain for _, solution in solutions]
        return Outcome(
            latencies=latencies, wall_s=sum(latencies),
            attempted=len(pairs), problems=problems,
            details={**MAXIMIZE[kind], "queries": len(pairs),
                     "gain_mean": statistics.fmean(gains)},
            counts={
                "maximize.candidates": sum(
                    sol.num_candidates for _, sol in solutions
                ),
                "maximize.edges": sum(len(sol.edges) for _, sol in solutions),
            },
        )

    return measure


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
SERVE_Z = 1000
SERVE_POOL = 96
SERVE_TARGETS = 4
SERVE_WRITE_EVERY = 25
SERVE_CLIENTS = 2
SERVE_ZIPF_S = 1.1
#: A probability raise closes this share of the gap to 1.
SERVE_RAISE = 0.1
SERVE_CHECK_SOURCES = 8


def _serve_requests(graph, seed: int, per_client: int):
    """Per-client request lists and the ordered writes (deterministic)."""
    from repro.queries import sample_st_pairs

    rng = random.Random(seed)
    pool: List[int] = []
    for s, _ in sample_st_pairs(graph, SERVE_POOL * 3, seed=seed):
        if s not in pool:
            pool.append(s)
    pool = pool[:SERVE_POOL]
    if len(pool) < SERVE_POOL:
        raise RuntimeError("could not draw the serve-mixed source pool")
    nodes = sorted(graph.nodes())
    weights = [1.0 / (rank + 1) ** SERVE_ZIPF_S for rank in range(SERVE_POOL)]

    def read() -> dict:
        source = rng.choices(pool, weights)[0]
        return {"source": source, "targets": rng.sample(nodes, SERVE_TARGETS),
                "samples": SERVE_Z}

    num_writes = per_client // SERVE_WRITE_EVERY
    edges = sorted((u, v, p) for u, v, p in graph.edges() if p < 1.0)
    raised = rng.sample(edges, num_writes)
    writes = []
    for j in range(num_writes):
        u, v, p = raised[j]
        if j == num_writes - 1:
            # The one non-monotone edit comes last, so every cached reach
            # state is resumed (not dropped) by the writes before it.
            writes.append({"deletes": [[u, v]]})
        elif j == num_writes // 2:
            while True:
                a, b = rng.sample(nodes, 2)
                if not graph.has_edge(a, b):
                    break
            writes.append({"upserts": [[a, b, 0.5]]})
        else:
            writes.append({"upserts": [[u, v, p + (1.0 - p) * SERVE_RAISE]]})
    # Client 0 writes; the others only read, and send twice as many
    # requests so that all clients stay busy for about the same time.
    clients = []
    for c in range(SERVE_CLIENTS):
        plan = []
        for i in range(per_client if c == 0 else 2 * per_client):
            if c == 0 and i % SERVE_WRITE_EVERY == SERVE_WRITE_EVERY - 1:
                plan.append(("PATCH", "/edges", writes[i // SERVE_WRITE_EVERY]))
            else:
                plan.append(("POST", "/reliability", read()))
        clients.append(plan)
    warmup = [[("POST", "/reliability",
                {"source": s, "targets": nodes[:SERVE_TARGETS],
                 "samples": SERVE_Z})
               for s in pool[c::SERVE_CLIENTS]] for c in range(SERVE_CLIENTS)]
    return pool, clients, warmup, writes


def _start_server(traced: bool) -> Tuple[subprocess.Popen, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(common.SRC)
    name, num_nodes, seed = common.DATASET
    args = ["serve", "--dataset", name, "--nodes", str(num_nodes),
            "--seed", str(seed), "--port", "0"]
    if traced:
        env["PERFBENCH_TRACE_OUT"] = str(common.WORK / "server-spans.json")
        command = [sys.executable, str(common.ROOT / "perfbench" /
                                       "serve_launcher.py"), *args]
    else:
        command = [sys.executable, "-m", "repro", *args]
    proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    for line in proc.stdout:
        if " on http://" in line:
            port = int(line.rsplit(":", 1)[1])
            # Keep draining stdout so the server never blocks on a pipe.
            threading.Thread(target=proc.stdout.read, daemon=True).start()
            return proc, port
    proc.wait()
    raise RuntimeError("server exited before printing its address")


def _stop_server(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class _Client:
    """One keep-alive HTTP connection; records latency and busy time."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        #: ``(path, latency_s, client_busy_s, ok, completed_at)``
        self.records: List[Tuple[str, float, float, bool, float]] = []
        #: DeltaReport payloads of successful PATCH /edges responses.
        self.reports: List[dict] = []

    def send(self, method: str, path: str, body: Optional[dict]) -> Optional[dict]:
        start, busy = time.perf_counter(), time.thread_time()
        ok, payload = False, None
        try:
            data = json.dumps(body).encode() if body is not None else None
            self.conn.request(method, path, body=data,
                              headers={"Content-Type": "application/json"})
            response = self.conn.getresponse()
            raw = response.read()
            ok = response.status == 200
            payload = json.loads(raw) if ok else None
            if ok and method == "PATCH":
                self.reports.append(payload["report"])
        except (OSError, http.client.HTTPException, ValueError):
            self.conn.close()
        end = time.perf_counter()
        self.records.append((path, end - start, time.thread_time() - busy,
                             ok, end))
        return payload

    def run(self, plan) -> None:
        for method, path, body in plan:
            self.send(method, path, body)


def serve_setup(seed: int, ops: int, traced: bool) -> dict:
    graph = load_graph()
    pool, clients, warmup, writes = _serve_requests(graph, seed, ops)
    proc, port = _start_server(traced)
    return {"graph": graph, "pool": pool, "clients": clients,
            "warmup": warmup, "writes": writes, "proc": proc, "port": port}


def serve_teardown(state: dict) -> None:
    _stop_server(state["proc"])


def _phase(port: int, plans) -> Tuple[List[_Client], float]:
    """Run one client thread per plan; ``(clients, start time)``."""
    clients = [_Client(port) for _ in plans]
    threads = [threading.Thread(target=c.run, args=(plan,))
               for c, plan in zip(clients, plans)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return clients, start


def _tally(clients: List[_Client]) -> Dict[str, int]:
    records = [r for c in clients for r in c.records]
    ok = sum(1 for r in records if r[3])
    return {"sent": len(records), "succeeded": ok, "failed": len(records) - ok}


def serve_measure(state: dict, tracer) -> Outcome:
    from repro.api import GraphDelta, ReliabilityQuery, Session

    port = state["port"]
    warm, _ = _phase(port, state["warmup"])
    clients, start = _phase(port, state["clients"])
    records = [r for c in clients for r in c.records]
    # Throughput is taken while every client is still sending, so the
    # load stays at SERVE_CLIENTS concurrent requests throughout.
    window_end = min(c.records[-1][4] for c in clients)
    wall = window_end - start
    completed = sum(1 for r in records if r[3] and r[4] <= window_end)
    reads = [r[1] for r in records if r[0] == "/reliability" and r[3]]
    writes = [r[1] for r in records if r[0] == "/edges" and r[3]]
    probe = _Client(port)

    # After the stream: HTTP answers on a fixed pair set must equal a cold
    # session on the final graph, bit for bit.
    final = state["graph"].copy()
    for body in state["writes"]:
        GraphDelta(
            upserts=tuple((u, v, float(p)) for u, v, p in body.get("upserts", [])),
            deletes=tuple((u, v) for u, v in body.get("deletes", [])),
        ).apply_to(final)
    nodes = sorted(final.nodes())
    check = [(s, tuple(nodes[i::97][:SERVE_TARGETS]))
             for i, s in enumerate(state["pool"][:SERVE_CHECK_SOURCES])]
    expected = Session(final, seed=common.DATASET[2]).run([
        ReliabilityQuery(s, targets=t, samples=SERVE_Z) for s, t in check
    ])
    problems = []
    for (s, targets), want in zip(check, expected):
        got = probe.send("POST", "/reliability", {
            "source": s, "targets": list(targets), "samples": SERVE_Z,
        })
        values = got and [entry["value"] for entry in got["results"]]
        if values != list(want.values):
            problems.append(f"serve {s}->{targets}: http {values} "
                            f"!= cold {list(want.values)}")
    health = probe.send("GET", "/healthz", None) or {}
    graph_info = health.get("graph", {})
    if graph_info.get("num_edges") != final.num_edges:
        problems.append(f"served graph has {graph_info.get('num_edges')} "
                        f"edges, expected {final.num_edges}")
    coalescer = health.get("coalescer", {})

    measured = _tally(clients)
    busy = [r[2] for r in records]
    details = {
        "Z": SERVE_Z, "clients": SERVE_CLIENTS, "source_pool": SERVE_POOL,
        "targets_per_read": SERVE_TARGETS, "write_every": SERVE_WRITE_EVERY,
        "zipf_s": SERVE_ZIPF_S, "warmup": _tally(warm), "measured": measured,
        "read_p50_ms": percentile(reads, 50) * 1e3,
        "read_p99_ms": percentile(reads, 99) * 1e3,
        "write_p50_ms": percentile(writes, 50) * 1e3 if writes else None,
        "writes": len(writes),
        "serve_rps": completed / wall,
        "client_busy_us_per_request": statistics.fmean(busy) * 1e6,
        "coalescer": coalescer,
        # Client-side time of every request the server saw (all phases).
        "all_request_s": sum(
            r[1] for c in [*warm, *clients, probe] for r in c.records
        ),
    }
    warm_tally = details["warmup"]
    if warm_tally["failed"]:
        problems.append(f"{warm_tally['failed']} warm-up requests failed")
    delta = {"delta.resumed_states": 0, "delta.dropped_states": 0,
             "delta.repaired_batches": 0}
    for report in clients[0].reports:
        for name in delta:
            delta[name] += report[name.split(".", 1)[1]]
    return Outcome(
        latencies=reads, wall_s=wall, attempted=measured["sent"],
        failed=measured["failed"], completed=completed, problems=problems, details=details,
        counts={"serve.requests": measured["sent"],
                "serve.writes": len(state["writes"]), **delta},
        layers={
            "client.busy_us_per_request": statistics.fmean(busy) * 1e6,
            "coalescer.mean_batch_size": coalescer.get("mean_batch_size", 0.0),
        },
    )


# ----------------------------------------------------------------------
# warm-restart
# ----------------------------------------------------------------------
RESTART_Z = 16384
RESTART_QUERIES = 24
RESTART_FRESH = 2
RESTART_SOURCES = 8
RESTART_SESSION_SEED = 17


def _restart_workloads(graph, seed: int, ops: int):
    """The base 24 queries and, per restart, 22 repeats + 2 fresh pairs."""
    from repro.api import ReliabilityQuery
    from repro.queries import sample_st_pairs

    # 24 pairs over RESTART_SOURCES sources: sweeps are per source, so
    # this keeps building the store (and the store-less answers) cheap.
    rng = random.Random(seed + 1)
    nodes = sorted(graph.nodes())
    sources = sorted({s for s, _ in sample_st_pairs(graph, 64, seed=seed)})
    sources = rng.sample(sources, RESTART_SOURCES)
    per_source = RESTART_QUERIES // RESTART_SOURCES
    base = [(s, t) for s in sources
            for t in rng.sample([v for v in nodes if v != s], per_source)]
    seen = set(base)
    per_restart = []
    for _ in range(ops):
        keep = rng.sample(base, RESTART_QUERIES - RESTART_FRESH)
        fresh = []
        for source in rng.sample(sources, RESTART_FRESH):
            pair = (source, rng.choice(nodes))
            while pair in seen or pair[0] == pair[1]:
                pair = (source, rng.choice(nodes))
            seen.add(pair)
            fresh.append(pair)
        per_restart.append([
            ReliabilityQuery(s, target=t, samples=RESTART_Z)
            for s, t in keep + fresh
        ])
    base_queries = [ReliabilityQuery(s, target=t, samples=RESTART_Z)
                    for s, t in base]
    return base_queries, per_restart


def restart_setup(seed: int, ops: int, traced: bool) -> dict:
    from repro.api import Session
    from repro.index import IndexStore

    graph = load_graph()
    base, per_restart = _restart_workloads(graph, seed, ops)
    root = common.WORK / f"store-{time.monotonic_ns()}"
    with IndexStore(root) as store:
        Session(graph.copy(), seed=RESTART_SESSION_SEED, store=store).run(base)
    return {"graph": graph, "per_restart": per_restart, "root": root}


def restart_teardown(state: dict) -> None:
    shutil.rmtree(state["root"], ignore_errors=True)


def restart_measure(state: dict, tracer) -> Outcome:
    from repro.api import Session
    from repro.index import IndexStore

    graph, root = state["graph"], state["root"]
    latencies, answers = [], []
    counters: Dict[str, int] = {}

    def restart(copy, workload):
        store = IndexStore(root)
        try:
            results = Session(copy, seed=RESTART_SESSION_SEED,
                              store=store).run(workload)
        finally:
            store.close()
        for name, value in store.counters.as_dict().items():
            counters[name] = counters.get(name, 0) + value
        return results

    for i, workload in enumerate(state["per_restart"]):
        copy = graph.copy()
        results, elapsed = _timed(tracer, i,
                                  lambda: restart(copy, workload))
        latencies.append(elapsed)
        answers.append([v for r in results for v in r.values])

    # Store-less answers for every pair any restart asked about.
    plain = Session(graph.copy(), seed=RESTART_SESSION_SEED)
    problems = []
    for i, workload in enumerate(state["per_restart"]):
        want = [v for r in plain.run(workload) for v in r.values]
        if want != answers[i]:
            problems.append(f"restart {i}: store answers differ from store-less")
    hits, misses = counters.get("result_hits", 0), counters.get("result_misses", 0)
    return Outcome(
        latencies=latencies, wall_s=sum(latencies),
        attempted=len(latencies), problems=problems,
        details={"Z": RESTART_Z, "queries_per_restart": RESTART_QUERIES,
                 "fresh_pairs_per_restart": RESTART_FRESH,
                 "restarts": len(latencies), "store_counters": counters},
        counts={f"index.{name}": value for name, value in counters.items()},
        layers={"index.result_hit_ratio": hits / (hits + misses)},
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cold-query",
            "first query on a new graph or (Z, seed): compile, keyed coin "
            "sampling and sweeps do all the work; caches, store and HTTP "
            "are bypassed",
            0.3, cold_setup, cold_measure,
        ),
        Workload(
            "maximize-be",
            "the paper's Problem 1 with BE + RSS (k=5): top-l paths and "
            "search-space elimination dominate; no HTTP, repair or store",
            0.4, maximize_setup, _maximize_measure("be"),
        ),
        Workload(
            "maximize-hc",
            "hill climbing + MC (k=5): the batched selection-gain kernel "
            "dominates; no HTTP, repair or store",
            1.0, maximize_setup, _maximize_measure("hc"),
        ),
        Workload(
            "serve-mixed",
            "2 keep-alive HTTP clients, Zipf reads on a cached pool plus "
            "PATCH writes: HTTP, coalescer, session and delta repair "
            "dominate; sampling is bypassed",
            0.01, serve_setup, serve_measure, serve_teardown,
        ),
        Workload(
            "warm-restart",
            "store-backed restarts on mostly repeated pairs: the only "
            "workload that drives the persistent index (open, result "
            "cache, mmap batch load)",
            0.3, restart_setup, restart_measure, restart_teardown,
        ),
    )
}
