"""Command-line interface.

Five subcommands cover the library's everyday workflows:

``repro datasets``
    List datasets, or summarize one (the Table 8 columns).
``repro reliability``
    Estimate s-t reliability with any estimator, with optional
    certified bounds.
``repro maximize``
    Run budgeted reliability maximization on a dataset or an edge-list
    file with any method.
``repro mrp``
    Exact most-reliable-path improvement (Algorithm 3).
``repro serve``
    Start the coalescing HTTP JSON server (``POST /reliability``,
    ``POST /maximize``, ``POST /graph`` hot-swap, ``PATCH /edges``
    streaming edits, ``GET /healthz``) — see :mod:`repro.serve`.  ``--store DIR`` attaches a persistent
    reliability index so restarts warm-start from disk.
``repro index``
    Operate on a persistent reliability index directory
    (:mod:`repro.index`): ``build`` pre-samples world batches for a
    graph, ``inspect`` prints the catalog, ``vacuum`` reclaims
    orphaned and temporary files.
``repro check``
    Run the repo-specific invariant lint pass (:mod:`repro.analysis`)
    over source files: seeded-RNG discipline, cache-version bumps,
    batch immutability, monotonic timing.

Invoke as ``python -m repro <subcommand> ...``.
"""

from __future__ import annotations

import argparse
import asyncio
import math
import os
import sys
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence

from . import datasets
from .api import METHODS, MaximizeQuery, ReliabilityQuery, Session, Workload
from .graph import UncertainGraph, read_edge_list, summarize
from .reliability import estimator_names, make_estimator, reliability_bounds
from .core import improve_most_reliable_path
from .graph import fixed_new_edge_probability

def _load_graph(args: argparse.Namespace) -> UncertainGraph:
    if args.file:
        return read_edge_list(args.file)
    return datasets.load(args.dataset, num_nodes=args.nodes, seed=args.seed)


def _bounded(
    convert: Callable[[str], Any],
    low: float,
    high: float = math.inf,
    low_open: bool = False,
) -> Callable[[str], Any]:
    """``type=`` for a numeric flag: ``convert(text)`` within bounds.

    ``low`` is inclusive unless ``low_open``; ``high`` is inclusive.
    Malformed and out-of-range values (NaN included) become argparse
    usage errors, exit 2, instead of ValueErrors from the query layer.
    """
    interval = (
        f"{'(' if low_open else '['}{low}, {high}"
        f"{')' if high == math.inf else ']'}"
    )

    def parse(text: str) -> Any:
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {convert.__name__}, got {text!r}"
            ) from None
        above_low = value > low if low_open else value >= low
        if not (above_low and value <= high):
            raise argparse.ArgumentTypeError(
                f"must be in {interval}, got {text}"
            )
        return value

    return parse


#: Shared numeric flag types: sample budgets, ``-k``, ``-r`` and ``-l``
#: are counts >= 1; seeds feed numpy generators, which reject negatives;
#: ``--h`` is a hop bound >= 0; ``--zeta`` feeds the fixed new-edge
#: model, which needs ``0 < zeta``.
_COUNT = _bounded(int, 1)
_SEED = _bounded(int, 0)
_HOPS = _bounded(int, 0)
_ZETA = _bounded(float, 0.0, 1.0, low_open=True)


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--dataset", choices=datasets.names(),
        help="built-in dataset to load",
    )
    source.add_argument(
        "--file", help="probabilistic edge-list file (u v p per line)"
    )
    parser.add_argument(
        "--nodes", type=int, default=None,
        help="override the dataset's node count",
    )
    parser.add_argument("--seed", type=_SEED, default=0)


def cmd_datasets(args: argparse.Namespace) -> int:
    """List datasets or print one dataset's Table-8-style summary."""
    if not args.name:
        for name in datasets.names():
            print(name)
        return 0
    graph = datasets.load(args.name, num_nodes=args.nodes, seed=args.seed)
    summary = summarize(graph, seed=args.seed)
    print(f"dataset:            {summary.name}")
    print(f"nodes / edges:      {summary.num_nodes} / {summary.num_edges}")
    print(f"directed:           {summary.directed}")
    q1, q2, q3 = summary.prob_quartiles
    print(f"edge probability:   {summary.prob_mean:.2f} ± "
          f"{summary.prob_std:.2f}  quartiles {{{q1:.2f}, {q2:.2f}, {q3:.2f}}}")
    print(f"avg shortest path:  {summary.avg_shortest_path:.1f}")
    print(f"longest short path: {summary.longest_shortest_path}")
    print(f"clustering coeff:   {summary.clustering_coefficient:.2f}")
    return 0


def cmd_reliability(args: argparse.Namespace) -> int:
    """Estimate s-t reliability through a session workload.

    With several ``--target`` nodes, every estimate is answered inside
    the same sampled worlds (one compiled plan, one batch BFS).
    """
    graph = _load_graph(args)
    session = Session(graph, seed=args.seed)
    query = ReliabilityQuery(
        args.source,
        targets=tuple(args.target),
        estimator=args.estimator,
        samples=args.samples,
    )
    [result] = session.run(Workload([query]))
    for (s, t), value in result.pairs:
        print(f"R({s}, {t}) ≈ {value:.4f}  "
              f"[{result.provenance.estimator}, Z={result.provenance.samples}]")
    if args.verbose:
        print(f"provenance: {result.provenance.describe()}")
    if args.bounds:
        for (s, t), value in result.pairs:
            bracket = reliability_bounds(graph, s, t)
            print(f"certified bounds: "
                  f"[{bracket.lower:.4f}, {bracket.upper:.4f}]")
            if not bracket.contains(value, slack=0.05):
                print("warning: estimate outside certified bounds "
                      "(increase --samples)", file=sys.stderr)
    return 0


def cmd_maximize(args: argparse.Namespace) -> int:
    """Run budgeted reliability maximization and print the solution."""
    graph = _load_graph(args)
    session = Session(
        graph,
        seed=args.seed,
        estimator=make_estimator(args.estimator, args.samples, seed=args.seed),
        evaluation_samples=args.evaluation_samples,
        r=args.r,
        l=args.l,
        h=args.h,
    )
    result = session.maximize(MaximizeQuery(
        args.source, args.target, k=args.k,
        zeta=args.zeta, method=args.method,
    ))
    solution = result.solution
    print(f"method:      {solution.method}")
    print(f"candidates:  {solution.num_candidates}")
    print(f"reliability: {solution.base_reliability:.4f} -> "
          f"{solution.new_reliability:.4f}  (gain {solution.gain:+.4f})")
    print(f"time:        elimination {solution.elimination_seconds:.2f}s, "
          f"selection {solution.selection_seconds:.2f}s")
    print(f"sampler:     {result.provenance.estimator}")
    for u, v, p in solution.edges:
        print(f"  + edge {u} -> {v}  (p={p:.3f})")
    if not solution.edges:
        print("  (no beneficial edges found)")
    return 0


def cmd_mrp(args: argparse.Namespace) -> int:
    """Run the exact most-reliable-path improvement (Algorithm 3)."""
    graph = _load_graph(args)
    solution = improve_most_reliable_path(
        graph, args.source, args.target, args.k,
        fixed_new_edge_probability(args.zeta),
        h=args.h,
    )
    print(f"most reliable path probability: "
          f"{solution.old_probability:.4f} -> {solution.new_probability:.4f}")
    if solution.path:
        print(f"path: {' -> '.join(str(u) for u in solution.path)}")
    for u, v, p in solution.edges:
        print(f"  + edge {u} -> {v}  (p={p:.3f})")
    if not solution.edges:
        print("  (no addition improves the most reliable path)")
    return 0


def _notify(message: str) -> None:
    """Print a shutdown notice even when nobody reads stdout any more.

    Once the reader of a piped stdout is gone, ``print`` raises
    ``BrokenPipeError``.  Output then goes to ``os.devnull``, so this
    and later notices — and the interpreter's final flush — succeed and
    the exit status stays what the shutdown decided.
    """
    try:
        print(message, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def cmd_serve(args: argparse.Namespace) -> int:
    """Start the coalescing HTTP server over one long-lived session.

    With ``--shards N`` (N >= 2) the server fronts a supervised pool of
    N worker processes instead of one in-process coalescer: requests
    route by their coalescing key, a crashed worker is respawned under
    doubling backoff, and its in-flight requests replay bit-for-bit on
    a healthy shard.

    SIGTERM/SIGINT trigger a graceful drain: stop accepting, finish
    in-flight batches, exit 0.  A second signal forces an immediate
    exit with a non-zero status (130).
    """
    import signal

    from .serve import ReliabilityServer, ShardSupervisor  # local: keep base CLI light

    graph = _load_graph(args)
    session_kwargs = dict(
        seed=args.seed,
        estimator=args.estimator,
        selection_samples=args.samples,
        evaluation_samples=args.evaluation_samples,
        r=args.r,
        l=args.l,
    )
    store = None
    supervisor = None
    if args.shards >= 2:
        # Workers open their own handles on the shared store directory;
        # the flock writer lock and breakers handle contention.
        supervisor = ShardSupervisor(
            graph,
            num_shards=args.shards,
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            max_pending=args.max_pending or None,
            heartbeat_interval_s=args.heartbeat_interval_s,
            replay_budget=args.replay_budget,
            store_path=args.store or None,
            **session_kwargs,
        )
        server = ReliabilityServer(supervisor, host=args.host, port=args.port)
    else:
        if args.store:
            from .index import IndexStore  # local: keep base CLI light

            store = IndexStore(args.store)
        server = ReliabilityServer(
            graph,
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            max_pending=args.max_pending or None,
            store=store,
            **session_kwargs,
        )

    async def _run() -> int:
        loop = asyncio.get_running_loop()
        stop_requested = asyncio.Event()

        def _on_signal() -> None:
            # Act first: a notice that cannot be printed must not stop
            # the shutdown.
            if not stop_requested.is_set():
                stop_requested.set()
                _notify("\nsignal received: draining "
                        "(send again to force quit)")
            else:
                for task in asyncio.all_tasks(loop):
                    task.cancel()
                _notify("\nsecond signal: forcing exit")

        installed = []
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, _on_signal)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):
                pass  # non-POSIX loop: fall back to KeyboardInterrupt
        host, port = await server.start()
        name = graph.name or "graph"
        print(f"serving {name} (n={graph.num_nodes}, m={graph.num_edges}, "
              f"version={graph.version}) on http://{host}:{port}",
              flush=True)
        print("  POST /reliability  {source, target|targets, samples, "
              "estimator, seed}")
        print("  POST /maximize     {source, target, k, zeta, method, ...}")
        print("  POST /graph        {edges: [[u, v, p], ...], directed, name}")
        print("  PATCH /edges       {upserts: [[u, v, p], ...], "
              "deletes: [[u, v], ...]}")
        print("  GET  /healthz")
        print(f"coalescer: max_batch={args.max_batch}, "
              f"max_wait_ms={args.max_wait_ms}, "
              f"max_pending={args.max_pending or 'unbounded'}", flush=True)
        if supervisor is not None:
            pids = [row["pid"] for row in supervisor.describe()["shards"]]
            print(f"shards: {args.shards} workers (pids {pids}), "
                  f"heartbeat_interval_s={args.heartbeat_interval_s}, "
                  f"replay_budget={args.replay_budget}", flush=True)
            if args.store:
                print(f"store: {args.store} (one handle per shard)",
                      flush=True)
        if store is not None:
            stats = store.stats()
            print(f"store: {stats.path} (schema v{stats.schema_version}, "
                  f"{stats.num_batches} batches, {stats.num_results} "
                  f"cached results)", flush=True)
        serve_task = asyncio.ensure_future(server.serve_forever())
        try:
            await stop_requested.wait()
            await server.stop()  # graceful: drains in-flight batches
            if supervisor is not None:
                await supervisor.close()  # drain + reap worker processes
            serve_task.cancel()
            await asyncio.gather(serve_task, return_exceptions=True)
        except asyncio.CancelledError:
            # Forced by a second signal: abandon the drain.
            return 130
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            if store is not None:
                store.close()
        _notify("drained cleanly")
        return 0

    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:  # non-POSIX fallback path
        _notify("shutting down")
        return 0


def cmd_index_build(args: argparse.Namespace) -> int:
    """Pre-sample world batches for a graph into a store directory."""
    from .index import IndexStore  # local: keep base CLI light

    graph = _load_graph(args)
    with IndexStore(args.store) as store:
        session = Session(graph, seed=args.seed, store=store)
        print(f"indexing {graph.name or 'graph'} "
              f"(hash {session.graph_hash()[:12]}…) into {store.root}")
        for samples in args.samples:
            _, elapsed, source = session.world_batch(samples, args.seed)
            verb = {"store": "already stored",
                    "memory": "cached"}.get(source, "sampled")
            print(f"  Z={samples:<8} seed={args.seed}: {verb} "
                  f"({elapsed * 1000:.1f} ms)")
        stats = store.stats()
        print(f"store now holds {stats.num_batches} batches "
              f"({stats.batch_bytes / 1e6:.1f} MB), "
              f"{stats.num_results} cached results")
    return 0


def _require_store_dir(store: str) -> bool:
    """True when ``store`` is an existing directory; report otherwise.

    ``inspect`` and ``vacuum`` are read/repair operations on a store
    somebody already built — opening them must never conjure an empty
    store out of a typo'd path (:class:`repro.index.IndexStore` creates
    its root on open, which is right for ``build``/``serve`` only).
    """
    if Path(store).is_dir():
        return True
    print(f"repro index: {store}: no such store directory", file=sys.stderr)
    return False


def cmd_index_inspect(args: argparse.Namespace) -> int:
    """Print a store's catalog (human-readable or ``--json``)."""
    from .index import StoreError, describe_store, dump_stats_json

    if not _require_store_dir(args.store):
        return 2
    try:
        print(dump_stats_json(args.store) if args.json
              else describe_store(args.store))
    except StoreError as error:
        print(f"repro index: {error}", file=sys.stderr)
        return 1
    return 0


def cmd_index_vacuum(args: argparse.Namespace) -> int:
    """Reap crash debris from a store directory."""
    from .index import IndexStore, StoreError

    if not _require_store_dir(args.store):
        return 2
    try:
        with IndexStore(args.store) as store:
            dropped = store.clear_results() if args.drop_results else 0
            report = store.vacuum()
    except StoreError as error:
        print(f"repro index: {error}", file=sys.stderr)
        return 1
    print(f"removed {report.removed_tmp_files} tmp files, "
          f"{report.removed_orphan_files} orphan files; "
          f"pruned {report.pruned_rows} catalog rows" +
          (f"; dropped {dropped} cached results" if args.drop_results else ""))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Run the invariant lint pass (delegates to :mod:`repro.analysis`)."""
    from .analysis import main as check_main  # local: keep base CLI light

    forwarded: List[str] = list(args.paths)
    for code in args.select or []:
        forwarded += ["--select", code]
    if args.list_rules:
        forwarded.append("--list-rules")
    return check_main(forwarded)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reliability maximization in uncertain graphs "
                    "(Ke et al., ICDE 2021).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_data = subparsers.add_parser(
        "datasets", help="list datasets or summarize one"
    )
    p_data.add_argument("name", nargs="?", choices=datasets.names())
    p_data.add_argument("--nodes", type=int, default=None)
    p_data.add_argument("--seed", type=_SEED, default=0)
    p_data.set_defaults(func=cmd_datasets)

    p_rel = subparsers.add_parser(
        "reliability", help="estimate s-t reliability"
    )
    _add_graph_arguments(p_rel)
    p_rel.add_argument("--source", type=int, required=True)
    p_rel.add_argument(
        "--target", type=int, required=True, nargs="+",
        help="target node(s); several targets share one world batch",
    )
    p_rel.add_argument("--estimator", choices=estimator_names(), default="mc")
    p_rel.add_argument("--samples", type=_COUNT, default=1000)
    p_rel.add_argument(
        "--bounds", action="store_true",
        help="also print certified lower/upper bounds",
    )
    p_rel.add_argument(
        "--verbose", action="store_true",
        help="also print result provenance (shared worlds, timings)",
    )
    p_rel.set_defaults(func=cmd_reliability)

    p_max = subparsers.add_parser(
        "maximize", help="budgeted reliability maximization"
    )
    _add_graph_arguments(p_max)
    p_max.add_argument("--source", type=int, required=True)
    p_max.add_argument("--target", type=int, required=True)
    p_max.add_argument("-k", type=_COUNT, default=5, help="edge budget")
    p_max.add_argument("--zeta", type=_ZETA, default=0.5)
    p_max.add_argument("--method", choices=METHODS, default="be")
    p_max.add_argument("--estimator", choices=estimator_names(), default="rss")
    p_max.add_argument("--samples", type=_COUNT, default=250)
    p_max.add_argument("--evaluation-samples", type=_COUNT, default=1000)
    p_max.add_argument("-r", type=_COUNT, default=100,
                       help="relevant nodes per side (Algorithm 4)")
    p_max.add_argument("-l", type=_COUNT, default=30,
                       help="number of most reliable paths")
    p_max.add_argument("--h", type=_HOPS, default=None,
                       help="hop constraint for new edges")
    p_max.set_defaults(func=cmd_maximize)

    p_mrp = subparsers.add_parser(
        "mrp", help="exact most-reliable-path improvement (Algorithm 3)"
    )
    _add_graph_arguments(p_mrp)
    p_mrp.add_argument("--source", type=int, required=True)
    p_mrp.add_argument("--target", type=int, required=True)
    p_mrp.add_argument("-k", type=_COUNT, default=3)
    p_mrp.add_argument("--zeta", type=_ZETA, default=0.5)
    p_mrp.add_argument("--h", type=_HOPS, default=None)
    p_mrp.set_defaults(func=cmd_mrp)

    p_serve = subparsers.add_parser(
        "serve", help="serve coalesced reliability queries over HTTP"
    )
    _add_graph_arguments(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8321,
                         help="bind port (0 picks a free port)")
    p_serve.add_argument(
        "--max-batch", type=_COUNT, default=64,
        help="flush a coalesced batch at this many pending queries",
    )
    p_serve.add_argument(
        "--max-wait-ms", type=_bounded(float, 0.0), default=2.0,
        help="coalescing window: max extra latency per request",
    )
    p_serve.add_argument(
        "--max-pending", type=_bounded(int, 0), default=1024,
        help="admission bound: shed requests (503 + Retry-After) once "
             "this many queries are pending or executing; 0 disables "
             "shedding",
    )
    p_serve.add_argument(
        "--shards", type=_COUNT, default=1,
        help="worker-process count: >= 2 serves through a supervised "
             "shard pool with crash replay and two-phase graph swaps; "
             "1 (default) keeps the single in-process coalescer",
    )
    p_serve.add_argument(
        "--heartbeat-interval-s", type=_bounded(float, 0.0, low_open=True),
        default=1.0,
        help="shard-pool ping cadence; a worker silent for 4 intervals "
             "is declared dead, SIGKILLed and respawned",
    )
    p_serve.add_argument(
        "--replay-budget", type=_bounded(int, 0), default=3,
        help="shard deaths one request may survive (be replayed past) "
             "before failing with 503",
    )
    p_serve.add_argument(
        "--estimator", choices=estimator_names(), default="rss",
        help="selection estimator for /maximize queries",
    )
    p_serve.add_argument("--samples", type=_COUNT, default=250,
                         help="selection-estimator sample budget")
    p_serve.add_argument("--evaluation-samples", type=_COUNT, default=1000)
    p_serve.add_argument(
        "--store", default=None, metavar="DIR",
        help="attach a persistent reliability index at this directory "
             "(created if absent); restarts warm-start from it",
    )
    p_serve.add_argument("-r", type=_COUNT, default=100,
                         help="relevant nodes per side (Algorithm 4)")
    p_serve.add_argument("-l", type=_COUNT, default=30,
                         help="number of most reliable paths")
    p_serve.set_defaults(func=cmd_serve)

    p_index = subparsers.add_parser(
        "index", help="operate on a persistent reliability index directory"
    )
    index_sub = p_index.add_subparsers(dest="index_command", required=True)

    p_build = index_sub.add_parser(
        "build", help="pre-sample world batches for a graph into a store"
    )
    _add_graph_arguments(p_build)
    p_build.add_argument("--store", required=True, metavar="DIR",
                         help="store directory (created if absent)")
    p_build.add_argument(
        "--samples", type=_COUNT, nargs="+", default=[1000],
        metavar="Z", help="world-batch sizes to pre-sample (one batch each)",
    )
    p_build.set_defaults(func=cmd_index_build)

    p_inspect = index_sub.add_parser(
        "inspect", help="print a store's catalog and statistics"
    )
    p_inspect.add_argument("--store", required=True, metavar="DIR")
    p_inspect.add_argument("--json", action="store_true",
                           help="emit machine-readable JSON")
    p_inspect.set_defaults(func=cmd_index_inspect)

    p_vacuum = index_sub.add_parser(
        "vacuum", help="reap crash debris (tmp/orphan files, stale rows)"
    )
    p_vacuum.add_argument("--store", required=True, metavar="DIR")
    p_vacuum.add_argument(
        "--drop-results", action="store_true",
        help="also drop every cached result row (stale-namespace cleanup)",
    )
    p_vacuum.set_defaults(func=cmd_index_vacuum)

    p_check = subparsers.add_parser(
        "check", help="lint sources against the repo's determinism "
                      "invariants (REP001–REP006)"
    )
    p_check.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to check (default: src/repro)",
    )
    p_check.add_argument(
        "--select", action="append", metavar="CODE",
        help="only run these rule codes (repeatable)",
    )
    p_check.add_argument(
        "--list-rules", action="store_true",
        help="print every rule code and summary, then exit",
    )
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
