"""In-memory span recorder wrapped around the public entry points of repro.

Nothing here edits ``src/``: :func:`install` replaces module globals and
class attributes at the place where their callers look them up (for
example ``repro.api.session.sample_worlds``, not the engine module the
function was defined in) with thin wrappers that record a span.  Spans
are kept in memory as ``(name, op, parent, start, end)`` tuples and
folded into per-layer totals when the run ends.

A span's *layer* is its name minus the last dotted component, so
``engine.kernel.sample`` belongs to ``engine.kernel``.  A layer's self
time is its spans' durations minus the part covered by child spans.
"""

from __future__ import annotations

import functools
import math
import threading
import time
import types
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[str, Optional[int], Optional[int], float, float]

#: The layers whose self-time share the traced run reports.
LAYERS = (
    "engine.csr",
    "engine.kernel",
    "engine.batch",
    "engine.selection",
    "paths",
    "core",
    "api.session",
    "serve.http",
    "index",
    "graph",
)


class Tracer:
    """Records nested spans per thread plus named work counters."""

    def __init__(self, always: bool = False) -> None:
        #: Record outside benchmark operations too (the server process,
        #: which has no operation ids); otherwise only while ``op`` is set,
        #: so output checks after the timed loop leave no spans.
        self.always = always
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        #: Coalescer queue waits (seconds), submit -> batch start.
        self.waits: List[float] = []
        self._submitted: Dict[int, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self.op: Optional[int] = None

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        """Whether the calling thread is inside an open span ``name``."""
        return any(self.spans[i][0] == name for i in self._stack())

    def active(self) -> bool:
        return self.always or self.op is not None

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span called ``name`` (when recording)."""
        if not self.active():
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, self.op, parent, time.perf_counter(), 0.0))
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            end = time.perf_counter()
            with self._lock:
                span = self.spans[index]
                self.spans[index] = (span[0], span[1], span[2], span[3], end)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- coalescer queue wait ------------------------------------------
    def submitted(self, query: object) -> None:
        self._submitted[id(query)] = time.perf_counter()

    def batch_started(self, queries: Any) -> None:
        now = time.perf_counter()
        for query in queries:
            start = self._submitted.pop(id(query), None)
            if start is not None:
                self.waits.append(now - start)

    # -- aggregation ---------------------------------------------------
    def summary(self) -> dict:
        """Per-span-name ``[calls, total_s, self_s]``, counts and waits."""
        child_time = [0.0] * len(self.spans)
        for name, _, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        names: Dict[str, List[float]] = {}
        for index, (name, _, _, start, end) in enumerate(self.spans):
            entry = names.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[index]
        return {
            "names": names,
            "counts": dict(self.counts),
            "waits": list(self.waits),
        }

    def covered_by_op(self) -> Dict[int, float]:
        """Per op id: time covered by the outermost spans inside it."""
        covered: Dict[int, float] = {}
        for name, op, parent, start, end in self.spans:
            if parent is None and op is not None:
                covered[op] = covered.get(op, 0.0) + end - start
        return covered


def merge(summaries: List[dict]) -> dict:
    """Add several :meth:`Tracer.summary` results together."""
    names: Dict[str, List[float]] = {}
    counts: Counter = Counter()
    waits: List[float] = []
    for summary in summaries:
        for name, (calls, total, self_s) in summary["names"].items():
            entry = names.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        counts.update(summary["counts"])
        waits.extend(summary["waits"])
    return {"names": names, "counts": dict(counts), "waits": waits}


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _wrap(tracer: Tracer, owner: Any, attr: str, name: str,
          after: Optional[Callable] = None) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper."""
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args: Any, **kwargs: Any) -> Any:
        result = tracer.call(name, original, *args, **kwargs)
        if after is not None and tracer.active():
            after(args, kwargs, result)
        return result

    setattr(owner, attr, traced)


def _words(samples: int) -> int:
    return math.ceil(samples / 64)


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every traced repro layer."""
    import repro.api.maximize as maximize_mod
    import repro.api.session as session_mod
    import repro.engine.batch as batch_mod
    import repro.engine.csr as csr_mod
    import repro.engine.selection as selection_mod
    import repro.reliability.rss as rss_mod
    import repro.serve.async_session as async_mod
    import repro.serve.http as http_mod
    from repro.graph import UncertainGraph
    from repro.index import IndexStore

    # engine.csr -------------------------------------------------------
    for module in (session_mod, csr_mod, selection_mod):
        _wrap(tracer, module, "compile_plan", "engine.csr.compile")

    # engine.kernel ----------------------------------------------------
    def sampled(args: tuple, kwargs: dict, batch: Any) -> None:
        plan, samples = args[0], args[1]
        tracer.count("kernel.coins", plan.num_edges * samples)
        tracer.count("kernel.coin_words", plan.num_edges * _words(samples))

    for module in (session_mod, batch_mod, rss_mod, selection_mod):
        _wrap(tracer, module, "sample_worlds", "engine.kernel.sample", sampled)
    _wrap(tracer, session_mod, "repair_batch", "engine.kernel.repair")

    # engine.batch -----------------------------------------------------
    def swept(args: tuple, kwargs: dict, result: Any) -> None:
        pairs = args[2]
        tracer.count("batch.sources", len({s for s, _ in pairs}))

    for module in (session_mod, batch_mod):
        _wrap(tracer, module, "pair_hit_fractions", "engine.batch.sweep", swept)

    # engine.selection -------------------------------------------------
    kernel_cls = selection_mod.SelectionGainKernel

    def greedy(args: tuple, kwargs: dict, result: Any) -> None:
        kernel, k, candidates = args[0], args[3], args[4]
        tracer.count("selection.candidates", len(candidates))
        tracer.count(
            "selection.candidate_words",
            len(candidates) * _words(kernel.num_samples) * k,
        )

    _wrap(tracer, kernel_cls, "greedy_select", "engine.selection.greedy", greedy)
    _wrap(tracer, kernel_cls, "candidate_rows", "engine.selection.candidate_rows")

    # paths / core -----------------------------------------------------
    _wrap(tracer, maximize_mod, "select_top_l_paths", "paths.top_l",
          lambda a, k, result: tracer.count("paths.count", len(result.paths)))
    _wrap(tracer, maximize_mod, "eliminate_search_space", "core.elimination",
          lambda a, k, space: tracer.count("core.candidates", len(space.edges)))
    _wrap(tracer, maximize_mod, "batch_selection", "core.batch_selection")
    rss_cls = rss_mod.RecursiveStratifiedSampler
    original_reliability = rss_cls.__dict__["reliability"]

    @functools.wraps(original_reliability)
    def estimator_call(*args: Any, **kwargs: Any) -> Any:
        if tracer.active() and tracer.inside("core.batch_selection"):
            tracer.count("core.estimator_calls")
        return original_reliability(*args, **kwargs)

    rss_cls.reliability = estimator_call

    # api.session ------------------------------------------------------
    session_cls = session_mod.Session
    original_run = session_cls.__dict__["run"]

    @functools.wraps(original_run)
    def run(self: Any, workload: Any) -> Any:
        if not tracer.active():
            return original_run(self, workload)
        tracer.batch_started(workload)
        start = time.perf_counter()
        result = tracer.call("api.session.run", original_run, self, workload)
        # Every query of a coalesced batch waits for the whole batch.
        tracer.count("session.run_member_s",
                     (time.perf_counter() - start) * len(result))
        return result

    session_cls.run = run
    _wrap(tracer, session_cls, "maximize", "api.session.maximize")
    _wrap(tracer, session_cls, "evaluate", "api.session.evaluate")

    def delta_applied(args: tuple, kwargs: dict, report: Any) -> None:
        tracer.count("delta.resumed_states", report.resumed_states)
        tracer.count("delta.dropped_states", report.dropped_states)
        tracer.count("delta.repaired_batches", report.repaired_batches)

    _wrap(tracer, session_cls, "apply_delta", "api.session.apply_delta",
          delta_applied)

    # serve.http / serve.async_session ---------------------------------
    _wrap(tracer, http_mod._Request, "json", "serve.http.decode")
    _wrap(tracer, http_mod, "parse_reliability_query", "serve.http.parse")
    _wrap(tracer, http_mod, "parse_delta", "serve.http.parse")
    _wrap(tracer, http_mod, "reliability_response", "serve.http.serialize")
    # The response encode is the ``json.dumps`` call the module makes.
    real_json = http_mod.json
    http_mod.json = types.SimpleNamespace(
        loads=real_json.loads,
        JSONDecodeError=real_json.JSONDecodeError,
        dumps=functools.partial(
            tracer.call, "serve.http.encode", real_json.dumps
        ),
    )
    original_submit = async_mod.AsyncSession.__dict__["submit"]

    @functools.wraps(original_submit)
    async def submit(self: Any, query: Any) -> Any:
        if tracer.active():
            tracer.submitted(query)
        return await original_submit(self, query)

    async_mod.AsyncSession.submit = submit

    # index / graph ----------------------------------------------------
    _wrap(tracer, IndexStore, "__init__", "index.open")
    _wrap(tracer, IndexStore, "get_results", "index.get_results")
    _wrap(tracer, IndexStore, "put_results", "index.put_results")
    _wrap(tracer, IndexStore, "load_batch", "index.load_batch")
    _wrap(tracer, UncertainGraph, "content_hash", "graph.content_hash")
