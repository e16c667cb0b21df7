"""Runtime sanitizer tests: switches, thread affinity, frozen batches,
kernel and path-layer probability asserts.

Covers the dynamic half of the invariant tooling: the checks only fire
when the sanitizer is on, sessions/stores bind to their first calling
thread and reject others, the serving layer's explicit ownership
hand-off works, and cached world batches are immutable.
"""

import threading

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.analysis.sanitize import SanitizerError, ThreadAffinity
from repro.api import ReliabilityQuery, Session, Workload
from repro.engine import batch_from_words, compile_plan, sample_worlds
from repro.graph import UncertainGraph
from repro.index import IndexStore
from repro.paths import (
    most_reliable_path,
    reliability_dijkstra_all,
    top_l_most_reliable_paths,
)
from repro.reliability import BFSSharingIndex


@pytest.fixture
def sanitizer_on():
    sanitize.enable()
    try:
        yield
    finally:
        sanitize.reset()


@pytest.fixture
def sanitizer_off(monkeypatch):
    """Force-disable, so these tests hold under REPRO_SANITIZE=1 runs."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    sanitize.disable()
    try:
        yield
    finally:
        sanitize.reset()


def build_graph():
    return UncertainGraph.from_edges(
        [(0, 1, 0.8), (1, 2, 0.5), (0, 2, 0.3)]
    )


def run_in_thread(fn):
    """Run ``fn`` on a fresh thread; re-raise anything it raised."""
    box = {}

    def runner():
        try:
            box["value"] = fn()
        except BaseException as error:  # pragma: no cover - via caller
            box["error"] = error

    thread = threading.Thread(target=runner)
    thread.start()
    thread.join()
    if "error" in box:
        raise box["error"]
    return box.get("value")


# ----------------------------------------------------------------------
# switches
# ----------------------------------------------------------------------

def test_disabled_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert not sanitize.enabled()


def test_enable_disable_reset(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    sanitize.enable()
    try:
        assert sanitize.enabled()
        sanitize.disable()
        assert not sanitize.enabled()
        sanitize.reset()
        assert not sanitize.enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize.enabled()
        # A programmatic override beats the environment in both ways.
        sanitize.disable()
        assert not sanitize.enabled()
    finally:
        sanitize.reset()


@pytest.mark.parametrize("value,expect", [
    ("1", True), ("true", True), ("YES", True), ("on", True),
    ("0", False), ("", False), ("off", False),
])
def test_env_values(monkeypatch, value, expect):
    monkeypatch.setenv("REPRO_SANITIZE", value)
    assert sanitize.enabled() is expect


# ----------------------------------------------------------------------
# thread affinity
# ----------------------------------------------------------------------

def test_affinity_noop_when_disabled(sanitizer_off):
    affinity = ThreadAffinity("thing")
    affinity.check("op")
    run_in_thread(lambda: affinity.check("op"))  # no error: sanitizer off


def test_affinity_binds_lazily_and_rejects_cross_thread(sanitizer_on):
    affinity = ThreadAffinity("thing")
    affinity.check("op")  # binds to this thread
    affinity.check("op")  # same thread: fine
    with pytest.raises(SanitizerError, match="owned by thread"):
        run_in_thread(lambda: affinity.check("op"))
    affinity.rebind()
    run_in_thread(lambda: affinity.check("op"))  # new owner after rebind
    with pytest.raises(SanitizerError):
        affinity.check("op")  # old owner is now the intruder


def test_session_rejects_cross_thread_use(sanitizer_on):
    session = Session(build_graph(), seed=7)
    session.reliability(0, target=2, samples=200)
    with pytest.raises(SanitizerError, match="Session"):
        run_in_thread(lambda: session.reliability(0, target=2, samples=200))


def test_session_unguarded_when_disabled(sanitizer_off):
    session = Session(build_graph(), seed=7)
    session.reliability(0, target=2, samples=200)
    value = run_in_thread(
        lambda: session.reliability(0, target=2, samples=200).value
    )
    assert 0.0 <= value <= 1.0


def test_async_session_hand_off(sanitizer_on):
    # A session used on the main thread first, then wrapped: the
    # coalescer's explicit rebind hands ownership to its worker thread.
    import asyncio

    from repro.serve import AsyncSession

    session = Session(build_graph(), seed=7)
    direct = session.reliability(0, target=2, samples=500)

    async def scenario():
        async with AsyncSession(session, max_wait_ms=1.0) as serving:
            return await serving.submit(
                ReliabilityQuery(0, target=2, samples=500)
            )

    served = asyncio.run(scenario())
    assert served.values == direct.values


def test_store_write_paths_reject_cross_thread(sanitizer_on, tmp_path):
    graph = build_graph()
    plan = compile_plan(graph)
    words = sample_worlds(plan, 128, np.random.default_rng(1)).alive
    with IndexStore(tmp_path / "store") as store:
        store.save_batch(graph.content_hash(), 128, 1, words)  # binds
        with pytest.raises(SanitizerError, match="IndexStore"):
            run_in_thread(
                lambda: store.put_results(
                    graph.content_hash(), "mc", {(0, 2): 0.5}, 128, 1
                )
            )
        # Reads stay sanctioned cross-thread (the /healthz contract).
        stats = run_in_thread(store.stats)
        assert stats.num_batches == 1


# ----------------------------------------------------------------------
# frozen world batches
# ----------------------------------------------------------------------

def test_session_cached_batches_are_frozen():
    session = Session(build_graph(), seed=3)
    session.reliability(0, target=2, samples=256)
    (batch, _), = session._worlds.values()
    assert not batch.alive.flags.writeable
    assert not batch.valid.flags.writeable
    with pytest.raises(ValueError):
        batch.alive[0] = 0


def test_batch_from_words_freezes_words():
    graph = build_graph()
    plan = compile_plan(graph)
    words = np.array(
        sample_worlds(plan, 64, np.random.default_rng(5)).alive
    )
    assert words.flags.writeable
    batch = batch_from_words(words, 64)
    assert not batch.alive.flags.writeable
    with pytest.raises(ValueError):
        batch.alive[0, 0] = np.uint64(1)


# ----------------------------------------------------------------------
# kernel probability asserts
# ----------------------------------------------------------------------

def test_check_probabilities_accepts_valid():
    sanitize.check_probabilities(np.array([0.0, 0.5, 1.0]))
    sanitize.check_probabilities(np.array([]))
    sanitize.check_probabilities(0.25)


@pytest.mark.parametrize("bad", [
    np.array([0.5, np.nan]),
    np.array([0.5, np.inf]),
    np.array([-0.1, 0.5]),
    np.array([0.5, 1.5]),
])
def test_check_probabilities_rejects_dirty(bad):
    with pytest.raises(SanitizerError):
        sanitize.check_probabilities(bad)


def test_sample_worlds_asserts_probs_when_enabled(sanitizer_on):
    graph = build_graph()
    plan = compile_plan(graph)
    dirty = np.array(plan.probs)
    dirty[0] = np.nan
    plan.probs = dirty  # QueryPlan is a plain container; simulate rot
    with pytest.raises(SanitizerError, match="sample_worlds"):
        sample_worlds(plan, 64, np.random.default_rng(0))


@pytest.mark.parametrize("call, match", [
    (lambda kernel, pool: kernel.candidate_rows(0, pool), "candidate_rows"),
    # The bad candidate never wins, so no winner row is ever drawn for
    # it: the whole pool must be checked up front.
    (lambda kernel, pool: kernel.greedy_select(0, 2, 1, pool), "candidate"),
    (lambda kernel, pool: kernel.top_k(0, 2, 1, pool), "candidate"),
], ids=["candidate_rows", "greedy_select", "top_k"])
def test_candidate_rows_asserts_p_when_enabled(sanitizer_on, call, match):
    from repro.engine import SelectionGainKernel

    graph = UncertainGraph.from_edges(
        [(0, 1, 0.5), (1, 2, 0.5), (0, 3, 0.5), (3, 2, 0.5)], directed=True
    )
    kernel = SelectionGainKernel(graph, 64, seed=0)
    with pytest.raises(SanitizerError, match=match):
        call(kernel, [(0, 2, 0.5), (1, 3, 1.5)])


@pytest.mark.parametrize("p", [1.5, float("nan")], ids=["above-one", "nan"])
def test_session_overlay_asserts_p_when_enabled(sanitizer_on, p):
    # Overlay rows extend the session's cached batch; only they are
    # new coins, so they must be checked where they are drawn.
    session = Session(build_graph(), seed=3)
    session.evaluate_pairs([(0, 2)])
    with pytest.raises(SanitizerError, match="overlay"):
        session.evaluate_pairs([(0, 2)], [(0, 2, p)])


@pytest.mark.parametrize("p", [1.5, float("nan")], ids=["above-one", "nan"])
def test_bfs_sharing_overlay_asserts_p_when_enabled(sanitizer_on, p):
    graph = build_graph()
    index = BFSSharingIndex(graph, 64, seed=0)
    with pytest.raises(SanitizerError, match="overlay"):
        index.reliability(graph, 0, 2, [(0, 2, p)])


@pytest.mark.parametrize("p", [1.5, -0.5, float("nan")],
                         ids=["above-one", "negative", "nan"])
@pytest.mark.parametrize("call", [
    lambda g, extra: most_reliable_path(g, 0, 2, extra),
    lambda g, extra: top_l_most_reliable_paths(g, 0, 2, 3, extra),
    lambda g, extra: reliability_dijkstra_all(g, 0, extra, reverse=True),
], ids=["most_reliable_path", "top_l", "dijkstra_all"])
def test_path_overlay_asserts_p_when_enabled(sanitizer_on, call, p):
    # A p > 1 overlay edge is a negative -log weight: unchecked,
    # most_reliable_path(g, 0, 2, [(0, 2, 1.5)]) returns ([0, 2], 1.5).
    graph = UncertainGraph.from_edges([(0, 1, 0.5), (1, 2, 0.5)], directed=True)
    with pytest.raises(SanitizerError, match="paths: overlay probs"):
        call(graph, [(1, 2, 0.9), (0, 2, p)])


def test_path_overlay_checked_once_per_call(sanitizer_on, monkeypatch):
    """Yen's spur searches and its reverse search share one call's
    rows, so the overlay is scanned once, not once per search."""
    labels = []
    real = sanitize.check_probabilities

    def spy(probs, label="probs"):
        labels.append(label)
        return real(probs, label)

    monkeypatch.setattr(sanitize, "check_probabilities", spy)
    graph = UncertainGraph.from_edges(
        [(0, 1, 0.5), (1, 2, 0.5), (0, 3, 0.4), (3, 2, 0.4)], directed=True
    )
    paths = top_l_most_reliable_paths(graph, 0, 2, 5, [(1, 3, 0.9), (0, 2, 0.1)])
    assert len(paths) == 4
    assert labels == ["paths: overlay probs"]


def test_kernel_accepts_clean_probs_when_enabled(sanitizer_on):
    graph = build_graph()
    plan = compile_plan(graph)
    batch = sample_worlds(plan, 64, np.random.default_rng(0))
    assert batch.alive.shape[0] == plan.num_edges
