"""RSS's leaf pass: record the Monte Carlo leaves, draw them, sweep once.

:class:`repro.reliability.RecursiveStratifiedSampler` records its
leaves during the stratum recursion and draws and sweeps them all after
it.  Two contracts:

* **Same bits as the leaf-at-a-time sampler.**  A frozen copy of the
  estimator as it stood before the leaf pass (each leaf sampled and
  swept on the spot) is the oracle: ``reliability`` as ``float.hex``,
  ``reachability_from`` / ``reachability_to`` item for item in order,
  and the generator state after every call, on directed and undirected
  graphs whose probabilities make certain regions, structural zeros and
  deep strata common, with overlays that name overlay-only nodes.
* **One fixpoint per call, coins only where worlds are.**  One
  ``reachability_from`` runs one ``kernel._sweep`` and mixes
  ``sum(Z_i) * m`` coins; the leaf-at-a-time sampler ran one sweep per
  leaf and mixed ``sum(64 * ceil(Z_i / 64)) * m``.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import build_query_plan
from repro.engine import batch as engine_batch
from repro.engine import kernel as coin_kernel
from repro.graph import UncertainGraph
from repro.reliability import RecursiveStratifiedSampler
from repro.reliability.estimator import build_overlay

# ----------------------------------------------------------------------
# Frozen reference: the leaf-at-a-time sampler as it stood before the
# leaf pass.  Copied verbatim but for the names, the selection backend
# (which the leaf pass does not touch) and the docstrings.
# ----------------------------------------------------------------------


class _FrozenAdjacency:
    def __init__(self, graph, extra, reverse=False):
        self._reverse = reverse and graph.directed
        self._nbrs = graph.predecessors if self._reverse else graph.successors
        if self._reverse:
            extra = [(v, u, p) for u, v, p in extra or ()]
        self._overlay = build_overlay(graph, extra)
        self._canonical = not graph.directed

    def key(self, u, v):
        if self._reverse or (self._canonical and v < u):
            return (v, u)
        return (u, v)

    def neighbors(self, u):
        for v, p in self._nbrs(u).items():
            yield v, p, self.key(u, v)
        for v, p in self._overlay.get(u, ()):
            yield v, p, self.key(u, v)


class FrozenRSS:
    def __init__(self, num_samples=250, num_stratify_edges=6,
                 mc_threshold=40, max_depth=8, seed=0):
        self.num_samples = num_samples
        self.num_stratify_edges = num_stratify_edges
        self.mc_threshold = mc_threshold
        self.max_depth = max_depth
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._active_plan = None

    def reliability(self, graph, source, target, extra_edges=None):
        if source == target:
            return 1.0
        extra = list(extra_edges) if extra_edges else None
        plan = build_query_plan(graph, extra)
        if plan.node_index(source) is None or plan.node_index(target) is None:
            return 0.0
        adj = _FrozenAdjacency(graph, extra)
        self._active_plan = plan
        try:
            return self._estimate(adj, source, target, {}, self.num_samples, 0)
        finally:
            self._active_plan = None

    def reachability_from(self, graph, source, extra_edges=None):
        return self._reach(graph, source, extra_edges)

    def reachability_to(self, graph, target, extra_edges=None):
        return self._reach(graph, target, extra_edges, reverse=True)

    def _reach(self, graph, node, extra_edges, reverse=False):
        extra = list(extra_edges) if extra_edges else None
        plan = build_query_plan(graph, extra)
        if plan.node_index(node) is None:
            return {}
        adj = _FrozenAdjacency(graph, extra, reverse)
        self._active_plan = plan.reverse_view() if reverse else plan
        counts = {}
        try:
            self._estimate_vector(
                adj, node, {}, self.num_samples, 0, 1.0, counts
            )
        finally:
            self._active_plan = None
        counts[node] = 1.0
        return counts

    def _estimate(self, adj, source, target, forced, budget, depth):
        certain = self._region(
            adj, source, forced, lambda p: p >= 1.0, stop=target
        )
        if target in certain:
            return 1.0
        if target not in self._region(
            adj, source, forced, lambda p: p > 0.0, stop=target
        ):
            return 0.0
        if depth >= self.max_depth or budget < self.mc_threshold:
            return self._monte_carlo(source, target, forced, max(budget, 1))

        strata_edges = self._select_strata_edges(adj, certain, forced)
        if not strata_edges:
            return 0.0

        estimate = 0.0
        prefix_absent = 1.0
        forced_base = dict(forced)
        for _u, _v, p, key in strata_edges:
            pi = prefix_absent * p
            stratum_forced = dict(forced_base)
            stratum_forced[key] = True
            estimate += pi * self._recurse(
                adj, source, target, stratum_forced, pi, budget, depth
            )
            forced_base[key] = False
            prefix_absent *= 1.0 - p
        if prefix_absent > 0.0:
            estimate += prefix_absent * self._recurse(
                adj, source, target, forced_base, prefix_absent, budget, depth
            )
        return estimate

    def _recurse(self, adj, source, target, forced, pi, budget, depth):
        allocated = int(round(budget * pi))
        if pi <= 1e-12:
            return 0.0
        allocated = max(allocated, 1)
        if allocated < self.mc_threshold:
            return self._monte_carlo(source, target, forced, allocated)
        return self._estimate(adj, source, target, forced, allocated, depth + 1)

    def _estimate_vector(self, adj, source, forced, budget, depth, weight, out):
        certain = self._region(adj, source, forced, lambda p: p >= 1.0)
        if depth >= self.max_depth or budget < self.mc_threshold:
            self._monte_carlo_vector(source, forced, max(budget, 1), weight, out)
            return
        strata_edges = self._select_strata_edges(adj, certain, forced)
        if not strata_edges:
            for node in certain:
                out[node] = out.get(node, 0.0) + weight
            return
        prefix_absent = 1.0
        forced_base = dict(forced)
        for _u, _v, p, key in strata_edges:
            pi = prefix_absent * p
            if pi > 1e-12:
                stratum_forced = dict(forced_base)
                stratum_forced[key] = True
                allocated = max(int(round(budget * pi)), 1)
                if allocated < self.mc_threshold:
                    self._monte_carlo_vector(
                        source, stratum_forced, allocated, weight * pi, out
                    )
                else:
                    self._estimate_vector(
                        adj, source, stratum_forced, allocated,
                        depth + 1, weight * pi, out,
                    )
            forced_base[key] = False
            prefix_absent *= 1.0 - p
        if prefix_absent > 1e-12:
            allocated = max(int(round(budget * prefix_absent)), 1)
            if allocated < self.mc_threshold:
                self._monte_carlo_vector(
                    source, forced_base, allocated, weight * prefix_absent, out
                )
            else:
                self._estimate_vector(
                    adj, source, forced_base, allocated,
                    depth + 1, weight * prefix_absent, out,
                )

    @staticmethod
    def _region(adj, source, forced, unpinned, stop=None):
        seen = {source}
        frontier = deque([source])
        while frontier:
            u = frontier.popleft()
            for v, p, key in adj.neighbors(u):
                if v not in seen and forced.get(key, unpinned(p)):
                    seen.add(v)
                    if v == stop:
                        return seen
                    frontier.append(v)
        return seen

    def _select_strata_edges(self, adj, certain, forced):
        candidates = {}
        for u in certain:
            for v, p, key in adj.neighbors(u):
                if v in certain or key in forced or key in candidates:
                    continue
                if 0.0 < p < 1.0:
                    candidates[key] = (u, v, p, key)
        ranked = sorted(candidates.values(), key=lambda item: -item[2])
        return ranked[: self.num_stratify_edges]

    def _monte_carlo(self, source, target, forced, num_samples):
        plan = self._active_plan
        batch = engine_batch.sample(plan, num_samples, self._rng, forced)
        return engine_batch.pair_fraction(plan, batch, source, target)

    def _monte_carlo_vector(self, source, forced, num_samples, weight, out):
        plan = self._active_plan
        batch = engine_batch.sample(plan, num_samples, self._rng, forced)
        counts = engine_batch.reach_frequencies(plan, batch, [source])
        for node, fraction in counts.items():
            out[node] = out.get(node, 0.0) + weight * fraction


# ----------------------------------------------------------------------
# same bits
# ----------------------------------------------------------------------
#: Certain edges make certain regions, p = 0 structural zeros, and the
#: rest strata of every depth.
RSS_PROBABILITIES = (0.0, 0.25, 0.5, 0.9, 1.0)


@st.composite
def rss_inputs(draw):
    """``(graph, overlay, source, target, params)``; node ``n`` is named
    only by the overlay, and source or target may be that node."""
    n = draw(st.integers(min_value=2, max_value=12))
    directed = draw(st.booleans())
    prob = st.sampled_from(RSS_PROBABILITIES)
    graph = UncertainGraph(directed=directed)
    for u in range(n):
        graph.add_node(u)
    node = st.integers(min_value=0, max_value=n - 1)
    for _ in range(draw(st.integers(min_value=0, max_value=3 * n))):
        u, v = draw(node), draw(node)
        if u != v:
            graph.add_edge(u, v, draw(prob))
    any_node = st.integers(min_value=0, max_value=n)  # n: overlay-only
    overlay = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        u, v = draw(any_node), draw(any_node)
        if u != v:
            overlay.append((u, v, draw(prob)))
    params = dict(
        num_samples=draw(st.integers(min_value=1, max_value=600)),
        num_stratify_edges=draw(st.sampled_from([1, 2, 6])),
        mc_threshold=draw(st.sampled_from([1, 10, 40])),
        max_depth=draw(st.sampled_from([0, 2, 8])),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )
    return graph, overlay, draw(any_node), draw(any_node), params


def bits(value):
    if isinstance(value, float):
        return value.hex()
    return [(key, item.hex()) for key, item in value.items()]


@given(inputs=rss_inputs())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_matches_leaf_at_a_time_sampler(inputs):
    graph, overlay, s, t, params = inputs
    got = RecursiveStratifiedSampler(**params)
    want = FrozenRSS(**params)
    calls = [
        ("reliability", (graph, s, t, overlay)),
        ("reachability_from", (graph, s, overlay)),
        ("reachability_to", (graph, t, overlay)),
        ("reliability", (graph, t, s, None)),
        ("reachability_to", (graph, s, None)),
    ]
    for name, args in calls:
        assert bits(getattr(got, name)(*args)) == bits(
            getattr(want, name)(*args)
        ), name
        assert got._rng.bit_generator.state == want._rng.bit_generator.state


def seeded_graph(seed, directed, n=12, m=30):
    rng = np.random.default_rng(seed)
    graph = UncertainGraph(directed=directed)
    for u in range(n):
        graph.add_node(u)
    for _ in range(m):
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u != v:
            graph.add_edge(u, v, float(rng.choice(RSS_PROBABILITIES)))
    return graph


@pytest.mark.parametrize("directed", [False, True])
def test_matches_leaf_at_a_time_sampler_on_seeded_graphs(directed):
    """Many strata per level: float sums whose rounding depends on the
    order of their terms, so the order is pinned too."""
    for seed in range(12):
        graph = seeded_graph(seed, directed)
        overlay = [(0, 12, 0.5), (12, 11, 0.9), (5, 11, 0.25)]
        got = RecursiveStratifiedSampler(600, seed=seed)
        want = FrozenRSS(600, seed=seed)
        for s, t in [(0, 11), (1, 7), (3, 9)]:
            for name, args in [
                ("reliability", (graph, s, t, overlay)),
                ("reachability_from", (graph, s, overlay)),
                ("reachability_to", (graph, t, None)),
            ]:
                assert bits(getattr(got, name)(*args)) == bits(
                    getattr(want, name)(*args)
                ), (seed, s, t, name)
        assert got._rng.bit_generator.state == want._rng.bit_generator.state


# ----------------------------------------------------------------------
# work counters
# ----------------------------------------------------------------------
class TestLeafPassBudget:
    """Deterministic work counters of one rss call on a fixed fixture."""

    @staticmethod
    def fixture():
        graph = UncertainGraph.from_edges([
            (0, 1, 0.5), (0, 2, 0.9), (1, 3, 0.25), (2, 3, 0.5),
            (3, 4, 1.0), (4, 5, 0.9), (2, 5, 0.25), (5, 6, 0.5),
        ])
        return graph, 0

    def test_reachability_from_sweeps_once(self, monkeypatch):
        graph, source = self.fixture()
        sweeps = []
        sweep = coin_kernel._sweep

        def counted(plan, batch, state, *args):
            sweeps.append(batch.num_samples)
            return sweep(plan, batch, state, *args)

        samples = []
        sample = engine_batch.sample

        def drawn(plan, num_samples, *args):
            samples.append(num_samples)
            return sample(plan, num_samples, *args)

        monkeypatch.setattr(coin_kernel, "_sweep", counted)
        monkeypatch.setattr(engine_batch, "sample", drawn)
        got = RecursiveStratifiedSampler(250, seed=3).reachability_from(
            graph, source
        )
        assert set(got) == set(range(7))
        # The fixture stratifies into 16 leaves of 204 worlds in all
        # (the leaf-at-a-time sampler swept each on its own: 16
        # sweeps); one fixpoint covers them all.
        assert len(samples) == 16
        assert sweeps == [sum(samples)] == [204]

    def test_reachability_from_mixes_only_kept_coins(self, monkeypatch):
        graph, source = self.fixture()
        mixed = count_mixed_coins(monkeypatch)
        samples = []
        sample = engine_batch.sample

        def drawn(plan, num_samples, *args):
            samples.append(num_samples)
            return sample(plan, num_samples, *args)

        monkeypatch.setattr(engine_batch, "sample", drawn)
        RecursiveStratifiedSampler(250, seed=3).reachability_from(graph, source)
        m = graph.num_edges
        assert mixed[0] == sum(samples) * m == 204 * m
        # The leaf-at-a-time sampler mixed every leaf's whole words,
        # 16 of them: 1024 * m.
        assert sum(64 * -(-z // 64) for z in samples) * m == 1024 * m


def count_mixed_coins(monkeypatch):
    """Coins the coin body mixes, as a one-element list that fills in."""
    total = [0]
    body = coin_kernel._keyed_coin_bits

    def counted(keys, limits, sample_term, *buffers):
        total[0] += keys.shape[0] * sample_term.shape[0]
        return body(keys, limits, sample_term, *buffers)

    monkeypatch.setattr(coin_kernel, "_keyed_coin_bits", counted)
    return total


@pytest.mark.parametrize("num_samples", [1000, 64, 1])
def test_sample_worlds_mixes_z_coins_per_edge(monkeypatch, num_samples):
    """``sample_worlds`` mixes ``m * Z`` coins and none for the pad bits
    of the last word: ``m * 1000`` at ``Z = 1000``, where mixing whole
    words took ``m * 1024``."""
    from repro.engine import compile_plan, sample_worlds
    from repro.graph import assign_uniform, erdos_renyi

    graph = assign_uniform(erdos_renyi(40, num_edges=90, seed=1), 0.1, 0.9, seed=2)
    plan = compile_plan(graph)
    mixed = count_mixed_coins(monkeypatch)
    sample_worlds(plan, num_samples, np.random.default_rng(0))
    assert mixed[0] == plan.num_edges * num_samples
