"""Into-target reachability vectors (``reachability_to``) of every estimator.

Samplers answer ``reachability_to`` over their own forward plan: they
sweep ``QueryPlan.reverse_view()`` from the target over worlds sampled
on that plan, so a directed answer is checked here against the exact
oracle, and an undirected one must equal ``reachability_from`` bit for
bit.  Algorithm 4's elimination calls it once per query, so the
BFS-sharing index must answer it on the graph it indexed.
"""

from typing import ClassVar

import pytest

from repro.core import eliminate_search_space, top_r_nodes
from repro.graph import (
    UncertainGraph,
    assign_uniform,
    erdos_renyi,
    fixed_new_edge_probability,
)
from repro.reliability import (
    BFSSharingIndex,
    ExactEstimator,
    estimator_names,
    exact_reliability,
    make_estimator,
)

from oracle import assert_close_to_exact

SAMPLES = 4000
SOURCE, TARGET = 0, 5
NAMES = [*sorted(estimator_names()), "exact", "bfs-sharing"]


def directed_graph() -> UncertainGraph:
    """8 nodes, 14 random arcs plus a pendant arc ``TARGET -> 99``.

    99 is reached *from* the target but reaches it only through an
    overlay arc, so a sweep in the wrong direction shows in the key set.
    Every node that reaches the target does so with probability above
    0.5 (probabilities are at least 0.6), so each one is hit in some of
    the ``Z`` worlds, even the ``Z / 10`` of adaptive's fallback.
    """
    graph = assign_uniform(
        erdos_renyi(8, num_edges=14, seed=3, directed=True), 0.6, 0.95, seed=4
    )
    graph.add_edge(TARGET, 99, 0.9)
    return graph


def estimator(name: str, graph: UncertainGraph):
    """``(estimator, Z of its vector answers)``; ``Z`` is ``None`` for
    the exact estimator."""
    if name == "exact":
        return ExactEstimator(), None
    if name == "bfs-sharing":
        return BFSSharingIndex(graph, SAMPLES, seed=1), SAMPLES
    # adaptive answers vector queries with fixed-budget MC at a tenth
    # of its sample cap.
    samples = SAMPLES // 10 if name == "adaptive" else SAMPLES
    return make_estimator(name, SAMPLES, seed=1), samples


class TestDirected:
    OVERLAYS: ClassVar = [None, [(99, 1, 0.7), (4, TARGET, 0.5)]]

    @pytest.mark.parametrize("overlay", OVERLAYS)
    @pytest.mark.parametrize("name", NAMES)
    def test_matches_exact(self, name, overlay):
        graph = directed_graph()
        est, samples = estimator(name, graph)
        vector = est.reachability_to(graph, TARGET, overlay)
        nodes = graph.with_edges(overlay).nodes() if overlay else graph.nodes()
        truth = {v: exact_reliability(graph, v, TARGET, overlay) for v in nodes}
        assert 0.0 in truth.values()  # some nodes never reach the target
        assert set(vector) == {v for v, value in truth.items() if value > 0}
        for node, value in vector.items():
            if samples is None:
                assert value == pytest.approx(truth[node])
            else:
                assert_close_to_exact(value, truth[node], samples)

    @pytest.mark.parametrize("overlay", OVERLAYS)
    def test_bfs_sharing_reverse_sweep_equals_forward_pairs(self, overlay):
        """The same stored worlds, swept forward from each node and in
        reverse from the target, give bit-equal answers."""
        graph = directed_graph()
        index = BFSSharingIndex(graph, SAMPLES, seed=1)
        vector = index.reachability_to(graph, TARGET, overlay)
        nodes = graph.with_edges(overlay).nodes() if overlay else graph.nodes()
        for node in nodes:
            pair = index.pair_reliabilities(graph, [(node, TARGET)], overlay)
            assert vector.get(node, 0.0) == pair[(node, TARGET)], node

    @pytest.mark.parametrize("name", ["mc", "lazy", "adaptive"])
    def test_later_calls_keep_their_bits(self, name):
        """``reachability_to`` consumes what ``reachability_from`` does:
        one generator draw (mc, lazy) or one fallback seed (adaptive)."""
        graph = directed_graph()
        into = make_estimator(name, SAMPLES, seed=1)
        out_of = make_estimator(name, SAMPLES, seed=1)
        into.reachability_to(graph, TARGET)
        out_of.reachability_from(graph, TARGET)
        assert into.reachability_from(graph, SOURCE) == out_of.reachability_from(graph, SOURCE)
        assert into.reliability(graph, SOURCE, TARGET) == out_of.reliability(graph, SOURCE, TARGET)

    def test_unknown_target_is_empty(self):
        graph = directed_graph()
        for name in NAMES:
            est, _ = estimator(name, graph)
            assert est.reachability_to(graph, 1234) == {}, name

    def test_bfs_sharing_drives_elimination(self):
        graph = directed_graph()
        index = BFSSharingIndex(graph, 500, seed=2)
        space = eliminate_search_space(
            graph, SOURCE, TARGET, r=4,
            new_edge_prob=fixed_new_edge_probability(0.5), estimator=index,
        )
        assert space.edges
        assert space.target_side == top_r_nodes(
            index.reachability_to(graph, TARGET), 4, TARGET
        )


@pytest.mark.parametrize("overlay", [None, [(99, 1, 0.7)]])
@pytest.mark.parametrize("name", NAMES)
def test_undirected_equals_reachability_from(name, overlay):
    """Reaching ``t`` is being reached from it: fresh estimators with
    the same seed answer both directions bit for bit."""
    graph = assign_uniform(erdos_renyi(8, num_edges=12, seed=5), 0.3, 0.9, seed=6)
    into, _ = estimator(name, graph)
    out_of, _ = estimator(name, graph)
    vector = into.reachability_to(graph, TARGET, overlay)
    assert list(vector.items()) == list(
        out_of.reachability_from(graph, TARGET, overlay).items()
    )
