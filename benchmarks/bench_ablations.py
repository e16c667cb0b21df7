"""Ablations beyond the paper's tables (design choices from DESIGN.md).

* batch-gain normalization on/off — Example 3's divisor is what makes BE
  prefer cheap batches; without it BE degenerates toward IP's choices;
* elimination stages — stage 1 (reliability-based) and stage 2 (top-l
  path pruning) individually;
* random-selection floor — everything must beat random edges.
"""


from repro.api import MaximizeQuery, Session
from repro.core import (
    batch_selection,
    eliminate_search_space,
    select_top_l_paths,
)
from repro.graph import fixed_new_edge_probability
from repro.reliability import RecursiveStratifiedSampler
from repro.experiments import ResultTable

from _common import queries_for, save_table
from repro import datasets


def run_normalization():
    graph = datasets.load("twitter", num_nodes=500, seed=0)
    queries = queries_for(graph, count=3, seed=73)
    session = Session(
        graph,
        estimator=RecursiveStratifiedSampler(120, seed=1),
        evaluation_samples=600, r=15, l=15,
    )
    prob_model = fixed_new_edge_probability(0.5)
    table = ResultTable(
        "Ablation: batch-gain normalization (twitter-like, k=5)",
        ["Query", "BE gain (normalized)", "BE gain (raw)"],
    )
    diffs = []
    for s, t in queries:
        space = eliminate_search_space(
            graph, s, t,
            r=session.r,
            new_edge_prob=prob_model,
            estimator=session.estimator,
            h=session.h,
        )
        path_set = select_top_l_paths(graph, s, t, 15, space.edges)
        norm_edges = batch_selection(
            graph, s, t, 5, path_set,
            RecursiveStratifiedSampler(120, seed=2), normalize=True,
        )
        raw_edges = batch_selection(
            graph, s, t, 5, path_set,
            RecursiveStratifiedSampler(120, seed=2), normalize=False,
        )
        base = session.evaluate(s, t)
        g_norm = session.evaluate(s, t, norm_edges) - base
        g_raw = session.evaluate(s, t, raw_edges) - base
        table.add_row(f"{s}->{t}", g_norm, g_raw)
        diffs.append(g_norm - g_raw)
    table.add_note("normalization is Example 3's divisor: gain / #new edges")
    save_table(table, "ablation_batch_normalization")
    return diffs


def run_elimination_stages():
    graph = datasets.load("lastfm", num_nodes=400, seed=0)
    queries = queries_for(graph, count=2, seed=79)
    prob_model = fixed_new_edge_probability(0.5)
    table = ResultTable(
        "Ablation: elimination stages (lastfm-like, k=5, r=15, l=15)",
        ["Stage", "Mean candidates in", "Mean candidates out"],
    )
    stage1_in, stage1_out, stage2_out = [], [], []
    estimator = RecursiveStratifiedSampler(120, seed=4)
    for s, t in queries:
        total_missing = graph.num_nodes * (graph.num_nodes - 1) // 2
        space = eliminate_search_space(
            graph, s, t, r=15, new_edge_prob=prob_model, estimator=estimator,
        )
        path_set = select_top_l_paths(graph, s, t, 15, space.edges)
        stage1_in.append(total_missing)
        stage1_out.append(len(space.edges))
        stage2_out.append(len(path_set.surviving_candidates))
    table.add_row(
        "1: reliability-based (Alg. 4)",
        sum(stage1_in) / len(stage1_in),
        sum(stage1_out) / len(stage1_out),
    )
    table.add_row(
        "2: top-l path pruning",
        sum(stage1_out) / len(stage1_out),
        sum(stage2_out) / len(stage2_out),
    )
    table.add_note("paper: O(n^2) -> O(r^2) -> only edges on top-l paths")
    save_table(table, "ablation_elimination_stages")
    return stage1_in, stage1_out, stage2_out


def test_ablation_normalization(benchmark):
    diffs = benchmark.pedantic(run_normalization, rounds=1, iterations=1)
    # Normalization never loses much and usually ties or wins.
    assert sum(diffs) / len(diffs) >= -0.05


def test_ablation_elimination_stages(benchmark):
    stage1_in, stage1_out, stage2_out = benchmark.pedantic(
        run_elimination_stages, rounds=1, iterations=1
    )
    # Each stage strictly shrinks the candidate universe.
    assert max(stage1_out) < min(stage1_in)
    assert all(b <= a for a, b in zip(stage1_out, stage2_out, strict=True))


def test_random_floor(benchmark):
    """BE must clearly beat randomly-chosen candidate edges."""

    def run():
        graph = datasets.load("twitter", num_nodes=500, seed=0)
        queries = queries_for(graph, count=2, seed=83)
        session = Session(
            graph,
            estimator=RecursiveStratifiedSampler(120, seed=6),
            evaluation_samples=600, r=15, l=15,
        )
        be_total, random_total = 0.0, 0.0
        for s, t in queries:
            be_total += session.maximize(
                MaximizeQuery(s, t, k=5, method="be")
            ).gain
            random_total += session.maximize(
                MaximizeQuery(s, t, k=5, method="random")
            ).gain
        return be_total, random_total

    be_total, random_total = benchmark.pedantic(run, rounds=1, iterations=1)
    assert be_total >= random_total
