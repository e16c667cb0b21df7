"""Table 11: IP and BE against the exhaustive Exact Solution (ES).

On the 54-sensor Intel-Lab stand-in, enumerate every k=3 subset of the
(eliminated) candidate set, following the paper's case-study setting:
new links only within 15 meters, zeta = average link probability = 0.33.
Paper's result: BE achieves ~94% of ES's gain (0.237 vs 0.252), returns
the identical edge set in 25/30 queries, and runs 3 orders of magnitude
faster.
"""

import time


from repro.datasets import intel_lab
from repro.graph import fixed_new_edge_probability
from repro.reliability import RecursiveStratifiedSampler
from repro.baselines import exact_solution
from repro.api import MaximizeQuery, Session
from repro.core import eliminate_search_space
from repro.experiments import ResultTable

from _common import queries_for, save_table

K = 3
ZETA = 0.33


def run():
    graph = intel_lab.build()
    positions = intel_lab.sensor_positions()
    distance_ok = set(intel_lab.candidate_links(graph, positions))
    queries = queries_for(graph, count=2, seed=23, min_hops=3, max_hops=5)

    # r must span the lab (see Figures 6/7 bench): with a small r the
    # <=15 m filter leaves no candidate at all between C(s) and C(t).
    session = Session(
        graph,
        estimator=RecursiveStratifiedSampler(120, seed=1),
        evaluation_samples=800,
        r=26,
        l=15,
    )
    prob_model = fixed_new_edge_probability(ZETA)

    table = ResultTable(
        "Table 11: comparison with the exact solution "
        "(intel-lab, k=3, zeta=0.33, <=15m links)",
        ["Method", "Reliability Gain", "Running Time (s)"],
    )
    sums = {"es": [0.0, 0.0], "ip": [0.0, 0.0], "be": [0.0, 0.0]}
    matches = 0
    for s, t in queries:
        space = eliminate_search_space(
            graph, s, t,
            r=session.r,
            new_edge_prob=prob_model,
            estimator=session.estimator,
            h=session.h,
        )
        # Physical constraint: only <= 15 m candidate links.
        space.edges = [
            (u, v, p) for u, v, p in space.edges if (u, v) in distance_ok
        ]
        start = time.perf_counter()
        es_edges = exact_solution(
            graph, s, t, K, space.edge_pairs(), prob_model,
            RecursiveStratifiedSampler(120, seed=2),
        )
        es_time = time.perf_counter() - start
        es_gain = session.evaluate(s, t, es_edges) - session.evaluate(s, t)
        sums["es"][0] += es_gain
        sums["es"][1] += es_time
        for method in ("ip", "be"):
            solution = session.maximize(MaximizeQuery(
                s, t, k=K, zeta=ZETA, method=method, candidate_space=space,
            )).solution
            sums[method][0] += solution.gain
            sums[method][1] += solution.selection_seconds
            if method == "be":
                if {(u, v) for u, v, _ in solution.edges} == {
                    (u, v) for u, v, _ in es_edges
                }:
                    matches += 1
    n = len(queries)
    for method, label in (("es", "Exact Solution (ES)"),
                          ("ip", "Individual Path (IP)"),
                          ("be", "Batch Edge (BE)")):
        table.add_row(label, sums[method][0] / n, sums[method][1] / n)
    table.add_note(f"BE returned the exact edge set on {matches}/{n} queries")
    table.add_note("paper: ES 0.252 gain / 19189s; BE 0.237 / 12s (25/30 match)")
    save_table(table, "table11_exact_comparison")
    return sums, matches, n


def test_table11(benchmark):
    sums, matches, n = benchmark.pedantic(run, rounds=1, iterations=1)
    es_gain = sums["es"][0] / n
    be_gain = sums["be"][0] / n
    # ES is optimal (up to sampling noise): BE cannot materially beat it,
    # and must land close (paper: 94%).
    assert be_gain <= es_gain + 0.05
    assert be_gain >= es_gain - 0.15
    # BE's selection is far cheaper than exhaustive enumeration.
    assert sums["be"][1] < sums["es"][1]
