"""Extension bench: total-probability-budget MRP maximization (§9).

The paper's future-work proposal: instead of k edges at fixed zeta,
spend a total probability budget B across up to k new edges.  The
implementation (repro.core.probability_budget) is exact for the MRP
objective.  This bench sweeps B and checks the structural trade-off:
small budgets concentrate on one strong edge, large budgets spread over
multi-edge shortcuts when that shortens the -log p path.
"""


from repro.core import eliminate_search_space, improve_mrp_with_probability_budget
from repro.graph import fixed_new_edge_probability
from repro.reliability import RecursiveStratifiedSampler
from repro.experiments import ResultTable

from _common import queries_for, save_table
from repro import datasets

BUDGETS = [0.3, 0.6, 1.0, 1.5]
MAX_EDGES = 3


def run():
    graph = datasets.load("lastfm", num_nodes=400, seed=0)
    queries = queries_for(graph, count=2, seed=89)
    estimator = RecursiveStratifiedSampler(120, seed=1)
    prob_model = fixed_new_edge_probability(0.5)
    table = ResultTable(
        "Extension: total-probability-budget MRP maximization "
        "(lastfm-like, <=3 new edges)",
        ["Budget B", "Mean #edges used", "Mean MRP before",
         "Mean MRP after"],
    )
    rows = {}
    for budget in BUDGETS:
        edges_used, before, after = 0.0, 0.0, 0.0
        for s, t in queries:
            space = eliminate_search_space(
                graph, s, t, r=15, new_edge_prob=prob_model,
                estimator=estimator,
            )
            solution = improve_mrp_with_probability_budget(
                graph, s, t, MAX_EDGES, budget,
                candidates=space.edge_pairs(),
            )
            edges_used += len(solution.edges)
            before += solution.old_probability
            after += solution.new_probability
        n = len(queries)
        table.add_row(budget, edges_used / n, before / n, after / n)
        rows[budget] = (edges_used / n, before / n, after / n)
    table.add_note(
        "future work from the paper's conclusion: budget allocation is "
        "exact for the MRP objective (even split + constrained search)"
    )
    save_table(table, "extension_probability_budget")
    return rows


def test_extension_probability_budget(benchmark):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    afters = [rows[b][2] for b in BUDGETS]
    # A larger probability budget can never produce a worse MRP.
    assert all(b >= a - 1e-9 for a, b in zip(afters, afters[1:], strict=False))
    # Every budget at least matches the no-addition MRP.
    for budget in BUDGETS:
        assert rows[budget][2] >= rows[budget][1] - 1e-9
