"""Run the library's embedded doctest examples."""

import doctest

import repro.graph.uncertain_graph


def test_uncertain_graph_doctests():
    results = doctest.testmod(repro.graph.uncertain_graph, verbose=False)
    assert results.failed == 0
    assert results.attempted >= 3  # the class example actually ran


def test_readme_quickstart_snippet():
    """The README session quickstart must stay executable."""
    from repro import MaximizeQuery, ReliabilityQuery, Session, Workload
    from repro.graph import UncertainGraph

    g = UncertainGraph.from_edges([(0, 1, 0.4), (1, 2, 0.5), (0, 2, 0.1)])
    session = Session(g, seed=7)
    workload = Workload([
        ReliabilityQuery(0, target=2, samples=2000),
        ReliabilityQuery(0, targets=(1, 2), estimator="mc", samples=2000),
        ReliabilityQuery(1, target=2, estimator="rss", samples=500),
    ])
    results = session.run(workload)
    assert len(results) == 3
    assert "mc" in results[0].provenance.describe()

    result = session.maximize(MaximizeQuery(0, 2, k=2, zeta=0.5, method="be"))
    assert len(result.edges) <= 2
    assert result.gain >= 0


def test_readme_streaming_delta_snippet():
    """The README streaming-update (PATCH /edges) snippet stays true."""
    from repro.api import GraphDelta, ReliabilityQuery, Session, Workload
    from repro.graph import UncertainGraph

    g = UncertainGraph.from_edges([(0, 1, 0.4), (1, 2, 0.5), (0, 2, 0.1)])
    session = Session(g, seed=7)
    session.run(Workload([ReliabilityQuery(0, target=2, samples=2000)]))

    report = session.apply_delta(GraphDelta(
        upserts=((0, 1, 0.9), (2, 3, 0.5)),   # raise an edge, insert one
        deletes=((0, 2),),
    ))
    assert report.strategy == "repair"        # caches patched, not dropped

    # ... and the bit-for-bit claim the snippet makes below it.
    workload = Workload([ReliabilityQuery(0, target=2, samples=2000)])
    cold = Session(session.graph.copy(), seed=7)
    assert [r.values for r in session.run(workload)] == \
        [r.values for r in cold.run(workload)]


def test_api_module_doctests():
    import repro.api

    results = doctest.testmod(repro.api, verbose=False)
    assert results.failed == 0
    assert results.attempted >= 3  # the workload example actually ran


def test_public_surface_docstring_examples():
    """Every example on the documented public surface stays runnable.

    The docs CI job keeps docstring *coverage* from regressing (ruff
    pydocstyle D1xx on repro.api / repro.serve); this test keeps the
    docstring *examples* truthful.
    """
    import repro.api.queries
    import repro.api.results
    import repro.api.session
    import repro.index.store
    import repro.reliability.registry
    import repro.serve.async_session
    import repro.serve.http

    for module, min_examples in [
        (repro.api.queries, 4),
        (repro.api.results, 4),
        (repro.api.session, 6),
        (repro.index.store, 4),
        (repro.reliability.registry, 4),
        (repro.serve.async_session, 6),
        (repro.serve.http, 5),
    ]:
        results = doctest.testmod(module, verbose=False)
        assert results.failed == 0, f"doctest failure in {module.__name__}"
        assert results.attempted >= min_examples, (
            f"{module.__name__} lost its runnable examples "
            f"({results.attempted} < {min_examples})"
        )
