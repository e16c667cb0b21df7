"""The engine's one coin primitive: keyed, cache-blocked coin rows.

Four contracts of :func:`repro.engine.keyed_coin_rows`:

* **Blocking is invisible.**  Rows are generated in cache-sized blocks;
  one row per block, the default block and the whole matrix at once
  give the same bits for world sampling, single-row re-flips and delta
  repair, remainder blocks and pad bits included.
* **Single words are the rows' words.**
  :func:`repro.engine.keyed_coin_words` draws word ``words[i]`` of row
  ``rows[i]`` alone; it equals ``keyed_coin_rows(...)[rows, words]`` at
  every position, on prefix and concatenated layouts and at any block
  size, so the selection kernel may draw candidate coins only where a
  gain mask needs them.
* **The stream is the documented one.**  A pure-Python reference of the
  keyed construction (top 24 bits of a SplitMix64 mix compared on
  float32's 2^-24 grid) matches the vectorized integer-threshold rows
  bit for bit, so stored schema-v2 batches stay valid.
* **Candidate rows are a sound Bernoulli source.**  Frequencies and
  cross-round / cross-seed independence hold within Hoeffding bounds
  (``tests/oracle.py``), certain and impossible rows are exact on prefix
  and concatenated layouts, pad bits stay zero, and the per-round root
  never reuses the root of same-seed world batches.
"""

import numpy as np
import pytest

from oracle import assert_close_to_exact
from repro.engine import (
    SelectionGainKernel,
    coin_base,
    compile_plan,
    concat_batches,
    edge_coin_row,
    keyed_coin_rows,
    keyed_coin_words,
    popcount,
    repair_batch,
    sample_worlds,
    sample_worlds_keyed,
    valid_sample_mask,
)
from repro.engine import kernel as coin_kernel
from repro.engine.selection import _CANDIDATE_TAG
from repro.graph import UncertainGraph, assign_uniform, erdos_renyi

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
M1 = 0xBF58476D1CE4E5B9
M2 = 0x94D049BB133111EB
SEED = 11


def mix64(x: int) -> int:
    x ^= x >> 30
    x = (x * M1) & MASK64
    x ^= x >> 27
    x = (x * M2) & MASK64
    return x ^ (x >> 31)


def reference_row(base, u, v, ordinal, p, num_samples):
    """Keyed coin row built one coin at a time in Python integers."""
    key = int(base)
    for part in (u, v, ordinal):
        key = mix64((key + GAMMA * ((part & MASK64) + 1)) & MASK64)
    p32 = np.float32(p)
    heads = [
        np.float32(mix64((key + GAMMA * (j + 1)) & MASK64) >> 40)
        * np.float32(2.0**-24) < p32
        for j in range(num_samples)
    ]
    return coin_kernel.pack_bool_matrix(np.array([heads]), num_samples)[0]


def count(row) -> int:
    return int(popcount(row).sum())


# ----------------------------------------------------------------------
# blocking
# ----------------------------------------------------------------------
def _graph_pair():
    graph = assign_uniform(
        erdos_renyi(60, num_edges=150, seed=2), 0.05, 0.95, seed=3
    )
    edited = graph.copy()
    edges = sorted(edited.edges())
    (u0, v0, p0), (u1, v1, p1) = edges[0], edges[1]
    edited.add_edge(u0, v0, min(1.0, p0 + 0.2))  # raise
    edited.add_edge(u1, v1, p1 / 2)               # lower
    edited.remove_edge(*edges[5][:2])             # delete
    edited.add_edge(0, 999, 0.4)                  # insert, new node
    return compile_plan(graph), compile_plan(edited)


def _coin_outputs(plan, edited, num_samples):
    base = coin_base(np.random.default_rng(num_samples))
    batch = sample_worlds_keyed(plan, num_samples, base)
    repaired, changes = repair_batch(edited, plan, batch, base)
    return [
        batch.alive,
        edge_coin_row(base, 3, 7, 1, 0.35, num_samples),
        repaired.alive,
        *(c.added for c in changes),
        *(c.removed for c in changes),
    ]


@pytest.mark.parametrize("num_samples", [1, 63, 64, 65, 1000, 4096])
def test_blocking_is_bit_identical(monkeypatch, num_samples):
    plan, edited = _graph_pair()
    runs = []
    default = coin_kernel._COIN_BLOCK
    for block in (1, default, 1 << 40):  # 1 row, default, whole matrix
        monkeypatch.setattr(coin_kernel, "_COIN_BLOCK", block)
        runs.append(_coin_outputs(plan, edited, num_samples))
    for other in runs[1:]:
        assert len(other) == len(runs[0])
        for a, b in zip(runs[0], other, strict=True):
            assert np.array_equal(a, b)
    valid = valid_sample_mask(num_samples)
    assert not (runs[0][0] & ~valid).any()


# ----------------------------------------------------------------------
# single words
# ----------------------------------------------------------------------
@pytest.mark.parametrize("block", ["one-row", "default"])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("layout", [1, 63, 64, 65, 1000, "70+9"])
def test_word_draw_is_the_row_draw(monkeypatch, layout, p, block):
    if block == "one-row":
        monkeypatch.setattr(coin_kernel, "_COIN_BLOCK", 1)
    if layout == "70+9":
        valid = _layouts()[1].valid
    else:
        valid = valid_sample_mask(layout)
    base = coin_base(np.random.default_rng(9))
    # Duplicated, reversed, negative and wide node ids.
    edge_u = np.array([3, 3, 7, -4, 2**40, 0])
    edge_v = np.array([7, 7, 3, 2, 5, 1])
    edge_ordinal = np.array([0, 1, 0, 0, 2, 0])
    probs = np.full(edge_u.shape[0], p)
    rows_all = keyed_coin_rows(
        base, edge_u, edge_v, edge_ordinal, probs, valid
    )
    # Every position, shuffled, plus repeats: order and multiplicity
    # must not matter.
    rows, words = np.nonzero(np.ones(rows_all.shape, dtype=bool))
    order = np.random.default_rng(3).permutation(rows.shape[0])
    rows = np.concatenate([rows[order], rows[:5]])
    words = np.concatenate([words[order], words[:5]])
    drawn = keyed_coin_words(
        base, edge_u, edge_v, edge_ordinal, probs, valid, rows, words
    )
    assert drawn.dtype == np.uint64
    assert np.array_equal(drawn, rows_all[rows, words])
    empty = keyed_coin_words(
        base, edge_u, edge_v, edge_ordinal, probs, valid, [], []
    )
    assert empty.shape == (0,)


# ----------------------------------------------------------------------
# the documented stream
# ----------------------------------------------------------------------
def test_keyed_rows_match_python_reference():
    base = coin_base(np.random.default_rng(5))
    num_samples = 130  # three words, two pad-carrying
    for identity, p in [
        ((3, 7, 0), 0.5),
        ((7, 3, 2), 0.1),       # float32 rounding of p matters
        ((0, 1, 0), 0.0),
        ((1, 0, 0), 1.0),
        ((-4, 2**40, 1), 0.8),  # negative and wide node ids
    ]:
        want = reference_row(base, *identity, p, num_samples)
        assert np.array_equal(
            edge_coin_row(base, *identity, p, num_samples), want
        ), identity
    graph = UncertainGraph.from_edges([(0, 1, 0.3), (1, 2, 0.9), (2, 0, 0.6)])
    plan = compile_plan(graph)
    batch = sample_worlds_keyed(plan, num_samples, base)
    for eid in range(plan.num_edges):
        identity = (int(plan.edge_u[eid]), int(plan.edge_v[eid]),
                    int(plan.edge_ordinal[eid]))
        want = reference_row(
            base, *identity, float(plan.probs[eid]), num_samples
        )
        assert np.array_equal(batch.alive[eid], want), identity


@pytest.mark.parametrize(
    "p", [0.0, 2.0**-24, 0.1, 0.5, 1 / 3, 1 - 2.0**-24, 1.0]
)
def test_integer_threshold_is_the_float32_compare(p):
    """``k < t`` holds exactly for the coins ``k * 2^-24 < float32(p)``."""
    t = int(coin_kernel._coin_thresholds(np.array([p]))[0])
    p32 = np.float32(p)
    scale = np.float32(2.0**-24)
    if t > 0:
        assert np.float32(t - 1) * scale < p32
    if t < 1 << 24:
        assert not np.float32(t) * scale < p32


def test_out_of_range_probabilities_stay_certain_or_impossible():
    thresholds = coin_kernel._coin_thresholds(
        np.array([-0.5, np.nan, 1.5, np.inf])
    )
    assert thresholds.tolist() == [0, 0, 1 << 24, 1 << 24]


# ----------------------------------------------------------------------
# candidate rows
# ----------------------------------------------------------------------
def _kernel(num_samples, seed=SEED):
    graph = UncertainGraph.from_edges([(0, 1, 0.5), (1, 2, 0.5)])
    return SelectionGainKernel(graph, num_samples, seed=seed)


def _layouts():
    plan = compile_plan(UncertainGraph.from_edges([(0, 1, 0.5)]))
    rng = np.random.default_rng(4)
    prefix = sample_worlds(plan, 1000, rng)
    concat = concat_batches([sample_worlds(plan, z, rng) for z in (70, 9)])
    return prefix, concat


@pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.9])
def test_candidate_row_frequency_matches_p(p):
    num_samples = 20_000
    rows = _kernel(num_samples).candidate_rows(
        0, [(3, 9, p), (4, 8, p), (9, 40, p)]
    )
    for row in rows:
        assert_close_to_exact(count(row) / num_samples, p, num_samples)


@pytest.mark.parametrize("p", [0.2, 0.5, 0.75])
def test_candidate_rows_independent_across_rounds_and_seeds(p):
    num_samples = 20_000
    edge = (5, 6, p)
    same = p * p + (1 - p) * (1 - p)
    first = _kernel(num_samples)
    valid = first.batch.valid
    round0 = first.candidate_rows(0, [edge])[0]
    for other in (
        first.candidate_rows(1, [edge])[0],
        first.candidate_rows(4, [edge])[0],
        _kernel(num_samples, seed=SEED + 1).candidate_rows(0, [edge])[0],
    ):
        agree = count(~(round0 ^ other) & valid) / num_samples
        assert_close_to_exact(agree, same, num_samples)


def test_certain_and_impossible_candidates_on_both_layouts():
    kernel = _kernel(1000)
    for layout in _layouts():
        rows = kernel.candidate_rows(
            2, [(0, 7, 1.0), (0, 7, 0.0), (1, 7, 0.5), (2, 7, 0.99)], layout
        )
        assert np.array_equal(rows[0], layout.valid)
        assert not rows[1].any()
        # No pad bit is ever set, whatever the layout puts between blocks.
        assert not (rows & ~layout.valid[None, :]).any()


def test_round_root_is_not_the_world_batch_root():
    """Round-0 candidate rows never equal the overlay row a same-seed
    engine samples for the edge, so re-evaluating chosen edges with
    ``mc`` at the selection seed draws fresh coins."""
    # The hazard the domain tag closes: SeedSequence zero-pads entropy.
    assert coin_base(np.random.default_rng([SEED, 0])) == coin_base(
        np.random.default_rng(SEED)
    )
    num_samples = 1000
    overlay_base = coin_base(np.random.default_rng(SEED))
    for u, v, p in [(0, 2, 0.5), (3, 9, 0.3), (1, 4, 0.9)]:
        row = _kernel(num_samples).candidate_rows(0, [(u, v, p)])[0]
        assert not np.array_equal(
            row, edge_coin_row(overlay_base, u, v, 0, p, num_samples)
        )


def test_candidate_rows_are_the_keyed_rows_of_their_identity():
    """A candidate row is the keyed row of ``(min, max, 0)`` under the
    round root: one primitive for world and candidate coins."""
    kernel = _kernel(200)
    pool = [(9, 2, 0.4), (2, 9, 0.4), (5, 1, 0.7)]
    root = coin_base(np.random.default_rng([SEED, 3, _CANDIDATE_TAG]))
    want = keyed_coin_rows(
        root, [2, 2, 1], [9, 9, 5], [0, 0, 0], [0.4, 0.4, 0.7],
        kernel.batch.valid,
    )
    assert np.array_equal(kernel.candidate_rows(3, pool), want)

