"""Vectorized batch possible-world sampling engine.

The engine is the repo's shared Monte Carlo hot path: a cached CSR-style
compilation of :class:`~repro.graph.UncertainGraph` (:mod:`.csr`), a
bit-packed batch world-sampling + BFS kernel that advances all ``Z``
samples per sweep (:mod:`.kernel`), and the module functions the
reliability estimators call with their own seeded generators
(:mod:`.batch`: one sampling function with optional pinned edge states,
answer functions over a given ``(plan, batch)``, and overlay extension
of a stored batch).  See ``docs/architecture.md`` (layer 1) for the
architecture narrative.
"""

from .csr import (
    QueryPlan,
    build_query_plan,
    canonical_key,
    compile_plan,
    extend_with_overlay,
)
from .kernel import (
    EdgeChange,
    WorldBatch,
    allocate_proportional,
    batch_from_words,
    batch_reach,
    batch_reach_resume,
    batch_to_words,
    coin_base,
    concat_batches,
    edge_coin_row,
    extend_batch,
    extract_world_columns,
    extract_worlds,
    hit_fraction,
    keyed_coin_rows,
    keyed_coin_words,
    num_words,
    pack_bool_matrix,
    popcount,
    reach_each,
    repair_batch,
    sample_worlds,
    sample_worlds_keyed,
    sample_worlds_stratified,
    scatter_world_columns,
    seed_resume,
    unpack_bool_matrix,
    unpack_word_row,
    valid_sample_mask,
    world_index_of,
)
from .batch import (
    overlay_batch,
    pair_fraction,
    pair_hit_fractions,
    reach_frequencies,
)
from .selection import SelectionGainKernel

__all__ = [
    "QueryPlan",
    "build_query_plan",
    "canonical_key",
    "compile_plan",
    "extend_with_overlay",
    "EdgeChange",
    "WorldBatch",
    "allocate_proportional",
    "batch_from_words",
    "batch_reach",
    "batch_reach_resume",
    "batch_to_words",
    "coin_base",
    "concat_batches",
    "edge_coin_row",
    "extend_batch",
    "extract_world_columns",
    "extract_worlds",
    "hit_fraction",
    "keyed_coin_rows",
    "keyed_coin_words",
    "num_words",
    "pack_bool_matrix",
    "popcount",
    "reach_each",
    "repair_batch",
    "sample_worlds",
    "sample_worlds_keyed",
    "sample_worlds_stratified",
    "scatter_world_columns",
    "seed_resume",
    "unpack_bool_matrix",
    "unpack_word_row",
    "valid_sample_mask",
    "world_index_of",
    "overlay_batch",
    "pair_fraction",
    "pair_hit_fractions",
    "reach_frequencies",
    "SelectionGainKernel",
]
