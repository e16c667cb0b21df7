"""Batch possible-world kernel: coin flips and BFS for all samples at once.

World states are bit-packed: a batch of ``Z`` sampled worlds is an
``(num_edges, W)`` uint64 matrix (``W = ceil(Z / 64)`` words) whose bit
``i`` of row ``e`` says whether edge ``e`` exists in world ``i``.  The
reachability sweep keeps an ``(num_nodes, W)`` reached-bitmask and, per
sweep, propagates every arc for every world simultaneously::

    contrib = reached[arc_src] & alive[arc_eid]        # (A, W) gather
    reached[dst] |= bitwise_or.reduceat(contrib, ...)  # segmented scatter

so one pass over the arc table advances the BFS frontier of all ``Z``
samples.  The sweep repeats until fixpoint (at most ``diameter`` times).

When ``Z`` is not a multiple of 64 the trailing pad bits are kept zero in
every coin row, so pad-worlds have no edges and never reach anything
beyond the BFS sources; source rows are seeded with the valid-bit mask,
which keeps every popcount exact without masking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.typing import ArrayLike

from ..analysis import sanitize
from .csr import QueryPlan

WORD_BITS = 64

#: Coins per generation block of :func:`keyed_coin_rows` and
#: :func:`keyed_coin_words`.  A block holds two uint64 temporaries of
#: this many elements (the counter matrix the mixer rewrites in place
#: and its shift scratch, 512 KiB each) plus a 64 KiB bool compare
#: matrix: about 1.1 MiB, inside a 2 MiB per-core L2.  On as-topology
#: (m=3994, 2-core Xeon, numpy 2.4) sampling runs at 3.4 / 2.3 / 2.2
#: ns/coin at Z = 1000 / 4096 / 16384 (best of 15 per process, 5
#: processes).  The size was chosen when the body ran the whole
#: finalizer: 3.3-4.1 ns/coin then, against 4.1-4.7 for 16k- or
#: 128k-coin blocks and 10-13 for 4M-coin blocks, whose 32 MB
#: temporaries spill out of L2.
_COIN_BLOCK = 1 << 16

# SplitMix64 finalizer constants (Steele et al., "Fast splittable
# pseudorandom number generators").  The keyed coin generator below
# builds every edge's coin row as a pure function of (base, edge
# identity, sample index) through this mixer, so coins survive
# graph edits that renumber edge ids.
_MIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_M1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_M2 = np.uint64(0x94D049BB133111EB)
_ONE64 = np.uint64(1)
_SHIFT30 = np.uint64(30)
_SHIFT27 = np.uint64(27)
_SHIFT31 = np.uint64(31)
#: Coins are the top 24 bits of a mix: the 2^-24 grid numpy's float32
#: ``random()`` draws from.
_COIN_SHIFT = np.uint64(64 - 24)
_COIN_SCALE = float(1 << 24)


def _mix_high(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer up to its last xorshift, in place.

    That last step, ``x ^= x >> 31``, rewrites only bits 0-32, so the
    top 24 bits a coin reads are already final here: the coin body
    stops at this point.  ``scratch`` is a same-shape uint64 buffer for
    the shifted operand.  Array (not scalar) arithmetic throughout:
    numpy wraps unsigned array overflow silently, which is exactly the
    mod-2^64 semantics the mixer wants.  Outputs are passed
    positionally: on the tiny arrays of single-row re-flips, ``out=``
    keyword parsing costs more than the arithmetic.
    """
    np.right_shift(x, _SHIFT30, scratch)
    np.bitwise_xor(x, scratch, x)
    np.multiply(x, _MIX_M1, x)
    np.right_shift(x, _SHIFT27, scratch)
    np.bitwise_xor(x, scratch, x)
    return np.multiply(x, _MIX_M2, x)


def _mix64(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The whole SplitMix64 finalizer, in place: edge keys need all 64
    bits, so :func:`_edge_keys` mixes with it."""
    _mix_high(x, scratch)
    np.right_shift(x, _SHIFT31, scratch)
    return np.bitwise_xor(x, scratch, x)


def coin_base(rng: np.random.Generator) -> np.uint64:
    """The per-batch key root :func:`sample_worlds` draws from ``rng``.

    One uint64 is the *only* stream consumption of a keyed sampling
    pass, so a caller holding just the seed can recompute the base of a
    batch sampled via ``sample_worlds(plan, Z, default_rng(seed))`` as
    ``coin_base(default_rng(seed))`` — the identity delta repair
    (:func:`repair_batch`) relies on to regenerate changed rows without
    the original generator object.
    """
    return np.uint64(rng.integers(0, 2**64, dtype=np.uint64))


def _edge_keys(
    base: np.uint64,
    edge_u: ArrayLike,
    edge_v: ArrayLike,
    edge_ordinal: ArrayLike,
) -> np.ndarray:
    """Per-edge uint64 coin keys chained over each edge's identity.

    The chain folds the canonical endpoints and duplicate ordinal
    (node-id space, like :attr:`QueryPlan.edge_u` and friends) into the
    base, one mix per component, so the key — and therefore the coin
    row — is independent of the edge's position in any compiled table.
    """
    parts = [
        np.asarray(part, dtype=np.int64).astype(np.uint64)
        for part in (edge_u, edge_v, edge_ordinal)
    ]
    keys = np.full(parts[0].shape[0], base, dtype=np.uint64)
    scratch = np.empty_like(keys)
    for words in parts:
        keys += _MIX_GAMMA * (words + _ONE64)
        _mix64(keys, scratch)
    return keys


def _coin_thresholds(probs: ArrayLike) -> np.ndarray:
    """Integer heads thresholds: a 24-bit coin ``k`` is heads iff ``k < t``.

    ``t = ceil(float32(p) * 2^24)`` makes the integer compare exactly the
    float32 compare ``k * 2^-24 < float32(p)``: the scale is a power of
    two, so the product is exact, and ``k < y`` iff ``k < ceil(y)`` for
    an integer ``k``.  ``p <= 0`` (or NaN) is never heads and ``p >= 1``
    always is, so certain edges stay certain.
    """
    p = np.asarray(probs, dtype=np.float64).astype(np.float32)
    p = p.astype(np.float64)
    scaled = np.ceil(np.minimum(p, 1.0) * _COIN_SCALE)
    return np.where(p > 0.0, scaled, 0.0).astype(np.uint64)


def _coin_limits(thresholds: np.ndarray) -> np.ndarray:
    """Inclusive limits on the mixed word: coin ``x >> 40 < t`` iff
    ``x <= (t << 40) - 1``.

    Exact for every integer ``t`` from 1 to ``2^24``; ``t = 2^24`` gives
    ``2^64 - 1``, always heads.  ``t = 0`` wraps to the same all-heads
    limit, so the rows of never-present edges are zeroed after packing
    (:func:`_keyed_coin_blocks`).
    """
    return np.left_shift(thresholds, _COIN_SHIFT) - _ONE64


def _keyed_coin_bits(
    keys: np.ndarray,
    limits: np.ndarray,
    sample_term: np.ndarray,
    counters: np.ndarray,
    scratch: np.ndarray,
    heads: np.ndarray,
) -> np.ndarray:
    """The coin body: ``(rows, len(sample_term))`` heads for one block.

    Coin ``j`` of a row is the top 24 bits of
    ``mix64(key + GAMMA * (j + 1))`` (``sample_term`` holds
    ``GAMMA * (j + 1)`` for the coins drawn), heads below the row's
    threshold.  The mix stops before its last xorshift, which leaves
    those bits alone, and the compare against :func:`_coin_limits`
    replaces the shift down to 24 bits.  Because the coin values are
    fixed by ``(key, j)`` and only the threshold moves, raising an
    edge's probability turns bits on without ever turning one off —
    the nesting that makes monotone delta repair exact.
    ``counters`` / ``scratch`` / ``heads`` are block-sized buffers,
    reused across blocks so the block never leaves cache.
    """
    np.add(keys[:, None], sample_term, out=counters)
    _mix_high(counters, scratch)
    return np.less_equal(counters, limits[:, None], out=heads)


#: A layout's coin positions: ``Z`` for a prefix layout (the first
#: ``Z`` bits of each row), else the sorted bit positions themselves.
_Coins = Union[int, np.ndarray]


def _sample_term(coins: _Coins) -> np.ndarray:
    """``GAMMA * (j + 1)`` for the coin positions ``j`` of a keyed row."""
    if isinstance(coins, int):
        positions = np.arange(coins, dtype=np.uint64)
    else:
        positions = coins.astype(np.uint64)
    return _MIX_GAMMA * (positions + _ONE64)


def _keyed_coin_blocks(
    keys: np.ndarray,
    thresholds: np.ndarray,
    row_words: int,
    coins: _Coins,
) -> np.ndarray:
    """Packed ``(rows, row_words)`` words of keyed rows.

    Mixes coins only at the positions ``coins`` names; every other bit
    is zero.  A prefix layout packs its ``Z`` heads straight into
    words, and any other layout spreads the heads over the full width
    first.  Runs :func:`_keyed_coin_bits` over blocks of about
    :data:`_COIN_BLOCK` coins so the mixer's temporaries stay in cache
    at any row width.
    """
    sample_term = _sample_term(coins)
    num_rows = keys.shape[0]
    width = sample_term.shape[0]
    block = max(1, _COIN_BLOCK // max(width, 1))
    shape = (min(block, num_rows), width)
    counters = np.empty(shape, dtype=np.uint64)
    scratch = np.empty(shape, dtype=np.uint64)
    heads = np.empty(shape, dtype=bool)
    spread = None if isinstance(coins, int) else np.zeros(
        (shape[0], row_words * WORD_BITS), dtype=bool
    )
    limits = _coin_limits(thresholds)
    words = np.empty((num_rows, row_words), dtype=np.uint64)
    for start in range(0, num_rows, block):
        stop = min(start + block, num_rows)
        size = stop - start
        bits = _keyed_coin_bits(
            keys[start:stop], limits[start:stop], sample_term,
            counters[:size], scratch[:size], heads[:size],
        )
        if spread is not None:
            spread[:size, coins] = bits
            bits = spread[:size]
        words[start:stop] = pack_bool_matrix(bits, bits.shape[1])
    words[thresholds == 0] = 0
    return words


def _coin_positions(valid: np.ndarray) -> _Coins:
    """The coin positions of a ``(W,)`` valid mask: ``Z`` when it is
    the prefix layout of ``Z`` samples, else its set bit positions."""
    positions = world_index_of(valid)
    count = int(positions.size)
    if num_words(count) == valid.shape[0] and (
        count == 0 or int(positions[-1]) == count - 1
    ):
        return count
    return positions


def keyed_coin_rows(
    base: np.uint64,
    edge_u: ArrayLike,
    edge_v: ArrayLike,
    edge_ordinal: ArrayLike,
    probs: ArrayLike,
    valid: Union[np.ndarray, int],
) -> np.ndarray:
    """Packed ``(rows, W)`` keyed coin rows for edge identities.

    The one coin primitive of the engine: world sampling
    (:func:`sample_worlds_keyed`), single-row re-flips
    (:func:`edge_coin_row`, which delta repair uses), the selection
    kernel's winner rows and BFS-sharing overlay rows all call it;
    :func:`keyed_coin_words` draws single words of the same rows.
    Row ``r`` is a pure function of ``(base, edge_u[r], edge_v[r],
    edge_ordinal[r], probs[r])`` and of the word layout: coin ``j``
    depends only on the key and ``j``, and is drawn exactly at the
    valid bit positions ``j``, every other bit zero.  ``valid`` is a
    batch's ``(W,)`` mask — a prefix mask gives the standard layout
    (pad bits zero), and a :func:`concat_batches` mask with interior
    pad bits gets coins exactly on its valid positions — or the ``Z``
    of a prefix layout, which sampling and re-flips pass so that no
    mask is read.

    Rows are generated in blocks of about :data:`_COIN_BLOCK` coins so
    the mixer's temporaries stay in cache at any ``Z``.
    """
    if isinstance(valid, np.ndarray):
        words, coins = valid.shape[0], _coin_positions(valid)
    else:
        coins = int(valid)
        words = num_words(coins)
    keys = _edge_keys(base, edge_u, edge_v, edge_ordinal)
    return _keyed_coin_blocks(keys, _coin_thresholds(probs), words, coins)


def keyed_coin_words(
    base: np.uint64,
    edge_u: ArrayLike,
    edge_v: ArrayLike,
    edge_ordinal: ArrayLike,
    probs: ArrayLike,
    valid: np.ndarray,
    rows: ArrayLike,
    words: ArrayLike,
) -> np.ndarray:
    """Single coin words of keyed rows: ``(P,)`` uint64.

    Equals ``keyed_coin_rows(base, edge_u, edge_v, edge_ordinal, probs,
    valid)[rows, words]`` bit for bit, without drawing the rest of the
    rows: position ``i`` costs the 64 coins of word ``words[i]`` of the
    row for identity ``rows[i]``, whatever ``W``, and is then ANDed with
    ``valid[words[i]]``.  Coin ``64 w + j`` of a row mixes
    ``key + GAMMA * (64 w + j + 1)``, so advancing a position's key by
    ``GAMMA * 64 w`` (mod 2^64) leaves the sample term of coins
    ``0..63`` — the same :func:`_keyed_coin_bits` block body as
    :func:`keyed_coin_rows`, one word per position.  The selection
    kernel draws candidate coins this way only where a gain mask is
    nonzero.
    """
    rows = np.asarray(rows, dtype=np.intp)
    words = np.asarray(words, dtype=np.intp)
    keys = _edge_keys(base, edge_u, edge_v, edge_ordinal)[rows]
    keys += _MIX_GAMMA * (words.astype(np.uint64) * np.uint64(WORD_BITS))
    drawn = _keyed_coin_blocks(
        keys, _coin_thresholds(probs)[rows], 1, WORD_BITS
    )[:, 0]
    drawn &= valid[words]
    return drawn


def num_words(num_samples: int) -> int:
    """Words needed to hold one bit per sample."""
    return (num_samples + WORD_BITS - 1) // WORD_BITS


def pack_bool_matrix(bools: np.ndarray, num_samples: int) -> np.ndarray:
    """Pack a ``(rows, Z)`` bool matrix into ``(rows, W)`` uint64 words.

    Bit ``i`` of word ``w`` in a row is sample ``w * 64 + i``; pad bits
    past ``Z`` are zero.
    """
    rows = bools.shape[0]
    width = num_words(num_samples) * WORD_BITS
    if bools.shape[1] != width:
        padded = np.zeros((rows, width), dtype=bool)
        padded[:, :num_samples] = bools[:, :num_samples]
        bools = padded
    packed = np.packbits(
        np.ascontiguousarray(bools), axis=1, bitorder="little"
    )
    words = packed.view(np.uint64)
    if words.dtype.byteorder == ">" or (
        words.dtype.byteorder == "=" and np.little_endian is False
    ):  # pragma: no cover - big-endian hosts only
        words = words.byteswap()
    return words


def valid_sample_mask(num_samples: int) -> np.ndarray:
    """``(W,)`` word row with exactly the first ``Z`` bits set."""
    return pack_bool_matrix(
        np.ones((1, num_samples), dtype=bool), num_samples
    )[0]


def unpack_word_row(words: np.ndarray) -> np.ndarray:
    """``(W,)`` uint64 words -> ``(W * 64,)`` bool bits (little-endian)."""
    if words.dtype.byteorder == ">" or (
        words.dtype.byteorder == "=" and np.little_endian is False
    ):  # pragma: no cover - big-endian hosts only
        words = words.byteswap()
    return np.unpackbits(
        np.ascontiguousarray(words).view(np.uint8), bitorder="little"
    ).astype(bool)


def popcount(words: np.ndarray) -> np.ndarray:
    """Per-element set-bit count (numpy>=2 fast path, SWAR fallback)."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(words)
    x = words.astype(np.uint64, copy=True)  # pragma: no cover - numpy<2
    m1 = np.uint64(0x5555555555555555)
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    h01 = np.uint64(0x0101010101010101)
    x = x - ((x >> np.uint64(1)) & m1)
    x = (x & m2) + ((x >> np.uint64(2)) & m2)
    x = (x + (x >> np.uint64(4))) & m4
    return (x * h01) >> np.uint64(56)


@dataclass
class WorldBatch:
    """``Z`` sampled possible worlds over one query plan's edge table."""

    alive: np.ndarray  # (num_edges, W) uint64 edge-existence bits
    num_samples: int
    valid: np.ndarray  # (W,) word row with the first Z bits set

    @property
    def num_words(self) -> int:
        return int(self.valid.shape[0])


def batch_to_words(batch: WorldBatch) -> np.ndarray:
    """Serializable payload of a batch: its ``(num_edges, W)`` coin words.

    The word matrix is the only state a :class:`WorldBatch` carries that
    cannot be recomputed from ``num_samples`` — ``valid`` is always
    :func:`valid_sample_mask`.  Persistent stores
    (:mod:`repro.index`) save exactly this array and rebuild the batch
    with :func:`batch_from_words`, so a round-trip is bit-for-bit.

    Only standard prefix-layout batches serialize; a
    :func:`concat_batches` result with interior pad bits is rejected
    (its ``valid`` mask is not reconstructible from ``num_samples``).
    """
    expected = valid_sample_mask(batch.num_samples)
    if (batch.valid.shape != expected.shape
            or not bool(np.array_equal(batch.valid, expected))):
        raise ValueError(
            "only prefix-layout batches serialize; concatenated batches "
            "with interior pad bits must be resampled, not stored"
        )
    return batch.alive


def batch_from_words(words: np.ndarray, num_samples: int) -> WorldBatch:
    """Rebuild a :class:`WorldBatch` from stored coin words.

    ``words`` may be any ``(num_edges, W)`` uint64 array — including a
    read-only memory map straight off an ``.npy`` file — because no
    kernel path mutates ``alive`` in place (overlay rows concatenate via
    :func:`extend_batch`).  The rebuilt batch is indistinguishable from
    the one :func:`sample_worlds` produced before serialization.
    """
    if words.ndim != 2 or words.dtype != np.uint64:
        raise ValueError(
            f"batch words must be a 2-D uint64 array, got "
            f"{words.dtype} with shape {words.shape}"
        )
    if words.shape[1] != num_words(num_samples):
        raise ValueError(
            f"word width {words.shape[1]} does not match Z={num_samples} "
            f"(expected {num_words(num_samples)})"
        )
    # Deserialized batches are shared across queries (and, store-backed,
    # across restarts): freeze the words so aliased in-place mutation
    # fails fast instead of corrupting every reader.  Store mmaps arrive
    # read-only already; this closes the hole for in-memory arrays.
    sanitize.freeze(words)
    return WorldBatch(
        alive=words,
        num_samples=num_samples,
        valid=sanitize.freeze(valid_sample_mask(num_samples)),
    )


def unpack_bool_matrix(words: np.ndarray, num_samples: int) -> np.ndarray:
    """Inverse of :func:`pack_bool_matrix`: ``(rows, W)`` -> ``(rows, Z)``."""
    if words.dtype.byteorder == ">" or (
        words.dtype.byteorder == "=" and np.little_endian is False
    ):  # pragma: no cover - big-endian hosts only
        words = words.byteswap()
    bits = np.unpackbits(
        np.ascontiguousarray(words).view(np.uint8), axis=1, bitorder="little"
    )
    return bits[:, :num_samples].astype(bool, copy=False)


def world_index_of(mask: np.ndarray) -> np.ndarray:
    """Sorted world indices of the set bits in a ``(W,)`` word row."""
    return np.flatnonzero(unpack_word_row(mask))


def extract_world_columns(
    words: np.ndarray, world_index: np.ndarray
) -> np.ndarray:
    """Gather world columns of a word matrix into a dense narrow one.

    ``words`` is any ``(rows, W)`` uint64 bit matrix (coin words,
    reached rows); the result packs column ``world_index[g]`` into bit
    position ``g`` of a ``(rows, W')`` matrix with
    ``W' = ceil(len(world_index) / 64)``.  Shift-and-mask gather, not
    a full bit unpack: the hot repair path extracts a few percent of
    the columns from megabyte matrices, so work must scale with the
    *selected* width.
    """
    world_index = np.asarray(world_index, dtype=np.int64)
    g = int(world_index.size)
    if g == 0:
        return np.zeros((words.shape[0], 0), dtype=np.uint64)
    cols = words[:, world_index >> 6]  # (rows, G) word gather
    bits = (cols >> (world_index & 63).astype(np.uint64)) & np.uint64(1)
    return pack_bool_matrix(bits.astype(np.uint8), g)


def scatter_world_columns(
    dest: np.ndarray, compact: np.ndarray, world_index: np.ndarray
) -> np.ndarray:
    """Inverse of :func:`extract_world_columns`: write columns back.

    Bit ``g`` of each compact row lands in world column
    ``world_index[g]`` of ``dest``; all other destination columns keep
    their bits.  Returns the updated ``dest`` (a fresh array — ``dest``
    itself is not mutated, so frozen/mmapped inputs are fine).
    """
    width = dest.shape[1] * WORD_BITS
    bits = unpack_bool_matrix(dest, width)
    bits[:, world_index] = unpack_bool_matrix(
        compact, int(world_index.size)
    )
    return pack_bool_matrix(bits, width)


def extract_worlds(batch: WorldBatch, world_index: np.ndarray) -> WorldBatch:
    """Narrow sub-batch over a subset of world columns.

    Worlds are column-independent: a world's coins — and therefore its
    reachability fixpoint — never read another world's bits, so sweeps
    over the extracted batch agree bit-for-bit with the same worlds'
    columns of a full-width sweep.  The delta-repair path
    (:meth:`repro.api.Session.apply_delta`) leans on this to resume
    cached fixpoints over *only* the worlds an edit actually touched:
    an edit that flips coins in a few percent of worlds repairs at
    ``W'/W`` of the full-width sweep cost instead of paying ``W``-wide
    rows for every frontier arc.
    """
    world_index = np.asarray(world_index, dtype=np.int64)
    return WorldBatch(
        alive=extract_world_columns(batch.alive, world_index),
        num_samples=int(world_index.size),
        valid=valid_sample_mask(int(world_index.size)),
    )


def sample_worlds(
    plan: QueryPlan,
    num_samples: int,
    rng: np.random.Generator,
    forced_true: Iterable[int] = (),
    forced_false: Iterable[int] = (),
) -> WorldBatch:
    """Flip coins for every edge in every sample at once.

    ``forced_true`` / ``forced_false`` pin edge ids to a fixed state in
    all samples — the stratified sampler's conditioning mechanism.
    Probability-1 edges are always present, probability-0 never.

    Coins are *identity-keyed*: the generator contributes one uint64
    base (:func:`coin_base`) and every edge's row is then a pure
    function of ``(base, edge identity, p, Z)``, where identity is the
    canonical ``(u, v, ordinal)`` in node-id space — never the edge id.
    Two plans compiled from graphs that share an edge therefore give
    that edge bit-identical coins under the same base even when the
    edit renumbered every edge id, which is what lets
    :func:`repair_batch` patch a cached batch instead of resampling it.
    """
    if sanitize.enabled():
        sanitize.check_probabilities(plan.probs, "sample_worlds: plan.probs")
    return sample_worlds_keyed(
        plan, num_samples, coin_base(rng), forced_true, forced_false
    )


def sample_worlds_keyed(
    plan: QueryPlan,
    num_samples: int,
    base: np.uint64,
    forced_true: Iterable[int] = (),
    forced_false: Iterable[int] = (),
) -> WorldBatch:
    """:func:`sample_worlds` from an explicit key root instead of a rng.

    ``sample_worlds(plan, Z, rng)`` is exactly
    ``sample_worlds_keyed(plan, Z, coin_base(rng))``; the explicit-base
    entry point exists for delta repair, which re-derives the base from
    the session seed long after the original generator is gone.
    """
    valid = valid_sample_mask(num_samples)
    # 24-bit coins (float32's random() grid): the 2^-24 threshold grid
    # bias is orders of magnitude below Monte Carlo noise.
    alive = keyed_coin_rows(
        base, plan.edge_u, plan.edge_v, plan.edge_ordinal, plan.probs,
        num_samples,
    )
    forced_true = list(forced_true)
    forced_false = list(forced_false)
    if forced_true:
        alive[forced_true] = valid
    if forced_false:
        alive[forced_false] = 0
    return WorldBatch(alive=alive, num_samples=num_samples, valid=valid)


def edge_coin_row(
    base: np.uint64,
    u: int,
    v: int,
    ordinal: int,
    p: float,
    num_samples: int,
) -> np.ndarray:
    """One keyed ``(W,)`` coin row for the edge identity ``(u, v, ordinal)``.

    Bit-identical to the row :func:`sample_worlds_keyed` gives the same
    identity at the same probability — the single-edge primitive delta
    repair uses to re-flip exactly one edge's coins.
    """
    if sanitize.enabled():
        sanitize.check_probabilities(p, "edge_coin_row: p")
    return keyed_coin_rows(base, [u], [v], [ordinal], [p], num_samples)[0]


@dataclass
class EdgeChange:
    """One edge's coin-row delta between an old and a repaired batch.

    ``added`` / ``removed`` are ``(W,)`` word rows of the worlds this
    edge newly exists in / vanished from.  Under keyed coins a pure
    probability raise has empty ``removed`` and a pure lower empty
    ``added`` (the thresholds nest); insertions carry only ``added``,
    deletions only ``removed`` (``eid`` is ``None`` for a deletion —
    the row no longer exists in the repaired batch).
    """

    u: int
    v: int
    ordinal: int
    eid: Optional[int]
    added: np.ndarray
    removed: np.ndarray


def repair_batch(
    new_plan: QueryPlan,
    old_plan: QueryPlan,
    old_batch: WorldBatch,
    base: np.uint64,
) -> Tuple[WorldBatch, List[EdgeChange]]:
    """Patch a cached batch onto an edited plan instead of resampling.

    Rows for edges whose identity and probability survived the edit are
    *copied* from ``old_batch`` (bit-identical coins by the keyed-coin
    contract); rows for changed or inserted edges are regenerated from
    ``base``; rows for deleted edges are dropped.  The result is
    ``np.array_equal`` to ``sample_worlds_keyed(new_plan, Z, base)`` —
    repair is an optimization, never an approximation — and the
    returned :class:`EdgeChange` list tells reachability-state repair
    exactly which world-bits each touched edge gained or lost.

    Only standard prefix-layout batches repair (same restriction as
    :func:`batch_to_words`): a concatenated stratified batch interleaves
    conditioning with its pad layout and must be resampled.
    """
    expected = valid_sample_mask(old_batch.num_samples)
    if (old_batch.valid.shape != expected.shape
            or not bool(np.array_equal(old_batch.valid, expected))):
        raise ValueError(
            "only prefix-layout batches repair; concatenated batches "
            "with interior pad bits must be resampled"
        )
    num_samples = old_batch.num_samples
    words = old_batch.num_words
    old_ids = {
        (int(old_plan.edge_u[eid]), int(old_plan.edge_v[eid]),
         int(old_plan.edge_ordinal[eid])): eid
        for eid in range(old_plan.num_edges)
    }
    alive = np.empty((new_plan.num_edges, words), dtype=np.uint64)
    changes: List[EdgeChange] = []
    zeros = np.zeros(words, dtype=np.uint64)
    seen = set()
    for eid in range(new_plan.num_edges):
        identity = (int(new_plan.edge_u[eid]), int(new_plan.edge_v[eid]),
                    int(new_plan.edge_ordinal[eid]))
        seen.add(identity)
        old_eid = old_ids.get(identity)
        p = float(new_plan.probs[eid])
        if old_eid is not None and p == float(old_plan.probs[old_eid]):
            alive[eid] = old_batch.alive[old_eid]
            continue
        row = edge_coin_row(base, *identity, p, num_samples)
        alive[eid] = row
        old_row = old_batch.alive[old_eid] if old_eid is not None else zeros
        changes.append(EdgeChange(
            *identity, eid=eid,
            added=row & ~old_row, removed=old_row & ~row,
        ))
    for identity, old_eid in old_ids.items():
        if identity not in seen:
            old_row = np.asarray(old_batch.alive[old_eid])
            changes.append(EdgeChange(
                *identity, eid=None,
                added=zeros, removed=old_row.copy(),
            ))
    return (
        WorldBatch(alive=alive, num_samples=num_samples,
                   valid=valid_sample_mask(num_samples)),
        changes,
    )


def concat_batches(batches: Sequence[WorldBatch]) -> WorldBatch:
    """Concatenate world batches along the sample axis — cheaply.

    Blocks are joined at *word* granularity (no repacking): block ``i``
    keeps its own words, so a block whose ``Z`` is not a multiple of 64
    leaves zero pad bits in the middle of the combined row.  The
    combined ``valid`` mask has exactly the real sample bits set, and
    every kernel reduction (popcounts, hit fractions, reach sweeps)
    already ignores pad bits, so the concatenated batch behaves exactly
    like one batch of ``sum(Z_i)`` samples.  Used by the stratified and
    per-block selection backends to assemble conditioned sample blocks
    into one shared batch.
    """
    batches = list(batches)
    if not batches:
        raise ValueError("concat_batches needs at least one batch")
    if len(batches) == 1:
        return batches[0]
    return WorldBatch(
        alive=np.concatenate([b.alive for b in batches], axis=1),
        num_samples=sum(b.num_samples for b in batches),
        valid=np.concatenate([b.valid for b in batches]),
    )


def allocate_proportional(
    weights: Sequence[float],
    total: int,
) -> List[int]:
    """Largest-remainder allocation of ``total`` samples to strata.

    Quotas are ``total * w / sum(w)``; every stratum gets its floor and
    the leftovers go to the largest fractional parts (ties to the lower
    index).  Zero-weight strata get zero.  The result always sums to
    ``total``.
    """
    weights = np.asarray(list(weights), dtype=np.float64)
    if weights.size == 0:
        raise ValueError("need at least one stratum")
    if np.any(weights < 0.0):
        raise ValueError("stratum weights must be non-negative")
    mass = float(weights.sum())
    if mass <= 0.0:
        raise ValueError("stratum weights must not all be zero")
    quotas = total * weights / mass
    counts = np.floor(quotas).astype(np.int64)
    remainder = total - int(counts.sum())
    if remainder > 0:
        order = np.argsort(-(quotas - counts), kind="stable")
        counts[order[:remainder]] += 1
    return [int(c) for c in counts]


def sample_worlds_stratified(
    plan: QueryPlan,
    strata: Sequence[Tuple[Sequence[int], Sequence[int], float]],
    num_samples: int,
    rng: np.random.Generator,
) -> WorldBatch:
    """One batch of ``Z`` worlds stratified over forced edge states.

    ``strata`` is a sequence of ``(forced_true_ids, forced_false_ids,
    weight)`` triples partitioning the probability space; each stratum
    gets a largest-remainder proportional share of ``num_samples`` and
    its worlds are sampled with the stratum's edges pinned
    (:func:`sample_worlds`).  Because allocation is proportional, the
    *uniform* average over the combined batch is the stratified
    estimator itself (up to integer rounding) — which is what lets the
    selection-gain kernel treat a stratified batch exactly like a plain
    one.  Zero-allocation strata are skipped.
    """
    counts = allocate_proportional([w for _, _, w in strata], num_samples)
    blocks: List[WorldBatch] = []
    for (forced_true, forced_false, _w), count in zip(
            strata, counts, strict=True):
        if count <= 0:
            continue
        blocks.append(
            sample_worlds(plan, count, rng, forced_true, forced_false)
        )
    if not blocks:
        raise ValueError("no stratum received a positive allocation")
    return concat_batches(blocks)


def extend_batch(batch: WorldBatch, rows: np.ndarray) -> WorldBatch:
    """Batch over an overlay-extended plan: append per-edge coin rows.

    ``rows`` is ``(num_extra_edges, W)`` — one coin row per overlay edge,
    in overlay order, matching the edge ids
    :func:`~repro.engine.csr.extend_with_overlay` assigns.  The base
    rows are shared, not copied per call beyond the concatenation.
    """
    return WorldBatch(
        alive=np.concatenate([batch.alive, rows]),
        num_samples=batch.num_samples,
        valid=batch.valid,
    )


def batch_reach(
    plan: QueryPlan,
    batch: WorldBatch,
    source_indices: Sequence[int],
    target_index: Optional[int] = None,
) -> np.ndarray:
    """Reached-bitmask ``(num_nodes, W)`` from the given source indices.

    Every BFS sweep advances all ``Z`` worlds one frontier step; the loop
    runs until no world's reached set grows (bounded by the diameter).
    Sweeps are frontier-restricted: only arcs whose source row changed
    in the previous sweep are gathered (:func:`_sweep`).

    Passing several sources computes reachability *from the source set*
    in each world — exactly the union semantics multi-source queries
    need.  With ``target_index`` the sweep stops as soon as the target
    row saturates against the valid mask (all worlds reached it).
    """
    sources = list(source_indices)
    state = np.zeros((1, plan.num_nodes, batch.num_words), dtype=np.uint64)
    state[0, sources] = batch.valid
    _sweep(plan, batch, state, sources, target_index)
    return state[0]


def batch_reach_resume(
    plan: QueryPlan,
    batch: WorldBatch,
    reached: np.ndarray,
    frontier_nodes: Sequence[int],
) -> np.ndarray:
    """Continue a reachability sweep from a partial reached state.

    ``reached`` must be a *valid lower bound* of the fixpoint — every
    set bit certified by an actual path in that world — and
    ``frontier_nodes`` must contain every node whose row gained bits
    since the state was last a fixpoint.  Because batch reachability is
    monotone, resuming the sweep from exactly those rows converges to
    the same fixpoint a from-scratch :func:`batch_reach` over the same
    ``(plan, batch)`` would, bit for bit — this is what lets greedy
    selection restart sweeps from a committed winner's endpoints
    instead of re-sweeping all worlds from the query endpoints
    (:mod:`repro.engine.selection`).

    ``reached`` is updated in place (and also returned), through a view
    of the caller's array whatever its memory layout.  Rows for nodes
    the plan added since the state was built must already be present
    (zero-padded) — see :func:`seed_resume`.
    """
    if reached.shape[0] != plan.num_nodes:
        raise ValueError(
            f"reached has {reached.shape[0]} rows for a plan with "
            f"{plan.num_nodes} nodes; pad before resuming"
        )
    _sweep(plan, batch, reached[np.newaxis], list(frontier_nodes))
    return reached


def seed_resume(
    plan: QueryPlan,
    reached: np.ndarray,
    arcs: Iterable[Tuple[int, int, np.ndarray]],
) -> Tuple[np.ndarray, List[int]]:
    """Seed a reached fixpoint with new coin bits, ready to resume.

    ``arcs`` holds ``(u, v, row)`` triples in node-id space: ``row`` is
    the ``(W,)`` word row of worlds in which the arc ``u -> v`` newly
    exists.  First zero-pads ``reached`` with a row for every node the
    plan interned after the state was built (existing dense indices are
    stable; a new node is unreachable until an edge connects it).  Then
    each arc sets ``reached[v] |= row & reached[u] & ~reached[v]`` —
    exactly the worlds the arc connects that were not connected before —
    and the swap when the plan is undirected.  Returns the padded state
    (``reached`` itself, seeded in place, when no row was added) and the
    dense indices of the rows that gained bits, which are the frontier
    :func:`batch_reach_resume` continues from.
    """
    missing = plan.num_nodes - reached.shape[0]
    if missing > 0:
        reached = np.concatenate([
            reached, np.zeros((missing, reached.shape[1]), dtype=np.uint64)
        ])
    seeded: List[int] = []
    for u, v, row in arcs:
        tail, head = plan.index_of[u], plan.index_of[v]
        ends = [(tail, head)]
        if not plan.directed:
            ends.append((head, tail))
        for near, far in ends:
            gain = row & reached[near] & ~reached[far]
            if gain.any():
                reached[far] |= gain
                seeded.append(far)
    return reached, seeded


#: Reached-state budget of one pass of :func:`reach_each`, in uint64
#: words (``S * n * W``); 4M words = 32 MB.  Larger source sets are
#: swept in several passes.
_MULTI_SOURCE_WORD_BUDGET = 4_000_000

#: Sweep chunking: at most this many pairs per chunk (measured — more
#: pairs per call puts ``reduceat`` on its slow many-segments-per-call
#: path) and at most this many bytes of gathered rows.  A chunk holds
#: about five temporaries of that size (gathered rows, coin rows,
#: current and updated rows, the compare mask), so 128 KiB keeps them
#: inside a 2 MiB L2 at any row width.  On as-topology (1000 nodes,
#: one source, 2-core Xeon, numpy 2.4, fresh processes) a fixpoint
#: took 6.2 / 25 / 79 ms at Z = 1000 / 4096 / 16384 with this budget,
#: against 15 / 63 / 191 ms with 2 MiB chunks.
_GATED_CHUNK_PAIRS = 4096
_GATED_CHUNK_BYTES = 1 << 17


def _gated_chunk_pairs(words: int) -> int:
    return max(
        256, min(_GATED_CHUNK_PAIRS, _GATED_CHUNK_BYTES // (words * 8))
    )


def _sweep(
    plan: QueryPlan,
    batch: WorldBatch,
    state: np.ndarray,
    frontier_keys: Sequence[int],
    target_index: Optional[int] = None,
) -> int:
    """The one reachability fixpoint loop, in place over ``state``.

    ``state`` is ``(S, n, W)``: ``S`` independent reached-bitmasks over
    the same worlds, swept together (an ``S``-block pass costs ``max``,
    not ``sum``, of the per-block sweep counts, and the numpy per-sweep
    overhead is paid once).  Row ``v`` of block ``i`` is flat key
    ``i * n + v``; ``frontier_keys`` are the flat keys of the rows to
    sweep out of first.

    Each sweep gathers only the active ``(arc, block)`` pairs.  It
    takes the arcs out of a frontier row of any block, and with
    several blocks the flat nonzero positions of the ``(S, arcs)``
    frontier mask over those arcs' sources, which come out sorted by
    ``(block, arc position)`` (a narrow frontier never pays for an
    ``(S, A)`` mask).  The arc table is destination-sorted, so the
    scatter keys are non-decreasing and feed ``bitwise_or.reduceat``
    with no per-sweep sort.  Pairs go through cache-sized chunks
    (:func:`_gated_chunk_pairs`), and a chunk whose keys are all
    distinct skips ``reduceat``.  Chunks scatter in order through
    read-modify-write, so a destination split across chunks, or a row
    a later chunk gathers after an earlier one grew it, only speeds
    convergence: reachability is a monotone union, and the fixpoint
    does not depend on the order the bits land in.  With
    ``target_index`` (a flat key) the loop stops once that row holds
    every valid world.

    The flat ``(S * n, W)`` state is a view with an assigned shape, so
    a state that cannot be swept in place raises instead of sweeping a
    copy.  Returns the number of ``(arc, block)`` pairs gathered — the
    loop's work is that count times ``W`` words.
    """
    num_blocks, num_nodes, words = state.shape
    flat = state.view()
    flat.shape = (num_blocks * num_nodes, words)
    frontier = np.zeros(num_blocks * num_nodes, dtype=bool)
    frontier[frontier_keys] = True
    blocks = frontier.reshape(num_blocks, num_nodes)
    arc_src = plan.arc_src
    arc_dst = plan.arc_dst
    arc_eid = plan.arc_eid
    alive = batch.alive
    chunk = _gated_chunk_pairs(words)
    gathered = 0
    while True:
        # Arcs out of a frontier row of some block ...
        live = frontier if num_blocks == 1 else blocks.any(axis=0)
        arcs = np.flatnonzero(live[arc_src])
        if arcs.size == 0:
            break
        src_keys = arc_src[arcs]
        dst_keys = arc_dst[arcs]
        eids = arc_eid[arcs]
        if num_blocks > 1:
            # ... then the blocks each is live in, as (block, arc) pairs.
            pos = np.flatnonzero(blocks[:, src_keys])
            base = pos // arcs.size
            pos -= base * arcs.size
            base *= num_nodes
            src_keys = base + src_keys[pos]
            dst_keys = base + dst_keys[pos]
            eids = eids[pos]
        gathered += eids.size
        frontier[:] = False
        grew = False
        for lo in range(0, eids.size, chunk):
            keys = dst_keys[lo:lo + chunk]
            contrib = flat[src_keys[lo:lo + chunk]]
            contrib &= alive[eids[lo:lo + chunk]]
            ends = np.flatnonzero(keys[1:] != keys[:-1])
            if ends.size + 1 == keys.size:  # every key distinct
                touched = keys
            else:
                starts = np.concatenate(([0], ends + 1))
                contrib = np.bitwise_or.reduceat(contrib, starts, axis=0)
                touched = keys[starts]
            current = flat[touched]
            updated = current | contrib
            changed = np.any(updated != current, axis=1)
            if changed.any():
                grew = True
                touched = touched[changed]
                flat[touched] = updated[changed]
                frontier[touched] = True
        if not grew:
            break
        if target_index is not None and np.array_equal(
            flat[target_index], batch.valid
        ):
            break
    return gathered


def reach_each(
    plan: QueryPlan,
    batch: WorldBatch,
    source_indices: Sequence[int],
) -> Iterator[np.ndarray]:
    """Each source's own reached fixpoint, in source order.

    The one multi-source sweep path: sources are split into passes of
    at most :data:`_MULTI_SOURCE_WORD_BUDGET` reached words, and a pass
    is one :func:`_sweep` over a block per source.  Yields one
    C-contiguous ``(num_nodes, W)`` matrix per source, bit-for-bit its
    :func:`batch_reach` fixpoint; a pass's matrices are disjoint views
    of one state, so each can be resumed in place independently
    (:func:`batch_reach_resume`).
    """
    sources = list(source_indices)
    num_nodes = plan.num_nodes
    words = batch.num_words
    per_pass = max(1, _MULTI_SOURCE_WORD_BUDGET // max(num_nodes * words, 1))
    for lo in range(0, len(sources), per_pass):
        group = sources[lo:lo + per_pass]
        state = np.zeros((len(group), num_nodes, words), dtype=np.uint64)
        state[np.arange(len(group)), group] = batch.valid
        _sweep(
            plan, batch, state,
            [i * num_nodes + src for i, src in enumerate(group)],
        )
        yield from state


def hit_fraction(row: np.ndarray, num_samples: int) -> float:
    """Fraction of worlds whose bit is set in a reached-matrix row."""
    return int(popcount(row).sum()) / num_samples
