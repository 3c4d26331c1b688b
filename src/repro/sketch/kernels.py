"""Shared vectorized kernels behind every sketch family's hot path.

Five building blocks, used by CountSketch/Count-Min, AMS, the ``l_0``
sketch and the ``l_0`` sampler, and by the protocols' exact products:

**Lazy stacked hashing** (:class:`StackedKWiseHash`).  Instead of
precomputing dense ``O(universe x depth)`` bucket/sign tables at
construction (the pre-kernel design), hash values are evaluated *on demand*
for each update batch: one vectorized Mersenne-61 Horner pass over the
batch, all depth rows at once via broadcasting, with a small-key fast path
that skips the vanished partial products for keys below ``2^32``.
Construction cost and memory are ``O(depth x k)`` — independent of the
universe — which is what lets sketches span universes of ``2^30`` and
beyond.  The per-key values are bit-identical to evaluating ``depth``
separate :class:`repro.sketch.hashing.KWiseHash` members drawn from the
same generator stream, so the rewrite changed no transcript anywhere.

**Bit-sliced sign hashing** (:class:`BitSignHash`).  A 4-wise independent
hash value is uniform over the 61-bit Mersenne field, so each of its bits
is an unbiased 4-wise independent sign: one Horner evaluation per key
yields up to 61 AMS rows at once (``ceil(rows / 61)`` evaluations for
more), turning the per-(row, key) sign cost into a per-key cost.  Used by
the AMS sketch's universe-independent ``mode="hash"``.

**Fused scatter-add** (:func:`scatter_add_scalar`,
:func:`scatter_add_vector`, :func:`bincount_rows`).  Bucket scatters run
through ``np.bincount``, which accumulates weights in input order — so
building a fresh table from a batch reproduces the historical sequential
``np.add.at`` result bit for bit, and on integer-valued updates (every
engine/streaming path — ingestion enforces the float64-exact ``2^53``
range) accumulation into a non-empty table is exact as well, which is what
keeps the streaming chunking-equivalence suites byte-identical.  (On the
NumPy 2.x in this environment the old per-row ``add.at`` is no longer the
order-of-magnitude disaster it classically was — it grew a fast path — but
``bincount`` still wins the scatter by ~2-3x; the measured numbers live in
``benchmarks/BENCH_sketch.json``.  The decisive cost at small universes is
the dense-table *gather*, which is why the callers keep a dense cache only
as an adaptive small-universe optimization and hash lazily otherwise.)

**Nested levels** (:func:`count_alive_levels`, :func:`expand_levels`,
:func:`nested_level_sums`).  The layered-subsampling sketches touch levels
``0..c_j - 1`` of their hierarchy per updated coordinate ``j``, where
``c_j`` is its alive-level count.  The ``l_0`` sketch also picks a bucket
per coordinate, so ``expand_levels`` turns the counts into the flat
``(coordinate, level)`` pairs in one vectorized pass (expected blow-up
factor 2: level depths are geometric) and feeds them to the fused bincount.
The ``l_0``-sampler has no buckets: its level ``g`` is the plain sum over
every coordinate with ``c_j > g``.  Because the levels are nested, that is a
suffix sum over counts.  ``nested_level_sums`` group-sums the batch by count
into ``levels + 1`` rows (stable argsort plus ``np.add.reduceat``) and takes
one reverse ``cumsum``, so the batch is never expanded.  It is exact: int64
addition wraps mod ``2^64``, hence is associative and commutative, so this
summation order gives the same bytes as the batch-order expanded scatter.
The same trick does not pay for the ``l_0`` sketch, whose
``(levels + 1) x buckets`` groups outnumber the rows of a typical batch.

**Exact integer products** (:func:`exact_matmul`).  NumPy's int64 ``@``
does not use BLAS, but the protocols' exact products fit float64: if
``inner * max|x| * max|y| < 2^53``, every partial sum is an integer below
``2^53`` in magnitude, which float64 holds exactly, so no summation order
and no FMA can round one.  Measured with OpenBLAS 0.3.31 on a 2-CPU x86-64
host, the float route wins from ``2^15`` multiply-adds (``2^14``: 10.6 us
on the int64 loop vs 13.1 us; ``2^15``: 20.0 vs 14.9 us).  A gemm of
``2^19`` multiply-adds stays on the calling thread (CPU/wall 1.00) but one
of ``2^20`` uses two (2.2), and spinning BLAS threads slow the co-located
service processes, hence row blocks of at most ``2^18``.  A site's
512 x 128 shard times the 128 x 216 ``l_0`` sketch of ``B``: 8.0 ms on the
int64 loop, 0.85 ms on the float route.
"""

from __future__ import annotations

import numpy as np

from repro.sketch import _native
from repro.sketch.hashing import (
    PRIME_61,
    KWiseHash,
    _mulmod_p61,
    _mulmod_p61_small_b,
    _P61,
)

__all__ = [
    "BitSignHash",
    "StackedKWiseHash",
    "bincount_rows",
    "count_alive_levels",
    "exact_matmul",
    "expand_levels",
    "nested_level_sums",
    "scatter_add_scalar",
    "scatter_add_vector",
]

#: Usable sign bits per hash value (the field is 61 bits wide).
_BITS_PER_HASH = 61

#: Smallest product (multiply-adds) that :func:`exact_matmul` sends to BLAS.
_BLAS_MIN_MACS = 1 << 15
#: Largest gemm (multiply-adds) per row block: OpenBLAS keeps it on one thread.
_BLAS_BLOCK_MACS = 1 << 18


class StackedKWiseHash:
    """``depth`` independent k-wise hash functions evaluated together.

    Drawing coefficients row by row from ``rng`` consumes the generator
    stream exactly like constructing ``depth`` separate :class:`KWiseHash`
    members, and evaluation broadcasts the same Mersenne-61 Horner rule over
    a ``(depth, 1) x (batch,)`` grid — so per-key values are bit-identical
    to the historical per-row objects while costing one fused pass.
    """

    def __init__(self, k: int, depth: int, rng: np.random.Generator) -> None:
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        members = [KWiseHash(k, rng) for _ in range(depth)]
        self.k = k
        self.depth = depth
        #: (depth, k) uint64 coefficient table; doubles as the randomness
        #: fingerprint two sketches must share to be mergeable.
        self.coeffs = np.array([m._coeffs for m in members], dtype=np.uint64)

    def values(self, keys: np.ndarray) -> np.ndarray:
        """Hash values in ``[0, PRIME_61)``, shape ``(depth, len(keys))``."""
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        keys_mod = (keys % np.int64(PRIME_61)).astype(np.uint64)
        backend = _native.active()
        if backend is not None:
            return backend.horner(self.coeffs, keys_mod)
        keys_mod = keys_mod[None, :]
        small = keys_mod.size == 0 or int(keys_mod.max()) < (1 << 32)
        mulmod = _mulmod_p61_small_b if small else _mulmod_p61
        acc = np.zeros((self.depth, keys_mod.shape[1]), dtype=np.uint64)
        for j in range(self.k):
            acc = mulmod(acc, keys_mod) + self.coeffs[:, j : j + 1]
            acc = np.where(acc >= _P61, acc - _P61, acc)
        return acc

    def values_grid(self, keys: np.ndarray) -> np.ndarray:
        """Row ``r``'s hash evaluated at ``keys[r]`` — no cross-row waste.

        ``keys`` has shape ``(depth, ...)``; the Horner recursion broadcasts
        elementwise, so each row's polynomial only ever touches its own key
        block (unlike :meth:`values`, which evaluates every row at every
        key).  Used where each repetition looks up its own coordinates,
        e.g. the ``l_0``-sampler's fingerprint verification.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if keys.shape[0] != self.depth:
            raise ValueError(
                f"keys grid has {keys.shape[0]} rows, expected {self.depth}"
            )
        keys_mod = (keys % np.int64(PRIME_61)).astype(np.uint64)
        backend = _native.active()
        if backend is not None:
            return backend.horner_grid(self.coeffs, np.ascontiguousarray(keys_mod))
        small = keys_mod.size == 0 or int(keys_mod.max()) < (1 << 32)
        mulmod = _mulmod_p61_small_b if small else _mulmod_p61
        acc = np.zeros(keys_mod.shape, dtype=np.uint64)
        coeff_shape = (self.depth,) + (1,) * (keys_mod.ndim - 1)
        for j in range(self.k):
            acc = mulmod(acc, keys_mod) + self.coeffs[:, j].reshape(coeff_shape)
            acc = np.where(acc >= _P61, acc - _P61, acc)
        return acc

    def buckets(self, keys: np.ndarray, n_buckets: int) -> np.ndarray:
        """Bucket assignments in ``[0, n_buckets)``, shape ``(depth, batch)``."""
        if n_buckets < 1:
            raise ValueError(f"n_buckets must be >= 1, got {n_buckets}")
        return (self.values(keys) % np.uint64(n_buckets)).astype(np.int64)

    def signs(self, keys: np.ndarray) -> np.ndarray:
        """``{-1, +1}`` signs, shape ``(depth, batch)``."""
        parity = (self.values(keys) & np.uint64(1)).astype(np.int64)
        return 2 * parity - 1


class BitSignHash:
    """``num_rows`` 4-wise independent sign rows from bit-sliced hash values.

    Row ``r``'s sign for key ``j`` is bit ``r mod 61`` of hash member
    ``r // 61`` evaluated at ``j``: one Horner pass per key per 61 rows,
    with the bits unpacked in bulk via ``np.unpackbits``.  Each row is a
    4-wise independent ``{-1, +1}`` family (a fixed bit of a 4-wise
    independent field value), which is exactly the independence the AMS
    variance analysis needs; rows sharing a hash member are uncorrelated
    only pairwise-in-expectation, the usual one-hash-many-bits trade.
    """

    def __init__(self, num_rows: int, rng: np.random.Generator, *, k: int = 4) -> None:
        if num_rows < 1:
            raise ValueError(f"num_rows must be >= 1, got {num_rows}")
        self.num_rows = num_rows
        groups = (num_rows + _BITS_PER_HASH - 1) // _BITS_PER_HASH
        self._hashes = StackedKWiseHash(k, groups, rng)
        # Row r reads bit (r % 61) of hash member (r // 61); precompute the
        # flat positions into the unpacked (groups * 64)-bit grid.
        rows = np.arange(num_rows)
        self._bit_rows = (rows // _BITS_PER_HASH) * 64 + (rows % _BITS_PER_HASH)

    @property
    def coeffs(self) -> np.ndarray:
        """Randomness fingerprint (the underlying hash coefficients)."""
        return self._hashes.coeffs

    def signs(self, keys: np.ndarray) -> np.ndarray:
        """Float ``{-1.0, +1.0}`` signs, shape ``(num_rows, len(keys))``."""
        values = self._hashes.values(keys)  # (groups, batch) uint64
        batch = values.shape[1]
        bits = np.unpackbits(
            values.view(np.uint8).reshape(values.shape[0], batch, 8),
            axis=2,
            bitorder="little",
        )  # (groups, batch, 64)
        per_bit = bits.transpose(0, 2, 1).reshape(-1, batch)  # (groups * 64, batch)
        return per_bit[self._bit_rows].astype(np.float64) * 2.0 - 1.0


def scatter_add_scalar(
    table: np.ndarray,
    buckets: np.ndarray,
    signs: np.ndarray | None,
    deltas: np.ndarray,
) -> None:
    """Add ``signs[r, t] * deltas[t]`` into ``table[r, buckets[r, t]]``.

    One ``np.bincount`` per sketch row (the scatter itself is ~3x faster
    than ``np.add.at`` even on NumPy 2.x).  ``signs`` may be ``None``
    (Count-Min).  ``table`` has shape ``(depth, width)`` and is updated in
    place; per-bucket accumulation runs in batch order, so populating a
    zeroed table is bit-identical to the historical sequential scatter.
    """
    depth, width = table.shape
    backend = _native.active()
    if backend is not None and table.flags.c_contiguous:
        # Same association as below: zeroed per-row buffer accumulated in
        # batch order, then one elementwise add into the table — bit-exact.
        backend.scatter_add_scalar(
            table,
            np.ascontiguousarray(buckets, dtype=np.int64),
            None if signs is None else np.ascontiguousarray(signs, dtype=np.float64),
            np.ascontiguousarray(deltas, dtype=np.float64),
        )
        return
    for row in range(depth):
        weights = deltas if signs is None else signs[row] * deltas
        table[row] += np.bincount(buckets[row], weights=weights, minlength=width)


def scatter_add_vector(
    table: np.ndarray,
    buckets: np.ndarray,
    signs: np.ndarray,
    deltas: np.ndarray,
) -> None:
    """Vector-valued analogue: add ``signs[r, t] * deltas[t, :]`` row-vectors.

    ``table`` has shape ``(depth, width, m)`` and ``deltas`` shape
    ``(batch, m)``; value columns are independent, so the scatter is one
    bincount per (row, column) pair over the same bucket indices.
    """
    depth, width, m = table.shape
    backend = _native.active()
    if backend is not None and table.flags.c_contiguous:
        backend.scatter_add_vector(
            table,
            np.ascontiguousarray(buckets, dtype=np.int64),
            np.ascontiguousarray(signs, dtype=np.float64),
            np.ascontiguousarray(deltas, dtype=np.float64),
        )
        return
    for row in range(depth):
        row_buckets = buckets[row]
        row_signs = signs[row]
        for col in range(m):
            table[row, :, col] += np.bincount(
                row_buckets, weights=row_signs * deltas[:, col], minlength=width
            )


def bincount_rows(
    rows: np.ndarray,
    weights: np.ndarray,
    num_rows: int,
    *,
    exact_int: bool,
) -> np.ndarray:
    """Sum ``weights`` into ``num_rows`` output rows (the linear-map kernel).

    ``weights`` is 1-D (vector input: returns shape ``(num_rows,)``) or 2-D
    ``(len(rows), m)`` (matrix input: returns ``(num_rows, m)``).  With
    ``exact_int`` the accumulation runs in an int64 array via the fused
    indexed-add — exact to ``2^63`` like the dense integer matmul it
    replaced (a float64 ``bincount`` would silently round weights past
    ``2^53``, and the layered sketches' internal weights reach
    ``coefficient x value``, far beyond the raw delta bound).  Float
    weights accumulate through ``np.bincount``, one call per value column.
    """
    backend = _native.active()
    if exact_int:
        weights = weights.astype(np.int64, copy=False)
        shape = (num_rows,) if weights.ndim == 1 else (num_rows, weights.shape[1])
        out = np.zeros(shape, dtype=np.int64)
        if backend is not None:
            backend.bincount_i64(
                np.ascontiguousarray(rows, dtype=np.int64),
                np.ascontiguousarray(weights),
                out,
            )
        else:
            np.add.at(out, rows, weights)
        return out
    if backend is not None:
        shape = (num_rows,) if weights.ndim == 1 else (num_rows, weights.shape[1])
        out = np.zeros(shape, dtype=np.float64)
        backend.bincount_f64(
            np.ascontiguousarray(rows, dtype=np.int64),
            np.ascontiguousarray(weights, dtype=np.float64),
            out,
        )
        return out
    if weights.ndim == 1:
        return np.bincount(rows, weights=weights, minlength=num_rows)
    m = weights.shape[1]
    out = np.empty((num_rows, m), dtype=np.float64)
    for col in range(m):
        out[:, col] = np.bincount(rows, weights=weights[:, col], minlength=num_rows)
    return out


def count_alive_levels(priorities: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """How many nested subsampling levels each coordinate survives.

    Level ``g`` keeps coordinate ``j`` iff ``priorities[j] < thresholds[g]``
    with ``thresholds`` strictly decreasing (``2^-g``), so the alive levels
    are exactly ``0..count-1``.  Uses ``searchsorted`` on the ascending view
    — the same exact float comparisons as the dense construction loop.
    """
    ascending = thresholds[::-1]
    # Number of thresholds strictly greater than p == levels - upper_bound(p).
    return thresholds.shape[0] - np.searchsorted(ascending, priorities, side="right")


def expand_levels(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten per-coordinate level counts into (position, level) pairs.

    Returns ``(take, level)`` where ``take`` repeats each batch position
    ``counts[t]`` times and ``level`` runs ``0..counts[t]-1`` within each
    repeat — the row coordinates of every touched (coordinate, level) cell,
    in batch-major order (which preserves the sequential accumulation order
    of the pre-kernel per-level loops).
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    total = int(counts.sum())
    take = np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts)
    # arange minus the start offset of each coordinate's run = 0..count-1.
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    level = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    return take, level


def nested_level_sums(
    counts: np.ndarray, weights: np.ndarray, levels: int
) -> np.ndarray:
    """Row ``g`` sums ``weights[t]`` over every ``t`` with ``counts[t] > g``.

    Equals scattering every :func:`expand_levels` pair ``(t, g)`` into row
    ``g``, without the expansion: the batch is group-summed by count into
    ``levels + 1`` rows (stable argsort, then ``np.add.reduceat``), and one
    reverse ``cumsum`` turns per-count sums into per-level suffix sums.
    Integer weights accumulate in int64, whose addition wraps mod ``2^64``
    and is therefore associative — every summation order yields the same
    bytes as the batch-order scatter.  Float weights are summed in a
    different order than that scatter, so they agree up to rounding.

    ``counts`` has shape ``(batch,)`` with entries in ``[0, levels]``;
    ``weights`` has shape ``(batch, ...)``; the result has shape
    ``(levels, ...)`` and the dtype of ``weights``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    per_count = np.zeros((levels + 1,) + weights.shape[1:], dtype=weights.dtype)
    if counts.size:
        order = np.argsort(counts, kind="stable")
        ordered = counts[order]
        starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        per_count[ordered[starts]] = np.add.reduceat(weights[order], starts, axis=0)
    # suffix[c] = sum of per_count[c:]; level g keeps every count > g.
    suffix = np.cumsum(per_count[::-1], axis=0)[::-1]
    return suffix[1:]


def exact_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` with the same dtype and bytes, on float64 BLAS where exact.

    Only 2-D integer operands whose int64 product has at least
    ``_BLAS_MIN_MACS`` multiply-adds and meets the ``2^53`` bound (see the
    module docstring) take BLAS; everything else is plain ``x @ y``.
    """
    if (
        x.ndim == 2
        and y.ndim == 2
        and x.dtype.kind in "iu"
        and y.dtype.kind in "iu"
        and np.result_type(x, y) == np.int64
        and x.shape[1] == y.shape[0]
        and x.shape[0] * y.size >= _BLAS_MIN_MACS
        and x.shape[1] * _max_abs(x) * _max_abs(y) < 2**53
    ):
        return _blas_matmul(x, y)
    return x @ y


def _max_abs(a: np.ndarray) -> int:
    """``max |a|`` as a Python int (exact even for the int64 minimum)."""
    return max(int(a.max()), -int(a.min()))


def _blas_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Float64 gemms over row blocks of at most ``_BLAS_BLOCK_MACS``
    multiply-adds, cast back to int64.  Operands are made C-contiguous: each
    block's gemm would repack a transposed ``y``, doubling the time."""
    y_float = np.ascontiguousarray(y, dtype=np.float64)
    out = np.empty((x.shape[0], y.shape[1]), dtype=np.int64)
    step = max(1, _BLAS_BLOCK_MACS // y.size)
    for start in range(0, x.shape[0], step):
        block = np.ascontiguousarray(x[start : start + step], dtype=np.float64)
        out[start : start + step] = block @ y_float
    return out
