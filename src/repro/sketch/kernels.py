"""Shared vectorized kernels behind every sketch family's hot path.

Five building blocks, used by CountSketch/Count-Min, AMS, the ``l_0``
sketch and the ``l_0`` sampler, and by the protocols' exact products:

**Lazy stacked hashing** (:class:`StackedKWiseHash`).  Instead of
precomputing dense ``O(universe x depth)`` bucket/sign tables at
construction (the pre-kernel design), hash values are evaluated *on demand*
for each update batch: one vectorized Mersenne-61 Horner pass over the
batch, all depth rows at once via broadcasting, with a small-key fast path
that skips the vanished partial products for keys below ``2^32``.
Horner starts at the leading coefficient (the historical first step from
zero is the identity) and reduces in place, so a degree-1 hash costs one
modular multiply.  Construction cost and memory are ``O(depth x k)`` —
independent of the universe — which is what lets sketches span universes
of ``2^30`` and beyond.  The per-key values are bit-identical to
evaluating ``depth`` separate :class:`repro.sketch.hashing.KWiseHash`
members drawn from the same generator stream, so the rewrite changed no
transcript anywhere.

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
Vector values scatter in one call over the flattened
``(row, bucket, column)`` cells instead of one call per (row, column):
each cell still sums its batch in order from zero and is added to the
table once, so even fractional updates keep their bytes.  The integer
``l_0``-sketch scatter likewise runs one 1-D indexed add over the
flattened ``(row, column)`` cells.

**Nested levels** (:func:`count_alive_levels`, :func:`expand_levels`).
The layered-subsampling sketches touch levels ``0..c_j - 1`` of their
hierarchy per updated coordinate ``j``, where ``c_j`` is its alive-level
count.  The ``l_0`` sketch also picks a bucket per coordinate, so
``expand_levels`` turns the counts into the flat ``(coordinate, level)``
pairs in one vectorized pass (expected blow-up factor 2: level depths are
geometric) and feeds them to the fused scatter.  The ``l_0``-sampler has
no buckets: its level ``g`` is the plain sum over every coordinate with
``c_j > g``, so a batch's update is a product of the 0/1 alive indicator
``(level < c_j)`` with the batch, which :func:`exact_matmul` computes
(see :meth:`repro.sketch.l0_sampler.L0Sampler._contribution`).

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
    _reduce_once,
)

__all__ = [
    "BitSignHash",
    "StackedKWiseHash",
    "bincount_rows",
    "count_alive_levels",
    "exact_matmul",
    "expand_levels",
    "joint_values",
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
        return joint_values((self,), keys)

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
        per_row = (self.depth, self.k) + (1,) * (keys_mod.ndim - 1)
        return _horner(self.coeffs.reshape(per_row), keys_mod)

    def buckets(self, keys: np.ndarray, n_buckets: int) -> np.ndarray:
        """Bucket assignments in ``[0, n_buckets)``, shape ``(depth, batch)``."""
        if n_buckets < 1:
            raise ValueError(f"n_buckets must be >= 1, got {n_buckets}")
        return (self.values(keys) % np.uint64(n_buckets)).astype(np.int64)

    def signs(self, keys: np.ndarray) -> np.ndarray:
        """``{-1, +1}`` signs, shape ``(depth, batch)``."""
        parity = (self.values(keys) & np.uint64(1)).astype(np.int64)
        return 2 * parity - 1


def joint_values(hashes: tuple[StackedKWiseHash, ...], keys: np.ndarray) -> np.ndarray:
    """The rows of every hash in ``hashes`` at ``keys``, stacked in order.

    One Horner pass over the stacked coefficient tables: a sketch that draws
    several hashes per coordinate pays the per-call cost once.  The hashes
    must share their degree ``k``.
    """
    coeffs = np.concatenate([h.coeffs for h in hashes])
    keys = np.asarray(keys, dtype=np.int64).reshape(-1)
    keys_mod = (keys % np.int64(PRIME_61)).astype(np.uint64)
    backend = _native.active()
    if backend is not None:
        return backend.horner(coeffs, keys_mod)
    return _horner(coeffs[:, :, None], keys_mod[None, :])


def _horner(coeffs: np.ndarray, keys_mod: np.ndarray) -> np.ndarray:
    """Evaluate the polynomials ``coeffs[:, j]`` (leading first) at ``keys_mod``.

    ``coeffs[:, j]`` broadcasts against ``keys_mod``; the result has their
    broadcast shape.  Horner starts at the leading coefficient, because the
    historical first step from ``acc = 0`` is the identity
    (``mulmod(0, x) + c0 = c0 < p``), so a degree-1 hash costs one modular
    multiply.
    """
    if coeffs.shape[1] == 1:
        shape = np.broadcast_shapes(coeffs[:, 0].shape, keys_mod.shape)
        return np.broadcast_to(coeffs[:, 0], shape).copy()
    small = keys_mod.size == 0 or int(keys_mod.max()) < (1 << 32)
    mulmod = _mulmod_p61_small_b if small else _mulmod_p61
    acc = coeffs[:, 0]
    for j in range(1, coeffs.shape[1]):
        acc = mulmod(acc, keys_mod)  # a fresh full-shape array
        acc += coeffs[:, j]
        _reduce_once(acc)
    return acc


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
    ``(batch, m)``.  The scatter is one ``np.bincount`` over the flattened
    ``(row, bucket, column)`` cells, laid out ``(row, t, column)`` so that
    each cell still accumulates its batch in order from zero and reaches
    the table in one add — the same association as one bincount per
    (row, column), and as the native shim.
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
    # order="C": gathers from a dense cache come back column-major, and
    # the flat views below must not copy.
    row_buckets = buckets + (np.arange(depth) * width)[:, None]
    cells = np.add(row_buckets[:, :, None] * m, np.arange(m), order="C")
    weights = np.multiply(signs[:, :, None], deltas, order="C")
    table += np.bincount(
        cells.reshape(-1), weights=weights.reshape(-1), minlength=table.size
    ).reshape(table.shape)


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
    weights accumulate through ``np.bincount``.  2-D weights scatter into
    the flattened ``(row, column)`` cells in one call either way.
    """
    backend = _native.active()
    width = 1 if weights.ndim == 1 else weights.shape[1]
    shape = (num_rows,) if weights.ndim == 1 else (num_rows, width)
    dtype = np.int64 if exact_int else np.float64
    if backend is not None:
        out = np.zeros(shape, dtype=dtype)
        kernel = backend.bincount_i64 if exact_int else backend.bincount_f64
        kernel(
            np.ascontiguousarray(rows, dtype=np.int64),
            np.ascontiguousarray(weights, dtype=dtype),
            out,
        )
        return out
    cells = rows if weights.ndim == 1 else rows[:, None] * width + np.arange(width)
    if exact_int:
        out = np.zeros(shape, dtype=np.int64)
        flat_weights = weights.astype(np.int64, copy=False).reshape(-1)
        np.add.at(out.reshape(-1), cells.reshape(-1), flat_weights)
        return out
    return np.bincount(
        cells.reshape(-1), weights=weights.reshape(-1), minlength=num_rows * width
    ).reshape(shape)


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
