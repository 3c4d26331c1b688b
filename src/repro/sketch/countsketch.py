"""CountSketch: point queries and heavy hitters on a frequency vector.

Used by the heavy-hitter baseline (Pagh's compressed matrix multiplication)
and by tests.  Each of ``depth`` rows hashes coordinates into ``width``
buckets with a pairwise-independent hash and a 4-wise-independent sign; a
point query returns the median over rows of ``sign * bucket``.

Hashing is *lazy* (:mod:`repro.sketch.kernels`): bucket and sign values are
evaluated on demand for each update batch instead of being precomputed as
dense universe-sized tables, so construction costs ``O(width x depth)``
memory and time independent of ``n`` — a CountSketch over a ``2^30``
universe builds in microseconds.  The hash values (and therefore every
table state and transcript) are bit-identical to the historical dense
implementation; full-universe queries over small universes cache the dense
tables on first use to keep repeated queries cheap.

Vector-valued tables (one counter vector per bucket, as the streaming
runtime keeps for the rows of a matrix) have two full-universe reads.
:meth:`CountSketch.query_rows` takes the median of every entry and is the
reference.  :meth:`CountSketch.heavy_entries` returns only the entries whose
square clears a threshold: it screens the buckets first, so only entries
that can qualify pay for a median, and its output equals filtering
``query_rows()`` byte for byte.
"""

from __future__ import annotations

import copy
from typing import Iterator

import numpy as np

from repro.sketch.kernels import StackedKWiseHash, scatter_add_scalar, scatter_add_vector
from repro.sketch.mergeable import (
    check_coordinate_range,
    check_mergeable,
    check_same_randomness,
)

#: Full-universe helpers (``query_all``/``bucket_of``) materialize and cache
#: dense hash tables only below this universe size; above it they stream in
#: chunks of :data:`_CHUNK` keys so memory stays bounded.
_DENSE_CACHE_MAX = 1 << 22

#: Block budget of streamed full-universe operations: scalar tables hash
#: ``_CHUNK`` keys per block; :meth:`CountSketch.query_rows` and
#: :meth:`CountSketch.heavy_entries` step by ``_CHUNK // (depth * m)`` keys,
#: so each of their per-block temporaries holds at most ``_CHUNK`` entries
#: (8 MiB of float64 estimates) whatever the row width ``m``.
_CHUNK = 1 << 20


class CountSketch:
    """CountSketch with ``depth`` rows of ``width`` buckets each.

    Implements the :class:`repro.sketch.mergeable.MergeableSketch` contract:
    tables built with identical hash functions combine entrywise, so k sites
    can sketch their local frequency vectors and a coordinator can merge the
    summaries.

    Counters are scalar by default (the classic frequency-vector sketch).
    Feeding :meth:`update_many` matrix-shaped deltas switches the table to
    *vector-valued* counters — bucket ``(r, w)`` holds the sign-weighted sum
    of the updated row-vectors — which is how the streaming runtime sketches
    the rows of a matrix ``A``: because the construction stays linear, the
    coordinator can multiply the merged table by ``B`` on the right and
    obtain, per column ``j``, a classic CountSketch (same hashes) of column
    ``j`` of ``C = A B``, from which :meth:`query_rows` recovers per-entry
    estimates.
    """

    def __init__(self, n: int, width: int, depth: int, rng: np.random.Generator) -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if width < 1 or depth < 1:
            raise ValueError("width and depth must be >= 1")
        self.n = n
        self.width = width
        self.depth = depth
        # Same draw order as the historical dense constructor: all bucket
        # hashes first, then all sign hashes.
        self._bucket_hashes = StackedKWiseHash(2, depth, rng)
        self._sign_hashes = StackedKWiseHash(4, depth, rng)
        # Dense-table cache for small universes, shared across empty_copy
        # clones (they share the hash functions, hence the tables).
        self._cache: dict[str, np.ndarray] = {}
        self.table = np.zeros((depth, width), dtype=float)

    # --------------------------------------------------------------- hashing
    def _batch_buckets(self, keys: np.ndarray) -> np.ndarray:
        cached = self._cache.get("buckets")
        if cached is not None:
            return cached[:, keys]
        return self._bucket_hashes.buckets(keys, self.width)

    def _batch_signs(self, keys: np.ndarray) -> np.ndarray:
        cached = self._cache.get("signs")
        if cached is not None:
            return cached[:, keys]
        return self._sign_hashes.signs(keys)

    def _hash_pair(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(buckets, signs) for a batch, with adaptive densification.

        Small universes whose cumulative lazily-hashed key count reaches
        ``n`` switch to cached dense tables: from then on the one-off
        densification cost is amortized and gathers replace hashing (~10x
        on long streams).  Purely a speed policy — the returned values are
        identical either way; the cache (and the counter) is shared with
        every ``empty_copy`` clone, so streaming sites warm it together.
        """
        check_coordinate_range(keys, self.n)
        if "buckets" not in self._cache and self.n <= _DENSE_CACHE_MAX:
            lazy = self._cache.get("lazy_keys", 0) + keys.size
            self._cache["lazy_keys"] = lazy
            if lazy >= self.n:
                self._ensure_dense_cache()
        return self._batch_buckets(keys), self._batch_signs(keys)

    def _ensure_dense_cache(self) -> None:
        if "buckets" in self._cache:
            return
        if self.n > _DENSE_CACHE_MAX:
            raise ValueError(
                f"dense hash tables over a universe of {self.n} keys exceed "
                f"the cache bound {_DENSE_CACHE_MAX}; use the batched update/"
                f"query APIs instead"
            )
        keys = np.arange(self.n)
        self._cache["buckets"] = self._bucket_hashes.buckets(keys, self.width)
        self._cache["signs"] = self._sign_hashes.signs(keys)

    @property
    def bucket_of(self) -> np.ndarray:
        """Dense ``(depth, n)`` bucket table (materialized on first access).

        Kept for inspection and backward compatibility; the update/query
        paths evaluate hashes lazily and never require it.  Raises for
        universes past the dense-cache bound.
        """
        self._ensure_dense_cache()
        return self._cache["buckets"]

    @property
    def sign_of(self) -> np.ndarray:
        """Dense ``(depth, n)`` sign table (see :attr:`bucket_of`)."""
        self._ensure_dense_cache()
        return self._cache["signs"]

    # ----------------------------------------------------------------- build
    def update(self, index: int, delta: float = 1.0) -> None:
        """Add ``delta`` to coordinate ``index``."""
        self._require_scalar_table()
        keys = np.array([index], dtype=np.int64)
        buckets, signs = self._hash_pair(keys)
        # Direct indexed add: one element per row, no width-sized scatter.
        self.table[np.arange(self.depth), buckets[:, 0]] += signs[:, 0] * delta

    def update_many(self, indices: np.ndarray, deltas: np.ndarray | None = None) -> None:
        """Batched :meth:`update`: add ``deltas[t]`` at ``indices[t]`` for all ``t``.

        Vectorized over the updates: one lazy hash evaluation of the batch
        and one fused flattened ``np.bincount`` covering every sketch row
        (:mod:`repro.sketch.kernels`); with ``deltas`` omitted every listed
        coordinate is incremented by one.  Matrix-shaped ``deltas`` (one
        row-vector per index) switch the table to vector-valued counters;
        scalar and vector updates cannot mix.  Dimensionality is taken
        literally: a column vector of shape ``(len(indices), 1)`` means
        vector counters of dimension 1, not scalar updates — flatten to 1-D
        for the scalar path.  Accumulation is exact (order-independent) for
        integer-valued deltas within the float64-exact ``2^53`` range, the
        invariant every engine and streaming path maintains.
        """
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        if deltas is None:
            deltas = np.ones(indices.shape[0])
        else:
            deltas = np.asarray(deltas, dtype=float)
            if deltas.ndim == 0:  # a bare scalar pairs with a single index
                deltas = deltas.reshape(1)
            if deltas.ndim > 2:
                raise ValueError(f"deltas must be 1- or 2-dimensional, got {deltas.ndim}")
            if deltas.shape[0] != indices.shape[0]:
                raise ValueError("indices and deltas must have matching length")
        if indices.size == 0:
            # A no-op payload must not switch the table's counter shape.
            return
        buckets, signs = self._hash_pair(indices)
        if deltas.ndim == 2:
            self._require_vector_table(deltas.shape[1])
            scatter_add_vector(self.table, buckets, signs, deltas)
            return
        if self.table.ndim != 2:
            raise ValueError(
                "this table holds vector-valued counters; deltas must be "
                "matrix-shaped (len(indices), value_dim), not scalars"
            )
        scatter_add_scalar(self.table, buckets, signs, deltas)

    def _require_vector_table(self, value_dim: int) -> None:
        """Widen an untouched scalar table to vector-valued counters."""
        if self.table.ndim == 3:
            if self.table.shape[2] != value_dim:
                raise ValueError(
                    f"vector updates of dimension {value_dim} do not match "
                    f"counters of dimension {self.table.shape[2]}"
                )
            return
        if np.any(self.table):
            raise ValueError(
                "cannot apply vector-valued updates to a table already "
                "holding scalar updates"
            )
        self.table = np.zeros((self.depth, self.width, value_dim), dtype=float)

    def merge(self, other: "CountSketch") -> "CountSketch":
        """Entrywise-combine ``other``'s table into this one; returns self."""
        check_mergeable(self, other)
        check_same_randomness(
            self._bucket_hashes.coeffs, other._bucket_hashes.coeffs, "bucket hashes"
        )
        check_same_randomness(
            self._sign_hashes.coeffs, other._sign_hashes.coeffs, "sign hashes"
        )
        if self.table.shape != other.table.shape:
            # An untouched scalar table adopts the other side's vector-valued
            # shape (mirrors the empty-state adoption of the linear sketches).
            if other.table.ndim == 3 and self.table.ndim == 2 and not np.any(self.table):
                self.table = other.table.copy()
                return self
            if self.table.ndim == 3 and other.table.ndim == 2 and not np.any(other.table):
                return self
            raise ValueError(
                f"cannot merge tables of shape {other.table.shape} into {self.table.shape}"
            )
        self.table += other.table
        return self

    def empty_copy(self) -> "CountSketch":
        """A fresh sketch sharing this one's hash functions, with a zero table."""
        clone = copy.copy(self)
        clone.table = np.zeros((self.depth, self.width), dtype=float)
        return clone

    def state_array(self) -> np.ndarray:
        """The counter table (never ``None``: an empty table is all zeros)."""
        return self.table

    def load_state_array(self, state: np.ndarray | None) -> None:
        """Install a (deserialized) table; ``None`` resets to all zeros."""
        if state is None:
            # Reset to the historical empty shape (2-D zeros).
            self.table = np.zeros((self.depth, self.width), dtype=float)
            return
        state = np.asarray(state, dtype=float)
        if state.ndim not in (2, 3) or state.shape[:2] != (self.depth, self.width):
            raise ValueError(
                f"table of shape {state.shape} does not fit a "
                f"({self.depth}, {self.width}) sketch"
            )
        self.table = state

    def build_from_vector(self, x: np.ndarray) -> None:
        """Populate the sketch from a dense frequency vector.

        Streams the universe through the lazy hash kernel in bounded-memory
        chunks; starting from a zeroed table the chunked bincounts reproduce
        the historical sequential scatter bit for bit (adding to zero is
        exact), for float inputs included.
        """
        self._require_scalar_table()
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.n:
            raise ValueError(f"vector has length {x.shape[0]}, expected {self.n}")
        self.table[:] = 0.0
        if self.n <= _DENSE_CACHE_MAX:
            # Building from a dense vector hashes the full universe anyway;
            # keep the tables for the next full-universe operation.
            self._ensure_dense_cache()
        for start in range(0, self.n, _CHUNK):
            keys = np.arange(start, min(start + _CHUNK, self.n))
            scatter_add_scalar(
                self.table, self._batch_buckets(keys), self._batch_signs(keys), x[keys]
            )

    # ----------------------------------------------------------------- query
    def _require_scalar_table(self) -> None:
        if self.table.ndim != 2:
            raise ValueError(
                "this table holds vector-valued counters; use query_rows()"
            )

    def query(self, index: int) -> float:
        """Estimate coordinate ``index`` of the underlying vector."""
        self._require_scalar_table()
        keys = np.array([index], dtype=np.int64)
        check_coordinate_range(keys, self.n)
        buckets = self._batch_buckets(keys)[:, 0]
        signs = self._batch_signs(keys)[:, 0]
        estimates = signs * self.table[np.arange(self.depth), buckets]
        return float(np.median(estimates))

    def query_all(self) -> np.ndarray:
        """Estimate every coordinate (length ``n`` vector).

        Small universes hash once into the dense cache; larger ones stream
        in chunks (the output itself is ``O(n)`` either way).
        """
        self._require_scalar_table()
        if self.n <= _DENSE_CACHE_MAX:
            self._ensure_dense_cache()
        out = np.empty(self.n)
        rows = np.arange(self.depth)[:, None]
        for start in range(0, self.n, _CHUNK):
            keys = np.arange(start, min(start + _CHUNK, self.n))
            estimates = self._batch_signs(keys) * self.table[rows, self._batch_buckets(keys)]
            out[keys] = np.median(estimates, axis=0)
        return out

    def _key_blocks(self) -> Iterator[np.ndarray]:
        """Blocks of keys for a full-universe query of a vector-valued table.

        Each block holds ``_CHUNK // (depth * m)`` keys, so a per-block
        temporary of ``depth x keys x m`` entries stays within ``_CHUNK``
        whatever the row width ``m`` (a zero-width table counts as ``m = 1``).
        Small universes hash once into the dense cache first.
        """
        if self.table.ndim != 3:
            raise ValueError("this table holds scalar counters; use query_all()")
        if self.n <= _DENSE_CACHE_MAX:
            self._ensure_dense_cache()
        step = max(1, _CHUNK // (self.depth * max(1, self.table.shape[2])))
        return (
            np.arange(start, min(start + step, self.n))
            for start in range(0, self.n, step)
        )

    def query_rows(self) -> np.ndarray:
        """Estimate every row-vector of a vector-valued table (``n x m``).

        Row ``i``'s estimate is the entrywise median over the ``depth``
        repetitions of ``sign_r(i) * table[r, bucket_r(i), :]`` — the classic
        point query applied coordinate by coordinate.  This is the reference
        that :meth:`heavy_entries` reproduces byte for byte.
        """
        blocks = self._key_blocks()
        out = np.empty((self.n, self.table.shape[2]))
        rows = np.arange(self.depth)[:, None]
        # The per-key median does not depend on the blocking.
        for keys in blocks:
            estimates = (
                self._batch_signs(keys)[:, :, None]
                * self.table[rows, self._batch_buckets(keys)]
            )
            out[keys] = np.median(estimates, axis=0)
        return out

    def heavy_entries(self, threshold: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The entries of :meth:`query_rows` whose square is at least ``threshold``.

        Returns ``(rows, cols, estimates)``: byte for byte
        ``np.nonzero(query_rows() ** 2 >= threshold)`` and the estimates
        there, in row-major order.  A median of ``depth`` values squares to
        at least ``threshold > 0`` only if ``ceil(depth / 2)`` of the values
        do: every value beyond the middle is at least as large in magnitude,
        and a rounded square grows with ``|v|``.  Each value is
        ``±table[r, bucket_r(i), j]``, so one boolean table counts every
        entry's qualifying repetitions, and only entries with enough of them
        get the exact median and the exact test.  A threshold of zero or
        less screens out nothing.
        """
        blocks = self._key_blocks()
        rows = np.arange(self.depth)[:, None]
        qualifies = self.table**2 >= threshold
        votes_dtype = np.min_scalar_type(self.depth)
        found = []
        for keys in blocks:
            buckets = self._batch_buckets(keys)
            votes = qualifies[rows, buckets].sum(axis=0, dtype=votes_dtype)
            cand_i, cand_j = np.nonzero(votes >= (self.depth + 1) // 2)
            values = (
                self._batch_signs(keys[cand_i])
                * self.table[rows, buckets[:, cand_i], cand_j]
            )
            estimates = np.median(values, axis=0)
            keep = estimates**2 >= threshold
            found.append((keys[cand_i[keep]], cand_j[keep], estimates[keep]))
        return tuple(np.concatenate(part) for part in zip(*found))

    def heavy_hitters(self, threshold: float) -> list[tuple[int, float]]:
        """All coordinates whose estimate is at least ``threshold``."""
        estimates = self.query_all()
        hits = np.flatnonzero(estimates >= threshold)
        return [(int(i), float(estimates[i])) for i in hits]
