"""Linear ``l_0``-sampler (Lemma 2.6 substitute).

Samples a (near-)uniform non-zero coordinate of an integer vector from a
small linear sketch.  Construction: ``L = ceil(log2 n) + 2`` subsampling
levels; at level ``g`` each coordinate survives with probability ``2^-g``.
For each level we keep three linear measurements of the surviving
sub-vector ``y``:

* ``s0 = sum_j y_j``
* ``s1 = sum_j j * y_j``
* ``f  = sum_j c_j * y_j`` for random coefficients ``c_j`` (a fingerprint)

If exactly one coordinate of ``y`` is non-zero, then ``j* = s1 / s0`` and the
fingerprint check ``f == c_{j*} * s0`` passes; if more than one coordinate is
non-zero the check fails with high probability.  The sampler scans levels for
a verified 1-sparse recovery; because level ``g ~ log2 ||x||_0`` leaves a
single survivor with constant probability, repeating the structure a few
times makes failure unlikely, and the returned coordinate is uniform over the
support (every non-zero coordinate is equally likely to be the unique
survivor).

Like the ``l_0`` sketch, the measurement matrix is never materialized.
A coordinate alive at ``c`` levels touches levels ``0..c-1``, so the
matrix's columns for a batch are a 0/1 alive indicator per (repetition,
level) times the per-coordinate weights ``1``, ``j + 1`` and ``c_j``.  An
update is two products of that indicator with the batch, covering every
repetition at once (:func:`~repro.sketch.kernels.exact_matmul`).  Their
int64 sums run in another order than the historical matmul's, but int64
arithmetic wraps mod ``2^64``, so the bytes are the same.  Recovery is
one vectorized scan over all ``(repetition, level)`` cells, and
``mode="hash"`` derives all per-coordinate randomness from lazy hashes so
the universe can be ``2^30`` and beyond.  Measurements accumulate in
int64 exactly like the historical dense matmul: exact while each
measurement fits, i.e. ``(index + 1) * |value| < 2^63`` for ``s1`` — past
that the fingerprint check rejects the (wrapped) cell rather than return a
wrong coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.sketch.hashing import PRIME_61
from repro.sketch.kernels import (
    StackedKWiseHash,
    count_alive_levels,
    exact_matmul,
    joint_values,
)
from repro.sketch.mergeable import LinearStateMixin

#: Fingerprint coefficients come from [1, COEFF_BOUND).
COEFF_BOUND = 1 << 20

#: ``matrix`` materialization bound (inspection/tests only).
_DENSE_MATERIALIZE_MAX = 1 << 24

#: Most alive-indicator entries (repetitions x levels x positions) one
#: update block materializes.
_INDICATOR_BLOCK = 1 << 22


@dataclass
class L0SampleOutcome:
    """Result of attempting a recovery from an ``l_0``-sampler sketch."""

    index: int | None
    value: int | None
    level: int | None

    @property
    def success(self) -> bool:
        return self.index is not None


class L0Sampler(LinearStateMixin):
    """Uniform sampler over the support of an integer vector.

    Like the other linear sketches, the sampler is mergeable: per-site
    partial images accumulated with ``update_many`` combine entrywise via
    ``merge`` into the sketch of the union of the shards.

    Parameters
    ----------
    n:
        Input dimension.
    repetitions:
        Number of independent copies of the level structure; the sampler
        succeeds if any copy recovers a verified 1-sparse level.
    rng:
        Shared randomness.
    mode:
        ``"dense"`` (default): per-coordinate priorities and fingerprint
        coefficients drawn from ``rng`` exactly as before the kernel layer.
        ``"hash"``: the same quantities from lazy pairwise-independent
        hashes — memory independent of ``n``.
    """

    def __init__(
        self,
        n: int,
        rng: np.random.Generator,
        *,
        repetitions: int = 8,
        mode: str = "dense",
    ) -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {repetitions}")
        if mode not in ("dense", "hash"):
            raise ValueError(f"mode must be 'dense' or 'hash', got {mode!r}")
        self.n = n
        self.repetitions = repetitions
        self.levels = int(math.ceil(math.log2(max(n, 2)))) + 2
        self.rows_per_level = 3
        self.num_rows = repetitions * self.levels * self.rows_per_level
        self.mode = mode
        self._thresholds = 2.0 ** (-np.arange(self.levels))

        if mode == "dense":
            # Historical draw order: per repetition, priorities then
            # fingerprint coefficients.
            priorities = np.empty((repetitions, n))
            coeffs = np.empty((repetitions, n), dtype=np.int64)
            for rep in range(repetitions):
                priorities[rep] = rng.uniform(0.0, 1.0, size=n)
                coeffs[rep] = rng.integers(1, COEFF_BOUND, size=n, dtype=np.int64)
            self._priorities = priorities
            self._fingerprint_coeffs = coeffs
            self._alive_counts = count_alive_levels(
                priorities.reshape(-1), self._thresholds
            ).reshape(repetitions, n)
            self._priority_hash = self._coeff_hash = None
        else:
            self._priority_hash = StackedKWiseHash(2, repetitions, rng)
            self._coeff_hash = StackedKWiseHash(2, repetitions, rng)
            self._priorities = self._fingerprint_coeffs = self._alive_counts = None

    # ------------------------------------------------------------ randomness
    def _batch_randomness(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(alive level counts, fingerprint coeffs), each ``(reps, batch)``."""
        if self.mode == "dense":
            return self._alive_counts[:, indices], self._fingerprint_coeffs[:, indices]
        hashed = joint_values((self._priority_hash, self._coeff_hash), indices)
        priorities = hashed[: self.repetitions] / PRIME_61
        counts = count_alive_levels(priorities.reshape(-1), self._thresholds).reshape(
            priorities.shape
        )
        coeffs = 1 + (
            hashed[self.repetitions :] % np.uint64(COEFF_BOUND - 1)
        ).astype(np.int64)
        return counts, coeffs

    def _randomness_fingerprints(self):
        if self.mode == "dense":
            return [
                ("level priorities", self._priorities),
                ("fingerprint coefficients", self._fingerprint_coeffs),
            ]
        return [
            ("priority hashes", self._priority_hash.coeffs),
            ("coefficient hashes", self._coeff_hash.coeffs),
        ]

    @property
    def matrix(self) -> np.ndarray:
        """The dense measurement matrix, materialized on demand (inspection).

        Reconstruction reproduces the historical dense layout exactly; the
        update/recovery paths never build it.
        """
        if self.num_rows * self.n > _DENSE_MATERIALIZE_MAX:
            raise ValueError(
                f"refusing to materialize a {self.num_rows} x {self.n} "
                f"measurement matrix; use update_many()/apply(), which stay lazy"
            )
        keys = np.arange(self.n, dtype=np.int64)
        counts, coeffs = self._batch_randomness(keys)
        # (reps, 3, n) measurement weights; +1 keeps s1 != 0 for j = 0.
        weights = np.stack(
            [np.ones_like(coeffs), np.broadcast_to(keys + 1, coeffs.shape), coeffs],
            axis=1,
        )
        alive = np.arange(self.levels)[None, :, None] < counts[:, None, :]
        matrix = np.where(alive[:, :, None, :], weights[:, None, :, :], 0)
        return matrix.reshape(self.num_rows, self.n)

    # ------------------------------------------------------------------ api
    def _contribution(self, indices: np.ndarray, values: np.ndarray) -> np.ndarray:
        """``T[:, indices] @ values`` without ``T``, as two indicator products.

        ``indicator[(rep, level), t]`` is 1 iff ``level < counts[rep, t]``.
        ``indicator @ [values | (indices + 1) * values]`` gives the ``s0``
        and ``s1`` rows, ``(indicator * coeffs) @ values`` the fingerprints.
        :func:`~repro.sketch.kernels.exact_matmul` is exact on its float
        route and wraps mod ``2^64`` on its int64 route, like the dense
        matmul.  Long batches are summed in blocks of ``_INDICATOR_BLOCK``.
        """
        counts, coeffs = self._batch_randomness(indices)
        dtype = np.int64 if np.issubdtype(values.dtype, np.integer) else np.float64
        values = values.astype(dtype, copy=False)
        batch, width = indices.shape[0], math.prod(values.shape[1:])
        columns = values.reshape(batch, width)
        shifted = (indices + 1)[:, None] * columns  # +1 keeps s1 != 0 for j = 0
        paired = np.concatenate([columns, shifted], axis=1)
        level = np.arange(self.levels)[:, None]
        out = np.zeros((self.repetitions * self.levels, 3, width), dtype=dtype)
        step = max(1, _INDICATOR_BLOCK // (self.repetitions * self.levels))
        for start in range(0, batch, step):
            block = slice(start, start + step)
            alive = level < counts[:, None, block]  # (reps, levels, block)
            indicator = alive.view(np.uint8).reshape(out.shape[0], -1)
            weighted = (alive * coeffs[:, None, block]).reshape(indicator.shape)
            out[:, :2] += exact_matmul(indicator, paired[block]).reshape(-1, 2, width)
            out[:, 2] += exact_matmul(weighted, columns[block])
        return out.reshape((self.num_rows,) + values.shape[1:])

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Compute the sampler sketch ``T x`` (integer inputs expected)."""
        x = np.asarray(x)
        if np.issubdtype(x.dtype, np.integer):
            x = x.astype(np.int64)
        return self._contribution(np.arange(self.n, dtype=np.int64), x)

    def sample(self, sketched: np.ndarray) -> L0SampleOutcome:
        """Recover a uniform non-zero coordinate from the sketch ``T x``.

        Fully vectorized: every ``(repetition, level)`` cell is decoded and
        verified at once, then the scan order of the historical loops —
        repetitions ascending, levels descending within a repetition — picks
        the first verified singleton.
        """
        sketched = np.asarray(sketched).reshape(-1)
        if sketched.shape[0] != self.num_rows:
            raise ValueError(
                f"sketch has {sketched.shape[0]} rows, expected {self.num_rows}"
            )
        if np.issubdtype(sketched.dtype, np.floating):
            cells = np.trunc(sketched).astype(np.int64)  # match int() truncation
        else:
            cells = sketched.astype(np.int64)
        per_rep = cells.reshape(self.repetitions, self.levels, self.rows_per_level)
        s0, s1, fingerprint = per_rep[..., 0], per_rep[..., 1], per_rep[..., 2]

        candidate = s0 != 0
        safe_s0 = np.where(candidate, s0, 1)
        candidate &= s1 % safe_s0 == 0
        index = s1 // safe_s0 - 1
        candidate &= (index >= 0) & (index < self.n)
        clipped = np.clip(index, 0, self.n - 1)
        expected = self._fingerprint_at(clipped) * s0
        candidate &= fingerprint == expected
        if not candidate.any():
            return L0SampleOutcome(index=None, value=None, level=None)
        # Scan order: repetition ascending, level descending — flip the
        # level axis so the first True in C order is the historical pick.
        flipped = candidate[:, ::-1]
        flat = int(np.argmax(flipped))
        rep, flipped_level = divmod(flat, self.levels)
        level = self.levels - 1 - flipped_level
        return L0SampleOutcome(
            index=int(index[rep, level]),
            value=int(s0[rep, level]),
            level=int(level),
        )

    def _fingerprint_at(self, indices: np.ndarray) -> np.ndarray:
        """Fingerprint coefficients ``c_rep(j)``, shape ``(reps, ...)``.

        ``indices`` has shape ``(reps, levels)``: entry ``[r, g]`` is looked
        up under repetition ``r``'s coefficients.
        """
        if self.mode == "dense":
            return np.take_along_axis(
                self._fingerprint_coeffs, indices.reshape(self.repetitions, -1), axis=1
            ).reshape(indices.shape)
        # Row-wise evaluation: repetition r's hash only touches its own
        # key block (values() would redundantly hash every block under
        # every repetition).
        own = self._coeff_hash.values_grid(indices)
        return 1 + (own % np.uint64(COEFF_BOUND - 1)).astype(np.int64)
