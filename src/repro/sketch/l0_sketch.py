"""Linear distinct-elements (``l_0``) sketch.

The classic streaming ``l_0`` estimators (KNW, HyperLogLog) are not linear
maps, but Algorithm 1 needs a *linear* sketch so that Alice can obtain
sketches of the rows of ``C = A B`` from ``S B^T`` alone.  We therefore use
the standard linear construction behind dynamic (turnstile) ``l_0``
estimation:

* ``L = ceil(log2 n) + 1`` subsampling levels; level ``g`` keeps each
  coordinate independently with probability ``2^-g`` (level 0 keeps all).
* Within a level, surviving coordinates are hashed into ``k`` buckets and
  multiplied by a random non-zero coefficient; the bucket stores the sum.
* A bucket is *occupied* iff its value is non-zero.  For non-negative inputs
  (intersection counts are non-negative) occupancy is exact; for general
  integer inputs a random coefficient makes accidental cancellation unlikely.
* The estimator finds a level whose occupancy is informative (not saturated)
  and inverts the balls-in-bins occupancy formula:
  ``distinct ~= k * ln(k / (k - t)) / 2^-g`` where ``t`` is the number of
  occupied buckets at level ``g``.

With ``k = O(1/eps^2)`` buckets per level this yields a ``(1 +/- eps)``
estimate with constant probability, matching Lemma 2.1 for ``p = 0``.

The sketch matrix is never materialized: updates scatter straight through
the fused level-expansion kernels (:mod:`repro.sketch.kernels`), so memory
is ``O(n)`` per-coordinate randomness in the default (``"dense"``,
historically byte-compatible) mode and ``O(1)`` in ``mode="hash"``, where
priorities,
buckets and coefficients all come from lazy pairwise-independent hashes and
the universe can be ``2^30`` and beyond.
"""

from __future__ import annotations

import math

import numpy as np

from repro.sketch.kernels import (
    StackedKWiseHash,
    bincount_rows,
    count_alive_levels,
    expand_levels,
    joint_values,
)
from repro.sketch.hashing import PRIME_61
from repro.sketch.mergeable import LinearStateMixin

#: Random coefficients are drawn from [1, COEFF_BOUND); keeps int64 exact.
COEFF_BOUND = 1 << 20

#: ``matrix`` materialization bound (inspection/tests only).
_DENSE_MATERIALIZE_MAX = 1 << 24


class L0Sketch(LinearStateMixin):
    """Layered-subsampling linear sketch for counting non-zero entries.

    The sketch is a :class:`repro.sketch.mergeable.MergeableSketch`: sites
    accumulate partial images ``S[:, idx] @ values`` into ``state`` via
    batched ``update_many`` calls and a coordinator combines the per-site
    states entrywise with ``merge`` (the updates are integer, so merging is
    exact).

    Parameters
    ----------
    n:
        Input dimension.
    buckets_per_level:
        Number of hash buckets per subsampling level (``k``).
    rng:
        Shared randomness.
    mode:
        ``"dense"`` (default): per-coordinate priorities/buckets/
        coefficients drawn from ``rng`` exactly as before the kernel layer —
        ``O(n)`` memory, byte-compatible transcripts.  ``"hash"``: the same
        quantities derived from lazy pairwise-independent hashes — memory
        independent of ``n``.
    """

    #: Norm parameter, for interface parity with :class:`LpSketch`.
    p = 0.0

    def __init__(
        self,
        n: int,
        buckets_per_level: int,
        rng: np.random.Generator,
        *,
        mode: str = "dense",
    ) -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if buckets_per_level < 2:
            raise ValueError(f"buckets_per_level must be >= 2, got {buckets_per_level}")
        if mode not in ("dense", "hash"):
            raise ValueError(f"mode must be 'dense' or 'hash', got {mode!r}")
        self.n = n
        self.k = int(buckets_per_level)
        self.levels = int(math.ceil(math.log2(max(n, 2)))) + 1
        self.num_rows = self.levels * self.k
        self.mode = mode
        self._thresholds = 2.0 ** (-np.arange(self.levels))

        if mode == "dense":
            # Level membership: coordinate j survives at level g iff
            # priority[j] < 2^-g, with a single uniform priority per
            # coordinate so the levels are nested (standard construction).
            # Draw order matches the historical dense constructor exactly.
            self._priorities = rng.uniform(0.0, 1.0, size=n)
            self._buckets = rng.integers(0, self.k, size=n)
            self._coefficients = rng.integers(1, COEFF_BOUND, size=n, dtype=np.int64)
            self._alive_counts = count_alive_levels(self._priorities, self._thresholds)
            self._priority_hash = self._bucket_hash = self._coeff_hash = None
        else:
            self._priority_hash = StackedKWiseHash(2, 1, rng)
            self._bucket_hash = StackedKWiseHash(2, 1, rng)
            self._coeff_hash = StackedKWiseHash(2, 1, rng)
            self._priorities = self._buckets = self._coefficients = None
            self._alive_counts = None

    @classmethod
    def for_accuracy(
        cls, n: int, epsilon: float, rng: np.random.Generator, *, mode: str = "dense"
    ) -> "L0Sketch":
        """Construct a sketch sized for a ``(1 +/- epsilon)`` estimate."""
        if not 0 < epsilon <= 1:
            raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
        buckets = max(16, int(np.ceil(8.0 / epsilon**2)))
        return cls(n, buckets, rng, mode=mode)

    # ------------------------------------------------------------ randomness
    def _coordinate_randomness(
        self, indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(alive level counts, buckets, coefficients) for a batch."""
        if self.mode == "dense":
            return (
                self._alive_counts[indices],
                self._buckets[indices],
                self._coefficients[indices],
            )
        priority, bucket, coefficient = joint_values(
            (self._priority_hash, self._bucket_hash, self._coeff_hash), indices
        )
        counts = count_alive_levels(priority / PRIME_61, self._thresholds)
        buckets = (bucket % np.uint64(self.k)).astype(np.int64)
        coefficients = 1 + (coefficient % np.uint64(COEFF_BOUND - 1)).astype(np.int64)
        return counts, buckets, coefficients

    def _randomness_fingerprints(self):
        if self.mode == "dense":
            return [
                ("level priorities", self._priorities),
                ("bucket assignments", self._buckets),
                ("bucket coefficients", self._coefficients),
            ]
        return [
            ("priority hashes", self._priority_hash.coeffs),
            ("bucket hashes", self._bucket_hash.coeffs),
            ("coefficient hashes", self._coeff_hash.coeffs),
        ]

    @property
    def matrix(self) -> np.ndarray:
        """The dense sketch matrix, materialized on demand (inspection only).

        The update/apply paths never build it; reconstruction reproduces the
        historical dense layout exactly.
        """
        if self.num_rows * self.n > _DENSE_MATERIALIZE_MAX:
            raise ValueError(
                f"refusing to materialize a {self.num_rows} x {self.n} sketch "
                f"matrix; use update_many()/apply(), which stay lazy"
            )
        keys = np.arange(self.n)
        counts, buckets, coefficients = self._coordinate_randomness(keys)
        matrix = np.zeros((self.num_rows, self.n), dtype=np.int64)
        take, level = expand_levels(counts)
        matrix[level * self.k + buckets[take], keys[take]] = coefficients[take]
        return matrix

    # ------------------------------------------------------------------ api
    def _contributions(self, indices, values, bounds):
        """Fused scatters ``S[:, group] @ values[group]`` without ``S``.

        The randomness and the level expansion run once for the batch; the
        expanded cells stay in batch order, so each group's cells are one
        slice, scattered into that group's own state.  Exact
        (order-independent) for integer values within the float64-exact
        ``2^53`` range; integer inputs keep the historical int64 state
        dtype.
        """
        counts, buckets, coefficients = self._coordinate_randomness(indices)
        take, level = expand_levels(counts)
        rows = level * self.k + buckets[take]
        exact = bool(np.issubdtype(values.dtype, np.integer))
        if values.ndim == 1:
            weights = coefficients[take] * values[take]
        else:
            weights = coefficients[take, None] * values[take]
        edges = np.concatenate(([0], np.cumsum(counts)))[np.asarray(bounds)]
        for lo, hi in zip(edges[:-1], edges[1:]):
            yield bincount_rows(
                rows[lo:hi], weights[lo:hi], self.num_rows, exact_int=exact
            )

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Compute ``S x``; inputs should be integer-valued for exactness."""
        x = np.asarray(x)
        if np.issubdtype(x.dtype, np.integer):
            x = x.astype(np.int64)
        return next(self._contributions(np.arange(self.n), x, (0, self.n)))

    def estimate_state_l0(self) -> float:
        """Estimate ``||x||_0`` from the accumulated (possibly merged) state."""
        if self.state is None:
            return 0.0
        if self.state.ndim != 1:
            raise ValueError(
                "state is matrix-shaped (one sketch per input column); use "
                "estimate_rows_pp(self.state.T) for per-column estimates"
            )
        return self.estimate_l0(self.state)

    def estimate_l0(self, sketched: np.ndarray) -> float:
        """Estimate the number of non-zero coordinates from ``S x``."""
        sketched = np.asarray(sketched)
        if sketched.shape[0] != self.num_rows:
            raise ValueError(
                f"sketch has {sketched.shape[0]} rows, expected {self.num_rows}"
            )
        per_level = sketched.reshape(self.levels, self.k)
        occupied = np.count_nonzero(self._nonzero(per_level), axis=1)
        return self._estimate_from_occupancy(occupied)

    def estimate_rows_pp(self, sketched_rows: np.ndarray) -> np.ndarray:
        """Estimate ``||x_i||_0`` for every row of a row-wise sketched matrix.

        ``sketched_rows`` has shape ``(m, num_rows)``; row ``i`` is ``S x_i``.
        """
        sketched_rows = np.asarray(sketched_rows)
        if sketched_rows.ndim != 2 or sketched_rows.shape[1] != self.num_rows:
            raise ValueError(
                f"expected shape (m, {self.num_rows}), got {sketched_rows.shape}"
            )
        per_level = sketched_rows.reshape(sketched_rows.shape[0], self.levels, self.k)
        occupied = np.count_nonzero(self._nonzero(per_level), axis=2)
        return self._estimates_from_occupancies(occupied)

    # alias so LpSketch/L0Sketch can be used interchangeably where the p-th
    # power of the norm is wanted (for p = 0 they coincide).
    estimate_norm_pp = estimate_l0

    def estimate_norm(self, sketched: np.ndarray) -> float:
        """Alias of :meth:`estimate_l0` (``||x||_0`` is its own p-th root)."""
        return self.estimate_l0(sketched)

    # ------------------------------------------------------------- internal
    @staticmethod
    def _nonzero(values: np.ndarray) -> np.ndarray:
        if np.issubdtype(values.dtype, np.floating):
            return np.abs(values) > 1e-9
        return values != 0

    def _estimate_from_occupancy(self, occupied: np.ndarray) -> float:
        """Invert bucket occupancy into a distinct-count estimate."""
        return float(self._estimates_from_occupancies(np.asarray(occupied)[None, :])[0])

    def _estimates_from_occupancies(self, occupied: np.ndarray) -> np.ndarray:
        """Row-batched occupancy inversion, shape ``(m, levels) -> (m,)``.

        Per row, the first level whose occupancy ``t`` is at or below the
        saturation point decides the estimate (0 when ``t = 0`` — levels are
        nested, so every deeper level is empty too).  Rows saturated at every
        level fall back to the deepest level's (biased) estimate, clamped
        below saturation.
        """
        saturation = 0.75 * self.k
        informative = occupied <= saturation
        has_level = informative.any(axis=1)
        level = np.argmax(informative, axis=1)  # first informative level
        # Saturated-everywhere rows: deepest level, occupancy clamped.
        level[~has_level] = self.levels - 1
        t = np.where(
            has_level,
            occupied[np.arange(occupied.shape[0]), level],
            np.minimum(occupied[:, -1], int(saturation)),
        ).astype(float)
        estimates = self.k * np.log(self.k / (self.k - t)) / self._thresholds[level]
        return np.where(t == 0, 0.0, estimates)
