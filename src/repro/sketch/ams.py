"""AMS (Alon–Matias–Szegedy) sketch for the squared Euclidean norm.

The AMS sketch multiplies a vector by a random ``k x n`` sign matrix; the
mean of the squared sketch coordinates is an unbiased estimator of
``||x||_2^2``, and with ``k = O(1/eps^2)`` rows the estimate is within a
``(1 +/- eps)`` factor with constant probability.  A median-of-means variant
is provided for boosting the success probability.

Two randomness modes:

``mode="dense"`` (default)
    The classic explicit sign matrix drawn i.i.d. from the generator —
    byte-compatible with every transcript recorded before the kernel layer
    existed (the draws and the update arithmetic are unchanged).

``mode="hash"``
    Signs come from bit-sliced 4-wise independent hashes evaluated lazily
    per update batch (:class:`repro.sketch.kernels.BitSignHash`: one
    Mersenne-61 Horner evaluation per key yields 61 sign rows at once), so
    construction costs ``O(num_rows)`` memory and time independent of ``n``
    — the mode to use for universes of ``2^30`` and beyond.  Each row is a
    4-wise independent sign family, exactly what the AMS variance analysis
    requires; the two modes draw different randomness and are not mergeable
    with each other.
"""

from __future__ import annotations

import numpy as np

from repro.sketch.kernels import BitSignHash
from repro.sketch.mergeable import LinearStateMixin

#: Keys hashed per chunk when applying a hash-mode sketch to a dense vector.
_CHUNK = 1 << 20

#: ``matrix`` materialization bound for hash-mode sketches (inspection only).
_DENSE_MATERIALIZE_MAX = 1 << 22


class AmsSketch(LinearStateMixin):
    """AMS / F2 sketch of dimension ``num_rows x n``.

    Besides the pure linear-map interface (:meth:`apply` + estimators), the
    sketch is a :class:`repro.sketch.mergeable.MergeableSketch`: sites
    accumulate ``S x`` into ``state`` via batched ``update_many`` calls and a
    coordinator combines the per-site states entrywise with ``merge``.

    Parameters
    ----------
    n:
        Input dimension.
    num_rows:
        Number of sketch rows.  ``O(1/eps^2)`` rows give a ``(1 +/- eps)``
        approximation of ``||x||_2^2`` with constant probability.
    rng:
        Shared randomness (both parties construct the identical sketch).
    num_groups:
        If > 1, rows are split into that many groups and the estimator
        returns the median of the per-group means (median-of-means).
    mode:
        ``"dense"`` (explicit sign matrix, historical randomness) or
        ``"hash"`` (lazy 4-wise hash signs, universe-independent memory).
    """

    def __init__(
        self,
        n: int,
        num_rows: int,
        rng: np.random.Generator,
        *,
        num_groups: int = 1,
        mode: str = "dense",
    ) -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if num_rows < 1:
            raise ValueError(f"num_rows must be >= 1, got {num_rows}")
        if num_groups < 1 or num_groups > num_rows:
            raise ValueError("num_groups must be in [1, num_rows]")
        if mode not in ("dense", "hash"):
            raise ValueError(f"mode must be 'dense' or 'hash', got {mode!r}")
        self.n = n
        self.num_rows = num_rows
        self.num_groups = num_groups
        self.mode = mode
        if mode == "dense":
            self.matrix = rng.choice(np.array([-1.0, 1.0]), size=(num_rows, n))
            self._sign_hashes = None
        else:
            self._sign_hashes = BitSignHash(num_rows, rng)

    @classmethod
    def for_accuracy(
        cls,
        n: int,
        epsilon: float,
        rng: np.random.Generator,
        *,
        rows_per_group: int | None = None,
        mode: str = "dense",
    ) -> "AmsSketch":
        """Construct a sketch sized for a ``(1 +/- epsilon)`` F2 estimate."""
        if not 0 < epsilon <= 1:
            raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
        if rows_per_group is None:
            rows_per_group = max(8, int(np.ceil(6.0 / epsilon**2)))
        return cls(n, rows_per_group, rng, mode=mode)

    # ---------------------------------------------------------- linear image
    def _batch_signs(self, indices: np.ndarray) -> np.ndarray:
        """Float sign block ``(num_rows, batch)`` for a batch of coordinates."""
        if self.mode == "dense":
            return self.matrix[:, indices]
        return self._sign_hashes.signs(indices)

    def _contributions(self, indices, values, bounds):
        """One sign block for the whole batch, then one product per group."""
        signs = self._batch_signs(indices)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            yield signs[:, lo:hi] @ values[lo:hi]

    def _randomness_fingerprints(self):
        if self.mode == "dense":
            return [("sketch matrices", self.matrix)]
        return [("sign hashes", self._sign_hashes.coeffs)]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Compute the sketch ``S x`` of a vector (or ``S X`` of a matrix)."""
        x = np.asarray(x, dtype=float)
        if self.mode == "dense":
            return self.matrix @ x
        out = np.zeros((self.num_rows,) + x.shape[1:])
        for start in range(0, self.n, _CHUNK):
            keys = np.arange(start, min(start + _CHUNK, self.n))
            out += self._batch_signs(keys) @ x[keys]
        return out

    @property
    def dense_matrix(self) -> np.ndarray:
        """The explicit sign matrix (materialized on demand in hash mode)."""
        if self.mode == "dense":
            return self.matrix
        if self.n > _DENSE_MATERIALIZE_MAX:
            raise ValueError(
                f"refusing to materialize a {self.num_rows} x {self.n} sign "
                f"matrix; use apply()/update_many(), which stay lazy"
            )
        return self._batch_signs(np.arange(self.n))

    # ------------------------------------------------------------ estimators
    def estimate_state_f2(self) -> float:
        """Estimate ``||x||_2^2`` from the accumulated (possibly merged) state."""
        if self.state is None:
            return 0.0
        if self.state.ndim != 1:
            raise ValueError(
                "state is matrix-shaped (one sketch per input column); use "
                "estimate_f2_columns(self.state) for per-column estimates"
            )
        return self.estimate_f2(self.state)

    def _grouped_median_of_means(self, squares: np.ndarray) -> np.ndarray:
        """Median over groups of per-group means, along axis 0.

        One reshape + ``mean(axis=1)`` when the rows split evenly (the
        common case — bit-identical to the historical per-group
        ``np.mean``); a ``reduceat`` pipeline for ragged splits.  Works for
        1-D (scalar estimate) and 2-D (per-column) ``squares`` alike.
        """
        if self.num_rows % self.num_groups == 0:
            grouped = squares.reshape(
                (self.num_groups, self.num_rows // self.num_groups) + squares.shape[1:]
            )
            return np.median(grouped.mean(axis=1), axis=0)
        # Ragged split: same group sizes as np.array_split (first
        # ``num_rows % num_groups`` groups get one extra row).
        quotient, remainder = divmod(self.num_rows, self.num_groups)
        sizes = np.full(self.num_groups, quotient, dtype=np.int64)
        sizes[:remainder] += 1
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        sums = np.add.reduceat(squares, starts, axis=0)
        shape = (self.num_groups,) + (1,) * (squares.ndim - 1)
        return np.median(sums / sizes.reshape(shape), axis=0)

    def estimate_f2(self, sketched: np.ndarray) -> float:
        """Estimate ``||x||_2^2`` from a sketch vector ``S x``."""
        sketched = np.asarray(sketched, dtype=float)
        if sketched.shape[0] != self.num_rows:
            raise ValueError(
                f"sketch has {sketched.shape[0]} rows, expected {self.num_rows}"
            )
        squares = sketched**2
        if self.num_groups == 1:
            return float(np.mean(squares))
        return float(self._grouped_median_of_means(squares))

    def estimate_f2_columns(self, sketched: np.ndarray) -> np.ndarray:
        """Estimate ``||x_j||_2^2`` for every column of a sketched matrix."""
        sketched = np.asarray(sketched, dtype=float)
        squares = sketched**2
        if self.num_groups == 1:
            return np.mean(squares, axis=0)
        return self._grouped_median_of_means(squares)
