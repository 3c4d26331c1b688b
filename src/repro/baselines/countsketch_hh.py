"""CountSketch / compressed-matrix-multiplication heavy-hitter baseline.

Pagh's compressed matrix multiplication [32] computes a CountSketch of the
*product* ``C = A B`` from CountSketches of the factors: writing
``C = sum_k A_{*,k} B_{k,*}``, the CountSketch of the outer product
``A_{*,k} B_{k,*}`` with the pair hash ``h(i,j) = (h_A(i) + h_B(j)) mod w``
and sign ``s(i,j) = s_A(i) s_B(j)`` is the circular convolution of the
CountSketch of ``A_{*,k}`` (under ``h_A, s_A``) with the CountSketch of
``B_{k,*}`` (under ``h_B, s_B``).

Distributed, this means Alice ships one width-``w`` sketch per shared item
``k`` — ``Theta(n w) = Theta(n / eps^2)`` numbers in one round — and Bob
finishes locally.  The paper's related-work section points out exactly this
cost, which is what the Section 5 protocols beat; this module implements the
baseline so the comparison can be run.
"""

from __future__ import annotations

import numpy as np

from repro.comm import bitcost
from repro.core.facade import EngineBackedProtocol, TwoPartyStarProtocol
from repro.core.result import HeavyHitterOutput
from repro.engine.topology import Coordinator, Site
from repro.sketch.kernels import StackedKWiseHash


class StarCompressedMatMulHeavyHittersProtocol(TwoPartyStarProtocol):
    """Engine body of :class:`CompressedMatMulHeavyHittersProtocol` (two-party only)."""

    name = "countsketch-compressed-matmul"

    def __init__(
        self,
        phi: float,
        epsilon: float,
        *,
        width: int | None = None,
        depth: int = 3,
        seed: int | None = None,
    ) -> None:
        super().__init__(seed=seed)
        if not 0 < epsilon <= phi <= 1:
            raise ValueError(f"need 0 < eps <= phi <= 1, got eps={epsilon}, phi={phi}")
        self.phi = float(phi)
        self.epsilon = float(epsilon)
        self.width = int(width) if width is not None else max(8, int(np.ceil(8.0 / epsilon)))
        self.depth = int(depth)

    def _execute_two_party(self, alice: Site, bob: Coordinator):
        a = np.asarray(alice.data, dtype=float)
        b = np.asarray(bob.data, dtype=float)
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"inner dimensions differ: {a.shape} vs {b.shape}")
        n_rows, n_items = a.shape
        n_cols = b.shape[1]

        # Shared hash functions (public coins): same draw order and values as
        # the historical per-repetition KWiseHash members, evaluated in one
        # stacked pass (repro.sketch.kernels).
        row_keys = np.arange(n_rows)
        col_keys = np.arange(n_cols)
        row_buckets = StackedKWiseHash(2, self.depth, self.shared_rng).buckets(
            row_keys, self.width
        )
        col_buckets = StackedKWiseHash(2, self.depth, self.shared_rng).buckets(
            col_keys, self.width
        )
        row_signs = StackedKWiseHash(4, self.depth, self.shared_rng).signs(row_keys)
        col_signs = StackedKWiseHash(4, self.depth, self.shared_rng).signs(col_keys)

        # Alice ships, per item k and repetition d, the CountSketch of A_{*,k}.
        # One fused bincount per repetition over the flattened (bucket, item)
        # grid replaces the historical per-item scatter loop; accumulation is
        # exact for the integer-valued inputs this baseline runs on.
        alice_sketches = np.zeros((self.depth, n_items, self.width))
        item_ids = np.arange(n_items)
        for rep in range(self.depth):
            signed = a * row_signs[rep][:, None]
            bins = (row_buckets[rep][:, None] * n_items + item_ids[None, :]).ravel()
            binned = np.bincount(
                bins, weights=signed.ravel(), minlength=self.width * n_items
            )
            alice_sketches[rep] = binned.reshape(self.width, n_items).T
        alice.send(
            alice_sketches,
            label="per-item-countsketches",
            bits=bitcost.bits_for_matrix(alice_sketches),
        )

        # Bob convolves with his per-item sketches and sums over items.
        product_sketch = np.zeros((self.depth, self.width))
        for rep in range(self.depth):
            signed_b = b * col_signs[rep][None, :]
            bins = (item_ids[:, None] * self.width + col_buckets[rep][None, :]).ravel()
            bob_sketches = np.bincount(
                bins, weights=signed_b.ravel(), minlength=n_items * self.width
            ).reshape(n_items, self.width)
            fa = np.fft.rfft(alice_sketches[rep], axis=1)
            fb = np.fft.rfft(bob_sketches, axis=1)
            conv = np.fft.irfft(fa * fb, n=self.width, axis=1)
            product_sketch[rep] = conv.sum(axis=0)

        # Bob knows ||C||_1 exactly for non-negative inputs (row/col sums);
        # he received Alice's column sums implicitly via the sketches'
        # construction cost being dominated anyway, so charge them explicitly.
        column_sums = a.sum(axis=0)
        alice.send(
            column_sums,
            label="column-sums",
            bits=n_items * bitcost.bits_for_int(int(max(column_sums.max(), 1))),
        )
        total_l1 = float(column_sums @ b.sum(axis=1))
        if total_l1 <= 0:
            return HeavyHitterOutput(), {"total_l1": 0.0}

        threshold = (self.phi - self.epsilon / 2.0) * total_l1
        point_estimates = np.empty((self.depth, n_rows, n_cols))
        for rep in range(self.depth):
            pair_buckets = (row_buckets[rep][:, None] + col_buckets[rep][None, :]) % self.width
            pair_signs = row_signs[rep][:, None] * col_signs[rep][None, :]
            point_estimates[rep] = pair_signs * product_sketch[rep][pair_buckets]
        medians = np.median(point_estimates, axis=0)
        pairs = set()
        estimates: dict[tuple[int, int], float] = {}
        for i, j in zip(*np.nonzero(medians >= threshold)):
            pairs.add((int(i), int(j)))
            estimates[(int(i), int(j))] = float(medians[i, j])
        output = HeavyHitterOutput(pairs=pairs, estimates=estimates)
        return output, {"total_l1": total_l1, "width": self.width, "depth": self.depth}


class CompressedMatMulHeavyHittersProtocol(EngineBackedProtocol):
    """One-round CountSketch-of-``A B`` heavy hitters (the [32]-style baseline).

    Parameters
    ----------
    phi, epsilon:
        Heaviness threshold and slack with respect to ``||C||_1`` (this
        baseline targets ``p = 1``).
    width:
        CountSketch width per repetition; defaults to ``ceil(8/epsilon)``
        buckets which bounds the per-entry error by ``eps ||C||_1 / 8``.
    depth:
        Number of independent repetitions (median of estimates).
    """

    name = "countsketch-compressed-matmul"
    engine_protocol = StarCompressedMatMulHeavyHittersProtocol
