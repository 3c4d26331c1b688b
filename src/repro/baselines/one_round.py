"""The one-round ``O~(n/eps^2)`` baseline of [16] for ``||A B||_p``.

This is the "direct sketching" approach the paper improves on: Bob sends a
single ``l_p`` sketch of ``B^T`` with accuracy ``eps`` (``O~(1/eps^2)``
rows), Alice sketches every row of ``C`` and outputs the sum of the per-row
estimates.  One round, ``O~(n/eps^2)`` bits — a factor ``1/eps`` more than
Algorithm 1's two-round ``O~(n/eps)``.

The paper's Section 1.2 cites the ``Omega(n/eps^2)`` one-round lower bound
from [16] for ``p = 0``, so this baseline is essentially optimal among
one-round protocols; the benchmark in ``benchmarks/bench_e02_round_separation``
measures the crossover against Algorithm 1 empirically.
"""

from __future__ import annotations

import numpy as np

from repro.comm import bitcost
from repro.core.facade import EngineBackedProtocol, TwoPartyStarProtocol
from repro.engine.topology import Coordinator, Site
from repro.sketch.kernels import exact_matmul
from repro.sketch.lp_sketch import make_lp_sketch


class StarOneRoundLpNormProtocol(TwoPartyStarProtocol):
    """Engine body of :class:`OneRoundLpNormProtocol` (two-party only)."""

    name = "lp-norm-one-round-baseline"

    def __init__(self, p: float, epsilon: float, *, seed: int | None = None) -> None:
        super().__init__(seed=seed)
        if not 0 <= p <= 2:
            raise ValueError(f"p must be in [0, 2], got {p}")
        if not 0 < epsilon <= 1:
            raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
        self.p = float(p)
        self.epsilon = float(epsilon)

    def _execute_two_party(self, alice: Site, bob: Coordinator):
        a = np.asarray(alice.data)
        b = np.asarray(bob.data)
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"inner dimensions differ: {a.shape} vs {b.shape}")

        # Single message: a full-accuracy sketch of B^T (eps, not sqrt(eps)).
        sketch = make_lp_sketch(b.shape[1], self.p, self.epsilon, self.shared_rng)
        sketched_bt = sketch.apply(b.T)
        bob.send(
            alice,
            sketched_bt,
            label="sketch-of-B",
            bits=bitcost.bits_for_matrix(sketched_bt),
        )

        c_tilde = exact_matmul(a, sketched_bt.T)
        row_estimates = np.maximum(
            np.asarray(sketch.estimate_rows_pp(c_tilde), dtype=float), 0.0
        )
        estimate = float(np.sum(row_estimates))
        return estimate, {"sketch_rows": int(sketch.num_rows)}


class OneRoundLpNormProtocol(EngineBackedProtocol):
    """One-round (1 + eps)-approximation of ``||A B||_p^p`` (the [16] baseline)."""

    name = "lp-norm-one-round-baseline"
    engine_protocol = StarOneRoundLpNormProtocol
