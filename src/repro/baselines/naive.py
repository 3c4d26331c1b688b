"""Naive baselines: ship the whole matrix, compute exactly.

These are the trivial protocols every theorem in the paper is measured
against — ``O(n^2)`` bits, one round, exact answers.  They serve two
purposes in the repo: as correctness oracles that still flow through the
metered channel, and as the ``n^2`` reference curve in the communication
benchmarks.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.comm import bitcost
from repro.core.facade import EngineBackedProtocol, TwoPartyStarProtocol
from repro.engine.topology import Coordinator, Site
from repro.matrices import stats


class StarNaiveExactProtocol(TwoPartyStarProtocol):
    """Engine body of :class:`NaiveExactProtocol` (two-party only)."""

    name = "naive-send-everything"

    def __init__(
        self,
        statistic: Callable[[np.ndarray], object],
        *,
        seed: int | None = None,
    ) -> None:
        super().__init__(seed=seed)
        self.statistic = statistic

    def _execute_two_party(self, alice: Site, bob: Coordinator):
        a = np.asarray(alice.data)
        b = np.asarray(bob.data)
        is_binary = bool(np.all((a == 0) | (a == 1)))
        per_entry = 1 if is_binary else bitcost.INT_ENTRY_BITS
        alice.send(
            a,
            label="full-matrix",
            bits=bitcost.bits_for_matrix(a, per_entry=per_entry),
        )
        c = stats.product(a, b)
        return self.statistic(c), {"product_nnz": int(np.count_nonzero(c))}


class NaiveExactProtocol(EngineBackedProtocol):
    """Alice ships ``A``; Bob computes any requested statistic exactly.

    Parameters
    ----------
    statistic:
        Function mapping the product ``C`` to the desired value, e.g.
        ``lambda c: repro.matrices.stats.exact_lp_pp(c, 0)``.
    """

    name = "naive-send-everything"
    engine_protocol = StarNaiveExactProtocol


class NaiveLinfProtocol(NaiveExactProtocol):
    """Exact ``||A B||_inf`` by shipping the whole matrix."""

    name = "naive-linf"

    def __init__(self, *, seed: int | None = None) -> None:
        super().__init__(stats.exact_linf, seed=seed)
