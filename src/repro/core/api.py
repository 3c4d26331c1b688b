"""High-level facade over the paper's protocols.

:class:`MatrixProductEstimator` is the entry point most users want: it holds
Alice's and Bob's matrices, picks the right protocol for each query, and
returns :class:`repro.comm.protocol.ProtocolResult` objects that carry both
the estimate and the exact communication cost.  The query dispatch itself is
shared with the k-site :class:`repro.engine.api.ClusterEstimator`
via :class:`repro.engine.api.EstimatorBase`; this class only pins the data
to the two-party topology.

Example
-------
>>> import numpy as np
>>> from repro import MatrixProductEstimator
>>> rng = np.random.default_rng(0)
>>> a = (rng.uniform(size=(64, 64)) < 0.1).astype(int)
>>> b = (rng.uniform(size=(64, 64)) < 0.1).astype(int)
>>> est = MatrixProductEstimator(a, b, seed=0)
>>> result = est.lp_norm(p=0, epsilon=0.3)
>>> result.value > 0
True
"""

from __future__ import annotations

import numpy as np

from repro.comm.protocol import ProtocolResult
from repro.engine.api import ClusterEstimator, EstimatorBase, is_binary_data
from repro.engine.base import StarProtocol
from repro.engine.topology import check_finite


class MatrixProductEstimator(EstimatorBase):
    """Distributed statistics of ``C = A B`` between Alice (``A``) and Bob (``B``).

    Parameters
    ----------
    a, b:
        The two parties' matrices, with compatible inner dimensions.
    seed:
        Base seed; each query derives an independent stream from it.
    runtime, conditions:
        Optional execution runtime (executor choice) and per-link timing
        model, forwarded to every query (see
        :class:`repro.engine.api.EstimatorBase`).
    """

    def __init__(
        self,
        a: np.ndarray,
        b: np.ndarray,
        *,
        seed: int | None = None,
        runtime=None,
        conditions=None,
        transport=None,
    ) -> None:
        super().__init__(
            seed=seed, runtime=runtime, conditions=conditions, transport=transport
        )
        a = np.asarray(a)
        b = np.asarray(b)
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError("a and b must be 2-dimensional matrices")
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"inner dimensions differ: {a.shape} vs {b.shape}")
        check_finite(a, "A")
        check_finite(b, "B")
        self.a = a
        self.b = b
        self.is_binary = is_binary_data(a, b)

    def _run(self, protocol: StarProtocol) -> ProtocolResult:
        return protocol.run_two_party(
            self.a,
            self.b,
            runtime=self.runtime,
            conditions=self.conditions,
            transport=self.transport,
        )

    # ------------------------------------------------------------- scale-out
    def as_cluster(self, num_sites: int, *, seed: int | None = None):
        """Re-home this estimator in the k-site coordinator model.

        The rows of ``A`` are sharded evenly across ``num_sites`` sites and
        ``B`` moves to the coordinator; the returned
        :class:`repro.engine.api.ClusterEstimator` answers the same queries
        over the metered star network.  With ``num_sites=2`` the k-party
        runtime reduces to the two-party protocols.  This estimator's
        runtime and network conditions carry over (link models keyed by the
        two-party names will be rejected loudly by the wider star rather
        than silently ignored).
        """
        return ClusterEstimator.from_matrix(
            self.a,
            self.b,
            num_sites,
            seed=seed,
            runtime=self.runtime,
            conditions=self.conditions,
        )
