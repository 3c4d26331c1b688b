"""Topology-agnostic protocol engine.

One implementation per protocol family, parameterized by the number of
sites k.  The paper's two-party protocols are exactly the ``k = 1`` special
case (Alice is the single site, Bob the coordinator), which is how the
facades in :mod:`repro.core` run them; :class:`ClusterEstimator` runs the
same bodies over a wider star.

Layout
------
``repro.engine.topology``
    :class:`Site` / :class:`Coordinator` endpoints and the
    :class:`StarTopology` wiring (network + endpoints + seeded randomness),
    over the flat star or an aggregation tree.
``repro.engine.base``
    The :class:`StarProtocol` driver (``run`` for k shards,
    ``run_two_party`` for the Alice/Bob view) and the cost reports.
``repro.engine.lp_norm`` / ``l0_sampling`` / ``l1`` / ``linf`` /
``heavy_hitters``
    The protocol families (Algorithms 1-4, Remarks 2-3, Theorems 3.2, 4.1,
    4.3, 4.8, 5.1, 5.3 — all lifted to k sites).
``repro.engine.exchange``
    The star per-item index-exchange primitive shared by the ``l_inf`` and
    binary heavy-hitter protocols.
``repro.engine.api``
    :class:`EstimatorBase`, the query dispatch shared by
    :class:`repro.core.api.MatrixProductEstimator` and the k-site
    :class:`ClusterEstimator` facade.
``repro.engine.runtime``
    :class:`Runtime`, the message-passing execution layer: pluggable
    per-site executors (``serial``/``threads``/``processes``) with a
    serial-equivalence guarantee, plus the dropout policies applied when
    network conditions declare sites dropped.
``repro.engine.streaming``
    :class:`StreamingSession`, the continuous-monitoring runtime: batched
    turnstile ingestion over epochs, serialized sketch deltas metered in
    real wire bytes, configurable refresh policies, and live estimates
    between syncs.
"""

from repro.engine.api import ClusterEstimator
from repro.engine.base import ClusterCostReport, StarProtocol
from repro.engine.heavy_hitters import (
    StarBinaryHeavyHittersProtocol,
    StarHeavyHittersProtocol,
)
from repro.engine.l0_sampling import StarL0SamplingProtocol
from repro.engine.l1 import StarExactL1Protocol, StarL1SamplingProtocol
from repro.engine.linf import (
    StarGeneralMatrixLinfProtocol,
    StarKappaApproxLinfProtocol,
    StarTwoPlusEpsilonLinfProtocol,
)
from repro.engine.lp_norm import StarLpNormProtocol, star_lp_pp_estimate
from repro.engine.robust import Adversary, FaultPlan, RobustPolicy
from repro.engine.runtime import QuorumPolicy, Runtime, SiteDroppedError
from repro.engine.streaming import EpochReport, StreamingSession
from repro.engine.topology import (
    Coordinator,
    Site,
    StarTopology,
    coerce_shards,
    normalize_tree,
)

__all__ = [
    "Adversary",
    "ClusterCostReport",
    "ClusterEstimator",
    "EpochReport",
    "FaultPlan",
    "QuorumPolicy",
    "RobustPolicy",
    "Runtime",
    "SiteDroppedError",
    "StreamingSession",
    "Coordinator",
    "Site",
    "StarProtocol",
    "StarTopology",
    "StarBinaryHeavyHittersProtocol",
    "StarExactL1Protocol",
    "StarGeneralMatrixLinfProtocol",
    "StarHeavyHittersProtocol",
    "StarKappaApproxLinfProtocol",
    "StarL0SamplingProtocol",
    "StarL1SamplingProtocol",
    "StarLpNormProtocol",
    "StarTwoPlusEpsilonLinfProtocol",
    "coerce_shards",
    "normalize_tree",
    "star_lp_pp_estimate",
]
