"""The paper's protocols: statistical estimation of ``C = A B`` between two parties.

Every protocol is a :class:`repro.core.facade.EngineBackedProtocol`: calling
``run(A, B)`` executes its engine implementation on the metered one-leaf star
(Alice the single site, Bob the hub) and returns a
:class:`repro.comm.protocol.ProtocolResult` with the estimate and the exact
communication cost (bits, rounds).
"""

from repro.core.api import MatrixProductEstimator
from repro.core.boosting import MedianBoostedProtocol
from repro.core.heavy_hitters_binary import BinaryHeavyHittersProtocol
from repro.core.heavy_hitters_general import GeneralHeavyHittersProtocol
from repro.core.l0_sampling import L0SamplingProtocol
from repro.core.l1_exact import ExactL1Protocol, L1SamplingProtocol
from repro.core.linf_binary import KappaApproxLinfProtocol, TwoPlusEpsilonLinfProtocol
from repro.core.linf_general import GeneralMatrixLinfProtocol
from repro.core.lp_norm import LpNormProtocol
from repro.core.result import HeavyHitterOutput, SampleOutput

__all__ = [
    "MatrixProductEstimator",
    "MedianBoostedProtocol",
    "BinaryHeavyHittersProtocol",
    "GeneralHeavyHittersProtocol",
    "L0SamplingProtocol",
    "ExactL1Protocol",
    "L1SamplingProtocol",
    "KappaApproxLinfProtocol",
    "TwoPlusEpsilonLinfProtocol",
    "GeneralMatrixLinfProtocol",
    "LpNormProtocol",
    "HeavyHitterOutput",
    "SampleOutput",
]
