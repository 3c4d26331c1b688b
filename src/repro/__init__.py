"""repro — Distributed statistical estimation of matrix products.

Reference implementation of "Distributed Statistical Estimation of Matrix
Products with Applications" (Woodruff & Zhang, PODS 2018).

Two parties, Alice holding a matrix ``A`` and Bob holding a matrix ``B``,
estimate statistics of ``C = A B`` — ``l_p`` norms, the maximum entry, heavy
hitters, and support samples — while exchanging as few bits as possible.
Every protocol runs on an instrumented in-process network so the
communication cost (bits and rounds) is measured exactly.  The same
protocol bodies run in the k-site coordinator model (``ClusterEstimator``):
the rows of ``A`` sharded over k sites around a coordinator holding ``B``;
the two-party model is its one-site case.

Quick start
-----------
>>> import numpy as np
>>> from repro import MatrixProductEstimator
>>> rng = np.random.default_rng(7)
>>> a = (rng.uniform(size=(64, 64)) < 0.08).astype(int)
>>> b = (rng.uniform(size=(64, 64)) < 0.08).astype(int)
>>> estimator = MatrixProductEstimator(a, b, seed=7)
>>> join_size = estimator.join_size(epsilon=0.3)      # ||AB||_0, Theorem 3.1
>>> natural = estimator.natural_join_size()           # ||AB||_1, Remark 2
>>> heavy = estimator.heavy_hitters(phi=0.1, epsilon=0.05)

Package layout
--------------
``repro.core``
    The paper's protocols (Algorithms 1-4, Remarks 2-3, Theorems 3.2, 4.8, 5.3)
    as two-party facades, and the ``MatrixProductEstimator`` entry point.
``repro.engine``
    The one protocol driver (``StarProtocol``): every protocol body written
    once for k sites around a coordinator, the ``ClusterEstimator`` facade,
    streaming sessions, runtimes and aggregation trees.
``repro.comm``
    The metered star network (and tree overlay) the protocols run on.
``repro.service``
    The engine over real sockets: coordinator server, site agents, clients.
``repro.sketch``
    Linear sketches (AMS, p-stable, l0, l0-sampler, CountSketch, Count-Min).
``repro.matrices``
    Synthetic workload generators and exact ground-truth statistics.
``repro.baselines``
    The one-round sketching baseline of [16], naive exact protocols, and a
    CountSketch (compressed matrix multiplication) heavy-hitter baseline.
``repro.lowerbounds``
    Hard-instance generators and reductions behind the paper's lower bounds.
``repro.joins``
    Relational view: compositions (set-intersection joins) and natural joins.
``repro.distmm``
    Distributed sparse matrix product (Lemma 2.5 substitute).
``repro.experiments``
    Drivers that regenerate every experiment listed in EXPERIMENTS.md.
"""

from repro.comm.protocol import CostReport, ProtocolResult
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
from repro.engine.api import ClusterEstimator
from repro.engine.base import ClusterCostReport
from repro.engine.streaming import StreamingSession


def _load_version() -> str:
    """Single-source the version from pyproject.toml.

    A source checkout (``PYTHONPATH=src``) reads the adjacent
    ``pyproject.toml`` directly — preferred over installed-distribution
    metadata, which could belong to an older install of the same name.
    Installed packages have no adjacent pyproject and resolve through
    ``importlib.metadata``.
    """
    import pathlib
    import re

    pyproject = pathlib.Path(__file__).resolve().parents[2] / "pyproject.toml"
    if pyproject.is_file():
        match = re.search(
            r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), re.MULTILINE
        )
        if match:
            return match.group(1)

    from importlib import metadata

    try:
        return metadata.version("matrix-product-estimation")
    except metadata.PackageNotFoundError:
        return "0+unknown"


__version__ = _load_version()

__all__ = [
    "MatrixProductEstimator",
    "ClusterEstimator",
    "StreamingSession",
    "ProtocolResult",
    "CostReport",
    "ClusterCostReport",
    "LpNormProtocol",
    "ExactL1Protocol",
    "L1SamplingProtocol",
    "L0SamplingProtocol",
    "TwoPlusEpsilonLinfProtocol",
    "KappaApproxLinfProtocol",
    "GeneralMatrixLinfProtocol",
    "GeneralHeavyHittersProtocol",
    "BinaryHeavyHittersProtocol",
    "MedianBoostedProtocol",
    "HeavyHitterOutput",
    "SampleOutput",
    "__version__",
]
