"""Query dispatch shared by the two-party and k-site estimator facades.

:class:`EstimatorBase` maps every query (``lp_norm``, ``join_size``,
``l0_sample``, ``heavy_hitters``, ...) to the engine protocol that answers
it, deriving one independent seed per query from a common stream.  The
concrete facades only say *where the data lives*:

* :class:`repro.core.api.MatrixProductEstimator` holds Alice's and Bob's
  matrices and executes protocols in the two-party view.
* :class:`ClusterEstimator` (below) holds k row-shards plus the
  coordinator's matrix and executes the same protocols over the k-site
  star (or an aggregation tree); every query returns a
  :class:`repro.comm.protocol.ProtocolResult` whose cost is a
  :class:`repro.engine.base.ClusterCostReport` (total bits, rounds,
  per-site and per-link loads).

Because both facades share this dispatch (including the seed-stream
discipline), equal seeds produce comparable runs across topologies, and a
query supported in one topology is automatically supported in the other.

Example
-------
>>> import numpy as np
>>> from repro import ClusterEstimator
>>> rng = np.random.default_rng(0)
>>> a = (rng.uniform(size=(64, 64)) < 0.1).astype(int)
>>> b = (rng.uniform(size=(64, 64)) < 0.1).astype(int)
>>> cluster = ClusterEstimator.from_matrix(a, b, num_sites=4, seed=0)
>>> result = cluster.lp_norm(p=0, epsilon=0.3)
>>> result.value > 0
True
>>> result.cost.rounds
2
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.comm.conditions import NetworkConditions
from repro.comm.protocol import ProtocolResult
from repro.comm.transport import Transport
from repro.engine.base import StarProtocol
from repro.engine.runtime import Runtime
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
from repro.engine.lp_norm import StarLpNormProtocol
from repro.engine.topology import check_finite, coerce_shards

__all__ = ["ClusterEstimator", "EstimatorBase", "is_binary_data"]


def is_binary_data(*arrays: np.ndarray) -> bool:
    """True iff every array is entrywise 0/1 (drives protocol selection)."""
    return all(bool(np.all((array == 0) | (array == 1))) for array in arrays)


class EstimatorBase:
    """Statistics of ``C = A B`` behind a topology-specific ``_run`` hook.

    Subclasses set :attr:`is_binary` during construction and implement
    :meth:`_run`, which executes an engine protocol against their data in
    their topology.

    Every facade accepts an optional :class:`repro.engine.runtime.Runtime`
    (per-site executor + dropout policy),
    :class:`repro.comm.conditions.NetworkConditions` (per-link timing
    models + dropped sites) and :class:`repro.comm.transport.Transport`
    (who carries the star network — in-process simulation or real
    sockets); all are forwarded to every query's protocol run.  The
    defaults — serial execution over ideal in-process links — reproduce
    the historical transcripts bit for bit.
    """

    #: Whether every input matrix is 0/1 (drives protocol selection).
    is_binary: bool = False

    def __init__(
        self,
        *,
        seed: int | None = None,
        runtime: "Runtime | None" = None,
        conditions: "NetworkConditions | None" = None,
        transport: "Transport | None" = None,
        tree=None,
    ) -> None:
        self.seed = seed
        self.runtime = runtime
        self.conditions = conditions
        self.transport = transport
        #: Optional aggregation-tree overlay (a ``TreeSpec`` or an integer
        #: fan-out) forwarded to every query's protocol run by facades that
        #: support hierarchical topologies.  Estimates are bit-identical to
        #: the flat star; only routing, metering and makespan change.
        self.tree = tree
        self._seed_stream = np.random.default_rng(seed)

    def _next_seed(self) -> int:
        return int(self._seed_stream.integers(0, 2**31 - 1))

    def _run(self, protocol: StarProtocol) -> ProtocolResult:
        raise NotImplementedError

    # ------------------------------------------------------------------ lp
    def lp_norm(self, p: float, epsilon: float = 0.25, **kwargs) -> ProtocolResult:
        """(1 + eps)-approximation of ``||A B||_p^p`` for ``p in [0, 2]`` (Thm 3.1)."""
        return self._run(StarLpNormProtocol(p, epsilon, seed=self._next_seed(), **kwargs))

    def join_size(self, epsilon: float = 0.25, **kwargs) -> ProtocolResult:
        """Set-intersection join size ``|A ∘ B| = ||A B||_0`` (p = 0)."""
        return self.lp_norm(0.0, epsilon, **kwargs)

    def natural_join_size(self, **kwargs) -> ProtocolResult:
        """Exact natural-join size ``|A ⋈ B| = ||A B||_1`` (Remark 2)."""
        return self._run(StarExactL1Protocol(seed=self._next_seed(), **kwargs))

    # ------------------------------------------------------------- sampling
    def l0_sample(self, epsilon: float = 0.25, **kwargs) -> ProtocolResult:
        """Uniform sample from the non-zero entries of ``A B`` (Thm 3.2)."""
        return self._run(StarL0SamplingProtocol(epsilon, seed=self._next_seed(), **kwargs))

    def l1_sample(self) -> ProtocolResult:
        """Sample an entry of ``A B`` proportionally to its value (Remark 3)."""
        return self._run(StarL1SamplingProtocol(seed=self._next_seed()))

    # ----------------------------------------------------------------- linf
    def linf(self, epsilon: float = 0.25, **kwargs) -> ProtocolResult:
        """(2 + eps)-approximation of ``||A B||_inf`` for binary inputs (Thm 4.1)."""
        if not self.is_binary:
            raise ValueError(
                "the (2+eps) protocol needs binary matrices; use linf_kappa(...) "
                "with general integer matrices"
            )
        return self._run(
            StarTwoPlusEpsilonLinfProtocol(epsilon, seed=self._next_seed(), **kwargs)
        )

    def linf_kappa(self, kappa: float, **kwargs) -> ProtocolResult:
        """kappa-approximation of ``||A B||_inf`` (Thm 4.3 binary / Thm 4.8 general)."""
        seed = self._next_seed()
        if self.is_binary:
            protocol: StarProtocol = StarKappaApproxLinfProtocol(kappa, seed=seed, **kwargs)
        else:
            protocol = StarGeneralMatrixLinfProtocol(kappa, seed=seed, **kwargs)
        return self._run(protocol)

    # -------------------------------------------------------- heavy hitters
    def heavy_hitters(
        self, phi: float, epsilon: float, *, p: float = 1.0, **kwargs
    ) -> ProtocolResult:
        """``l_p``-(phi, eps) heavy hitters of ``A B`` (Thm 5.1 / Thm 5.3).

        Binary inputs use the cheaper binary protocol automatically.
        """
        seed = self._next_seed()
        if self.is_binary:
            protocol: StarProtocol = StarBinaryHeavyHittersProtocol(
                phi, epsilon, p=p, seed=seed, **kwargs
            )
        else:
            protocol = StarHeavyHittersProtocol(phi, epsilon, p=p, seed=seed, **kwargs)
        return self._run(protocol)


class ClusterEstimator(EstimatorBase):
    """Distributed statistics of ``C = A B`` with ``A`` sharded over k sites.

    Parameters
    ----------
    shards:
        The k sites' row-blocks of ``A``, in global row order (``A`` is their
        vertical concatenation).
    b:
        The coordinator's matrix, with ``b.shape[0]`` equal to the shards'
        common column count.
    seed:
        Base seed; each query derives an independent stream from it, in the
        same way as ``MatrixProductEstimator`` so that runs with equal seeds
        are comparable.
    runtime:
        Optional :class:`repro.engine.runtime.Runtime` selecting the
        per-site executor (``serial``/``threads``) and the dropout and
        quorum policies; forwarded to every query.
    conditions:
        Optional :class:`repro.comm.conditions.NetworkConditions` — per-link
        latency/bandwidth models (adds a simulated ``makespan`` to every
        cost report) and dropped-site declarations.
    transport:
        Optional :class:`repro.comm.transport.Transport` deciding who
        carries the star network.  The default is the in-process simulated
        star; the service layer's socket transport makes every metered
        message travel over a real TCP connection instead (see
        :meth:`serve` / :mod:`repro.service`).
    tree:
        Optional aggregation-tree overlay: a :class:`repro.comm.tree
        .TreeSpec` whose leaves are this cluster's site names, or an
        integer fan-out (balanced tree).  Queries route through interior
        aggregators that partially merge their children's summaries —
        estimates stay bit-identical to the flat star, while the root's
        fan-in drops from k to the fan-out (see ``details["tree"]`` and
        the tree makespan model).
    """

    def __init__(
        self,
        shards: Sequence[np.ndarray],
        b: np.ndarray,
        *,
        seed: int | None = None,
        runtime=None,
        conditions=None,
        transport=None,
        tree=None,
    ) -> None:
        super().__init__(
            seed=seed,
            runtime=runtime,
            conditions=conditions,
            transport=transport,
            tree=tree,
        )
        shards = coerce_shards(shards)
        b = np.asarray(b)
        if b.ndim != 2:
            raise ValueError("b must be a 2-dimensional matrix")
        if shards[0].shape[1] != b.shape[0]:
            raise ValueError(
                f"inner dimensions differ: shard {shards[0].shape} vs B {b.shape}"
            )
        for shard in shards:
            check_finite(shard, "A")
        check_finite(b, "B")
        self.shards = shards
        self.b = b
        self.is_binary = is_binary_data(*shards, b)

    @classmethod
    def from_matrix(
        cls,
        a: np.ndarray,
        b: np.ndarray,
        num_sites: int,
        *,
        seed: int | None = None,
        runtime=None,
        conditions=None,
        transport=None,
        tree=None,
    ) -> "ClusterEstimator":
        """Shard the rows of ``a`` evenly across ``num_sites`` sites."""
        a = np.asarray(a)
        if a.ndim != 2:
            raise ValueError("a must be a 2-dimensional matrix")
        if not 1 <= num_sites <= a.shape[0]:
            raise ValueError(
                f"num_sites must be in [1, {a.shape[0]}], got {num_sites}"
            )
        return cls(
            np.array_split(a, num_sites, axis=0),
            b,
            seed=seed,
            runtime=runtime,
            conditions=conditions,
            transport=transport,
            tree=tree,
        )

    @property
    def num_sites(self) -> int:
        return len(self.shards)

    # ---------------------------------------------------------------- service
    def serve(self, *, host: str = "127.0.0.1", port: int = 0):
        """Stand this cluster up as a real TCP service.

        Returns a running :class:`repro.service.server.CoordinatorServer`
        holding this estimator's coordinator matrix, base seed and network
        conditions.  The server waits for ``num_sites`` site-agent
        processes (``repro-site`` / :class:`repro.service.client.SiteAgent`)
        to register their shards, then answers client queries
        (:func:`repro.service.client.connect`) by running the engine
        protocols over the live sockets — with estimates and simulated
        meters bit-identical to calling the queries on this object, and
        observed wire bytes counted per link per round.

        This estimator's in-memory shards define the *expected* cluster
        shape only; the data the protocols run on is what the sites upload.
        """
        from repro.service.server import CoordinatorServer

        server = CoordinatorServer(
            self.b,
            num_sites=self.num_sites,
            expected_row_counts=[shard.shape[0] for shard in self.shards],
            seed=self.seed,
            conditions=self.conditions,
            host=host,
            port=port,
            tree=self.tree,
        )
        server.start()
        return server

    @staticmethod
    def connect(host: str, port: int, **kwargs):
        """Open a client proxy to a served cluster; see
        :func:`repro.service.client.connect`."""
        from repro.service.client import connect

        return connect(host, port, **kwargs)

    def _run(self, protocol: StarProtocol) -> ProtocolResult:
        return protocol.run(
            self.shards,
            self.b,
            runtime=self.runtime,
            conditions=self.conditions,
            transport=self.transport,
            tree=self.tree,
        )

    # -------------------------------------------------------------- streaming
    def stream(self, *, preload: bool = False, **kwargs):
        """Open a :class:`repro.engine.streaming.StreamingSession` over this
        cluster's topology.

        The session keeps this cluster's row partition, coordinator matrix
        and base seed, but its shards start *empty* and grow by batched
        turnstile ingestion (``ingest``) over epochs; sites ship serialized
        sketch deltas metered in real encoded bytes, and the coordinator
        serves live estimates between syncs.  One-shot queries on the
        session use the same per-query seed stream as this facade, so a
        session that has ingested exactly this cluster's shards answers them
        bit-for-bit identically — the migration path for one-shot users.

        With ``preload=True`` the cluster's current shards are ingested and
        synced as an initial epoch (``session.history[0]``, epoch 1), so
        live estimates are warm from the start.
        Keyword arguments (``refresh``, ``threshold``, ``monitor_epsilon``,
        ``sketch_mode="hash"`` for monitoring sketches whose construction
        cost is independent of the row count — the session's dense per-site
        shards still scale with it, ...) pass through to the session
        constructor.
        """
        from repro.engine.streaming import StreamingSession

        kwargs.setdefault("runtime", self.runtime)
        kwargs.setdefault("conditions", self.conditions)
        kwargs.setdefault("transport", self.transport)
        kwargs.setdefault("tree", self.tree)
        session = StreamingSession(
            [shard.shape[0] for shard in self.shards],
            self.b,
            seed=self.seed,
            **kwargs,
        )
        if preload:
            for index, shard in enumerate(self.shards):
                site = session.sites[index]
                # Shards pass through uncast so ingest's integer-delta guard
                # fires on non-integral data instead of silently truncating.
                session.ingest(
                    index, site.row_offset + np.arange(shard.shape[0]), shard
                )
            session.sync()
        return session
