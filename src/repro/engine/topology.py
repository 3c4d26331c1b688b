"""Endpoints and wiring of the coordinator topology the engine runs on.

A :class:`StarTopology` bundles everything a protocol execution needs: the
metered :class:`repro.comm.network.Network`, one :class:`Site` per shard,
the :class:`Coordinator`, and the seeded randomness (one shared public-coin
stream plus independent private streams per endpoint, spawned from a single
root so runs with equal seeds are comparable across topologies).  The
network routes over the flat star, or over an aggregation tree when
:meth:`StarTopology.build` is given one; sites and coordinator are the same
either way, because aggregators are part of the network, not endpoints.

The two-party model is the single-site special case: ``StarTopology.build``
with one shard named ``"alice"`` and the hub named ``"bob"`` reproduces the
classic Alice/Bob channel — same seeding order, same round semantics, same
per-message accounting — which is how the :mod:`repro.core` facades execute
the engine protocols.

Shared (public-coin) randomness is modelled exactly as before the
unification: the protocol driver derives one seed and every endpoint
constructs identical helper objects (sketches) from it.  Broadcasting the
seed itself is never charged — the protocols are public-coin, and by
Newman's theorem privatizing the coins costs only an additive ``O(log n)``
bits per site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from repro.comm.conditions import NetworkConditions
from repro.comm.network import Network
from repro.comm.transport import IN_PROCESS, Transport
from repro.comm.tree import TreeSpec
from repro.sketch.mergeable import MergeableSketch


def shard_partial_summaries(
    rows: np.ndarray, shard: Any, templates: Sequence[MergeableSketch]
) -> list[MergeableSketch]:
    """One shard's partial summaries under shared sketch ``templates``.

    The engine's only per-row update route, and a picklable module-level
    function so :meth:`repro.engine.runtime.Runtime.map` can fan it out
    across sites under any executor: each summary is built with one batched
    :meth:`~repro.sketch.mergeable.MergeableSketch.update_many` call over
    the whole shard (global row indexing), never row by row.
    """
    # int64 shards pass through without a universe-sized copy; sketches
    # only read the values.
    values = np.asarray(shard).astype(np.int64, copy=False)
    partials = []
    for template in templates:
        partial = template.empty_copy()
        partial.update_many(rows, values)
        partials.append(partial)
    return partials


def coerce_shards(shards: Sequence[Any]) -> list[np.ndarray]:
    """Validate and normalize a list of row-shards."""
    shards = [np.asarray(shard) for shard in shards]
    if not shards:
        raise ValueError("need at least one site shard")
    for shard in shards:
        if shard.ndim != 2:
            raise ValueError("every shard must be a 2-dimensional matrix")
    if len({shard.shape[1] for shard in shards}) != 1:
        raise ValueError("all shards must agree on the inner dimension")
    return shards


def check_finite(matrix: np.ndarray, name: str) -> None:
    """Raise ``ValueError`` if ``matrix`` holds a NaN or an infinity.

    The sketches and products would turn either into NaN or into a silent
    wrong estimate.  Integer and boolean matrices hold neither, so only
    float dtypes pay for the scan.
    """
    if matrix.dtype.kind in "fc" and not np.isfinite(matrix).all():
        raise ValueError(f"{name} has NaN or infinite entries")


class Site:
    """One leaf of the star, holding a row-shard of the global matrix.

    Parameters
    ----------
    name:
        Endpoint name (must be one of the network's site names).
    shard:
        The site's local block of rows of the global matrix ``A``.
    network:
        The shared star network.
    row_offset:
        Index of the shard's first row in the global row numbering, so the
        site can report global coordinates.
    rng:
        The site's private randomness.
    """

    def __init__(
        self,
        name: str,
        shard: Any,
        network: Network,
        *,
        row_offset: int = 0,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.name = name
        self.data = shard
        self.network = network
        self.row_offset = int(row_offset)
        self.rng = rng if rng is not None else np.random.default_rng()
        self.scratch: dict[str, Any] = {}

    @property
    def rows(self) -> np.ndarray:
        """Global row indices covered by this site's shard."""
        return self.row_offset + np.arange(np.asarray(self.data).shape[0])

    def send(
        self,
        payload: Any,
        *,
        label: str = "",
        bits: int | None = None,
        universe: int | None = None,
    ) -> Any:
        """Send ``payload`` upstream to the coordinator."""
        return self.network.send(
            self.name,
            self.network.coordinator_name,
            payload,
            label=label,
            bits=bits,
            universe=universe,
        )

    @property
    def bits_sent(self) -> int:
        """Total bits this site has sent so far."""
        return self.network.bits_sent_by(self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Site({self.name!r}, rows {self.row_offset}+{np.asarray(self.data).shape[0]})"


class Coordinator:
    """The hub of the star, holding the matrix ``B``."""

    def __init__(
        self,
        data: Any,
        network: Network,
        *,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.name = network.coordinator_name
        self.data = data
        self.network = network
        self.rng = rng if rng is not None else np.random.default_rng()
        self.scratch: dict[str, Any] = {}

    def send(
        self,
        site: Site | str,
        payload: Any,
        *,
        label: str = "",
        bits: int | None = None,
        universe: int | None = None,
    ) -> Any:
        """Send ``payload`` downstream to one site."""
        receiver = site.name if isinstance(site, Site) else site
        return self.network.send(
            self.name, receiver, payload, label=label, bits=bits, universe=universe
        )

    def broadcast(
        self,
        payload: Any,
        *,
        label: str = "",
        bits: int | None = None,
        sites: Iterable[Site | str] | None = None,
    ) -> Any:
        """Send the same ``payload`` to every site (``bits`` charged per link)."""
        names = None if sites is None else [s.name if isinstance(s, Site) else s for s in sites]
        return self.network.broadcast(payload, label=label, bits=bits, sites=names)

    @property
    def bits_sent(self) -> int:
        """Total bits the coordinator has sent so far (all links)."""
        return self.network.bits_sent_by(self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Coordinator({self.name!r})"


@dataclass
class StarTopology:
    """A fully wired star: network, endpoints, and seeded randomness."""

    network: Network
    sites: list[Site]
    coordinator: Coordinator
    shared_rng: np.random.Generator

    @property
    def num_sites(self) -> int:
        return len(self.sites)

    @classmethod
    def build(
        cls,
        shards: Sequence[Any],
        coordinator_data: Any,
        *,
        seed: int | None = None,
        site_names: Sequence[str] | None = None,
        coordinator_name: str = "coordinator",
        conditions: NetworkConditions | None = None,
        transport: Transport | None = None,
        tree: "TreeSpec | int | None" = None,
    ) -> "StarTopology":
        """Wire ``k = len(shards)`` sites around the coordinator.

        The seeding discipline is load-bearing: the root generator first
        yields the shared (public-coin) seed, then spawns ``k + 1`` private
        streams — sites in shard order, the coordinator last.  For ``k = 1``
        this reproduces the historical two-party driver exactly (alice =
        site stream, bob = coordinator stream), which keeps pre-unification
        transcripts bit-for-bit intact.  The tree shape draws nothing, so
        equal seeds give equal site/coordinator randomness across *every*
        shape — the load-bearing fact behind the tree bit-identity pins.

        ``conditions`` (per-link latency/bandwidth models) only affect the
        network's simulated makespan, never the transcript itself.

        ``transport`` picks who builds (and therefore carries) the network
        — default :data:`repro.comm.transport.IN_PROCESS`; the service
        layer passes a socket-backed transport instead.  ``tree`` (a
        :class:`~repro.comm.tree.TreeSpec` or an integer fan-out) routes it
        through aggregators (see :class:`repro.comm.network.Network`).
        """
        shards = coerce_shards(shards)
        k = len(shards)
        if site_names is None:
            site_names = [f"site-{i}" for i in range(k)]
        if len(site_names) != k:
            raise ValueError(f"got {len(site_names)} site names for {k} shards")
        if transport is None:
            transport = IN_PROCESS
        network = transport.build_network(
            site_names,
            coordinator_name,
            conditions,
            tree=normalize_tree(tree, site_names, coordinator_name),
        )
        root = np.random.default_rng(seed)
        shared_seed = int(root.integers(0, 2**63 - 1))
        rngs = root.spawn(k + 1)
        offsets = np.concatenate(([0], np.cumsum([s.shape[0] for s in shards])[:-1]))
        sites = [
            Site(site_names[i], shards[i], network, row_offset=int(offsets[i]), rng=rngs[i])
            for i in range(k)
        ]
        coordinator = Coordinator(coordinator_data, network, rng=rngs[-1])
        return cls(
            network=network,
            sites=sites,
            coordinator=coordinator,
            shared_rng=np.random.default_rng(shared_seed),
        )


def normalize_tree(
    tree: "TreeSpec | int | None",
    site_names: Sequence[str],
    coordinator_name: str = "coordinator",
) -> TreeSpec | None:
    """Coerce the public ``tree=`` argument into a spec.

    Accepts a full :class:`~repro.comm.tree.TreeSpec`, an integer fan-out
    (sugar for :meth:`TreeSpec.regular`), or ``None`` (flat star).  The
    network the spec is handed to checks that it matches the sites.
    """
    if isinstance(tree, int):
        return TreeSpec.regular(site_names, tree, root=coordinator_name)
    return tree
