"""The engine's protocol driver and its cost reports.

A :class:`StarProtocol` is one protocol family written once against
:class:`~repro.engine.topology.Coordinator` / ``Site`` endpoints and
parameterized by the number of sites k.  It can be executed two ways:

* :meth:`StarProtocol.run` — the k-site coordinator model.  Takes a list of
  row-shards plus the coordinator's matrix and reports a
  :class:`ClusterCostReport` (per-site, per-link and aggregate meters).
* :meth:`StarProtocol.run_two_party` — the paper's two-party model, i.e.
  the ``k = 1`` star with the single site named ``"alice"`` and the hub
  named ``"bob"``.  Reports a classic
  :class:`repro.comm.protocol.CostReport`.

Both views share one seeding discipline (see
:meth:`repro.engine.topology.StarTopology.build`), so a two-party run is
bit-for-bit the single-shard cluster run.

Both drivers accept an optional :class:`repro.engine.runtime.Runtime`
(per-site fan-out + dropout and quorum policies) and
:class:`repro.comm.conditions.NetworkConditions` (per-link timing models +
dropped sites).  The default runtime over ideal links reproduces every
historical transcript bit for bit; non-default conditions add a simulated
makespan to the cost report and may declare sites dropped, which the
runtime's dropout policy resolves (fail, or exclude-with-renormalization — see
:mod:`repro.engine.runtime`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.comm.conditions import NetworkConditions
from repro.comm.network import Network
from repro.comm.protocol import CostReport, ProtocolResult, split_protocol_output
from repro.comm.transport import Transport
from repro.comm.tree import TreeSpec
from repro.engine.runtime import SERIAL_RUNTIME, Runtime
from repro.engine.topology import Coordinator, Site, StarTopology, normalize_tree

__all__ = ["ClusterCostReport", "StarProtocol", "two_party_cost"]


@dataclass
class ClusterCostReport:
    """Communication cost of one k-party protocol execution.

    Mirrors :class:`repro.comm.protocol.CostReport` with the star-specific
    quantities: per-site upload volumes, per-link loads, and the busiest
    link.  ``max_link_bits`` alone does *not* bound the end-to-end time —
    latency and per-round synchronization do too — which is what the
    simulated ``makespan`` measures: the critical-path seconds over rounds
    under the network's :class:`~repro.comm.conditions.NetworkConditions`
    (fan-in serialized per receiver, the flat star included; see
    :meth:`repro.comm.network.Network.simulate`).  ``makespan_per_round``
    aligns with ``per_round`` (same 1-based round keys); both are zero
    under the default ideal links.
    """

    total_bits: int
    rounds: int
    coordinator_bits: int
    site_bits: dict[str, int] = field(default_factory=dict)
    link_bits: dict[str, int] = field(default_factory=dict)
    max_link_bits: int = 0
    breakdown: dict[str, int] = field(default_factory=dict)
    per_round: dict[int, int] = field(default_factory=dict)
    makespan: float = 0.0
    makespan_per_round: dict[int, float] = field(default_factory=dict)

    @classmethod
    def from_network(cls, network: Network) -> "ClusterCostReport":
        makespan, makespan_per_round = network.simulate()
        link_bits = network.link_bits()
        return cls(
            total_bits=network.total_bits,
            rounds=network.rounds,
            coordinator_bits=network.bits_sent_by(network.coordinator_name),
            site_bits={name: network.bits_sent_by(name) for name in network.site_names},
            link_bits=link_bits,
            max_link_bits=max(link_bits.values()),
            breakdown=network.bits_by_label(),
            per_round=network.bits_per_round(),
            makespan=makespan,
            makespan_per_round=makespan_per_round,
        )


def two_party_cost(network: Network, alice_name: str, bob_name: str) -> CostReport:
    """Collapse a one-leaf star's meters into a two-party cost report."""
    return CostReport(
        total_bits=network.total_bits,
        rounds=network.rounds,
        alice_bits=network.bits_sent_by(alice_name),
        bob_bits=network.bits_sent_by(bob_name),
        breakdown=network.bits_by_label(),
        makespan=network.simulate()[0],
    )


class StarProtocol:
    """Base driver for the engine's protocol families.

    Subclasses implement :meth:`_execute` on fully wired
    :class:`~repro.engine.topology.Coordinator` / ``Site`` endpoints; the
    drivers handle topology construction, seeding, runtime/fault handling
    and cost reporting.  During :meth:`_execute` the active
    :class:`~repro.engine.runtime.Runtime` is available as ``self.runtime``
    (protocol bodies fan their per-site phases out through it).
    """

    #: Human-readable protocol name (used in benchmark tables).
    name = "star-protocol"

    #: Whether the protocol's output is an additive mass over row-shards
    #: (mergeable-summary semantics).  Such outputs are renormalized by the
    #: inverse surviving row fraction under the "exclude" dropout policy.
    renormalizes_on_dropout = False

    def __init__(self, *, seed: int | None = None) -> None:
        self.seed = seed
        self.runtime: Runtime = SERIAL_RUNTIME
        self.conditions: NetworkConditions | None = None

    # ------------------------------------------------------------------ api
    def run(
        self,
        shards: list[Any],
        coordinator_data: Any,
        *,
        runtime: Runtime | None = None,
        conditions: NetworkConditions | None = None,
        transport: Transport | None = None,
        tree: "TreeSpec | int | None" = None,
    ) -> ProtocolResult:
        """Execute the protocol on k row-shards and the coordinator's matrix.

        ``tree`` selects a hierarchical aggregation overlay — a
        :class:`~repro.comm.tree.TreeSpec` over the generated site names,
        or an integer fan-out (balanced tree) — routing and partially
        merging the very same transcript through interior aggregators.
        The protocol body and the seeding are untouched, so the estimate
        is bit-identical to the flat star; only metering, makespan and the
        aggregation wall-clock change.  Dropout/quorum exclusions prune
        the tree to the surviving subtree, and a *dropped aggregator name*
        declares its whole region dropped (every leaf below it).
        """
        self.runtime = runtime if runtime is not None else SERIAL_RUNTIME
        self.conditions = conditions
        # Validation/coercion happens once, inside StarTopology.build; here
        # only the shard count and row counts are needed.
        shards = list(shards)
        site_names = [f"site-{i}" for i in range(len(shards))]
        spec = normalize_tree(tree, site_names)
        shards, site_names, dropout_details = self._apply_dropout(
            shards, site_names, conditions, tree=spec
        )
        if (
            conditions is not None
            and dropout_details is not None
            and dropout_details.get("stragglers")
        ):
            # Stragglers keep their link overrides but leave the sub-star,
            # exactly like pre-declared dropped sites.
            conditions = conditions.excluding(dropout_details["stragglers"])
        if spec is not None and len(site_names) != len(spec.site_names):
            spec = spec.restrict(site_names)
        topology = StarTopology.build(
            shards,
            coordinator_data,
            seed=self.seed,
            site_names=site_names,
            conditions=conditions,
            transport=transport,
            tree=spec,
        )
        value, details = self._run_on(topology)
        details.setdefault("num_sites", topology.num_sites)
        if spec is not None:
            details["tree"] = spec.describe()
        if dropout_details is not None:
            if self.renormalizes_on_dropout:
                value = value * dropout_details["renormalization"]
                dropout_details["renormalized"] = True
            details["dropout"] = dropout_details
        return ProtocolResult(
            value=value,
            cost=ClusterCostReport.from_network(topology.network),
            details=details,
        )

    def run_two_party(
        self,
        alice_data: Any,
        bob_data: Any,
        *,
        runtime: Runtime | None = None,
        conditions: NetworkConditions | None = None,
        transport: Transport | None = None,
    ) -> ProtocolResult:
        """Execute the protocol in the two-party model (one site = Alice).

        Dropping the single site leaves no survivors, so a dropped
        ``"alice"`` raises :class:`~repro.engine.runtime.SiteDroppedError`
        under *either* dropout policy.
        """
        self.runtime = runtime if runtime is not None else SERIAL_RUNTIME
        self.conditions = conditions
        if conditions is not None:
            self.runtime.partition_dropped(["alice"], conditions.dropped)
        topology = StarTopology.build(
            [alice_data],
            bob_data,
            seed=self.seed,
            site_names=("alice",),
            coordinator_name="bob",
            conditions=conditions,
            transport=transport,
        )
        value, details = self._run_on(topology)
        return ProtocolResult(
            value=value,
            cost=two_party_cost(topology.network, "alice", "bob"),
            details=details,
        )

    # --------------------------------------------------------------- faults
    def _apply_dropout(
        self,
        shards: list[np.ndarray],
        site_names: Sequence[str],
        conditions: NetworkConditions | None,
        tree: TreeSpec | None = None,
    ) -> tuple[list[np.ndarray], list[str], dict | None]:
        """Resolve dropped sites per the runtime's policy.

        Under ``"exclude"`` the protocol runs over the surviving sub-cluster
        (global row indices then refer to the survivors' concatenation); the
        returned details record who contributed and the renormalization
        factor (inverse surviving row fraction) applied to additive-mass
        outputs.

        A quorum-mode runtime (``Runtime(quorum=(n, f))``) additionally
        excludes *stragglers* — survivors beyond the fastest ``n - f``
        responders under the conditions' latencies and deadline — reusing
        the same survivor renormalization, so quorum answers carry explicit
        contributor sets (``details["quorum"]``) and target the full mass.
        """
        dropped_names = conditions.dropped if conditions is not None else frozenset()
        if tree is not None:
            # Regional dropout: a dropped aggregator name stands for every
            # leaf of its subtree, on top of any individually dropped sites.
            dropped_names = tree.expand_regions(dropped_names)
        surviving, dropped = self.runtime.partition_dropped(site_names, dropped_names)
        surviving_names = [site_names[i] for i in surviving]
        in_quorum, stragglers, quorum_details = self.runtime.partition_quorum(
            surviving_names, conditions, tree=tree
        )
        kept_indices = [surviving[i] for i in in_quorum]
        if not dropped and not stragglers:
            return list(shards), list(site_names), None
        total_rows = sum(int(np.asarray(shard).shape[0]) for shard in shards)
        kept_shards = [shards[i] for i in kept_indices]
        kept_names = [site_names[i] for i in kept_indices]
        surviving_rows = sum(int(np.asarray(shard).shape[0]) for shard in kept_shards)
        details = {
            "policy": self.runtime.dropout,
            "dropped_sites": dropped,
            "contributing_sites": kept_names,
            "surviving_row_fraction": surviving_rows / max(total_rows, 1),
            "renormalization": total_rows / max(surviving_rows, 1),
            "renormalized": False,
        }
        if quorum_details is not None:
            details["quorum"] = quorum_details
            details["stragglers"] = stragglers
        return kept_shards, kept_names, details

    def _run_on(self, topology: StarTopology) -> tuple[Any, dict]:
        self.shared_rng = topology.shared_rng
        output = self._execute(topology.coordinator, topology.sites)
        return split_protocol_output(output)

    # ------------------------------------------------------------- subclass
    def _execute(self, coordinator: Coordinator, sites: list[Site]) -> Any:
        raise NotImplementedError
