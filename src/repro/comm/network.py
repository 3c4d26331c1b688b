"""The metered in-process network: k sites, optional aggregators, one root.

This is the repo's one in-process transport.  It is the k-party
generalization of the classic two-party channel for the coordinator model
of distributed functional monitoring: every message has the coordinator
(the root) as one endpoint — sites never talk to each other directly,
matching the model in the literature.  The two-party model is this class
with a single site (Alice) and the root playing Bob:
``Network(["alice"], coordinator_name="bob")``.

Messages travel along the edges of a :class:`~repro.comm.tree.TreeSpec`.
Without a ``tree=`` the spec is :meth:`TreeSpec.flat`, every site a direct
child of the coordinator: the classic star.  A deeper spec adds interior
**aggregators**: upstream payloads stage at their parent aggregator and
drain bottom-up as one forwarded message per sibling group, so the root's
fan-in is the fan-out instead of k (see :class:`Network`).

Accounting contract (via the shared
:class:`repro.comm.accounting.MessageLog`):

* an *aggregate* log meters ``total_bits``, ``rounds``, ``bits_by_label``
  and ``bits_per_round`` across the whole network.  Its round counter flips
  on the up/down *direction*: k sites uploading back-to-back share one
  round (they could do so in parallel), while a coordinator reply opens a
  new one.  With a single site this reduces exactly to the two-party
  definition.
* a *per-link* log per tree edge, keyed by the edge's child endpoint (a
  site or an aggregator), meters the same quantities restricted to that
  edge, with the two-party (sender-flip) round semantics.
  ``max_link_bits`` is the busiest edge.

A network optionally carries :class:`repro.comm.conditions
.NetworkConditions` (per-link latency/bandwidth/jitter models); the
recorded transcript is then priced into a simulated **makespan** via
:meth:`Network.simulate`.  Two models exist, chosen by how the network was
built:

* without a ``tree=``, :func:`~repro.comm.conditions.simulate_makespan`:
  per round, the links transfer in parallel and the slowest gates it;
* with any ``tree=``, the flat spec included,
  :func:`~repro.comm.conditions.simulate_tree_makespan`: fan-in serializes
  per receiver, and levels are sequential.

Under finite bandwidth the two price the same flat transcript differently.
Under the default ideal conditions both report zeros and nothing about the
bit/round meters changes.
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Sequence

import numpy as np

from repro.comm import bitcost
from repro.comm.accounting import MessageLog
from repro.comm.conditions import (
    NetworkConditions,
    simulate_makespan,
    simulate_tree_makespan,
)
from repro.comm.tree import TreeSpec

#: Direction keys for the aggregate round counter.
UPSTREAM = "up"
DOWNSTREAM = "down"


def _payloads_mergeable(payloads: Sequence[Any]) -> bool:
    """Can a group of sibling payloads be combined into one exact summary?

    Two shapes qualify: same-type :class:`~repro.sketch.mergeable
    .MergeableSketch` partials (the contract the hypothesis suites pin:
    counter states are exact integers in float64, so any merge grouping is
    bit-identical), and equal-shape integer/bool ndarrays (exact sums).
    Anything else — floats, tuples, dicts, mixed groups — is forwarded as
    a batch instead; correctness never rides on a lossy merge.
    """
    from repro.sketch.mergeable import MergeableSketch

    first = payloads[0]
    if isinstance(first, MergeableSketch):
        return all(type(p) is type(first) for p in payloads)
    if isinstance(first, np.ndarray) and first.dtype.kind in "iub":
        return all(
            isinstance(p, np.ndarray)
            and p.shape == first.shape
            and p.dtype == first.dtype
            for p in payloads
        )
    return False


def merge_payload_group(payloads: Sequence[Any]) -> Any:
    """Merge one mergeable sibling group into a single summary.

    Module-level and picklable, so :meth:`repro.engine.runtime.Runtime
    .map_async` can fan per-level merge groups across threads or worker
    processes; the result is executor-invariant because the merges are
    exact (integer states within 2^53).  Sketches merge into a fresh
    ``empty_copy`` — the children's payload objects are never mutated, the
    protocol endpoints may still hold references to them.
    """
    first = payloads[0]
    if isinstance(first, np.ndarray):
        out = first.copy()
        for other in payloads[1:]:
            out += other
        return out
    merged = first.empty_copy()
    for other in payloads:
        merged.merge(other)
    return merged


class Network:
    """In-process metered network routed along an aggregation tree.

    Endpoints address the coordinator (``send(site, coordinator, ...)``)
    whatever the shape, and the network routes each message along the
    edges of :attr:`tree`.  Upstream payloads **stage** at their parent
    aggregator; when the direction flips (or any meter is read) staged
    sibling groups drain bottom-up, and each aggregator forwards ONE
    message per label upstream:

    * a genuinely merged summary (bits = the largest child burst) when the
      group is exact-mergeable (see :func:`merge_payload_group`), or
    * the batched group (bits = sum of child bursts) otherwise.

    Aggregators never touch payload *semantics* — protocol bodies use their
    local variables (the in-process network is a metering device that
    returns the payload), so root estimates are the same on every shape.
    The flat star has no aggregators, so nothing stages and every message
    is one hop.

    Parameters
    ----------
    site_names:
        Names of the k leaf sites (order fixes the site indexing).
    coordinator_name:
        Name of the root endpoint.
    conditions:
        Optional per-link timing models (defaults to ideal links: zero
        latency, infinite bandwidth — makespan 0).
    tree:
        Optional :class:`~repro.comm.tree.TreeSpec` whose leaves are
        exactly ``site_names`` (in order) and whose root is
        ``coordinator_name``.  ``None`` routes over ``TreeSpec.flat`` and
        keeps the parallel-links makespan model (see the module docstring).
    merge_runtime:
        Optionally fans each drain level's merge groups through a
        :class:`repro.engine.runtime.Runtime` executor (serial by default);
        :attr:`merge_seconds` accumulates the aggregation wall-clock either
        way, which is what the scaling benchmark charts.
    """

    def __init__(
        self,
        site_names: Sequence[str],
        coordinator_name: str = "coordinator",
        *,
        conditions: NetworkConditions | None = None,
        tree: TreeSpec | None = None,
        merge_runtime: Any | None = None,
    ) -> None:
        site_names = list(site_names)
        if not site_names:
            raise ValueError("a star network needs at least one site")
        if len(set(site_names)) != len(site_names):
            raise ValueError("site names must be unique")
        if coordinator_name in site_names:
            raise ValueError("the coordinator cannot double as a site")
        if tree is not None:
            tree.check_matches(site_names, coordinator_name)
        self.coordinator_name = coordinator_name
        self.site_names = site_names
        self.tree = tree if tree is not None else TreeSpec.flat(
            site_names, root=coordinator_name
        )
        # The one place the two makespan models differ (see simulate).
        self._serialized_fan_in = tree is not None
        self.conditions = conditions if conditions is not None else NetworkConditions()
        self._validate_conditions()
        self._site_set = set(site_names)
        self.links: dict[str, MessageLog] = {
            name: MessageLog() for name in site_names + self.tree.aggregators
        }
        self.log = MessageLog()
        self._staged: dict[str, list[tuple[str, Any, int]]] = {
            agg: [] for agg in self.tree.aggregators
        }
        self.merge_runtime = merge_runtime
        self.merge_seconds = 0.0
        self.merges = 0

    def _validate_conditions(self) -> None:
        """Reject condition objects that name no endpoint of this network."""
        valid = set(self.site_names) | set(self.tree.aggregators)
        unknown = set(self.conditions.overrides) - valid - self.conditions.dropped
        if unknown:
            # A link override that names no edge would be silently priced as
            # the default model — a typo'd straggler scenario must fail loud,
            # like unknown dropped-site declarations do.  Overrides for sites
            # the conditions themselves declare dropped are legitimate: the
            # protocol driver excludes those sites before wiring the network.
            raise ValueError(
                f"link-model overrides {sorted(unknown)} match no edge of "
                f"this network (sites + aggregators: {sorted(valid)})"
            )
        bad_regions = set(self.conditions.regions) - set(self.tree.aggregators)
        if bad_regions:
            raise ValueError(
                f"region conditions {sorted(bad_regions)} name no aggregator "
                f"of this network (aggregators: {self.tree.aggregators})"
            )

    def _check_site(self, site: str) -> None:
        if site not in self._site_set:
            raise ValueError(f"unknown site {site!r}; expected one of {self.site_names}")

    # ------------------------------------------------------------------ send
    def send(
        self,
        sender: str,
        receiver: str,
        payload: Any,
        *,
        label: str = "",
        bits: int | None = None,
        universe: int | None = None,
    ) -> Any:
        """Route one coordinator-addressed message along its tree path.

        Exactly one of ``sender`` / ``receiver`` must be the coordinator —
        there are no site-to-site links.  ``bits`` defaults to
        :func:`repro.comm.bitcost.bits_for_payload` like the two-party
        channel.  A downstream message pays every edge of the root-to-site
        path; an upstream one pays its leaf edge and stages at the parent
        aggregator, if any.
        """
        if sender == receiver:
            raise ValueError("sender and receiver must differ")
        if self.coordinator_name not in (sender, receiver):
            raise ValueError(
                f"star topology: one endpoint must be {self.coordinator_name!r} "
                f"(got {sender!r} -> {receiver!r})"
            )
        direction = DOWNSTREAM if sender == self.coordinator_name else UPSTREAM
        site = receiver if direction == DOWNSTREAM else sender
        self._check_site(site)
        if bits is None:
            bits = bitcost.bits_for_payload(payload, universe=universe)
        if direction == UPSTREAM:
            self._record_hop(site, UPSTREAM, payload, label, bits)
            parent = self.tree.parent[site]
            if parent != self.coordinator_name:
                self._staged[parent].append((label, payload, bits))
        else:
            self._drain()
            self._deliver_downstream(self.tree.path_edges(site), payload, label, bits)
        return payload

    def broadcast(
        self,
        payload: Any,
        *,
        label: str = "",
        bits: int | None = None,
        sites: Iterable[str] | None = None,
    ) -> Any:
        """Send ``payload`` from the coordinator to every site (one round).

        ``bits`` is the per-edge cost of the payload.  Each needed edge
        carries ONE copy: the flat star pays one copy per targeted site, a
        deeper tree one per edge on the union of root-to-target paths
        (aggregators fan the payload out locally).  All copies travel
        downstream, so a broadcast occupies a single aggregate round.

        Every target is checked before anything is metered, so an unknown
        site leaves the meters untouched.  The payload is priced (and, on
        wire transports, encoded) **once** and the result reused for every
        edge — the copies are identical.
        """
        targets = self.site_names if sites is None else list(sites)
        for site in targets:
            self._check_site(site)
        self._drain()
        if bits is None:
            bits = bitcost.bits_for_payload(payload)
        edges: list[str] = []
        seen: set[str] = set()
        for site in targets:
            for child in self.tree.path_edges(site):
                if child not in seen:
                    seen.add(child)
                    edges.append(child)
        self._deliver_downstream(edges, payload, label, bits)
        return payload

    def _deliver_downstream(
        self, edge_children: Sequence[str], payload: Any, label: str, bits: int
    ) -> None:
        """Record one downstream copy per edge (hook for wire transports)."""
        for child in edge_children:
            self._record_hop(child, DOWNSTREAM, payload, label, bits)

    def upstream_hop(
        self, child: str, payload: Any, *, label: str = "", bits: int | None = None
    ) -> Any:
        """Record one upstream burst on a single edge, without staging.

        The streaming session uses this to ship *its own* aggregator-merged
        epoch deltas hop by hop (it re-encodes merged states and knows the
        exact wire bytes of every hop, so the generic staging above would
        be wrong for it).  On a flat network a site's hop is its whole
        upload, metered exactly as :meth:`send` would.
        """
        if child not in self.links:
            raise ValueError(f"unknown tree edge {child!r}")
        if bits is None:
            bits = bitcost.bits_for_payload(payload)
        self._record_hop(child, UPSTREAM, payload, label, bits)
        return payload

    def _record_hop(
        self, child: str, direction: str, payload: Any, label: str, bits: int
    ) -> None:
        parent = self.tree.parent[child]
        sender, receiver = (child, parent) if direction == UPSTREAM else (parent, child)
        self.log.record(
            sender, receiver, payload, label=label, bits=bits, direction_key=direction
        )
        self.links[child].record(sender, receiver, payload, label=label, bits=bits)

    # ------------------------------------------------------------------ drain
    def _drain(self) -> None:
        """Flush staged uploads bottom-up: one forwarded message per group."""
        if not any(self._staged.values()):
            return
        started = time.perf_counter()
        while any(self._staged.values()):
            depth = max(
                self.tree.node_depth(agg)
                for agg, entries in self._staged.items()
                if entries
            )
            level = [
                agg
                for agg in self.tree.aggregators
                if self.tree.node_depth(agg) == depth and self._staged[agg]
            ]
            # One combined (payload, bits) per (aggregator, label) group.
            plan: list[tuple[str, str]] = []
            grouped: dict[tuple[str, str], list[tuple[Any, int]]] = {}
            for agg in level:
                entries, self._staged[agg] = self._staged[agg], []
                for label, payload, bits in entries:
                    key = (agg, label)
                    if key not in grouped:
                        grouped[key] = []
                        plan.append(key)
                    grouped[key].append((payload, bits))
            merge_keys = [
                key
                for key in plan
                if len(grouped[key]) > 1
                and _payloads_mergeable([p for p, _ in grouped[key]])
            ]
            tasks = [([p for p, _ in grouped[key]],) for key in merge_keys]
            if len(tasks) > 1 and self.merge_runtime is not None:
                # Per-level fan-out: every aggregator at this depth merges
                # concurrently under whatever executor the runtime carries.
                join = self.merge_runtime.map_async(merge_payload_group, tasks)
                merged_results = join()
            else:
                merged_results = [merge_payload_group(*task) for task in tasks]
            self.merges += len(tasks)
            combined: dict[tuple[str, str], tuple[Any, int]] = {}
            for key, merged in zip(merge_keys, merged_results):
                combined[key] = (merged, max(b for _, b in grouped[key]))
            for key in plan:
                if key in combined:
                    continue
                group = grouped[key]
                if len(group) == 1:
                    combined[key] = group[0]
                else:
                    combined[key] = (
                        [p for p, _ in group],
                        sum(b for _, b in group),
                    )
            for agg, label in plan:
                payload, bits = combined[(agg, label)]
                self._record_hop(agg, UPSTREAM, payload, label, bits)
                parent = self.tree.parent[agg]
                if parent != self.coordinator_name:
                    self._staged[parent].append((label, payload, bits))
        self.merge_seconds += time.perf_counter() - started

    # ------------------------------------------------------------ accounting
    # Every meter read drains staged uploads first, so it sees the forwarded
    # aggregator messages too.
    @property
    def total_bits(self) -> int:
        """Total bits over all edges."""
        self._drain()
        return self.log.total_bits

    @property
    def rounds(self) -> int:
        """Aggregate rounds (up/down direction flips)."""
        self._drain()
        return self.log.rounds

    def bits_sent_by(self, sender: str) -> int:
        """Total bits sent by one endpoint (a site, aggregator or the root)."""
        self._drain()
        return self.log.bits_sent_by(sender)

    def bits_by_label(self) -> dict[str, int]:
        """Total bits grouped by message label, over all edges."""
        self._drain()
        return self.log.bits_by_label()

    def bits_per_round(self) -> dict[int, int]:
        """Total bits grouped by aggregate round index."""
        self._drain()
        return self.log.bits_per_round()

    def link(self, site_name: str) -> MessageLog:
        """The per-edge meter keyed by one child endpoint."""
        self._drain()
        return self.links[site_name]

    def link_bits(self) -> dict[str, int]:
        """Per-edge load: total bits on each edge, keyed by its child."""
        self._drain()
        return {name: meter.total_bits for name, meter in self.links.items()}

    @property
    def max_link_bits(self) -> int:
        """Load of the busiest edge."""
        self._drain()
        return max(meter.total_bits for meter in self.links.values())

    def root_link_bits(self) -> dict[str, int]:
        """Bits on the root's ingress edges only — the fan-in bottleneck."""
        self._drain()
        return {
            child: self.links[child].total_bits
            for child in self.tree.children[self.tree.root]
        }

    @property
    def max_root_link_bits(self) -> int:
        """Busiest root ingress edge (grows with fan-out, not with k)."""
        return max(self.root_link_bits().values())

    # ------------------------------------------------------------- simulation
    def simulate(self) -> tuple[float, dict[int, float]]:
        """Price the recorded transcript: ``(makespan, per-round makespans)``.

        Rounds are sequential.  A network built without a ``tree=`` prices
        each round's link bursts in parallel, the slowest link gating the
        round (:func:`~repro.comm.conditions.simulate_makespan`); one built
        with any spec, the flat one included, serializes fan-in per
        receiver and runs levels sequentially
        (:func:`~repro.comm.conditions.simulate_tree_makespan`).  Ideal
        conditions price every transcript at 0.0 seconds (per round too)
        without running the simulation.  Cost reports call this once and
        read both values.
        """
        self._drain()
        if self.conditions.is_ideal():
            return 0.0, {round_index: 0.0 for round_index in self.log.bits_per_round()}
        if self._serialized_fan_in:
            return simulate_tree_makespan(
                self.log.per_round(), self.conditions, self.tree
            )
        return simulate_makespan(
            self.log.per_round(), self.conditions, self.coordinator_name
        )

    def makespan(self) -> float:
        """Simulated end-to-end seconds of the recorded transcript."""
        total, _ = self.simulate()
        return total

    def makespan_per_round(self) -> dict[int, float]:
        """Simulated seconds per aggregate round (keys match bits_per_round)."""
        _, per_round = self.simulate()
        return per_round

    def reset(self) -> None:
        """Clear all recorded traffic and staged uploads on every edge."""
        for agg in self._staged:
            self._staged[agg] = []
        self.log.reset()
        for meter in self.links.values():
            meter.reset()
        self.merge_seconds = 0.0
        self.merges = 0


#: Another name for :class:`Network`, which routes aggregation trees
#: itself; kept so that code naming ``TreeNetwork``, such as the end-to-end
#: benchmark's tracer, still resolves.
TreeNetwork = Network
