"""Star-topology metered network: k sites around one coordinator.

This is the repo's one physical transport.  The k-party generalization of
the classic two-party channel for the coordinator model of distributed
functional monitoring: messages only travel between a site and the
coordinator (the star's hub) — sites never talk to each other directly,
matching the model in the literature.  The two-party model is this class
with a single site (Alice) and the hub playing Bob:
``Network(["alice"], coordinator_name="bob")``.

Accounting contract (via the shared
:class:`repro.comm.accounting.MessageLog`):

* an *aggregate* log meters ``total_bits``, ``rounds``, ``bits_by_label``
  and ``bits_per_round`` across the whole star.  Its round counter flips on
  the up/down *direction*: k sites uploading back-to-back share one round
  (they could do so in parallel), while a coordinator reply opens a new one.
  With a single site this reduces exactly to the two-party definition.
* a *per-link* log per site meters the same quantities restricted to that
  coordinator-site link, with the two-party (sender-flip) round semantics.
  ``max_link_bits`` — the busiest link — is a *lower bound* ingredient of
  the simulated makespan when links transfer in parallel.

A network optionally carries :class:`repro.comm.conditions
.NetworkConditions` (per-link latency/bandwidth/jitter models); the
recorded transcript is then priced into a simulated **makespan** — the
critical-path time over rounds, links in parallel — via :meth:`Network
.makespan` / :meth:`Network.makespan_per_round`.  Under the default ideal
conditions both report zeros and nothing about the bit/round meters
changes.
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


class Network:
    """In-process star network with per-link and aggregate accounting.

    Parameters
    ----------
    site_names:
        Names of the k leaf sites (order fixes the site indexing).
    coordinator_name:
        Name of the hub endpoint.
    conditions:
        Optional per-link timing models (defaults to ideal links: zero
        latency, infinite bandwidth — makespan 0).
    """

    def __init__(
        self,
        site_names: Sequence[str],
        coordinator_name: str = "coordinator",
        *,
        conditions: NetworkConditions | None = None,
    ) -> None:
        site_names = list(site_names)
        if not site_names:
            raise ValueError("a star network needs at least one site")
        if len(set(site_names)) != len(site_names):
            raise ValueError("site names must be unique")
        if coordinator_name in site_names:
            raise ValueError("the coordinator cannot double as a site")
        self.coordinator_name = coordinator_name
        self.site_names = site_names
        self.conditions = conditions if conditions is not None else NetworkConditions()
        self._validate_conditions()
        self.links: dict[str, MessageLog] = {name: MessageLog() for name in site_names}
        self.log = MessageLog()

    def _validate_conditions(self) -> None:
        """Reject condition objects that name no endpoint of this network."""
        unknown = (
            set(self.conditions.overrides)
            - set(self.site_names)
            - self.conditions.dropped
        )
        if unknown:
            # A link override that names no site would be silently priced as
            # the default model — a typo'd straggler scenario must fail loud,
            # like unknown dropped-site declarations do.  Overrides for sites
            # the conditions themselves declare dropped are legitimate: the
            # protocol driver excludes those sites before wiring the star.
            raise ValueError(
                f"link-model overrides {sorted(unknown)} match no site of "
                f"this star (sites: {self.site_names})"
            )
        if self.conditions.regions:
            raise ValueError(
                "per-region conditions only apply to tree networks "
                "(a flat star has no aggregators)"
            )

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
        """Record a message on one coordinator-site link and deliver it.

        Exactly one of ``sender`` / ``receiver`` must be the coordinator —
        the star has no site-to-site links.  ``bits`` defaults to
        :func:`repro.comm.bitcost.bits_for_payload` like the two-party
        channel.
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
        if site not in self.links:
            raise ValueError(f"unknown site {site!r}; expected one of {self.site_names}")
        if bits is None:
            bits = bitcost.bits_for_payload(payload, universe=universe)
        self.log.record(sender, receiver, payload, label=label, bits=bits, direction_key=direction)
        self.links[site].record(sender, receiver, payload, label=label, bits=bits)
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

        ``bits`` is the per-link cost of the payload (each link carries its
        own copy).  All copies travel downstream, so a broadcast occupies a
        single aggregate round regardless of k.

        The payload is priced (and, on wire transports, encoded) **once**
        and the result reused for every child — the copies are identical,
        so per-link re-encoding was pure CPU waste at high fan-out.  The
        meters are unchanged: same bits charged on every link.
        """
        if bits is None:
            bits = bitcost.bits_for_payload(payload)
        for site in self.site_names if sites is None else sites:
            self.send(self.coordinator_name, site, payload, label=label, bits=bits)
        return payload

    # ------------------------------------------------------------ accounting
    @property
    def total_bits(self) -> int:
        """Total bits over all links."""
        return self.log.total_bits

    @property
    def rounds(self) -> int:
        """Aggregate rounds (up/down direction flips)."""
        return self.log.rounds

    def bits_sent_by(self, sender: str) -> int:
        """Total bits sent by one endpoint (a site or the coordinator)."""
        return self.log.bits_sent_by(sender)

    def bits_by_label(self) -> dict[str, int]:
        """Total bits grouped by message label, over all links."""
        return self.log.bits_by_label()

    def bits_per_round(self) -> dict[int, int]:
        """Total bits grouped by aggregate round index."""
        return self.log.bits_per_round()

    def link(self, site_name: str) -> MessageLog:
        """The per-link meter for one coordinator-site link."""
        return self.links[site_name]

    def link_bits(self) -> dict[str, int]:
        """Per-site link load: total bits on each coordinator-site link."""
        return {name: meter.total_bits for name, meter in self.links.items()}

    @property
    def max_link_bits(self) -> int:
        """Load of the busiest coordinator-site link."""
        return max(meter.total_bits for meter in self.links.values())

    # ------------------------------------------------------------- simulation
    def simulate(self) -> tuple[float, dict[int, float]]:
        """Price the recorded transcript: ``(makespan, per-round makespans)``.

        Critical path over rounds under :attr:`conditions`: per round, link
        bursts transfer in parallel and the slowest link gates the round;
        rounds are sequential.  Ideal conditions price every transcript at
        0.0 seconds (per round too) without running the simulation.  Cost
        reports call this once and read both values.
        """
        if self.conditions.is_ideal():
            return 0.0, {round_index: 0.0 for round_index in self.log.bits_per_round()}
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
        """Clear all recorded traffic on every link."""
        self.log.reset()
        for meter in self.links.values():
            meter.reset()


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


class TreeNetwork(Network):
    """Metered aggregation tree: sites -> interior aggregators -> root.

    Routing overlay over the same protocol API as the star: endpoints
    still address the coordinator (``send(site, coordinator, ...)``), and
    the network routes each message along the tree edges of a
    :class:`~repro.comm.tree.TreeSpec`.  Upstream payloads **stage** at
    their parent aggregator; when the direction flips (or any meter is
    read) staged sibling groups drain bottom-up, and each aggregator
    forwards ONE message per label upstream:

    * a genuinely merged summary (bits = the largest child burst) when the
      group is exact-mergeable (see :func:`merge_payload_group`), or
    * the batched group (bits = sum of child bursts) otherwise.

    Either way the root's fan-in is ``fan_out`` messages per round instead
    of k, which is the entire point.  Aggregators never touch payload
    *semantics* — protocol bodies use their local variables (the in-process
    network is a metering device that returns the payload), so root
    estimates are bit-identical to the flat star by construction.

    Accounting: :attr:`links` gains one :class:`~repro.comm.accounting
    .MessageLog` per tree edge, keyed by the child endpoint (leaf edges
    under site names, interior edges under aggregator names);
    ``max_link_bits`` is the busiest edge.  The makespan is priced by
    :func:`repro.comm.conditions.simulate_tree_makespan` — serialized
    fan-in per receiver, levels sequential — not the flat-star model.

    ``merge_runtime`` optionally fans each level's merge groups through a
    :class:`repro.engine.runtime.Runtime` executor (serial by default);
    :attr:`merge_seconds` accumulates the aggregation wall-clock either
    way, which is what the scaling benchmark charts.
    """

    def __init__(
        self,
        tree: TreeSpec,
        *,
        conditions: NetworkConditions | None = None,
        merge_runtime: Any | None = None,
    ) -> None:
        self.tree = tree
        super().__init__(tree.site_names, tree.root, conditions=conditions)
        self._site_set = set(tree.site_names)
        for agg in tree.aggregators:
            self.links[agg] = MessageLog()
        self._staged: dict[str, list[tuple[str, Any, int]]] = {
            agg: [] for agg in tree.aggregators
        }
        self.merge_runtime = merge_runtime
        self.merge_seconds = 0.0
        self.merges = 0

    def _validate_conditions(self) -> None:
        valid = set(self.site_names) | set(self.tree.aggregators)
        unknown = set(self.conditions.overrides) - valid - self.conditions.dropped
        if unknown:
            raise ValueError(
                f"link-model overrides {sorted(unknown)} match no edge of "
                f"this tree (sites + aggregators: {sorted(valid)})"
            )
        bad_regions = set(self.conditions.regions) - set(self.tree.aggregators)
        if bad_regions:
            raise ValueError(
                f"region conditions {sorted(bad_regions)} name no aggregator "
                f"of this tree (aggregators: {self.tree.aggregators})"
            )

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
        """Route one coordinator-addressed message along its tree path."""
        if sender == receiver:
            raise ValueError("sender and receiver must differ")
        if self.coordinator_name not in (sender, receiver):
            raise ValueError(
                f"tree topology: one endpoint must be {self.coordinator_name!r} "
                f"(got {sender!r} -> {receiver!r})"
            )
        direction = DOWNSTREAM if sender == self.coordinator_name else UPSTREAM
        site = receiver if direction == DOWNSTREAM else sender
        if site not in self._site_set:
            raise ValueError(f"unknown site {site!r}; expected one of {self.site_names}")
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
        """Broadcast along the tree: each needed edge carries ONE copy.

        A flat star pays k downstream copies; the tree pays one copy per
        edge on the union of root-to-target paths — aggregators fan the
        payload out locally.  The payload is priced once (encode-once).
        """
        self._drain()
        if bits is None:
            bits = bitcost.bits_for_payload(payload)
        targets = self.site_names if sites is None else list(sites)
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
        be wrong for it).
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
    @property
    def total_bits(self) -> int:
        self._drain()
        return self.log.total_bits

    @property
    def rounds(self) -> int:
        self._drain()
        return self.log.rounds

    def bits_sent_by(self, sender: str) -> int:
        self._drain()
        return self.log.bits_sent_by(sender)

    def bits_by_label(self) -> dict[str, int]:
        self._drain()
        return self.log.bits_by_label()

    def bits_per_round(self) -> dict[int, int]:
        self._drain()
        return self.log.bits_per_round()

    def link(self, site_name: str) -> MessageLog:
        self._drain()
        return self.links[site_name]

    def link_bits(self) -> dict[str, int]:
        self._drain()
        return {name: meter.total_bits for name, meter in self.links.items()}

    @property
    def max_link_bits(self) -> int:
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
        """Price the tree transcript: serialized fan-in, levels sequential."""
        self._drain()
        if self.conditions.is_ideal():
            return 0.0, {round_index: 0.0 for round_index in self.log.bits_per_round()}
        return simulate_tree_makespan(self.log.per_round(), self.conditions, self.tree)

    def reset(self) -> None:
        for agg in self._staged:
            self._staged[agg] = []
        super().reset()
        self.merge_seconds = 0.0
        self.merges = 0
