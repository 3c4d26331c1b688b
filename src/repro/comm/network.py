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
:class:`repro.comm.accounting.MessageLog`, which keeps running bit counts
per ``(round, sender, receiver, label)`` cell and never a payload, so the
meters' memory does not grow with the traffic they meter):

* an *aggregate* log meters ``total_bits``, ``rounds``, ``bits_by_label``
  and ``bits_per_round`` across the whole network.  Its round counter flips
  on the up/down *direction*: k sites uploading back-to-back share one
  round (they could do so in parallel), while a coordinator reply opens a
  new one.  With a single site this reduces exactly to the two-party
  definition.
* each hop is recorded into that log once.  Per-edge readings, keyed by
  the edge's child endpoint (a site or an aggregator), are reads of it;
  ``link(child)`` replays the edge's cells with the two-party
  (sender-flip) round semantics.  ``max_link_bits`` is the busiest edge.
* payloads live only while they are in flight: the protocol bodies hold
  their own, and an aggregator holds its staged uploads until the next
  meter read or direction flip drains them.  Totals, rounds and
  per-sender bits are O(1) reads; a read with nothing staged skips the
  drain in O(1) too.

A network optionally carries :class:`repro.comm.conditions
.NetworkConditions` (per-edge latency/bandwidth/jitter models); the
recorded transcript is then priced into a simulated **makespan** via
:meth:`Network.simulate`, with one model for every shape
(:func:`~repro.comm.conditions.simulate_tree_makespan`): fan-in serializes
per receiver and levels are sequential, so the flat star's root drains its
k uploads back to back.  Under the default ideal conditions the makespan
is zero and nothing about the bit/round meters changes.
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Sequence

import numpy as np

from repro.comm import bitcost
from repro.comm.accounting import MessageLog
from repro.comm.conditions import NetworkConditions, simulate_tree_makespan
from repro.comm.tree import TreeSpec

#: Direction keys for the aggregate round counter.
UPSTREAM = "up"
DOWNSTREAM = "down"


def _payloads_mergeable(payloads: Sequence[Any]) -> bool:
    """Can a group of sibling payloads be combined into one exact summary?

    Two shapes qualify: same-type :class:`~repro.sketch.mergeable
    .MergeableSketch` partials (the contract the hypothesis suites pin:
    counter states are exact integers in float64, so any merge grouping is
    bit-identical), and equal-shape integer ndarrays (exact sums).
    Anything else — floats, bools (whose ``+=`` is a logical or), tuples,
    dicts, mixed groups — is forwarded as a batch instead; correctness
    never rides on a lossy merge.
    """
    from repro.sketch.mergeable import MergeableSketch

    first = payloads[0]
    # Arrays first: the structural (Protocol) isinstance check is ~100x slower.
    if isinstance(first, np.ndarray):
        return first.dtype.kind in "iu" and all(
            isinstance(p, np.ndarray)
            and p.shape == first.shape
            and p.dtype == first.dtype
            for p in payloads
        )
    if isinstance(first, MergeableSketch):
        return all(type(p) is type(first) for p in payloads)
    return False


def merge_payload_group(payloads: Sequence[Any]) -> Any:
    """Merge one mergeable sibling group into a single summary.

    The drain calls it once per merged group, on the calling thread.  The
    merges are exact (integer states within 2^53), so every grouping of
    the same uploads gives the same bytes.  Sketches merge into a fresh
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
    aggregator; when the direction flips (or any meter is read) the staged
    uploads drain in one bottom-up pass on the calling thread, and each
    aggregator forwards ONE message per label upstream:

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
        ``coordinator_name``.  ``None`` routes over ``TreeSpec.flat``,
        which meters and prices exactly like passing that spec.
    """

    def __init__(
        self,
        site_names: Sequence[str],
        coordinator_name: str = "coordinator",
        *,
        conditions: NetworkConditions | None = None,
        tree: TreeSpec | None = None,
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
        self.conditions = conditions if conditions is not None else NetworkConditions()
        self._validate_conditions()
        self._site_set = set(site_names)
        self.log = MessageLog()
        #: ``(label, payload, bits)`` uploads per aggregator that holds any,
        #: so ``not self._staged`` is the O(1) empty check.
        self._staged: dict[str, list[tuple[str, Any, int]]] = {}
        #: Wall-clock seconds spent draining: grouping, merging, batching
        #: and recording the forwarded hops.
        self.merge_seconds = 0.0
        #: Sibling groups merged into one summary so far.
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
            self._hop_up(site, payload, label, bits)
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
        epoch deltas hop by hop (it merges its delta bundles up the tree
        itself and encodes each aggregator's merged bundle once, so it knows
        the exact wire bytes of every hop and the generic staging above
        would be wrong for it).  On a flat network a site's hop is its whole
        upload, metered exactly as :meth:`send` would.
        """
        if child not in self.tree.parent:
            raise ValueError(f"unknown tree edge {child!r}")
        if bits is None:
            bits = bitcost.bits_for_payload(payload)
        self._record_hop(child, UPSTREAM, payload, label, bits)
        return payload

    def _record_hop(
        self, child: str, direction: str, payload: Any, label: str, bits: int
    ) -> None:
        self._meter(self.log, child, direction, label, bits)

    def _meter(
        self, log: MessageLog, child: str, direction: str, label: str, bits: int
    ) -> None:
        """Record one hop on ``child``'s edge into ``log``; rounds flip on up/down."""
        parent = self.tree.parent[child]
        sender, receiver = (child, parent) if direction == UPSTREAM else (parent, child)
        log.record(sender, receiver, label=label, bits=bits, direction_key=direction)

    # ------------------------------------------------------------------ drain
    def _hop_up(self, child: str, payload: Any, label: str, bits: int) -> None:
        """Record one upstream hop and stage it at the parent aggregator."""
        self._record_hop(child, UPSTREAM, payload, label, bits)
        parent = self.tree.parent[child]
        if parent != self.coordinator_name:
            self._staged.setdefault(parent, []).append((label, payload, bits))

    def _drain(self) -> None:
        """Flush staged uploads bottom-up: one forwarded message per group.

        One pass over :attr:`TreeSpec.bottom_up` reaches each aggregator
        after every child aggregator below it has forwarded.  It groups its
        staged uploads by label, in first-appearance order, and forwards
        each group to its parent: one upload as it is, an exact-mergeable
        group merged at the largest child bits, any other group as a list
        at the summed bits.
        """
        if not self._staged:
            return
        started = time.perf_counter()
        for agg in self.tree.bottom_up:
            entries = self._staged.pop(agg, None)
            if entries is None:
                continue
            groups: dict[str, list[tuple[Any, int]]] = {}
            for label, payload, bits in entries:
                groups.setdefault(label, []).append((payload, bits))
            for label, group in groups.items():
                payloads = [payload for payload, _ in group]
                if len(group) == 1:
                    payload, bits = group[0]
                elif _payloads_mergeable(payloads):
                    payload = merge_payload_group(payloads)
                    bits = max(b for _, b in group)
                    self.merges += 1
                else:
                    payload, bits = payloads, sum(b for _, b in group)
                self._hop_up(agg, payload, label, bits)
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

    def link(self, child: str) -> MessageLog:
        """One edge's meter, keyed by its child endpoint: its cells replayed
        from :attr:`log` with sender-flip rounds (:meth:`MessageLog.between`)."""
        self._drain()
        return self.log.between(child, self.tree.parent[child])

    def _edge_bits(self, log: MessageLog, edges: Iterable[str]) -> dict[str, int]:
        """Both directions' bits in ``log`` on each edge, keyed by its child."""
        parent = self.tree.parent
        return {child: log.bits_between(child, parent[child]) for child in edges}

    def link_bits(self) -> dict[str, int]:
        """Per-edge load: total bits on each edge, keyed by its child."""
        self._drain()
        return self._edge_bits(self.log, self.site_names + self.tree.aggregators)

    @property
    def max_link_bits(self) -> int:
        """Load of the busiest edge."""
        return max(self.link_bits().values())

    def root_link_bits(self) -> dict[str, int]:
        """Bits on the root's ingress edges only — the fan-in bottleneck."""
        self._drain()
        return self._edge_bits(self.log, self.tree.children[self.tree.root])

    @property
    def max_root_link_bits(self) -> int:
        """Busiest root ingress edge (grows with fan-out, not with k)."""
        return max(self.root_link_bits().values())

    # ------------------------------------------------------------- simulation
    def simulate(self) -> tuple[float, dict[int, float]]:
        """Price the recorded transcript: ``(makespan, per-round makespans)``.

        Rounds are sequential; within one, fan-in serializes per receiver
        and levels run one after another
        (:func:`~repro.comm.conditions.simulate_tree_makespan`, the flat
        star included).  Ideal conditions price every transcript at 0.0
        seconds (per round too) without running the simulation.  Cost
        reports call this once and read both values.
        """
        self._drain()
        if self.conditions.is_ideal():
            return 0.0, {round_index: 0.0 for round_index in self.log.bits_per_round()}
        return simulate_tree_makespan(self.log.per_round(), self.conditions, self.tree)

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
        self._staged.clear()
        self.log.reset()
        self.merge_seconds = 0.0
        self.merges = 0


#: Another name for :class:`Network`, which routes aggregation trees
#: itself; kept so that code naming ``TreeNetwork``, such as the end-to-end
#: benchmark's tracer, still resolves.
TreeNetwork = Network
