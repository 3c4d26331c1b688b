"""Simulated network conditions: per-link latency/bandwidth models + makespan.

The metered transports count *bits* and *rounds* exactly; this module turns
those meters into an end-to-end **time** estimate.  A :class:`LinkModel`
describes one link (fixed per-round latency, finite bandwidth, optional
seeded jitter); :class:`NetworkConditions` assigns a model to every edge of
a network (one default, per-endpoint overrides and per-region models for
aggregation trees) and also carries the *fault scenario* — which sites are
declared dropped — so a whole experimental condition travels as one object.

Makespan model
--------------
:func:`simulate_tree_makespan` prices every network; the flat star is the
depth-1 tree.  Per round, the messages of one edge form a single burst (one
latency hit).  A receiver's ingress is serialized — propagation overlaps,
payload drain does not — so one coordinator NIC drains k uploads back to
back.  Receivers at the same depth work in parallel, levels are sequential,
and round ``r+1`` cannot start before round ``r`` has delivered, so the
simulated makespan is the critical path over rounds::

    makespan = sum over rounds r, over depths d of
               max over receivers v at depth d of
                   max over edges e into v of (latency_e + jitter_e(r))
                   + sum over edges e into v of bits_{e,r} / bandwidth_e

Jitter is drawn deterministically per (endpoint, round) from a seeded
stream, so a given ``NetworkConditions`` object prices a given transcript
identically every time it is asked.

With the default (ideal) conditions every link has zero latency and
infinite bandwidth, so the makespan of every existing transcript is 0.0
and nothing about the recorded cost reports changes.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.comm.accounting import Message
from repro.comm.tree import TreeSpec

__all__ = [
    "IDEAL_LINK",
    "LinkModel",
    "NetworkConditions",
    "simulate_tree_makespan",
]


@dataclass(frozen=True)
class LinkModel:
    """Timing model of one network edge.

    Parameters
    ----------
    latency:
        Fixed seconds added once per round in which the link is active
        (propagation delay; a *straggler* site is modelled by a large
        per-site latency override).
    bandwidth:
        Link throughput in bits per second (``inf`` = transfer is free).
    jitter:
        Upper bound of a uniform extra per-round delay in seconds, drawn
        from the seeded stream of the enclosing :class:`NetworkConditions`.
    """

    latency: float = 0.0
    bandwidth: float = math.inf
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.latency < 0 or math.isnan(self.latency):
            raise ValueError(f"latency must be >= 0, got {self.latency}")
        if self.bandwidth <= 0 or math.isnan(self.bandwidth):
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")
        if self.jitter < 0 or math.isnan(self.jitter):
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")


#: The default: zero latency, infinite bandwidth, no jitter — makespan 0.
IDEAL_LINK = LinkModel()


class NetworkConditions:
    """One experimental condition of a star network.

    Parameters
    ----------
    default:
        The :class:`LinkModel` of every link without an override.
    overrides:
        Per-edge link models, keyed by the edge's child endpoint: a site
        (e.g. one straggler) or an aggregator.
    dropped:
        Site names declared *dropped* for this condition.  The transports
        themselves never consult this — dropout is a protocol-level policy
        (see :class:`repro.engine.runtime.Runtime` and
        ``StreamingSession.drop_site``) — but carrying it here keeps the
        whole scenario in one object.
    jitter_seed:
        Seed of the deterministic per-(site, round) jitter stream.
    deadline:
        Per-site response deadline in simulated seconds.  A site whose
        link latency exceeds the deadline is a *straggler*: quorum-mode
        runtimes (:class:`repro.engine.runtime.Runtime` with ``quorum=``)
        answer without it, and streaming sessions fold its delta in late
        (see ``StreamingSession``).  ``None`` (default) disables the
        deadline; like ``dropped``, the transports never consult it.
    faults:
        Optional :class:`repro.engine.robust.FaultPlan` — the declarative
        corruption scenario (site → adversary) applied by the engine to
        the named sites' uploaded summaries.  Carried here, untouched, so
        a Byzantine condition is one object alongside timing and dropout.
    regions:
        Per-*region* link models for aggregation trees, keyed by
        aggregator name: an edge without an exact override inherits the
        model of its nearest enclosing region aggregator before falling
        back to ``default``.  A network rejects regions that name none of
        its aggregators, so the flat star rejects every region; see
        :class:`repro.comm.network.Network`.
    """

    def __init__(
        self,
        default: LinkModel = IDEAL_LINK,
        *,
        overrides: Mapping[str, LinkModel] | None = None,
        dropped: Iterable[str] = (),
        jitter_seed: int = 0,
        deadline: float | None = None,
        faults=None,
        regions: Mapping[str, LinkModel] | None = None,
    ) -> None:
        self.default = default
        self.overrides = dict(overrides or {})
        self.dropped = frozenset(dropped)
        self.jitter_seed = int(jitter_seed)
        if deadline is not None and (deadline <= 0 or math.isnan(deadline)):
            raise ValueError(f"deadline must be > 0 seconds, got {deadline}")
        self.deadline = None if deadline is None else float(deadline)
        self.faults = faults
        self.regions = dict(regions or {})

    def edge_link(self, child_name: str, ancestors: Sequence[str] = ()) -> LinkModel:
        """The model governing one tree edge (keyed by its child endpoint).

        Resolution order: exact per-endpoint override, then the nearest
        enclosing region aggregator (``ancestors`` nearest-first, as
        :meth:`repro.comm.tree.TreeSpec.ancestors` yields them — the edge's
        own child counts as its first candidate region when it is an
        aggregator), then :attr:`default`.
        """
        if child_name in self.overrides:
            return self.overrides[child_name]
        if self.regions:
            for region in (child_name, *ancestors):
                if region in self.regions:
                    return self.regions[region]
        return self.default

    def jitter_seconds(self, name: str, round_index: int, model: LinkModel) -> float:
        """The deterministic jitter draw for one (endpoint, round) burst.

        A pure function of ``(jitter_seed, name, round_index)``, so
        re-pricing the same transcript with the same conditions always
        yields the same makespan.
        """
        if model.jitter <= 0:
            return 0.0
        entropy = [self.jitter_seed, zlib.crc32(name.encode()), round_index]
        draw = np.random.default_rng(np.random.SeedSequence(entropy))
        return float(draw.uniform(0.0, model.jitter))

    def excluding(self, names: Iterable[str]) -> "NetworkConditions":
        """A copy with ``names`` additionally declared dropped.

        Quorum-mode drivers exclude stragglers before wiring the sub-star;
        folding them into ``dropped`` keeps their link overrides legitimate
        under :class:`repro.comm.network.Network`'s typo check, exactly
        like pre-declared dropped sites.
        """
        names = frozenset(names)
        if not names:
            return self
        return NetworkConditions(
            self.default,
            overrides=self.overrides,
            dropped=self.dropped | names,
            jitter_seed=self.jitter_seed,
            deadline=self.deadline,
            faults=self.faults,
            regions=self.regions,
        )

    def is_ideal(self) -> bool:
        """True when every link is the ideal model (makespan trivially 0)."""
        return self.default == IDEAL_LINK and not self.overrides and not self.regions

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        parts = [f"default={self.default}"]
        if self.overrides:
            parts.append(f"overrides={self.overrides}")
        if self.dropped:
            parts.append(f"dropped={sorted(self.dropped)}")
        if self.regions:
            parts.append(f"regions={self.regions}")
        if self.deadline is not None:
            parts.append(f"deadline={self.deadline}")
        if self.faults is not None:
            parts.append(f"faults={self.faults}")
        return f"NetworkConditions({', '.join(parts)})"


def simulate_tree_makespan(
    rounds: Mapping[int, Iterable[Message]],
    conditions: NetworkConditions,
    tree: TreeSpec,
) -> tuple[float, dict[int, float]]:
    """Price a transcript: multi-level critical path, serialized fan-in.

    The one pricing model of every network (the flat star is the depth-1
    ``tree``), returning ``(total makespan seconds, per-round makespans)``.
    A transcript is priced the way a hierarchy actually drains:

    * ``rounds`` is :meth:`~repro.comm.accounting.MessageLog.per_round`'s
      grouping: per round, its cells, each the summed bits of one
      ``(sender, receiver, label)``;
    * every cell belongs to one tree **edge**, keyed by its child
      endpoint; the edge's :class:`LinkModel` resolves via
      :meth:`NetworkConditions.edge_link` (override > nearest region >
      default);
    * per round, cells group by **receiver node**, and an edge's cells sum
      to its burst.  A node's ingress is serialized — propagation
      overlaps, payload drain does not — so its time is ``max(latency +
      jitter over incoming edges) + sum(bits / bandwidth over incoming
      edges)``.  This is exactly the fan-in bottleneck the tree exists to
      break: a flat root receives k bursts back to back, a fan-out-F node
      only F;
    * nodes at the same depth work in parallel, while levels are
      sequential (a parent cannot forward before its children delivered),
      so the round's time is the sum over depths of the slowest receiver
      at that depth.

    On the depth-1 :class:`~repro.comm.tree.TreeSpec` — the flat star —
    all k uploads serialize into the root, while each site receives its
    downstream burst in parallel with the others.
    """
    per_round: dict[int, float] = {}
    for round_index, messages in sorted(rounds.items()):
        # receiver node -> child-endpoint edge -> bits of its burst
        ingress: dict[str, dict[str, int]] = {}
        for message in messages:
            if tree.parent.get(message.sender) == message.receiver:
                child = message.sender
            elif tree.parent.get(message.receiver) == message.sender:
                child = message.receiver
            else:  # pragma: no cover - guarded by Network routing
                raise ValueError(
                    f"message {message.sender!r} -> {message.receiver!r} "
                    "travels no edge of the tree"
                )
            edges = ingress.setdefault(message.receiver, {})
            edges[child] = edges.get(child, 0) + message.bits
        depth_time: dict[int, float] = {}
        for receiver, edges in ingress.items():
            latency = 0.0
            drain = 0.0
            for child, bits in edges.items():
                model = conditions.edge_link(child, tree.ancestors(child))
                latency = max(
                    latency,
                    model.latency
                    + conditions.jitter_seconds(child, round_index, model),
                )
                if not math.isinf(model.bandwidth):
                    drain += bits / model.bandwidth
            node_time = latency + drain
            depth = tree.node_depth(receiver)
            depth_time[depth] = max(depth_time.get(depth, 0.0), node_time)
        per_round[round_index] = sum(depth_time.values())
    return sum(per_round.values()), per_round
