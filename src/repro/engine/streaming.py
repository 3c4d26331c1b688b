"""Streaming continuous-monitoring runtime over the star topology.

The engine's protocols (:mod:`repro.engine`) are *one-shot*: sites sketch a
static shard, ship one summary, and the protocol ends.  This module adds the
execution mode the distributed functional monitoring literature is actually
about: sites receive batched turnstile updates to their rows of ``A`` over a
sequence of *epochs*, ship **serialized sketch deltas** upstream (the
byte-exact wire encoding of :mod:`repro.comm.wire`, so the network meters
real encoded bytes instead of formula-estimated bits), and the coordinator
keeps live estimates of ``C = A B`` — ``l_p`` norms, support size, heavy
hitters, support samples — between syncs.

Refresh policies
----------------
``"every-epoch"``
    Every site with pending updates uploads its delta at every epoch
    boundary — the continuous-monitoring baseline.
``"threshold"``
    A site uploads only when its pending update mass exceeds ``threshold``
    times the mass it has already shipped (the classic local-drift trigger),
    so quiet sites stay silent and skewed workloads ship far fewer bytes.
    Live estimates are stale by at most the un-shipped drift.

Equivalence discipline
----------------------
A :class:`StreamingSession` is also a full
:class:`repro.engine.api.EstimatorBase`: every one-shot query (``lp_norm``,
``l0_sample``, ``heavy_hitters``, ...) runs the engine protocol over the
*accumulated* shards with the same seed-stream discipline as
:class:`repro.engine.api.ClusterEstimator`.  Because turnstile
ingestion is exact integer accumulation, a session that ingested a shard in
any epoch chunking answers those queries **bit-for-bit identically** — same
estimates, same bit counts, same rounds — to a one-shot cluster built from
the final shards with the same seed (pinned in
``tests/engine/test_streaming.py``).  The live merged summaries obey the
same discipline: after a final sync they equal, byte for byte, the
summaries of a one-shot run over the full data.

Live monitoring uses the four mergeable sketch families: AMS (live
``||C||_2^2``), the ``l_0`` sketch (live ``||C||_0``), the ``l_0`` sampler
(live support samples), and a vector-valued CountSketch (live heavy
hitters).  All are linear in ``A``, so the coordinator turns merged
``A``-space states into ``C``-space summaries by one multiplication with
its own matrix ``B``.

Linearity also decides *when* a site sketches: ``S (d1 + d2) = S d1 +
S d2``, so a batch can wait.  Ingest updates the site's shard and counters
at once and queues the batch; the epoch boundary sketches every site's
waiting rows in a few bounded passes, each one grouped update per family
across many sites, so the per-call cost of the sketch kernels is paid per
pass instead of per site and batch.  A site whose waiting rows reach the
pass budget is sketched alone at ingest, which bounds memory for epochs
that never close.  The states are the same bytes either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.comm import wire
from repro.comm.conditions import NetworkConditions
from repro.comm.protocol import ProtocolResult
from repro.comm.transport import IN_PROCESS, Transport
from repro.comm.tree import TreeSpec
from repro.core.result import HeavyHitterOutput, SampleOutput
from repro.engine.api import EstimatorBase, is_binary_data
from repro.engine.base import StarProtocol
from repro.engine.l0_sampling import finish_l0_sample
from repro.engine.topology import check_finite, normalize_tree
from repro.engine.robust import RobustPolicy, robust_merge_states
from repro.engine.runtime import (
    SERIAL_RUNTIME,
    QuorumPolicy,
    Runtime,
    SiteDroppedError,
)
from repro.sketch.ams import AmsSketch
from repro.sketch.countsketch import CountSketch
from repro.sketch.kernels import bincount_rows, exact_matmul
from repro.sketch.l0_sampler import L0Sampler
from repro.sketch.l0_sketch import L0Sketch
from repro.sketch.mergeable import MergeableSketch
from repro.sketch.serialization import deserialize_deltas, serialize_deltas

__all__ = [
    "EpochReport",
    "REFRESH_POLICIES",
    "SessionClosedError",
    "StreamingSession",
]


class SessionClosedError(RuntimeError):
    """A mutation was attempted on a closed :class:`StreamingSession`.

    The session lifecycle is a two-state machine: *open* (ingest, epoch
    boundaries, drop/restore all allowed) and *closed* (the accumulated
    data stays queryable — one-shot and live queries keep working — but
    every mutating operation raises this).  Subclasses ``RuntimeError`` so
    pre-existing callers that caught the generic error keep working.
    """

#: Supported refresh policies.
EVERY_EPOCH = "every-epoch"
THRESHOLD = "threshold"
REFRESH_POLICIES = (EVERY_EPOCH, THRESHOLD)

#: Message label for delta uploads (shows up in ``bits_by_label``).
DELTA_LABEL = "stream/delta"

#: Message label for late delta arrivals (straggler uploads folded in after
#: their epoch's quorum answered).
LATE_DELTA_LABEL = "stream/late-delta"

#: Fixed order of the monitored sketch families inside a delta bundle.
FAMILIES = ("ams", "l0", "sampler", "countsketch")

#: Most rows one sketching pass takes, summed over its sites, and the most
#: rows a site keeps waiting: a site that reaches it is sketched alone at
#: ingest.  A pass then allocates what one batch of as many rows does.  On
#: 8 sites x ~320 distinct rows (m = 64), 512 to 2,048 kept an epoch's
#: traced allocation peak at the per-site updates' 16.4 MB; one pass of all
#: 2,560 rows raised it to 21.1 MB.
_PASS_ROWS = 1 << 10


@dataclass
class EpochReport:
    """What one epoch boundary shipped.

    ``dropped`` lists the sites that were partitioned from the coordinator
    at this boundary (their pending deltas stay queued locally); ``shipped``
    marks who actually uploaded, so the two together report exactly which
    sites contributed to the coordinator's live summaries.

    Under a per-site deadline (``StreamingSession(quorum=...)`` or
    ``NetworkConditions(deadline=...)``) ``late`` lists the *stragglers* of
    this boundary: sites that shipped but whose upload missed the deadline,
    so it is queued — not merged, not metered — until it arrives.
    ``late_merged`` lists the earlier stragglers whose queued uploads were
    folded into the live summaries at this boundary (their bytes are
    metered here, labelled ``stream/late-delta``); bytes that
    :meth:`StreamingSession.collect_late` folded since the previous
    boundary count toward ``upload_bytes`` here too.  ``quorum_met`` is
    ``False`` when a quorum policy is active and fewer than ``n - f`` sites
    were connected and on time.
    """

    epoch: int
    shipped: dict[str, bool] = field(default_factory=dict)
    upload_bytes: dict[str, int] = field(default_factory=dict)
    total_bytes: int = 0
    cumulative_bytes: int = 0
    dropped: list[str] = field(default_factory=list)
    late: list[str] = field(default_factory=list)
    late_merged: list[str] = field(default_factory=list)
    quorum_met: bool = True
    #: Set by the multi-tenant session manager when a quota throttle closed
    #: this epoch without shipping (the deltas stay queued at the sites).
    throttled: bool = False


def _merge_bundle(
    target: dict[str, MergeableSketch], bundle: dict[str, MergeableSketch]
) -> None:
    """Merge every family of one delta bundle into ``target``'s sketches."""
    for key in FAMILIES:
        target[key].merge(bundle[key])


def _sketch_waiting(sites: "Sequence[_SiteStream]") -> None:
    """Sketch the sites' waiting rows into their pending states.

    Sites go in order into passes of at most ``_PASS_ROWS`` rows; a site
    alone may fill one, since it never keeps that many waiting.  A pass
    concatenates its sites' batches and makes one grouped update per family
    (``update_groups``), so the randomness is evaluated once per pass
    instead of once per site and batch.  The sketches are linear, so every
    state is the one per-batch updates would reach.
    """
    waiting = [site for site in sites if site.waiting_rows]
    while waiting:
        count, rows = 1, waiting[0].waiting_rows
        while (
            count < len(waiting)
            and rows + waiting[count].waiting_rows <= _PASS_ROWS
        ):
            rows += waiting[count].waiting_rows
            count += 1
        group, waiting = waiting[:count], waiting[count:]
        batches = [batch for site in group for batch in site.waiting]
        indices = np.concatenate([batch_rows for batch_rows, _ in batches])
        deltas = np.concatenate([batch_deltas for _, batch_deltas in batches])
        bounds = np.cumsum([0] + [site.waiting_rows for site in group])
        for key in FAMILIES:
            group[0]._pending[key].update_groups(
                indices, deltas, bounds, [site._pending[key] for site in group]
            )
        for site in group:
            site.waiting.clear()
            site.waiting_rows = 0


class _SiteStream:
    """One site's streaming state: shard, pending sketch deltas, waiting rows.

    Ingest updates the shard and the counters at once but keeps each
    coalesced batch *waiting*; the epoch boundary sketches every site's
    waiting rows in passes across sites (:func:`_sketch_waiting`).  Reading
    :attr:`pending` sketches this site's waiting rows first, so every read
    sees the current state.
    """

    def __init__(
        self,
        index: int,
        name: str,
        row_offset: int,
        num_rows: int,
        inner_dim: int,
        templates: dict[str, MergeableSketch],
    ) -> None:
        self.index = index
        self.name = name
        self.row_offset = row_offset
        self.num_rows = num_rows
        self.shard = np.zeros((num_rows, inner_dim), dtype=np.int64)
        self._pending: dict[str, MergeableSketch] = {
            key: sketch.empty_copy() for key, sketch in templates.items()
        }
        #: Coalesced batches not yet sketched, and their row count.
        self.waiting: list[tuple[np.ndarray, np.ndarray]] = []
        self.waiting_rows = 0
        self.pending_updates = 0
        self.pending_mass = 0.0
        self.shipped_mass = 0.0

    @property
    def pending(self) -> dict[str, MergeableSketch]:
        """The pending sketch deltas, with every waiting row sketched."""
        _sketch_waiting([self])
        return self._pending

    def ingest(self, rows: np.ndarray, deltas: np.ndarray) -> None:
        """Add one validated batch to the shard and queue it for sketching.

        Repeated rows are summed once, in int64, so the shard and each
        linear sketch see every distinct row once with the same state bytes
        as row by row; a batch without repeats passes in arrival order.
        ``pending_updates`` and ``pending_mass`` count the raw batch.  The
        batch waits for the epoch boundary unless this site's waiting rows
        reach ``_PASS_ROWS``; then they are sketched at once.
        """
        self.pending_updates += rows.shape[0]
        # In float64: an int64 sum wraps (1,024 x 4 deltas of 2**53 sum to 0).
        self.pending_mass += float(np.abs(deltas).sum(dtype=np.float64))
        distinct, inverse = np.unique(rows, return_inverse=True)
        if distinct.shape[0] < rows.shape[0]:
            deltas = bincount_rows(inverse, deltas, distinct.shape[0], exact_int=True)
            rows = distinct
        self.shard[rows - self.row_offset] += deltas
        self.waiting.append((rows, deltas))
        self.waiting_rows += rows.shape[0]
        if self.waiting_rows >= _PASS_ROWS:
            _sketch_waiting([self])

    def should_ship(self, refresh: str, threshold: float, *, force: bool) -> bool:
        if self.pending_updates == 0:
            return False
        if force or refresh == EVERY_EPOCH:
            return True
        if math.isinf(threshold):
            return False  # explicit policy: only forced syncs ever ship
        if self.shipped_mass == 0:
            return True  # first drift always ships (nothing to compare against)
        return self.pending_mass > threshold * self.shipped_mass

    def mark_shipped(self) -> None:
        """Reset the pending state after its serialization went on the wire.

        The serialization half is :func:`repro.sketch.serialization
        .serialize_deltas` (dispatched by ``end_epoch``); the reset waits
        until the coordinator has also merged the same pending states.
        """
        for sketch in self._pending.values():
            sketch.load_state_array(None)
        self.shipped_mass += self.pending_mass
        self.pending_mass = 0.0
        self.pending_updates = 0

    def clear_pending(self) -> None:
        """Discard queued (un-shipped) deltas without crediting them as
        shipped — the session-close path, where a dropped site's backlog
        must not survive into the closed session's counters."""
        self.waiting.clear()
        self.waiting_rows = 0
        for sketch in self._pending.values():
            sketch.load_state_array(None)
        self.pending_mass = 0.0
        self.pending_updates = 0


class StreamingSession(EstimatorBase):
    """Continuous monitoring of ``C = A B`` under streaming updates to ``A``.

    Parameters
    ----------
    row_counts:
        Rows of ``A`` owned by each site, in global row order (fixes the
        partition; ``k = len(row_counts)``).  Shards start empty and grow by
        turnstile ingestion.
    b:
        The coordinator's (static) matrix; ``b.shape[0]`` is the common
        column count of the shards.
    seed:
        Base seed.  One-shot sync queries derive per-query seeds exactly
        like :class:`~repro.engine.api.ClusterEstimator`; the
        monitoring sketches use an independent stream derived from the same
        seed, so streaming never perturbs the sync transcripts.
    refresh:
        ``"every-epoch"`` or ``"threshold"`` (see the module docstring).
    threshold:
        Drift fraction for the threshold policy.  A site's first non-empty
        drift always ships; ``inf`` means sites ship only on forced syncs.
    monitor_epsilon:
        Target accuracy of the live ``l_0`` / ``l_2`` monitors (sizes the
        AMS and ``l_0`` sketches).
    hh_depth, hh_width:
        Shape of the vector-valued CountSketch behind live heavy hitters.
    sampler_repetitions:
        Repetitions inside the live ``l_0`` sampler.
    sketch_mode:
        Randomness mode of the monitoring sketches: ``"dense"`` (default,
        per-coordinate draws — byte-compatible with all recorded
        transcripts) or ``"hash"`` (lazy hashed randomness: monitor-sketch
        construction cost and memory become independent of the row count).
        CountSketch hashes lazily in both modes.  Note the session itself
        still keeps a dense ``O(rows x inner_dim)`` accumulated shard per
        site for the one-shot queries, so the row count must remain
        RAM-sized; ``"hash"`` removes the sketches from that bill, not the
        shards.
    runtime:
        Optional :class:`repro.engine.runtime.Runtime`.  One-shot queries
        execute under it (its dropout and quorum policies for queries
        issued while sites are dropped), and delta serialization at epoch
        close is dispatched through its :meth:`~repro.engine.runtime
        .Runtime.map_async`, which runs on the coordinator.
    conditions:
        Optional :class:`repro.comm.conditions.NetworkConditions` — the
        session's network then prices shipped deltas into a simulated
        makespan (``session.network.makespan()``), and one-shot queries
        inherit the link models.  Sites the conditions declare ``dropped``
        start partitioned (exactly as if :meth:`drop_site` had been called),
        so epoch boundaries and queries see one consistent fault state;
        :meth:`restore_site` reconnects them.
    dropout:
        Epoch-close policy for sites marked dropped via :meth:`drop_site`:
        ``"exclude"`` (default) keeps their deltas queued locally — they
        ship on a later epoch after :meth:`restore_site`, restoring the
        streamed == one-shot summary identity — while ``"fail"`` raises
        :class:`repro.engine.runtime.SiteDroppedError` as soon as a dropped
        site *would* have shipped.
    quorum:
        Optional :class:`repro.engine.runtime.QuorumPolicy` (or an
        ``(n, f)`` pair).  Its ``deadline`` (falling back to
        ``conditions.deadline``) turns slow shippers into *stragglers*:
        their uploads are queued and folded in on arrival (the next
        boundary, or :meth:`collect_late`) instead of blocking the epoch —
        and because merges are linear sums, the folded state is
        bit-identical to an on-time ship.  Epoch reports carry
        ``late`` / ``late_merged`` / ``quorum_met``.  Defaults to the
        runtime's quorum policy when one is set.
    robust:
        Optional :class:`repro.engine.robust.RobustPolicy` (or a bare
        ``f``).  The session then additionally keeps each site's
        *cumulative* shipped state, so live queries can answer through the
        coordinatewise robust merge (``live_lp_norm(..., robust=True)``)
        tolerating up to f corrupt sites.  Any
        :class:`~repro.engine.robust.FaultPlan` on the conditions corrupts
        the named sites' shipped deltas (state and wire bytes alike) —
        not their local shards — so one-shot queries stay clean while the
        live summaries feel the attack, exactly the Byzantine scenario.
    """

    def __init__(
        self,
        row_counts: Sequence[int],
        b: np.ndarray,
        *,
        seed: int | None = None,
        refresh: str = EVERY_EPOCH,
        threshold: float = 0.2,
        monitor_epsilon: float = 0.25,
        hh_depth: int = 5,
        hh_width: int = 64,
        sampler_repetitions: int = 8,
        sketch_mode: str = "dense",
        site_names: Sequence[str] | None = None,
        runtime: Runtime | None = None,
        conditions: NetworkConditions | None = None,
        transport: Transport | None = None,
        dropout: str = "exclude",
        quorum: "QuorumPolicy | tuple | int | None" = None,
        robust: "RobustPolicy | int | None" = None,
        tree: "TreeSpec | int | None" = None,
    ) -> None:
        super().__init__(
            seed=seed, runtime=runtime, conditions=conditions, transport=transport
        )
        if dropout not in ("fail", "exclude"):
            raise ValueError(f"dropout must be 'fail' or 'exclude', got {dropout!r}")
        self.dropout = dropout
        if quorum is None and runtime is not None:
            quorum = runtime.quorum
        self.quorum = QuorumPolicy.coerce(quorum)
        self.robust = RobustPolicy.coerce(robust)
        self._faults = conditions.faults if conditions is not None else None
        #: Straggler uploads awaiting arrival: (site name, wire payload).
        self._late_queue: list[tuple[str, bytes]] = []
        #: Bytes folded by :meth:`collect_late`, credited to the next report.
        self._collected_bytes: dict[str, int] = {}
        self._dropped: set[int] = set()  # seeded from conditions.dropped below
        row_counts = [int(count) for count in row_counts]
        if not row_counts or any(count < 0 for count in row_counts):
            raise ValueError(
                "row_counts must be a non-empty list of non-negative ints"
            )
        if sum(row_counts) < 1:
            # Zero-row *sites* are fine (they simply never ingest); a
            # zero-row *universe* leaves the sketches nothing to hash.
            raise ValueError("row_counts must cover at least one row in total")
        if refresh not in REFRESH_POLICIES:
            raise ValueError(f"refresh must be one of {REFRESH_POLICIES}, got {refresh!r}")
        if math.isnan(threshold) or threshold < 0:
            raise ValueError(
                "threshold must be non-negative (inf = ship only on sync)"
            )
        b = np.asarray(b)
        if b.ndim != 2:
            raise ValueError("b must be a 2-dimensional matrix")
        check_finite(b, "B")
        self.b = b
        # B is static for the session's lifetime: both live-query views are
        # materialized once.  Integer dtypes widen to int64 for the exact
        # paths; float matrices pass through (the l_0 estimators handle
        # float states with a tolerance, and truncating would zero
        # fractional entries).
        self._b_float = b.astype(float)
        self._b_exact = (
            b.astype(np.int64) if np.issubdtype(b.dtype, np.integer) else b
        )
        self.total_rows = sum(row_counts)
        self.refresh = refresh
        self.threshold = float(threshold)

        k = len(row_counts)
        if site_names is None:
            site_names = [f"site-{i}" for i in range(k)]
        if len(site_names) != k:
            raise ValueError(f"got {len(site_names)} site names for {k} row counts")
        if self.robust is not None:
            self.robust.check_sites(k)
        if self.quorum is not None:
            self.quorum.required(k)  # raises when n exceeds the site count
        #: Optional aggregation-tree overlay over this session's sites.
        #: Delta uploads then hop leaf -> aggregator -> ... -> root, with
        #: aggregators forwarding ONE partially merged bundle upstream, so
        #: the root's wire ingress is fan-out-many payloads instead of k.
        #: Live summaries and one-shot queries stay bit-identical to the
        #: flat session (exact integer sketch states merge associatively).
        self.tree = normalize_tree(tree, site_names)
        self.network = (transport or IN_PROCESS).build_network(
            site_names, "coordinator", conditions, tree=self.tree
        )
        # The scenario's static dropped-site declarations become the initial
        # dynamic partition set, so epoch boundaries and one-shot queries see
        # one consistent fault state (restore_site reconnects either kind).
        if conditions is not None and conditions.dropped:
            index_of = {name: i for i, name in enumerate(site_names)}
            # Regional dropout: a dropped aggregator name stands for every
            # leaf of its subtree, as in the one-shot driver.
            dropped_names = self.network.tree.expand_regions(conditions.dropped)
            unknown = dropped_names - set(index_of)
            if unknown:
                raise ValueError(
                    f"dropped sites {sorted(unknown)} match no site of this "
                    f"session (sites: {list(site_names)})"
                )
            self._dropped = {index_of[name] for name in dropped_names}

        # Shared monitoring randomness: independent of the query seed stream
        # (EstimatorBase) so streaming never shifts one-shot transcripts.
        if seed is None:
            monitor_rng = np.random.default_rng()
        else:
            monitor_rng = np.random.default_rng(
                np.random.SeedSequence([0x515E_A000, seed])
            )
        if sketch_mode not in ("dense", "hash"):
            raise ValueError(
                f"sketch_mode must be 'dense' or 'hash', got {sketch_mode!r}"
            )
        self.sketch_mode = sketch_mode
        # FAMILIES fixes both the construction order (each constructor draws
        # from the shared monitor stream) and the delta-bundle framing.
        builders = {
            "ams": lambda: AmsSketch.for_accuracy(
                self.total_rows, monitor_epsilon, monitor_rng, mode=sketch_mode
            ),
            "l0": lambda: L0Sketch.for_accuracy(
                self.total_rows, monitor_epsilon, monitor_rng, mode=sketch_mode
            ),
            "sampler": lambda: L0Sampler(
                self.total_rows,
                monitor_rng,
                repetitions=sampler_repetitions,
                mode=sketch_mode,
            ),
            "countsketch": lambda: CountSketch(
                self.total_rows, hh_width, hh_depth, monitor_rng
            ),
        }
        self.templates: dict[str, MergeableSketch] = {
            name: builders[name]() for name in FAMILIES
        }
        self._live_rng = np.random.default_rng(monitor_rng.integers(0, 2**63 - 1))
        self.merged: dict[str, MergeableSketch] = {
            key: sketch.empty_copy() for key, sketch in self.templates.items()
        }
        # Robust mode keeps each site's cumulative shipped state alongside
        # the global merge, so live queries can re-aggregate through the
        # trimmed/median combiner at query time.
        self.site_merged: list[dict[str, MergeableSketch]] | None = (
            [
                {key: sketch.empty_copy() for key, sketch in self.templates.items()}
                for _ in range(len(row_counts))
            ]
            if self.robust is not None
            else None
        )

        offsets = np.concatenate(([0], np.cumsum(row_counts)[:-1]))
        self.sites = [
            _SiteStream(
                i, site_names[i], int(offsets[i]), row_counts[i], b.shape[0],
                self.templates,
            )
            for i in range(k)
        ]
        self.epoch = 0
        self.history: list[EpochReport] = []
        self._b_is_binary = is_binary_data(b)
        self._shards_binary_cache: bool | None = None
        self._closed = False

    def close(self) -> None:
        """Close the session, keeping the accumulated data queryable.

        This is the open→closed transition of the session state machine
        (see :class:`SessionClosedError`): afterwards the session still
        answers one-shot and live queries over what it accumulated, while
        :meth:`ingest`, :meth:`end_epoch`/:meth:`sync` and
        :meth:`drop_site`/:meth:`restore_site` raise.  Idempotent.

        Pending (un-shipped) deltas — including a dropped site's queued
        backlog and any straggler uploads still in flight (see
        :meth:`collect_late`) — are *discarded*, never merged: a closed
        session's live summaries reflect exactly what arrived before the
        close.
        """
        if self._closed:
            return
        self._closed = True
        self._late_queue.clear()
        for site in self.sites:
            site.clear_pending()

    def __enter__(self) -> "StreamingSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------- construct
    @property
    def num_sites(self) -> int:
        return len(self.sites)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (mutations now raise)."""
        return self._closed

    def _check_site_index(self, site: int) -> None:
        if not 0 <= site < len(self.sites):
            raise ValueError(f"site index {site} out of range [0, {len(self.sites)})")

    def _check_open(self, operation: str) -> None:
        if self._closed:
            raise SessionClosedError(
                f"cannot {operation} on a closed streaming session "
                f"(the accumulated data remains queryable)"
            )

    @property
    def is_binary(self) -> bool:
        """Whether the *current* accumulated data is 0/1 (drives dispatch).

        Recomputed from the shards at most once per ingest (turnstile
        deletions can restore binarity, so the flag cannot be maintained
        falsified-once); back-to-back queries reuse the cache.
        """
        if not self._b_is_binary:
            return False
        if self._shards_binary_cache is None:
            self._shards_binary_cache = is_binary_data(
                *(site.shard for site in self.sites)
            )
        return self._shards_binary_cache

    def shards(self) -> list[np.ndarray]:
        """The accumulated per-site shards of ``A`` (global row order)."""
        return [site.shard for site in self.sites]

    # ---------------------------------------------------------------- faults
    def drop_site(self, site: int) -> None:
        """Declare a site partitioned from the coordinator.

        While dropped the site keeps ingesting locally (its pending deltas
        queue up) but cannot upload at epoch boundaries; what happens then
        is the session's ``dropout`` policy.  Live estimates go stale by
        exactly the un-shipped drift — and recover fully once the site is
        restored and ships its backlog, because deltas are linear.
        """
        self._check_open("drop a site")
        self._check_site_index(site)
        self._dropped.add(site)

    def restore_site(self, site: int) -> None:
        """Reconnect a dropped site; its backlog ships on the next boundary.

        Raises :class:`SessionClosedError` after :meth:`close` — a dropped
        site's queued deltas are discarded by the close, so "restoring" it
        could never ship them and would only misreport connectivity.
        """
        self._check_open("restore a site")
        self._check_site_index(site)
        self._dropped.discard(site)

    @property
    def dropped_sites(self) -> list[str]:
        """Names of the currently dropped sites."""
        return [self.sites[i].name for i in sorted(self._dropped)]

    @property
    def contributing_sites(self) -> list[str]:
        """Names of the sites currently connected to the coordinator."""
        return [
            site.name for i, site in enumerate(self.sites) if i not in self._dropped
        ]

    # ---------------------------------------------------------------- ingest
    def ingest(self, site: int, rows: Any, deltas: Any) -> None:
        """Apply a batched turnstile update at one site.

        ``rows`` are *global* row indices inside the site's range and
        ``deltas`` is an integer matrix of shape ``(len(rows), m)`` added to
        those rows of ``A`` (negative entries are deletions).  Integer
        deltas keep every sketch state exact — provided the *accumulated*
        bucket magnitudes also stay within the float64-exact ``2**53`` range
        — which is what makes streamed and one-shot summaries bit-identical.
        A row may repeat within a batch: its deltas are summed in int64
        before the shard and the sketches see it, while the threshold
        policy's update count and mass still count every raw row.  The
        shard and the counters change at once; the monitor sketches see the
        batch at the epoch boundary (see the module docstring).
        """
        self._check_open("ingest")
        self._check_site_index(site)
        target = self.sites[site]
        rows = np.asarray(rows)
        # Fractional row indices are rejected like the deltas below, never
        # truncated onto a neighbouring row; so are complex, string and
        # object arrays, which the integer test cannot read.
        if not np.issubdtype(rows.dtype, np.integer):
            if rows.dtype.kind not in "bf" or not wire.is_exact_integer_valued(rows):
                raise ValueError("rows must be integer-valued global row indices")
        # Copied: the batch waits at the site until the epoch boundary.
        rows = rows.astype(np.int64).reshape(-1)
        deltas = np.asarray(deltas)
        # Every delta — float *or* integer dtype — must be an integer within
        # the float64-exact range +-2**53: the AMS and CountSketch monitor
        # states are float64 sums, so a larger magnitude would round there
        # and break the streamed==one-shot bit-identity.  Out-of-range or
        # fractional values are rejected, never truncated.  (Same invariant
        # as the wire codec's float->int downcast.)
        if not np.issubdtype(deltas.dtype, np.integer):
            if deltas.dtype.kind not in "bf" or not wire.is_exact_integer_valued(
                deltas
            ):
                raise ValueError(
                    "turnstile deltas must be integer-valued within the "
                    "float64-exact range 2**53"
                )
        elif deltas.size and (
            int(deltas.min()) < -(2**53) or int(deltas.max()) > 2**53
        ):
            raise ValueError(
                "turnstile deltas must be integer-valued within the "
                "float64-exact range 2**53"
            )
        deltas = deltas.astype(np.int64)
        if deltas.ndim != 2 or deltas.shape != (rows.shape[0], self.b.shape[0]):
            raise ValueError(
                f"deltas must have shape ({rows.shape[0]}, {self.b.shape[0]}), "
                f"got {deltas.shape}"
            )
        low, high = target.row_offset, target.row_offset + target.num_rows
        if rows.size and (rows.min() < low or rows.max() >= high):
            raise ValueError(
                f"rows must lie in {target.name}'s range [{low}, {high})"
            )
        if rows.size:
            target.ingest(rows, deltas)
            self._shards_binary_cache = None

    # ---------------------------------------------------------------- epochs
    def end_epoch(self, *, force: bool = False) -> EpochReport:
        """Close the current epoch, shipping deltas per the refresh policy.

        With ``force=True`` every pending delta is shipped regardless of the
        policy (a *sync*): afterwards the coordinator's merged summaries
        equal a one-shot sketching of the full accumulated data — provided
        no site is dropped; dropped sites cannot upload even on a sync (the
        ``dropout`` policy decides whether that raises or merely queues),
        and the identity is restored by the first sync after every site is
        back.

        First every site's waiting rows are sketched into its pending
        states, dropped and held-back sites' included, in passes across
        sites.  The sites' deltas are encoded on the coordinator under every
        runtime, and one bottom-up merge pass (:meth:`_ship_aggregated`)
        carries the on-time deltas from the pending sketch states up the
        tree into the coordinator's summaries, with no decode step.  Merges
        and sends run in a fixed order, so the shipped bytes and the merged
        summaries are the same byte for byte under every runtime.
        """
        self._check_open("close an epoch")
        # Decide (and possibly fail) before any state mutates, so a raised
        # boundary leaves the epoch counter and history untouched.
        decisions: list[bool] = []
        for index, site in enumerate(self.sites):
            wants_to_ship = site.should_ship(self.refresh, self.threshold, force=force)
            if index in self._dropped:
                if wants_to_ship and self.dropout == "fail":
                    raise SiteDroppedError(
                        [site.name],
                        f"dropped site {site.name!r} has pending deltas at the "
                        f"epoch boundary (dropout policy 'fail')",
                        policy=self.dropout,
                        surviving=len(self.sites) - len(self._dropped),
                    )
                wants_to_ship = False
            decisions.append(wants_to_ship)

        # Every site's waiting rows reach its pending states now, dropped
        # and held-back sites' included, in passes across sites.
        _sketch_waiting(self.sites)
        self.epoch += 1
        report = EpochReport(epoch=self.epoch, upload_bytes=self._collected_bytes)
        self._collected_bytes = {}
        # Straggler uploads from earlier boundaries arrive now: fold them in
        # before this epoch's own ships (arrival order, then site order).
        self._fold_late(report)
        shipping: list[_SiteStream] = []
        for index, (site, ships) in enumerate(zip(self.sites, decisions)):
            if index in self._dropped:
                report.dropped.append(site.name)
            report.shipped[site.name] = ships
            if ships:
                shipping.append(site)

        # Stragglers: shipping sites whose upload misses the per-site
        # deadline under the conditions' latencies.  Their payloads are
        # built and their pending state reset exactly like an on-time ship
        # — only the merge and the meter wait for the arrival.
        deadline = self.deadline
        late_now: set[str] = set()
        if deadline is not None and self.conditions is not None:
            late_now = {
                site.name
                for site in shipping
                if self._upload_latency(site.name) > deadline
            }
        if self.quorum is not None:
            on_time = len(self.sites) - len(self._dropped) - len(late_now)
            report.quorum_met = on_time >= self.quorum.required(len(self.sites))

        payload_of: dict[str, bytes] = {}
        relays: list[tuple[str, bytes]] = []
        if shipping:
            runtime = self.runtime if self.runtime is not None else SERIAL_RUNTIME
            # A FaultPlan corrupts the named sites' *uploads* — the state
            # that is serialized and the state that is merged, consistently
            # — while the sites' local shards stay honest.
            uploads: dict[str, dict[str, MergeableSketch]] = {}
            for site in shipping:
                if (
                    self._faults is not None
                    and site.name in self._faults.corrupt_sites
                ):
                    uploads[site.name] = self._corrupt_pending(site)
                else:
                    uploads[site.name] = site.pending
            # ``map_async``, not ``map``: it runs on the coordinator under
            # every runtime, while a socket runtime's ``map`` would ship
            # every site's pending sketches out as tasks to encode there.
            payloads = runtime.map_async(
                serialize_deltas, [(uploads[site.name],) for site in shipping]
            )()
            payload_of = {
                site.name: payload for site, payload in zip(shipping, payloads)
            }
            # The pending sketches *are* the deltas the wire would carry
            # (the codec round-trips states exactly), so merge them up the
            # tree straight from the states; ``mark_shipped`` resets them
            # below.
            relays = self._ship_aggregated(
                [site for site in shipping if site.name not in late_now],
                uploads,
                payload_of,
            )
        on_time: list[tuple[_SiteStream, bytes]] = []
        for site in self.sites:
            payload = payload_of.get(site.name)
            if payload is None:
                report.upload_bytes.setdefault(site.name, 0)
                continue
            site.mark_shipped()
            if site.name in late_now:
                # In flight: metered (and merged) on arrival.
                self._late_queue.append((site.name, payload))
                report.late.append(site.name)
                report.upload_bytes.setdefault(site.name, 0)
                continue
            on_time.append((site, payload))
        # Sends run only after *every* shipped site's pending state is
        # reset: the deltas are already merged above, so a send that fails
        # partway (a real transport timing out mid-boundary) must not leave
        # the remaining sites' pending un-reset — the next boundary would
        # re-ship and double-merge them.  Send order stays site order, so
        # transcripts are unchanged.
        for site, payload in on_time:
            # First hop of the route: leaf -> its parent (the coordinator on
            # a flat network).
            self.network.upstream_hop(
                site.name, payload, label=DELTA_LABEL, bits=wire.payload_bits(payload)
            )
            report.upload_bytes[site.name] = (
                report.upload_bytes.get(site.name, 0) + len(payload)
            )
        # Then the aggregator relays, one merged bundle per interior edge.
        for agg, payload in relays:
            self.network.upstream_hop(
                agg, payload, label=DELTA_LABEL, bits=wire.payload_bits(payload)
            )
        report.total_bytes = sum(report.upload_bytes.values())
        report.cumulative_bytes = (self.history[-1].cumulative_bytes if self.history else 0)
        report.cumulative_bytes += report.total_bytes
        self.history.append(report)
        return report

    def _upload_latency(self, site_name: str) -> float:
        """The latency pricing one site's upload (region-aware on trees)."""
        return self.conditions.edge_link(
            site_name, self.network.tree.ancestors(site_name)
        ).latency

    def _ship_aggregated(
        self,
        on_time: "list[_SiteStream]",
        uploads: dict[str, dict[str, MergeableSketch]],
        payload_of: dict[str, bytes],
    ) -> list[tuple[str, bytes]]:
        """Merge the on-time delta bundles up the tree in one bottom-up pass.

        Deepest first, every aggregator with an on-time descendant merges
        its children's bundles and encodes the result once; the returned
        ``(aggregator, payload)`` relays, in that order, are what each
        interior edge forwards, so the root's wire ingress is
        fan-out-many payloads instead of k.  An aggregator with one on-time
        child forwards that child's bundle unchanged, and with it the bytes
        already encoded from that same bundle object: the site's upload
        ``payload_of[name]`` (``serialize_deltas(uploads[name])``, a
        FaultPlan copy included) or the child aggregator's relay.  The root
        merges its own children's bundles — on the flat star, the sites' in
        site order — into the coordinator's summaries.  Nothing is decoded:
        the bundles are the states the wire carries, and exact integer
        states merge to the same bytes in any grouping (a FaultPlan's
        fractional corruption is summed in the tree's grouping instead).
        In robust mode each site's bundle also goes to that site's
        cumulative slot.
        """
        tree = self.network.tree
        bundles = {site.name: uploads[site.name] for site in on_time}
        payloads = dict(payload_of)
        if self.site_merged is not None:
            for site in on_time:
                _merge_bundle(self.site_merged[site.index], bundles[site.name])
        relays: list[tuple[str, bytes]] = []
        # Bottom-up, so a parent sees its child aggregators' merged bundles.
        for agg in tree.bottom_up:
            children = [child for child in tree.children[agg] if child in bundles]
            if not children:
                continue
            if len(children) == 1:
                merged = bundles.pop(children[0])
                payloads[agg] = payloads[children[0]]
            else:
                merged = {
                    key: self.templates[key].empty_copy() for key in FAMILIES
                }
                for child in children:
                    _merge_bundle(merged, bundles.pop(child))
                payloads[agg] = serialize_deltas(merged)
            relays.append((agg, payloads[agg]))
            bundles[agg] = merged
        for child in tree.children[tree.root]:
            if child in bundles:
                _merge_bundle(self.merged, bundles[child])
        return relays

    def _corrupt_pending(self, site: "_SiteStream") -> dict[str, MergeableSketch]:
        """One corrupt site's upload: its pending states through the plan.

        Keyed per (site, family, epoch) so the scenario replays exactly;
        the returned sketches are detached copies — the site's own pending
        state stays honest and resets normally.
        """
        corrupted: dict[str, MergeableSketch] = {}
        for key in FAMILIES:
            sketch = self.templates[key].empty_copy()
            state = site.pending[key].state_array()
            if state is not None:
                state = np.asarray(
                    self._faults.corrupt(site.name, state, self.epoch, channel=key),
                    dtype=float,
                )
            sketch.load_state_array(state)
            corrupted[key] = sketch
        return corrupted

    def _fold_late(self, report: "EpochReport | None") -> list[tuple[str, int]]:
        """Merge every queued straggler upload into the live summaries.

        Decodes the queued wire payloads (the codec round-trips states
        exactly, so a late fold is bit-identical to an on-time merge) and
        meters the arrival under ``stream/late-delta``.  A fold at a
        boundary is listed in ``report.late_merged``; its bytes go to
        ``report``, or without one to the next boundary's report.
        """
        folded: list[tuple[str, int]] = []
        if not self._late_queue:
            return folded
        index_of = {site.name: site.index for site in self.sites}
        for name, payload in self._late_queue:
            deltas = deserialize_deltas(self.templates, payload)
            _merge_bundle(self.merged, deltas)
            if self.site_merged is not None:
                _merge_bundle(self.site_merged[index_of[name]], deltas)
            bits = wire.payload_bits(payload)
            # A straggler's bundle has no merge partner at any level: its
            # bytes traverse every hop of its path unchanged.
            for child in reversed(self.network.tree.path_edges(name)):
                self.network.upstream_hop(
                    child, payload, label=LATE_DELTA_LABEL, bits=bits
                )
            if report is not None:
                report.late_merged.append(name)
            credit = self._collected_bytes if report is None else report.upload_bytes
            credit[name] = credit.get(name, 0) + len(payload)
            folded.append((name, len(payload)))
        self._late_queue.clear()
        return folded

    def collect_late(self) -> dict[str, int]:
        """Fold queued straggler uploads into the live summaries *now*.

        The automatic fold happens at the next epoch boundary; this is the
        explicit arrival point for callers that need the stragglers' state
        without closing another epoch (e.g. before a final live query).
        The folded bytes count toward the next :class:`EpochReport`'s
        ``upload_bytes``, though its ``late_merged`` does not list them.
        Returns ``{site name: folded payload bytes}``; empty when nothing
        was queued.
        """
        self._check_open("collect late deltas")
        counts: dict[str, int] = {}
        for name, nbytes in self._fold_late(None):
            counts[name] = counts.get(name, 0) + nbytes
        return counts

    @property
    def late_pending(self) -> list[str]:
        """Names of sites with an upload still in flight (queued late)."""
        return sorted({name for name, _ in self._late_queue})

    @property
    def deadline(self) -> float | None:
        """The active per-site upload deadline (quorum's, else conditions')."""
        if self.quorum is not None and self.quorum.deadline is not None:
            return self.quorum.deadline
        return self.conditions.deadline if self.conditions is not None else None

    def sync(self) -> EpochReport:
        """Force-ship every pending delta (threshold policy included)."""
        return self.end_epoch(force=True)

    @property
    def total_upload_bytes(self) -> int:
        """Bytes the sites shipped upstream so far (8 metered bits each).

        Counts the sites' own uploads only, late folds included: on a tree
        session the aggregators' relays of merged bundles are metered on
        the network too, but they re-ship bytes the sites already sent.
        """
        return sum(self.network.bits_sent_by(site.name) for site in self.sites) // 8

    # ----------------------------------------------------------- live queries
    def _robust_sketch(self, key: str) -> MergeableSketch | None:
        """The robust combination of the per-site cumulative summaries.

        Stacks every site's accumulated ``key`` state (zeros for sites that
        never shipped — an honest empty contribution) and combines them
        with the session's :class:`~repro.engine.robust.RobustPolicy`
        instead of the plain sum, so up to ``f`` Byzantine sites cannot
        drag the estimate arbitrarily.  Returns ``None`` while nothing has
        shipped at all.
        """
        if self.robust is None or self.site_merged is None:
            raise ValueError(
                "robust live queries need StreamingSession(robust=...); "
                "this session was built without a robust policy"
            )
        reference = self.merged[key].state_array()
        if reference is None:
            return None
        states = []
        for per_site in self.site_merged:
            state = per_site[key].state_array()
            states.append(np.zeros_like(reference) if state is None else state)
        combined = robust_merge_states(states, self.robust)
        sketch = self.templates[key].empty_copy()
        sketch.load_state_array(np.asarray(combined))
        return sketch

    def live_lp_norm(self, p: float = 2.0, *, robust: bool = False) -> float:
        """Live ``||C||_p^p`` from the shipped summaries (``p`` in {0, 2}).

        ``p = 2`` reads the merged AMS summary, ``p = 0`` the merged ``l_0``
        summary; both reflect exactly the deltas shipped so far (threshold
        refresh trades staleness for bytes).  With ``robust=True`` (needs a
        session ``robust=`` policy) the per-site cumulative summaries are
        combined by the robust estimator instead of the plain sum.
        """
        if p == 0.0:
            return self.live_l0(robust=robust)
        if p != 2.0:
            raise ValueError(
                f"live monitoring supports p in {{0, 2}}, got {p}; run the "
                f"one-shot lp_norm({p}, ...) query for other norms"
            )
        source = self._robust_sketch("ams") if robust else self.merged["ams"]
        ams: AmsSketch = source  # type: ignore[assignment]
        if ams is None or ams.state is None:
            return 0.0
        sketched_c = ams.state @ self._b_float
        return float(ams.estimate_f2_columns(sketched_c).sum())

    def live_l0(self, *, robust: bool = False) -> float:
        """Live ``||C||_0`` (support size of the product) from shipped deltas.

        The robust combiner applies to *additive* AMS-backed estimates
        (see :meth:`live_lp_norm`); the ``l_0`` sketch's exact decode does
        not survive a trimmed/median recombination of states, so
        ``robust=True`` raises rather than silently decoding garbage.
        """
        if robust:
            raise ValueError(
                "robust recombination supports the additive AMS-backed "
                "estimates (live_lp_norm with p=2), not the exact l0 decode"
            )
        l0: L0Sketch = self.merged["l0"]  # type: ignore[assignment]
        if l0.state is None:
            return 0.0
        sketched_c = exact_matmul(l0.state, self._b_exact)
        column_l0 = np.maximum(l0.estimate_rows_pp(sketched_c.T), 0.0)
        return float(column_l0.sum())

    def live_l0_sample(self) -> SampleOutput:
        """A (near-)uniform sample from the support of ``C``, live."""
        l0: L0Sketch = self.merged["l0"]  # type: ignore[assignment]
        sampler: L0Sampler = self.merged["sampler"]  # type: ignore[assignment]
        if l0.state is None or sampler.state is None:
            return SampleOutput(row=None, col=None)
        b_int = self._b_exact
        output, _ = finish_l0_sample(
            self.templates["l0"],
            self.templates["sampler"],
            exact_matmul(l0.state, b_int),
            exact_matmul(sampler.state, b_int),
            self._live_rng,
        )
        return output

    def live_heavy_hitters(self, phi: float) -> HeavyHitterOutput:
        """Live ``l_2``-``phi`` heavy entries of ``C`` from shipped deltas.

        Point estimates come from the vector-valued CountSketch turned into
        per-column CountSketches of ``C`` (one multiplication by ``B``); the
        threshold is ``phi`` times the live AMS estimate of ``||C||_2^2``.
        Only the entries that can clear it are estimated
        (:meth:`CountSketch.heavy_entries`); the output is byte for byte the
        filter of every per-entry estimate, in row-major order.
        """
        if not 0 < phi <= 1:
            raise ValueError(f"phi must be in (0, 1], got {phi}")
        cs: CountSketch = self.merged["countsketch"]  # type: ignore[assignment]
        if cs.table.ndim != 3:
            return HeavyHitterOutput()
        total_f2 = self.live_lp_norm(2.0)
        if total_f2 <= 0:
            return HeavyHitterOutput()
        c_space = cs.empty_copy()
        c_space.load_state_array(cs.table @ self._b_float)
        rows, cols, estimates = c_space.heavy_entries(phi * total_f2)
        reported = {
            (i, j): value
            for i, j, value in zip(rows.tolist(), cols.tolist(), estimates.tolist())
        }
        return HeavyHitterOutput(pairs=set(reported), estimates=reported)

    # ------------------------------------------------------- one-shot queries
    def _run(self, protocol: StarProtocol) -> ProtocolResult:
        """Run a one-shot engine protocol over the accumulated shards.

        Same dispatch and seed discipline as ``ClusterEstimator``: the n-th
        query of a session matches the n-th query of a one-shot cluster
        built from the final shards, bit for bit.  Sites currently dropped
        are declared to the protocol driver (the one-shot protocols index
        sites ``site-0..k-1``, matching the session's default naming), so
        the runtime's dropout policy governs whether the query fails or
        excludes their unreachable shards.
        """
        conditions = self.conditions
        tree = self.tree
        if tree is not None:
            # The one-shot drivers name sites positionally; carry the
            # session's tree shape over to those names.
            name_of = {site.name: f"site-{i}" for i, site in enumerate(self.sites)}
            if any(old != new for old, new in name_of.items()):
                tree = tree.rename_sites(name_of)
        scenario_active = bool(self._dropped) or (
            conditions is not None and (conditions.dropped or conditions.overrides)
        )
        if scenario_active:
            base = conditions if conditions is not None else NetworkConditions()
            # The session's dynamic partition set (which absorbed the static
            # conditions.dropped at construction and shrinks on restore_site)
            # is the single source of truth for dropout; translate it — and
            # any per-link overrides keyed by custom session names — to the
            # one-shot drivers' positional site-i naming, so a straggler
            # model keeps pricing the same link.
            name_of = {site.name: f"site-{i}" for i, site in enumerate(self.sites)}
            conditions = NetworkConditions(
                base.default,
                overrides={
                    name_of.get(name, name): model
                    for name, model in base.overrides.items()
                },
                dropped={f"site-{i}" for i in sorted(self._dropped)},
                jitter_seed=base.jitter_seed,
                deadline=base.deadline,
                faults=base.faults,
                regions=base.regions,
            )
        return protocol.run(
            self.shards(),
            self.b,
            runtime=self.runtime,
            conditions=conditions,
            transport=self.transport,
            tree=tree,
        )
