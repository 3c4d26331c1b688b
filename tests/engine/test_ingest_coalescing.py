"""Site ingest against a frozen copy of the raw-row write path (hypothesis).

``_SiteStream.ingest`` feeds one batch to five consumers: the site's int64
shard and its four pending monitor sketches.  All four sketches are linear
(``S (d1 + d2) = S d1 + S d2``), their int64 states are exact mod 2^64 and
their float states exact while accumulated magnitudes stay within 2^53, so
how a batch reaches them must not move a byte.  The property below drives a
live session and a twin whose sites run ``frozen_ingest`` (the raw-row path:
``np.add.at`` on the shard, then every family's ``update_many`` over the raw
rows in arrival order) through the same batches, and compares after every
ingest each family's pending state (bytes, dtype and shape, or ``None``),
the shard, ``pending_updates`` and ``pending_mass``; after every epoch it
compares the report, every uploaded payload byte for byte and the merged
summaries.
``test_boundary_passes_match_the_frozen_raw_row_path`` drives several
batches per site between boundaries and reads nothing until the boundary,
so the sites' waiting rows reach the sketches in passes across many sites,
with the pass budget patched small enough that one boundary takes several
passes and some sites are sketched alone at ingest.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import streaming
from repro.engine.streaming import FAMILIES, StreamingSession

ROWS = 6  # rows per site
B = np.array([[1, 0, 2, 1], [0, 1, 1, 0], [3, 0, 0, 1]], dtype=np.int64)
DELTA = 2**40  # largest |delta| drawn; keeps every float state below 2^53
SEED = 28
#: Rows one boundary pass may hold, patched into the session module; None
#: keeps the module's own budget.
PASS_BUDGETS = (3, 8, None)


def frozen_ingest(site, rows, deltas):
    """The raw-row write path, frozen: every consumer sees every raw row."""
    np.add.at(site.shard, rows - site.row_offset, deltas)
    for sketch in site.pending.values():
        sketch.update_many(rows, deltas)
    site.pending_updates += rows.shape[0]
    site.pending_mass += float(np.abs(deltas).sum())


def build(k, tree, sketch_mode, refresh, *, frozen):
    session = StreamingSession(
        [ROWS] * k,
        B,
        seed=SEED,
        refresh=refresh,
        sketch_mode=sketch_mode,
        tree=tree,
        monitor_epsilon=0.5,
        hh_depth=3,
        hh_width=8,
        sampler_repetitions=3,
    )
    if frozen:
        for site in session.sites:
            site.ingest = functools.partial(frozen_ingest, site)
    return session


def record_uploads(session):
    """Every payload the session's network carries upstream, in send order."""
    sent: list[tuple[str, bytes]] = []
    hop = session.network.upstream_hop

    def spy(sender, payload, **kwargs):
        sent.append((sender, bytes(payload)))
        return hop(sender, payload, **kwargs)

    session.network.upstream_hop = spy
    return sent


def image(state):
    return None if state is None else (state.dtype, state.shape, state.tobytes())


def delta_rows(draw, count):
    column = st.integers(-DELTA, DELTA)
    width = B.shape[0]
    return [
        draw(st.lists(column, min_size=width, max_size=width)) for _ in range(count)
    ]


@st.composite
def batches(draw):
    """Local rows and deltas of one batch: heavy repeats, none, or a cancel."""
    kind = draw(st.sampled_from(["heavy", "distinct", "cancel"]))
    if kind == "heavy":
        pool = draw(
            st.lists(st.integers(0, ROWS - 1), min_size=1, max_size=3, unique=True)
        )
        rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=24))
        return rows, delta_rows(draw, len(rows))
    if kind == "distinct":
        order = draw(st.permutations(range(ROWS)))
        rows = list(order[: draw(st.integers(1, ROWS))])
        return rows, delta_rows(draw, len(rows))
    # A row whose deltas cancel to zero, among other (possibly equal) rows.
    row = draw(st.integers(0, ROWS - 1))
    others = draw(st.lists(st.integers(0, ROWS - 1), max_size=6))
    (delta,) = delta_rows(draw, 1)
    rows = others + [row, row]
    deltas = delta_rows(draw, len(others)) + [delta, [-d for d in delta]]
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], [deltas[i] for i in order]


@st.composite
def scenarios(draw):
    k = draw(st.integers(1, 4))
    epochs = draw(
        st.lists(
            st.lists(st.tuples(st.integers(0, k - 1), batches()), max_size=4),
            min_size=1,
            max_size=3,
        )
    )
    return (
        k,
        draw(st.sampled_from([None, 2])),
        draw(st.sampled_from(["dense", "hash"])),
        draw(st.sampled_from(["every-epoch", "threshold"])),
        epochs,
    )


def assert_same_sites(live, frozen):
    for site, twin in zip(live.sites, frozen.sites):
        assert site.shard.tobytes() == twin.shard.tobytes()
        assert site.pending_updates == twin.pending_updates
        assert site.pending_mass == twin.pending_mass
        for family in FAMILIES:
            assert image(site.pending[family].state_array()) == image(
                twin.pending[family].state_array()
            ), family


def assert_same_merged(live, frozen):
    for family in FAMILIES:
        assert image(live.merged[family].state_array()) == image(
            frozen.merged[family].state_array()
        ), family


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_ingest_matches_the_frozen_raw_row_path(scenario):
    k, tree, sketch_mode, refresh, epochs = scenario
    live = build(k, tree, sketch_mode, refresh, frozen=False)
    frozen = build(k, tree, sketch_mode, refresh, frozen=True)
    live_sent, frozen_sent = record_uploads(live), record_uploads(frozen)
    for number, epoch in enumerate(epochs, start=1):
        for index, (rows, deltas) in epoch:
            global_rows = live.sites[index].row_offset + np.asarray(rows)
            for session in (live, frozen):
                session.ingest(index, global_rows, np.array(deltas, dtype=np.int64))
            assert_same_sites(live, frozen)
        force = number == len(epochs)  # the last boundary is a sync
        report = live.end_epoch(force=force)
        assert report == frozen.end_epoch(force=force)
        assert live_sent == frozen_sent
        assert_same_sites(live, frozen)
        assert_same_merged(live, frozen)


@st.composite
def boundary_scenarios(draw):
    """Up to 8 sites, many batches each per epoch, some sites dropped."""
    k = draw(st.integers(1, 8))
    epoch = st.tuples(
        st.lists(st.tuples(st.integers(0, k - 1), batches()), max_size=16),
        st.sets(st.integers(0, k - 1), max_size=2),
    )
    return (
        k,
        draw(st.sampled_from([None, 2])),
        draw(st.sampled_from(["dense", "hash"])),
        draw(st.sampled_from(["every-epoch", "threshold"])),
        draw(st.sampled_from(PASS_BUDGETS)),
        draw(st.lists(epoch, min_size=1, max_size=3)),
    )


def assert_same_counters(live, frozen):
    """What ingest updates at once: shards and the raw-row counters."""
    for site, twin in zip(live.sites, frozen.sites):
        assert site.shard.tobytes() == twin.shard.tobytes()
        assert site.pending_updates == twin.pending_updates
        assert site.pending_mass == twin.pending_mass


@settings(max_examples=60, deadline=None)
@given(boundary_scenarios())
def test_boundary_passes_match_the_frozen_raw_row_path(scenario):
    k, tree, sketch_mode, refresh, budget, epochs = scenario
    with pytest.MonkeyPatch.context() as patch:
        if budget is not None:
            patch.setattr(streaming, "_PASS_ROWS", budget, raising=False)
        live = build(k, tree, sketch_mode, refresh, frozen=False)
        frozen = build(k, tree, sketch_mode, refresh, frozen=True)
        live_sent, frozen_sent = record_uploads(live), record_uploads(frozen)
        for number, (ingests, dropped) in enumerate(epochs, start=1):
            for session in (live, frozen):
                for index in sorted(dropped):
                    session.drop_site(index)
            for index, (rows, deltas) in ingests:
                global_rows = live.sites[index].row_offset + np.asarray(rows)
                for session in (live, frozen):
                    session.ingest(index, global_rows, np.array(deltas, dtype=np.int64))
                assert_same_counters(live, frozen)
            force = number == len(epochs)
            report = live.end_epoch(force=force)
            assert report == frozen.end_epoch(force=force)
            assert live_sent == frozen_sent
            assert_same_merged(live, frozen)
            assert_same_sites(live, frozen)
            for session in (live, frozen):
                for index in sorted(dropped):
                    session.restore_site(index)
        # The dropped sites' backlogs ship on one more sync.
        assert live.sync() == frozen.sync()
        assert live_sent == frozen_sent
        assert_same_merged(live, frozen)


def spy_on_grouped_updates(session, monkeypatch):
    """Every grouped family update: (family, rows, bounds, targets)."""
    calls: list[tuple[str, list[int], list[int], list]] = []
    for family, template in session.templates.items():
        cls = type(template)
        grouped = cls.update_groups

        def spy(self, rows, deltas, bounds, targets, family=family, grouped=grouped):
            calls.append((family, rows.tolist(), list(bounds), list(targets)))
            return grouped(self, rows, deltas, bounds, targets)

        monkeypatch.setattr(cls, "update_groups", spy)
    return calls


def test_sketches_see_each_row_once_and_counters_the_raw_batch(monkeypatch):
    """Ingest sketches nothing; the boundary makes one call per family
    over every site's waiting rows, each distinct row once, each site's
    rows aimed at its own pending state."""
    session = build(3, None, "hash", "every-epoch", frozen=False)
    calls = spy_on_grouped_updates(session, monkeypatch)
    first, _, third = session.sites
    repeated = np.array([[1, -2, 3], [4, 0, 0], [-1, 2, -3], [2, 2, 2], [0, 5, 0]])
    session.ingest(0, [5, 2, 5, 1, 2], repeated)
    session.ingest(0, [4, 0, 3], np.ones((3, 3), dtype=np.int64))
    session.ingest(2, [13, 12], np.full((2, 3), 7, dtype=np.int64))
    assert calls == []
    assert first.pending_updates == 8
    assert first.pending_mass == float(np.abs(repeated).sum() + 9)
    expected = np.zeros_like(first.shard)
    np.add.at(expected, [5, 2, 5, 1, 2], repeated)
    expected[[4, 0, 3]] += 1
    assert first.shard.tobytes() == expected.tobytes()
    session.end_epoch()
    assert [call[:3] for call in calls] == [
        (family, [1, 2, 5, 4, 0, 3, 13, 12], [0, 6, 8]) for family in FAMILIES
    ]
    for family, _, _, targets in calls:
        assert targets[0] is first._pending[family]
        assert targets[1] is third._pending[family]
    # Nothing waits, so a quiet boundary sketches nothing.
    calls.clear()
    session.end_epoch()
    assert calls == []


def test_a_read_of_pending_sketches_that_site_first(monkeypatch):
    session = build(2, None, "dense", "every-epoch", frozen=False)
    calls = spy_on_grouped_updates(session, monkeypatch)
    session.ingest(0, [1, 3], np.ones((2, 3), dtype=np.int64))
    session.ingest(1, [7], np.ones((1, 3), dtype=np.int64))
    pending = session.sites[1].pending
    assert [call[:3] for call in calls] == [
        (family, [7], [0, 1]) for family in FAMILIES
    ]
    assert pending["ams"].state_array() is not None
    assert session.sites[1].waiting_rows == 0
    assert session.sites[0].waiting_rows == 2


def test_waiting_rows_stay_within_the_budget_without_boundaries():
    """A threshold=inf session never ships between syncs, and a throttled
    tenant's session sees no boundary at all: ingest alone bounds what
    waits, and a batch at or above the budget is sketched at once."""
    budget = streaming._PASS_ROWS
    rows_per_site = 2 * budget
    b = np.eye(3, dtype=np.int64)
    sessions = [
        StreamingSession(
            [rows_per_site] * 2, b, seed=5, refresh="threshold", threshold=np.inf,
            sketch_mode="hash", monitor_epsilon=0.5, hh_depth=3, hh_width=8,
            sampler_repetitions=3,
        )
        for _ in range(2)
    ]
    live, frozen = sessions
    for site in frozen.sites:
        site.ingest = functools.partial(frozen_ingest, site)
    rng = np.random.default_rng(9)
    sizes = [300, 17, 700, 5, budget, 1, budget // 2, budget // 2, 3] * 3
    for size in sizes:
        index = int(rng.integers(0, 2))
        rows = index * rows_per_site + rng.permutation(rows_per_site)[:size]
        deltas = rng.integers(-5, 6, size=(size, 3))
        for session in sessions:
            session.ingest(index, rows, deltas)
        for site in live.sites:
            assert site.waiting_rows < budget
        if size >= budget:
            assert live.sites[index].waiting_rows == 0
    assert not any(live.end_epoch().shipped.values())
    assert [site.waiting_rows for site in live.sites] == [0, 0]
    frozen.end_epoch()
    assert_same_sites(live, frozen)
    assert live.sync() == frozen.sync()
    assert_same_merged(live, frozen)


def test_every_boundary_sketches_every_site_and_close_discards(monkeypatch):
    session = build(3, 2, "hash", "threshold", frozen=False)
    session.drop_site(1)
    for index in range(3):
        session.ingest(index, [6 * index, 6 * index + 2], np.ones((2, 3), dtype=np.int64))
    report = session.end_epoch()
    assert report.dropped == ["site-1"]
    assert [site.waiting_rows for site in session.sites] == [0, 0, 0]
    assert session.sites[1].pending_updates == 2
    session.ingest(1, [8], np.ones((1, 3), dtype=np.int64))
    calls = spy_on_grouped_updates(session, monkeypatch)
    session.close()
    site = session.sites[1]
    assert (site.waiting_rows, site.pending_updates, calls) == (0, 0, [])
    assert all(sketch.state_array() is None for key, sketch in site.pending.items()
               if key != "countsketch")


def test_a_waiting_batch_is_a_copy_of_the_callers_arrays():
    live = build(1, None, "hash", "every-epoch", frozen=False)
    frozen = build(1, None, "hash", "every-epoch", frozen=True)
    rows, deltas = np.array([1, 4], dtype=np.int64), np.ones((2, 3), dtype=np.int64)
    for session in (live, frozen):
        session.ingest(0, rows, deltas)
    rows[:] = 0
    deltas[:] = 9
    assert live.end_epoch() == frozen.end_epoch()
    assert_same_merged(live, frozen)
