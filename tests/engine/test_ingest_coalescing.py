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
"""

from __future__ import annotations

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.streaming import FAMILIES, StreamingSession

ROWS = 6  # rows per site
B = np.array([[1, 0, 2, 1], [0, 1, 1, 0], [3, 0, 0, 1]], dtype=np.int64)
DELTA = 2**40  # largest |delta| drawn; keeps every float state below 2^53
SEED = 28


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


def test_sketches_see_each_row_once_and_counters_the_raw_batch():
    session = build(1, None, "hash", "every-epoch", frozen=False)
    site = session.sites[0]
    seen: list[tuple[str, list[int]]] = []
    for family, sketch in site.pending.items():
        update = sketch.update_many

        def spy(rows, deltas, family=family, update=update):
            seen.append((family, rows.tolist()))
            return update(rows, deltas)

        sketch.update_many = spy
    repeated = np.array([[1, -2, 3], [4, 0, 0], [-1, 2, -3], [2, 2, 2], [0, 5, 0]])
    session.ingest(0, [5, 2, 5, 1, 2], repeated)
    session.ingest(0, [4, 0, 3], np.ones((3, 3), dtype=np.int64))
    assert seen == [(family, [1, 2, 5]) for family in FAMILIES] + [
        (family, [4, 0, 3]) for family in FAMILIES
    ]
    assert site.pending_updates == 8
    assert site.pending_mass == float(np.abs(repeated).sum() + 9)
    expected = np.zeros_like(site.shard)
    np.add.at(expected, [5, 2, 5, 1, 2], repeated)
    expected[[4, 0, 3]] += 1
    assert site.shard.tobytes() == expected.tobytes()
