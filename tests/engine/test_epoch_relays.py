"""Aggregator relays against a frozen copy of the re-encoding merge pass.

``StreamingSession._ship_aggregated`` carries the on-time delta bundles up
the tree once per boundary, and each aggregator with an on-time descendant
forwards one payload.  ``frozen_ship_aggregated`` is that pass as it was
when every relay encoded its bundle afresh.  Each case drives a session and
a twin running the frozen pass through the same random epochs, with a
random subset of active sites so that aggregators with one on-time child
and with several both occur, and after every boundary compares every
payload sent upstream (site uploads, relays and late folds, in send order),
the reports, the merged summaries and the robust per-site slots byte for
byte.
"""

from __future__ import annotations

import types

import numpy as np
import pytest

from repro.comm.conditions import LinkModel, NetworkConditions
from repro.engine.robust import FaultPlan
from repro.engine.streaming import FAMILIES, StreamingSession, _merge_bundle
from repro.sketch.serialization import serialize_deltas


def frozen_ship_aggregated(self, on_time, uploads, *_):
    """The merge pass that encoded every relay, frozen."""
    tree = self.network.tree
    bundles = {site.name: uploads[site.name] for site in on_time}
    if self.site_merged is not None:
        for site in on_time:
            _merge_bundle(self.site_merged[site.index], bundles[site.name])
    relays: list[tuple[str, bytes]] = []
    for agg in tree.bottom_up:
        parts = [bundles.pop(child) for child in tree.children[agg] if child in bundles]
        if not parts:
            continue
        merged = parts[0]
        if len(parts) > 1:
            merged = {key: self.templates[key].empty_copy() for key in FAMILIES}
            for part in parts:
                _merge_bundle(merged, part)
        relays.append((agg, serialize_deltas(merged)))
        bundles[agg] = merged
    for child in tree.children[tree.root]:
        if child in bundles:
            _merge_bundle(self.merged, bundles[child])
    return relays


def straggler(k):
    return NetworkConditions(
        LinkModel(latency=0.01),
        overrides={f"site-{k // 2}": LinkModel(latency=1.0)},
        deadline=0.5,
    )


CASES = {
    "fan2": dict(k=8, tree=2),
    "fan8": dict(k=70, tree=8),
    "fan2-straggler": dict(k=8, tree=2, conditions=straggler),
    "fan8-straggler-robust": dict(k=70, tree=8, conditions=straggler, robust=1),
    "fan2-robust": dict(k=8, tree=2, robust=1),
    "fan2-faultplan": dict(
        k=8,
        tree=2,
        robust=1,
        conditions=lambda k: NetworkConditions(
            faults=FaultPlan({"site-1": "garbage", "site-6": ("scale", 3.0)}, seed=5)
        ),
    ),
    "fan8-faultplan": dict(
        k=70,
        tree=8,
        conditions=lambda k: NetworkConditions(
            faults=FaultPlan({"site-9": "flip-sign"}, seed=2)
        ),
    ),
}


def build(k, tree, sketch_mode, conditions=None, robust=None):
    return StreamingSession(
        [3] * k,
        np.array([[1, 0, 2], [0, 1, 1], [2, 0, 0], [1, 1, 0]], dtype=np.int64),
        seed=30,
        sketch_mode=sketch_mode,
        tree=tree,
        conditions=None if conditions is None else conditions(k),
        robust=robust,
        monitor_epsilon=0.5,
        hh_depth=3,
        hh_width=8,
        sampler_repetitions=3,
    )


def record_uploads(session):
    sent: list[tuple[str, str, bytes]] = []
    hop = session.network.upstream_hop

    def spy(sender, payload, **kwargs):
        sent.append((sender, kwargs.get("label"), bytes(payload)))
        return hop(sender, payload, **kwargs)

    session.network.upstream_hop = spy
    return sent


def states(session):
    def image(sketch):
        state = sketch.state_array()
        return None if state is None else (state.dtype, state.shape, state.tobytes())

    slots = session.site_merged or []
    return (
        {key: image(sketch) for key, sketch in session.merged.items()},
        [{key: image(sketch) for key, sketch in slot.items()} for slot in slots],
    )


@pytest.mark.parametrize("sketch_mode", ["dense", "hash"])
@pytest.mark.parametrize("case", list(CASES))
def test_relays_match_the_frozen_merge_pass(case, sketch_mode):
    spec = dict(CASES[case])
    live = build(sketch_mode=sketch_mode, **spec)
    frozen = build(sketch_mode=sketch_mode, **spec)
    frozen._ship_aggregated = types.MethodType(frozen_ship_aggregated, frozen)
    live_sent, frozen_sent = record_uploads(live), record_uploads(frozen)
    k = spec["k"]
    rng = np.random.default_rng(len(case) * 7 + len(sketch_mode))
    relays = 0
    for epoch in range(6):
        active = rng.choice(k, size=rng.integers(1, k + 1), replace=False)
        for index in sorted(int(i) for i in active):
            rows = 3 * index + rng.integers(0, 3, size=rng.integers(1, 5))
            deltas = rng.integers(-9, 10, size=(rows.shape[0], 4))
            for session in (live, frozen):
                session.ingest(index, rows, deltas)
        force = epoch == 5
        report = live.end_epoch(force=force)
        assert report == frozen.end_epoch(force=force)
        assert live_sent == frozen_sent, f"epoch {epoch}"
        assert states(live) == states(frozen), f"epoch {epoch}"
        relays += sum(sender.startswith("agg") for sender, _, _ in live_sent)
    live.collect_late()
    frozen.collect_late()
    assert live_sent == frozen_sent
    assert states(live) == states(frozen)
    assert relays > 0
