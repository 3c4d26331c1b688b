"""The staged-upload drain against a frozen copy of the level-scan drain.

:meth:`Network._drain` forwards every aggregator's staged uploads up the
tree: one message per (aggregator, label) group, merged when the group is
exact-mergeable and batched otherwise.  ``_level_scan_drain`` below is a
frozen copy of the drain that scanned the tree level by level, deepest
first, and grouped each level's entries by (aggregator, label) in
first-appearance order.  Hypothesis draws random shapes, interleaved
labels and payload kinds, and mid-stream meter reads; the live network
must record the same hops in the same order (payload pickles included),
the same meter cells, the same per-edge bits and the same merge count.

Bool arrays are left out: their merge rule is pinned on its own in
``tests/comm/test_tree.py``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.accounting import MessageLog
from repro.comm.network import UPSTREAM, Network
from repro.comm.tree import TreeSpec
from repro.sketch import AmsSketch, CountSketch
from repro.sketch.mergeable import MergeableSketch

N = 24  # sketch universe

TEMPLATES = {
    "ams": AmsSketch.for_accuracy(N, 0.5, np.random.default_rng(3)),
    "countsketch": CountSketch(N, 8, 3, np.random.default_rng(4)),
}

#: Per-label payload kinds: what each site uploads under that label.
KINDS = ["int", "int-two-shapes", "float", "ams", "countsketch", "dict"]


# ---------------------------------------------------------------- frozen copy
def _frozen_mergeable(payloads):
    first = payloads[0]
    if isinstance(first, np.ndarray):
        return first.dtype.kind in "iub" and all(
            isinstance(p, np.ndarray)
            and p.shape == first.shape
            and p.dtype == first.dtype
            for p in payloads
        )
    if isinstance(first, MergeableSketch):
        return all(type(p) is type(first) for p in payloads)
    return False


def _frozen_merge(payloads):
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


def _level_scan_drain(tree, uploads):
    """Hops ``(child, direction, label, bits, payload)`` and the merge count
    of ``uploads`` — ``(site, label, payload, bits)`` in send order —
    followed by one drain, as the level-scan drain recorded them."""
    hops = []
    staged = {agg: [] for agg in tree.aggregators}
    for site, label, payload, bits in uploads:
        hops.append((site, UPSTREAM, label, bits, payload))
        if tree.parent[site] != tree.root:
            staged[tree.parent[site]].append((label, payload, bits))
    merges = 0
    while any(staged.values()):
        depth = max(tree.node_depth(agg) for agg, entries in staged.items() if entries)
        level = [
            agg
            for agg in tree.aggregators
            if tree.node_depth(agg) == depth and staged[agg]
        ]
        plan = []
        grouped = {}
        for agg in level:
            entries, staged[agg] = staged[agg], []
            for label, payload, bits in entries:
                if (agg, label) not in grouped:
                    grouped[(agg, label)] = []
                    plan.append((agg, label))
                grouped[(agg, label)].append((payload, bits))
        forwards = []
        for agg, label in plan:
            group = grouped[(agg, label)]
            payloads = [p for p, _ in group]
            if len(group) > 1 and _frozen_mergeable(payloads):
                merges += 1
                forwards.append((_frozen_merge(payloads), max(b for _, b in group)))
            elif len(group) == 1:
                forwards.append(group[0])
            else:
                forwards.append((payloads, sum(b for _, b in group)))
        for (agg, label), (payload, bits) in zip(plan, forwards):
            hops.append((agg, UPSTREAM, label, bits, payload))
            if tree.parent[agg] != tree.root:
                staged[tree.parent[agg]].append((label, payload, bits))
    return hops, merges


# ----------------------------------------------------------------- strategies
def _draw_grouping(draw, indices, depth=0):
    """A random nested grouping for :meth:`TreeSpec.from_grouping`, at most
    three aggregator levels deep."""
    if len(indices) == 1:
        return indices[0]
    if depth >= 3 or draw(st.booleans()):
        return list(indices)
    n_cuts = draw(st.integers(1, min(3, len(indices) - 1)))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(1, len(indices) - 1),
                min_size=n_cuts,
                max_size=n_cuts,
                unique=True,
            )
        )
    )
    parts = [indices[a:b] for a, b in zip([0, *cuts], [*cuts, len(indices)])]
    return [_draw_grouping(draw, part, depth + 1) for part in parts]


def _draw_payload(draw, kind):
    ints = st.integers(-(2**40), 2**40)
    if kind == "int":
        return np.array(draw(st.lists(ints, min_size=4, max_size=4)), dtype=np.int64)
    if kind == "int-two-shapes":
        size = draw(st.sampled_from([3, 5]))
        return np.array(draw(st.lists(ints, min_size=size, max_size=size)), dtype=np.int64)
    if kind == "float":
        values = st.floats(-1e6, 1e6, allow_nan=False)
        return np.array(draw(st.lists(values, min_size=4, max_size=4)))
    if kind == "dict":
        return {"count": draw(ints), "rows": np.arange(draw(st.integers(0, 3)))}
    sketch = TEMPLATES[kind].empty_copy()
    updates = draw(
        st.lists(st.tuples(st.integers(0, N - 1), st.integers(-5, 5)), max_size=6)
    )
    if updates:
        indices = np.array([i for i, _ in updates], dtype=np.int64)
        values = np.array([v for _, v in updates], dtype=np.int64)
        sketch.update_many(indices, values)
    return sketch


@st.composite
def drain_cases(draw):
    k = draw(st.integers(2, 8))
    grouping = _draw_grouping(draw, list(draw(st.permutations(range(k)))))
    site_names = [f"site-{i}" for i in range(k)]
    tree = TreeSpec.from_grouping(site_names, grouping)
    labels = [f"label-{i}" for i in range(draw(st.integers(1, 3)))]
    kinds = {label: draw(st.sampled_from(KINDS)) for label in labels}
    # Interleaved labels; a site may skip a label or send it twice.
    sends = draw(
        st.lists(
            st.tuples(st.sampled_from(site_names), st.sampled_from(labels)),
            min_size=1,
            max_size=3 * k,
        )
    )
    uploads = [
        (site, label, _draw_payload(draw, kinds[label]), draw(st.integers(1, 500)))
        for site, label in sends
    ]
    # Meter reads after these many uploads drain part of the stream early.
    reads = draw(st.sets(st.integers(1, len(uploads)), max_size=2)) | {len(uploads)}
    return tree, uploads, sorted(reads)


# ---------------------------------------------------------------------- tests
def _spy_on_hops(monkeypatch):
    hops = []
    record_hop = Network._record_hop

    def spy(self, child, direction, payload, label, bits):
        hops.append((child, direction, label, bits, pickle.dumps(payload)))
        record_hop(self, child, direction, payload, label, bits)

    monkeypatch.setattr(Network, "_record_hop", spy)
    return hops


@settings(max_examples=150, deadline=None)
@given(case=drain_cases())
def test_drain_matches_the_level_scan(case):
    tree, uploads, reads = case
    expected_hops, expected_merges = [], 0
    start = 0
    for stop in reads:
        hops, merges = _level_scan_drain(tree, uploads[start:stop])
        expected_hops += hops
        expected_merges += merges
        start = stop

    net = Network(tree.site_names, tree=tree)
    with pytest.MonkeyPatch.context() as monkeypatch:
        live_hops = _spy_on_hops(monkeypatch)
        start = 0
        for stop in reads:
            for site, label, payload, bits in uploads[start:stop]:
                net.send(site, tree.root, payload, label=label, bits=bits)
            assert net.total_bits >= 0  # a meter read drains
            start = stop

    assert live_hops == [
        (child, direction, label, bits, pickle.dumps(payload))
        for child, direction, label, bits, payload in expected_hops
    ]
    log = MessageLog()
    link_bits = dict.fromkeys(tree.site_names + tree.aggregators, 0)
    for child, direction, label, bits, _ in expected_hops:
        log.record(child, tree.parent[child], label=label, bits=bits, direction_key=direction)
        link_bits[child] += bits
    assert net.log.messages == log.messages
    assert net.link_bits() == link_bits
    assert net.merges == expected_merges
