"""Per-edge meter reads against a frozen copy of per-edge logs.

A :class:`~repro.comm.network.Network` answers per-edge questions —
``link(child)``, ``link_bits()``, ``max_link_bits``, ``root_link_bits()``,
``max_root_link_bits`` — with the two-party (sender-flip) round semantics
on every edge.  ``frozen_edge_logs`` below is a frozen copy of the
bookkeeping that once answered them: one :class:`MessageLog` per tree
edge, keyed by the edge's child endpoint, fed every hop the network
meters.  It is a pure function of the tree and the ordered hops
``(child, direction, label, bits)``, which the test spies on
``Network._record_hop``.

Hypothesis draws random shapes (k = 1 is the two-party case) and 10–60
operations: upstream sends (which stage on trees), downstream sends,
broadcasts to site subsets with repeats, single-edge ``upstream_hop``\\ s
on sites and aggregators, 0-bit messages, several labels within a round,
meter reads and resets.  After every read, every edge's meter must match
its frozen log cell for cell.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.accounting import MessageLog
from repro.comm.network import UPSTREAM, Network
from repro.comm.tree import TreeSpec
from tests.comm.test_tree_drain import _draw_grouping

#: Labels whose first-appearance order within a round is often not sorted.
LABELS = ["b", "a", "c"]
PAYLOADS = {
    "int": np.ones(2, dtype=np.int64),  # merges at aggregators: max bits
    "float": np.ones(2),  # batches at aggregators: summed bits
    "none": None,
}


# ---------------------------------------------------------------- frozen copy
def frozen_edge_logs(tree, hops):
    """One sender-flip :class:`MessageLog` per tree edge, fed ``hops`` —
    ``(child, direction, label, bits)`` in the order they were metered."""
    links = {name: MessageLog() for name in tree.site_names + tree.aggregators}
    for child, direction, label, bits in hops:
        parent = tree.parent[child]
        sender, receiver = (child, parent) if direction == UPSTREAM else (parent, child)
        links[child].record(sender, receiver, label=label, bits=bits)
    return links


# ----------------------------------------------------------------- strategies
@st.composite
def meter_cases(draw):
    k = draw(st.integers(1, 8))
    site_names = [f"site-{i}" for i in range(k)]
    order = list(draw(st.permutations(range(k))))
    grouping = [order[0]] if k == 1 else _draw_grouping(draw, order)
    tree = TreeSpec.from_grouping(site_names, grouping)
    edges = tree.site_names + tree.aggregators
    labels = st.sampled_from(LABELS)
    bits = st.one_of(st.just(0), st.integers(1, 500))
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("up"),
                    st.sampled_from(site_names),
                    labels,
                    st.sampled_from(sorted(PAYLOADS)),
                    bits,
                ),
                st.tuples(st.just("down"), st.sampled_from(site_names), labels, bits),
                st.tuples(
                    st.just("broadcast"),
                    st.one_of(
                        st.none(), st.lists(st.sampled_from(site_names), max_size=k + 2)
                    ),
                    labels,
                    bits,
                ),
                st.tuples(st.just("hop"), st.sampled_from(edges), labels, bits),
                st.tuples(
                    st.just("read"),
                    st.sampled_from(
                        ["link", "link_bits", "max_link_bits", "root_link_bits", "total_bits"]
                    ),
                    st.sampled_from(edges),
                ),
                st.just(("reset",)),
            ),
            min_size=10,
            max_size=60,
        )
    )
    return tree, ops


# ---------------------------------------------------------------------- tests
def _spy_on_hops(monkeypatch):
    hops = []
    record_hop = Network._record_hop

    def spy(self, child, direction, payload, label, bits):
        hops.append((child, direction, label, bits))
        record_hop(self, child, direction, payload, label, bits)

    monkeypatch.setattr(Network, "_record_hop", spy)
    return hops


def _read(net, which, child):
    if which == "link":
        return net.link(child).total_bits
    if which in ("max_link_bits", "total_bits"):
        return getattr(net, which)
    return getattr(net, which)()


def _assert_edges_match(net, tree, hops):
    assert net.total_bits >= 0  # a meter read drains: the hops are complete
    expected = frozen_edge_logs(tree, hops)
    for child, ref in expected.items():
        parent = tree.parent[child]
        link = net.link(child)
        assert link.messages == ref.messages, child
        assert link.rounds == ref.rounds, child
        assert link.total_bits == ref.total_bits, child
        assert link.bits_sent_by(child) == ref.bits_sent_by(child), child
        assert link.bits_sent_by(parent) == ref.bits_sent_by(parent), child
        assert link.bits_by_label() == ref.bits_by_label(), child
        assert link.bits_per_round() == ref.bits_per_round(), child
    link_bits = {child: ref.total_bits for child, ref in expected.items()}
    assert net.link_bits() == link_bits
    assert net.max_link_bits == max(link_bits.values())
    root_bits = {child: link_bits[child] for child in tree.children[tree.root]}
    assert net.root_link_bits() == root_bits
    assert net.max_root_link_bits == max(root_bits.values())


@settings(max_examples=200, deadline=None)
@given(case=meter_cases())
def test_edge_meters_match_frozen_per_edge_logs(case):
    tree, ops = case
    net = Network(tree.site_names, tree=tree)
    root = tree.root
    with pytest.MonkeyPatch.context() as monkeypatch:
        hops = _spy_on_hops(monkeypatch)
        for op in ops:
            kind = op[0]
            if kind == "up":
                _, site, label, payload, bits = op
                net.send(site, root, PAYLOADS[payload], label=label, bits=bits)
            elif kind == "down":
                _, site, label, bits = op
                net.send(root, site, None, label=label, bits=bits)
            elif kind == "broadcast":
                _, sites, label, bits = op
                net.broadcast(None, label=label, bits=bits, sites=sites)
            elif kind == "hop":
                _, child, label, bits = op
                net.upstream_hop(child, None, label=label, bits=bits)
            elif kind == "read":
                _read(net, op[1], op[2])
                _assert_edges_match(net, tree, hops)
            else:
                net.reset()
                hops.clear()
        _assert_edges_match(net, tree, hops)
