"""TreeSpec shapes and the metered TreeNetwork overlay.

The contract split: :class:`~repro.comm.tree.TreeSpec` is a pure shape
(constructors, validation, restriction), :class:`~repro.comm.network
.TreeNetwork` is the metered routing overlay on top of it — upstream
payloads stage at their parent aggregator and drain bottom-up as ONE
forwarded message per sibling group (merged bits = the largest child
burst when the group is exact-mergeable, summed bits when it must travel
as a batch), so the root's ingress is ``fan_out`` bursts per round
instead of k.  That last sentence is the whole point of the tree, and
``root_link_bits`` / ``max_root_link_bits`` are where it is observable.
"""

import math
from collections import namedtuple

import numpy as np
import pytest

from repro.comm.conditions import LinkModel, NetworkConditions
from repro.comm.network import DOWNSTREAM, UPSTREAM, Network, TreeNetwork
from repro.comm.tree import TreeSpec


def _sites(k):
    return [f"site-{i}" for i in range(k)]


class TestTreeSpecConstructors:
    def test_flat_is_the_depth_one_star(self):
        tree = TreeSpec.flat(_sites(5))
        assert tree.is_flat
        assert tree.depth == 1
        assert tree.fan_out == 5
        assert tree.aggregators == []
        assert tree.site_names == _sites(5)
        assert tree.describe() == {
            "depth": 1,
            "fan_out": 5,
            "aggregators": 0,
            "sites": 5,
            "flat": True,
        }

    def test_regular_groups_contiguous_runs(self):
        tree = TreeSpec.regular(_sites(8), 2)
        assert not tree.is_flat
        assert tree.depth == 3  # two aggregator levels (8 -> 4 -> 2) + leaf hop
        assert tree.fan_out == 2
        assert tree.site_names == _sites(8)
        # Level-0 aggregators front contiguous pairs of sites.
        assert tree.children["agg-0-0"] == ("site-0", "site-1")
        assert tree.children["agg-0-3"] == ("site-6", "site-7")
        # The parent chain composes into root-to-leaf path edges.
        assert tree.path_edges("site-5") == ["agg-1-1", "agg-0-2", "site-5"]
        assert tree.ancestors("site-5") == ["agg-0-2", "agg-1-1"]

    def test_regular_with_large_fan_out_degenerates_to_flat(self):
        tree = TreeSpec.regular(_sites(4), 8)
        assert tree.is_flat
        assert tree.children[tree.root] == tuple(_sites(4))

    def test_regular_rejects_fan_out_below_two(self):
        with pytest.raises(ValueError, match="fan_out"):
            TreeSpec.regular(_sites(4), 1)

    def test_from_grouping_builds_arbitrary_shapes(self):
        tree = TreeSpec.from_grouping(_sites(6), [[0, 1], [2, [3, 4]], 5])
        # Sub-lists became path-named aggregators; site 5 stayed a root child.
        assert tree.children[tree.root] == ("agg-0", "agg-1", "site-5")
        assert tree.children["agg-1"] == ("site-2", "agg-1.1")
        assert tree.children["agg-1.1"] == ("site-3", "site-4")
        assert tree.depth == 3
        assert tree.node_depth("site-4") == 3
        assert tree.node_depth("site-5") == 1
        assert tree.subtree_sites("agg-1") == ["site-2", "site-3", "site-4"]

    def test_from_grouping_rejects_duplicate_and_missing_indices(self):
        with pytest.raises(ValueError, match="exactly"):
            TreeSpec.from_grouping(_sites(3), [[0, 1], 1])
        with pytest.raises(ValueError, match="missing"):
            TreeSpec.from_grouping(_sites(3), [[0, 1]])

    def test_site_names_reorder_but_cannot_rename(self):
        tree = TreeSpec(
            {"coordinator": ["b", "a"]}, site_names=["a", "b"]
        )
        assert tree.site_names == ["a", "b"]
        with pytest.raises(ValueError, match="leaves"):
            TreeSpec({"coordinator": ["b", "a"]}, site_names=["a", "c"])

    def test_rename_sites_keeps_the_shape(self):
        tree = TreeSpec.from_grouping(["x", "y", "z"], [[0, 1], 2])
        renamed = tree.rename_sites({"x": "site-0", "y": "site-1", "z": "site-2"})
        assert renamed.site_names == _sites(3)
        assert renamed.children["agg-0"] == ("site-0", "site-1")
        assert renamed.describe() == tree.describe()


class TestTreeSpecValidation:
    def test_two_parents_rejected(self):
        with pytest.raises(ValueError, match="two parents"):
            TreeSpec({"coordinator": ["agg", "s0"], "agg": ["s0"]})

    def test_root_as_child_rejected(self):
        with pytest.raises(ValueError, match="root cannot be a child"):
            TreeSpec({"coordinator": ["agg"], "agg": ["coordinator"]})

    def test_orphan_aggregator_rejected(self):
        with pytest.raises(ValueError, match="unreachable"):
            TreeSpec({"coordinator": ["s0"], "agg": ["s1"]})

    @pytest.mark.parametrize("cycle_kids", [["agg-x"], ["agg-x", "site-2"]])
    def test_detached_cycle_rejected(self, cycle_kids):
        """Every aggregator on the cycle has a parent, yet the root's walk
        never reaches it; accepting such a spec would hang region expansion
        and drop the cycle's sites from ``site_names``."""
        children_of = {
            "coordinator": ["site-0", "site-1"],
            "agg-x": ["agg-y"],
            "agg-y": cycle_kids,
        }
        with pytest.raises(ValueError, match=r"\['agg-x', 'agg-y'\] are unreachable"):
            TreeSpec(children_of)

    def test_childless_node_rejected(self):
        with pytest.raises(ValueError, match="no children"):
            TreeSpec({"coordinator": ["agg"], "agg": []})

    def test_missing_root_rejected(self):
        with pytest.raises(ValueError, match="no children entry"):
            TreeSpec({"agg": ["s0"]})


class TestTreeSpecRestrict:
    def test_empty_aggregators_disappear(self):
        tree = TreeSpec.regular(_sites(8), 2)
        kept = tree.restrict(["site-0", "site-1", "site-2"])
        assert kept.site_names == ["site-0", "site-1", "site-2"]
        # agg-0-2 / agg-0-3 lost every leaf and are gone entirely.
        assert "agg-0-3" not in kept.children
        assert "agg-1-1" not in kept.children
        # agg-0-1 keeps its hop with the single survivor site-2.
        assert kept.children["agg-0-1"] == ("site-2",)

    def test_restrict_errors(self):
        tree = TreeSpec.flat(_sites(3))
        with pytest.raises(ValueError, match="unknown sites"):
            tree.restrict(["site-9"])
        with pytest.raises(ValueError, match="zero sites"):
            tree.restrict([])


def _upload_all(net, payloads, label="up"):
    for name, payload in zip(net.tree.site_names, payloads):
        net.send(name, net.coordinator_name, payload, label=label)


Hop = namedtuple("Hop", "sender receiver payload")


def _spy_on_hops(monkeypatch):
    """Record every hop a network meters, payload included (the meters
    themselves keep bit counts only)."""
    hops = []
    record_hop = Network._record_hop

    def spy(self, child, direction, payload, label, bits):
        parent = self.tree.parent[child]
        sender, receiver = (child, parent) if direction == UPSTREAM else (parent, child)
        hops.append(Hop(sender, receiver, payload))
        record_hop(self, child, direction, payload, label, bits)

    monkeypatch.setattr(Network, "_record_hop", spy)
    return hops


class TestTreeNetworkUpstream:
    def test_mergeable_group_forwards_one_summary_at_max_child_bits(self, monkeypatch):
        hops = _spy_on_hops(monkeypatch)
        tree = TreeSpec.regular(_sites(4), 2)
        net = TreeNetwork(tree.site_names, tree=tree)
        payloads = [np.full(8, i, dtype=np.int64) for i in range(4)]
        _upload_all(net, payloads)
        bits = net.link_bits()  # triggers the drain
        leaf_bits = bits["site-0"]
        assert leaf_bits > 0
        # Aggregator edges carry ONE merged summary: bits = max child burst,
        # not the sum — the merge is real, not an accounting fiction.
        assert bits["agg-0-0"] == leaf_bits
        assert bits["agg-0-1"] == leaf_bits
        # And the forwarded payload IS the exact entrywise sum.
        merged = [
            m for m in hops if m.sender == "agg-0-0"
        ]
        assert len(merged) == 1
        np.testing.assert_array_equal(merged[0].payload, payloads[0] + payloads[1])

    def test_root_ingress_grows_with_fan_out_not_k(self):
        for k in (4, 8, 16):
            tree = TreeSpec.regular(_sites(k), 2)
            net = TreeNetwork(tree.site_names, tree=tree)
            _upload_all(net, [np.ones(8, dtype=np.int64)] * k)
            root = net.root_link_bits()
            assert len(root) == 2  # fan-in is the fan-out, whatever k is
            assert net.max_root_link_bits == net.link_bits()["site-0"]

    def test_unmergeable_group_batches_at_summed_bits(self, monkeypatch):
        hops = _spy_on_hops(monkeypatch)
        tree = TreeSpec.regular(_sites(4), 2)
        net = TreeNetwork(tree.site_names, tree=tree)
        # float payloads are never merged (lossy); they batch-forward.
        payloads = [np.linspace(0, 1, 8) for _ in range(4)]
        _upload_all(net, payloads)
        bits = net.link_bits()
        assert bits["agg-0-0"] == bits["site-0"] + bits["site-1"]
        batched = [m for m in hops if m.sender == "agg-0-0"]
        assert isinstance(batched[0].payload, list)
        assert len(batched[0].payload) == 2

    def test_bool_group_batches_instead_of_or_ing(self, monkeypatch):
        hops = _spy_on_hops(monkeypatch)
        net = TreeNetwork(_sites(4), tree=TreeSpec.regular(_sites(4), 2))
        for name in net.tree.site_names:
            net.send(name, net.coordinator_name, np.array([True, True]), bits=2)
        # A bool array's += is a logical or, not a sum: never merged.
        assert net.link_bits()["agg-0-0"] == 4
        assert net.merges == 0
        (batched,) = [m for m in hops if m.sender == "agg-0-0"]
        assert isinstance(batched.payload, list) and len(batched.payload) == 2

    def test_multi_level_drain_cascades_bottom_up(self):
        tree = TreeSpec.from_grouping(_sites(4), [[0, [1, 2]], 3])
        net = TreeNetwork(tree.site_names, tree=tree)
        _upload_all(net, [np.arange(6) for _ in range(4)])
        assert net.total_bits > 0
        # agg-0.1 (depth 2) forwarded before agg-0 (depth 1) forwarded.
        senders = [m.sender for m in net.log.messages if m.sender.startswith("agg")]
        assert senders == ["agg-0.1", "agg-0"]
        # Two levels of merging happened.
        assert net.merges == 2

    def test_send_rejects_non_coordinator_endpoints_and_unknown_sites(self):
        net = TreeNetwork(_sites(4), tree=TreeSpec.regular(_sites(4), 2))
        with pytest.raises(ValueError, match="one endpoint"):
            net.send("site-0", "site-1", b"x")
        with pytest.raises(ValueError, match="unknown site"):
            net.send("agg-0-0", "coordinator", b"x")

    def test_upstream_hop_records_one_edge_without_staging(self):
        net = TreeNetwork(_sites(4), tree=TreeSpec.regular(_sites(4), 2))
        net.upstream_hop("agg-0-0", b"\x00" * 4, label="delta", bits=32)
        assert net.link_bits() == {
            "site-0": 0, "site-1": 0, "site-2": 0, "site-3": 0,
            "agg-0-0": 32, "agg-0-1": 0,
        }
        with pytest.raises(ValueError, match="unknown tree edge"):
            net.upstream_hop("nope", b"", bits=1)


class TestTreeNetworkDownstream:
    def test_downstream_send_pays_every_path_edge(self):
        tree = TreeSpec.regular(_sites(8), 2)
        net = TreeNetwork(tree.site_names, tree=tree)
        net.send("coordinator", "site-5", b"x" * 4, label="down", bits=32)
        bits = net.link_bits()
        for child in tree.path_edges("site-5"):  # agg-1-1, agg-0-2, site-5
            assert bits[child] == 32
        assert net.total_bits == 32 * 3

    def test_broadcast_pays_each_edge_once(self):
        tree = TreeSpec.regular(_sites(8), 2)
        net = TreeNetwork(tree.site_names, tree=tree)
        net.broadcast(b"x", label="bc", bits=64)
        bits = net.link_bits()
        assert all(v == 64 for v in bits.values())
        # 8 leaf edges + 6 aggregator edges, one copy each; the flat star
        # pays k copies on k links but its ROOT ingress edges number k.
        assert net.total_bits == 64 * (8 + 6)
        flat = Network(_sites(8))
        flat.broadcast(b"x", label="bc", bits=64)
        assert flat.total_bits == 64 * 8
        assert len(net.root_link_bits()) == 2 < len(flat.link_bits())

    def test_targeted_broadcast_covers_only_needed_paths(self):
        tree = TreeSpec.regular(_sites(8), 2)
        net = TreeNetwork(tree.site_names, tree=tree)
        net.broadcast(b"x", bits=8, sites=["site-0", "site-1"])
        bits = net.link_bits()
        touched = {edge for edge, v in bits.items() if v}
        assert touched == {"agg-1-0", "agg-0-0", "site-0", "site-1"}


class TestTreeNetworkLifecycle:
    def test_reset_clears_staged_uploads_and_meters(self):
        net = TreeNetwork(_sites(4), tree=TreeSpec.regular(_sites(4), 2))
        _upload_all(net, [np.ones(4, dtype=np.int64)] * 4)
        assert net.total_bits > 0
        _upload_all(net, [np.ones(4, dtype=np.int64)] * 4)  # leave staged state
        net.reset()
        assert net.total_bits == 0
        assert net.merge_seconds == 0.0
        assert net.merges == 0
        assert all(not staged for staged in net._staged.values())

    def test_rounds_flip_on_direction_change(self):
        net = TreeNetwork(_sites(4), tree=TreeSpec.regular(_sites(4), 2))
        net.broadcast(b"q", bits=8)
        _upload_all(net, [np.ones(4, dtype=np.int64)] * 4)
        net.broadcast(b"q", bits=8)
        _upload_all(net, [np.ones(4, dtype=np.int64)] * 4)
        # Same round semantics as the star: every direction flip opens a
        # new round, so down/up/down/up is four.
        assert net.rounds == 4

    def test_conditions_validate_against_tree_edges(self):
        tree = TreeSpec.regular(_sites(4), 2)
        slow = LinkModel(latency=1.0)
        # Aggregator edges are legal override targets; unknown names are not.
        TreeNetwork(tree.site_names, tree=tree, conditions=NetworkConditions(overrides={"agg-0-0": slow}))
        with pytest.raises(ValueError, match="match no edge"):
            TreeNetwork(tree.site_names, tree=tree, conditions=NetworkConditions(overrides={"nope": slow}))
        # Regions must name aggregators (a subtree), never leaves.
        TreeNetwork(tree.site_names, tree=tree, conditions=NetworkConditions(regions={"agg-0-1": slow}))
        with pytest.raises(ValueError, match="no aggregator"):
            TreeNetwork(tree.site_names, tree=tree, conditions=NetworkConditions(regions={"site-0": slow}))


class TestTreeMakespan:
    def test_ideal_conditions_price_to_zero(self):
        net = TreeNetwork(_sites(4), tree=TreeSpec.regular(_sites(4), 2))
        _upload_all(net, [np.ones(4, dtype=np.int64)] * 4)
        makespan, per_round = net.simulate()
        assert makespan == 0.0
        assert per_round and all(v == 0.0 for v in per_round.values())

    def test_serialized_fan_in_beats_the_flat_star_when_transfer_dominates(self):
        """The model the bench charts: a depth-1 tree drains k bursts back to
        back into the root; a fan-out-F tree drains F per level."""
        k, bits = 16, 10_000
        conditions = NetworkConditions(LinkModel(latency=0.0, bandwidth=1000.0))
        flat = TreeNetwork(_sites(k), tree=TreeSpec.flat(_sites(k)), conditions=conditions)
        tree = TreeNetwork(_sites(k), tree=TreeSpec.regular(_sites(k), 4), conditions=conditions)
        for net in (flat, tree):
            for name in net.tree.site_names:
                net.send(name, "coordinator", np.ones(4, dtype=np.int64), bits=bits)
        flat_makespan = flat.makespan()
        tree_makespan = tree.makespan()
        # Flat: 16 serialized bursts.  Tree: 2 levels x fan-in 4 (and the
        # upper level moves merged summaries at max-child bits).
        assert flat_makespan == pytest.approx(k * bits / 1000.0)
        assert tree_makespan == pytest.approx(2 * 4 * bits / 1000.0)
        assert tree_makespan < flat_makespan

    def test_latency_dominated_trees_pay_per_level(self):
        """Depth costs latency: with free bandwidth the tree pays one
        latency per level while the flat star pays it once."""
        conditions = NetworkConditions(LinkModel(latency=0.5, bandwidth=math.inf))
        flat = TreeNetwork(_sites(8), tree=TreeSpec.flat(_sites(8)), conditions=conditions)
        tree = TreeNetwork(_sites(8), tree=TreeSpec.regular(_sites(8), 2), conditions=conditions)
        for net in (flat, tree):
            for name in net.tree.site_names:
                net.send(name, "coordinator", np.ones(2, dtype=np.int64), bits=64)
        assert flat.makespan() == pytest.approx(0.5)
        assert tree.makespan() == pytest.approx(0.5 * tree.tree.depth)
