"""A real 2-level aggregation tree over loopback sockets.

The contract: standing a cluster up as a socket *tree* — aggregator agent
processes fronting leaf-site processes, every tree edge its own TCP
connection — changes nothing about the estimates (bit-identical to the
in-process flat star with the same seed) while the coordinator's socket
fan-in drops from k to the number of root children; and the service
invariant ``observed_bytes * 8 == wire_bits`` holds on every tree edge.
"""

import numpy as np
import pytest

from repro import ClusterEstimator
from repro.comm.tree import TreeSpec
from repro.service.client import local_cluster

def _cluster_data(k=4, rows=6, cols=16, seed=5):
    rng = np.random.default_rng(seed)
    a = (rng.uniform(size=(k * rows, cols)) < 0.3).astype(int)
    b = (rng.uniform(size=(cols, 12)) < 0.3).astype(int)
    return list(np.array_split(a, k, axis=0)), b


def _two_level_tree():
    return TreeSpec(
        {
            "coordinator": ["agg-0-0", "agg-0-1"],
            "agg-0-0": ["site-0", "site-1"],
            "agg-0-1": ["site-2", "site-3"],
        }
    )


def _assert_edge_invariant(report):
    """observed * 8 == wire bits, in total and on every tree edge."""
    assert report["observed_bytes"] * 8 == report["wire_bits"]
    for edge, wire_bits in report["wire_link_bits"].items():
        assert report["observed_link_bytes"].get(edge, 0) * 8 == wire_bits, edge


class TestServiceTree:
    def test_two_level_tree_is_bit_identical_and_edge_metered(self):
        shards, b = _cluster_data()
        tree = _two_level_tree()
        flat = ClusterEstimator(shards, b, seed=11)
        reference_l2 = flat.lp_norm(p=2.0, epsilon=0.3)
        reference_l0 = flat.lp_norm(p=0, epsilon=0.3)
        with local_cluster(shards, b, seed=11, tree=tree) as (server, client):
            value_l2 = client.lp_norm(p=2.0, epsilon=0.3)
            report_l2 = client.last_service
            value_l0 = client.lp_norm(p=0, epsilon=0.3)
            report_l0 = client.last_service

        # Estimates and simulated meters: bit-identical to the in-process
        # flat star (the tree reroutes and re-meters, never recomputes).
        assert value_l2.value == reference_l2.value
        assert value_l0.value == reference_l0.value
        assert value_l2.cost.rounds == reference_l2.cost.rounds

        for report in (report_l2, report_l0):
            _assert_edge_invariant(report)
            assert report["tree"] == tree.describe()
            # Every tree edge carried real bytes: both aggregator edges and
            # all four leaf edges appear in the per-edge observed counters.
            observed = {
                edge for edge, n in report["observed_link_bytes"].items() if n > 0
            }
            assert {"agg-0-0", "agg-0-1"} <= observed
            assert {f"site-{i}" for i in range(4)} <= observed
            # The coordinator's own sockets are the aggregator edges only:
            # root fan-in is 2, not k=4.
            assert set(report["root_link_bits"]) == {"agg-0-0", "agg-0-1"}

    def test_mixed_tree_with_direct_leaf(self):
        """A leaf directly under the root coexists with an aggregator."""
        shards, b = _cluster_data(k=3)
        tree = TreeSpec(
            {"coordinator": ["agg-0-0", "site-2"], "agg-0-0": ["site-0", "site-1"]}
        )
        reference = ClusterEstimator(shards, b, seed=7).lp_norm(p=1.0, epsilon=0.3)
        with local_cluster(shards, b, seed=7, tree=tree) as (server, client):
            value = client.lp_norm(p=1.0, epsilon=0.3)
            report = client.last_service
        assert value.value == reference.value
        _assert_edge_invariant(report)
        assert set(report["root_link_bits"]) == {"agg-0-0", "site-2"}

    def test_integer_fan_out_sugar(self):
        """``tree=2`` stands up the balanced fan-out-2 tree of processes."""
        shards, b = _cluster_data()
        reference = ClusterEstimator(shards, b, seed=3).join_size(epsilon=0.3)
        with local_cluster(shards, b, seed=3, tree=2) as (server, client):
            assert server.tree is not None and not server.tree.is_flat
            value = client.join_size(epsilon=0.3)
            report = client.last_service
        assert value.value == reference.value
        _assert_edge_invariant(report)

    def test_streaming_session_over_the_tree(self):
        """Epoch deltas merge at the aggregators over real sockets too."""
        shards, b = _cluster_data()
        tree = _two_level_tree()
        flat = ClusterEstimator(shards, b, seed=19)
        reference_session = flat.stream(preload=True)
        reference_live = reference_session.live_lp_norm(p=2.0)
        with local_cluster(shards, b, seed=19, tree=tree) as (server, client):
            client.query("stream_open")
            for index, shard in enumerate(shards):
                offset = sum(s.shape[0] for s in shards[:index])
                client.query(
                    "stream_ingest",
                    site=index,
                    rows=offset + np.arange(shard.shape[0]),
                    deltas=shard,
                )
            client.query("stream_sync")
            live = client.query("stream_live_lp_norm", p=2.0)
            report = client.last_service
        assert live == reference_live
        assert report["tree"] == tree.describe()
        # Delta uploads traveled every leaf and aggregator edge.
        for edge in ("site-0", "site-3", "agg-0-0", "agg-0-1"):
            assert report["observed_link_bytes"].get(edge, 0) > 0
