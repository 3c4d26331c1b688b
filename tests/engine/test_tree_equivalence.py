"""The tree acceptance pin: root estimates are bit-identical to the flat star.

Every protocol family, every k in {4, 16, 64}, across tree shapes (balanced
fan-out trees and an irregular nested grouping): running the SAME seeded
query through an aggregation tree must return the exact value, with the
exact round count, that the depth-1 star returns.  The in-process network
is a metering device that hands the payload back, so the tree overlay can
only reroute and re-meter — any drift here means an aggregator touched
payload semantics, which is the one thing it must never do.  Streaming
sessions meet the same bar byte for byte: the coordinator's merged states
and robust per-site slots equal the flat star's after every boundary.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterEstimator
from repro.comm.conditions import LinkModel, NetworkConditions
from repro.comm.tree import TreeSpec
from repro.engine import streaming
from repro.engine.streaming import StreamingSession
from repro.matrices import generators


def _binary_cluster(k, rows_per_site=2, cols=24, inner=16, seed=2024):
    rng = np.random.default_rng(seed)
    a = (rng.uniform(size=(k * rows_per_site, cols)) < 0.2).astype(np.int64)
    b = (rng.uniform(size=(cols, inner)) < 0.2).astype(np.int64)
    return list(np.array_split(a, k, axis=0)), b


def _integer_cluster(k, seed=31):
    a, b = generators.integer_matrix_pair(32, density=0.1, planted_value=6, seed=seed)
    return list(np.array_split(a, k, axis=0)), b


def _shapes(k):
    """Tree shapes to pit against the flat star for a given k."""
    shapes = {"fan-2": TreeSpec.regular([f"site-{i}" for i in range(k)], 2)}
    if k >= 16:
        shapes["fan-4"] = TreeSpec.regular([f"site-{i}" for i in range(k)], 4)
    if k == 4:
        # Irregular: one nested aggregator plus a direct root leaf.
        shapes["nested"] = TreeSpec.from_grouping(
            [f"site-{i}" for i in range(4)], [[0, [1, 2]], 3]
        )
    return shapes


# One entry per protocol family: (name, needs-integer-data, query lambda).
QUERIES = [
    ("lp0", False, lambda est: est.lp_norm(p=0, epsilon=0.3)),
    ("lp1", False, lambda est: est.lp_norm(p=1.0, epsilon=0.3)),
    ("lp2", False, lambda est: est.lp_norm(p=2.0, epsilon=0.3)),
    ("join_size", False, lambda est: est.join_size(epsilon=0.3)),
    ("natural_join", False, lambda est: est.natural_join_size()),
    ("l0_sample", False, lambda est: est.l0_sample(epsilon=0.3)),
    ("l1_sample", False, lambda est: est.l1_sample()),
    ("linf_binary", False, lambda est: est.linf(epsilon=0.3)),
    ("linf_kappa", False, lambda est: est.linf_kappa(kappa=2.0)),
    ("hh_binary", False, lambda est: est.heavy_hitters(0.2, 0.15)),
    ("hh_general", True, lambda est: est.heavy_hitters(0.2, 0.15)),
]


def _canon(value):
    """Comparable form of a protocol output (floats stay exact floats)."""
    if hasattr(value, "pairs"):
        return ("pairs", frozenset(value.pairs))
    if hasattr(value, "row") and hasattr(value, "col"):
        return ("sample", value.row, value.col)
    return value


def _estimator(k, needs_integer, seed, tree=None):
    shards, b = _integer_cluster(k) if needs_integer else _binary_cluster(k)
    return ClusterEstimator(shards, b, seed=seed, tree=tree)


class TestTreeBitIdentity:
    @pytest.mark.parametrize("k", [4, 16, 64])
    @pytest.mark.parametrize(
        "name, needs_integer, query", QUERIES, ids=[q[0] for q in QUERIES]
    )
    def test_every_family_matches_the_flat_star(self, k, name, needs_integer, query):
        if needs_integer and k > 16:
            # integer_matrix_pair has 32 rows; 64 one-row sites cannot split.
            k = 16
        reference = query(_estimator(k, needs_integer, seed=k + 101))
        for shape_name, tree in _shapes(k).items():
            result = query(_estimator(k, needs_integer, seed=k + 101, tree=tree))
            assert _canon(result.value) == _canon(reference.value), (
                f"{name} over {shape_name} drifted from the flat star"
            )
            assert result.cost.rounds == reference.cost.rounds
            assert result.details["tree"] == tree.describe()

    def test_leaf_edges_carry_the_same_bits_as_the_star(self):
        """Re-metering only ADDS aggregator edges: per-site uploads are
        byte-for-byte what the flat star charges those sites."""
        k = 8
        tree = TreeSpec.regular([f"site-{i}" for i in range(k)], 2)
        flat = _estimator(k, False, seed=5).lp_norm(p=2.0, epsilon=0.3)
        routed = _estimator(k, False, seed=5, tree=tree).lp_norm(p=2.0, epsilon=0.3)
        for site in (f"site-{i}" for i in range(k)):
            assert routed.cost.link_bits[site] == flat.cost.link_bits[site]
        # The aggregator edges are new, metered, and the root's only ingress.
        assert set(routed.cost.link_bits) - set(flat.cost.link_bits) == {
            "agg-0-0", "agg-0-1", "agg-0-2", "agg-0-3", "agg-1-0", "agg-1-1"
        }


class TestStreamingTreeBitIdentity:
    def test_live_queries_match_the_flat_star_epoch_for_epoch(self):
        k = 8
        shards, b = _binary_cluster(k, rows_per_site=3)
        tree = TreeSpec.regular([f"site-{i}" for i in range(k)], 2)
        flat_est = ClusterEstimator(shards, b, seed=77)
        tree_est = ClusterEstimator(shards, b, seed=77, tree=tree)
        with flat_est.stream() as flat, tree_est.stream(tree=tree) as routed:
            offset = 0
            for index, shard in enumerate(shards):
                rows = offset + np.arange(shard.shape[0])
                flat.ingest(index, rows, shard)
                routed.ingest(index, rows, shard)
                offset += shard.shape[0]
            flat.sync()
            routed.sync()
            assert routed.live_lp_norm(p=2.0) == flat.live_lp_norm(p=2.0)
            assert routed.live_l0() == flat.live_l0()
            flat_hh = flat.live_heavy_hitters(0.2)
            routed_hh = routed.live_heavy_hitters(0.2)
            assert _canon(routed_hh) == _canon(flat_hh)
            # Delta uploads traveled the aggregator edges, not a phantom star.
            agg_bits = {
                edge: bits
                for edge, bits in routed.network.link_bits().items()
                if edge.startswith("agg-")
            }
            assert agg_bits and all(bits > 0 for bits in agg_bits.values())

    def test_an_on_time_epoch_decodes_nothing(self, monkeypatch):
        """Aggregators merge the delta bundles the session already holds:
        with every shipping site on time, no payload is decoded."""
        k = 8
        shards, b = _binary_cluster(k, rows_per_site=3)
        session = ClusterEstimator(shards, b, seed=77).stream(tree=2)
        decoded = []
        decode = streaming.deserialize_deltas

        def spy(*args):
            decoded.append(args)
            return decode(*args)

        monkeypatch.setattr(streaming, "deserialize_deltas", spy)
        offset = 0
        for index, shard in enumerate(shards):
            session.ingest(index, offset + np.arange(shard.shape[0]), shard)
            offset += shard.shape[0]
        report = session.end_epoch()
        assert all(report.shipped.values()) and report.late == []
        assert session.network.link_bits()["agg-1-0"] > 0
        assert decoded == []

    @pytest.mark.parametrize("sketch_mode", ["dense", "hash"])
    def test_merged_states_match_the_flat_star_byte_for_byte(self, sketch_mode):
        """The coordinator's merged states and robust per-site slots are
        the same bytes on every shape, after every boundary and after a
        late fold, with one deadline straggler in the stream; the slots
        add up to the merged states."""
        k = 8
        names = [f"site-{i}" for i in range(k)]
        shapes = {
            "flat": None,
            "fan-2": 2,
            "nested": TreeSpec.from_grouping(
                names, [[0, [1, 2]], 3, [4, [5, 6], 7]]
            ),
        }
        conditions = NetworkConditions(
            LinkModel(latency=0.01),
            overrides={"site-5": LinkModel(latency=1.0)},
            deadline=0.5,
        )
        b = np.random.default_rng(3).integers(0, 3, size=(16, 12))
        sessions = {
            shape: StreamingSession(
                [4] * k,
                b,
                seed=19,
                sketch_mode=sketch_mode,
                conditions=conditions,
                robust=1,
                tree=tree,
            )
            for shape, tree in shapes.items()
        }

        def snapshot(session):
            def state(sketch):
                array = sketch.state_array()
                return None if array is None else array.tobytes()

            return (
                {key: state(sketch) for key, sketch in session.merged.items()},
                [
                    {key: state(sketch) for key, sketch in slot.items()}
                    for slot in session.site_merged
                ],
            )

        def assert_same_bytes(when):
            flat = snapshot(sessions["flat"])
            assert flat[0]["ams"] is not None
            for shape in ("fan-2", "nested"):
                assert snapshot(sessions[shape]) == flat, f"{shape} {when}"
            # The robust slots hold every merged delta exactly once.
            session = sessions["flat"]
            for key, merged in session.merged.items():
                total = session.templates[key].empty_copy()
                for slot in session.site_merged:
                    total.merge(slot[key])
                assert total.state_array().tobytes() == flat[0][key], when

        rng = np.random.default_rng(41)
        for epoch in range(4):
            for index in rng.choice(k, size=5, replace=False).tolist() + [5]:
                rows = 4 * index + rng.choice(4, size=2, replace=False)
                deltas = rng.integers(-3, 4, size=(2, b.shape[0]))
                for session in sessions.values():
                    session.ingest(index, rows, deltas)
            reports = [session.end_epoch() for session in sessions.values()]
            assert all(report.late == ["site-5"] for report in reports)
            assert_same_bytes(f"after end_epoch {epoch + 1}")
            if epoch % 2:
                for session in sessions.values():
                    assert session.collect_late()["site-5"] > 0
                assert_same_bytes(f"after collect_late {epoch + 1}")
