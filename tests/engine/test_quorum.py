"""Quorum execution and straggler late-merge, at the engine level.

Pins the ISSUE 9 tentpole semantics without any real transport:

* a quorum run answers from the fastest ``n - f`` responders, so its
  simulated makespan strictly shrinks as ``f`` grows (the slow links
  leave the critical path) and is **bit-identical** to a dropout-exclude
  run over the same contributor set — quorum *is* survivor
  renormalization with a latency-chosen survivor set;
* fewer than ``n - f`` responders raise :class:`SiteDroppedError` with
  ``reason="quorum"`` and a structured degradation report;
* a streaming straggler's upload is queued (``late``), folded at the next
  boundary (``late_merged``) or via ``collect_late()``, and the folded
  state is bit-identical to an on-time ship — merges are linear sums;
* ``quorum_met`` on the epoch report tracks on-time shippers vs ``n - f``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterEstimator
from repro.comm.conditions import LinkModel, NetworkConditions
from repro.engine.lp_norm import StarLpNormProtocol
from repro.engine.runtime import QuorumPolicy, Runtime, SiteDroppedError

NUM_SITES = 4
SEED = 11


def _data():
    rng = np.random.default_rng(23)
    a = rng.integers(0, 3, size=(32, 16))
    b = rng.integers(0, 3, size=(16, 12))
    return np.array_split(a, NUM_SITES, axis=0), b


def _latencies(stragglers: int = 1) -> NetworkConditions:
    """Distinct per-site latencies; the last ``stragglers`` sites are slow."""
    overrides = {
        f"site-{i}": LinkModel(latency=0.01 + 0.02 * i) for i in range(NUM_SITES)
    }
    for i in range(NUM_SITES - stragglers, NUM_SITES):
        overrides[f"site-{i}"] = LinkModel(latency=2.0)
    return NetworkConditions(
        LinkModel(latency=0.01), overrides=overrides, deadline=0.5
    )


class TestQuorumOneShot:
    def test_makespan_strictly_shrinks_with_tolerance(self):
        shards, b = _data()
        overrides = {
            f"site-{i}": LinkModel(latency=0.01 + 0.05 * i)
            for i in range(NUM_SITES)
        }
        conditions = NetworkConditions(LinkModel(latency=0.01), overrides=overrides)
        makespans = []
        for f in range(3):
            result = StarLpNormProtocol(2.0, 0.3, seed=SEED).run(
                shards,
                b,
                runtime=Runtime(quorum=QuorumPolicy(f=f), dropout="exclude"),
                conditions=conditions,
            )
            makespans.append(result.cost.makespan)
        assert makespans[1] < makespans[0]
        assert makespans[2] < makespans[1]

    def test_quorum_equals_dropout_exclude_over_the_same_survivors(self):
        """Quorum = survivor renormalization with a latency-chosen set."""
        shards, b = _data()
        quorum = StarLpNormProtocol(2.0, 0.3, seed=SEED).run(
            shards,
            b,
            runtime=Runtime(quorum=QuorumPolicy(f=1), dropout="exclude"),
            conditions=_latencies(stragglers=1),
        )
        dropout = quorum.details["dropout"]
        assert dropout["stragglers"] == [f"site-{NUM_SITES - 1}"]
        assert dropout["contributing_sites"] == [
            f"site-{i}" for i in range(NUM_SITES - 1)
        ]
        assert dropout["quorum"] is not None

        excluded = StarLpNormProtocol(2.0, 0.3, seed=SEED).run(
            shards,
            b,
            runtime=Runtime(dropout="exclude"),
            conditions=NetworkConditions(
                LinkModel(latency=0.01), dropped=[f"site-{NUM_SITES - 1}"]
            ),
        )
        assert quorum.value == excluded.value

    def test_shortfall_raises_with_a_structured_report(self):
        shards, b = _data()
        with pytest.raises(SiteDroppedError, match="quorum not met") as info:
            StarLpNormProtocol(2.0, 0.3, seed=SEED).run(
                shards,
                b,
                runtime=Runtime(
                    quorum=QuorumPolicy(f=1, deadline=0.5), dropout="exclude"
                ),
                conditions=_latencies(stragglers=3),
            )
        error = info.value
        assert error.reason == "quorum"
        report = error.degradation_report()
        assert report["reason"] == "quorum"
        assert report["surviving_sites"] == 1
        assert report["dropped_sites"] == ["site-1", "site-2", "site-3"]

    def test_policy_coercion_and_validation(self):
        assert QuorumPolicy.coerce(None) is None
        assert QuorumPolicy.coerce(2) == QuorumPolicy(f=2)
        assert QuorumPolicy.coerce((8, 3)) == QuorumPolicy(n=8, f=3)
        policy = QuorumPolicy(f=1, deadline=0.25)
        assert QuorumPolicy.coerce(policy) is policy
        assert QuorumPolicy(n=8, f=3).required(8) == 5
        assert QuorumPolicy(f=3).required(8) == 5
        with pytest.raises(ValueError, match="only 4"):
            QuorumPolicy(n=8, f=3).required(4)
        with pytest.raises(ValueError, match="n - f"):
            QuorumPolicy(n=2, f=2)
        with pytest.raises(ValueError, match="f must be >= 0"):
            QuorumPolicy(f=-1)
        with pytest.raises(ValueError, match="deadline"):
            QuorumPolicy(f=1, deadline=0.0)

    @pytest.mark.parametrize("quorum", [QuorumPolicy(f=NUM_SITES + 1), NUM_SITES])
    def test_f_at_least_the_site_count_is_rejected(self, quorum):
        """Without an explicit n the bound ``n - f >= 1`` is checked against
        the live site count: a runtime or session that would answer from
        no site (or from a negative slice) fails instead."""
        names = [f"site-{i}" for i in range(NUM_SITES)]
        with pytest.raises(ValueError, match="n - f"):
            Runtime(quorum=quorum).partition_quorum(names)
        shards, b = _data()
        with pytest.raises(ValueError, match="n - f"):
            ClusterEstimator(shards, b, seed=SEED).stream(quorum=quorum)
        with pytest.raises(ValueError, match="n - f"):
            ClusterEstimator(
                shards, b, seed=SEED, runtime=Runtime(quorum=quorum)
            ).stream()

    def test_f_one_below_the_site_count_answers_from_one_site(self):
        names = [f"site-{i}" for i in range(NUM_SITES)]
        contributors, stragglers, details = Runtime(
            quorum=NUM_SITES - 1
        ).partition_quorum(names)
        assert contributors == [0]
        assert stragglers == names[1:]
        assert details["required"] == 1

    @pytest.mark.parametrize(
        "query",
        [
            lambda cluster: cluster.lp_norm(2.0, 0.3),
            lambda cluster: cluster.natural_join_size(),
            lambda cluster: cluster.l0_sample(0.4),
            lambda cluster: cluster.l1_sample(),
            lambda cluster: cluster.heavy_hitters(0.2, 0.1),
        ],
        ids=["lp_norm", "natural_join_size", "l0_sample", "l1_sample", "heavy_hitters"],
    )
    def test_quorum_without_conditions_answers_like_ideal_conditions(self, query):
        """A quorum runtime needs no network conditions: with every link
        ideal, the fastest ``n - f`` are the first sites in site order.
        Every family runs through the same star driver, so each is checked."""
        shards, b = _data()
        a = np.vstack(shards)

        def answer(conditions):
            return query(
                ClusterEstimator.from_matrix(
                    a,
                    b,
                    NUM_SITES,
                    seed=1,
                    runtime=Runtime(quorum=1, dropout="exclude"),
                    conditions=conditions,
                )
            )

        bare, ideal = answer(None), answer(NetworkConditions())
        assert bare.value == ideal.value
        assert bare.cost.total_bits == ideal.cost.total_bits
        contributing = bare.details["dropout"]["contributing_sites"]
        assert contributing == ideal.details["dropout"]["contributing_sites"]
        assert contributing == ["site-0", "site-1", "site-2"]


def _batches(shards):
    offset = 0
    out = []
    for index, shard in enumerate(shards):
        out.append((index, offset + np.arange(shard.shape[0]), shard))
        offset += shard.shape[0]
    return out


def _sessions(conditions):
    """A session under ``conditions`` and an ideal-network twin, same seed."""
    shards, b = _data()
    session = ClusterEstimator(shards, b, seed=SEED).stream(conditions=conditions)
    reference = ClusterEstimator(shards, b, seed=SEED).stream()
    return session, reference, shards


class TestStreamingLateMerge:
    def test_straggler_is_queued_then_collected_bit_exact(self):
        session, reference, shards = _sessions(_latencies(stragglers=1))
        for index, rows, deltas in _batches(shards):
            session.ingest(index, rows, deltas)
            reference.ingest(index, rows, deltas)
        report = session.end_epoch(force=True)
        reference.end_epoch(force=True)
        straggler = f"site-{NUM_SITES - 1}"
        assert report.late == [straggler]
        assert session.late_pending == [straggler]
        # The queued upload is missing from the live state...
        assert session.live_lp_norm(2.0) != reference.live_lp_norm(2.0)
        # ...until it arrives; then the fold is bit-exact (linear merges).
        folded = session.collect_late()
        assert folded[straggler] > 0
        assert session.late_pending == []
        assert session.live_lp_norm(2.0) == reference.live_lp_norm(2.0)

    def test_straggler_folds_at_the_next_boundary(self):
        session, reference, shards = _sessions(_latencies(stragglers=1))
        straggler = f"site-{NUM_SITES - 1}"
        for index, rows, deltas in _batches(shards):
            half = rows.shape[0] // 2
            session.ingest(index, rows[:half], deltas[:half])
            reference.ingest(index, rows[:half], deltas[:half])
        assert session.end_epoch(force=True).late == [straggler]
        for index, rows, deltas in _batches(shards):
            half = rows.shape[0] // 2
            session.ingest(index, rows[half:], deltas[half:])
            reference.ingest(index, rows[half:], deltas[half:])
        second = session.end_epoch(force=True)
        reference.end_epoch(force=True)
        reference.end_epoch(force=True)  # no-op: nothing pending
        assert second.late_merged == [straggler]  # epoch 1's queued upload
        assert second.late == [straggler]  # epoch 2's own upload, in flight
        session.collect_late()
        assert session.live_lp_norm(2.0) == reference.live_lp_norm(2.0)
        assert session.live_heavy_hitters(phi=0.3) == reference.live_heavy_hitters(
            phi=0.3
        )

    def test_collected_bytes_reach_the_next_report(self):
        """A fold made by ``collect_late()`` is credited to the next
        report's bytes, so the history adds up to what the sites shipped,
        while ``late_merged`` keeps listing boundary folds only."""
        shards, b = _data()
        conditions = NetworkConditions(
            LinkModel(latency=0.01),
            overrides={"site-1": LinkModel(latency=1.0)},
            deadline=0.5,
        )
        session = ClusterEstimator(shards[:3], b, seed=SEED).stream(
            conditions=conditions, sketch_mode="hash"
        )
        for index, rows, deltas in _batches(shards[:3]):
            session.ingest(index, rows, deltas)
        assert session.end_epoch().late == ["site-1"]
        folded = session.collect_late()["site-1"]
        report = session.end_epoch()
        assert report.late_merged == []
        assert report.upload_bytes["site-1"] == folded
        assert (
            session.history[-1].cumulative_bytes
            == session.total_upload_bytes
            == sum(r.total_bytes for r in session.history)
        )

    def test_quorum_met_tracks_on_time_shippers(self):
        shards, b = _data()
        met = ClusterEstimator(shards, b, seed=SEED).stream(
            conditions=_latencies(stragglers=1), quorum=(NUM_SITES, 1)
        )
        short = ClusterEstimator(shards, b, seed=SEED).stream(
            conditions=_latencies(stragglers=2), quorum=(NUM_SITES, 1)
        )
        for index, rows, deltas in _batches(shards):
            met.ingest(index, rows, deltas)
            short.ingest(index, rows, deltas)
        assert met.end_epoch(force=True).quorum_met is True
        report = short.end_epoch(force=True)
        assert report.quorum_met is False
        assert report.late == ["site-2", "site-3"]

    def test_session_inherits_the_runtime_quorum(self):
        shards, b = _data()
        estimator = ClusterEstimator(
            shards, b, seed=SEED, runtime=Runtime(quorum=QuorumPolicy(f=1))
        )
        session = estimator.stream()
        assert session.quorum == QuorumPolicy(f=1)
        explicit = estimator.stream(quorum=(NUM_SITES, 2))
        assert explicit.quorum == QuorumPolicy(n=NUM_SITES, f=2)

    def test_quorum_n_beyond_the_cluster_is_rejected_at_open(self):
        shards, b = _data()
        with pytest.raises(ValueError, match="only 4"):
            ClusterEstimator(shards, b, seed=SEED).stream(
                quorum=(NUM_SITES + 1, 1)
            )


class TestVectorizedPartitionPin:
    """The single-pass NumPy ``partition_quorum`` against a reference scan.

    The vectorization must be invisible: contributor sets are pinned
    bit-identical to the obvious per-site loop — deadline filtering, the
    fastest ``n - f`` selection, and tie-breaks by site order included.
    Hypothesis drives quantized latencies so ties actually occur.
    """

    @staticmethod
    def _reference(site_names, latencies, required, deadline):
        """The historical per-site scan, written as plainly as possible."""
        responders = [
            i
            for i in range(len(site_names))
            if deadline is None or latencies[i] <= deadline
        ]
        if len(responders) < required:
            return None
        ordered = sorted(responders, key=lambda i: (latencies[i], i))
        contributors = sorted(ordered[:required])
        chosen = set(contributors)
        stragglers = [n for i, n in enumerate(site_names) if i not in chosen]
        return contributors, stragglers

    def test_exact_ties_break_by_site_order(self):
        names = [f"site-{i}" for i in range(6)]
        # Sites 1, 3, 4 tie exactly; order must pick 1 then 3, never 4.
        overrides = {
            "site-0": LinkModel(latency=0.9),
            "site-1": LinkModel(latency=0.2),
            "site-2": LinkModel(latency=0.7),
            "site-3": LinkModel(latency=0.2),
            "site-4": LinkModel(latency=0.2),
            "site-5": LinkModel(latency=0.4),
        }
        conditions = NetworkConditions(LinkModel(latency=0.5), overrides=overrides)
        runtime = Runtime(quorum=QuorumPolicy(f=4), dropout="exclude")
        contributors, stragglers, details = runtime.partition_quorum(
            names, conditions
        )
        assert contributors == [1, 3]
        assert stragglers == ["site-0", "site-2", "site-4", "site-5"]
        assert details["contributing_sites"] == ["site-1", "site-3"]

    @settings(max_examples=120, deadline=None)
    @given(
        latencies=st.lists(
            st.integers(0, 4).map(lambda q: q / 4.0), min_size=2, max_size=12
        ),
        f=st.integers(0, 3),
        deadline_q=st.one_of(st.none(), st.integers(1, 4)),
    )
    def test_random_latency_profiles_match_the_reference_scan(
        self, latencies, f, deadline_q
    ):
        k = len(latencies)
        f = min(f, k - 1)
        deadline = None if deadline_q is None else deadline_q / 4.0
        names = [f"site-{i}" for i in range(k)]
        conditions = NetworkConditions(
            LinkModel(latency=0.0),
            overrides={
                name: LinkModel(latency=lat) if lat else LinkModel()
                for name, lat in zip(names, latencies)
            },
            deadline=deadline,
        )
        runtime = Runtime(quorum=QuorumPolicy(f=f), dropout="exclude")
        expected = self._reference(names, latencies, k - f, deadline)
        if expected is None:
            with pytest.raises(SiteDroppedError, match="quorum"):
                runtime.partition_quorum(names, conditions)
            return
        contributors, stragglers, details = runtime.partition_quorum(
            names, conditions
        )
        assert (contributors, stragglers) == expected
        assert details["required"] == k - f
        assert details["arrival_s"] == {
            name: lat for name, lat in zip(names, latencies)
        }

    def test_tree_regions_resolve_per_edge_and_report_per_subtree(self):
        from repro.comm.tree import TreeSpec

        names = [f"site-{i}" for i in range(6)]
        tree = TreeSpec.regular(names, 3)  # agg-0-0: 0..2, agg-0-1: 3..5
        conditions = NetworkConditions(
            LinkModel(latency=0.1),
            regions={"agg-0-1": LinkModel(latency=0.9)},
            overrides={"site-4": LinkModel(latency=0.05)},
        )
        runtime = Runtime(quorum=QuorumPolicy(f=2), dropout="exclude")
        contributors, stragglers, details = runtime.partition_quorum(
            names, conditions, tree=tree
        )
        # Override beats region (site-4); region beats default (3, 5 slow).
        expected_lat = [0.1, 0.1, 0.1, 0.9, 0.05, 0.9]
        assert details["arrival_s"] == {
            name: lat for name, lat in zip(names, expected_lat)
        }
        assert (contributors, stragglers) == self._reference(
            names, expected_lat, 4, None
        )
        assert details["per_subtree"] == {
            "agg-0-0": {"sites": 3, "contributing": 3},
            "agg-0-1": {"sites": 3, "contributing": 1},
        }
