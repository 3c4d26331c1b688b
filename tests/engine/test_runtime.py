"""Executor invariance + fault policies of the message-passing runtime.

The serial-equivalence guarantee (``engine/runtime.py``) has two halves:

* the **serial** executor is pinned to the historical transcripts by the
  existing equivalence/determinism suites, which run without a runtime;
* the **threads** and **processes** executors must reproduce the serial
  run bit for bit — identical protocol outputs *and* identical byte/round
  meters (total, per-label, per-round, per-link, per-site) — for every
  protocol family, at k in {1, 2, 4}.  That is what this module pins.

The family list deliberately includes a ``p != 1`` heavy-hitters run: that
protocol consumes each site's private generator in *two* separated fan-out
phases (the lp-norm subroutine, then entry sampling), so it fails unless
``Runtime.map_sites`` correctly restores generators advanced inside worker
processes.

Dropout policies and the streaming session's executor invariance are
covered at the bottom.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterEstimator
from repro.comm import LinkModel, NetworkConditions
from repro.engine import (
    Runtime,
    SiteDroppedError,
    StarBinaryHeavyHittersProtocol,
    StarExactL1Protocol,
    StarGeneralMatrixLinfProtocol,
    StarHeavyHittersProtocol,
    StarKappaApproxLinfProtocol,
    StarL0SamplingProtocol,
    StarL1SamplingProtocol,
    StarLpNormProtocol,
    StarTwoPlusEpsilonLinfProtocol,
    StreamingSession,
)

SEED = 515151

#: (family id, protocol factory, needs-integer-workload)
FAMILIES = [
    ("lp-p0", lambda: StarLpNormProtocol(0.0, 0.4, seed=SEED), False),
    ("lp-p2", lambda: StarLpNormProtocol(2.0, 0.4, seed=SEED), False),
    ("l0-sampling", lambda: StarL0SamplingProtocol(0.4, seed=SEED), False),
    ("l1-exact", lambda: StarExactL1Protocol(seed=SEED), False),
    ("l1-sampling", lambda: StarL1SamplingProtocol(seed=SEED), False),
    ("linf-2eps", lambda: StarTwoPlusEpsilonLinfProtocol(0.4, seed=SEED), False),
    ("linf-kappa", lambda: StarKappaApproxLinfProtocol(6, seed=SEED), False),
    ("linf-general", lambda: StarGeneralMatrixLinfProtocol(4, seed=SEED), True),
    ("hh-general", lambda: StarHeavyHittersProtocol(0.1, 0.05, seed=SEED), True),
    # Two rng-consuming fan-out phases per site (lp subroutine + sampling):
    # exercises generator restoration across process boundaries.
    ("hh-general-p2", lambda: StarHeavyHittersProtocol(0.1, 0.05, p=2.0, seed=SEED), True),
    ("hh-binary", lambda: StarBinaryHeavyHittersProtocol(0.1, 0.05, seed=SEED), False),
]


@pytest.fixture(scope="module")
def binary_pair():
    rng = np.random.default_rng(41)
    n = 32
    a = (rng.uniform(size=(n, n)) < 0.15).astype(np.int64)
    b = (rng.uniform(size=(n, n)) < 0.15).astype(np.int64)
    return a, b


@pytest.fixture(scope="module")
def integer_pair():
    rng = np.random.default_rng(42)
    n = 32
    a = rng.integers(0, 4, size=(n, n)).astype(np.int64)
    b = rng.integers(0, 4, size=(n, n)).astype(np.int64)
    return a, b


@pytest.fixture(scope="module", params=["threads", "processes"])
def concurrent_runtime(request):
    """One shared pool per executor for the whole module (fork cost paid once)."""
    runtime = Runtime(request.param, max_workers=4)
    yield runtime
    runtime.close()


@pytest.fixture(scope="module")
def serial_baseline(binary_pair, integer_pair):
    """Serial reference transcripts, computed once per (family, k)."""
    cache: dict[tuple[str, int], object] = {}

    def get(family, factory, integer_workload, k):
        key = (family, k)
        if key not in cache:
            a, b = integer_pair if integer_workload else binary_pair
            cache[key] = factory().run(np.array_split(a, k, axis=0), b)
        return cache[key]

    return get


def assert_identical(first, second):
    assert first.value == second.value
    assert first.cost.rounds == second.cost.rounds
    assert first.cost.total_bits == second.cost.total_bits
    assert first.cost.breakdown == second.cost.breakdown
    assert first.cost.per_round == second.cost.per_round
    assert first.cost.link_bits == second.cost.link_bits
    assert first.cost.site_bits == second.cost.site_bits
    assert first.cost.max_link_bits == second.cost.max_link_bits


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize(
    "factory, integer_workload",
    [(factory, integer) for _, factory, integer in FAMILIES],
    ids=[family for family, _, _ in FAMILIES],
)
def test_concurrent_executors_reproduce_serial_transcripts(
    factory,
    integer_workload,
    k,
    binary_pair,
    integer_pair,
    concurrent_runtime,
    serial_baseline,
):
    family = next(f for f, fac, _ in FAMILIES if fac is factory)
    baseline = serial_baseline(family, factory, integer_workload, k)
    a, b = integer_pair if integer_workload else binary_pair
    shards = np.array_split(a, k, axis=0)
    result = factory().run(shards, b, runtime=concurrent_runtime)
    assert_identical(baseline, result)


def test_runtime_rejects_unknown_executor_and_policy():
    with pytest.raises(ValueError):
        Runtime("gpu")
    with pytest.raises(ValueError):
        Runtime(dropout="retry")
    with pytest.raises(ValueError):
        Runtime(max_workers=0)


def test_estimator_facade_accepts_runtime(binary_pair, concurrent_runtime):
    a, b = binary_pair
    serial = ClusterEstimator.from_matrix(a, b, 4, seed=3).join_size(0.4)
    concurrent = ClusterEstimator.from_matrix(
        a, b, 4, seed=3, runtime=concurrent_runtime
    ).join_size(0.4)
    assert_identical(serial, concurrent)


def test_conditions_never_perturb_the_transcript(binary_pair):
    """Conditions price the transcript; bits, rounds and values stay put."""
    a, b = binary_pair
    ideal = ClusterEstimator.from_matrix(a, b, 4, seed=5).join_size(0.4)
    priced = ClusterEstimator.from_matrix(
        a,
        b,
        4,
        seed=5,
        conditions=NetworkConditions(LinkModel(latency=0.01, bandwidth=1e6)),
    ).join_size(0.4)
    assert_identical(ideal, priced)
    assert ideal.cost.makespan == 0.0
    assert priced.cost.makespan > 0.0
    assert priced.cost.makespan == pytest.approx(sum(priced.cost.makespan_per_round.values()))
    assert priced.cost.makespan_per_round.keys() == priced.cost.per_round.keys()


def test_two_party_report_carries_makespan(binary_pair):
    from repro import MatrixProductEstimator

    a, b = binary_pair
    conditions = NetworkConditions(LinkModel(latency=0.5))
    result = MatrixProductEstimator(a, b, seed=2, conditions=conditions).join_size(0.4)
    assert result.cost.makespan >= 0.5 * result.cost.rounds


def test_as_cluster_carries_runtime_and_conditions(binary_pair):
    """Scaling out must not silently shed the WAN model or the executor."""
    from repro import MatrixProductEstimator

    a, b = binary_pair
    conditions = NetworkConditions(LinkModel(latency=0.01, bandwidth=1e6))
    runtime = Runtime(dropout="exclude")
    estimator = MatrixProductEstimator(
        a, b, seed=2, runtime=runtime, conditions=conditions
    )
    cluster = estimator.as_cluster(4)
    assert cluster.runtime is runtime
    assert cluster.conditions is conditions
    assert cluster.join_size(0.4).cost.makespan > 0.0


class TestDropoutPolicies:
    def conditions(self):
        return NetworkConditions(dropped={"site-1"})

    def test_default_policy_fails(self, binary_pair):
        a, b = binary_pair
        cluster = ClusterEstimator.from_matrix(
            a, b, 4, seed=7, conditions=self.conditions()
        )
        with pytest.raises(SiteDroppedError, match="site-1"):
            cluster.join_size(0.4)

    def test_exclude_renormalizes_additive_families(self, binary_pair):
        a, b = binary_pair
        cluster = ClusterEstimator.from_matrix(
            a,
            b,
            4,
            seed=7,
            runtime=Runtime(dropout="exclude"),
            conditions=self.conditions(),
        )
        result = cluster.natural_join_size()
        info = result.details["dropout"]
        assert info["dropped_sites"] == ["site-1"]
        assert info["contributing_sites"] == ["site-0", "site-2", "site-3"]
        assert info["renormalized"]
        # Exact arithmetic: the survivors' exact l1 scaled by the inverse
        # surviving row fraction.
        shards = np.array_split(a, 4, axis=0)
        survivors = np.vstack([shards[0], shards[2], shards[3]])
        expected = float((survivors @ b).sum()) * info["renormalization"]
        assert result.value == pytest.approx(expected)
        assert info["surviving_row_fraction"] == pytest.approx(
            survivors.shape[0] / a.shape[0]
        )

    def test_exclude_runs_non_additive_families_unscaled(self, binary_pair):
        a, b = binary_pair
        cluster = ClusterEstimator.from_matrix(
            a,
            b,
            4,
            seed=7,
            runtime=Runtime(dropout="exclude"),
            conditions=self.conditions(),
        )
        result = cluster.l0_sample(0.4)
        assert not result.details["dropout"]["renormalized"]
        assert result.details["dropout"]["contributing_sites"] == [
            "site-0",
            "site-2",
            "site-3",
        ]

    def test_two_party_run_rejects_dropping_the_only_site(self, binary_pair):
        """Dropping Alice leaves no survivors under either policy."""
        from repro import MatrixProductEstimator

        a, b = binary_pair
        for runtime in (None, Runtime(dropout="exclude")):
            estimator = MatrixProductEstimator(
                a, b, seed=2, runtime=runtime,
                conditions=NetworkConditions(dropped={"alice"}),
            )
            with pytest.raises(SiteDroppedError):
                estimator.join_size(0.4)

    def test_unknown_dropped_names_are_rejected(self, binary_pair):
        """A typo'd fault declaration must not silently test nothing."""
        a, b = binary_pair
        cluster = ClusterEstimator.from_matrix(
            a, b, 4, seed=7, conditions=NetworkConditions(dropped={"site1"})
        )
        with pytest.raises(ValueError, match="site1"):
            cluster.join_size(0.4)

    def test_all_sites_dropped_always_fails(self, binary_pair):
        a, b = binary_pair
        cluster = ClusterEstimator.from_matrix(
            a,
            b,
            2,
            seed=7,
            runtime=Runtime(dropout="exclude"),
            conditions=NetworkConditions(dropped={"site-0", "site-1"}),
        )
        with pytest.raises(SiteDroppedError):
            cluster.join_size(0.4)


class TestStreamingExecutorInvariance:
    def build(self, runtime=None):
        rng = np.random.default_rng(9)
        b = (rng.uniform(size=(24, 24)) < 0.2).astype(np.int64)
        session = StreamingSession([6, 6, 6, 6], b, seed=13, runtime=runtime)
        for site in range(4):
            offset = session.sites[site].row_offset
            deltas = rng.integers(-2, 3, size=(6, 24)).astype(np.int64)
            session.ingest(site, offset + np.arange(6), deltas)
        return session

    def test_epoch_payloads_are_executor_invariant(self, concurrent_runtime):
        serial = self.build()
        concurrent = self.build(runtime=concurrent_runtime)
        # Identical ingestion (the builder reseeds) -> identical epochs.
        first, second = serial.end_epoch(), concurrent.end_epoch()
        assert first.upload_bytes == second.upload_bytes
        assert serial.network.total_bits == concurrent.network.total_bits
        for key in serial.merged:
            ours = serial.merged[key].state_array()
            theirs = concurrent.merged[key].state_array()
            assert np.array_equal(ours, theirs)


class TestStreamingDropout:
    def test_dropped_site_queues_until_restored(self):
        rng = np.random.default_rng(3)
        b = (rng.uniform(size=(16, 16)) < 0.3).astype(np.int64)
        session = StreamingSession([8, 8], b, seed=21)
        reference = StreamingSession([8, 8], b, seed=21)
        deltas = rng.integers(-2, 3, size=(8, 16)).astype(np.int64)
        for target in (session, reference):
            target.ingest(0, np.arange(8), deltas)
            target.ingest(1, 8 + np.arange(8), deltas)

        session.drop_site(1)
        report = session.end_epoch()
        assert report.dropped == ["site-1"]
        assert report.shipped == {"site-0": True, "site-1": False}
        assert session.dropped_sites == ["site-1"]
        assert session.contributing_sites == ["site-0"]

        # One-shot queries respect the partition via the runtime policy.
        with pytest.raises(SiteDroppedError):
            session.join_size(0.4)

        # Restoration ships the backlog; summaries recover bit-exactly.
        session.restore_site(1)
        session.sync()
        reference.sync()
        for key in session.merged:
            assert np.array_equal(
                session.merged[key].state_array(),
                reference.merged[key].state_array(),
            )

    def test_fail_policy_raises_at_the_boundary(self):
        rng = np.random.default_rng(4)
        b = np.eye(8, dtype=np.int64)
        session = StreamingSession([4, 4], b, seed=1, dropout="fail")
        session.ingest(1, 4 + np.arange(4), rng.integers(0, 2, size=(4, 8)))
        session.drop_site(1)
        with pytest.raises(SiteDroppedError, match="site-1"):
            session.end_epoch()
        # A failed boundary leaves the session untouched: no epoch counted,
        # no history gap, and the boundary succeeds once the site is back.
        assert session.epoch == 0
        assert session.history == []
        session.restore_site(1)
        report = session.end_epoch()
        assert report.epoch == 1 and len(session.history) == 1

    def test_custom_site_names_translate_for_one_shot_queries(self):
        """Dropped names AND link overrides keyed by custom session names
        must keep meaning the same sites in the positional one-shot star."""
        from repro.comm import LinkModel, NetworkConditions

        b = np.eye(8, dtype=np.int64)
        slow = LinkModel(latency=5.0, bandwidth=1e6)
        conditions = NetworkConditions(
            LinkModel(latency=0.01, bandwidth=1e6), overrides={"west": slow}
        )
        session = StreamingSession(
            [4, 4], b, seed=1, site_names=("east", "west"), conditions=conditions
        )
        session.ingest(0, np.arange(4), np.ones((4, 8), dtype=np.int64))
        session.ingest(1, 4 + np.arange(4), np.ones((4, 8), dtype=np.int64))
        result = session.join_size(0.4)
        # The straggler override must gate the one-shot makespan too.
        assert result.cost.makespan >= 5.0

        dropped = StreamingSession(
            [4, 4],
            b,
            seed=1,
            site_names=("east", "west"),
            conditions=NetworkConditions(dropped={"west"}),
        )
        with pytest.raises(SiteDroppedError):
            dropped.join_size(0.4)

    def test_dropped_site_without_pending_data_is_harmless(self):
        b = np.eye(8, dtype=np.int64)
        session = StreamingSession([4, 4], b, seed=1, dropout="fail")
        session.drop_site(1)
        report = session.end_epoch()  # nothing pending -> nothing to fail on
        assert report.dropped == ["site-1"]

    def test_static_dropped_declarations_partition_the_session(self):
        """conditions.dropped means the same thing at epoch boundaries and in
        one-shot queries: the site starts partitioned, restore reconnects."""
        b = np.eye(8, dtype=np.int64)
        session = StreamingSession(
            [4, 4], b, seed=1, conditions=NetworkConditions(dropped={"site-1"})
        )
        assert session.dropped_sites == ["site-1"]
        session.ingest(1, 4 + np.arange(4), np.ones((4, 8), dtype=np.int64))
        report = session.end_epoch()  # default policy excludes: delta queues
        assert report.dropped == ["site-1"] and report.total_bytes == 0
        with pytest.raises(SiteDroppedError):
            session.join_size(0.4)
        session.restore_site(1)
        session.sync()
        assert session.live_l0() > 0  # backlog shipped after reconnection
        session.join_size(0.4)  # and queries see the restored site too

    def test_unknown_static_dropped_names_rejected_at_construction(self):
        b = np.eye(8, dtype=np.int64)
        with pytest.raises(ValueError, match="nope"):
            StreamingSession(
                [4, 4], b, seed=1, conditions=NetworkConditions(dropped={"nope"})
            )


class TestRegionalDropout:
    """Both drivers expand a dropped aggregator name by one rule
    (``TreeSpec.expand_regions``): the name stands for the leaves of its
    subtree, while the root and unknown names are rejected as matching no
    site."""

    def one_shot(self, binary_pair, tree, dropped):
        a, b = binary_pair
        cluster = ClusterEstimator.from_matrix(
            a,
            b,
            4,
            seed=7,
            runtime=Runtime(dropout="exclude"),
            conditions=NetworkConditions(dropped=dropped),
            tree=tree,
        )
        return cluster.natural_join_size()

    def session(self, tree, dropped):
        return StreamingSession(
            [4, 4, 4, 4],
            np.eye(8, dtype=np.int64),
            seed=1,
            dropout="exclude",
            conditions=NetworkConditions(dropped=dropped),
            tree=tree,
        )

    @pytest.mark.parametrize("tree", [None, 2])
    def test_dropping_the_root_matches_no_site_in_either_driver(
        self, binary_pair, tree
    ):
        with pytest.raises(ValueError, match="match no site"):
            self.one_shot(binary_pair, tree, {"coordinator"})
        with pytest.raises(ValueError, match="match no site"):
            self.session(tree, {"coordinator"})

    def test_a_dropped_aggregator_leaves_the_same_survivors(self, binary_pair):
        result = self.one_shot(binary_pair, 2, {"agg-0-0"})
        session = self.session(2, {"agg-0-0"})
        assert result.details["dropout"]["contributing_sites"] == ["site-2", "site-3"]
        assert session.contributing_sites == ["site-2", "site-3"]
