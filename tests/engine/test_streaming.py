"""Streaming runtime: equivalence discipline, refresh policies, wire accounting.

The load-bearing pins:

* **Streamed == one-shot** (the PR's acceptance bar): a session that ingests
  shards over multiple epochs and syncs once at the end produces summaries,
  bit counts and estimates bit-identical to the one-shot engine protocols
  over the same data, at k in {1, 2, 4}.
* **Chunking invariance**: any random epoch chunking of the ingestion gives
  the same bytes-exact merged summaries and the same one-shot answers.
* **Refresh policies**: threshold-triggered refresh keeps quiet sites
  silent; the network meters exactly 8 bits per encoded byte.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import ClusterEstimator
from repro.comm.conditions import LinkModel, NetworkConditions


@pytest.fixture(scope="module")
def binary_pair():
    rng = np.random.default_rng(777)
    n = 48
    a = (rng.uniform(size=(n, n)) < 0.15).astype(np.int64)
    b = (rng.uniform(size=(n, n)) < 0.15).astype(np.int64)
    return a, b


def ingest_in_chunks(session, shards, chunk_rng):
    """Feed every shard to its site in random-size epoch chunks."""
    max_rows = max(shard.shape[0] for shard in shards)
    position = [0] * len(shards)
    while any(position[i] < shards[i].shape[0] for i in range(len(shards))):
        for index, shard in enumerate(shards):
            if position[index] >= shard.shape[0]:
                continue
            take = int(chunk_rng.integers(1, max(2, max_rows // 3)))
            take = min(take, shard.shape[0] - position[index])
            rows = np.arange(position[index], position[index] + take)
            site = session.sites[index]
            session.ingest(index, site.row_offset + rows, shard[rows])
            position[index] += take
        session.end_epoch()


def assert_same_protocol_result(streamed, batch):
    assert streamed.value == batch.value
    assert streamed.cost.rounds == batch.cost.rounds
    assert streamed.cost.total_bits == batch.cost.total_bits
    assert streamed.cost.breakdown == batch.cost.breakdown
    assert streamed.cost.per_round == batch.cost.per_round
    assert streamed.cost.link_bits == batch.cost.link_bits


def merged_state_bytes(session, family):
    state = session.merged[family].state_array()
    return b"absent" if state is None else state.tobytes()


def one_shot_state_bytes(session, family, a):
    """Byte image of a one-shot sketching of the full matrix ``A``."""
    sketch = session.templates[family].empty_copy()
    sketch.update_many(np.arange(a.shape[0]), a.astype(np.int64))
    return sketch.state_array().tobytes()


class TestStreamedRunEqualsOneShot:
    """Acceptance pin: multi-epoch ingest + single final sync == one-shot."""

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_summaries_bits_and_estimates_bit_identical(self, binary_pair, k):
        a, b = binary_pair
        seed = 97
        batch = ClusterEstimator.from_matrix(a, b, k, seed=seed)
        # A threshold so high nothing ships mid-stream: the single final
        # sync is the only upload.
        session = batch.stream(refresh="threshold", threshold=float("inf"))

        chunk_rng = np.random.default_rng(1000 + k)
        ingest_in_chunks(session, batch.shards, chunk_rng)
        assert session.total_upload_bytes == 0  # nothing shipped yet
        report = session.sync()
        assert all(report.shipped.values())

        # Summaries: the coordinator's merged sketches equal a one-shot
        # sketching of the full matrix, byte for byte.
        for family in session.merged:
            assert merged_state_bytes(session, family) == one_shot_state_bytes(
                session, family, a
            )

        # Estimates and transcripts: every engine query matches the one-shot
        # cluster bit for bit (same values, bits, rounds, breakdowns).
        assert_same_protocol_result(session.join_size(0.3), batch.join_size(0.3))
        assert_same_protocol_result(session.l0_sample(0.3), batch.l0_sample(0.3))
        assert_same_protocol_result(
            session.heavy_hitters(0.1, 0.05), batch.heavy_hitters(0.1, 0.05)
        )

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_accumulated_shards_equal_batch_shards(self, binary_pair, k):
        a, b = binary_pair
        batch = ClusterEstimator.from_matrix(a, b, k, seed=3)
        session = batch.stream()
        ingest_in_chunks(session, batch.shards, np.random.default_rng(5))
        for accumulated, original in zip(session.shards(), batch.shards):
            np.testing.assert_array_equal(accumulated, original)
        assert session.is_binary == batch.is_binary


class TestChunkingInvariance:
    """Satellite: any epoch chunking yields bit-identical results."""

    @pytest.mark.parametrize("chunk_seed", [0, 1, 2])
    def test_random_chunkings_agree_with_batch(self, binary_pair, chunk_seed):
        a, b = binary_pair
        seed = 11
        batch = ClusterEstimator.from_matrix(a, b, 3, seed=seed)
        session = batch.stream()  # every-epoch refresh: many partial ships
        ingest_in_chunks(session, batch.shards, np.random.default_rng(chunk_seed))
        session.sync()

        # Merged summaries are chunking-invariant (linearity is exact on
        # integer updates), hence identical to the one-shot sketching.
        for family in session.merged:
            assert merged_state_bytes(session, family) == one_shot_state_bytes(
                session, family, a
            )
        assert_same_protocol_result(session.join_size(0.3), batch.join_size(0.3))

    def test_turnstile_deletions_cancel_exactly(self, binary_pair):
        a, b = binary_pair
        batch = ClusterEstimator.from_matrix(a, b, 2, seed=19)
        session = batch.stream()
        # Insert noise, ingest the real data, then delete the noise again.
        noise_rows = session.sites[0].row_offset + np.arange(4)
        noise = np.arange(4 * b.shape[0], dtype=np.int64).reshape(4, -1) % 5
        session.ingest(0, noise_rows, noise)
        session.end_epoch()
        ingest_in_chunks(session, batch.shards, np.random.default_rng(9))
        session.ingest(0, noise_rows, -noise)
        session.sync()
        for family in session.merged:
            assert merged_state_bytes(session, family) == one_shot_state_bytes(
                session, family, a
            )
        assert_same_protocol_result(session.join_size(0.3), batch.join_size(0.3))


class TestRefreshPolicies:
    def test_quiet_sites_stay_silent_under_threshold(self, binary_pair):
        a, b = binary_pair
        batch = ClusterEstimator.from_matrix(a, b, 2, seed=23)
        session = batch.stream(refresh="threshold", threshold=0.5)
        hot, quiet = session.sites[0], session.sites[1]

        # Epoch 1: both sites have pending mass; first ship is always
        # triggered (nothing shipped yet, so any drift exceeds it).
        session.ingest(0, [hot.row_offset], np.ones((1, b.shape[0]), dtype=np.int64))
        session.ingest(1, [quiet.row_offset], 10 * np.ones((1, b.shape[0]), dtype=np.int64))
        first = session.end_epoch()
        assert first.shipped == {hot.name: True, quiet.name: True}

        # Later epochs: the hot site's stream doubles every epoch, so its
        # relative drift keeps exceeding the threshold; the quiet site's
        # small constant drift decays below it.
        for epoch in range(3):
            session.ingest(
                0,
                [hot.row_offset],
                5 * 2**epoch * np.ones((1, b.shape[0]), dtype=np.int64),
            )
            session.ingest(1, [quiet.row_offset + 1], np.eye(1, b.shape[0], dtype=np.int64))
            report = session.end_epoch()
            assert report.shipped[hot.name]
            assert not report.shipped[quiet.name]

        # The quiet site's pending drift lands on sync.
        final = session.sync()
        assert final.shipped[quiet.name]

    def test_infinite_threshold_ships_only_on_sync(self, binary_pair):
        a, b = binary_pair
        session = ClusterEstimator.from_matrix(a, b, 2, seed=83).stream(
            refresh="threshold", threshold=float("inf")
        )
        session.ingest(
            0, [session.sites[0].row_offset], np.ones((1, b.shape[0]), dtype=np.int64)
        )
        assert session.end_epoch().total_bytes == 0  # even the first drift waits
        assert session.sync().total_bytes > 0

    def test_every_epoch_ships_only_sites_with_pending(self, binary_pair):
        a, b = binary_pair
        batch = ClusterEstimator.from_matrix(a, b, 2, seed=29)
        session = batch.stream()  # every-epoch
        session.ingest(
            0, [session.sites[0].row_offset], np.ones((1, b.shape[0]), dtype=np.int64)
        )
        report = session.end_epoch()
        assert report.shipped[session.sites[0].name]
        assert not report.shipped[session.sites[1].name]
        # An epoch with no pending updates ships nothing at all.
        assert session.end_epoch().total_bytes == 0

    def test_network_meters_eight_bits_per_encoded_byte(self, binary_pair):
        a, b = binary_pair
        batch = ClusterEstimator.from_matrix(a, b, 3, seed=31)
        session = batch.stream()
        ingest_in_chunks(session, batch.shards, np.random.default_rng(2))
        session.sync()
        total_bytes = session.history[-1].cumulative_bytes
        assert total_bytes > 0
        assert session.network.total_bits == 8 * total_bytes
        assert session.total_upload_bytes == total_bytes
        breakdown = session.network.bits_by_label()
        assert set(breakdown) == {"stream/delta"}
        # All traffic is upstream: the direction never flips, so the whole
        # stream occupies one aggregate round.
        assert session.network.rounds == 1

    @pytest.mark.parametrize("tree", [None, 2, 8])
    def test_upload_total_counts_site_uploads_only(self, binary_pair, tree):
        """Regression: tree relays re-ship merged bundles; they are not uploads.

        The last site's link misses the deadline, so its uploads queue and
        fold at the next boundary — the total must include those folds.
        """
        a, b = binary_pair
        k = 8
        overrides = {f"site-{k - 1}": LinkModel(latency=2.0)}
        conditions = NetworkConditions(
            LinkModel(latency=0.01), overrides=overrides, deadline=0.5
        )
        batch = ClusterEstimator.from_matrix(a, b, k, seed=43)
        session = batch.stream(tree=tree, conditions=conditions)
        ingest_in_chunks(session, batch.shards, np.random.default_rng(6))
        session.sync()
        assert session.history[-1].late == []  # every late upload folded
        assert any(report.late_merged for report in session.history)
        cumulative = session.history[-1].cumulative_bytes
        assert cumulative > 0
        assert session.total_upload_bytes == cumulative

    def test_live_estimates_reflect_only_shipped_deltas(self, binary_pair):
        a, b = binary_pair
        batch = ClusterEstimator.from_matrix(a, b, 2, seed=37)
        session = batch.stream(refresh="threshold", threshold=float("inf"))
        assert session.live_lp_norm(2.0) == 0.0
        assert session.live_l0() == 0.0
        assert session.live_l0_sample().row is None
        assert session.live_heavy_hitters(0.1).pairs == set()
        ingest_in_chunks(session, batch.shards, np.random.default_rng(3))
        # Nothing shipped yet: the coordinator still sees an empty product.
        assert session.live_lp_norm(2.0) == 0.0
        session.sync()
        c = (a @ b).astype(float)
        assert session.live_lp_norm(2.0) == pytest.approx(float((c**2).sum()), rel=0.5)
        assert session.live_l0() == pytest.approx(np.count_nonzero(c), rel=0.5)
        assert session.live_lp_norm(0.0) == session.live_l0()


class TestLiveQueries:
    def test_live_sample_lands_on_the_support(self, binary_pair):
        a, b = binary_pair
        session = ClusterEstimator.from_matrix(a, b, 2, seed=41).stream(preload=True)
        c = a @ b
        outcome = session.live_l0_sample()
        assert outcome.row is not None
        assert c[outcome.row, outcome.col] != 0

    def test_live_heavy_hitters_find_a_planted_entry(self):
        rng = np.random.default_rng(43)
        n = 48
        a = (rng.uniform(size=(n, n)) < 0.05).astype(np.int64)
        b = (rng.uniform(size=(n, n)) < 0.05).astype(np.int64)
        a[5, :] = 1
        b[:, 9] = 1  # plant C[5, 9] = n, dominating ||C||_2^2
        session = ClusterEstimator.from_matrix(a, b, 3, seed=47).stream(preload=True)
        heavy = session.live_heavy_hitters(0.2)
        assert (5, 9) in heavy.pairs
        c = a @ b
        for i, j in heavy.pairs:
            assert c[i, j] ** 2 >= 0.05 * float((c.astype(float) ** 2).sum())

    @pytest.mark.parametrize("hh_depth", [1, 4, 5])
    @pytest.mark.parametrize("sketch_mode", ["dense", "hash"])
    def test_live_heavy_hitters_equal_filtering_every_estimate(
        self, sketch_mode, hh_depth
    ):
        """Pin: the live read is byte for byte the filter of ``query_rows()``.

        The reference writes out the full path: the C-space table, every
        per-entry median, then the threshold test in row-major order.  The
        phis give empty, few, tens-to-hundreds and thousands of pairs.
        """
        from repro.core.result import HeavyHitterOutput
        from repro.engine.streaming import StreamingSession

        def reference(session, phi):
            cs = session.merged["countsketch"]
            c_space = cs.empty_copy()
            c_space.load_state_array(cs.table @ session._b_float)
            estimates = c_space.query_rows()
            hits = np.nonzero(estimates**2 >= phi * session.live_lp_norm(2.0))
            reported = {
                (int(i), int(j)): float(estimates[i, j]) for i, j in zip(*hits)
            }
            return HeavyHitterOutput(pairs=set(reported), estimates=reported)

        k, rows, m = 4, 128, 8
        rng = np.random.default_rng(2024)
        b = rng.integers(-2, 3, size=(m, m))
        session = StreamingSession(
            [rows] * k, b, seed=11, sketch_mode=sketch_mode,
            hh_depth=hh_depth, hh_width=32,
        )
        for _ in range(3):
            for site in range(k):
                ids = site * rows + rng.integers(0, rows, size=48)
                session.ingest(site, ids, rng.integers(-2, 3, size=(48, m)))
            session.end_epoch()
            for phi in (0.5, 0.02, 0.01, 1e-3):
                expected = reference(session, phi)
                got = session.live_heavy_hitters(phi)
                assert pickle.dumps(got) == pickle.dumps(expected), phi
        assert len(reference(session, 0.5)) == 0
        assert len(reference(session, 1e-3)) >= 1000

    def test_preload_warms_live_estimates(self, binary_pair):
        a, b = binary_pair
        session = ClusterEstimator.from_matrix(a, b, 2, seed=53).stream(preload=True)
        assert session.live_lp_norm(2.0) > 0
        assert session.history[0].cumulative_bytes > 0

    def test_unsupported_live_norm_is_rejected(self, binary_pair):
        a, b = binary_pair
        session = ClusterEstimator.from_matrix(a, b, 2, seed=59).stream()
        with pytest.raises(ValueError, match="p in"):
            session.live_lp_norm(1.0)
        with pytest.raises(ValueError, match="phi"):
            session.live_heavy_hitters(0.0)


class TestValidation:
    def test_constructor_rejects_bad_arguments(self, binary_pair):
        from repro.engine.streaming import StreamingSession

        _, b = binary_pair
        with pytest.raises(ValueError, match="row_counts"):
            StreamingSession([], b)
        with pytest.raises(ValueError, match="row_counts"):
            StreamingSession([0, 0], b)
        with pytest.raises(ValueError, match="refresh"):
            StreamingSession([4], b, refresh="sometimes")
        with pytest.raises(ValueError, match="threshold"):
            StreamingSession([4], b, threshold=-1.0)
        with pytest.raises(ValueError, match="threshold"):
            StreamingSession([4], b, threshold=float("nan"))
        with pytest.raises(ValueError, match="2-dimensional"):
            StreamingSession([4], b[0])
        with pytest.raises(ValueError, match="site names"):
            StreamingSession([4, 4], b, site_names=["only-one"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_constructor_rejects_non_finite_b(self, binary_pair, bad):
        """A NaN in B used to answer ``live_lp_norm(2)`` with NaN and
        ``lp_norm(2)`` with 0.0."""
        from repro.engine.streaming import StreamingSession

        _, b = binary_pair
        b = b.astype(float)
        b[1, 1] = bad
        with pytest.raises(ValueError, match="B has NaN or infinite entries"):
            StreamingSession([4, 4], b)

    def test_ingest_rejects_bad_updates(self, binary_pair):
        a, b = binary_pair
        session = ClusterEstimator.from_matrix(a, b, 2, seed=61).stream()
        offset = session.sites[1].row_offset
        with pytest.raises(ValueError, match="site index"):
            session.ingest(5, [0], np.ones((1, b.shape[0]), dtype=np.int64))
        with pytest.raises(ValueError, match="integer"):
            session.ingest(0, [0], np.full((1, b.shape[0]), 0.5))
        with pytest.raises(ValueError, match="shape"):
            session.ingest(0, [0], np.ones((1, 3), dtype=np.int64))
        with pytest.raises(ValueError, match="range"):
            session.ingest(0, [offset], np.ones((1, b.shape[0]), dtype=np.int64))

    @pytest.mark.parametrize("rows", [[1.7], [-0.5], [np.nan], [0.0, 2.5]])
    def test_ingest_rejects_fractional_rows(self, binary_pair, rows):
        """Rows are rejected, never truncated: ``[1.7]`` used to update
        row 1, and ``[-0.5]`` row 0 after passing the range check."""
        a, b = binary_pair
        session = ClusterEstimator.from_matrix(a, b, 2, seed=61).stream()
        deltas = np.ones((len(rows), b.shape[0]), dtype=np.int64)
        shard = session.sites[0].shard.copy()
        with pytest.raises(ValueError, match="rows must be integer-valued"):
            session.ingest(0, rows, deltas)
        assert session.sites[0].pending_updates == 0
        assert session.sites[0].shard.tobytes() == shard.tobytes()

    def test_ingest_accepts_integer_valued_float_rows(self, binary_pair):
        a, b = binary_pair
        deltas = np.ones((2, b.shape[0]), dtype=np.int64)
        floats = ClusterEstimator.from_matrix(a, b, 2, seed=61).stream()
        ints = ClusterEstimator.from_matrix(a, b, 2, seed=61).stream()
        floats.ingest(0, np.array([1.0, 3.0]), deltas)
        ints.ingest(0, [1, 3], deltas)
        floats.sync()
        ints.sync()
        assert floats.live_lp_norm(2.0) == ints.live_lp_norm(2.0)

    @pytest.mark.parametrize("site", [-1, 3, 99])
    def test_drop_and_restore_reject_the_same_indices(self, binary_pair, site):
        a, b = binary_pair
        session = ClusterEstimator.from_matrix(a, b, 3, seed=61).stream()
        with pytest.raises(ValueError, match="out of range"):
            session.drop_site(site)
        with pytest.raises(ValueError, match="out of range"):
            session.restore_site(site)
        assert session.dropped_sites == []

    def test_preload_refuses_non_integral_shards(self):
        """Preload must not silently truncate fractional shards to integers."""
        cluster = ClusterEstimator(
            [np.array([[0.9, 2.5], [1.2, 0.0]])], np.eye(2, dtype=np.int64), seed=1
        )
        with pytest.raises(ValueError, match="integer"):
            cluster.stream(preload=True)

    def test_zero_row_sites_can_stream(self, binary_pair):
        """A cluster with an empty shard opens a session like any other."""
        a, b = binary_pair
        cluster = ClusterEstimator([a, np.zeros((0, b.shape[0]), dtype=np.int64)], b, seed=89)
        session = cluster.stream()
        site = session.sites[0]
        session.ingest(0, site.row_offset + np.arange(a.shape[0]), a)
        session.sync()
        assert_same_protocol_result(session.join_size(0.3), cluster.join_size(0.3))

    def test_integral_float_shards_are_accepted(self, binary_pair):
        """A 0/1 matrix held in a float dtype ingests like its int twin."""
        a, b = binary_pair
        float_cluster = ClusterEstimator.from_matrix(a.astype(float), b, 2, seed=71)
        int_session = ClusterEstimator.from_matrix(a, b, 2, seed=71).stream(
            preload=True
        )
        float_session = float_cluster.stream(preload=True)
        for family in int_session.merged:
            assert (
                float_session.merged[family].state_array().tobytes()
                == int_session.merged[family].state_array().tobytes()
            )

    def test_live_l0_does_not_truncate_float_b(self):
        """A fractional coordinator matrix must not be zeroed by the live path."""
        from repro.engine.streaming import StreamingSession

        n = 16
        session = StreamingSession([n], np.full((n, n), 0.5), seed=13)
        session.ingest(0, np.arange(n), np.eye(n, dtype=np.int64))
        session.sync()
        # C = 0.5 * ones: full support; a truncated B would report 0.
        assert session.live_l0() == pytest.approx(n * n, rel=0.5)
        assert session.live_l0() > 0

    def test_ingest_rejects_deltas_outside_exact_range(self, binary_pair):
        """Out-of-range deltas raise instead of silently wrapping/saturating."""
        a, b = binary_pair
        session = ClusterEstimator.from_matrix(a, b, 2, seed=73).stream()
        with pytest.raises(ValueError, match="float64-exact"):
            session.ingest(0, [0], np.full((1, b.shape[0]), 1e20))
        with pytest.raises(ValueError, match="float64-exact"):
            session.ingest(0, [0], np.full((1, b.shape[0]), 2**63 + 10, dtype=np.uint64))
        # The float64-exact bound applies to integer dtypes too: a 2**54
        # delta would round inside the float64 AMS/CountSketch states.
        with pytest.raises(ValueError, match="float64-exact"):
            session.ingest(0, [0], np.full((1, b.shape[0]), 2**54, dtype=np.int64))

    def test_is_binary_tracks_turnstile_deletions(self, binary_pair):
        """Deletions can restore binarity; the cached flag must follow."""
        a, b = binary_pair
        session = ClusterEstimator.from_matrix(a, b, 2, seed=79).stream()
        delta = np.zeros((1, b.shape[0]), dtype=np.int64)
        delta[0, 0] = 2
        session.ingest(0, [0], delta)
        assert not session.is_binary
        session.ingest(0, [0], -delta)
        assert session.is_binary

    def test_stream_facade_carries_seed_and_partition(self, binary_pair):
        a, b = binary_pair
        cluster = ClusterEstimator.from_matrix(a, b, 3, seed=67)
        session = cluster.stream()
        assert session.seed == cluster.seed == 67
        assert [site.num_rows for site in session.sites] == [
            shard.shape[0] for shard in cluster.shards
        ]
        assert session.num_sites == cluster.num_sites
