"""k-party protocol correctness and the k = 2 two-party equivalence.

Acceptance criteria from the issue: a ``ClusterEstimator`` over k = 2 shards
must reproduce ``MatrixProductEstimator`` — estimates within tolerance under
fixed seeds and *identical round counts* — for ``lp_norm``, ``l0_sample``
and ``heavy_hitters``; and the runtime must stay correct for k in {2, 4, 8}.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterEstimator, MatrixProductEstimator
from repro.matrices import exact_heavy_hitters, exact_lp_pp, generators, product
from repro.engine import (
    StarExactL1Protocol,
    StarHeavyHittersProtocol,
    StarL0SamplingProtocol,
    StarL1SamplingProtocol,
    StarLpNormProtocol,
)
from repro.engine.l1 import shard_column_sums


@pytest.fixture
def binary_pair(rng):
    n = 64
    a = (rng.uniform(size=(n, n)) < 0.1).astype(np.int64)
    b = (rng.uniform(size=(n, n)) < 0.1).astype(np.int64)
    return a, b


@pytest.fixture
def integer_pair():
    return generators.integer_matrix_pair(48, density=0.1, planted_value=8, seed=11)


#: Pre-refactor transcript volumes (total bits) under the fixture seeds; the
#: unified engine must reproduce the historical two-party and k = 2 runs
#: exactly (see also tests/test_engine_equivalence.py).
PRE_REFACTOR_BITS = {
    ("lp", 0.0): (395380, 782720),
    ("lp", 1.0): (118766, 229626),
    ("lp", 2.0): (118766, 229492),
    ("l0",): (1669120, 3338240),
    ("hh",): (8858, 12643),
    ("hh_p2",): (220164, 372240),
}


class TestTwoSiteEquivalence:
    """ClusterEstimator with k = 2 vs the two-party MatrixProductEstimator."""

    @pytest.mark.parametrize("p", [0.0, 1.0, 2.0])
    def test_lp_norm_matches_two_party(self, binary_pair, p):
        a, b = binary_pair
        truth = exact_lp_pp(product(a, b), p)
        epsilon = 0.3
        two_party = MatrixProductEstimator(a, b, seed=7).lp_norm(p, epsilon)
        cluster = ClusterEstimator.from_matrix(a, b, 2, seed=7).lp_norm(p, epsilon)

        assert cluster.cost.rounds == two_party.cost.rounds == 2
        assert (two_party.cost.total_bits, cluster.cost.total_bits) == PRE_REFACTOR_BITS[("lp", p)]
        assert abs(two_party.value - truth) <= epsilon * truth
        assert abs(cluster.value - truth) <= epsilon * truth
        # Both are (1 +/- eps)-estimates of the same quantity, so they agree
        # with each other up to the combined slack.
        assert abs(cluster.value - two_party.value) <= 2 * epsilon * truth

    def test_l0_sample_matches_two_party(self, binary_pair):
        a, b = binary_pair
        c = product(a, b)
        two_party = MatrixProductEstimator(a, b, seed=3).l0_sample(0.3)
        cluster = ClusterEstimator.from_matrix(a, b, 2, seed=3).l0_sample(0.3)

        assert cluster.cost.rounds == two_party.cost.rounds == 1
        assert (two_party.cost.total_bits, cluster.cost.total_bits) == PRE_REFACTOR_BITS[("l0",)]
        # The merged site summaries equal the full-matrix sketches exactly,
        # so the column-mass estimate is identical bit for bit.
        assert cluster.details["column_mass"] == two_party.details["column_mass"]
        assert cluster.value.success
        assert c[cluster.value.row, cluster.value.col] != 0

    def test_heavy_hitters_matches_two_party(self, integer_pair):
        a, b = integer_pair
        phi, epsilon = 0.05, 0.03
        c = product(a, b)
        truth = exact_heavy_hitters(c, phi, p=1.0)
        slack = exact_heavy_hitters(c, phi - epsilon, p=1.0)
        two_party = MatrixProductEstimator(a, b, seed=9).heavy_hitters(phi, epsilon)
        cluster = ClusterEstimator.from_matrix(a, b, 2, seed=9).heavy_hitters(phi, epsilon)

        assert cluster.cost.rounds == two_party.cost.rounds == 5
        assert (two_party.cost.total_bits, cluster.cost.total_bits) == PRE_REFACTOR_BITS[("hh",)]
        # Completeness: every exact heavy hitter is reported by both runtimes.
        assert truth <= two_party.value.pairs
        assert truth <= cluster.value.pairs
        # Soundness: nothing outside the (phi - eps) slack set is reported.
        assert cluster.value.pairs <= slack
        assert two_party.value.pairs <= slack
        # The agreed-on entries carry estimates within the protocol's slack.
        for pair in truth:
            estimate = cluster.value.estimates[pair]
            assert estimate == pytest.approx(float(c[pair]), rel=0.5)

    def test_heavy_hitters_p2_keeps_two_party_round_count(self, integer_pair):
        a, b = integer_pair
        two_party = MatrixProductEstimator(a, b, seed=5).heavy_hitters(0.3, 0.2, p=2.0)
        cluster = ClusterEstimator.from_matrix(a, b, 2, seed=5).heavy_hitters(
            0.3, 0.2, p=2.0
        )
        assert cluster.cost.rounds == two_party.cost.rounds == 6
        assert (two_party.cost.total_bits, cluster.cost.total_bits) == PRE_REFACTOR_BITS[("hh_p2",)]

    def test_as_cluster_routes_through_the_facade(self, binary_pair):
        a, b = binary_pair
        estimator = MatrixProductEstimator(a, b, seed=1)
        cluster = estimator.as_cluster(4, seed=1)
        assert isinstance(cluster, ClusterEstimator)
        assert cluster.num_sites == 4
        assert np.array_equal(np.vstack(cluster.shards), a)
        result = cluster.join_size(0.4)
        assert result.cost.rounds == 2


class TestScalingCorrectness:
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_lp_norm_accuracy_at_scale(self, binary_pair, k):
        a, b = binary_pair
        truth = exact_lp_pp(product(a, b), 0.0)
        result = ClusterEstimator.from_matrix(a, b, k, seed=21).lp_norm(0.0, 0.3)
        assert abs(result.value - truth) <= 0.3 * truth
        assert result.cost.rounds == 2
        assert result.details["num_sites"] == k

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_l0_sample_validity_at_scale(self, binary_pair, k):
        a, b = binary_pair
        c = product(a, b)
        result = ClusterEstimator.from_matrix(a, b, k, seed=22).l0_sample(0.3)
        assert result.cost.rounds == 1
        assert result.value.success
        assert c[result.value.row, result.value.col] != 0

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_heavy_hitters_completeness_at_scale(self, integer_pair, k):
        a, b = integer_pair
        c = product(a, b)
        truth = exact_heavy_hitters(c, 0.05, p=1.0)
        result = ClusterEstimator.from_matrix(a, b, k, seed=23).heavy_hitters(0.05, 0.03)
        assert result.cost.rounds == 5
        assert truth <= result.value.pairs

    def test_uneven_shards_are_supported(self, binary_pair):
        a, b = binary_pair
        shards = [a[:10], a[10:37], a[37:]]
        truth = exact_lp_pp(product(a, b), 1.0)
        result = ClusterEstimator(shards, b, seed=2).lp_norm(1.0, 0.3)
        assert abs(result.value - truth) <= 0.3 * truth


class TestClusterCostReport:
    def test_star_cost_fields(self, binary_pair):
        a, b = binary_pair
        result = ClusterEstimator.from_matrix(a, b, 4, seed=31).join_size(0.3)
        cost = result.cost
        assert cost.total_bits == sum(cost.link_bits.values())
        assert cost.max_link_bits == max(cost.link_bits.values())
        assert set(cost.site_bits) == {f"site-{i}" for i in range(4)}
        assert sum(cost.per_round.values()) == cost.total_bits
        assert sum(cost.breakdown.values()) == cost.total_bits
        # Round 1 is the downstream sketch broadcast, paid on every link.
        assert cost.per_round[1] == cost.coordinator_bits
        assert cost.coordinator_bits + sum(cost.site_bits.values()) == cost.total_bits

    def test_breakdown_labels_mirror_two_party(self, binary_pair):
        a, b = binary_pair
        result = ClusterEstimator.from_matrix(a, b, 2, seed=1).lp_norm(1.0, 0.3)
        assert "round1/sketch-of-B" in result.cost.breakdown
        assert any(label.startswith("round2/") for label in result.cost.breakdown)


class TestValidation:
    def test_cluster_estimator_rejects_empty_shard_list(self, binary_pair):
        _, b = binary_pair
        with pytest.raises(ValueError, match="at least one"):
            ClusterEstimator([], b)

    def test_cluster_estimator_rejects_mismatched_inner_dims(self, binary_pair):
        a, b = binary_pair
        with pytest.raises(ValueError, match="inner dimensions"):
            ClusterEstimator([a[:, :-1]], b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_cluster_estimator_rejects_non_finite_entries(self, bad, dtype):
        """One NaN or infinity in A or B used to give a silent estimate:
        ``lp_norm(2)`` read 15,082 (NaN in A) or 0.0 (NaN in B) against the
        exact 15,986 here, and ``lp_norm(0)`` 114 against 120."""
        rng = np.random.default_rng(0)
        a = rng.integers(0, 3, (20, 8)).astype(dtype)
        b = rng.integers(0, 3, (8, 6)).astype(dtype)
        bad_a, bad_b = a.copy(), b.copy()
        bad_a[13, 2] = bad  # in the second shard
        bad_b[1, 1] = bad
        with pytest.raises(ValueError, match="A has NaN or infinite entries"):
            ClusterEstimator.from_matrix(bad_a, b, 2, seed=1)
        with pytest.raises(ValueError, match="A has NaN or infinite entries"):
            ClusterEstimator([a[:10], bad_a[10:]], b, seed=1)
        with pytest.raises(ValueError, match="B has NaN or infinite entries"):
            ClusterEstimator.from_matrix(a, bad_b, 2, seed=1)
        assert ClusterEstimator.from_matrix(a, b, 2, seed=1).lp_norm(2, 0.3).value == 15986.0

    def test_from_matrix_bounds_num_sites(self, binary_pair):
        a, b = binary_pair
        with pytest.raises(ValueError, match="num_sites"):
            ClusterEstimator.from_matrix(a, b, 0)
        with pytest.raises(ValueError, match="num_sites"):
            ClusterEstimator.from_matrix(a, b, a.shape[0] + 1)

    def test_protocol_parameter_validation(self):
        with pytest.raises(ValueError, match="p must be"):
            StarLpNormProtocol(5.0, 0.1)
        with pytest.raises(ValueError, match="epsilon"):
            StarL0SamplingProtocol(0.0)
        with pytest.raises(ValueError, match="eps"):
            StarHeavyHittersProtocol(0.1, 0.5)

    def test_heavy_hitters_rejects_negative_entries(self, binary_pair):
        a, b = binary_pair
        shards = [a[:32].astype(np.int64), a[32:].astype(np.int64)]
        shards[0][0, 0] = -1
        with pytest.raises(ValueError, match="non-negative"):
            StarHeavyHittersProtocol(0.1, 0.05, seed=0).run(shards, b)

    def test_run_rejects_mismatched_shard_widths(self, binary_pair):
        a, b = binary_pair
        with pytest.raises(ValueError, match="inner dimension"):
            StarLpNormProtocol(1.0, 0.3, seed=0).run([a[:10], a[10:, :-1]], b)

    def test_zero_product_returns_zero(self):
        shards = [np.zeros((8, 16), dtype=np.int64), np.zeros((8, 16), dtype=np.int64)]
        b = np.zeros((16, 16), dtype=np.int64)
        result = StarLpNormProtocol(1.0, 0.3, seed=0).run(shards, b)
        assert result.value == 0.0
        assert result.cost.rounds == 2
        sample = StarL0SamplingProtocol(0.3, seed=0).run(shards, b)
        assert not sample.value.success
        heavy = StarHeavyHittersProtocol(0.1, 0.05, seed=0).run(shards, b)
        assert len(heavy.value) == 0


class TestL1SumsAreExact:
    """Remarks 2-3 refuse column and row sums that are not exact.

    Before, an int64 column sum wrapped silently (``5 * 2**62`` became
    ``2**62``), NaN or inf entries failed deep inside the bit charge, and the
    sampler's failure depended on how far the sum wrapped.
    """

    PROTOCOLS = [StarExactL1Protocol, StarL1SamplingProtocol]

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("rows", [4, 5])
    def test_column_sum_beyond_int64_raises(self, protocol, rows):
        a = np.full((rows, 2), 2**62, dtype=np.int64)
        b = np.ones((2, 2), dtype=np.int64)
        with pytest.raises(ValueError, match="column sum does not fit int64"):
            protocol(seed=1).run([a], b)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_row_sum_of_b_beyond_int64_raises(self, protocol):
        a = np.ones((3, 2), dtype=np.int64)
        b = np.full((2, 5), 2**62, dtype=np.int64)
        with pytest.raises(ValueError, match="row sum of B does not fit int64"):
            protocol(seed=1).run([a[:1], a[1:]], b)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_float_sums_raise(self, protocol, bad):
        a = np.ones((3, 2))
        a[:2, 1] = bad  # 1e308 + 1e308 overflows to inf
        b = np.ones((2, 2))
        with pytest.raises(ValueError, match="column sum is not finite"):
            protocol(seed=1).run([a], b)
        with pytest.raises(ValueError, match="row sum of B is not finite"):
            protocol(seed=1).run([np.ones((3, 2))], a.T.copy())

    def test_heavy_hitter_total_does_not_wrap_across_sites(self):
        # Each site's column sum fits int64; their merge does not.
        shards = [np.array([[2**63 - 1]]), np.array([[2**63 - 1]]), np.array([[7]])]
        protocol = StarHeavyHittersProtocol(0.1, 0.05, seed=1)
        result = protocol.run(shards, np.ones((1, 1)))
        assert result.details["total_pp"] == float(2 * (2**63 - 1) + 7)
        assert (2, 0) not in result.value.pairs  # 4e-19 of the mass
        b = np.full((1, 2), 2**62, dtype=np.int64)
        with pytest.raises(ValueError, match="row sum of B does not fit int64"):
            protocol.run([np.ones((2, 1), dtype=np.int64)], b)

    def test_a_single_huge_entry_still_runs(self):
        a = np.zeros((5, 2), dtype=np.int64)
        a[3, 0] = 2**62
        b = np.ones((2, 2), dtype=np.int64)
        assert StarExactL1Protocol(seed=1).run([a[:2], a[2:]], b).value == float(2**63)
        sample = StarL1SamplingProtocol(seed=1).run([a[:2], a[2:]], b).value
        assert sample.row == 3 and sample.col in (0, 1)

    def test_shard_column_sums_keeps_the_sum_dtype(self):
        for shard in (
            np.ones((3, 2), dtype=bool),
            np.ones((3, 2), dtype=np.int32),
            np.ones((3, 2), dtype=np.uint8),
            np.ones((3, 2), dtype=np.float32),
        ):
            sums = shard_column_sums(shard)
            assert sums.dtype == shard.sum(axis=0).dtype
            assert sums.tolist() == [3, 3]
