"""Tests for the MatrixProductEstimator facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import MatrixProductEstimator
from repro.matrices import exact_linf, exact_lp_pp, integer_matrix_pair, product, random_binary_pair


@pytest.fixture
def binary_estimator():
    a, b = random_binary_pair(64, density=0.1, seed=80)
    return MatrixProductEstimator(a, b, seed=1), product(a, b)


class TestConstruction:
    def test_rejects_non_matrices(self):
        with pytest.raises(ValueError):
            MatrixProductEstimator(np.ones(3), np.ones((3, 3)))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            MatrixProductEstimator(np.ones((3, 4)), np.ones((3, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        """One infinity in A used to make ``lp_norm(2)`` answer 0.0."""
        matrix = np.ones((4, 4))
        matrix[2, 1] = bad
        with pytest.raises(ValueError, match="A has NaN or infinite entries"):
            MatrixProductEstimator(matrix, np.ones((4, 3)))
        with pytest.raises(ValueError, match="B has NaN or infinite entries"):
            MatrixProductEstimator(np.ones((3, 4)), matrix)

    def test_detects_binary_inputs(self):
        a, b = random_binary_pair(16, seed=81)
        assert MatrixProductEstimator(a, b).is_binary
        a_int, b_int = integer_matrix_pair(16, seed=82)
        assert not MatrixProductEstimator(a_int, b_int).is_binary


class TestQueries:
    def test_join_size(self, binary_estimator):
        estimator, c = binary_estimator
        result = estimator.join_size(epsilon=0.3)
        assert result.value == pytest.approx(exact_lp_pp(c, 0), rel=0.35)

    def test_natural_join_size_exact(self, binary_estimator):
        estimator, c = binary_estimator
        assert estimator.natural_join_size().value == exact_lp_pp(c, 1)

    def test_lp_norm_p2(self, binary_estimator):
        estimator, c = binary_estimator
        result = estimator.lp_norm(p=2, epsilon=0.3)
        assert result.value == pytest.approx(exact_lp_pp(c, 2), rel=0.4)

    def test_linf_binary(self, binary_estimator):
        estimator, c = binary_estimator
        result = estimator.linf(epsilon=0.25)
        truth = exact_linf(c)
        assert truth / 2.5 <= result.value <= truth * 1.5

    def test_linf_rejects_integer_inputs(self):
        a, b = integer_matrix_pair(16, seed=83)
        estimator = MatrixProductEstimator(a, b, seed=2)
        with pytest.raises(ValueError):
            estimator.linf()

    def test_linf_kappa_dispatches_on_matrix_type(self):
        a_bin, b_bin = random_binary_pair(32, density=0.2, seed=84)
        a_int, b_int = integer_matrix_pair(32, seed=85)
        binary_result = MatrixProductEstimator(a_bin, b_bin, seed=3).linf_kappa(4)
        general_result = MatrixProductEstimator(a_int, b_int, seed=3).linf_kappa(4)
        assert binary_result.value >= 0
        assert general_result.value >= 0
        assert general_result.cost.rounds == 1

    def test_l0_sample_lands_in_support(self, binary_estimator):
        estimator, c = binary_estimator
        sample = estimator.l0_sample(epsilon=0.3).value
        assert sample.success
        assert c[sample.row, sample.col] != 0

    def test_l1_sample_lands_in_support(self, binary_estimator):
        estimator, c = binary_estimator
        sample = estimator.l1_sample().value
        assert sample.success
        assert c[sample.row, sample.col] != 0

    def test_heavy_hitters_dispatch(self, binary_estimator):
        estimator, _ = binary_estimator
        result = estimator.heavy_hitters(phi=0.1, epsilon=0.05)
        assert hasattr(result.value, "pairs")

    def test_each_query_reports_cost(self, binary_estimator):
        estimator, _ = binary_estimator
        result = estimator.join_size(epsilon=0.4)
        assert result.cost.total_bits > 0
        assert result.cost.rounds >= 1

    def test_seeded_estimators_reproducible(self):
        a, b = random_binary_pair(48, density=0.1, seed=86)
        first = MatrixProductEstimator(a, b, seed=9).join_size(epsilon=0.3)
        second = MatrixProductEstimator(a, b, seed=9).join_size(epsilon=0.3)
        assert first.value == second.value
