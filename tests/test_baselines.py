"""Tests for the baseline protocols ([16] one-round, naive, compressed matmul)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.countsketch_hh import CompressedMatMulHeavyHittersProtocol
from repro.baselines.naive import (
    NaiveExactProtocol,
    NaiveLinfProtocol,
    StarNaiveExactProtocol,
)
from repro.baselines.one_round import OneRoundLpNormProtocol
from repro.core.lp_norm import LpNormProtocol
from repro.matrices import (
    exact_heavy_hitters,
    exact_linf,
    exact_lp_pp,
    planted_heavy_hitters_pair,
    product,
    random_binary_pair,
    stats,
)


class TestOneRoundBaseline:
    def test_validation(self):
        with pytest.raises(ValueError):
            OneRoundLpNormProtocol(3.0, 0.3)
        with pytest.raises(ValueError):
            OneRoundLpNormProtocol(1.0, 0.0)
        with pytest.raises(ValueError):
            OneRoundLpNormProtocol(1.0, 0.3, seed=0).run(np.ones((2, 3)), np.ones((2, 2)))

    @pytest.mark.parametrize("p", [0.0, 1.0, 2.0])
    def test_accuracy(self, p):
        a, b = random_binary_pair(64, density=0.1, seed=100)
        truth = exact_lp_pp(product(a, b), p)
        result = OneRoundLpNormProtocol(p, 0.3, seed=1).run(a, b)
        assert result.value == pytest.approx(truth, rel=0.35)

    def test_single_round(self):
        a, b = random_binary_pair(32, density=0.1, seed=101)
        result = OneRoundLpNormProtocol(0.0, 0.3, seed=2).run(a, b)
        assert result.cost.rounds == 1

    def test_more_expensive_than_two_round_at_small_epsilon(self):
        a, b = random_binary_pair(64, density=0.1, seed=102)
        eps = 0.15
        baseline = OneRoundLpNormProtocol(0.0, eps, seed=3).run(a, b)
        ours = LpNormProtocol(0.0, eps, seed=3).run(a, b)
        assert baseline.cost.total_bits > ours.cost.total_bits


class TestNaiveBaselines:
    def test_exact_statistic(self):
        a, b = random_binary_pair(32, density=0.1, seed=103)
        protocol = NaiveExactProtocol(lambda c: stats.exact_lp_pp(c, 0), seed=0)
        result = protocol.run(a, b)
        assert result.value == exact_lp_pp(product(a, b), 0)

    def test_naive_linf_exact(self):
        a, b = random_binary_pair(32, density=0.2, seed=104)
        result = NaiveLinfProtocol(seed=0).run(a, b)
        assert result.value == exact_linf(product(a, b))

    def test_cost_is_n_squared_bits_for_binary(self):
        a, b = random_binary_pair(32, density=0.2, seed=105)
        result = NaiveLinfProtocol(seed=0).run(a, b)
        assert result.cost.total_bits == 32 * 32

    def test_one_round(self):
        a, b = random_binary_pair(16, density=0.2, seed=106)
        assert NaiveLinfProtocol(seed=0).run(a, b).cost.rounds == 1


class TestCompressedMatMulBaseline:
    def test_validation(self):
        with pytest.raises(ValueError):
            CompressedMatMulHeavyHittersProtocol(0.1, 0.2)
        with pytest.raises(ValueError):
            CompressedMatMulHeavyHittersProtocol(0.1, 0.05, seed=0).run(
                np.ones((2, 3)), np.ones((2, 2))
            )

    def test_planted_heavy_hitters_found(self):
        a, b, _ = planted_heavy_hitters_pair(
            48, num_heavy=2, heavy_overlap=24, background_density=0.02, seed=107
        )
        c = product(a, b)
        phi, eps = 0.08, 0.04
        must = exact_heavy_hitters(c, phi, p=1)
        result = CompressedMatMulHeavyHittersProtocol(phi, eps, depth=5, seed=1).run(a, b)
        assert must.issubset(result.value.pairs)

    def test_zero_product(self):
        result = CompressedMatMulHeavyHittersProtocol(0.2, 0.1, seed=2).run(
            np.zeros((8, 8)), np.zeros((8, 8))
        )
        assert len(result.value) == 0

    def test_one_round_of_sketches(self):
        a, b = random_binary_pair(24, density=0.2, seed=108)
        result = CompressedMatMulHeavyHittersProtocol(0.2, 0.1, seed=3).run(a, b)
        assert result.cost.rounds == 1

    def test_cost_scales_with_width(self):
        a, b = random_binary_pair(24, density=0.2, seed=109)
        cheap = CompressedMatMulHeavyHittersProtocol(0.2, 0.1, width=16, seed=4).run(a, b)
        costly = CompressedMatMulHeavyHittersProtocol(0.2, 0.1, width=64, seed=4).run(a, b)
        assert costly.cost.total_bits > 2 * cheap.cost.total_bits


class TestEngineBackedBaselines:
    def test_engine_body_rejects_more_than_one_site(self):
        a, b = random_binary_pair(8, density=0.3, seed=110)
        with pytest.raises(ValueError, match="two-party"):
            StarNaiveExactProtocol(stats.exact_linf, seed=0).run([a[:4], a[4:]], b)

    def test_facade_keeps_name_and_proxies_parameters(self):
        protocol = OneRoundLpNormProtocol(1.0, 0.3, seed=5)
        assert protocol.name == "lp-norm-one-round-baseline"
        assert (protocol.p, protocol.epsilon, protocol.seed) == (1.0, 0.3, 5)
        assert NaiveLinfProtocol(seed=1).name == "naive-linf"
