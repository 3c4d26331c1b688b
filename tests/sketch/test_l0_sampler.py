"""Unit tests for the l_0-sampler."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.sketch import l0_sampler
from repro.sketch.l0_sampler import L0Sampler


class TestConstruction:
    def test_invalid_parameters_rejected(self, rng):
        with pytest.raises(ValueError):
            L0Sampler(0, rng)
        with pytest.raises(ValueError):
            L0Sampler(10, rng, repetitions=0)

    def test_matrix_shape(self, rng):
        sampler = L0Sampler(50, rng, repetitions=4)
        assert sampler.matrix.shape == (sampler.num_rows, 50)
        assert sampler.num_rows == 4 * sampler.levels * 3


class TestSampling:
    def test_zero_vector_fails_gracefully(self, rng):
        sampler = L0Sampler(32, rng)
        outcome = sampler.sample(sampler.apply(np.zeros(32, dtype=np.int64)))
        assert not outcome.success
        assert outcome.index is None

    def test_singleton_recovered_exactly(self, rng):
        sampler = L0Sampler(64, rng)
        x = np.zeros(64, dtype=np.int64)
        x[42] = 7
        outcome = sampler.sample(sampler.apply(x))
        assert outcome.success
        assert outcome.index == 42
        assert outcome.value == 7

    def test_singleton_at_position_zero(self, rng):
        sampler = L0Sampler(16, rng)
        x = np.zeros(16, dtype=np.int64)
        x[0] = 3
        outcome = sampler.sample(sampler.apply(x))
        assert outcome.success
        assert outcome.index == 0

    def test_sample_lands_in_support(self, rng):
        n = 128
        sampler = L0Sampler(n, rng, repetitions=8)
        x = np.zeros(n, dtype=np.int64)
        support = rng.choice(n, size=25, replace=False)
        x[support] = rng.integers(1, 5, size=25)
        outcome = sampler.sample(sampler.apply(x))
        assert outcome.success
        assert x[outcome.index] != 0
        assert outcome.value == x[outcome.index]

    def test_wrong_sketch_length_rejected(self, rng):
        sampler = L0Sampler(32, rng)
        with pytest.raises(ValueError):
            sampler.sample(np.zeros(5))

    def test_roughly_uniform_over_small_support(self, rng):
        n = 64
        x = np.zeros(n, dtype=np.int64)
        support = [3, 17, 40, 55]
        x[support] = 1
        counts = {index: 0 for index in support}
        trials = 200
        failures = 0
        for seed in range(trials):
            sampler = L0Sampler(n, np.random.default_rng(seed), repetitions=6)
            outcome = sampler.sample(sampler.apply(x))
            if outcome.success:
                counts[outcome.index] += 1
            else:
                failures += 1
        assert failures < trials * 0.2
        successes = trials - failures
        for index in support:
            assert counts[index] > successes / len(support) * 0.4


@st.composite
def sampler_batches(draw):
    """A sampler plus one or two update batches of full-range int64 values.

    Full-range values make the products and partial sums wrap past
    ``2^63``, so byte equality checks the mod-``2^64`` arithmetic, not just
    sums that no evaluation order could disagree on.
    """
    mode = draw(st.sampled_from(["dense", "hash"]))
    n = draw(st.sampled_from([1, 2, 37, 256]))
    repetitions = draw(st.integers(min_value=1, max_value=4))
    sampler = L0Sampler(
        n,
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
        repetitions=repetitions,
        mode=mode,
    )
    trailing = draw(st.sampled_from([(), (1,), (3,)]))
    batches = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        batch = draw(st.integers(min_value=0, max_value=40))
        indices = draw(
            hnp.arrays(np.int64, batch, elements=st.integers(min_value=0, max_value=n - 1))
        )
        values = draw(
            hnp.arrays(
                np.int64,
                (batch,) + trailing,
                elements=st.integers(min_value=-(2**63), max_value=2**63 - 1),
            )
        )
        batches.append((indices, values))
    return sampler, batches


def assert_state_is_matrix_product(sampler, batches):
    """``update_many`` over ``batches`` equals the summed ``T[:, idx] @ values``."""
    matrix = sampler.matrix
    acc = sampler.empty_copy()
    want = None
    for indices, values in batches:
        acc.update_many(indices, values)
        part = matrix[:, indices] @ values
        want = part if want is None else want + part
    assert acc.state.dtype == want.dtype and acc.state.shape == want.shape
    assert acc.state.tobytes() == want.tobytes()


class TestUpdateEqualsMatrixProduct:
    """Matrix-valued and vector updates equal the dense measurement product."""

    @given(case=sampler_batches())
    @settings(max_examples=200, deadline=None)
    def test_wrapping_values(self, case):
        sampler, batches = case
        assert_state_is_matrix_product(sampler, batches)

    @pytest.mark.parametrize("trailing", [(), (16,)])
    @pytest.mark.parametrize("mode", ["dense", "hash"])
    def test_large_batches_of_small_values(self, mode, trailing):
        """Batches big enough for the products to leave the int64 loop."""
        rng = np.random.default_rng(19)
        sampler = L0Sampler(4096, rng, repetitions=8, mode=mode)
        batches = [
            (rng.integers(0, 4096, size=size), rng.integers(-3, 4, size=(size,) + trailing))
            for size in (600, 1)
        ]
        assert_state_is_matrix_product(sampler, batches)

    def test_batches_longer_than_one_indicator_block(self, monkeypatch):
        """Block sums wrap like one product: 50 positions in 13 blocks."""
        monkeypatch.setattr(l0_sampler, "_INDICATOR_BLOCK", 100)
        rng = np.random.default_rng(23)
        sampler = L0Sampler(64, rng, repetitions=3, mode="hash")
        info = np.iinfo(np.int64)
        values = rng.integers(info.min, info.max, size=(50, 2), endpoint=True)
        assert_state_is_matrix_product(sampler, [(rng.integers(0, 64, size=50), values)])

    @pytest.mark.parametrize("mode", ["dense", "hash"])
    def test_float_values_match_up_to_rounding(self, mode):
        """Float values are summed in another order than the dense product."""
        rng = np.random.default_rng(29)
        sampler = L0Sampler(300, rng, repetitions=4, mode=mode)
        indices = rng.integers(0, 300, size=200)
        values = rng.normal(size=(200, 3))
        acc = sampler.empty_copy()
        acc.update_many(indices, values)
        assert acc.state.dtype == np.float64
        np.testing.assert_allclose(
            acc.state, sampler.matrix[:, indices] @ values, rtol=1e-12, atol=1e-9
        )
