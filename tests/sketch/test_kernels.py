"""Unit tests for the shared sketch kernel layer.

The kernels promise four things: lazy stacked hashing is *bit-identical*
to the per-row ``KWiseHash`` members it replaced, fused scatters equal
their naive per-row references, the level-expansion machinery inverts
the layered-subsampling membership exactly, and ``exact_matmul`` equals
``x @ y`` byte for byte on whichever route it takes.  The vectorized
``L0Sampler`` recovery and the reshape-based AMS estimators are checked
against faithful reimplementations of the historical Python loops.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.sketch import AmsSketch, L0Sampler, kernels
from repro.sketch.hashing import KWiseHash, PRIME_61
from repro.sketch.kernels import (
    BitSignHash,
    StackedKWiseHash,
    bincount_rows,
    count_alive_levels,
    exact_matmul,
    expand_levels,
    scatter_add_scalar,
    scatter_add_vector,
)


class TestStackedKWiseHash:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_bit_identical_to_per_row_members(self, k):
        """Same rng stream, same values — the lazy rewrite's contract."""
        keys = np.concatenate(
            [
                np.arange(100),
                np.array([0, 1, PRIME_61 - 1, PRIME_61, PRIME_61 + 7, 2**62 - 1]),
            ]
        )
        stacked = StackedKWiseHash(k, 5, np.random.default_rng(33))
        rng = np.random.default_rng(33)
        members = [KWiseHash(k, rng) for _ in range(5)]
        expected = np.stack([m.values(keys) for m in members])
        assert np.array_equal(stacked.values(keys), expected)
        assert np.array_equal(
            stacked.buckets(keys, 37), np.stack([m.buckets(keys, 37) for m in members])
        )
        assert np.array_equal(
            stacked.signs(keys), np.stack([m.signs(keys) for m in members])
        )

    def test_joint_values_stack_each_hash(self):
        """One pass over several same-degree hashes, rows in argument order."""
        rng = np.random.default_rng(34)
        hashes = (StackedKWiseHash(2, 1, rng), StackedKWiseHash(2, 3, rng))
        keys = np.array([0, 5, 2**40, PRIME_61 + 3, 2**62 - 1])
        for some_keys in (keys, keys[:2], keys[:0]):
            expected = np.concatenate([h.values(some_keys) for h in hashes])
            assert np.array_equal(kernels.joint_values(hashes, some_keys), expected)

    @pytest.mark.parametrize("low", [0, 2**32])
    def test_values_grid_evaluates_each_row_at_its_own_keys(self, low):
        """Row ``r`` of the grid is row ``r`` of ``values(keys[r])``, and
        the per-row ``KWiseHash`` member's value there.

        From ``2**32`` up the keys take the full split multiply; the grid
        also holds the field's edges and the largest int64 key.
        """
        depth = 3
        stacked = StackedKWiseHash(4, depth, np.random.default_rng(35))
        member_rng = np.random.default_rng(35)
        members = [KWiseHash(4, member_rng) for _ in range(depth)]
        rng = np.random.default_rng(36)
        keys = rng.integers(low, 2**63 - 1, size=(depth, 17, 5), endpoint=True)
        keys[0, 0, :] = [2**32, PRIME_61 - 1, PRIME_61, 2**62, 2**63 - 1]
        grid = stacked.values_grid(keys)
        assert grid.dtype == np.uint64 and grid.shape == keys.shape
        for row in range(depth):
            flat = stacked.values(keys[row].reshape(-1))[row]
            assert grid[row].tobytes() == flat.reshape(17, 5).tobytes()
            assert grid[row].tobytes() == members[row].values(keys[row]).tobytes()

    def test_small_and_large_key_paths_agree(self):
        """The < 2^32 fast multiply must be exact, not approximately so."""
        stacked = StackedKWiseHash(4, 3, np.random.default_rng(5))
        small_keys = np.arange(64)
        large = stacked.values(np.concatenate([small_keys, [2**62 - 1]]))
        small = stacked.values(small_keys)
        assert np.array_equal(large[:, :64], small)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            StackedKWiseHash(2, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            StackedKWiseHash(2, 3, np.random.default_rng(0)).buckets(np.arange(4), 0)

    def test_empty_batch(self):
        stacked = StackedKWiseHash(2, 3, np.random.default_rng(1))
        assert stacked.values(np.empty(0, dtype=np.int64)).shape == (3, 0)


class TestBitSignHash:
    def test_signs_are_plus_minus_one_and_deterministic(self):
        hash_ = BitSignHash(130, np.random.default_rng(2))  # spans 3 hash members
        keys = np.arange(500)
        signs = hash_.signs(keys)
        assert signs.shape == (130, 500)
        assert set(np.unique(signs)) == {-1.0, 1.0}
        assert np.array_equal(signs, hash_.signs(keys))

    def test_rows_are_roughly_balanced_and_distinct(self):
        hash_ = BitSignHash(61, np.random.default_rng(3))
        signs = hash_.signs(np.arange(4000))
        assert np.all(np.abs(signs.sum(axis=1)) < 700)
        assert not np.array_equal(signs[0], signs[1])

    def test_row_bits_match_hash_values(self):
        """Row r is literally bit r of the 4-wise value — the construction."""
        hash_ = BitSignHash(8, np.random.default_rng(4))
        keys = np.arange(32)
        values = hash_._hashes.values(keys)[0]
        signs = hash_.signs(keys)
        for row in range(8):
            expected = (((values >> np.uint64(row)) & np.uint64(1)).astype(float)) * 2 - 1
            np.testing.assert_array_equal(signs[row], expected)


class TestScatterKernels:
    def test_scalar_scatter_matches_per_row_reference(self):
        rng = np.random.default_rng(6)
        depth, width, batch = 4, 16, 300
        buckets = rng.integers(0, width, size=(depth, batch))
        signs = rng.choice(np.array([-1, 1]), size=(depth, batch))
        deltas = rng.integers(-9, 10, size=batch).astype(float)
        table = rng.integers(-5, 6, size=(depth, width)).astype(float)
        reference = table.copy()
        for row in range(depth):
            np.add.at(reference[row], buckets[row], signs[row] * deltas)
        scatter_add_scalar(table, buckets, signs, deltas)
        np.testing.assert_array_equal(table, reference)

    def test_scalar_scatter_without_signs(self):
        buckets = np.array([[0, 0, 2], [1, 1, 1]])
        table = np.zeros((2, 3))
        scatter_add_scalar(table, buckets, None, np.array([1.0, 2.0, 4.0]))
        np.testing.assert_array_equal(table, [[3.0, 0.0, 4.0], [0.0, 7.0, 0.0]])

    def test_vector_scatter_matches_per_row_reference(self):
        rng = np.random.default_rng(7)
        depth, width, batch, m = 3, 8, 120, 5
        buckets = rng.integers(0, width, size=(depth, batch))
        signs = rng.choice(np.array([-1, 1]), size=(depth, batch))
        deltas = rng.integers(-4, 5, size=(batch, m)).astype(float)
        table = np.zeros((depth, width, m))
        reference = np.zeros_like(table)
        for row in range(depth):
            np.add.at(reference[row], buckets[row], signs[row][:, None] * deltas)
        scatter_add_vector(table, buckets, signs, deltas)
        np.testing.assert_array_equal(table, reference)

    @given(
        seed=st.integers(0, 2**32 - 1),
        depth=st.integers(1, 5),
        width=st.integers(1, 16),
        m=st.integers(1, 6),
        batch=st.integers(0, 60),
    )
    @settings(max_examples=100, deadline=None)
    def test_numpy_vector_scatter_matches_per_cell_bincounts(
        self, seed, depth, width, m, batch
    ):
        """Fractional deltas into a non-zero table: summation order shows.

        Every (row, bucket, column) cell must accumulate its batch in order
        from zero and reach the table in one add, exactly like the
        historical loop of one ``np.bincount`` per (row, column).
        """
        rng = np.random.default_rng(seed)
        buckets = rng.integers(0, width, size=(depth, batch))
        signs = rng.choice(np.array([-1, 1]), size=(depth, batch))
        deltas = rng.normal(size=(batch, m)) * 10.0 ** rng.integers(-3, 4, size=m)
        table = rng.normal(size=(depth, width, m))
        reference = table.copy()
        for row in range(depth):
            for col in range(m):
                reference[row, :, col] += np.bincount(
                    buckets[row], weights=signs[row] * deltas[:, col], minlength=width
                )
        scatter_add_vector(table, buckets, signs, deltas)
        assert table.tobytes() == reference.tobytes()

    def test_integer_weights_far_past_float53_stay_exact(self):
        """Regression: int64 accumulation, not float64-bincount-then-cast.

        The layered sketches' internal weights are coefficient * value
        (coefficient < 2^20), so legal 2^53-range deltas produce weights a
        float64 cannot hold; the dense int64 matmul was exact to 2^63 and
        the kernel must be too.
        """
        big = 2**52 + 1
        sampler = L0Sampler(1 << 10, np.random.default_rng(50), repetitions=2)
        target = (1 << 10) - 1
        acc = sampler.empty_copy()
        acc.update_many(np.array([target]), np.array([big], dtype=np.int64))
        np.testing.assert_array_equal(
            acc.state, sampler.matrix[:, [target]] @ np.array([big], dtype=np.int64)
        )
        outcome = sampler.sample(acc.state)
        assert outcome.success and outcome.index == target and outcome.value == big

    def test_bincount_rows_matches_matmul(self):
        rng = np.random.default_rng(8)
        rows = rng.integers(0, 11, size=50)
        weights = rng.integers(-6, 7, size=50)
        indicator = np.zeros((11, 50), dtype=np.int64)
        indicator[rows, np.arange(50)] = 1
        out = bincount_rows(rows, weights, 11, exact_int=True)
        np.testing.assert_array_equal(out, indicator @ weights)
        assert out.dtype == np.int64
        matrix_weights = rng.integers(-3, 4, size=(50, 4)).astype(float)
        out2 = bincount_rows(rows, matrix_weights, 11, exact_int=False)
        np.testing.assert_array_equal(out2, indicator @ matrix_weights)
        assert out2.dtype == np.float64

    @pytest.mark.parametrize("ndim", [1, 2])
    def test_exact_int_bincount_rows_wraps_like_int64_indexed_adds(self, ndim):
        """Sums past ``2**63`` wrap mod ``2**64``, as int64 adds do; they
        neither saturate nor trap."""
        rng = np.random.default_rng(37)
        size = (64,) if ndim == 1 else (64, 3)
        rows = rng.integers(0, 7, size=64)
        signs = rng.choice(np.array([-1, 1]), size=size)
        weights = signs * rng.integers(2**62 - 2**40, 2**62, size=size, endpoint=True)
        want = np.zeros((7,) + size[1:], dtype=np.int64)
        np.add.at(want, rows, weights)
        got = bincount_rows(rows, weights, 7, exact_int=True)
        assert got.dtype == np.int64
        assert got.tobytes() == want.tobytes()
        exact = np.zeros(want.shape, dtype=object)
        np.add.at(exact, rows, weights.astype(object))
        wrapped = [(int(total) + 2**63) % 2**64 - 2**63 for total in exact.flat]
        assert got.reshape(-1).tolist() == wrapped
        assert any(not -(2**63) <= total < 2**63 for total in exact.flat)

    def test_float_bincount_rows_sums_each_column_in_batch_order(self):
        """Fractional 2-D weights: every column equals its own ``np.bincount``,
        which fixes the association (each cell sums its batch in order)."""
        rng = np.random.default_rng(38)
        rows = rng.integers(0, 23, size=307)
        weights = rng.normal(size=(307, 5)) * 10.0 ** rng.integers(-3, 4, size=5)
        want = np.stack(
            [np.bincount(rows, weights=weights[:, col], minlength=23) for col in range(5)],
            axis=1,
        )
        got = bincount_rows(rows, weights, 23, exact_int=False)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()


class TestLevelExpansion:
    def test_count_alive_levels_matches_naive_comparison(self):
        rng = np.random.default_rng(9)
        thresholds = 2.0 ** (-np.arange(12))
        priorities = np.concatenate(
            [rng.uniform(size=500), thresholds, np.array([0.0, 1.0 - 1e-16])]
        )
        naive = (priorities[:, None] < thresholds[None, :]).sum(axis=1)
        np.testing.assert_array_equal(
            count_alive_levels(priorities, thresholds), naive
        )

    def test_expand_levels_enumerates_each_coordinate_level_pair(self):
        take, level = expand_levels(np.array([2, 1, 3]))
        np.testing.assert_array_equal(take, [0, 0, 1, 2, 2, 2])
        np.testing.assert_array_equal(level, [0, 1, 0, 0, 1, 2])

    def test_expand_levels_empty(self):
        take, level = expand_levels(np.empty(0, dtype=np.int64))
        assert take.size == 0 and level.size == 0


GATE = kernels._BLAS_MIN_MACS
INT64 = np.iinfo(np.int64)


def matmul_route(x: np.ndarray, y: np.ndarray) -> str:
    """Check ``exact_matmul(x, y)`` against ``x @ y`` byte for byte and name
    the route it took: ``"blas"`` (float64 row blocks) or ``"matmul"``."""
    with mock.patch.object(kernels, "_blas_matmul", wraps=kernels._blas_matmul) as blas:
        got = exact_matmul(x, y)
    want = x @ y
    assert type(got) is type(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    return "blas" if blas.called else "matmul"


def random_ints(seed: int, shape: tuple, bound: int) -> np.ndarray:
    """int64 entries in ``[-bound, bound]``, with ``bound`` itself present
    (the route's magnitude check reads the exact maximum)."""
    out = np.random.default_rng(seed).integers(-bound, bound, size=shape, endpoint=True)
    if out.size:
        out.flat[0] = bound
    return out


class TestExactMatmul:
    """``exact_matmul`` equals ``x @ y`` in dtype and bytes on every route."""

    @given(
        rows=st.integers(0, 64),
        inner=st.integers(1, 32),
        cols=st.integers(0, 64),
        bound=st.sampled_from([0, 1, 10, 1 << 20]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_gate_sends_only_products_of_at_least_2_15_macs_to_blas(
        self, rows, inner, cols, bound, seed
    ):
        x = random_ints(seed, (rows, inner), bound)
        y = random_ints(seed + 1, (inner, cols), bound)
        expected = "blas" if rows * inner * cols >= GATE else "matmul"
        assert matmul_route(x, y) == expected

    @pytest.mark.parametrize("macs", [GATE - 1, GATE])
    def test_gate_boundary(self, macs):
        """``macs`` rows of one multiply-add each: exactly at and below the gate."""
        x = random_ints(3, (macs, 1), 5)
        y = random_ints(4, (1, 1), 5)
        assert matmul_route(x, y) == ("blas" if macs >= GATE else "matmul")

    @given(
        inner=st.integers(32, 160),
        cols=st.integers(32, 232),
        blocks=st.integers(2, 5),
        extra=st.integers(0, 7),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_multi_block_products(self, inner, cols, blocks, extra, seed):
        """More rows than one ``_BLAS_BLOCK_MACS`` block holds, ragged tail."""
        block_rows = max(1, kernels._BLAS_BLOCK_MACS // (inner * cols))
        rows = blocks * block_rows + extra % block_rows
        assert rows > block_rows
        x = random_ints(seed, (rows, inner), 1 << 20)
        y = random_ints(seed + 1, (inner, cols), 1 << 12)
        assert matmul_route(x, y) == "blas"

    def test_rows_wider_than_a_block_run_one_row_at_a_time(self):
        inner, cols = 600, 600  # one row is already > _BLAS_BLOCK_MACS
        x = random_ints(5, (3, inner), 1000)
        y = random_ints(6, (inner, cols), 1000)
        assert matmul_route(x, y) == "blas"

    @given(
        inner=st.integers(8, 64),
        y_max=st.integers(1, 1 << 20),
        above=st.booleans(),
        negate=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_magnitudes_just_below_and_just_above_2_53(
        self, inner, y_max, above, negate, seed
    ):
        """``inner * max|x| * max|y|`` one step either side of ``2^53``.

        Row 0 of ``x`` and column 0 of ``y`` hold the maxima, so output
        entry ``(0, 0)`` *is* the bound: the largest sum the float route
        may ever meet, or (above) one that float64 could round.
        """
        x_max = (2**53 - 1) // (inner * y_max) + int(above)
        x = random_ints(seed, (64, inner), x_max)
        y = random_ints(seed + 1, (inner, 64), y_max)
        x[0, :] = -x_max if negate else x_max
        y[:, 0] = y_max
        assert (inner * x_max * y_max >= 2**53) == above
        assert matmul_route(x, y) == ("matmul" if above else "blas")

    @given(
        x=hnp.arrays(np.int64, (32, 32), elements=st.integers(INT64.min, INT64.max)),
        y=hnp.arrays(np.int64, (32, 32), elements=st.integers(INT64.min, INT64.max)),
        big=st.integers(INT64.min, -(2**53)) | st.integers(2**53, INT64.max),
    )
    @settings(max_examples=100, deadline=None)
    def test_full_range_int64_wraps_on_the_int64_loop(self, x, y, big):
        """Entries past ``2^53``: products wrap mod ``2^64`` in int64, where
        float64 would round instead, so they must stay on the int64 loop."""
        x[0, 0] = big
        y[0, 0] = y[0, 0] or 1
        assert matmul_route(x, y) == "matmul"

    def test_int64_minimum_is_not_mistaken_for_a_small_value(self):
        """``np.abs`` of the int64 minimum is negative; the bound must not be."""
        x = np.zeros((32, 32), dtype=np.int64)
        x[5, 7] = INT64.min
        y = np.ones((32, 32), dtype=np.int64)
        assert matmul_route(x, y) == "matmul"

    @pytest.mark.parametrize(
        "x_dtype, y_dtype, route",
        [
            (np.int32, np.int32, "matmul"),
            (np.uint8, np.uint8, "matmul"),
            (np.uint64, np.uint64, "matmul"),
            (np.int64, np.uint64, "matmul"),  # promotes to float64
            (np.bool_, np.bool_, "matmul"),
            (np.float64, np.float64, "matmul"),
            (np.int64, np.float64, "matmul"),
            (np.int32, np.int64, "blas"),  # promotes to int64
            (np.uint32, np.int64, "blas"),
            (np.int8, np.uint32, "blas"),
        ],
    )
    def test_dtypes(self, x_dtype, y_dtype, route):
        x = np.abs(random_ints(7, (64, 48), 100)).astype(x_dtype)
        y = np.abs(random_ints(8, (48, 64), 100)).astype(y_dtype)
        assert matmul_route(x, y) == route

    def test_one_dimensional_operands_use_plain_matmul(self):
        x = random_ints(9, (256, 256), 50)
        v = random_ints(10, (256,), 50)
        assert matmul_route(x, v) == "matmul"
        assert matmul_route(v, x) == "matmul"
        assert matmul_route(v, v[:, None]) == "matmul"

    @pytest.mark.parametrize(
        "view",
        [
            lambda x, y: (x[:, np.arange(90) % 3 != 1], y[np.arange(90) % 3 != 1]),
            lambda x, y: (x, np.ascontiguousarray(y.T).T),
            lambda x, y: (x[::2], y[:, ::3]),
            lambda x, y: (np.asfortranarray(x), np.asfortranarray(y)),
            lambda x, y: (x[:, ::-1], y[::-1]),
        ],
        ids=["column-mask", "transposed", "strided", "fortran", "reversed"],
    )
    def test_non_contiguous_views(self, view):
        x = random_ints(11, (96, 90), 1 << 16)
        y = random_ints(12, (90, 96), 1 << 16)
        x, y = view(x, y)
        assert matmul_route(x, y) == "blas"

    @pytest.mark.parametrize(
        "x_shape, y_shape",
        [((0, 64), (64, 64)), ((64, 0), (0, 64)), ((64, 64), (64, 0))],
    )
    def test_empty_operands(self, x_shape, y_shape):
        x = np.zeros(x_shape, dtype=np.int64)
        y = np.zeros(y_shape, dtype=np.int64)
        assert matmul_route(x, y) == "matmul"

    def test_mismatched_inner_dimensions_raise_like_matmul(self):
        x = random_ints(13, (64, 64), 3)
        with pytest.raises(ValueError):
            exact_matmul(x, random_ints(14, (63, 64), 3))


def reference_sample(sampler: L0Sampler, sketched: np.ndarray):
    """The historical per-repetition / per-level recovery loop, verbatim."""
    per_rep = sketched.reshape(sampler.repetitions, sampler.levels, 3)
    coeffs = sampler._fingerprint_coeffs
    for rep in range(sampler.repetitions):
        for level in range(sampler.levels - 1, -1, -1):
            s0, s1, fingerprint = (int(v) for v in per_rep[rep, level])
            if s0 == 0:
                continue
            if s1 % s0 != 0:
                continue
            index = s1 // s0 - 1
            if not 0 <= index < sampler.n:
                continue
            if fingerprint != int(coeffs[rep, index]) * s0:
                continue
            return index, s0, level
    return None, None, None


class TestVectorizedRecovery:
    @pytest.mark.parametrize("seed", range(8))
    def test_sample_matches_reference_loop_on_random_states(self, seed):
        """Fuzzed raw states hit every rejection branch; outcomes must agree."""
        sampler = L0Sampler(24, np.random.default_rng(100), repetitions=3)
        rng = np.random.default_rng(seed)
        sketched = rng.integers(-6, 7, size=sampler.num_rows).astype(np.int64)
        # Sprinkle plausible 1-sparse cells so successes occur too.
        for cell in range(0, sampler.num_rows, 9):
            rep = cell // (3 * sampler.levels)
            j = int(rng.integers(0, 24))
            s0 = int(rng.integers(1, 4))
            sketched[cell + 0] = s0
            sketched[cell + 1] = (j + 1) * s0
            if rng.uniform() < 0.7:
                coeff = sampler._fingerprint_coeffs[rep, j]
                sketched[cell + 2] = int(coeff) * s0
        outcome = sampler.sample(sketched)
        expected = reference_sample(sampler, sketched)
        assert (outcome.index, outcome.value, outcome.level) == expected

    def test_sample_on_float_states_truncates_like_int(self):
        sampler = L0Sampler(16, np.random.default_rng(101), repetitions=2)
        x = np.zeros(16, dtype=np.int64)
        x[11] = 3
        sketched = sampler.apply(x).astype(float)
        outcome = sampler.sample(sketched)
        assert outcome.success and outcome.index == 11 and outcome.value == 3


class TestAmsEstimatorPipelines:
    def reference_estimate(self, sketched, num_groups):
        squares = np.asarray(sketched, dtype=float) ** 2
        groups = np.array_split(squares, num_groups)
        return float(np.median([np.mean(group) for group in groups]))

    def reference_columns(self, sketched, num_groups):
        squares = np.asarray(sketched, dtype=float) ** 2
        groups = np.array_split(squares, num_groups, axis=0)
        return np.median(np.stack([np.mean(g, axis=0) for g in groups]), axis=0)

    @pytest.mark.parametrize("num_rows, num_groups", [(24, 3), (25, 4), (16, 16)])
    def test_grouped_estimates_match_array_split_reference(self, num_rows, num_groups):
        """Even splits reshape, ragged splits reduceat — same numbers."""
        rng = np.random.default_rng(13)
        sketch = AmsSketch(32, num_rows, rng, num_groups=num_groups)
        sketched = rng.normal(size=num_rows)
        assert sketch.estimate_f2(sketched) == pytest.approx(
            self.reference_estimate(sketched, num_groups), rel=1e-12
        )
        sketched_cols = rng.normal(size=(num_rows, 5))
        np.testing.assert_allclose(
            sketch.estimate_f2_columns(sketched_cols),
            self.reference_columns(sketched_cols, num_groups),
            rtol=1e-12,
        )

    def test_hash_mode_estimates_f2(self):
        rng = np.random.default_rng(14)
        x = rng.integers(0, 5, size=256).astype(float)
        sketch = AmsSketch(256, 96, np.random.default_rng(15), mode="hash")
        acc = sketch.empty_copy()
        acc.update_many(np.arange(256), x)
        assert acc.estimate_state_f2() == pytest.approx(float(x @ x), rel=0.5)

    def test_mode_validation_and_cross_mode_merge_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            AmsSketch(8, 4, np.random.default_rng(0), mode="sparse")
        dense = AmsSketch(8, 4, np.random.default_rng(1))
        hashed = AmsSketch(8, 4, np.random.default_rng(1), mode="hash")
        with pytest.raises(ValueError):
            dense.merge(hashed)

    def test_hash_mode_apply_matches_materialized_matrix(self):
        sketch = AmsSketch(96, 16, np.random.default_rng(16), mode="hash")
        x = np.random.default_rng(17).normal(size=96)
        np.testing.assert_allclose(sketch.apply(x), sketch.dense_matrix @ x)
        matrix_input = np.random.default_rng(18).normal(size=(96, 3))
        np.testing.assert_allclose(
            sketch.apply(matrix_input), sketch.dense_matrix @ matrix_input
        )


class TestHugeUniverseGuards:
    """Dense materialization helpers refuse universe-sized allocations."""

    def test_countsketch_dense_properties_refuse_huge_universes(self):
        from repro.sketch.countsketch import CountSketch

        sketch = CountSketch(1 << 30, 16, 2, np.random.default_rng(20))
        with pytest.raises(ValueError, match="dense hash tables"):
            sketch.bucket_of
        with pytest.raises(ValueError, match="dense hash tables"):
            sketch.sign_of

    def test_linear_families_refuse_huge_dense_matrices(self):
        from repro.sketch import L0Sketch, L0Sampler

        with pytest.raises(ValueError, match="materialize"):
            L0Sketch(1 << 30, 16, np.random.default_rng(21), mode="hash").matrix
        with pytest.raises(ValueError, match="materialize"):
            L0Sampler(1 << 30, np.random.default_rng(22), mode="hash").matrix
        with pytest.raises(ValueError, match="materialize"):
            AmsSketch(1 << 30, 4, np.random.default_rng(23), mode="hash").dense_matrix

    def test_out_of_range_coordinates_raise_in_every_mode(self):
        """Lazy hashing must not silently sketch phantom coordinates.

        The dense tables raised IndexError for free; the kernels enforce
        the universe bound explicitly, hash modes included.
        """
        from repro.sketch import CountMinSketch, CountSketch, L0Sketch

        cs = CountSketch(16, 8, 3, np.random.default_rng(30))
        with pytest.raises(IndexError, match="out of range"):
            cs.update(500)
        with pytest.raises(IndexError, match="out of range"):
            cs.update_many(np.array([3, 16]), np.array([1.0, 1.0]))
        with pytest.raises(IndexError, match="out of range"):
            cs.query(-1)
        cm = CountMinSketch(16, 8, 3, np.random.default_rng(31))
        with pytest.raises(IndexError, match="out of range"):
            cm.update(16)
        with pytest.raises(IndexError, match="out of range"):
            cm.query(99)
        for mode in ("dense", "hash"):
            hashed = L0Sketch(16, 4, np.random.default_rng(32), mode=mode)
            with pytest.raises(IndexError, match="out of range"):
                hashed.empty_copy().update_many(np.array([16]), np.array([1]))
            ams = AmsSketch(16, 4, np.random.default_rng(33), mode=mode)
            with pytest.raises(IndexError, match="out of range"):
                ams.empty_copy().update_many(np.array([-2]), np.array([1]))

    def test_countmin_bucket_table_property(self):
        from repro.sketch import CountMinSketch

        sketch = CountMinSketch(32, 8, 3, np.random.default_rng(24))
        table = sketch.bucket_of
        assert table.shape == (3, 32)
        assert table.min() >= 0 and table.max() < 8
