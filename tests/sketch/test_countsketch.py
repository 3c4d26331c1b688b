"""Unit tests for CountSketch and Count-Min."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.sketch import countsketch
from repro.sketch.countmin import CountMinSketch
from repro.sketch.countsketch import CountSketch


class TestCountSketch:
    def test_invalid_parameters_rejected(self, rng):
        with pytest.raises(ValueError):
            CountSketch(0, 8, 3, rng)
        with pytest.raises(ValueError):
            CountSketch(8, 0, 3, rng)

    def test_point_query_on_sparse_vector(self, rng):
        n = 256
        x = np.zeros(n)
        x[7] = 100.0
        x[80] = 60.0
        sketch = CountSketch(n, width=64, depth=5, rng=rng)
        sketch.build_from_vector(x)
        assert sketch.query(7) == pytest.approx(100.0, abs=15.0)
        assert sketch.query(80) == pytest.approx(60.0, abs=15.0)
        assert abs(sketch.query(5)) < 15.0

    def test_update_matches_build(self, rng):
        n = 64
        first = CountSketch(n, 32, 3, np.random.default_rng(0))
        second = CountSketch(n, 32, 3, np.random.default_rng(0))
        x = np.zeros(n)
        x[3] = 2.0
        x[9] = -1.0
        first.build_from_vector(x)
        second.update(3, 2.0)
        second.update(9, -1.0)
        assert np.allclose(first.table, second.table)

    def test_build_rejects_wrong_length(self, rng):
        sketch = CountSketch(16, 8, 2, rng)
        with pytest.raises(ValueError):
            sketch.build_from_vector(np.zeros(10))

    def test_query_all_matches_pointwise(self, rng):
        n = 50
        x = rng.normal(size=n) * 10
        sketch = CountSketch(n, 32, 3, rng)
        sketch.build_from_vector(x)
        all_estimates = sketch.query_all()
        for index in (0, 10, 49):
            assert all_estimates[index] == pytest.approx(sketch.query(index))

    def test_heavy_hitters_found(self, rng):
        n = 200
        x = np.ones(n)
        x[17] = 500.0
        sketch = CountSketch(n, 64, 5, rng)
        sketch.build_from_vector(x)
        hits = dict(sketch.heavy_hitters(threshold=250.0))
        assert 17 in hits


class TestVectorCountSketch:
    """Vector-valued counters: CountSketch over the rows of a matrix."""

    def test_query_rows_recovers_heavy_rows(self, rng):
        n, m = 80, 12
        a = np.zeros((n, m), dtype=np.int64)
        a[7] = 300
        a[41, 3] = -200
        sketch = CountSketch(n, 32, 5, rng)
        sketch.update_many(np.arange(n), a)
        estimates = sketch.query_rows()
        assert estimates.shape == (n, m)
        assert np.allclose(estimates[7], a[7], atol=40)
        assert estimates[41, 3] == pytest.approx(-200, abs=40)

    def test_query_rows_equals_the_unblocked_per_key_median(self, rng):
        n, m = 10_000, 64  # several query blocks at depth 5
        a = np.random.default_rng(5).integers(-3, 4, size=(n, m))
        sketch = CountSketch(n, 64, 5, rng)
        sketch.update_many(np.arange(n), a)
        gathered = sketch.sign_of[:, :, None] * sketch.table[
            np.arange(5)[:, None], sketch.bucket_of
        ]
        np.testing.assert_array_equal(
            sketch.query_rows(), np.median(gathered, axis=0)
        )

    def test_query_rows_peak_memory_is_bounded_in_bytes(self, rng):
        n, m = 1 << 15, 64
        sketch = CountSketch(n, 64, 5, rng)
        sketch.update_many(np.arange(64), np.ones((64, m), dtype=np.int64))
        tracemalloc.start()
        try:
            sketch.query_rows()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20  # the output alone is 16 MiB

    def test_zero_width_tables_query_to_empty_results(self, rng):
        sketch = CountSketch(10, 4, 3, rng)
        sketch.update_many(np.arange(2), np.ones((2, 0)))
        assert sketch.query_rows().shape == (10, 0)
        assert [part.size for part in sketch.heavy_entries(1.0)] == [0, 0, 0]

    @given(
        depth=st.integers(1, 6),
        width=st.integers(1, 6),
        m=st.integers(1, 8),
        n=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        lazy=st.booleans(),
        chunk=st.sampled_from([1 << 20, 48, 7]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_heavy_entries_equal_the_filtered_row_estimates(
        self, depth, width, m, n, seed, lazy, chunk, data
    ):
        table = data.draw(
            hnp.arrays(np.int64, (depth, width, m), elements=st.integers(-3, 3))
        )
        sketch = CountSketch(n, width, depth, np.random.default_rng(seed))
        sketch.load_state_array(table.astype(float))
        with pytest.MonkeyPatch.context() as patch:
            # Small chunks split the universe into several key blocks; a
            # cache bound below n keeps the hashes lazy.
            patch.setattr(countsketch, "_CHUNK", chunk)
            if lazy:
                patch.setattr(countsketch, "_DENSE_CACHE_MAX", n - 1)
            estimates = sketch.query_rows()
            # Boundaries: the exact square of a table entry or of an
            # estimate (half-integers at even depth), and its neighbours.
            value = data.draw(st.sampled_from([*table.ravel(), *estimates.ravel()]))
            square = float(value) ** 2
            below, above = np.nextafter(square, [-np.inf, np.inf])
            for threshold in (square, below, above):
                rows, cols, values = sketch.heavy_entries(threshold)
                hits = np.nonzero(estimates**2 >= threshold)
                np.testing.assert_array_equal(rows, hits[0])
                np.testing.assert_array_equal(cols, hits[1])
                assert values.tobytes() == estimates[hits].tobytes()
            assert ("buckets" in sketch._cache) is not lazy

    @pytest.mark.parametrize("threshold, passing", [(5.0, 0), (1.0, 1 << 21)])
    def test_heavy_entries_peak_memory_is_bounded_in_bytes(self, rng, threshold, passing):
        n, m = 1 << 15, 64
        sketch = CountSketch(n, 64, 5, rng)
        # Every |value| is 1 or 2, so every median squares to 1 or 4.
        sketch.load_state_array(rng.choice([-2.0, -1.0, 1.0, 2.0], size=(5, 64, m)))
        # The dense hash cache (2.5 MiB here) is built once per sketch and
        # shared by its clones; measure the query alone.
        sketch.bucket_of
        tracemalloc.start()
        try:
            rows, _, _ = sketch.heavy_entries(threshold)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows.size == passing
        # Screening alone needs no per-entry estimate; the full output is
        # 48 MiB (two int64 index arrays and the float64 estimates).
        assert peak < (8 << 20 if passing == 0 else 128 << 20)

    def test_vector_updates_are_linear_in_chunks(self, rng):
        n, m = 40, 6
        a = np.random.default_rng(3).integers(-4, 5, size=(n, m))
        whole = CountSketch(n, 16, 3, rng)
        whole.update_many(np.arange(n), a)
        chunked = whole.empty_copy()
        chunked.update_many(np.arange(25), a[:25])
        chunked.update_many(np.arange(25, n), a[25:])
        np.testing.assert_array_equal(whole.table, chunked.table)

    def test_merge_adopts_vector_table_from_empty(self, rng):
        sketch = CountSketch(30, 8, 3, rng)
        part = sketch.empty_copy()
        part.update_many(np.arange(10), np.ones((10, 4), dtype=np.int64))
        merged = sketch.empty_copy().merge(part)
        np.testing.assert_array_equal(merged.table, part.table)
        # The mirror case: merging an untouched scalar clone is a no-op.
        np.testing.assert_array_equal(
            merged.merge(sketch.empty_copy()).table, part.table
        )

    def test_scalar_and_vector_updates_cannot_mix(self, rng):
        sketch = CountSketch(20, 8, 2, rng).empty_copy()
        sketch.update_many(np.array([3]), np.array([2.0]))
        with pytest.raises(ValueError, match="scalar"):
            sketch.update_many(np.array([3]), np.ones((1, 4)))
        widened = CountSketch(20, 8, 2, rng).empty_copy()
        widened.update_many(np.array([3]), np.ones((1, 4), dtype=np.int64))
        with pytest.raises(ValueError, match="vector-valued"):
            widened.update_many(np.array([3]), np.array([2.0]))
        with pytest.raises(ValueError, match="dimension"):
            widened.update_many(np.array([3]), np.ones((1, 5), dtype=np.int64))

    def test_scalar_delta_pairs_with_single_index(self, rng):
        sketch = CountSketch(20, 8, 2, rng).empty_copy()
        sketch.update_many(np.array([3]), 2.0)  # 0-d delta, historical form
        assert sketch.query(3) == pytest.approx(2.0)

    def test_empty_batch_does_not_switch_counter_shape(self, rng):
        sketch = CountSketch(20, 8, 2, rng).empty_copy()
        sketch.update_many(np.empty(0, dtype=np.int64), np.empty((0, 4)))
        assert sketch.table.ndim == 2  # still scalar counters
        sketch.update(3, 2.0)  # scalar use keeps working
        assert sketch.query(3) == pytest.approx(2.0)

    def test_scalar_queries_reject_vector_tables(self, rng):
        sketch = CountSketch(20, 8, 2, rng).empty_copy()
        sketch.update_many(np.array([3]), np.ones((1, 4), dtype=np.int64))
        with pytest.raises(ValueError, match="query_rows"):
            sketch.query(3)
        with pytest.raises(ValueError, match="query_rows"):
            sketch.query_all()
        scalar = CountSketch(20, 8, 2, rng)
        with pytest.raises(ValueError, match="query_all"):
            scalar.query_rows()


class TestCountMin:
    def test_invalid_parameters_rejected(self, rng):
        with pytest.raises(ValueError):
            CountMinSketch(0, 8, 3, rng)
        with pytest.raises(ValueError):
            CountMinSketch(8, 8, 0, rng)

    def test_rejects_negative_frequencies(self, rng):
        sketch = CountMinSketch(16, 8, 2, rng)
        with pytest.raises(ValueError):
            sketch.build_from_vector(np.array([-1.0] + [0.0] * 15))

    def test_query_never_underestimates(self, rng):
        n = 128
        x = np.abs(rng.normal(size=n)) * 5
        sketch = CountMinSketch(n, 32, 4, rng)
        sketch.build_from_vector(x)
        estimates = sketch.query_all()
        assert np.all(estimates >= x - 1e-9)

    def test_point_query_close_for_heavy_item(self, rng):
        n = 256
        x = np.zeros(n)
        x[100] = 1000.0
        sketch = CountMinSketch(n, 64, 4, rng)
        sketch.build_from_vector(x)
        assert sketch.query(100) == pytest.approx(1000.0, rel=0.05)

    def test_update_accumulates(self, rng):
        sketch = CountMinSketch(16, 16, 3, rng)
        sketch.update(4, 2.0)
        sketch.update(4, 3.0)
        assert sketch.query(4) >= 5.0
