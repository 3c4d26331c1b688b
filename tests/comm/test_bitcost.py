"""Unit tests for the bit-cost accounting rules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import bitcost


class TestBitsForIndex:
    def test_universe_of_one_costs_one_bit(self):
        assert bitcost.bits_for_index(1) == 1

    def test_power_of_two_universe(self):
        assert bitcost.bits_for_index(256) == 8

    def test_non_power_of_two_rounds_up(self):
        assert bitcost.bits_for_index(100) == 7

    def test_rejects_empty_universe(self):
        with pytest.raises(ValueError):
            bitcost.bits_for_index(0)


class TestBitsForInt:
    def test_zero_costs_two_bits(self):
        assert bitcost.bits_for_int(0) == 2

    def test_sign_is_charged(self):
        assert bitcost.bits_for_int(-5) == bitcost.bits_for_int(5)

    def test_grows_logarithmically(self):
        assert bitcost.bits_for_int(1023) == 11
        assert bitcost.bits_for_int(1024) == 12


class TestBitsForCollections:
    def test_index_list_scales_with_length(self):
        short = bitcost.bits_for_index_list([1, 2], 256)
        long = bitcost.bits_for_index_list(list(range(10)), 256)
        assert long > short
        assert long - bitcost.bits_for_int(10) == 10 * 8

    @pytest.mark.parametrize("universe", [1, 2, 100, 2**40])
    def test_index_lists_total_each_lists_charge(self, universe):
        # Each bit-length boundary alone, then a few lists together.
        boundaries = [[2**e + d] for e in range(63) for d in (-1, 0, 1) if 2**e + d < 2**63]
        for lengths in [[], [0], [0, 1, 2, 3, 4, 7, 8, 9], *boundaries]:
            expected = sum(
                bitcost.bits_for_index_list(range(n), universe) for n in lengths
            )
            got = bitcost.bits_for_index_lists(np.array(lengths, dtype=np.int64), universe)
            assert got == expected
            assert type(got) is int

    def test_float_vector_charged_64_bits_per_entry(self):
        vector = np.zeros(10, dtype=float)
        assert bitcost.bits_for_vector(vector) == 10 * bitcost.FLOAT_BITS

    def test_int_vector_charged_int_entry_bits(self):
        vector = np.zeros(10, dtype=np.int64)
        assert bitcost.bits_for_vector(vector) == 10 * bitcost.INT_ENTRY_BITS

    def test_matrix_cost_equals_flattened_vector_cost(self):
        matrix = np.ones((4, 5))
        assert bitcost.bits_for_matrix(matrix) == bitcost.bits_for_vector(matrix.reshape(-1))

    def test_per_entry_override(self):
        matrix = np.ones((4, 5), dtype=np.int64)
        assert bitcost.bits_for_matrix(matrix, per_entry=1) == 20


class TestBitsForPayload:
    def test_none_is_free(self):
        assert bitcost.bits_for_payload(None) == 0

    def test_bool_costs_one_bit(self):
        assert bitcost.bits_for_payload(True) == 1

    def test_int_and_float(self):
        assert bitcost.bits_for_payload(7) == bitcost.bits_for_int(7)
        assert bitcost.bits_for_payload(3.14) == bitcost.FLOAT_BITS

    def test_ndarray(self):
        array = np.arange(6, dtype=float)
        assert bitcost.bits_for_payload(array) == 6 * bitcost.FLOAT_BITS

    def test_index_list_with_universe(self):
        assert bitcost.bits_for_payload([1, 2, 3], universe=16) == bitcost.bits_for_index_list(
            [1, 2, 3], 16
        )

    def test_dict_sums_keys_and_values(self):
        payload = {1: np.zeros(2), 2: np.zeros(3)}
        cost = bitcost.bits_for_payload(payload)
        assert cost > 5 * bitcost.INT_ENTRY_BITS or cost > 0

    def test_int_dict_keys_are_charged_as_ints_not_indices(self):
        # The length (2 bits), the key 5 as an int (4 bits, not the 10 bits
        # of an index of 1024) and the float value (64 bits).
        assert bitcost.bits_for_payload({5: 1.0}, universe=1024) == 2 + 4 + 64

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            bitcost.bits_for_payload(object())

    def test_sparse_rows_helper(self):
        cost = bitcost.bits_for_sparse_rows([0, 3, 5], n_cols=64, n_rows=128)
        assert cost == 3 * (64 + 7)
