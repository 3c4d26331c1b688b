"""Wire codec: byte-exact round trips, lossless compaction, framing errors."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.comm import wire


def roundtrip(array):
    return wire.decode_array(wire.encode_array(array))


def assert_bit_identical(a, b):
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestRoundTrips:
    def test_absent_state(self):
        payload = wire.encode_array(None)
        assert wire.decode_array(payload) is None

    @pytest.mark.parametrize(
        "array",
        [
            np.arange(12, dtype=np.int64).reshape(3, 4) - 6,
            np.zeros((5, 7), dtype=np.int64),
            np.array([2**40, -(2**40)], dtype=np.int64),
            np.linspace(-1.0, 1.0, 9).reshape(3, 3),
            np.array([[-0.0, 0.0], [1.5, np.inf]]),
            np.zeros(0, dtype=np.int64),
            np.float64(3.25) * np.ones((2, 2, 2)),
            np.arange(6, dtype=np.int32),
            np.arange(6, dtype=np.float32),
            np.array(5),
            np.array(-0.0),
        ],
    )
    def test_dense_and_sparse_arrays(self, array):
        assert_bit_identical(roundtrip(array), array)

    def test_negative_zero_survives(self):
        array = np.array([-0.0, 0.0, 2.0])
        back = roundtrip(array)
        assert_bit_identical(back, array)
        assert np.signbit(back[0]) and not np.signbit(back[1])

    def test_nan_payload_survives(self):
        array = np.array([np.nan, 1.0, -np.inf])
        assert_bit_identical(roundtrip(array), array)


class TestCompaction:
    def test_small_ints_travel_narrow(self):
        wide = np.arange(1000, dtype=np.int64) % 5
        blob = wire.encode_array(wide)
        assert len(blob) < 1000 * 2  # one byte per entry plus header
        assert_bit_identical(wire.decode_array(blob), wide)

    def test_integer_valued_floats_travel_as_ints(self):
        floats = np.arange(1000, dtype=float) % 7 - 3
        blob = wire.encode_array(floats)
        assert len(blob) < 1000 * 2
        assert_bit_identical(wire.decode_array(blob), floats)

    def test_mostly_zero_states_travel_sparse(self):
        state = np.zeros(10_000, dtype=np.int64)
        state[17] = 123456
        blob = wire.encode_array(state)
        assert len(blob) < 200
        assert_bit_identical(wire.decode_array(blob), state)

    def test_non_integral_floats_stay_float64(self):
        array = np.array([0.5, 1.25, -3.75])
        assert_bit_identical(roundtrip(array), array)

    def test_downcast_never_widens_float32(self):
        """Integer-valued float32 with large values must not inflate to int64."""
        array = np.full(1000, 2.0**40, dtype=np.float32)
        blob = wire.encode_array(array)
        assert len(blob) <= 1000 * 4 + 32  # at most the raw float32 bytes
        assert_bit_identical(wire.decode_array(blob), array)

    def test_negative_zero_blocks_integer_downcast(self):
        array = np.array([-0.0] * 100)
        assert_bit_identical(roundtrip(array), array)


class TestBundles:
    def test_bundle_round_trip_preserves_order_and_content(self):
        records = {
            "ams": np.arange(6, dtype=float),
            "l0": np.zeros((4, 3), dtype=np.int64),
            "empty": None,
        }
        decoded = wire.decode_bundle(wire.encode_bundle(records))
        assert list(decoded) == ["ams", "l0", "empty"]
        assert_bit_identical(decoded["ams"], records["ams"])
        assert_bit_identical(decoded["l0"], records["l0"])
        assert decoded["empty"] is None

    def test_empty_bundle(self):
        assert wire.decode_bundle(wire.encode_bundle({})) == {}

    def test_oversized_bundle_rejected(self):
        records = {f"sketch-{i}": None for i in range(256)}
        with pytest.raises(wire.WireFormatError, match="max 255"):
            wire.encode_bundle(records)

    def test_corrupt_shape_overflow_rejected(self):
        """A shape whose product wraps int64 must not bypass the guards."""
        import struct

        for kind in (1, 2):  # dense, sparse
            blob = (
                struct.pack("<2sBB", b"RS", 1, kind)
                + struct.pack("<BBB", 4, 4, 3)  # int64 orig/wire, ndim 3
                + struct.pack("<3I", 2**31, 2**31, 4)
            )
            with pytest.raises(wire.WireFormatError):
                wire.decode_array(blob)

    def test_duplicate_record_names_rejected(self):
        import struct

        record = wire.encode_array(np.arange(3, dtype=np.int64))
        framed = b"\x03ams" + struct.pack("<I", len(record)) + record
        blob = struct.pack("<2sBB", b"RS", 1, 2) + framed + framed
        with pytest.raises(wire.WireFormatError, match="duplicate"):
            wire.decode_bundle(blob)


class TestFramingErrors:
    def test_bad_magic_rejected(self):
        with pytest.raises(wire.WireFormatError, match="magic"):
            wire.decode_array(b"XX\x01\x00")

    def test_bad_version_rejected(self):
        with pytest.raises(wire.WireFormatError, match="version"):
            wire.decode_array(b"RS\x63\x00")

    def test_trailing_bytes_rejected(self):
        blob = wire.encode_array(np.arange(3, dtype=np.int64)) + b"\x00"
        with pytest.raises(wire.WireFormatError, match="trailing"):
            wire.decode_array(blob)

    @pytest.mark.parametrize("cut", [1, 3, 5, 9, 20])
    def test_truncated_payloads_rejected(self, cut):
        """Every truncation point raises WireFormatError, never struct/numpy errors."""
        blob = wire.encode_array(np.arange(100, dtype=np.int64))
        with pytest.raises(wire.WireFormatError, match="truncated"):
            wire.decode_array(blob[:cut])

    def test_truncated_sparse_payload_rejected(self):
        sparse = np.zeros(1000, dtype=np.int64)
        sparse[3] = 7
        blob = wire.encode_array(sparse)
        with pytest.raises(wire.WireFormatError, match="truncated"):
            wire.decode_array(blob[:-1])

    def test_truncated_bundle_rejected(self):
        blob = wire.encode_bundle({"ams": np.arange(6, dtype=np.int64)})
        for cut in (2, 5, 8, len(blob) - 1):
            with pytest.raises(wire.WireFormatError, match="truncated"):
                wire.decode_bundle(blob[:cut])

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(wire.WireFormatError, match="dtype"):
            wire.encode_array(np.zeros(3, dtype=np.uint64))

    def test_payload_bits_is_eight_per_byte(self):
        blob = wire.encode_array(np.arange(5, dtype=np.int64))
        assert wire.payload_bits(blob) == 8 * len(blob)


class TestRobustness:
    """Adversarial input never escapes as anything but WireFormatError.

    These payloads cross process boundaries in the service layer, so the
    decoder is a trust boundary: truncation at *every* byte, corrupt names
    and corrupt shape fields must all fail loudly and cheaply — no struct
    or numpy exceptions, no gigabyte allocations driven by a corrupt header.
    """

    @staticmethod
    def _blobs():
        sparse_state = np.zeros(4096, dtype=np.int64)
        sparse_state[[5, 99]] = [7, -3]
        return [
            (wire.encode_array(np.linspace(-1.0, 1.0, 37)), wire.decode_array),
            (wire.encode_array(sparse_state), wire.decode_array),
            (
                wire.encode_bundle(
                    {"ams": np.arange(24, dtype=float), "l0": sparse_state, "gap": None}
                ),
                wire.decode_bundle,
            ),
        ]

    def test_every_strict_prefix_raises(self):
        for blob, decode in self._blobs():
            for cut in range(len(blob)):
                with pytest.raises(wire.WireFormatError):
                    decode(blob[:cut])

    def test_trailing_garbage_after_bundle_rejected(self):
        blob = wire.encode_bundle({"ams": np.arange(4, dtype=np.int64)})
        with pytest.raises(wire.WireFormatError, match="trailing"):
            wire.decode_bundle(blob + b"\x00")

    def test_non_utf8_record_name_rejected(self):
        import struct

        record = wire.encode_array(np.arange(3, dtype=np.int64))
        blob = (
            struct.pack("<2sBB", b"RS", 1, 1)
            + struct.pack("<B", 2)
            + b"\xff\xfe"  # not valid UTF-8
            + struct.pack("<I", len(record))
            + record
        )
        with pytest.raises(wire.WireFormatError, match="UTF-8"):
            wire.decode_bundle(blob)

    def test_sparse_decode_size_cap(self):
        """A corrupt shape must be refused before any dense materialization."""
        import struct

        dim = (1 << 27) + 1  # 2**27+1 int64 entries > 1 GiB cap, < uint32
        blob = (
            struct.pack("<2sBB", b"RS", 1, 2)  # sparse record
            + struct.pack("<BBB", 4, 4, 1)  # orig int64, wire int64, ndim 1
            + struct.pack("<I", dim)
        )
        with pytest.raises(wire.WireFormatError, match="cap"):
            wire.decode_array(blob)

    def test_sparse_decode_size_cap_accounts_for_widening(self):
        """int8 on the wire decoding into int64 is charged at int64 width."""
        import struct

        dim = (1 << 27) + 1  # fits the cap as int8, busts it widened to int64
        blob = (
            struct.pack("<2sBB", b"RS", 1, 2)
            + struct.pack("<BBB", 4, 1, 1)  # orig int64, wire int8, ndim 1
            + struct.pack("<I", dim)
        )
        with pytest.raises(wire.WireFormatError, match="cap"):
            wire.decode_array(blob)

    def test_seeded_mutation_fuzz_only_raises_wireformaterror(self, monkeypatch):
        # A small cap keeps fuzz-survivor sparse records from allocating
        # hundreds of megabytes per trial; the guard itself is under test.
        monkeypatch.setattr(wire, "MAX_DECODE_BYTES", 1 << 20)
        rng = np.random.default_rng(20260808)
        cases = self._blobs()
        for _ in range(300):
            blob, decode = cases[int(rng.integers(len(cases)))]
            corrupt = bytearray(blob)
            for _ in range(int(rng.integers(1, 4))):
                corrupt[int(rng.integers(len(corrupt)))] = int(rng.integers(256))
            if rng.integers(4) == 0:
                corrupt = corrupt[: int(rng.integers(len(corrupt) + 1))]
            try:
                decode(bytes(corrupt))  # a lucky mutation may still decode
            except wire.WireFormatError:
                pass  # the only acceptable failure mode


class TestPropertyRoundTrips:
    @given(
        array=hnp.arrays(
            dtype=np.int64,
            shape=hnp.array_shapes(min_dims=1, max_dims=3, max_side=8),
            elements=st.integers(min_value=-(2**62), max_value=2**62),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_int64_arrays_round_trip_bit_identically(self, array):
        assert_bit_identical(roundtrip(array), array)

    @given(
        array=hnp.arrays(
            dtype=np.float64,
            shape=hnp.array_shapes(min_dims=1, max_dims=2, max_side=10),
            elements=st.floats(allow_subnormal=True),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_float64_arrays_round_trip_bit_identically(self, array):
        assert_bit_identical(roundtrip(array), array)


# ------------------------------------------------------------------ pinned
# A frozen copy of the encoder as it stood before its single-scan rewrite.
# Its dtype, kind and body decisions are the wire format every recorded
# transcript was metered in, so the live encoder must reproduce them byte
# for byte.
_FROZEN_INT_LADDER = [
    (np.dtype("<i1"), -(2**7), 2**7 - 1),
    (np.dtype("<i2"), -(2**15), 2**15 - 1),
    (np.dtype("<i4"), -(2**31), 2**31 - 1),
    (np.dtype("<i8"), -(2**63), 2**63 - 1),
]
_FROZEN_CODES = {
    np.dtype("<i1"): 1,
    np.dtype("<i2"): 2,
    np.dtype("<i4"): 3,
    np.dtype("<i8"): 4,
    np.dtype("<f4"): 5,
    np.dtype("<f8"): 6,
}


def _frozen_narrowest(low, high):
    for dtype, lo, hi in _FROZEN_INT_LADDER:
        if lo <= low and high <= hi:
            return dtype
    raise AssertionError("range exceeds int64")


def _frozen_wire_dtype(array):
    if array.size == 0:
        if np.issubdtype(array.dtype, np.integer):
            return np.dtype("<i1")
        return array.dtype.newbyteorder("<")
    if np.issubdtype(array.dtype, np.integer):
        return _frozen_narrowest(int(array.min()), int(array.max()))
    no_negative_zero = not np.any((array == 0) & np.signbit(array))
    exact = bool(
        np.all(np.isfinite(array))
        and np.all(array == np.trunc(array))
        and np.all(np.abs(array) <= 2.0**53)
    )
    if exact and no_negative_zero:
        candidate = _frozen_narrowest(int(array.min()), int(array.max()))
        if candidate.itemsize <= array.dtype.itemsize:
            return candidate
    return array.dtype.newbyteorder("<")


def frozen_encode_array(array):
    array = np.ascontiguousarray(array)
    orig_code = _FROZEN_CODES[array.dtype.newbyteorder("<")]
    wire_dtype = _frozen_wire_dtype(array)
    flat = array.reshape(-1).astype(wire_dtype, copy=False)
    dense_body = flat.tobytes()
    if np.issubdtype(wire_dtype, np.floating):
        nonzero = np.flatnonzero((flat != 0) | np.signbit(flat))
    else:
        nonzero = np.flatnonzero(flat)
    sparse_size = 4 + nonzero.size * (4 + wire_dtype.itemsize)
    if sparse_size < len(dense_body) and flat.size < 2**32:
        kind = 2
        body = (
            struct.pack("<I", nonzero.size)
            + nonzero.astype("<u4").tobytes()
            + flat[nonzero].tobytes()
        )
    else:
        kind = 1
        body = dense_body
    meta = struct.pack(
        "<BBBB", kind, orig_code, _FROZEN_CODES[wire_dtype], array.ndim
    ) + struct.pack(f"<{array.ndim}I", *array.shape)
    return struct.pack("<2sB", b"RS", 1) + meta + body


def _without_shape(record: bytes) -> bytes:
    """A record minus its ``ndim`` byte and shape field."""
    return record[:6] + record[7 + 4 * record[6] :]


_FLOAT_SPECIALS = [
    0.0, -0.0, np.nan, np.inf, -np.inf, 0.5, -2.25, 1.0, -1.0,
    2.0**53, -(2.0**53), 2.0**53 + 2, -(2.0**53 + 2), 2.0**31, -(2.0**31) - 1,
]


@st.composite
def wire_arrays(draw):
    """int8..int64 / float32 / float64 arrays of 0-3 dims, dense or mostly zero.

    Elements mix each dtype's extremes, small integers and (for floats)
    ``-0.0``, NaN, infinities, the ``2^53`` exactness edge and fractions.
    """
    dtype = np.dtype(draw(st.sampled_from(["<i1", "<i2", "<i4", "<i8", "<f4", "<f8"])))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=7))
    if dtype.kind == "i":
        info = np.iinfo(dtype)
        elements = st.one_of(
            st.integers(-3, 3),
            st.sampled_from([int(info.min), int(info.max), int(info.min) + 1, -128, 127]),
            st.integers(int(info.min), int(info.max)),
        ).filter(lambda v: info.min <= v <= info.max)
    else:
        width = 8 * dtype.itemsize
        specials = sorted(
            {float(dtype.type(v)) for v in _FLOAT_SPECIALS if not np.isnan(v)}
        ) + [np.nan, -0.0]
        elements = st.one_of(
            st.integers(-1000, 1000).map(float),
            st.sampled_from(specials),
            st.floats(width=width),
        )
    array = draw(hnp.arrays(dtype, shape, elements=elements))
    density = draw(st.sampled_from([1.0, 0.3, 0.05, 0.0]))
    if density < 1.0 and array.ndim:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        array[rng.random(array.shape) >= density] = 0
    if draw(st.booleans()):
        array = array.T  # a non-contiguous view for every ndim >= 2
    return array


class TestEncoderMatchesFrozenCopy:
    """Every record equals the frozen encoder's, byte for byte."""

    @given(array=wire_arrays())
    @settings(max_examples=400, deadline=None)
    def test_bytes_match(self, array):
        got = wire.encode_array(array)
        want = frozen_encode_array(array)
        if array.ndim:
            assert got == want
        else:
            # The frozen copy widened 0-d arrays to shape (1,); every dtype,
            # kind and body decision must still agree.
            assert _without_shape(got) == _without_shape(want)

    @pytest.mark.parametrize("size", [1 << 12, 1 << 16])
    @pytest.mark.parametrize("dtype", [np.int64, np.float64, np.float32, np.int32])
    @pytest.mark.parametrize("density", [0.0, 0.001, 0.2, 0.6, 1.0])
    def test_large_states_match(self, size, dtype, density):
        """Sparse/dense crossovers at sizes where the sparse body can win."""
        rng = np.random.default_rng(size + int(density * 1000))
        array = rng.integers(-300, 300, size=size).astype(dtype)
        array[rng.random(size) >= density] = 0
        assert wire.encode_array(array) == frozen_encode_array(array)
        if np.issubdtype(dtype, np.floating):
            halves = array / 2  # fractional entries keep the float wire dtype
            assert wire.encode_array(halves) == frozen_encode_array(halves)
            halves[:3] = -0.0
            assert wire.encode_array(halves) == frozen_encode_array(halves)
