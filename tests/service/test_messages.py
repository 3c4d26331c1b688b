"""Message schema and payload codec: bit-exact round trips, loud failures.

The payload codec must restore every payload type the protocol families
actually put on the network — arrays, scalars, bundles, sketch objects,
sets, raw delta bytes — *bit-exactly*, because the transport digests the
encoded bytes and the coordinator asserts bit-identical estimates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.service.messages import (
    MESSAGE_TYPES,
    PAYLOAD_TAG_BYTES,
    Message,
    ServiceError,
    decode_message,
    decode_payload,
    encode_message,
    encode_payload,
)


class TestMessageCodec:
    @pytest.mark.parametrize("mtype", MESSAGE_TYPES)
    def test_every_type_round_trips(self, mtype):
        message = Message(mtype, {"x": 1, "label": "lp"}, b"\x00payload")
        decoded = decode_message(encode_message(message))
        assert decoded.type == mtype
        assert decoded.meta == message.meta
        assert decoded.payload == message.payload

    def test_empty_meta_and_payload(self):
        decoded = decode_message(encode_message(Message("ack")))
        assert (decoded.type, decoded.meta, decoded.payload) == ("ack", {}, b"")

    def test_unknown_type_rejected_at_construction(self):
        with pytest.raises(ServiceError, match="unknown message type"):
            Message("nonsense")

    def test_unknown_code_rejected_at_decode(self):
        body = bytes([250]) + (0).to_bytes(4, "little")
        with pytest.raises(ServiceError, match="unknown message type code"):
            decode_message(body)

    def test_truncated_header_rejected(self):
        with pytest.raises(ServiceError, match="no header"):
            decode_message(b"\x00")

    def test_meta_overrunning_body_rejected(self):
        body = bytes([0]) + (100).to_bytes(4, "little") + b"{}"
        with pytest.raises(ServiceError, match="truncated"):
            decode_message(body)

    def test_non_object_meta_rejected(self):
        meta = b"[1,2]"
        body = bytes([0]) + len(meta).to_bytes(4, "little") + meta
        with pytest.raises(ServiceError, match="JSON object"):
            decode_message(body)

    def test_unparseable_meta_rejected(self):
        meta = b"\xff\xfe"
        body = bytes([0]) + len(meta).to_bytes(4, "little") + meta
        with pytest.raises(ServiceError, match="unparseable"):
            decode_message(body)


#: One representative of every payload shape the 11 families + streaming
#: runtime put on a network (see the send/broadcast inventory in
#: repro.engine.*): arrays, scalars, array bundles, composite dicts, sets,
#: tuples, and raw (already wire-encoded) delta bytes.
PAYLOAD_CASES = [
    np.arange(12, dtype=np.int64).reshape(3, 4),
    np.random.default_rng(0).uniform(size=(4, 5)),
    np.array([], dtype=np.float64),
    None,
    3,
    -1.5,
    float("nan"),
    "site-3",
    True,
    np.float64(2.5),
    np.int64(7),
    {"rows": np.arange(3), "weights": np.ones(3)},
    {"A": np.eye(2), "A_prime": None},
    {"ship_items": [(0, 1), (2, 3)], "b_rows": np.arange(4)},
    {"l0_sketch": {"state": np.zeros(8)}, "sampler": [1, 2, 3]},
    {1, 4, 9},
    (0, 2),
    b"\x00raw-delta-bytes\xff",
    bytearray(b"mutable"),
    np.array(5),
    np.array(-0.0),
]


def _assert_equal(result, value):
    if isinstance(value, np.ndarray):
        assert isinstance(result, np.ndarray)
        assert result.dtype == value.dtype
        assert result.shape == value.shape
        np.testing.assert_array_equal(result, value)
    elif isinstance(value, dict):
        assert isinstance(result, dict)
        assert list(result) == list(value)
        for key in value:
            _assert_equal(result[key], value[key])
    elif isinstance(value, (list, tuple)):
        assert type(result) is type(value)
        assert len(result) == len(value)
        for got, expected in zip(result, value):
            _assert_equal(got, expected)
    elif isinstance(value, float) and value != value:  # NaN
        assert result != result
    elif isinstance(value, (bytes, bytearray)):
        assert result == bytes(value)
    else:
        assert result == value


class TestPayloadCodec:
    @pytest.mark.parametrize("value", PAYLOAD_CASES, ids=[str(i) for i in range(len(PAYLOAD_CASES))])
    def test_round_trips_bit_exactly(self, value):
        _assert_equal(decode_payload(encode_payload(value)), value)

    def test_numpy_scalars_keep_their_type(self):
        """np.float64 is an isinstance of float; it must not decay to one."""
        assert type(decode_payload(encode_payload(np.float64(1.5)))) is np.float64
        assert type(decode_payload(encode_payload(np.int64(3)))) is np.int64

    @pytest.mark.parametrize(
        "value",
        [np.array([True, False]), np.array([1, 2**64 - 1], dtype=np.uint64)],
        ids=["bool", "uint64"],
    )
    def test_arrays_without_a_wire_dtype_round_trip(self, value):
        back = decode_payload(encode_payload(value))
        assert back.dtype == value.dtype and back.shape == value.shape
        assert back.tobytes() == value.tobytes()

    def test_bools_keep_their_type(self):
        assert decode_payload(encode_payload(True)) is True

    def test_encoding_is_canonical(self):
        """Equal values encode to equal bytes (digests must be reproducible)."""
        value = {"l0_sketch": {"state": np.arange(5)}, "items": [(1, 2), (3, 4)]}
        assert encode_payload(value) == encode_payload(
            {"l0_sketch": {"state": np.arange(5)}, "items": [(1, 2), (3, 4)]}
        )

    def test_raw_bytes_cost_exactly_their_length(self):
        """Streaming deltas are metered at 8 bits/byte: the codec adds only
        the envelope tag, which the meters exclude."""
        delta = b"\x01" * 137
        assert len(encode_payload(delta)) == len(delta) + PAYLOAD_TAG_BYTES

    def test_empty_blob_rejected(self):
        with pytest.raises(ServiceError, match="empty payload"):
            decode_payload(b"")

    def test_unknown_tag_rejected(self):
        with pytest.raises(ServiceError, match="unknown payload tag"):
            decode_payload(b"Zdata")

    def test_corrupt_pickle_rejected(self):
        with pytest.raises(ServiceError, match="unpicklable"):
            decode_payload(b"P\x00\x01garbage")

    def test_corrupt_json_rejected(self):
        with pytest.raises(ServiceError, match="unparseable"):
            decode_payload(b"J{not json")

    def test_site_rng_round_trips_through_task_payloads(self):
        """map_sites ships each site's generator out and back; the stream
        must resume exactly where it left off."""
        rng = np.random.default_rng(42)
        rng.integers(0, 100, size=5)  # advance the state
        clone = decode_payload(encode_payload((rng,)))[0]
        assert clone.integers(0, 2**31 - 1) == rng.integers(0, 2**31 - 1)
