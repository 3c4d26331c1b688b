"""Byte-exact wire encoding for sketch state arrays.

The streaming runtime ships *serialized* sketch deltas between sites and
the coordinator, so the :class:`repro.comm.network.Network` meters the
actual number of encoded bytes on the wire instead of the formula-based
estimates in :mod:`repro.comm.bitcost` (which the one-shot protocols keep
using).  This module defines that encoding.

Design goals, in order:

1. **Bit-exact round trips** — ``decode_array(encode_array(x))`` restores
   ``x``'s shape, dtype and every byte of its contents (the property tests
   compare ``tobytes()``).
2. **Compactness without loss** — values travel in the narrowest integer
   dtype that represents them exactly (an ``int64`` state whose entries fit
   in one byte costs one byte per entry; a ``float64`` state holding only
   integers — the AMS/CountSketch states are sign-weighted sums of integer
   updates — is shipped as integers and widened back on decode).  Mostly
   zero states switch to a sparse (index, value) encoding when that is
   smaller.
3. **Self-description** — a record carries its own dtype/shape header, so a
   coordinator can decode a delta knowing only the shared sketch template.

Record layout (all integers little-endian)::

    magic   b"RS"      (2 bytes)
    version 0x01       (1 byte)
    kind    0|1|2      (1 byte: absent state / dense / sparse)
    -- absent states (a sketch before its first update) end here --
    dtype_orig (1 byte), dtype_wire (1 byte), ndim (1 byte)
    shape   ndim x uint32
    dense:  size x wire-dtype values (C order)
    sparse: nnz uint32, nnz x uint32 flat indices, nnz x wire-dtype values

Bundles (several named records in one message) prepend a count and a
length-prefixed name per record, so one upstream message can carry the
deltas of every sketch family a site maintains.
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = [
    "MAX_DECODE_BYTES",
    "WireFormatError",
    "decode_array",
    "decode_bundle",
    "encode_array",
    "encode_bundle",
    "is_exact_integer_valued",
    "payload_bits",
]

_MAGIC = b"RS"
_VERSION = 1

#: Upper bound on one record's decoded (dense) size.  Dense records are
#: already bounded by the payload they arrived in, but a *sparse* record
#: materializes ``prod(shape)`` entries from a few bytes — a corrupt shape
#: field must not make a receiver allocate gigabytes before any integrity
#: check fires (the same principle as ``framing.MAX_FRAME_BYTES``).  1 GiB
#: comfortably holds every state the repo's sketches ship.
MAX_DECODE_BYTES = 1 << 30

_KIND_ABSENT = 0
_KIND_DENSE = 1
_KIND_SPARSE = 2

#: Wire dtype registry: code <-> numpy dtype.  Codes are part of the format.
_DTYPES: dict[int, np.dtype] = {
    1: np.dtype("<i1"),
    2: np.dtype("<i2"),
    3: np.dtype("<i4"),
    4: np.dtype("<i8"),
    5: np.dtype("<f4"),
    6: np.dtype("<f8"),
}
_CODES = {dtype: code for code, dtype in _DTYPES.items()}

#: Integer wire dtypes from narrowest to widest, with their value ranges.
_INT_LADDER = [
    (np.dtype("<i1"), -(2**7), 2**7 - 1),
    (np.dtype("<i2"), -(2**15), 2**15 - 1),
    (np.dtype("<i4"), -(2**31), 2**31 - 1),
    (np.dtype("<i8"), -(2**63), 2**63 - 1),
]


class WireFormatError(ValueError):
    """A payload does not parse as a wire-format record."""


def is_exact_integer_valued(array: np.ndarray) -> bool:
    """Every value is an integer exactly representable in a float64.

    The bit-exactness invariant shared by the codec's float->int downcast
    and the streaming runtime's turnstile ingestion guard: finite, integral,
    and within +-2**53 (beyond which float64 cannot hold integers exactly).
    """
    return bool(
        np.all(np.isfinite(array))
        and np.all(array == np.trunc(array))
        and (array.size == 0 or np.all(np.abs(array) <= 2.0**53))
    )


def _dtype_code(dtype: np.dtype) -> int:
    normalized = np.dtype(dtype).newbyteorder("<")
    if normalized not in _CODES:
        raise WireFormatError(f"dtype {dtype!r} has no wire encoding")
    return _CODES[normalized]


def _narrowest_int_dtype(low: int, high: int) -> np.dtype:
    for dtype, lo, hi in _INT_LADDER:
        if lo <= low and high <= hi:
            return dtype
    raise WireFormatError(f"integer range [{low}, {high}] exceeds int64")


def _wire_dtype(dtype: np.dtype, explicit: np.ndarray, has_zero: bool) -> np.dtype:
    """The narrowest dtype that represents an array exactly on the wire.

    ``explicit`` holds every entry of the array except its positive zeros,
    and ``has_zero`` says whether it has any; both ranges and every
    exactness test below read only those entries.
    """
    integer = dtype.kind == "i"  # the only integer kind with a wire code
    if explicit.size == 0 and not has_zero:
        return np.dtype("<i1") if integer else dtype.newbyteorder("<")
    low, high = (explicit.min(), explicit.max()) if explicit.size else (0, 0)
    if has_zero:
        low, high = min(low, 0), max(high, 0)
    if integer:
        return _narrowest_int_dtype(int(low), int(high))
    # Floats: ship as integers when every value is integral (AMS and
    # CountSketch states are sign-weighted sums of integer updates, so this
    # is the common case): is_exact_integer_valued, where the range bounds
    # also reject NaN (it fails every comparison) and the infinities.  The
    # downcast also requires no negative zeros (the only explicit entries
    # equal to zero), whose sign bit an integer cannot carry.
    if (
        -(2.0**53) <= low
        and high <= 2.0**53
        and explicit.all()
        and (explicit == np.trunc(explicit)).all()
    ):
        candidate = _narrowest_int_dtype(int(low), int(high))
        # Downcast only when it actually shrinks the payload: large-valued
        # float32 states would otherwise widen to int64.
        if candidate.itemsize <= dtype.itemsize:
            return candidate
    return dtype.newbyteorder("<")


def encode_array(array: np.ndarray | None) -> bytes:
    """Encode one state array (or an absent state) as a wire record.

    One scan finds the explicit entries, the ones a sparse record must
    carry: everything except positive zeros.  The wire dtype is read off
    those entries alone, and only the body that ships is built.
    """
    header = struct.pack("<2sB", _MAGIC, _VERSION)
    if array is None:
        return header + struct.pack("<B", _KIND_ABSENT)

    array = np.asarray(array, order="C")  # unlike ascontiguousarray, keeps 0-d
    orig_code = _dtype_code(array.dtype)
    flat = array.reshape(-1)
    # A float's positive zero is its only all-zero bit pattern, so comparing
    # raw bits keeps negative zeros (and NaNs) explicit: a sparse round trip
    # must restore their bits.
    bits = flat.view(f"u{flat.itemsize}") if flat.dtype.kind == "f" else flat
    is_explicit = bits != 0
    count = int(np.count_nonzero(is_explicit))
    # A record with no positive zero always ships dense: skip the gather.
    index = None if count == flat.size else np.flatnonzero(is_explicit)
    explicit = flat if index is None else flat[index]
    wire_dtype = _wire_dtype(array.dtype, explicit, count < flat.size)

    sparse_size = 4 + count * (4 + wire_dtype.itemsize)
    if sparse_size < flat.size * wire_dtype.itemsize and flat.size < 2**32:
        kind = _KIND_SPARSE
        body = (
            struct.pack("<I", count)
            + index.astype("<u4").tobytes()
            + explicit.astype(wire_dtype).tobytes()
        )
    else:
        kind = _KIND_DENSE
        body = flat.astype(wire_dtype, copy=False).tobytes()

    meta = struct.pack(
        "<BBBB", kind, orig_code, _dtype_code(wire_dtype), array.ndim
    ) + struct.pack(f"<{array.ndim}I", *array.shape)
    return header + meta + body


def decode_array(payload: bytes) -> np.ndarray | None:
    """Decode a wire record back into the original array (or ``None``)."""
    array, offset = _decode_array_at(payload, 0)
    if offset != len(payload):
        raise WireFormatError(f"{len(payload) - offset} trailing bytes after record")
    return array


def _need(payload: bytes, offset: int, nbytes: int, what: str) -> None:
    """Every read goes through here, so truncation raises WireFormatError."""
    if offset + nbytes > len(payload):
        raise WireFormatError(
            f"truncated payload: need {nbytes} bytes for {what} at offset "
            f"{offset}, have {len(payload) - offset}"
        )


def _decode_array_at(payload: bytes, offset: int) -> tuple[np.ndarray | None, int]:
    _need(payload, offset, 4, "record header")
    magic, version = struct.unpack_from("<2sB", payload, offset)
    if magic != _MAGIC:
        raise WireFormatError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise WireFormatError(f"unsupported wire version {version}")
    offset += 3
    (kind,) = struct.unpack_from("<B", payload, offset)
    offset += 1
    if kind == _KIND_ABSENT:
        return None, offset
    if kind not in (_KIND_DENSE, _KIND_SPARSE):
        raise WireFormatError(f"unknown record kind {kind}")

    _need(payload, offset, 3, "dtype/ndim header")
    orig_code, wire_code, ndim = struct.unpack_from("<BBB", payload, offset)
    offset += 3
    if orig_code not in _DTYPES or wire_code not in _DTYPES:
        raise WireFormatError(f"unknown dtype code {orig_code}/{wire_code}")
    _need(payload, offset, 4 * ndim, "shape")
    shape = struct.unpack_from(f"<{ndim}I", payload, offset)
    offset += 4 * ndim
    wire_dtype = _DTYPES[wire_code]
    size = 1
    for dim in shape:  # python ints: a corrupt shape cannot overflow-wrap
        size *= int(dim)

    if kind == _KIND_DENSE:
        nbytes = size * wire_dtype.itemsize
        _need(payload, offset, nbytes, "dense values")
        flat = np.frombuffer(payload, dtype=wire_dtype, count=size, offset=offset)
        offset += nbytes
    else:
        if size >= 2**32:
            # The encoder only emits sparse records for sizes below 2**32
            # (uint32 flat indices); anything larger is corruption.
            raise WireFormatError(f"sparse record size {size} exceeds uint32 indexing")
        itemsize = max(wire_dtype.itemsize, _DTYPES[orig_code].itemsize)
        if size * itemsize > MAX_DECODE_BYTES:
            raise WireFormatError(
                f"sparse record would materialize {size * itemsize} dense bytes "
                f"(cap {MAX_DECODE_BYTES})"
            )
        _need(payload, offset, 4, "sparse count")
        (nnz,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        _need(payload, offset, nnz * (4 + wire_dtype.itemsize), "sparse entries")
        indices = np.frombuffer(payload, dtype="<u4", count=nnz, offset=offset)
        offset += 4 * nnz
        values = np.frombuffer(payload, dtype=wire_dtype, count=nnz, offset=offset)
        offset += nnz * wire_dtype.itemsize
        if nnz and indices.max() >= size:
            raise WireFormatError(
                f"sparse index {int(indices.max())} out of bounds for size {size}"
            )
        flat = np.zeros(size, dtype=wire_dtype)
        flat[indices] = values

    # Always copy: frombuffer views are read-only, and decoded states are
    # merged in place at the coordinator.
    array = flat.astype(_DTYPES[orig_code], copy=True).reshape(shape)
    return array, offset


def encode_bundle(records: dict[str, np.ndarray | None]) -> bytes:
    """Encode several named state arrays into one message blob.

    Iteration order is preserved (callers use a fixed family order so both
    endpoints agree on the framing without negotiation).
    """
    if len(records) > 255:
        raise WireFormatError(f"bundle holds {len(records)} records, max 255")
    parts = [struct.pack("<2sBB", _MAGIC, _VERSION, len(records))]
    for name, array in records.items():
        encoded_name = name.encode("utf-8")
        if len(encoded_name) > 255:
            raise WireFormatError(f"record name too long: {name!r}")
        record = encode_array(array)
        parts.append(struct.pack("<B", len(encoded_name)) + encoded_name)
        parts.append(struct.pack("<I", len(record)) + record)
    return b"".join(parts)


def decode_bundle(payload: bytes) -> dict[str, np.ndarray | None]:
    """Decode a bundle blob back into its named state arrays."""
    _need(payload, 0, 4, "bundle header")
    magic, version, count = struct.unpack_from("<2sBB", payload, 0)
    if magic != _MAGIC:
        raise WireFormatError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise WireFormatError(f"unsupported wire version {version}")
    offset = 4
    records: dict[str, np.ndarray | None] = {}
    for _ in range(count):
        _need(payload, offset, 1, "record name length")
        (name_len,) = struct.unpack_from("<B", payload, offset)
        offset += 1
        _need(payload, offset, name_len, "record name")
        try:
            name = payload[offset : offset + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireFormatError(f"record name is not valid UTF-8: {exc}") from None
        offset += name_len
        _need(payload, offset, 4, "record length")
        (record_len,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        array, end = _decode_array_at(payload, offset)
        if end - offset != record_len:
            raise WireFormatError(f"record {name!r} length mismatch")
        offset = end
        if name in records:
            raise WireFormatError(f"duplicate record name {name!r} in bundle")
        records[name] = array
    if offset != len(payload):
        raise WireFormatError(f"{len(payload) - offset} trailing bytes after bundle")
    return records


def payload_bits(payload: bytes) -> int:
    """Bits on the wire for an encoded payload: exactly 8 per byte."""
    return 8 * len(payload)
