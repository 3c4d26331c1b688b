"""The service layer's message schema and payload codec.

A service message is ``(type, meta, payload)``:

* ``type`` — one of :data:`MESSAGE_TYPES` (one byte on the wire);
* ``meta`` — a small JSON object of control fields (site index, label,
  declared bits, round index, ...);
* ``payload`` — opaque bytes produced by :func:`encode_payload`.

Message body layout (wrapped in a :mod:`repro.comm.framing` frame)::

    type     1 byte   (index into MESSAGE_TYPES)
    meta_len uint32   (little-endian)
    meta     meta_len bytes of UTF-8 JSON
    payload  the rest of the body

Schema
------
``hello``
    site/client -> server.  ``{"role": "site", "index": i}`` plus the
    site's wire-encoded shard, or ``{"role": "client"}``.
``assign``
    server -> site.  The site's confirmed name/offset and the cluster
    shape; completes registration.
``round``
    server -> site.  Opens aggregate round ``n`` on this link, so both
    ends attribute subsequent observed bytes to the same round.
``msg``
    A metered protocol message.  Downstream it carries the coordinator's
    payload to the site; upstream the *site* sends it (the payload bytes
    physically travel site -> server and are counted off the socket).
``relay``
    server -> site.  Control copy of an upstream payload the site must
    push back as a ``msg`` (the site is the sender of record; see
    :class:`repro.service.transport.RemoteNetwork`).
``ack``
    site -> server.  Receipt for a downstream ``msg``: byte count the site
    observed on its socket plus a digest of the payload.
``task`` / ``task_result``
    Per-site fan-out: a module-level engine task function executed on the
    site process (:class:`repro.service.transport.RemoteRuntime`).
``query`` / ``answer``
    client -> server -> client.  One estimator query (method + args) and
    its :class:`~repro.comm.protocol.ProtocolResult` plus the service
    metering report.
``error``
    Either direction: structured failure (exception type + message).
``bye``
    Orderly shutdown of a connection (or, from a client with
    ``{"shutdown": true}``, of the whole server).
``retry``
    site -> server.  A transient refusal: the site could not serve this
    request right now but the link is healthy — the coordinator backs off
    and resends (see :class:`repro.service.transport.RemoteNetwork`), up
    to its retry budget.  Keeps the FIFO discipline intact: the refusal
    *is* the reply to the refused request.

Payload codec
-------------
:func:`encode_payload` picks the narrowest faithful encoding, tagged by a
leading byte: raw bytes pass through, numpy arrays and ``{str: array}``
dicts use the byte-exact wire codec (:mod:`repro.comm.wire`), JSON-safe
scalars travel as JSON, and everything else (sketch objects, composite
dicts, arrays of a dtype the wire codec lacks, such as bool or uint64)
falls back to pickle.  ``decode_payload`` restores the original
value bit-exactly — pinned by round-trip tests over every payload type the
11 protocol families actually send.
"""

from __future__ import annotations

import json
import pickle
import pickletools
import struct
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.comm import wire

__all__ = [
    "MESSAGE_TYPES",
    "PAYLOAD_TAG_BYTES",
    "CorruptFrameError",
    "Message",
    "ServiceError",
    "SiteTimeoutError",
    "SiteUnavailableError",
    "decode_message",
    "decode_payload",
    "encode_message",
    "encode_payload",
]

#: Wire order is part of the format: a type's index is its on-wire code
#: (new types append, so existing codes never shift).
MESSAGE_TYPES = (
    "hello",
    "assign",
    "round",
    "msg",
    "relay",
    "ack",
    "task",
    "task_result",
    "query",
    "answer",
    "error",
    "bye",
    "retry",
)
_CODE_OF = {name: code for code, name in enumerate(MESSAGE_TYPES)}


class ServiceError(RuntimeError):
    """A malformed or failed service exchange."""


class SiteUnavailableError(ServiceError):
    """A site cannot serve protocol traffic (disconnected, or never will).

    The coordinator's degradation path catches this family: the query is
    re-answered over the surviving sub-cluster with the failed site
    excluded and renormalized (see ``CoordinatorServer``).
    """

    def __init__(self, message: str, *, site: str | None = None) -> None:
        super().__init__(message)
        self.site = site


class SiteTimeoutError(SiteUnavailableError):
    """A site's reply missed the coordinator's per-request deadline.

    The slow site may still answer later — its in-flight replies are
    written off, and a streaming session keeps it droppable/restorable —
    which is what distinguishes a *straggler* (timeout, degrade) from a
    *corrupt* site (digest mismatch, quarantine)."""


class CorruptFrameError(ServiceError):
    """A payload's digest did not survive the socket crossing.

    Unlike a timeout this is evidence of corruption (fault or adversary),
    so the coordinator quarantines the site instead of merely degrading:
    the link is declared dead and later queries exclude the site until it
    reconnects."""

    def __init__(self, message: str, *, site: str | None = None) -> None:
        super().__init__(message)
        self.site = site


@dataclass
class Message:
    """One service message: type, JSON meta, opaque payload bytes."""

    type: str
    meta: dict[str, Any] = field(default_factory=dict)
    payload: bytes = b""

    def __post_init__(self) -> None:
        if self.type not in _CODE_OF:
            raise ServiceError(f"unknown message type {self.type!r}")


def encode_message(message: Message) -> bytes:
    """Encode a message into a frame body."""
    meta = json.dumps(message.meta, separators=(",", ":")).encode("utf-8")
    return (
        struct.pack("<BI", _CODE_OF[message.type], len(meta))
        + meta
        + message.payload
    )


def decode_message(body: bytes) -> Message:
    """Decode a frame body back into a message."""
    if len(body) < 5:
        raise ServiceError(f"message body of {len(body)} bytes has no header")
    code, meta_len = struct.unpack_from("<BI", body, 0)
    if code >= len(MESSAGE_TYPES):
        raise ServiceError(f"unknown message type code {code}")
    if 5 + meta_len > len(body):
        raise ServiceError(
            f"truncated message: meta of {meta_len} bytes exceeds the body"
        )
    try:
        meta = json.loads(body[5 : 5 + meta_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceError(f"unparseable message meta: {exc}") from None
    if not isinstance(meta, dict):
        raise ServiceError(f"message meta must be a JSON object, got {type(meta)}")
    return Message(MESSAGE_TYPES[code], meta, bytes(body[5 + meta_len :]))


# ----------------------------------------------------------------- payloads
#: The codec tag is *envelope*, not payload: observed-byte counters and the
#: wire meter measure the codec body (``len(blob) - PAYLOAD_TAG_BYTES``), so
#: a streaming delta of n bytes meters as exactly n bytes on the wire too.
PAYLOAD_TAG_BYTES = 1

_TAG_BYTES = b"B"  # raw bytes (streaming delta bundles travel verbatim)
_TAG_ARRAY = b"A"  # one numpy array, wire codec
_TAG_BUNDLE = b"D"  # {str: array-or-None}, wire codec bundle
_TAG_JSON = b"J"  # JSON-safe scalars and containers
_TAG_PICKLE = b"P"  # anything else (sketches, composite protocol payloads)


def encode_payload(value: Any) -> bytes:
    """Encode one protocol payload as tagged bytes (see the module docs)."""
    if isinstance(value, (bytes, bytearray, memoryview)):
        return _TAG_BYTES + bytes(value)
    if isinstance(value, np.ndarray):
        try:
            return _TAG_ARRAY + wire.encode_array(value)
        except wire.WireFormatError:
            pass  # bool/unsigned dtype: the pickle fallback still round-trips
    if (
        isinstance(value, dict)
        and value
        and all(isinstance(key, str) for key in value)
        and all(item is None or isinstance(item, np.ndarray) for item in value.values())
    ):
        try:
            return _TAG_BUNDLE + wire.encode_bundle(value)
        except wire.WireFormatError:
            pass  # exotic dtype or name: the pickle fallback still round-trips
    # bools stay out of the JSON path on purpose: json cannot distinguish a
    # numpy bool from a python one, while pickle keeps the exact type.
    if value is None or (
        isinstance(value, (int, float, str))
        and not isinstance(value, (bool, np.generic))
    ):
        return _TAG_JSON + json.dumps(value).encode("utf-8")
    # Canonicalize the fallback: pickletools.optimize strips the memoization
    # PUT opcodes, so equal values encode to equal bytes and the transport's
    # payload digests are reproducible across processes.
    blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    return _TAG_PICKLE + pickletools.optimize(blob)


def decode_payload(blob: bytes) -> Any:
    """Invert :func:`encode_payload` bit-exactly."""
    if not blob:
        raise ServiceError("empty payload blob")
    tag, body = blob[:1], blob[1:]
    if tag == _TAG_BYTES:
        return body
    if tag == _TAG_ARRAY:
        return wire.decode_array(body)
    if tag == _TAG_BUNDLE:
        return wire.decode_bundle(body)
    if tag == _TAG_JSON:
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(f"unparseable JSON payload: {exc}") from None
    if tag == _TAG_PICKLE:
        try:
            return pickle.loads(body)
        except Exception as exc:
            raise ServiceError(f"unpicklable payload: {exc}") from None
    raise ServiceError(f"unknown payload tag {tag!r}")
