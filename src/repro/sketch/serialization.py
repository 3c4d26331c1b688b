"""Serialization and delta extraction on the mergeable-sketch contract.

Built on the byte-exact array codec in :mod:`repro.comm.wire`, these
helpers put any :class:`repro.sketch.mergeable.MergeableSketch` on the
wire without knowing its family: the only hooks used are ``state_array``
/ ``load_state_array`` (serialization) and ``empty_copy`` (templates).

The *delta* discipline of the streaming runtime lives here too: a site
accumulates updates into a pending ``empty_copy`` of the shared template;
:func:`extract_delta` serializes that pending state and resets it, so the
shipped bytes describe exactly what changed since the last upload.  Because
every sketch is linear, the coordinator can merge deserialized deltas into
its running summary in any arrival order.

Only state arrays travel; randomness never does.  That is what lets the
kernel-layer sketches stay lazy end to end: a huge-universe sketch
(``mode="hash"`` or CountSketch at any ``n``) serializes exactly like a
small one, because the wire record is ``O(width x depth)`` regardless of
the universe the hashes span.
"""

from __future__ import annotations

from typing import Mapping

from repro.comm import wire
from repro.sketch.mergeable import MergeableSketch

__all__ = [
    "deserialize_deltas",
    "deserialize_state",
    "extract_delta",
    "extract_deltas",
    "serialize_deltas",
    "serialize_state",
]


def serialize_state(sketch: MergeableSketch) -> bytes:
    """Encode a sketch's accumulated state as a wire record."""
    return wire.encode_array(sketch.state_array())


def deserialize_state(template: MergeableSketch, payload: bytes) -> MergeableSketch:
    """Decode a wire record into a fresh clone of ``template``.

    The clone shares the template's randomness (hash functions / sketch
    matrix), so it can be merged with any summary built from the same
    broadcast seed.  Round trips are bit-exact:
    ``deserialize_state(t, serialize_state(s))`` restores ``s``'s state
    byte for byte.
    """
    clone = template.empty_copy()
    clone.load_state_array(wire.decode_array(payload))
    return clone


def extract_delta(sketch: MergeableSketch) -> bytes:
    """Serialize a pending sketch's state and reset it to empty.

    The returned bytes are the site's delta since the previous extraction;
    after the call the sketch accumulates the next delta from scratch.
    """
    payload = wire.encode_array(sketch.state_array())
    sketch.load_state_array(None)
    return payload


def serialize_deltas(pending: Mapping[str, MergeableSketch]) -> bytes:
    """Bundle several named sketches' states into one message blob.

    Read-only on the sketches — the one definition of the delta-bundle
    byte layout.  :func:`extract_deltas` adds the reset;
    :class:`repro.engine.streaming.StreamingSession` calls this half, then
    merges the same pending states, and resets them only after both.
    """
    return wire.encode_bundle(
        {name: sketch.state_array() for name, sketch in pending.items()}
    )


def extract_deltas(pending: Mapping[str, MergeableSketch]) -> bytes:
    """Bundle the deltas of several named sketches and reset them to empty."""
    payload = serialize_deltas(pending)
    for sketch in pending.values():
        sketch.load_state_array(None)
    return payload


def deserialize_deltas(
    templates: Mapping[str, MergeableSketch], payload: bytes
) -> dict[str, MergeableSketch]:
    """Decode a delta bundle into fresh clones of the shared templates."""
    records = wire.decode_bundle(payload)
    unknown = set(records) - set(templates)
    if unknown:
        raise wire.WireFormatError(f"bundle holds unknown sketch families {sorted(unknown)}")
    decoded = {}
    for name, state in records.items():
        clone = templates[name].empty_copy()
        clone.load_state_array(state)
        decoded[name] = clone
    return decoded
