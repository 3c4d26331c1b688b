"""Bit-cost accounting for protocol payloads.

Every message sent over a :class:`repro.comm.network.Network` is charged a
number of bits.  All charging rules live in this module so that the
assumptions behind every communication measurement in the benchmarks are
explicit and unit-tested.

Conventions (matching the standard conventions in the communication
complexity literature and the paper's ``O~`` accounting):

* An integer known to lie in ``[0, universe)`` costs ``ceil(log2(universe))``
  bits (at least 1).
* An unbounded integer ``v`` costs ``max(1, v.bit_length()) + 1`` bits
  (one sign bit).
* A float (real number communicated with machine precision) costs
  ``FLOAT_BITS`` = 64 bits.  The paper assumes ``O~(1)``-bit entries for
  sketching matrices; we charge full doubles, which only affects constants.
* A list of indices from ``[0, universe)`` costs
  ``len * ceil(log2(universe))`` bits.
* Dense vectors/matrices cost ``size * per_entry`` bits.

Shared randomness (sketch seeds) is *not* charged: the protocols are
public-coin, and by Newman's theorem the difference to the private-coin model
is an additive ``O(log n)`` bits.
"""

from __future__ import annotations

import math
from typing import Iterable, Sized

import numpy as np

#: Bits charged for one real number sent with machine precision.
FLOAT_BITS = 64

#: Bits charged for one entry of an integer matrix/vector whose magnitude is
#: only polynomially bounded (the paper's ``poly(n)``-bounded entries).
INT_ENTRY_BITS = 32


def bits_for_index(universe: int) -> int:
    """Bits needed to name one element of ``[0, universe)``.

    Parameters
    ----------
    universe:
        Size of the universe the index is drawn from.  Must be >= 1.
    """
    if universe < 1:
        raise ValueError(f"universe must be >= 1, got {universe}")
    return max(1, math.ceil(math.log2(universe))) if universe > 1 else 1


def bits_for_int(value: int) -> int:
    """Bits for an arbitrary (signed) integer value."""
    magnitude = abs(int(value))
    return max(1, magnitude.bit_length()) + 1


def bits_for_float(value: float = 0.0) -> int:
    """Bits for one real number (machine precision double)."""
    del value  # cost is independent of the value
    return FLOAT_BITS


def bits_for_index_list(indices: Sized, universe: int) -> int:
    """Bits for a list of indices from ``[0, universe)`` plus its length."""
    return bits_for_int(len(indices)) + len(indices) * bits_for_index(universe)


#: ``2**0 .. 2**62``: a length ``n`` has as many bits as there are powers <= n.
_POWERS_OF_TWO = 2 ** np.arange(63, dtype=np.int64)


def bits_for_index_lists(lengths: np.ndarray, universe: int) -> int:
    """Total :func:`bits_for_index_list` of lists with these lengths."""
    lengths = np.asarray(lengths, dtype=np.int64)
    bit_lengths = np.searchsorted(_POWERS_OF_TWO, lengths, side="right")
    length_bits = int((np.maximum(bit_lengths, 1) + 1).sum())  # bits_for_int
    return length_bits + int(lengths.sum()) * bits_for_index(universe)


def bits_for_vector(vector: np.ndarray, *, per_entry: int | None = None) -> int:
    """Bits for a dense vector.

    Integer dtypes are charged :data:`INT_ENTRY_BITS` per entry and float
    dtypes :data:`FLOAT_BITS` per entry unless ``per_entry`` overrides this.
    """
    array = np.asarray(vector)
    if per_entry is None:
        per_entry = FLOAT_BITS if np.issubdtype(array.dtype, np.floating) else INT_ENTRY_BITS
    return int(array.size) * per_entry


def bits_for_matrix(matrix: np.ndarray, *, per_entry: int | None = None) -> int:
    """Bits for a dense matrix (same rule as :func:`bits_for_vector`)."""
    return bits_for_vector(np.asarray(matrix).reshape(-1), per_entry=per_entry)


def bits_for_sparse_rows(
    row_indices: Iterable[int], n_cols: int, n_rows: int
) -> int:
    """Bits for sending a subset of rows of a binary ``n_rows x n_cols`` matrix.

    Each row is sent as a dense bit-vector of length ``n_cols`` (the paper's
    Algorithm 1 sends whole rows of the binary/integer matrix ``A``), plus the
    row identifier.
    """
    rows = list(row_indices)
    return len(rows) * (n_cols + bits_for_index(max(n_rows, 1)))


def bits_for_payload(payload: object, *, universe: int | None = None) -> int:
    """Best-effort bit cost for an arbitrary payload.

    Used by the channel when the sender does not provide an explicit cost.
    Supported payload types: ``int``, ``float``, ``numpy.ndarray``, ``list`` /
    ``tuple`` / ``set`` of ints (requires ``universe``), ``dict`` (sum over
    values, keys charged as indices of ``universe``), ``None`` (free).
    """
    if payload is None:
        return 0
    if isinstance(payload, (bool, np.bool_)):
        return 1
    if isinstance(payload, (int, np.integer)):
        return bits_for_int(int(payload))
    if isinstance(payload, (float, np.floating)):
        return bits_for_float(float(payload))
    if isinstance(payload, np.ndarray):
        return bits_for_vector(payload.reshape(-1))
    if isinstance(payload, (list, tuple, set, frozenset)):
        items = list(payload)
        if all(isinstance(item, (int, np.integer)) for item in items):
            if universe is not None:
                return bits_for_index_list(items, universe)
            return sum(bits_for_int(int(item)) for item in items) + bits_for_int(len(items))
        return sum(bits_for_payload(item, universe=universe) for item in items)
    if isinstance(payload, dict):
        total = bits_for_int(len(payload))
        for key, value in payload.items():
            total += bits_for_payload(key, universe=universe)
            total += bits_for_payload(value, universe=universe)
        return total
    raise TypeError(f"cannot compute a bit cost for payload of type {type(payload)!r}")
