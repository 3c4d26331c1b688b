"""k-wise independent hash families over a prime field.

The sketches in this package need pairwise (and occasionally 4-wise)
independent hash functions ``h : [n] -> [m]`` and sign functions
``s : [n] -> {-1, +1}``.  We use the classic polynomial construction over a
Mersenne prime: a random degree-``k-1`` polynomial evaluated at the key, all
arithmetic modulo ``2^61 - 1``.
"""

from __future__ import annotations

import numpy as np

#: Mersenne prime 2^61 - 1, large enough for 32-bit keys with headroom.
PRIME_61 = (1 << 61) - 1

_P61 = np.uint64(PRIME_61)
_MASK32 = np.uint64(0xFFFFFFFF)


def _mulmod_p61(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized ``(a * b) mod (2^61 - 1)`` for ``a, b < 2^61 - 1`` (uint64).

    A 61-bit product does not fit in 64 bits, so split both factors at bit
    32 and reduce the partial products with the Mersenne identities
    ``2^64 ≡ 2^3`` and ``2^61 ≡ 1 (mod p)``; every intermediate stays below
    ``2^63``, so plain uint64 arithmetic is exact.
    """
    a_hi = a >> np.uint64(32)
    a_lo = a & _MASK32
    b_hi = b >> np.uint64(32)
    b_lo = b & _MASK32
    hi = a_hi * b_hi  # < 2^58
    mid = a_hi * b_lo + a_lo * b_hi  # < 2^62
    lo = a_lo * b_lo  # < 2^64
    # a*b = hi·2^64 + mid·2^32 + lo; split mid at bit 29 so that
    # mid·2^32 = (mid >> 29)·2^61 + (mid & (2^29-1))·2^32 ≡ (mid >> 29)
    #            + (mid & (2^29-1))·2^32.
    total = (
        (hi << np.uint64(3))
        + (mid >> np.uint64(29))
        + ((mid & np.uint64((1 << 29) - 1)) << np.uint64(32))
        + (lo >> np.uint64(61))
        + (lo & _P61)
    )  # < 3·2^61 < 2^63
    total = (total >> np.uint64(61)) + (total & _P61)
    return _reduce_once(total)


def _mulmod_p61_small_b(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`_mulmod_p61` specialized to ``b < 2^32`` (bit-identical).

    With ``b_hi = 0`` the ``hi`` and ``a_lo * b_hi`` partial products vanish,
    which saves two wide multiplies per element — the common case for hash
    keys, which are universe indices well below ``2^32``.
    """
    a_hi = a >> np.uint64(32)
    a_lo = a & _MASK32
    mid = a_hi * b  # < 2^61
    lo = a_lo * b  # < 2^64
    # The sum below is the one in _mulmod_p61 minus the vanished terms,
    # evaluated in place to save temporaries.
    total = mid >> np.uint64(29)
    mid &= np.uint64((1 << 29) - 1)
    mid <<= np.uint64(32)
    total += mid
    total += lo >> np.uint64(61)
    lo &= _P61
    total += lo
    carry = total >> np.uint64(61)
    total &= _P61
    total += carry
    return _reduce_once(total)


def _reduce_once(acc: np.ndarray) -> np.ndarray:
    """``acc mod p`` in place, for uint64 ``acc < 2p``.

    ``np.minimum(acc, acc - p)`` equals ``np.where(acc >= p, acc - p, acc)``:
    when ``acc < p`` the subtraction wraps to above ``2^63 > acc``.
    """
    return np.minimum(acc, acc - _P61, out=acc)


class KWiseHash:
    """A k-wise independent hash function family member.

    Parameters
    ----------
    k:
        Independence (degree of the random polynomial).  ``k = 2`` gives
        pairwise independence, ``k = 4`` gives the 4-wise independence needed
        by the AMS sketch's variance analysis.
    rng:
        Source of randomness for the coefficients.
    """

    def __init__(self, k: int, rng: np.random.Generator) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        # Leading coefficient non-zero so the polynomial has exact degree k-1.
        coeffs = rng.integers(0, PRIME_61, size=k, dtype=np.uint64)
        if k > 1 and coeffs[0] == 0:
            coeffs[0] = 1
        self._coeffs = [int(c) for c in coeffs]

    def values(self, keys: np.ndarray) -> np.ndarray:
        """Evaluate the hash polynomial on an array of integer keys.

        Returns values in ``[0, PRIME_61)`` as a uint64 array.  Evaluation is
        Horner's rule, vectorized over the keys with exact Mersenne-prime
        modular arithmetic (:func:`_mulmod_p61`) — one fused multiply-add per
        coefficient instead of a Python loop per key, with bit-identical
        results.
        """
        keys = np.asarray(keys, dtype=np.int64)
        keys_mod = (keys % np.int64(PRIME_61)).astype(np.uint64)
        small = keys_mod.size == 0 or int(keys_mod.max()) < (1 << 32)
        mulmod = _mulmod_p61_small_b if small else _mulmod_p61
        acc = np.zeros(keys.shape, dtype=np.uint64)
        for coeff in self._coeffs:
            acc = mulmod(acc, keys_mod) + np.uint64(coeff)  # < 2^62
            acc = np.where(acc >= _P61, acc - _P61, acc)
        return acc

    def buckets(self, keys: np.ndarray, n_buckets: int) -> np.ndarray:
        """Map keys to buckets ``[0, n_buckets)``."""
        if n_buckets < 1:
            raise ValueError(f"n_buckets must be >= 1, got {n_buckets}")
        return (self.values(keys) % np.uint64(n_buckets)).astype(np.int64)

    def signs(self, keys: np.ndarray) -> np.ndarray:
        """Map keys to ``{-1, +1}`` signs."""
        parity = (self.values(keys) & np.uint64(1)).astype(np.int64)
        return 2 * parity - 1
