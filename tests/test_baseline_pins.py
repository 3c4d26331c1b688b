"""Golden transcript pins for the baselines and the other two-party bodies.

For each protocol below and a fixed seed and input, the sha256 of a
canonical encoding of the whole :class:`~repro.comm.protocol.ProtocolResult`
is pinned: the value (array bytes with dtype and shape, exact float
reprs, Python vs NumPy scalar types), every :class:`CostReport` field
(total/alice/bob bits, rounds, per-label breakdown, makespan) and the
``details`` dict.  Any drift in message order or labels, bit costing,
randomness consumption or output dtype fails here byte for byte.

Regenerate the pins (only after an *intentional* transcript change) with::

    PYTHONPATH=src python tests/test_baseline_pins.py
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.baselines import (
    CompressedMatMulHeavyHittersProtocol,
    NaiveExactProtocol,
    NaiveLinfProtocol,
    OneRoundLpNormProtocol,
)
from repro.core import LpNormProtocol, MedianBoostedProtocol
from repro.distmm import SparseProductProtocol
from repro.matrices import (
    integer_matrix_pair,
    planted_heavy_hitters_pair,
    random_binary_pair,
    stats,
)


def canonical(obj) -> bytes:
    """Type-tagged, order-independent byte encoding of a protocol result."""
    if isinstance(obj, (np.ndarray, np.generic)):
        array = np.ascontiguousarray(obj)
        return b"nd:%s:%r:" % (array.dtype.str.encode(), array.shape) + array.tobytes()
    if dataclasses.is_dataclass(obj):
        fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        return type(obj).__name__.encode() + canonical(fields)
    if isinstance(obj, dict):
        items = sorted((canonical(k), canonical(v)) for k, v in obj.items())
        return b"{" + b",".join(k + b"=" + v for k, v in items) + b"}"
    if isinstance(obj, (set, frozenset)):
        return b"set(" + b",".join(sorted(canonical(x) for x in obj)) + b")"
    if isinstance(obj, (list, tuple)):
        return type(obj).__name__.encode() + b"(" + b",".join(canonical(x) for x in obj) + b")"
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return f"{type(obj).__name__}:{obj!r}".encode()
    raise TypeError(f"no canonical encoding for {type(obj).__name__}")


def result_digest(result) -> str:
    return hashlib.sha256(canonical(result)).hexdigest()


def _binary():
    return random_binary_pair(40, density=0.12, seed=2024)


def _integer():
    return integer_matrix_pair(32, density=0.15, planted_value=6, seed=2025)


def _planted():
    a, b, _ = planted_heavy_hitters_pair(
        40, num_heavy=2, heavy_overlap=20, background_density=0.03, seed=2026
    )
    return a, b


#: name -> (protocol factory, input factory)
CASES = {
    "naive-exact-l0": (
        lambda: NaiveExactProtocol(lambda c: stats.exact_lp_pp(c, 0), seed=11),
        _binary,
    ),
    "naive-linf": (lambda: NaiveLinfProtocol(seed=12), _integer),
    "one-round-p0": (lambda: OneRoundLpNormProtocol(0.0, 0.3, seed=13), _binary),
    "one-round-p1": (lambda: OneRoundLpNormProtocol(1.0, 0.3, seed=14), _integer),
    "countsketch-hh": (
        lambda: CompressedMatMulHeavyHittersProtocol(0.08, 0.04, depth=5, seed=15),
        _planted,
    ),
    "sparse-product": (lambda: SparseProductProtocol(seed=16), _integer),
    "median-boosted-lp": (
        lambda: MedianBoostedProtocol(
            lambda s: LpNormProtocol(1.0, 0.4, seed=s), repetitions=3, seed=17
        ),
        _binary,
    ),
}

#: Generated at the commit before the baselines moved onto the engine
#: driver.  Do not edit by hand.
PINS = {
    "countsketch-hh": "8289de35998f96dc00138d315675abb748eb486c07ae293c349c8131bb476352",
    "median-boosted-lp": "165d5e73690b5d107da123ad380cca1685e70dfd89be1108cc5032dc59f62b90",
    "naive-exact-l0": "975dea656024430e9270087769ac78c9715aece7004da6f8015dc5303d48b8de",
    "naive-linf": "cbed1f5fe5bf2546c027193fb76b4468281a4c52a82714e05e19d17a61d7a147",
    "one-round-p0": "7e0e80b02b1bbd085579fc385360faaf9ed3f81f585144b77770873ee91fd5dc",
    "one-round-p1": "9da02af2af2ed3d30905b6e5469f00deeb20cbfc7c8e4f9de075d1e2e6ca86a0",
    "sparse-product": "77b78277440172a97dfe8a52648a7f0fac362240d4fe33584e70064de88a46db",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_transcript_pinned(name):
    protocol_factory, inputs = CASES[name]
    a, b = inputs()
    assert result_digest(protocol_factory().run(a, b)) == PINS[name]


def test_canonical_encoding_is_type_and_order_sensitive():
    assert canonical(np.int64(1)) != canonical(1)
    assert canonical(1.0) != canonical(1)
    assert canonical(np.zeros(2, np.int64)) != canonical(np.zeros(2, np.int32))
    assert canonical({"a": 1, "b": 2}) == canonical({"b": 2, "a": 1})
    assert canonical({(0, 1), (1, 0)}) == canonical({(1, 0), (0, 1)})


if __name__ == "__main__":  # pragma: no cover - pin regeneration helper
    for case in sorted(CASES):
        factory, make_inputs = CASES[case]
        print(f'    "{case}": "{result_digest(factory().run(*make_inputs()))}",')
