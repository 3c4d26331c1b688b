"""Golden-state regression pins for the kernel-layer sketch rewrite.

For every sketch family and a fixed seed, the exact post-update state array
(and its serialized wire record) under a fixed random batched turnstile
stream is pinned as a sha256.  The pins were generated against the
*pre-kernel* dense implementation, so they prove the lazy-hashing / fused
scatter kernels are exact rewrites — any drift in hash evaluation, scatter
order handling, randomness consumption or dtype policy fails here byte for
byte, at universes 2^10 and 2^20.

Also pinned as properties (no golden needed): ``update`` == ``update_many``
== chunked ``update_many`` at both universes for every family, the hash
modes' internal consistency, and the satellite guarantee that no sketch
constructor allocates an array proportional to the universe size (checked
by actually constructing every family over a 2^30-coordinate universe).

Regenerate the pins (e.g. after an *intentional* randomness change) with::

    PYTHONPATH=src python tests/sketch/test_golden_state.py
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.sketch import (
    AmsSketch,
    CountSketch,
    L0Sampler,
    L0Sketch,
    serialize_state,
)

GOLDEN_SEED = 20260730  # fixed forever; pins below depend on it

#: sha256 of state_array().tobytes() / serialize_state() bytes, plus dtype
#: and shape, generated by the pre-kernel dense implementation at seed
#: commit 819d11a (PR 3).  Do not edit by hand.
GOLDEN_PINS = {
    ("countsketch", 2**10): {
        "state_sha256": "183920a90c5dffb79b48b91a59e648263ddb51a03db6b53ee8fe3ec5f67f94d4",
        "wire_sha256": "7103ce0f5a5d1fb0db1178fe381cc816346a4bf38fde2ecc0a14760a8e066e8c",
        "dtype": "float64",
        "shape": (5, 64),
    },
    ("countsketch", 2**20): {
        "state_sha256": "61a757777c110e7dfeb75cc1248b08d78bad71888cd78021f449fe97c5568a0b",
        "wire_sha256": "2cba4ef4da42a81d631515ae76565024c81edc14091677fdc3b1caf69786ba9f",
        "dtype": "float64",
        "shape": (5, 64),
    },
    ("countsketch-vector", 2**10): {
        "state_sha256": "c27bff4b43a9bd8c25343783e40f79181ed9ac25f0dfe34ad69eb832ab28b80a",
        "wire_sha256": "19266fc53913e4c67ff4969588acd5b7b1d288c76318ac3328806ec9ae284aaf",
        "dtype": "float64",
        "shape": (5, 32, 6),
    },
    ("ams", 2**10): {
        "state_sha256": "437ae2449a901c92d13912059a1c5e83dcf3ac9a2f548b120ec051b119ee857b",
        "wire_sha256": "7e1796137ebe20967c9bd1f3981c6042e143a904660611ac8afde24de5f7fc28",
        "dtype": "float64",
        "shape": (24,),
    },
    ("l0", 2**10): {
        "state_sha256": "9d520b0e8e4720df09336fbd9ac37ac9b6aea3e475f8cecc909e1481db72d588",
        "wire_sha256": "c76167e46f904b02b1ba42e82a61f70548f8f019a7ce28d4f22a51d5c2bb6486",
        "dtype": "int64",
        "shape": (176,),
    },
    ("sampler", 2**10): {
        "state_sha256": "17b13a885cb082a4e8e9cc024bd50b605b669868cdee55ddea5bd8d654075120",
        "wire_sha256": "664d3d10a5e758473ed61f0966b7fa850bae6a162263257de537acf3a440eb9d",
        "dtype": "int64",
        "shape": (144,),
    },
}


#: The matrix-valued ``L0Sampler`` update (one sketch column per input
#: column — the path every engine and streaming site runs), keyed by
#: ``(mode, n)`` and fed by :func:`golden_vector_stream`.  Generated by the
#: expanded-scatter update before the nested-level suffix-sum rewrite.  Do
#: not edit by hand.
MATRIX_SAMPLER_PINS = {
    ("dense", 2**10): {
        "state_sha256": "7278b63a8e7e4130ed301cd6b6b7f6f5cec32ec7b760c103ad25f00c9f633c49",
        "wire_sha256": "a3e65969dc05a17eb62b37ce2463ff5f9a6bc525d5a278938deeea1529ad4018",
        "dtype": "int64",
        "shape": (144, 6),
    },
    ("hash", 2**10): {
        "state_sha256": "8561ec9d783db974b69c807bbca1af8ab2edbfa0e53a9030fc26d922ed8d0c4f",
        "wire_sha256": "d73ec3b99233998392f998a890cbe30464ceedbcefb61565c4231d244c2d4f60",
        "dtype": "int64",
        "shape": (144, 6),
    },
    ("hash", 2**20): {
        "state_sha256": "0d543821a784b9f6dbdffde04b07db4413c9400206cac0fba3d4bf9e66820cd2",
        "wire_sha256": "5a7fe9d134ff1c1acf59bfe1792aa21bad090ed243e4891d3b8e38766dab83bb",
        "dtype": "int64",
        "shape": (264, 6),
    },
}


def golden_stream(n: int, batches: int = 3, batch_size: int = 257):
    """The fixed random batched turnstile stream the pins are taken over."""
    rng = np.random.default_rng(GOLDEN_SEED)
    for _ in range(batches):
        indices = rng.integers(0, n, size=batch_size)
        values = rng.integers(-8, 9, size=batch_size)
        yield indices.astype(np.int64), values.astype(np.int64)


def golden_vector_stream(n: int, m: int = 6, batches: int = 3, batch_size: int = 97):
    rng = np.random.default_rng(GOLDEN_SEED + 1)
    for _ in range(batches):
        indices = rng.integers(0, n, size=batch_size)
        values = rng.integers(-5, 6, size=(batch_size, m))
        yield indices.astype(np.int64), values.astype(np.int64)


def build_template(family: str, n: int, mode: str = "dense"):
    rng = np.random.default_rng(GOLDEN_SEED + 2)
    if family == "countsketch":
        return CountSketch(n, 64, 5, rng)
    if family == "countsketch-vector":
        return CountSketch(n, 32, 5, rng)
    if family == "ams":
        return AmsSketch(n, 24, rng, num_groups=3, mode=mode)
    if family == "l0":
        return L0Sketch(n, 16, rng, mode=mode)
    if family == "sampler":
        return L0Sampler(n, rng, repetitions=4, mode=mode)
    raise ValueError(family)


def run_stream(family: str, n: int, mode: str = "dense"):
    sketch = build_template(family, n, mode).empty_copy()
    stream = (
        golden_vector_stream(n) if family == "countsketch-vector" else golden_stream(n)
    )
    for indices, values in stream:
        sketch.update_many(indices, values)
    return sketch


def run_matrix_sampler(mode: str, n: int):
    sketch = build_template("sampler", n, mode).empty_copy()
    for indices, values in golden_vector_stream(n):
        sketch.update_many(indices, values)
    return sketch


def pin_of(sketch) -> dict:
    state = sketch.state_array()
    return {
        "state_sha256": hashlib.sha256(state.tobytes()).hexdigest(),
        "wire_sha256": hashlib.sha256(serialize_state(sketch)).hexdigest(),
        "dtype": str(state.dtype),
        "shape": tuple(state.shape),
    }


class TestGoldenPins:
    """The kernels reproduce the pre-kernel states byte for byte."""

    @pytest.mark.parametrize("family, n", sorted(GOLDEN_PINS, key=str))
    def test_state_and_wire_bytes_match_dense_era_pins(self, family, n):
        assert pin_of(run_stream(family, n)) == GOLDEN_PINS[(family, n)]

    @pytest.mark.parametrize("mode, n", sorted(MATRIX_SAMPLER_PINS, key=str))
    def test_matrix_sampler_state_and_wire_bytes_match_pins(self, mode, n):
        assert pin_of(run_matrix_sampler(mode, n)) == MATRIX_SAMPLER_PINS[(mode, n)]


# (family, supports update(), hash mode available)
FAMILIES = ["countsketch", "ams", "l0", "sampler"]


def singles_equivalent(template, indices, values):
    """Apply the same stream batched, one-at-a-time, and in chunks."""
    batched = template.empty_copy()
    batched.update_many(indices, values)
    sequential = template.empty_copy()
    for index, value in zip(indices, values):
        sequential.update_many(
            np.array([index], dtype=np.int64), np.array([value], dtype=values.dtype)
        )
    chunked = template.empty_copy()
    cuts = [0, len(indices) // 3, 2 * len(indices) // 3, len(indices)]
    for lo, hi in zip(cuts, cuts[1:]):
        chunked.update_many(indices[lo:hi], values[lo:hi])
    return batched, sequential, chunked


def state_bytes(sketch) -> bytes:
    state = sketch.state_array()
    return b"absent" if state is None else state.tobytes()


class TestChunkingEquivalence:
    """update == update_many == chunked update_many, at 2^10 and 2^20."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [2**10, 2**20])
    def test_batched_equals_sequential_equals_chunked(self, family, n):
        # AMS keeps an O(num_rows x n) matrix in dense mode; at 2^20 the
        # hash mode is the intended construction (that is the point of the
        # kernel layer), so equivalence is asserted there.
        mode = "hash" if (family == "ams" and n == 2**20) else "dense"
        template = build_template(family, n, mode)
        rng = np.random.default_rng(GOLDEN_SEED + 3)
        indices = rng.integers(0, n, size=301).astype(np.int64)
        values = rng.integers(-7, 8, size=301).astype(np.int64)
        batched, sequential, chunked = singles_equivalent(template, indices, values)
        assert state_bytes(batched) == state_bytes(sequential)
        assert state_bytes(batched) == state_bytes(chunked)

    @pytest.mark.parametrize("n", [2**10, 2**20])
    def test_countsketch_update_singles_match_update_many(self, n):
        template = build_template("countsketch", n)
        rng = np.random.default_rng(GOLDEN_SEED + 4)
        indices = rng.integers(0, n, size=64).astype(np.int64)
        values = rng.integers(-7, 8, size=64).astype(np.int64)
        batched = template.empty_copy()
        batched.update_many(indices, values.astype(float))
        singles = template.empty_copy()
        for index, value in zip(indices, values):
            singles.update(int(index), float(value))
        assert state_bytes(batched) == state_bytes(singles)

    @pytest.mark.parametrize("family", ["ams", "l0", "sampler"])
    def test_hash_mode_matches_its_own_dense_matrix(self, family):
        """mode='hash' updates equal the matmul with its materialized matrix."""
        n = 512
        template = build_template(family, n, mode="hash")
        rng = np.random.default_rng(GOLDEN_SEED + 5)
        indices = rng.integers(0, n, size=200).astype(np.int64)
        values = rng.integers(-5, 6, size=200).astype(np.int64)
        accumulated = template.empty_copy()
        accumulated.update_many(indices, values)
        if family == "ams":
            reference = template.dense_matrix[:, indices] @ values
            np.testing.assert_array_equal(accumulated.state, reference)
        else:
            reference = template.matrix[:, indices] @ values
            np.testing.assert_array_equal(accumulated.state, reference)


class TestUniverseIndependentConstruction:
    """Satellite: no sketch constructor allocates a universe-sized array."""

    HUGE = 2**30

    @staticmethod
    def arrays_of(obj):
        for name, value in vars(obj).items():
            if isinstance(value, np.ndarray):
                yield name, value
            elif isinstance(value, dict):
                for key, inner in value.items():
                    if isinstance(inner, np.ndarray):
                        yield f"{name}[{key}]", inner
            elif hasattr(value, "__dict__"):
                for inner_name, inner in vars(value).items():
                    if isinstance(inner, np.ndarray):
                        yield f"{name}.{inner_name}", inner

    @pytest.mark.parametrize(
        "build",
        [
            lambda rng, n: CountSketch(n, 256, 5, rng),
            lambda rng, n: AmsSketch(n, 128, rng, mode="hash"),
            lambda rng, n: L0Sketch(n, 64, rng, mode="hash"),
            lambda rng, n: L0Sampler(n, rng, repetitions=8, mode="hash"),
        ],
        ids=["countsketch", "ams-hash", "l0-hash", "sampler-hash"],
    )
    def test_huge_universe_constructs_updates_and_merges(self, build):
        sketch = build(np.random.default_rng(7), self.HUGE)
        for name, array in self.arrays_of(sketch):
            assert array.size < 10**6, (
                f"{name} holds {array.size} entries — proportional to the "
                f"universe, not the sketch"
            )
        rng = np.random.default_rng(8)
        indices = rng.integers(0, self.HUGE, size=1000).astype(np.int64)
        values = rng.integers(-4, 5, size=1000).astype(np.int64)
        part = sketch.empty_copy()
        part.update_many(indices, values)
        merged = sketch.empty_copy().merge(part)
        assert state_bytes(merged) == state_bytes(part)

    def test_countsketch_huge_universe_point_queries(self):
        sketch = CountSketch(self.HUGE, 4096, 5, np.random.default_rng(9))
        heavy = self.HUGE - 123
        sketch.update_many(np.array([heavy, 5]), np.array([10_000.0, 1.0]))
        assert sketch.query(heavy) == pytest.approx(10_000.0, abs=2.0)

    def test_l0_families_estimate_over_huge_universe(self):
        rng = np.random.default_rng(10)
        support = rng.choice(self.HUGE, size=500, replace=False).astype(np.int64)
        l0 = L0Sketch(self.HUGE, 256, np.random.default_rng(11), mode="hash")
        l0.update_many(support, np.ones(500, dtype=np.int64))
        assert l0.estimate_state_l0() == pytest.approx(500, rel=0.35)
        sampler = L0Sampler(self.HUGE, np.random.default_rng(12), mode="hash")
        sampler.update_many(support, np.ones(500, dtype=np.int64))
        outcome = sampler.sample(sampler.state)
        assert outcome.success
        assert outcome.index in set(int(i) for i in support)

    def test_dense_mode_drops_the_matrix_but_keeps_coordinate_arrays(self):
        """Dense-mode L0 families went from O(n x rows) to O(n) memory."""
        n = 2**16
        l0 = L0Sketch(n, 32, np.random.default_rng(13))
        total = sum(array.nbytes for _, array in self.arrays_of(l0))
        # Pre-kernel: a (levels * k, n) int64 matrix = 17 * 32 * n * 8 bytes.
        assert total < 4 * n * 8 + 4096


if __name__ == "__main__":  # pragma: no cover - pin regeneration helper
    print("GOLDEN_PINS = {")
    for (family, n) in sorted(GOLDEN_PINS, key=str):
        print(f"    ({family!r}, {n}): {pin_of(run_stream(family, n))!r},")
    print("}")
    print("MATRIX_SAMPLER_PINS = {")
    for mode, n in [("dense", 2**10), ("hash", 2**10), ("hash", 2**20)]:
        print(f"    ({mode!r}, {n}): {pin_of(run_matrix_sampler(mode, n))!r},")
    print("}")
