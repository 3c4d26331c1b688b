"""Compiled kernel backends are exact rewrites of the NumPy kernels.

:mod:`repro.sketch._native` offers optional GIL-releasing fast paths
(cffi-compiled C) for the hot kernels; the NumPy implementation is
the reference and the default.  Every backend available in the current
environment is driven through the *public* kernel entry points and its
output compared byte for byte against the NumPy path — including the
regimes that historically broke exactness rewrites: huge keys (``>= 2^32``,
where the split-multiply matters), empty batches, int64 wraparound
accumulation, and the batch-order float association of the scatters.

End to end, every sketch family is streamed under each backend and its
state bytes compared against the NumPy-path state, which
``test_golden_state.py`` pins to the pre-kernel dense era — so a passing
run here extends the golden pins to the compiled backends without
duplicating the hashes.

Backends that cannot initialize here (no cffi, no C compiler) are
skipped, not failed; CI matrixes them in.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.sketch import _native
from repro.sketch.kernels import (
    StackedKWiseHash,
    bincount_rows,
    scatter_add_scalar,
    scatter_add_vector,
)
from tests.sketch.test_golden_state import GOLDEN_PINS, run_stream, state_bytes

SEED = 778899

COMPILED = [name for name in _native.BACKENDS if name != "numpy"]
available = [name for name in COMPILED if _native._probe(name) is not None]


def _skip_reason(name: str) -> str:
    error = _native._probe_errors.get(name)
    return f"backend {name!r} unavailable here: {error!r}"


backends = pytest.mark.parametrize(
    "backend",
    [
        pytest.param(
            name,
            marks=()
            if name in available
            else pytest.mark.skip(reason=_skip_reason(name)),
        )
        for name in COMPILED
    ],
)


def rng():
    return np.random.default_rng(SEED)


KEY_BATCHES = [
    np.array([], dtype=np.int64),
    np.arange(257, dtype=np.int64),
    # Keys at and beyond 2^32: the full split-multiply regime.
    np.array([2**32 - 1, 2**32, 2**61 - 2, 2**62, 2**63 - 1], dtype=np.int64),
    rng().integers(0, 2**63 - 1, size=501, dtype=np.int64),
]


class TestHashKernels:
    @backends
    @pytest.mark.parametrize("batch", range(len(KEY_BATCHES)))
    def test_values_match_numpy(self, backend, batch):
        hashes = StackedKWiseHash(6, 5, rng())
        keys = KEY_BATCHES[batch]
        with _native.use_backend("numpy"):
            want = hashes.values(keys)
        with _native.use_backend(backend):
            got = hashes.values(keys)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @backends
    def test_values_grid_matches_numpy(self, backend):
        hashes = StackedKWiseHash(4, 3, rng())
        keys = rng().integers(0, 2**63 - 1, size=(3, 17, 5), dtype=np.int64)
        with _native.use_backend("numpy"):
            want = hashes.values_grid(keys)
        with _native.use_backend(backend):
            got = hashes.values_grid(keys)
        assert got.tobytes() == want.tobytes()


class TestScatterKernels:
    @backends
    @pytest.mark.parametrize("signed", [True, False])
    def test_scalar_scatter_matches_numpy(self, backend, signed):
        r = rng()
        depth, width, batch = 5, 37, 401
        buckets = r.integers(0, width, size=(depth, batch))
        signs = (2 * r.integers(0, 2, size=(depth, batch)) - 1) if signed else None
        deltas = r.normal(size=batch)  # float association must match exactly
        start = r.normal(size=(depth, width))
        want, got = start.copy(), start.copy()
        with _native.use_backend("numpy"):
            scatter_add_scalar(want, buckets, signs, deltas)
        with _native.use_backend(backend):
            scatter_add_scalar(got, buckets, signs, deltas)
        assert got.tobytes() == want.tobytes()

    @backends
    def test_vector_scatter_matches_numpy(self, backend):
        r = rng()
        depth, width, batch, m = 4, 19, 211, 6
        buckets = r.integers(0, width, size=(depth, batch))
        signs = 2 * r.integers(0, 2, size=(depth, batch)) - 1
        deltas = r.normal(size=(batch, m))
        start = r.normal(size=(depth, width, m))
        want, got = start.copy(), start.copy()
        with _native.use_backend("numpy"):
            scatter_add_vector(want, buckets, signs, deltas)
        with _native.use_backend(backend):
            scatter_add_vector(got, buckets, signs, deltas)
        assert got.tobytes() == want.tobytes()

    @backends
    @pytest.mark.parametrize("ndim", [1, 2])
    def test_float_bincount_matches_numpy(self, backend, ndim):
        r = rng()
        size = (307,) if ndim == 1 else (307, 5)
        rows = r.integers(0, 23, size=307)
        weights = r.normal(size=size)
        with _native.use_backend("numpy"):
            want = bincount_rows(rows, weights, 23, exact_int=False)
        with _native.use_backend(backend):
            got = bincount_rows(rows, weights, 23, exact_int=False)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @backends
    @pytest.mark.parametrize("ndim", [1, 2])
    def test_exact_int_bincount_matches_numpy_incl_wraparound(self, backend, ndim):
        r = rng()
        size = (64,) if ndim == 1 else (64, 3)
        rows = r.integers(0, 7, size=64)
        # Values near the int64 extremes: accumulation must wrap exactly
        # like NumPy's in-place indexed add, not saturate or trap.
        weights = r.integers(
            -(2**62), 2**62, size=size, dtype=np.int64
        ) * np.int64(3)
        with _native.use_backend("numpy"):
            want = bincount_rows(rows, weights, 7, exact_int=True)
        with _native.use_backend(backend):
            got = bincount_rows(rows, weights, 7, exact_int=True)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestEndToEndGoldenStates:
    @backends
    @pytest.mark.parametrize("family, n", sorted(GOLDEN_PINS, key=str))
    def test_streamed_states_match_the_numpy_path(self, backend, family, n):
        with _native.use_backend("numpy"):
            want = state_bytes(run_stream(family, n))
        with _native.use_backend(backend):
            got = state_bytes(run_stream(family, n))
        assert got == want  # NumPy path is pinned to the dense era


class TestBackendSelection:
    def test_default_follows_the_environment(self):
        # numpy unless REPRO_KERNELS picked a backend at import (CI matrixes
        # this); an unavailable request falls back to numpy with a warning.
        want = os.environ.get("REPRO_KERNELS", "numpy")
        if want == "auto":
            assert _native.current_backend() in _native.BACKENDS
        else:
            assert _native.current_backend() in (want, "numpy")
        if _native.current_backend() == "numpy":
            assert _native.active() is None

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            _native.set_backend("fortran")

    def test_auto_always_resolves(self):
        before = _native.current_backend()
        with _native.use_backend("auto"):
            assert _native.current_backend() in _native.BACKENDS
        assert _native.current_backend() == before  # context restores

    def test_auto_prefers_cffi_else_numpy(self, monkeypatch):
        with _native.use_backend("auto") as resolved:
            assert resolved == ("cffi" if "cffi" in available else "numpy")
        before = _native.current_backend()
        monkeypatch.setitem(_native._probe_cache, "cffi", None)
        try:
            assert _native.set_backend("auto") == "numpy"
        finally:
            monkeypatch.undo()
            _native.set_backend(before)

    def test_explicitly_requesting_an_unavailable_backend_raises(self, monkeypatch):
        monkeypatch.setitem(_native._probe_cache, "cffi", None)
        before = _native.current_backend()
        with pytest.raises(RuntimeError):
            _native.set_backend("cffi")
        assert _native.current_backend() == before
