"""Optional compiled fast path for the sketch kernels (GIL-releasing).

The pure-NumPy kernels in :mod:`repro.sketch.kernels` hold the GIL for the
whole scatter/Horner pass, so the ``threads`` executor serializes exactly
where the work is.  This module provides a compiled ``cffi`` backend for
the same five primitives — the Mersenne-61 Horner loops (stacked and grid
form), the fused scalar/vector scatter-adds, and the row-bincount linear
map: a small C shim compiled once per source revision with the system C
compiler into a per-user cache directory and loaded in ABI mode.  cffi
releases the GIL around every foreign call, and the C modular multiply
uses ``__uint128_t`` — the mathematically exact ``(a * b) mod (2^61 - 1)``,
hence bit-identical to the NumPy split-multiply reduction.

The backend preserves the accumulation *order* of the NumPy kernels —
scatters accumulate into a zeroed per-row temporary in batch order and are
then added elementwise into the table, exactly like
``table[row] += np.bincount(...)`` — so float results are bit-identical,
not merely close.  The golden-state sha256 pins in
``tests/sketch/test_golden_state.py`` are asserted under every available
backend to prove it.

Selection
---------
The default is ``numpy`` (no compiled code runs unless asked).  Set the
``REPRO_KERNELS`` environment variable to ``auto`` (cffi if available,
else numpy), ``cffi``, or ``numpy``; or call :func:`set_backend` /
:func:`use_backend` programmatically.  An explicit env request for an
unavailable backend falls back to NumPy with a warning (so a stray
variable cannot break imports); :func:`set_backend` raises instead, which
is what the tests and CI use to guarantee the compiled path actually ran.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from contextlib import contextmanager
from typing import Iterator

import numpy as np

__all__ = [
    "active",
    "available_backends",
    "current_backend",
    "probe_errors",
    "set_backend",
    "use_backend",
]

#: Recognized backend names, in ``auto`` preference order (numpy last).
BACKENDS = ("cffi", "numpy")

_C_DECLS = """
void repro_horner(const uint64_t *coeffs, const uint64_t *keys,
                  uint64_t *out, int64_t depth, int64_t batch, int64_t k);
void repro_horner_grid(const uint64_t *coeffs, const uint64_t *keys,
                       uint64_t *out, int64_t depth, int64_t per, int64_t k);
void repro_scatter_add_scalar(double *table, const int64_t *buckets,
                              const double *signs, const double *deltas,
                              int64_t depth, int64_t width, int64_t batch,
                              double *tmp);
void repro_scatter_add_vector(double *table, const int64_t *buckets,
                              const double *signs, const double *deltas,
                              int64_t depth, int64_t width, int64_t m,
                              int64_t batch, double *tmp);
void repro_bincount_f64(const int64_t *rows, const double *weights,
                        double *out, int64_t batch, int64_t m);
void repro_bincount_i64(const int64_t *rows, const int64_t *weights,
                        int64_t *out, int64_t batch, int64_t m);
"""

# The scatter kernels accumulate into a zeroed temporary in batch order and
# then add elementwise into the table — the same two-step float association
# as `table[row] += np.bincount(...)`, which is what keeps them bit-exact.
# Integer adds go through uint64 casts: signed overflow is UB in C, while
# NumPy's int64 accumulation wraps; the cast reproduces the wrap exactly.
_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

#define P61 2305843009213693951ULL

static inline uint64_t mulmod61(uint64_t a, uint64_t b) {
    unsigned __int128 p = (unsigned __int128)a * (unsigned __int128)b;
    uint64_t r = ((uint64_t)p & P61) + (uint64_t)(p >> 61);
    r = (r & P61) + (r >> 61);
    if (r >= P61) r -= P61;
    return r;
}

void repro_horner(const uint64_t *coeffs, const uint64_t *keys,
                  uint64_t *out, int64_t depth, int64_t batch, int64_t k) {
    for (int64_t d = 0; d < depth; ++d) {
        const uint64_t *c = coeffs + d * k;
        uint64_t *row = out + d * batch;
        for (int64_t t = 0; t < batch; ++t) {
            uint64_t key = keys[t];
            uint64_t acc = 0;
            for (int64_t j = 0; j < k; ++j) {
                acc = mulmod61(acc, key) + c[j];
                if (acc >= P61) acc -= P61;
            }
            row[t] = acc;
        }
    }
}

void repro_horner_grid(const uint64_t *coeffs, const uint64_t *keys,
                       uint64_t *out, int64_t depth, int64_t per, int64_t k) {
    for (int64_t d = 0; d < depth; ++d) {
        const uint64_t *c = coeffs + d * k;
        const uint64_t *kd = keys + d * per;
        uint64_t *row = out + d * per;
        for (int64_t t = 0; t < per; ++t) {
            uint64_t key = kd[t];
            uint64_t acc = 0;
            for (int64_t j = 0; j < k; ++j) {
                acc = mulmod61(acc, key) + c[j];
                if (acc >= P61) acc -= P61;
            }
            row[t] = acc;
        }
    }
}

void repro_scatter_add_scalar(double *table, const int64_t *buckets,
                              const double *signs, const double *deltas,
                              int64_t depth, int64_t width, int64_t batch,
                              double *tmp) {
    for (int64_t r = 0; r < depth; ++r) {
        const int64_t *b = buckets + r * batch;
        memset(tmp, 0, (size_t)width * sizeof(double));
        if (signs != NULL) {
            const double *s = signs + r * batch;
            for (int64_t t = 0; t < batch; ++t)
                tmp[b[t]] += s[t] * deltas[t];
        } else {
            for (int64_t t = 0; t < batch; ++t)
                tmp[b[t]] += deltas[t];
        }
        double *row = table + r * width;
        for (int64_t i = 0; i < width; ++i)
            row[i] += tmp[i];
    }
}

void repro_scatter_add_vector(double *table, const int64_t *buckets,
                              const double *signs, const double *deltas,
                              int64_t depth, int64_t width, int64_t m,
                              int64_t batch, double *tmp) {
    for (int64_t r = 0; r < depth; ++r) {
        const int64_t *b = buckets + r * batch;
        const double *s = signs + r * batch;
        double *base = table + r * width * m;
        for (int64_t col = 0; col < m; ++col) {
            memset(tmp, 0, (size_t)width * sizeof(double));
            for (int64_t t = 0; t < batch; ++t)
                tmp[b[t]] += s[t] * deltas[t * m + col];
            for (int64_t i = 0; i < width; ++i)
                base[i * m + col] += tmp[i];
        }
    }
}

void repro_bincount_f64(const int64_t *rows, const double *weights,
                        double *out, int64_t batch, int64_t m) {
    for (int64_t col = 0; col < m; ++col)
        for (int64_t t = 0; t < batch; ++t)
            out[rows[t] * m + col] += weights[t * m + col];
}

void repro_bincount_i64(const int64_t *rows, const int64_t *weights,
                        int64_t *out, int64_t batch, int64_t m) {
    for (int64_t t = 0; t < batch; ++t)
        for (int64_t col = 0; col < m; ++col) {
            int64_t *o = out + rows[t] * m + col;
            *o = (int64_t)((uint64_t)*o + (uint64_t)weights[t * m + col]);
        }
}
"""


class _CffiBackend:
    """ABI-mode wrapper around the compiled C shim (GIL released per call)."""

    name = "cffi"

    def __init__(self, ffi, lib) -> None:
        self._ffi = ffi
        self._lib = lib

    def _buf(self, ctype: str, arr: np.ndarray):
        return self._ffi.from_buffer(ctype, arr, require_writable=False)

    def _out(self, ctype: str, arr: np.ndarray):
        return self._ffi.from_buffer(ctype, arr, require_writable=True)

    def horner(self, coeffs: np.ndarray, keys: np.ndarray) -> np.ndarray:
        depth, k = coeffs.shape
        batch = keys.shape[0]
        out = np.empty((depth, batch), dtype=np.uint64)
        self._lib.repro_horner(
            self._buf("uint64_t[]", coeffs),
            self._buf("uint64_t[]", keys),
            self._out("uint64_t[]", out),
            depth,
            batch,
            k,
        )
        return out

    def horner_grid(self, coeffs: np.ndarray, keys: np.ndarray) -> np.ndarray:
        depth, k = coeffs.shape
        per = int(np.prod(keys.shape[1:], dtype=np.int64)) if keys.ndim > 1 else 1
        out = np.empty(keys.shape, dtype=np.uint64)
        self._lib.repro_horner_grid(
            self._buf("uint64_t[]", coeffs),
            self._buf("uint64_t[]", keys),
            self._out("uint64_t[]", out),
            depth,
            per,
            k,
        )
        return out

    def scatter_add_scalar(
        self,
        table: np.ndarray,
        buckets: np.ndarray,
        signs: np.ndarray | None,
        deltas: np.ndarray,
    ) -> None:
        depth, width = table.shape
        tmp = np.empty(width, dtype=np.float64)
        self._lib.repro_scatter_add_scalar(
            self._out("double[]", table),
            self._buf("int64_t[]", buckets),
            self._ffi.NULL if signs is None else self._buf("double[]", signs),
            self._buf("double[]", deltas),
            depth,
            width,
            deltas.shape[0],
            self._out("double[]", tmp),
        )

    def scatter_add_vector(
        self,
        table: np.ndarray,
        buckets: np.ndarray,
        signs: np.ndarray,
        deltas: np.ndarray,
    ) -> None:
        depth, width, m = table.shape
        tmp = np.empty(width, dtype=np.float64)
        self._lib.repro_scatter_add_vector(
            self._out("double[]", table),
            self._buf("int64_t[]", buckets),
            self._buf("double[]", signs),
            self._buf("double[]", deltas),
            depth,
            width,
            m,
            deltas.shape[0],
            self._out("double[]", tmp),
        )

    def bincount_f64(
        self, rows: np.ndarray, weights: np.ndarray, out: np.ndarray
    ) -> None:
        m = 1 if weights.ndim == 1 else weights.shape[1]
        self._lib.repro_bincount_f64(
            self._buf("int64_t[]", rows),
            self._buf("double[]", weights),
            self._out("double[]", out),
            rows.shape[0],
            m,
        )

    def bincount_i64(
        self, rows: np.ndarray, weights: np.ndarray, out: np.ndarray
    ) -> None:
        m = 1 if weights.ndim == 1 else weights.shape[1]
        self._lib.repro_bincount_i64(
            self._buf("int64_t[]", rows),
            self._buf("int64_t[]", weights),
            self._out("int64_t[]", out),
            rows.shape[0],
            m,
        )


_probe_errors: dict[str, str] = {}
_probe_cache: dict[str, object] = {}


def _cache_dir() -> str:
    root = os.environ.get("REPRO_KERNEL_CACHE")
    if not root:
        xdg = os.environ.get("XDG_CACHE_HOME") or os.path.join(
            os.path.expanduser("~"), ".cache"
        )
        root = os.path.join(xdg, "repro-kernels")
    return root


def _build_cffi():
    import cffi  # noqa: F401  (ImportError -> backend unavailable)

    compiler = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if compiler is None:
        raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = os.path.join(cache, f"repro_kernels_{digest}.so")
    if not os.path.exists(lib_path):
        os.makedirs(cache, exist_ok=True)
        src_path = os.path.join(cache, f"repro_kernels_{digest}.c")
        with open(src_path, "w") as fh:
            fh.write(_C_SOURCE)
        # Compile to a unique temp name, then atomically rename: concurrent
        # first-use from several processes races safely.
        fd, tmp_path = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        try:
            proc = subprocess.run(
                [compiler, "-O2", "-shared", "-fPIC", "-o", tmp_path, src_path],
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                raise RuntimeError(f"kernel compile failed: {proc.stderr.strip()}")
            os.replace(tmp_path, lib_path)
        finally:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
    ffi = cffi.FFI()
    ffi.cdef(_C_DECLS)
    return _CffiBackend(ffi, ffi.dlopen(lib_path))


def _probe(name: str):
    """Build (and memoize) a backend; record the failure reason on error."""
    if name in _probe_cache:
        return _probe_cache[name]
    builder = {"cffi": _build_cffi}[name]
    try:
        backend = builder()
    except Exception as exc:  # any failure just means "unavailable"
        _probe_errors[name] = f"{type(exc).__name__}: {exc}"
        backend = None
    _probe_cache[name] = backend
    return backend


#: The active backend object (``None`` means the pure-NumPy kernels run).
_backend = None
_backend_name = "numpy"


def active():
    """The live backend adapter, or ``None`` when the NumPy path is active."""
    return _backend


def current_backend() -> str:
    """Name of the active backend: ``numpy`` or ``cffi``."""
    return _backend_name


def available_backends() -> tuple[str, ...]:
    """Backends that can actually run here (always ends with ``numpy``)."""
    return ("cffi", "numpy") if _probe("cffi") is not None else ("numpy",)


def probe_errors() -> dict[str, str]:
    """Why unavailable backends failed to load (for diagnostics/benchmarks)."""
    return dict(_probe_errors)


def set_backend(name: str) -> str:
    """Activate a kernel backend; returns the resolved backend name.

    ``auto`` picks cffi if it is available, falling back to numpy.  Asking
    for an unavailable backend by name raises :class:`RuntimeError` (use
    the ``REPRO_KERNELS`` env var for the warn-and-fall-back behaviour).
    """
    global _backend, _backend_name
    if name == "numpy":
        _backend, _backend_name = None, "numpy"
    elif name == "auto":
        _backend = _probe("cffi")
        _backend_name = "numpy" if _backend is None else "cffi"
    elif name == "cffi":
        backend = _probe(name)
        if backend is None:
            raise RuntimeError(
                f"kernel backend {name!r} unavailable: "
                f"{_probe_errors.get(name, 'unknown error')}"
            )
        _backend, _backend_name = backend, name
    else:
        raise ValueError(
            f"unknown kernel backend {name!r}; expected one of "
            f"{('numpy', 'auto', 'cffi')}"
        )
    return _backend_name


@contextmanager
def use_backend(name: str) -> Iterator[str]:
    """Temporarily activate ``name``, restoring the previous backend after."""
    prev = _backend_name
    resolved = set_backend(name)
    try:
        yield resolved
    finally:
        set_backend(prev)


def _init_from_env() -> None:
    requested = os.environ.get("REPRO_KERNELS", "numpy").strip().lower()
    if requested in ("", "numpy"):
        return
    try:
        set_backend(requested)
    except (RuntimeError, ValueError) as exc:
        warnings.warn(
            f"REPRO_KERNELS={requested!r} not usable ({exc}); "
            "falling back to the pure-NumPy kernels",
            RuntimeWarning,
            stacklevel=2,
        )


_init_from_env()
