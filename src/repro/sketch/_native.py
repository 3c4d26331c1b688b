"""The name of the sketch kernels' implementation, for benchmark host stamps.

Every kernel in :mod:`repro.sketch.kernels` has one implementation, in
NumPy.  This module stays only because the end-to-end benchmark's host
stamp (``benchmarks/e2e/run.py``) and the other benchmark scripts import
:func:`current_backend` to record it.
"""

from __future__ import annotations

__all__ = ["current_backend"]


def current_backend() -> str:
    """The kernels' implementation: always ``"numpy"``."""
    return "numpy"
