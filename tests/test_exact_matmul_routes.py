"""The BLAS route of ``exact_matmul`` changes no answer at benchmark scale.

The transcript pins use inputs of at most 64 rows, where few products pass
the ``2^15`` multiply-add gate.  Here every query family that calls
:func:`repro.sketch.kernels.exact_matmul` runs on 1024 x 128 binary and
integer inputs over 8 sites, once as shipped and once with the gate at
infinity (every product on NumPy's int64 loop), and the canonical bytes of
all results must agree.  A spy on the BLAS route records the source line
of every product it serves; the test fails unless every call of
``exact_matmul`` in ``src/repro`` is among them.
"""

from __future__ import annotations

import ast
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import ClusterEstimator
from repro.baselines import OneRoundLpNormProtocol
from repro.distmm import SparseProductProtocol
from repro.sketch import kernels
from tests.test_baseline_pins import canonical


def inputs() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """1024 x 128 binary and integer ``A`` against 128 x 128 ``B``.

    Items 0..63 are common in ``A`` and rare in ``B``, items 64..127 the
    reverse, so the index exchanges ship lists both ways and both shares
    of every exchange are large enough for the BLAS route.
    """
    rng = np.random.default_rng(2027)
    common_in_a = np.arange(128) < 64
    a_mask = rng.random((1024, 128)) < np.where(common_in_a, 0.2, 0.01)
    b_mask = rng.random((128, 128)) < np.where(common_in_a, 0.03, 0.5)[:, None]
    return {
        "binary": (a_mask.astype(np.int64), b_mask.astype(np.int64)),
        "integer": (
            rng.integers(1, 11, size=a_mask.shape) * a_mask,
            rng.integers(1, 11, size=b_mask.shape) * b_mask,
        ),
    }


def run_queries() -> dict[str, object]:
    results: dict[str, object] = {}
    for kind, (a, b) in inputs().items():
        estimator = ClusterEstimator.from_matrix(a, b, 8, seed=41)
        queries = {
            "join_size": lambda: estimator.join_size(0.3),
            "lp0": lambda: estimator.lp_norm(0, 0.3),
            "lp1": lambda: estimator.lp_norm(1, 0.3),
            "lp2": lambda: estimator.lp_norm(2, 0.3),
            "natural_join_size": estimator.natural_join_size,
            "l1_sample": estimator.l1_sample,
            "heavy_hitters": lambda: estimator.heavy_hitters(0.1, 0.05),
            "l0_sample": lambda: estimator.l0_sample(0.3),
            "one_round_lp0": lambda: OneRoundLpNormProtocol(0, 0.3, seed=43).run(
                a, b
            ),
            "sparse_product": lambda: SparseProductProtocol(seed=43).run(a, b),
        }
        if kind == "binary":
            queries["linf"] = lambda: estimator.linf(0.5)
        for name, query in queries.items():
            results[f"{kind}/{name}"] = query()
        session = estimator.stream(preload=True, sketch_mode="hash")
        results[f"{kind}/live_l0"] = session.live_l0()
        results[f"{kind}/live_l0_sample"] = session.live_l0_sample()
    return results


def exact_matmul_call_sites() -> set[tuple[str, int]]:
    """``(module, line)`` of every ``exact_matmul(...)`` call in the package."""
    root = Path(repro.__file__).parent
    sites = set()
    for path in root.rglob("*.py"):
        module = ".".join(("repro",) + path.relative_to(root).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id == "exact_matmul":
                    sites.add((module, node.lineno))
    return sites


@pytest.fixture(scope="module")
def blas_run():
    """Results with the BLAS route on, and the call sites it served."""
    served: set[tuple[str, int]] = set()
    blas_matmul = kernels._blas_matmul

    def spy(x, y):
        caller = sys._getframe(2)  # spy <- exact_matmul <- call site
        served.add((caller.f_globals["__name__"], caller.f_lineno))
        return blas_matmul(x, y)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_blas_matmul", spy)
        results = run_queries()
    return results, served


def test_every_call_site_takes_the_blas_route(blas_run):
    _, served = blas_run
    sites = exact_matmul_call_sites()
    # lp_norm 2, exchange 2, heavy hitters 2, l0 sampling 2, streaming 3,
    # one-round baseline 1, sparse product 2.
    assert len(sites) >= 14
    assert sites - served == set()


def test_blas_route_matches_the_int64_loop_byte_for_byte(blas_run, monkeypatch):
    with_blas, _ = blas_run
    monkeypatch.setattr(kernels, "_BLAS_MIN_MACS", math.inf)
    monkeypatch.setattr(kernels, "_blas_matmul", None)  # must not be reached
    int64_loop = run_queries()
    assert with_blas.keys() == int64_loop.keys()
    for name in with_blas:
        assert canonical(with_blas[name]) == canonical(int64_loop[name]), name
