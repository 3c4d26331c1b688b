"""Streaming sessions over hash-mode (universe-independent) monitor sketches.

``sketch_mode="hash"`` swaps the monitoring sketches' randomness source —
lazy hashes instead of per-coordinate draws — without touching the delta
discipline, so the streamed == one-shot equivalence and the live-query
machinery must hold exactly as in dense mode (the default mode's
byte-compatibility is pinned in ``test_streaming.py``; this file pins the
new mode's internal consistency).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterEstimator


@pytest.fixture(scope="module")
def binary_pair():
    rng = np.random.default_rng(555)
    n = 40
    a = (rng.uniform(size=(n, n)) < 0.15).astype(np.int64)
    b = (rng.uniform(size=(n, n)) < 0.15).astype(np.int64)
    return a, b


def test_streamed_summaries_equal_one_shot_in_hash_mode(binary_pair):
    a, b = binary_pair
    batch = ClusterEstimator.from_matrix(a, b, 2, seed=71)
    session = batch.stream(sketch_mode="hash")
    bounds = [0, 16, 29, a.shape[0]]
    for start, stop in zip(bounds, bounds[1:]):
        for index, site in enumerate(session.sites):
            lo = max(site.row_offset, start)
            hi = min(site.row_offset + site.num_rows, stop)
            if lo < hi:
                rows = np.arange(lo, hi)
                session.ingest(index, rows, a[rows])
        session.end_epoch()
    session.sync()
    for family in session.merged:
        one_shot = session.templates[family].empty_copy()
        one_shot.update_many(np.arange(a.shape[0]), a.astype(np.int64))
        assert session.merged[family].state_array().tobytes() == (
            one_shot.state_array().tobytes()
        )
    assert session.sketch_mode == "hash"


def test_hash_mode_live_estimates_are_sane(binary_pair):
    a, b = binary_pair
    session = ClusterEstimator.from_matrix(a, b, 2, seed=73).stream(
        preload=True, sketch_mode="hash"
    )
    c = (a @ b).astype(float)
    assert session.live_lp_norm(2.0) == pytest.approx(float((c**2).sum()), rel=0.5)
    assert session.live_l0() == pytest.approx(np.count_nonzero(c), rel=0.5)
    outcome = session.live_l0_sample()
    assert outcome.row is not None
    assert (a @ b)[outcome.row, outcome.col] != 0


def test_invalid_sketch_mode_rejected(binary_pair):
    a, b = binary_pair
    with pytest.raises(ValueError, match="sketch_mode"):
        ClusterEstimator.from_matrix(a, b, 2, seed=79).stream(sketch_mode="turbo")
