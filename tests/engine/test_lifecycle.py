"""Session lifecycle: the close state machine.

Pinned as regression tests: a closed :class:`StreamingSession` is a real
state machine: every mutation raises :class:`SessionClosedError` while the
accumulated data stays queryable, ``close`` is idempotent (and runs on a
``with`` block's exit), and queued deltas — including a *dropped* site's —
never survive close.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.streaming import SessionClosedError, StreamingSession

N, M = 12, 3


@pytest.fixture()
def b() -> np.ndarray:
    return np.random.default_rng(1).integers(0, 4, size=(N, M))


def _ingest_some(session: StreamingSession, seed: int = 0) -> None:
    rng = np.random.default_rng(seed)
    for site in range(len(session.sites)):
        low = session.sites[site].row_offset
        rows = rng.integers(low, low + session.sites[site].num_rows, size=5)
        session.ingest(site, rows, rng.integers(-2, 3, size=(5, N)))


class TestCloseStateMachine:
    def test_mutations_after_close_raise(self, b):
        session = StreamingSession([6, 6], b, seed=3)
        _ingest_some(session)
        session.sync()
        session.close()
        assert session.closed
        rng = np.random.default_rng(0)
        with pytest.raises(SessionClosedError, match="ingest"):
            session.ingest(0, [0], rng.integers(-1, 2, size=(1, N)))
        with pytest.raises(SessionClosedError, match="epoch"):
            session.end_epoch()
        with pytest.raises(SessionClosedError, match="drop"):
            session.drop_site(0)
        with pytest.raises(SessionClosedError, match="restore"):
            session.restore_site(0)

    def test_closed_session_remains_queryable(self, b):
        session = StreamingSession([6, 6], b, seed=3)
        _ingest_some(session)
        session.sync()
        live_before = session.live_lp_norm(p=2.0)
        result_before = session.lp_norm(p=2.0, epsilon=0.3)
        session.close()
        assert session.live_lp_norm(p=2.0) == live_before
        later = StreamingSession([6, 6], b, seed=3)
        _ingest_some(later)
        later.sync()
        later.close()
        assert later.lp_norm(p=2.0, epsilon=0.3).value == result_before.value

    def test_close_is_idempotent(self, b):
        session = StreamingSession([6, 6], b, seed=3)
        _ingest_some(session)
        session.close()
        session.close()

    def test_session_context_manager_closes(self, b):
        with StreamingSession([6, 6], b, seed=3) as session:
            assert not session.closed
        assert session.closed

    def test_pending_deltas_do_not_survive_close(self, b):
        session = StreamingSession([6, 6], b, seed=3, refresh="threshold",
                                   threshold=float("inf"))
        _ingest_some(session)
        assert sum(s.pending_updates for s in session.sites) > 0
        session.close()
        for site in session.sites:
            assert site.pending_updates == 0
            assert site.pending_mass == 0.0

    def test_dropped_site_queue_is_cleared_on_close(self, b):
        session = StreamingSession([6, 6], b, seed=3, dropout="exclude")
        _ingest_some(session)
        session.drop_site(0)
        session.sync()  # site 0 cannot ship; its deltas stay queued
        assert session.sites[0].pending_updates > 0
        session.close()
        assert session.sites[0].pending_updates == 0
        assert session.sites[0].pending_mass == 0.0

    def test_shipped_counters_survive_close(self, b):
        session = StreamingSession([6, 6], b, seed=3)
        _ingest_some(session)
        session.sync()
        shipped = session.total_upload_bytes
        assert shipped > 0
        session.close()
        assert session.total_upload_bytes == shipped
