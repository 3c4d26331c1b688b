"""Runtime/session lifecycle: atexit pairing and the close state machine.

Pinned as regression tests:

* ``Runtime`` registers its interpreter-shutdown hook exactly once per
  open period — pool→close cycles must not stack duplicate ``atexit``
  entries (each would pin the runtime for the life of the process);
* a closed :class:`StreamingSession` is a real state machine: every
  mutation raises :class:`SessionClosedError` while the accumulated data
  stays queryable, ``close`` is idempotent, and queued deltas — including
  a *dropped* site's — never survive close;
* close ordering is safe both ways round (session-then-runtime and
  runtime-then-session).
"""

from __future__ import annotations

import atexit

import numpy as np
import pytest

from repro.engine.runtime import Runtime
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


class _AtexitSpy:
    """Counts register/unregister calls for one specific callback."""

    def __init__(self, monkeypatch):
        self.registered: list = []
        real_register, real_unregister = atexit.register, atexit.unregister

        def register(fn, *args, **kwargs):
            self.registered.append(fn)
            return real_register(fn, *args, **kwargs)

        def unregister(fn):
            while fn in self.registered:
                self.registered.remove(fn)
            return real_unregister(fn)

        monkeypatch.setattr(atexit, "register", register)
        monkeypatch.setattr(atexit, "unregister", unregister)

    def live_hooks_for(self, fn) -> int:
        return self.registered.count(fn)


class TestAtexitPairing:
    def test_ten_pool_close_cycles_keep_exactly_one_live_hook(
        self, b, monkeypatch
    ):
        spy = _AtexitSpy(monkeypatch)
        runtime = Runtime("threads", max_workers=2)
        for _ in range(10):
            runtime.map(abs, [(-1,), (-2,)])  # creates the pool
            assert spy.live_hooks_for(runtime.close) == 1
            with StreamingSession([6, 6], b, seed=3, runtime=runtime) as session:
                _ingest_some(session)
                session.sync()
            runtime.close()
            assert spy.live_hooks_for(runtime.close) == 0
        runtime.close()
        assert spy.live_hooks_for(runtime.close) == 0

    def test_shared_runtime_registers_once(self, b, monkeypatch):
        spy = _AtexitSpy(monkeypatch)
        with Runtime("threads", max_workers=2) as runtime:
            for _ in range(3):
                with StreamingSession([6, 6], b, seed=3, runtime=runtime) as session:
                    _ingest_some(session)
                    session.sync()
                assert spy.live_hooks_for(runtime.close) == 1
        assert spy.live_hooks_for(runtime.close) == 0


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
        with Runtime("threads", max_workers=2) as runtime:
            threaded = StreamingSession([6, 6], b, seed=3, runtime=runtime)
            _ingest_some(threaded)
            threaded.sync()
            threaded.close()
            threaded.close()

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


class TestCloseOrdering:
    def test_runtime_close_then_session_close(self, b):
        runtime = Runtime("threads", max_workers=2)
        session = StreamingSession([6, 6], b, seed=3, runtime=runtime)
        _ingest_some(session)
        session.sync()
        runtime.close()
        session.close()  # must not raise on the closed runtime
        assert session.closed

    def test_session_close_then_runtime_close(self, b):
        with Runtime("threads", max_workers=2) as runtime:
            for seed in range(3):
                session = StreamingSession([6, 6], b, seed=seed, runtime=runtime)
                _ingest_some(session)
                session.sync()
                session.close()
                assert session.closed
            # The shared runtime still serves a new session afterwards.
            session = StreamingSession([6, 6], b, seed=3, runtime=runtime)
            _ingest_some(session)
            assert session.sync().total_bytes > 0
        assert runtime._pool is None
