"""Runtime pool lifecycle: sizing, lazy creation, reuse, threaded sessions.

The invariance suite (``test_runtime.py``) pins *what* the executors
compute; this module pins how the thread pool behaves as a resource and
how a streaming session runs on it:

* worker-count resolution (CPU affinity by default, ``REPRO_WORKERS``
  overrides),
* the pool is created lazily, and the sub-concurrent ``map`` fallback
  still creates it on its way through,
* context-manager reuse across runs and ``close()`` idempotency,
* ``map_async`` dispatch/join semantics,
* ``map`` under both executors: results in task order whatever finishes
  first, a task's error reaching the caller (at dispatch when serial, at
  the join when threaded) with the runtime still usable, and where the
  tasks run (the caller's thread, or the pool's),
* a streaming session on a threads runtime: bit-identical to serial,
  queryable after close, and a dropped site's backlog ships on restore.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.engine.runtime import Runtime, _default_workers
from repro.engine.streaming import StreamingSession


def _double(x):
    return 2 * x


def _sleep_then_echo(delay, value):
    time.sleep(delay)
    return value


def _fail_on(value, bad):
    if value == bad:
        raise KeyError(value)
    return value


def _thread_name(_):
    return threading.current_thread().name


class TestWorkerSizing:
    def test_affinity_is_the_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert _default_workers() == len(os.sched_getaffinity(0))

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert _default_workers() == 3

    @pytest.mark.parametrize("bad", ["0", "-2", "many"])
    def test_invalid_override_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_WORKERS", bad)
        with pytest.raises(ValueError):
            _default_workers()

    def test_thread_pool_takes_the_env_width(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        with Runtime("threads") as runtime:
            runtime.map(_double, [(1,), (2,)])
            assert runtime._pool._max_workers == 3

    def test_explicit_max_workers_beats_the_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        with Runtime("threads", max_workers=2) as runtime:
            runtime.map(_double, [(1,), (2,)])
            assert runtime._pool._max_workers == 2


class TestPoolLifecycle:
    def test_sub_concurrent_map_still_creates_the_pool(self):
        with Runtime("threads", max_workers=2) as runtime:
            assert runtime._pool is None  # lazy until first map
            assert runtime.map(_double, [(21,)]) == [42]
            assert runtime._pool is not None  # single task ran inline, but
            # the pool exists for the first *real* parallel phase

    def test_context_manager_reuses_one_pool_across_runs(self):
        with Runtime("threads", max_workers=2) as runtime:
            runtime.map(_double, [(1,), (2,)])
            pool = runtime._pool
            runtime.map(_double, [(3,), (4,)])
            assert runtime._pool is pool
        assert runtime._pool is None  # exit closed it

    def test_close_is_idempotent_and_runtime_remains_usable(self):
        runtime = Runtime("threads", max_workers=2)
        assert runtime.map(_double, [(1,), (2,)]) == [2, 4]
        runtime.close()
        runtime.close()  # double close is a no-op
        # A closed runtime lazily re-creates its pool on the next use.
        assert runtime.map(_double, [(5,), (6,)]) == [10, 12]
        runtime.close()

    @pytest.mark.parametrize("executor", ["serial", "threads"])
    def test_map_async_matches_map(self, executor):
        with Runtime(executor, max_workers=2) as runtime:
            tasks = [(i,) for i in range(5)]
            join = runtime.map_async(_double, tasks)
            assert join() == runtime.map(_double, tasks)


class TestMapSemantics:
    @pytest.mark.parametrize("executor", ["serial", "threads"])
    def test_results_come_back_in_task_order(self, executor):
        # Later tasks sleep less, so a threaded run finishes them first.
        tasks = [(0.02 * (3 - i), i) for i in range(4)]
        with Runtime(executor, max_workers=4) as runtime:
            assert runtime.map(_sleep_then_echo, tasks) == [0, 1, 2, 3]
            assert runtime.map_async(_sleep_then_echo, tasks)() == [0, 1, 2, 3]

    @pytest.mark.parametrize("executor", ["serial", "threads"])
    def test_a_task_error_reaches_the_caller_and_the_runtime_survives(
        self, executor
    ):
        with Runtime(executor, max_workers=2) as runtime:
            with pytest.raises(KeyError):
                runtime.map(_fail_on, [(1, 2), (2, 2), (3, 2)])
            assert runtime.map(_fail_on, [(1, 0), (2, 0)]) == [1, 2]

    def test_serial_map_async_raises_at_dispatch(self):
        with pytest.raises(KeyError):
            Runtime().map_async(_fail_on, [(1, 2), (2, 2)])

    def test_threaded_map_async_raises_at_the_join(self):
        with Runtime("threads", max_workers=2) as runtime:
            join = runtime.map_async(_fail_on, [(1, 2), (2, 2)])
            with pytest.raises(KeyError):
                join()

    @pytest.mark.parametrize("executor", ["serial", "threads"])
    def test_no_tasks_give_no_results(self, executor):
        with Runtime(executor, max_workers=2) as runtime:
            assert runtime.map(_double, []) == []
            assert runtime.map_async(_double, [])() == []

    @pytest.mark.parametrize("executor", ["serial", "threads"])
    def test_a_single_task_runs_on_the_callers_thread(self, executor):
        with Runtime(executor, max_workers=2) as runtime:
            assert runtime.map(_thread_name, [(0,)]) == [
                threading.current_thread().name
            ]

    def test_serial_runs_every_task_on_the_callers_thread(self):
        caller = threading.current_thread().name
        assert Runtime().map(_thread_name, [(i,) for i in range(3)]) == [caller] * 3

    def test_threads_run_concurrent_tasks_on_the_pool(self):
        with Runtime("threads", max_workers=2) as runtime:
            names = runtime.map(_thread_name, [(i,) for i in range(3)])
        assert all(name.startswith("repro-site") for name in names)


class TestThreadedStreamingSession:
    def run_session(self, runtime):
        rng = np.random.default_rng(99)
        b = rng.integers(0, 3, size=(4, 3))
        session = StreamingSession(
            [12, 12], b, seed=7, runtime=runtime, refresh="every-epoch"
        )
        offsets = (0, 12)
        for _ in range(3):
            for site in range(2):
                rows = rng.integers(offsets[site], offsets[site] + 12, size=9)
                deltas = rng.integers(-4, 5, size=(9, 4))
                session.ingest(site, rows, deltas)
            session.end_epoch()
        session.sync()
        return session

    def collect(self, session):
        return (
            [(r.shipped, r.upload_bytes, r.total_bytes) for r in session.history],
            session.network.total_bits,
            {
                key: sketch.state_array().tobytes()
                for key, sketch in session.merged.items()
            },
            [shard.copy() for shard in session.shards()],
        )

    def test_threads_session_is_bit_identical_to_serial(self):
        reference = self.collect(self.run_session(None))
        with Runtime("threads", max_workers=2) as runtime:
            session = self.run_session(runtime)
            got = self.collect(session)
            session.close()
        assert got[0] == reference[0]
        assert got[1] == reference[1]
        assert got[2] == reference[2]
        for mine, theirs in zip(got[3], reference[3]):
            np.testing.assert_array_equal(mine, theirs)

    def test_closed_session_still_answers_queries_but_refuses_ingest(self):
        with Runtime("threads", max_workers=2) as runtime:
            session = self.run_session(runtime)
            live = session.live_lp_norm(2.0)
            shards = [shard.copy() for shard in session.shards()]
            session.close()
            session.close()  # idempotent
            assert session.live_lp_norm(2.0) == live
            for mine, theirs in zip(session.shards(), shards):
                np.testing.assert_array_equal(mine, theirs)
            with pytest.raises(RuntimeError):
                session.ingest(0, [0], np.ones((1, 4), dtype=np.int64))
            with pytest.raises(RuntimeError):
                session.end_epoch()

    def test_session_context_manager_closes(self):
        with Runtime("threads", max_workers=2) as runtime:
            with StreamingSession(
                [6, 6], np.eye(2, dtype=np.int64), seed=3, runtime=runtime
            ) as session:
                assert not session.closed
            assert session.closed

    def test_dropped_site_backlog_ships_after_restore(self):
        reference = self.collect(self.run_session(None))

        rng = np.random.default_rng(99)
        b = rng.integers(0, 3, size=(4, 3))
        with Runtime("threads", max_workers=2) as runtime:
            session = StreamingSession(
                [12, 12], b, seed=7, runtime=runtime, refresh="every-epoch"
            )
            offsets = (0, 12)
            session.drop_site(1)  # site 1 queues its deltas locally
            for _ in range(3):
                for site in range(2):
                    rows = rng.integers(offsets[site], offsets[site] + 12, size=9)
                    deltas = rng.integers(-4, 5, size=(9, 4))
                    session.ingest(site, rows, deltas)
                session.end_epoch()
            session.restore_site(1)
            session.sync()  # backlog ships; summaries catch up exactly
            got_states = {
                key: sketch.state_array().tobytes()
                for key, sketch in session.merged.items()
            }
            session.close()
        assert got_states == reference[2]
