"""The four end-to-end workloads, their seeded inputs and their output checks.

Every workload is a closed loop: one caller issues an operation, waits for
its reply, checks it, and only then issues the next.  Work is grouped in
*cycles* — the unit a user waits for (one pass over the query mix, one
monitoring epoch, one service round).  The timed phase runs cycles until
``--seconds`` of operation time have passed, and never fewer than
``MIN_CYCLES``.  The exact metrics (bits, bytes) cover the first
``MIN_CYCLES`` timed cycles only, so they compare one to one between two
commits however fast each runs.

Inputs come from this file's own numpy code and the seed alone; nothing
from ``repro.matrices`` or the older benchmark scripts, so changes there
cannot move these inputs.  The library runs with its defaults: the serial
runtime and the numpy kernels.
"""

from __future__ import annotations

import os
import pickle
import resource
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, ClassVar

import numpy as np

#: At least this many timed cycles per run, so a median has ten samples
#: beyond it; the exact metrics are taken over exactly these first cycles.
MIN_CYCLES = 20


@dataclass
class Run:
    """What one workload run did and measured.

    Only operations issued inside :meth:`timed` contribute latencies and
    cycles, and only those of the first ``MIN_CYCLES`` timed cycles
    contribute bits and bytes; every operation (warm-ups included) counts
    as attempted and every exception or failed check counts as failed.
    """

    tracer: Any = None
    #: Operation time the timed phase runs for, at least.
    seconds: float = 0.0
    #: Cycles per block: the timed phase ends on a whole block.
    period: int = 1
    #: Timed cycles the run makes, at least.
    min_cycles: int = MIN_CYCLES
    timing: bool = False
    setup: list[float] = field(default_factory=list)
    latencies: dict[str, list[float]] = field(default_factory=dict)
    cycles: list[float] = field(default_factory=list)
    #: Timed operations in each cycle, aligned with :attr:`cycles`.
    cycle_ops: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    bits: int = 0
    query_bits: list[int] = field(default_factory=list)
    epoch_bytes: list[int] = field(default_factory=list)
    rows_ingested: int = 0
    rel_errors: list[float] = field(default_factory=list)
    #: Live samples that landed on a zero entry of the product (see README).
    zero_samples: int = 0
    live_samples: int = 0
    retries: float = 0.0
    #: Most messages the live message logs held at the end of a timed stretch.
    retained: int = 0
    #: The process's peak RSS once ``min_cycles`` timed cycles have run: a
    #: fixed point of the run, however many cycles its seconds allow.
    peak_rss_mb: float = 0.0
    _cycle: float = 0.0
    _ops: int = 0

    @contextmanager
    def timed(self):
        """A timed stretch; it ends while its sessions and networks are
        alive, so the messages their logs retain can be counted."""
        self.timing = True
        try:
            yield
        finally:
            self.timing = False
            if self.tracer is not None:
                self.retained = max(self.retained, self.tracer.retained_messages())

    def more(self) -> bool:
        """Whether the timed phase runs another cycle: until ``seconds`` of
        operation time and ``min_cycles`` cycles, ending on a whole block."""
        done = len(self.cycles)
        return (
            done < self.min_cycles
            or sum(self.cycles) < self.seconds
            or done % self.period != 0
        )

    @property
    def exact(self) -> bool:
        """Inside the cycles the exact metrics cover."""
        return self.timing and len(self.cycles) < MIN_CYCLES

    def op(self, kind: str, fn: Callable, *args, **kwargs) -> Any:
        """Issue one operation; time it when timing.  Returns ``None`` if
        it raised (the failure is counted and its message kept)."""
        self.attempted += 1
        window = (
            self.tracer.op(kind)
            if self.timing and self.tracer is not None
            else nullcontext()
        )
        start = time.perf_counter()
        try:
            with window:
                result = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - a failed operation is data
            self.fail(f"{kind} {getattr(fn, '__name__', fn)}: {exc!r}")
            return None
        elapsed = time.perf_counter() - start
        if self.timing:
            self.latencies.setdefault(kind, []).append(elapsed)
            self._cycle += elapsed
            self._ops += 1
        return result

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)

    def end_cycle(self) -> None:
        if self.timing:
            self.cycles.append(self._cycle)
            self.cycle_ops.append(self._ops)
            if len(self.cycles) == self.min_cycles:
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self._cycle, self._ops = 0.0, 0

    def add_bits(self, bits: int, *, query: bool) -> None:
        if self.exact:
            self.bits += int(bits)
            if query:
                self.query_bits.append(int(bits))

    def add_epoch(self, report) -> None:
        """Meter one closed epoch's upload."""
        if report is not None:
            self.add_bits(8 * report.total_bytes, query=False)
            if self.exact:
                self.epoch_bytes.append(report.total_bytes)


@contextmanager
def stdout_to_stderr():
    """Send this process's stdout, and so its children's, to stderr.

    Site processes print progress lines on stdout; the result must stay the
    last line there.
    """
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        yield
    finally:
        sys.stdout.flush()
        os.dup2(saved, 1)
        os.close(saved)


def canonical(value: Any) -> bytes:
    """Byte image of a value; equal images mean bit-identical values."""
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


# ---------------------------------------------------------------- inputs
def zipf_sizes(count: int, largest: int, alpha: float = 0.9) -> np.ndarray:
    """A fixed Zipf size profile: the r-th largest is ``largest / r**alpha``.

    The profile does not depend on the seed, so total work stays the same
    from seed to seed; only which row gets which size, and where its
    entries fall, is random.
    """
    ranks = np.arange(1, count + 1)
    return np.clip(np.round(largest * ranks**-alpha), 1, largest).astype(np.int64)


def binary_sets(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """0/1 matrix whose rows are random sets with Zipf-distributed sizes."""
    sizes = rng.permutation(zipf_sizes(rows, cols // 2))
    ranks = np.argsort(np.argsort(rng.random((rows, cols)), axis=1), axis=1)
    return (ranks < sizes[:, None]).astype(np.int64)


def integer_matrix(
    rng: np.random.Generator, rows: int, cols: int, density: float = 0.1
) -> np.ndarray:
    """Entries 1..10 on exactly ``density * cols`` random columns per row."""
    per_row = max(1, round(density * cols))
    ranks = np.argsort(np.argsort(rng.random((rows, cols)), axis=1), axis=1)
    values = rng.integers(1, 11, size=(rows, cols))
    return np.where(ranks < per_row, values, 0).astype(np.int64)


class ZipfRows:
    """Turnstile row ids inside one site's range, with Zipf popularity."""

    def __init__(self, rng: np.random.Generator, offset: int, count: int) -> None:
        weights = 1.0 / np.arange(1, count + 1) ** 0.9
        self._cdf = np.cumsum(weights) / weights.sum()
        self._rows = offset + rng.permutation(count)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        picks = np.searchsorted(self._cdf, rng.random(size), side="right")
        return self._rows[np.minimum(picks, len(self._rows) - 1)]


def input_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Independent generators for the static inputs and the update stream."""
    static, updates = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(static), np.random.default_rng(updates)


# ------------------------------------------------------------------ checks
#: Round counts the paper fixes (Theorems 3.1, 3.2, 5.1 / 5.3).
ROUNDS = {"lp_norm": {2}, "join_size": {2}, "l0_sample": {1}, "heavy_hitters": {5, 6}}


def check_result(run: Run, name: str, result: Any, exact: dict) -> None:
    """Deterministic gates on one one-shot answer against exact values."""
    if result is None:
        return
    if name in ROUNDS:
        run.check(result.cost.rounds in ROUNDS[name],
                  f"{name}: {result.cost.rounds} rounds, expected {ROUNDS[name]}")
    if name == "natural_join_size":
        run.check(result.value == exact["l1"],
                  f"natural_join_size {result.value} != exact {exact['l1']}")
    if name in ("l0_sample", "l1_sample") and result.value.success:
        entry = exact["c"][result.value.row, result.value.col]
        run.check(entry != 0, f"{name} sampled a zero entry {result.value}")
    if name in ("join_size", "lp_norm") and run.timing:
        truth = exact["l0"] if name == "join_size" else exact["l2"]
        run.rel_errors.append(abs(result.value - truth) / truth)


def exact_stats(a: np.ndarray, b: np.ndarray) -> dict:
    c = a @ b
    return {
        "c": c,
        "l0": float(np.count_nonzero(c)),
        "l1": float(np.abs(c).sum()),
        "l2": float((c.astype(float) ** 2).sum()),
    }


def check_stream_sync(run: Run, session, shards: list[np.ndarray]) -> None:
    """After a final sync the merged summaries equal a one-shot sketching of
    the accumulated shards byte for byte, and the network metered exactly
    8 bits per shipped byte on the leaf edges."""
    run.op("sync", session.sync)
    a = np.concatenate(shards)
    for family, merged in session.merged.items():
        reference = session.templates[family].empty_copy()
        # Row blocks bound the kernels' temporaries; the states are exact
        # integer sums, so the blocking leaves their bytes unchanged.
        for start in range(0, a.shape[0], 1024):
            block = a[start:start + 1024]
            reference.update_many(np.arange(start, start + block.shape[0]), block)
        state = merged.state_array()
        run.check(
            state is not None
            and state.tobytes() == reference.state_array().tobytes(),
            f"streamed {family} summary differs from the one-shot sketch",
        )
    network = session.network
    leaf_bits = sum(network.link(name).total_bits for name in network.site_names)
    cumulative = session.history[-1].cumulative_bytes
    run.check(leaf_bits == 8 * cumulative,
              f"leaf edges metered {leaf_bits} bits for {cumulative} bytes")


# ------------------------------------------------------------- oneshot_mix
@dataclass(frozen=True)
class OneShotSizes:
    sites: int = 8
    rows: int = 4096
    inner: int = 128
    cols: int = 128
    setup_reps: int = 5
    #: Cycles per block of the ``ops_per_s`` median (one repeat of the mix).
    period: ClassVar[int] = 1
    min_cycles: ClassVar[int] = MIN_CYCLES


#: The 12-query cycle: on both inputs, then the binary-only queries.
ONESHOT_BOTH = (
    ("join_size", lambda est: est.join_size(0.3)),
    ("lp_norm", lambda est: est.lp_norm(2, 0.3)),
    ("natural_join_size", lambda est: est.natural_join_size()),
    ("l1_sample", lambda est: est.l1_sample()),
    ("heavy_hitters", lambda est: est.heavy_hitters(0.1, 0.05)),
)
ONESHOT_BINARY = (
    ("l0_sample", lambda est: est.l0_sample(0.3)),
    ("linf", lambda est: est.linf(0.5)),
)


def oneshot_inputs(seed: int, sizes: OneShotSizes) -> dict[str, tuple]:
    rng, _ = input_streams(seed)
    return {
        "binary": (binary_sets(rng, sizes.rows, sizes.inner),
                   binary_sets(rng, sizes.inner, sizes.cols)),
        "integer": (integer_matrix(rng, sizes.rows, sizes.inner),
                    integer_matrix(rng, sizes.inner, sizes.cols)),
    }


def oneshot_mix(run: Run, seed: int, sizes: OneShotSizes) -> None:
    from repro import ClusterEstimator

    inputs = oneshot_inputs(seed, sizes)
    exact = {kind: exact_stats(a, b) for kind, (a, b) in inputs.items()}
    plan = [("binary", ONESHOT_BOTH + ONESHOT_BINARY), ("integer", ONESHOT_BOTH)]

    def cycle(estimators):
        for kind, queries in plan:
            for name, query in queries:
                result = run.op("query", query, estimators[kind])
                check_result(run, name, result, exact[kind])
                if result is not None:
                    run.add_bits(result.cost.total_bits, query=True)
        run.end_cycle()

    for _ in range(sizes.setup_reps):
        start = time.perf_counter()
        estimators = {
            kind: ClusterEstimator.from_matrix(a, b, sizes.sites, seed=seed)
            for kind, (a, b) in inputs.items()
        }
        cycle(estimators)
        run.setup.append(time.perf_counter() - start)
    with run.timed():
        while run.more():
            cycle(estimators)


# ---------------------------------------------------- streaming workloads
@dataclass(frozen=True)
class StreamSizes:
    sites: int
    rows_per_site: int
    inner: int
    active_sites: int
    batch: int
    tree: int | None
    hh_every: int
    oneshot_every: int
    live: tuple[str, ...]
    epochs_per_session: int
    setup_reps: int = 5

    @property
    def period(self) -> int:
        """Epochs until the mix repeats (heavy-hitter or one-shot reads)."""
        return max(self.hh_every, self.oneshot_every, 1)

    @property
    def min_cycles(self) -> int:
        """One whole session at least, so every run reaches its memory peak."""
        return max(MIN_CYCLES, self.epochs_per_session)


def stream_workload(run: Run, seed: int, sizes: StreamSizes) -> None:
    """Sites ingest turnstile batches; every epoch closes and is read live.

    Sessions rotate every ``epochs_per_session`` epochs: the session's
    message log keeps every shipped payload, so one session's lifetime
    bounds the memory a run can reach.
    """
    from repro import StreamingSession

    static_rng, update_rng = input_streams(seed)
    k, per_site, m = sizes.sites, sizes.rows_per_site, sizes.inner
    b = static_rng.integers(-2, 3, size=(m, m)).astype(np.int64)
    row_ids = [ZipfRows(static_rng, i * per_site, per_site) for i in range(k)]

    def open_session():
        return StreamingSession(
            [per_site] * k, b, seed=seed, sketch_mode="hash", tree=sizes.tree
        )

    def epoch(session, shards, index):
        active = (
            update_rng.choice(k, size=sizes.active_sites, replace=False)
            if sizes.active_sites < k
            else np.arange(k)
        )
        for site in sorted(int(s) for s in active):
            rows = row_ids[site].draw(update_rng, sizes.batch)
            deltas = update_rng.integers(-2, 3, size=(sizes.batch, m))
            run.op("ingest", session.ingest, site, rows, deltas)
            np.add.at(shards[site], rows - site * per_site, deltas)
            if run.timing:
                run.rows_ingested += sizes.batch
        run.add_epoch(run.op("epoch", session.end_epoch))
        for name in sizes.live:
            value = run.op("live", getattr(session, name))
            if name == "live_l0_sample" and value is not None and value.success:
                i, j = value.row, value.col
                run.live_samples += 1
                run.zero_samples += int(shards[i // per_site][i % per_site] @ b[:, j] == 0)
        if sizes.hh_every and index % sizes.hh_every == 0:
            run.op("live", session.live_heavy_hitters, 0.05)
        if sizes.oneshot_every and index % sizes.oneshot_every == 0:
            result = run.op("query", session.lp_norm, 2, 0.3)
            if result is not None:
                c = np.concatenate(shards) @ b
                check_result(run, "lp_norm", result,
                             {"l2": float((c.astype(float) ** 2).sum())})
                run.add_bits(result.cost.total_bits, query=True)
        run.end_cycle()

    def fresh_shards():
        return [np.zeros((per_site, m), dtype=np.int64) for _ in range(k)]

    for _ in range(sizes.setup_reps):
        start = time.perf_counter()
        session = open_session()
        epoch(session, fresh_shards(), 0)
        run.setup.append(time.perf_counter() - start)
    while run.more():
        session, shards = open_session(), fresh_shards()
        with run.timed():
            for index in range(sizes.epochs_per_session):
                epoch(session, shards, index)
                if not run.more():
                    break
        check_stream_sync(run, session, shards)


STREAM_MONITOR = StreamSizes(
    sites=8, rows_per_site=4096, inner=64, active_sites=8, batch=512, tree=None,
    hh_every=10, oneshot_every=0,
    live=("live_lp_norm", "live_l0", "live_l0_sample"), epochs_per_session=50,
)

TREE_FLEET = StreamSizes(
    sites=1024, rows_per_site=32, inner=32, active_sites=64, batch=16, tree=8,
    hh_every=0, oneshot_every=5, live=("live_lp_norm", "live_l0"),
    epochs_per_session=40,
)


# -------------------------------------------------------- service_loopback
@dataclass(frozen=True)
class ServiceSizes:
    sites: int = 2
    rows: int = 512
    inner: int = 64
    batch: int = 128
    setup_reps: int = 5
    period: ClassVar[int] = 1
    min_cycles: ClassVar[int] = MIN_CYCLES


SERVICE_QUERIES = (
    ("lp_norm", {"p": 2.0, "epsilon": 0.3}),
    ("join_size", {"epsilon": 0.3}),
    ("natural_join_size", {}),
    ("heavy_hitters", {"phi": 0.1, "epsilon": 0.05}),
    ("l0_sample", {"epsilon": 0.3}),
)


def service_loopback(run: Run, seed: int, sizes: ServiceSizes) -> None:
    """A real loopback cluster: site OS processes, one client connection.

    Every answer is checked as it arrives (observed bytes × 8 == wire bits,
    the paper's round counts, exact natural joins, non-zero samples), and
    after the cluster is down the whole script is replayed on an
    in-process ``ClusterEstimator`` with the same seed: every remote answer
    must equal its in-process twin bit for bit.
    """
    from repro.service.client import local_cluster

    static_rng, update_rng = input_streams(seed)
    a = static_rng.integers(0, 3, size=(sizes.rows, sizes.inner)).astype(np.int64)
    b = static_rng.integers(0, 3, size=(sizes.inner, sizes.inner)).astype(np.int64)
    shards = np.array_split(a, sizes.sites)
    offsets = np.cumsum([0] + [shard.shape[0] for shard in shards])
    row_ids = [
        ZipfRows(static_rng, int(offsets[i]), shard.shape[0])
        for i, shard in enumerate(shards)
    ]
    exact = exact_stats(a, b)
    info = {"k": sizes.sites, "b_shape": list(b.shape), "seed": seed,
            "is_binary": False, "row_counts": [s.shape[0] for s in shards]}

    def batches():
        out = []
        for site in range(sizes.sites):
            rows = row_ids[site].draw(update_rng, sizes.batch)
            deltas = update_rng.integers(-2, 3, size=(sizes.batch, sizes.inner))
            out.append({"site": site, "rows": rows, "deltas": deltas})
        return out

    warm_batches = batches()

    def ask(client, script, kind, method, **kwargs):
        answer = run.op(kind, client.query, method, **kwargs)
        script.append((method, kwargs, answer))
        report = client.last_service
        if report is not None:
            run.check(report["observed_bytes"] * 8 == report["wire_bits"],
                      f"{method}: observed bytes x 8 != wire bits")
            for site, wire_bits in report["wire_link_bits"].items():
                run.check(report["observed_link_bytes"].get(site, 0) * 8 == wire_bits,
                          f"{method}: link {site} observed bytes x 8 != wire bits")
        return answer

    def cycle(client, script, ingest):
        run.check(ask(client, script, "query", "info") == info, "info mismatch")
        for method, kwargs in SERVICE_QUERIES:
            result = ask(client, script, "query", method, **kwargs)
            check_result(run, method, result, exact)
            if result is not None:
                run.add_bits(result.cost.total_bits, query=True)
        for batch in ingest:
            ask(client, script, "ingest", "stream_ingest", **batch)
            if run.timing:
                run.rows_ingested += sizes.batch
        run.add_epoch(ask(client, script, "epoch", "stream_end_epoch"))
        ask(client, script, "live", "stream_live_lp_norm", p=2.0)
        run.end_cycle()

    for rep in range(sizes.setup_reps):
        start = time.perf_counter()
        with stdout_to_stderr(), local_cluster(shards, b, seed=seed) as (server, client):
            script: list[tuple[str, dict, Any]] = []
            ask(client, script, "open", "stream_open")
            cycle(client, script, warm_batches)
            run.setup.append(time.perf_counter() - start)
            if rep == sizes.setup_reps - 1:
                with run.timed():
                    while run.more():
                        cycle(client, script, batches())
                retries = server.metrics.get("repro_link_retries_total")
                run.retries = sum(retries.samples().values()) if retries else 0.0
    replay_service(run, shards, b, seed, script)


def replay_service(run: Run, shards, b, seed: int, script) -> None:
    """Replay the service script in process; every answer must match."""
    from repro import ClusterEstimator

    estimator = ClusterEstimator(shards, b, seed=seed)
    session = None
    for method, kwargs, remote in script:
        if method == "info" or remote is None:
            continue
        if method == "stream_open":
            session = estimator.stream(**kwargs)
            continue
        if method == "stream_ingest":
            session.ingest(kwargs["site"], kwargs["rows"], kwargs["deltas"])
            continue
        if method.startswith("stream_"):
            local = getattr(session, method[len("stream_"):])(**kwargs)
        else:
            local = getattr(estimator, method)(**kwargs)
        if method == "stream_end_epoch":
            same = (remote.upload_bytes, remote.cumulative_bytes) == (
                local.upload_bytes, local.cumulative_bytes)
        elif hasattr(local, "cost"):
            same = canonical(remote.value) == canonical(local.value) and (
                remote.cost.total_bits, remote.cost.rounds
            ) == (local.cost.total_bits, local.cost.rounds)
        else:
            same = canonical(remote) == canonical(local)
        run.check(same, f"service {method} differs from the in-process replay")


# ------------------------------------------------------------- registry
@dataclass(frozen=True)
class Workload:
    """A workload's run function with its full-size and self-test sizes.
    Why each workload exists is in ``BENCHMARK.json`` and the README."""

    name: str
    run: Callable[[Run, int, Any], None]
    sizes: Any
    tiny: Any


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "oneshot_mix", oneshot_mix, OneShotSizes(),
            OneShotSizes(rows=256, inner=32, cols=32, setup_reps=1),
        ),
        Workload(
            "stream_monitor", stream_workload, STREAM_MONITOR,
            replace(STREAM_MONITOR, rows_per_site=256, inner=16, batch=32,
                    epochs_per_session=12, setup_reps=1),
        ),
        Workload(
            "tree_fleet", stream_workload, TREE_FLEET,
            replace(TREE_FLEET, sites=64, rows_per_site=8, inner=8,
                    active_sites=16, batch=4, epochs_per_session=12,
                    setup_reps=1),
        ),
        Workload(
            "service_loopback", service_loopback, ServiceSizes(),
            ServiceSizes(rows=64, inner=8, batch=8, setup_reps=1),
        ),
    )
}
