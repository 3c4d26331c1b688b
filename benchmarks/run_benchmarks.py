#!/usr/bin/env python
"""Machine-readable benchmark runner: sketch-kernel microbenches + trajectory.

With ``--runtime`` it additionally benchmarks the message-passing runtime
on k-site ingest, query and streamed-epoch wall-clock and appends the
record to a second trajectory (``benchmarks/BENCH_runtime.json``).

With ``--tree`` it benchmarks hierarchical aggregation (ISSUE 10): the same
per-site upload round drained through :class:`~repro.comm.network
.Network` aggregation trees of growing fan-out vs the flat star, recording drain
wall-clock, aggregator merge time, root-ingress bits and the simulated
tree-model makespan per (k, fan-out) cell, appended to
``benchmarks/BENCH_tree.json`` — root estimates are bit-identical by
contract (pinned in ``tests/engine/test_tree_equivalence.py``), so the
trajectory tracks concentration and wall-clock, not accuracy.

With ``--service`` it benchmarks the real-transport service layer
(coordinator server + site OS processes over loopback sockets): query
round-trip latency against the in-process yardstick and streamed-epoch
ingest throughput, appended to ``benchmarks/BENCH_service.json`` — the
answers are bit-identical to in-process by contract, so these too are pure
wall-clock (transport overhead) numbers.

Measures the kernel layer's three headline numbers and appends them to a
JSON trajectory (``benchmarks/BENCH_sketch.json`` by default), so the bench
history is a committed, diffable artifact instead of folklore:

* **session ingest** — construct a sketch over the universe from a seed and
  push one ``update_many`` batch through it (the unit of work every engine
  query and every streaming site performs; the pre-kernel implementations
  paid ``O(universe)`` construction here).  Where feasible, a faithful
  *legacy* (pre-kernel, dense-table) reimplementation runs the same work
  and the speedup is recorded.
* **steady state** — repeated ``update_many`` after warmup (rows/sec),
  including the matrix-valued ``L0Sampler`` updates (512 rows of 64 or 128
  columns) that engine and streaming sites run, and one site's exact
  integer product against the ``l_0`` sketch of ``B`` (``exact_matmul``,
  with NumPy's int64 loop as the ``int64_matmul`` yardstick).
* **construction** — constructor latency and resident sketch memory as the
  universe grows to ``2^30`` (the huge-universe capability: time and memory
  must be independent of ``n``).
* **streaming epoch** — ``StreamingSession`` ingest + epoch-close latency.

Modes::

    python benchmarks/run_benchmarks.py                  # full run, appends
    REPRO_BENCH_SMOKE=1 python benchmarks/run_benchmarks.py \
        --no-write --check-regression                    # CI smoke gate

``--check-regression`` compares same-mode, same-config metrics against the
last committed run and fails (exit 1) on a > ``REGRESSION_FACTOR``x
throughput drop — or on any crash, which is the other half of the CI gate.
``--experiments`` additionally runs the per-experiment pytest benches in
assertion-only mode and records their outcome.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.sketch import AmsSketch, CountSketch, L0Sampler, L0Sketch
from repro.sketch.kernels import StackedKWiseHash, exact_matmul

#: CI gate: same-config throughput may not drop below baseline / FACTOR.
REGRESSION_FACTOR = 5.0

#: Acceptance floors asserted on full runs (see ISSUE 4 / README).
MIN_SESSION_SPEEDUP = 5.0
MAX_HUGE_CONSTRUCT_SECONDS = 1.0

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_sketch.json"
DEFAULT_RUNTIME_OUTPUT = Path(__file__).resolve().parent / "BENCH_runtime.json"
DEFAULT_SERVICE_OUTPUT = Path(__file__).resolve().parent / "BENCH_service.json"
DEFAULT_TREE_OUTPUT = Path(__file__).resolve().parent / "BENCH_tree.json"

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: (universe, batch, steady-state repeats, construction universes)
if SMOKE:
    UNIVERSE = 1 << 14
    BATCH = 5_000
    REPEATS = 3
    CONSTRUCTION_UNIVERSES = [1 << 10, 1 << 14, 1 << 30]
    LEGACY_AMS_UNIVERSE = 1 << 14
    LEGACY_L0_UNIVERSE = 1 << 12
else:
    UNIVERSE = 1 << 20
    BATCH = 100_000
    REPEATS = 5
    CONSTRUCTION_UNIVERSES = [1 << 10, 1 << 20, 1 << 30]
    LEGACY_AMS_UNIVERSE = 1 << 20
    LEGACY_L0_UNIVERSE = 1 << 16

DEPTH = 5
WIDTH = 256
AMS_ROWS = 64
L0_BUCKETS = 64
SAMPLER_REPS = 8

#: Matrix-valued sampler legs: one site's batch of matrix rows, as the
#: streaming monitor (hash mode) and the one-shot ``l0_sample`` (dense mode)
#: feed it.  Small enough to run unchanged in smoke mode.
MATRIX_BATCH = 512
#: (mode, universe, value columns) per leg.
MATRIX_SAMPLER_CASES = {
    "sampler_hash_matrix": ("hash", UNIVERSE, 64),
    "sampler_dense_matrix": ("dense", 1 << 12, 128),
}

#: Exact integer product legs: one site's 512 x 128 binary shard against the
#: ``l_0`` sketch of a 128 x 128 binary ``B`` at the lp_norm round-2 accuracy
#: ``sqrt(0.3)`` (216 sketch rows), the ``join_size`` product of the e2e
#: ``oneshot_mix`` workload.  ``int64_matmul`` is NumPy's int64 loop, the
#: yardstick ``exact_matmul`` must stay well ahead of.
PRODUCT_SHARD = (512, 128)
PRODUCT_EPSILON = 0.3**0.5


def timed(fn, repeats: int = 1) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def sketch_memory_bytes(sketch) -> int:
    """Resident ndarray bytes of a sketch (including nested hash objects)."""
    total = 0
    for value in vars(sketch).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, dict):
            total += sum(
                inner.nbytes for inner in value.values() if isinstance(inner, np.ndarray)
            )
        elif hasattr(value, "__dict__"):
            total += sum(
                inner.nbytes
                for inner in vars(value).values()
                if isinstance(inner, np.ndarray)
            )
    return total


def rows_of(case: str) -> int:
    """The case's true sketch dimension, recorded in its config record."""
    if case.startswith("ams"):
        return AMS_ROWS
    if case.startswith("sampler"):
        return SAMPLER_REPS * 3  # repetitions x (s0, s1, fingerprint) per level
    if case.startswith("l0"):
        return L0_BUCKETS  # buckets per subsampling level
    return DEPTH


def make_stream(n: int, batch: int):
    rng = np.random.default_rng(97)
    indices = rng.integers(0, n, size=batch).astype(np.int64)
    values = rng.integers(-8, 9, size=batch).astype(np.int64)
    return indices, values


# --------------------------------------------------------------------- legacy
# Faithful reimplementations of the pre-kernel (PR 3 era) hot paths, kept
# here so the recorded speedups always compare against the same yardstick.


class LegacyCountSketch:
    """Dense universe-sized bucket/sign tables + per-depth np.add.at."""

    def __init__(self, n: int, width: int, depth: int, rng: np.random.Generator):
        keys = np.arange(n)
        self.width = width
        self.depth = depth
        self.bucket_of = StackedKWiseHash(2, depth, rng).buckets(keys, width)
        self.sign_of = StackedKWiseHash(4, depth, rng).signs(keys)
        self.table = np.zeros((depth, width))

    def update_many(self, indices, deltas):
        for row in range(self.depth):
            np.add.at(
                self.table[row],
                self.bucket_of[row, indices],
                self.sign_of[row, indices] * deltas,
            )


class LegacyAms:
    """Dense +-1 matrix drawn via rng.choice + gather matmul."""

    def __init__(self, n: int, num_rows: int, rng: np.random.Generator):
        self.matrix = rng.choice(np.array([-1.0, 1.0]), size=(num_rows, n))
        self.state = None

    def update_many(self, indices, values):
        contribution = self.matrix[:, indices] @ values
        self.state = contribution if self.state is None else self.state + contribution


class LegacyL0Sketch:
    """Dense (levels * k, n) sketch matrix + gather matmul."""

    def __init__(self, n: int, buckets_per_level: int, rng: np.random.Generator):
        import math

        self.k = buckets_per_level
        self.levels = int(math.ceil(math.log2(max(n, 2)))) + 1
        priorities = rng.uniform(0.0, 1.0, size=n)
        buckets = rng.integers(0, self.k, size=n)
        coefficients = rng.integers(1, 1 << 20, size=n, dtype=np.int64)
        matrix = np.zeros((self.levels * self.k, n), dtype=np.int64)
        thresholds = 2.0 ** (-np.arange(self.levels))
        for level in range(self.levels):
            alive = priorities < thresholds[level]
            rows = level * self.k + buckets[alive]
            matrix[rows, np.flatnonzero(alive)] = coefficients[alive]
        self.matrix = matrix
        self.state = None

    def update_many(self, indices, values):
        contribution = self.matrix[:, indices] @ values
        self.state = contribution if self.state is None else self.state + contribution


# ------------------------------------------------------------------- benches
def bench_session_ingest(metrics: dict) -> None:
    """Construct + one batch + state extraction: the per-query unit of work."""
    indices, values = make_stream(UNIVERSE, BATCH)

    def session(build, update):
        def run():
            sketch = build()
            update(sketch)
            getattr(sketch, "state_array", lambda: getattr(sketch, "state", None))()

        return run

    cases = {
        "countsketch": (
            lambda: CountSketch(UNIVERSE, WIDTH, DEPTH, np.random.default_rng(1)),
            lambda s: s.update_many(indices, values),
        ),
        "countsketch_legacy": (
            lambda: LegacyCountSketch(UNIVERSE, WIDTH, DEPTH, np.random.default_rng(1)),
            lambda s: s.update_many(indices, values),
        ),
        "ams_hash": (
            lambda: AmsSketch(UNIVERSE, AMS_ROWS, np.random.default_rng(1), mode="hash"),
            lambda s: s.update_many(indices, values),
        ),
        "l0_dense": (
            lambda: L0Sketch(UNIVERSE, L0_BUCKETS, np.random.default_rng(1)),
            lambda s: s.update_many(indices, values),
        ),
        "l0_hash": (
            lambda: L0Sketch(UNIVERSE, L0_BUCKETS, np.random.default_rng(1), mode="hash"),
            lambda s: s.update_many(indices, values),
        ),
        "sampler_hash": (
            lambda: L0Sampler(
                UNIVERSE, np.random.default_rng(1), repetitions=SAMPLER_REPS, mode="hash"
            ),
            lambda s: s.update_many(indices, values),
        ),
    }
    for name, (build, update) in cases.items():
        seconds = timed(session(build, update), repeats=2 if "legacy" not in name else 1)
        metrics[f"session_ingest/{name}"] = {
            "config": {"n": UNIVERSE, "batch": BATCH, "rows": rows_of(name)},
            "seconds": seconds,
            "rows_per_sec": BATCH / seconds,
        }

    # The AMS legacy yardstick at the full universe is expensive (rng.choice
    # draws the whole dense matrix — that is the point); run it once.
    ams_idx, ams_vals = make_stream(LEGACY_AMS_UNIVERSE, BATCH)
    seconds = timed(
        session(
            lambda: LegacyAms(LEGACY_AMS_UNIVERSE, AMS_ROWS, np.random.default_rng(1)),
            lambda s: s.update_many(ams_idx, ams_vals),
        )
    )
    metrics["session_ingest/ams_legacy"] = {
        "config": {"n": LEGACY_AMS_UNIVERSE, "batch": BATCH, "rows": AMS_ROWS},
        "seconds": seconds,
        "rows_per_sec": BATCH / seconds,
    }

    # The dense l0 matrix does not fit in memory at 2^20 with the bench's
    # bucket count — which is exactly the capability gap — so its yardstick
    # runs at a smaller universe and is recorded as such.
    l0_idx, l0_vals = make_stream(LEGACY_L0_UNIVERSE, BATCH)
    seconds = timed(
        session(
            lambda: LegacyL0Sketch(LEGACY_L0_UNIVERSE, 16, np.random.default_rng(1)),
            lambda s: s.update_many(l0_idx, l0_vals),
        )
    )
    metrics["session_ingest/l0_legacy"] = {
        "config": {"n": LEGACY_L0_UNIVERSE, "batch": BATCH, "buckets": 16},
        "seconds": seconds,
        "rows_per_sec": BATCH / seconds,
    }


def bench_steady_state(metrics: dict) -> None:
    indices, values = make_stream(UNIVERSE, BATCH)
    cases = {
        "countsketch": CountSketch(UNIVERSE, WIDTH, DEPTH, np.random.default_rng(2)),
        "ams_hash": AmsSketch(UNIVERSE, AMS_ROWS, np.random.default_rng(2), mode="hash"),
        "l0_dense": L0Sketch(UNIVERSE, L0_BUCKETS, np.random.default_rng(2)),
        "sampler_hash": L0Sampler(
            UNIVERSE, np.random.default_rng(2), repetitions=SAMPLER_REPS, mode="hash"
        ),
    }
    for name, sketch in cases.items():
        warmups = 12 if name == "countsketch" else 2  # let the dense cache kick in
        for _ in range(warmups):
            sketch.update_many(indices, values)
        seconds = timed(lambda s=sketch: s.update_many(indices, values), REPEATS)
        metrics[f"steady_state/{name}"] = {
            "config": {"n": UNIVERSE, "batch": BATCH, "rows": rows_of(name)},
            "seconds": seconds,
            "rows_per_sec": BATCH / seconds,
        }

    # Matrix-valued updates (one sketch column per input column): the
    # sampler path every engine site and streaming site runs.
    rng = np.random.default_rng(98)
    for name, (mode, n, columns) in MATRIX_SAMPLER_CASES.items():
        sketch = L0Sampler(n, np.random.default_rng(2), repetitions=SAMPLER_REPS, mode=mode)
        batch_indices = rng.integers(0, n, size=MATRIX_BATCH).astype(np.int64)
        batch_values = rng.integers(-8, 9, size=(MATRIX_BATCH, columns)).astype(np.int64)
        sketch.update_many(batch_indices, batch_values)  # warm
        seconds = timed(
            lambda s=sketch: s.update_many(batch_indices, batch_values), REPEATS
        )
        metrics[f"steady_state/{name}"] = {
            "config": {
                "n": n,
                "batch": MATRIX_BATCH,
                "columns": columns,
                "rows": rows_of(name),
            },
            "seconds": seconds,
            "rows_per_sec": MATRIX_BATCH / seconds,
        }

    # Exact integer product: a site's round-2 shard times the l0 sketch of B.
    rng = np.random.default_rng(99)
    rows, inner = PRODUCT_SHARD
    shard = (rng.random((rows, inner)) < 0.1).astype(np.int64)
    b = (rng.random((inner, inner)) < 0.1).astype(np.int64)
    sketch = L0Sketch.for_accuracy(inner, PRODUCT_EPSILON, np.random.default_rng(2))
    sketched_b = sketch.apply(b.T).T  # (inner, sketch rows), as lp_norm uses it
    for name, product in {
        "exact_matmul": lambda: exact_matmul(shard, sketched_b),
        "int64_matmul": lambda: shard @ sketched_b,
    }.items():
        product()  # warm
        seconds = timed(product, REPEATS)
        metrics[f"steady_state/{name}"] = {
            "config": {"rows": rows, "inner": inner, "cols": sketched_b.shape[1]},
            "seconds": seconds,
            "rows_per_sec": rows / seconds,
        }


def bench_construction(metrics: dict) -> None:
    builders = {
        "countsketch": lambda n: CountSketch(n, WIDTH, DEPTH, np.random.default_rng(3)),
        "ams_hash": lambda n: AmsSketch(n, AMS_ROWS, np.random.default_rng(3), mode="hash"),
        "l0_hash": lambda n: L0Sketch(n, L0_BUCKETS, np.random.default_rng(3), mode="hash"),
        "sampler_hash": lambda n: L0Sampler(
            n, np.random.default_rng(3), repetitions=SAMPLER_REPS, mode="hash"
        ),
    }
    for name, build in builders.items():
        for n in CONSTRUCTION_UNIVERSES:
            seconds = timed(lambda: build(n), repeats=3)
            metrics[f"construction/{name}/n={n}"] = {
                "config": {"n": n},
                "seconds": seconds,
                "memory_bytes": sketch_memory_bytes(build(n)),
            }


def bench_streaming_epoch(metrics: dict) -> None:
    from repro.engine.streaming import StreamingSession

    rows = 256 if SMOKE else 1024
    inner = 32
    session = StreamingSession([rows // 2, rows // 2], np.eye(inner, dtype=np.int64), seed=5)
    rng = np.random.default_rng(6)
    deltas = rng.integers(-2, 3, size=(rows // 2, inner)).astype(np.int64)

    def one_epoch():
        for site in range(2):
            offset = session.sites[site].row_offset
            session.ingest(site, offset + np.arange(rows // 2), deltas)
        session.end_epoch()

    one_epoch()  # warm
    seconds = timed(one_epoch, REPEATS)
    metrics["streaming/epoch"] = {
        "config": {"rows": rows, "inner": inner, "sites": 2},
        "seconds": seconds,
        "rows_per_sec": rows / seconds,
    }


def bench_runtime(metrics: dict) -> None:
    """The runtime's k-site legs: ingest, query and epoch clock.

    *Ingest* is the one-round ``l0_sample`` protocol (every site pushes its
    whole shard through two sketches — the engine's ``update_many`` fan-out);
    *query* is the two-round ``lp_norm(p=2)`` protocol (matmul-heavy per-site
    round 2); *stream epoch* is a full ``StreamingSession`` epoch (ingest
    every site + close).  The per-site work runs inline on the calling
    thread.  The ``/serial`` suffix keeps the metric names the committed
    trajectory holds, so the regression gate finds its baselines.
    """
    from repro import ClusterEstimator
    from repro.engine import StreamingSession

    k = 4
    rows = 512 if SMOKE else 4096
    inner = 48 if SMOKE else 192
    repeats = 2 if SMOKE else 3
    rng = np.random.default_rng(11)
    a = rng.integers(0, 3, size=(rows, inner)).astype(np.int64)
    b = rng.integers(0, 3, size=(inner, inner)).astype(np.int64)
    # cpu_count is recorded on the run record, NOT in this config: the
    # regression gate only compares same-config metrics, and a host
    # property in the config would silently retire the gate on any machine
    # unlike the baseline's.
    config = {"rows": rows, "inner": inner, "sites": k}

    legs = {
        "ingest_l0_sample": lambda cluster: cluster.l0_sample(0.3),
        "query_lp2": lambda cluster: cluster.lp_norm(2.0, 0.3),
    }
    cluster = ClusterEstimator.from_matrix(a, b, k, seed=11)
    for leg, query in legs.items():
        seconds = timed(lambda q=query: q(cluster), repeats)
        metrics[f"runtime/{leg}/serial"] = {
            "config": config,
            "seconds": seconds,
            "rows_per_sec": rows / seconds,
        }

    site_rows = rows // k
    row_starts = [k_i * site_rows for k_i in range(k)]
    batch = rng.integers(-2, 3, size=(site_rows, inner)).astype(np.int64)
    session = StreamingSession([site_rows] * k, b, seed=11)

    def one_epoch():
        for site, start in enumerate(row_starts):
            session.ingest(site, start + np.arange(site_rows), batch)
        session.end_epoch()

    one_epoch()  # warm
    seconds = timed(one_epoch, repeats)
    metrics["runtime/stream_epoch/serial"] = {
        "config": config,
        "seconds": seconds,
        "rows_per_sec": rows / seconds,
    }
    session.close()


def bench_service(metrics: dict) -> None:
    """The service layer over real loopback sockets: latency and throughput.

    Spawns one coordinator server plus k site OS processes
    (:func:`repro.service.client.local_cluster`) and measures:

    * **ping** — an ``info`` query round trip (pure service overhead: two
      frames, no protocol traffic);
    * **query** — ``lp_norm(p=2)`` end-to-end over the sockets, with the
      same query on an in-process estimator as the yardstick (the answers
      are bit-identical by contract, so the gap is purely transport);
    * **stream ingest** — a full streamed epoch (ingest every site + sync),
      deltas travelling as real wire bytes.
    """
    from repro import ClusterEstimator
    from repro.service.client import local_cluster

    k = 4
    rows = 128 if SMOKE else 512
    inner = 24 if SMOKE else 64
    repeats = 2 if SMOKE else 3
    rng = np.random.default_rng(13)
    a = rng.integers(0, 3, size=(rows, inner)).astype(np.int64)
    b = rng.integers(0, 3, size=(inner, inner)).astype(np.int64)
    shards = np.array_split(a, k, axis=0)
    config = {"rows": rows, "inner": inner, "sites": k}

    reference = ClusterEstimator(shards, b, seed=13)
    seconds = timed(lambda: reference.lp_norm(2.0, 0.3), repeats)
    metrics["service/query_lp2_inprocess"] = {
        "config": config,
        "seconds": seconds,
        "rows_per_sec": rows / seconds,
    }

    with local_cluster(shards, b, seed=13) as (_server, client):
        seconds = timed(lambda: client.query("info"), repeats=max(repeats, 3))
        metrics["service/ping"] = {"config": {"sites": k}, "seconds": seconds}

        seconds = timed(lambda: client.query("lp_norm", p=2.0, epsilon=0.3), repeats)
        report = client.last_service
        metrics["service/query_lp2"] = {
            "config": config,
            "seconds": seconds,
            "rows_per_sec": rows / seconds,
            "observed_bytes": report["observed_bytes"],
        }

        client.query("stream_open")
        offsets = np.cumsum([0] + [shard.shape[0] for shard in shards])

        def one_epoch():
            for index, shard in enumerate(shards):
                client.query(
                    "stream_ingest",
                    site=index,
                    rows=offsets[index] + np.arange(shard.shape[0]),
                    deltas=shard,
                )
            client.query("stream_sync")

        one_epoch()  # warm
        seconds = timed(one_epoch, repeats)
        metrics["service/stream_epoch"] = {
            "config": config,
            "seconds": seconds,
            "rows_per_sec": rows / seconds,
        }

    # Multi-tenant load generator (ISSUE 8): Zipf-skewed tenants, open-loop
    # arrivals, in-process SessionManager.  run_load gates crash-freedom,
    # exact per-tenant==aggregate accounting, quota enforcement and a
    # parseable metrics render; the record rides the same regression gate.
    from service_load import run_load

    metrics["service/multi_tenant"] = run_load(50 if SMOKE else 1000, seed=13)


def bench_tree(metrics: dict) -> None:
    """Tree-aggregation scaling: drain wall-clock + concentration per cell.

    One upload round per (k, fan-out) cell: every site ships a mergeable
    summary upstream and the staged groups drain bottom-up.  ``seconds`` is
    the measured wall-clock of the full upload + drain (``rows_per_sec`` =
    sites drained per second — the gated throughput), ``merge_seconds`` the
    aggregators' summing time within it, and the bit columns record the
    fan-in concentration the tree exists for.  The ``flat`` cell is the
    depth-1 spec priced under the SAME tree makespan model, so the
    ``makespan_s`` comparison is honest.
    """
    from repro.comm.conditions import LinkModel, NetworkConditions
    from repro.comm.network import Network
    from repro.comm.tree import TreeSpec

    k_values = (100, 1_000) if SMOKE else (100, 1_000, 10_000)
    fan_outs = (2, 8) if SMOKE else (2, 8, 32)
    per_site_bits = 16_384 if SMOKE else 65_536
    repeats = 2 if SMOKE else 3
    conditions = NetworkConditions(LinkModel(latency=1e-3, bandwidth=1e6))
    summary = np.ones(4, dtype=np.int64)

    for k in k_values:
        names = [f"site-{i}" for i in range(k)]
        cells: list[tuple[str, object]] = [("flat", TreeSpec.flat(names))]
        cells += [
            (f"fan{fan_out}", TreeSpec.regular(names, fan_out))
            for fan_out in fan_outs
            if fan_out < k
        ]
        for label, tree in cells:
            last = {}

            def one_round():
                network = Network(names, conditions=conditions, tree=tree)
                for name in names:
                    network.send(
                        name, tree.root, summary, label="partial", bits=per_site_bits
                    )
                network._drain()
                last["network"] = network

            seconds = timed(one_round, repeats)
            network = last["network"]
            makespan, _ = network.simulate()
            metrics[f"tree/upload/k={k}/{label}"] = {
                "config": {"k": k, "shape": label, "per_site_bits": per_site_bits},
                "seconds": seconds,
                "rows_per_sec": k / seconds,  # sites drained per second
                "merge_seconds": network.merge_seconds,
                "merges": network.merges,
                "total_bits": network.total_bits,
                "root_ingress_bits": sum(network.root_link_bits().values()),
                "max_root_link_bits": network.max_root_link_bits,
                "makespan_s": makespan,
            }


def compute_tree_gains(metrics: dict) -> dict:
    """Flat-vs-tree ratios per k: makespan speedup and fan-in concentration."""
    gains: dict[str, float] = {}
    flat = {
        record["config"]["k"]: record
        for key, record in metrics.items()
        if key.startswith("tree/upload/") and key.endswith("/flat")
    }
    for key, record in metrics.items():
        if not key.startswith("tree/upload/") or key.endswith("/flat"):
            continue
        base = flat.get(record["config"]["k"])
        if not base:
            continue
        cell = f"k={record['config']['k']}/{record['config']['shape']}"
        if record["makespan_s"]:
            gains[f"{cell}/makespan_speedup"] = (
                base["makespan_s"] / record["makespan_s"]
            )
        gains[f"{cell}/root_ingress_reduction"] = (
            base["root_ingress_bits"] / record["root_ingress_bits"]
        )
    return gains


def compute_service_overheads(metrics: dict) -> dict:
    """Socket-vs-in-process wall-clock ratio (>= 1: transport overhead)."""
    served = metrics.get("service/query_lp2")
    inprocess = metrics.get("service/query_lp2_inprocess")
    if served and inprocess:
        return {"query_lp2/socket_overhead": served["seconds"] / inprocess["seconds"]}
    return {}


def run_experiment_benches(metrics: dict) -> None:
    """Run the per-experiment pytest benches (assertion-only) and record."""
    bench_dir = Path(__file__).resolve().parent
    targets = [
        bench_dir / "bench_e01_lp_norm.py",
        bench_dir / "bench_e14_multiparty.py",
        bench_dir / "bench_e15_streaming.py",
    ]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", *map(str, targets)],
        capture_output=True,
        text=True,
    )
    metrics["experiments/pytest_benches"] = {
        "config": {"targets": [t.name for t in targets]},
        "seconds": time.perf_counter() - start,
        "passed": proc.returncode == 0,
    }
    if proc.returncode != 0:
        print(proc.stdout[-2000:], file=sys.stderr)
        raise SystemExit("per-experiment benches failed")


# ------------------------------------------------------------------ plumbing
def compute_speedups(metrics: dict) -> dict:
    speedups = {}
    pairs = {
        "countsketch": ("session_ingest/countsketch", "session_ingest/countsketch_legacy"),
        "ams": ("session_ingest/ams_hash", "session_ingest/ams_legacy"),
        "l0": ("session_ingest/l0_hash", "session_ingest/l0_legacy"),
    }
    for name, (new, old) in pairs.items():
        if new in metrics and old in metrics:
            speedups[name] = metrics[old]["seconds"] / metrics[new]["seconds"]
    return speedups


def check_acceptance(metrics: dict, speedups: dict) -> list[str]:
    failures = []
    if not SMOKE:
        for family in ("countsketch", "ams"):
            if speedups.get(family, 0.0) < MIN_SESSION_SPEEDUP:
                failures.append(
                    f"session-ingest speedup for {family} is "
                    f"{speedups.get(family, 0.0):.1f}x < {MIN_SESSION_SPEEDUP}x"
                )
    for key, record in metrics.items():
        if key.startswith("construction/") and key.endswith(f"n={1 << 30}"):
            if record["seconds"] > MAX_HUGE_CONSTRUCT_SECONDS:
                failures.append(f"{key} took {record['seconds']:.2f}s > 1s")
            if record["memory_bytes"] > 64 << 20:
                failures.append(f"{key} resides in {record['memory_bytes']} bytes")
    return failures


def check_regression(metrics: dict, baseline_runs: list[dict], mode: str) -> list[str]:
    """Same-mode, same-config throughput must stay within REGRESSION_FACTOR.

    Only the metrics this run produced are compared, so a retired leg that
    the committed history still records is simply not looked up.
    """
    previous = None
    for run in reversed(baseline_runs):
        if run.get("mode") == mode:
            previous = run
            break
    if previous is None:
        return []
    failures = []
    for key, record in metrics.items():
        base = previous["metrics"].get(key)
        if not base:
            print(f"regression gate: no baseline for {key}; not compared", file=sys.stderr)
            continue
        if base.get("config") != record.get("config"):
            # Fail-open is acceptable only if it is loud: a config change
            # (or a relabel) must not silently retire a gated metric.
            print(
                f"regression gate: config changed for {key} "
                f"({base.get('config')} -> {record.get('config')}); not compared",
                file=sys.stderr,
            )
            continue
        new_rate = record.get("rows_per_sec")
        old_rate = base.get("rows_per_sec")
        if new_rate and old_rate and new_rate < old_rate / REGRESSION_FACTOR:
            failures.append(
                f"{key}: {new_rate:,.0f} rows/s is more than "
                f"{REGRESSION_FACTOR}x below baseline {old_rate:,.0f} rows/s"
            )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--no-write", action="store_true", help="do not append the run to the trajectory"
    )
    parser.add_argument(
        "--check-regression",
        action="store_true",
        help="fail on >%sx throughput drop vs the last same-mode baseline run"
        % REGRESSION_FACTOR,
    )
    parser.add_argument(
        "--experiments", action="store_true", help="also run the pytest experiment benches"
    )
    parser.add_argument(
        "--runtime",
        action="store_true",
        help="also run the runtime's k-site ingest, query and epoch "
        "benches, tracked in their own trajectory file",
    )
    parser.add_argument("--runtime-output", type=Path, default=DEFAULT_RUNTIME_OUTPUT)
    parser.add_argument(
        "--service",
        action="store_true",
        help="also benchmark the service layer over real loopback sockets "
        "(coordinator server + site processes), tracked in its own "
        "trajectory file",
    )
    parser.add_argument("--service-output", type=Path, default=DEFAULT_SERVICE_OUTPUT)
    parser.add_argument(
        "--tree",
        action="store_true",
        help="also benchmark hierarchical aggregation (flat star vs fan-out "
        "trees up to k=10^4 sites), tracked in its own trajectory file",
    )
    parser.add_argument("--tree-output", type=Path, default=DEFAULT_TREE_OUTPUT)
    args = parser.parse_args()

    mode = "smoke" if SMOKE else "full"
    metrics: dict = {}
    bench_session_ingest(metrics)
    bench_steady_state(metrics)
    bench_construction(metrics)
    bench_streaming_epoch(metrics)
    if args.experiments:
        run_experiment_benches(metrics)

    speedups = compute_speedups(metrics)

    def stamp(run_metrics: dict, run_speedups: dict) -> dict:
        return {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "mode": mode,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count() or 1,
            "metrics": run_metrics,
            "speedups": run_speedups,
        }

    def load_history(path: Path) -> dict:
        if path.exists():
            return json.loads(path.read_text())
        return {"schema": 1, "runs": []}

    history = load_history(args.output)

    failures = check_acceptance(metrics, speedups)
    if args.check_regression:
        failures += check_regression(metrics, history.get("runs", []), mode)

    runtime_metrics: dict = {}
    runtime_history: dict = {}
    if args.runtime:
        bench_runtime(runtime_metrics)
        runtime_history = load_history(args.runtime_output)
        if args.check_regression:
            failures += check_regression(
                runtime_metrics, runtime_history.get("runs", []), mode
            )

    service_metrics: dict = {}
    service_speedups: dict = {}
    service_history: dict = {}
    if args.service:
        bench_service(service_metrics)
        service_speedups = compute_service_overheads(service_metrics)
        service_history = load_history(args.service_output)
        if args.check_regression:
            failures += check_regression(
                service_metrics, service_history.get("runs", []), mode
            )

    tree_metrics: dict = {}
    tree_gains: dict = {}
    tree_history: dict = {}
    if args.tree:
        bench_tree(tree_metrics)
        tree_gains = compute_tree_gains(tree_metrics)
        tree_history = load_history(args.tree_output)
        if args.check_regression:
            failures += check_regression(
                tree_metrics, tree_history.get("runs", []), mode
            )

    for table, table_speedups in (
        (metrics, speedups),
        (runtime_metrics, {}),
        (service_metrics, service_speedups),
        (tree_metrics, tree_gains),
    ):
        for key in sorted(table):
            record = table[key]
            rate = record.get("rows_per_sec")
            extra = f"  {rate:>12,.0f} rows/s" if rate else ""
            print(f"{key:<45} {record['seconds']*1e3:>10.2f} ms{extra}")
        for name, factor in sorted(table_speedups.items()):
            print(f"speedup/{name:<37} {factor:>10.1f} x")

    if not args.no_write:
        history.setdefault("runs", []).append(stamp(metrics, speedups))
        args.output.write_text(json.dumps(history, indent=1) + "\n")
        print(f"appended {mode} run to {args.output}")
        if args.runtime:
            runtime_record = stamp(runtime_metrics, {})
            runtime_history.setdefault("runs", []).append(runtime_record)
            args.runtime_output.write_text(json.dumps(runtime_history, indent=1) + "\n")
            print(f"appended {mode} run to {args.runtime_output}")
        if args.service:
            service_record = stamp(service_metrics, service_speedups)
            service_history.setdefault("runs", []).append(service_record)
            args.service_output.write_text(json.dumps(service_history, indent=1) + "\n")
            print(f"appended {mode} run to {args.service_output}")
        if args.tree:
            tree_record = stamp(tree_metrics, tree_gains)
            tree_history.setdefault("runs", []).append(tree_record)
            args.tree_output.write_text(json.dumps(tree_history, indent=1) + "\n")
            print(f"appended {mode} run to {args.tree_output}")

    if failures:
        print("\nBENCH FAILURES:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
