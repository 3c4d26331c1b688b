#!/usr/bin/env python
"""CI gate for the threaded streaming path (the ``parallel-smoke`` job).

Runs the same streamed workload through a serial session and through a
session on ``Runtime("threads")``, and gates on two things:

1. **No crashes** — the thread pool must survive a real multi-epoch run
   with the worker count ``REPRO_WORKERS`` requests.
2. **Bit-exactness** — every epoch report, the byte meter and all merged
   summary states must equal the serial run's, byte for byte.  The
   executor is a performance choice, never semantics.

The threads/serial throughput ratio is printed, not gated: on a 2-CPU
host it ranged from 0.92x to 1.06x over ten runs, so a floor at serial
throughput would flake.

Exit code 0 = all gates pass.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

from repro.engine.runtime import Runtime, _default_workers
from repro.engine.streaming import StreamingSession
from repro.sketch._native import current_backend

EPOCHS = 4
BATCHES_PER_EPOCH = 8
ROWS_PER_BATCH = 2_000
INNER = 24
M = 16
SEED = 20260808


def build_workload(sites: int):
    """One deterministic multi-epoch turnstile workload, shared by all runs."""
    rng = np.random.default_rng(SEED)
    site_rows = 50_000
    plan = []  # (site, rows, deltas) in ingestion order
    for _ in range(EPOCHS):
        epoch = []
        for batch in range(BATCHES_PER_EPOCH):
            site = batch % sites
            low = site * site_rows
            rows = rng.integers(low, low + site_rows, size=ROWS_PER_BATCH)
            deltas = rng.integers(-5, 6, size=(ROWS_PER_BATCH, INNER))
            epoch.append((site, rows, deltas))
        plan.append(epoch)
    b = rng.integers(-2, 3, size=(INNER, M))
    return [site_rows] * sites, b, plan


def run(runtime: Runtime | None, row_counts, b, plan):
    session = StreamingSession(row_counts, b, seed=SEED, runtime=runtime)
    start = time.perf_counter()
    for epoch in plan:
        for site, rows, deltas in epoch:
            session.ingest(site, rows, deltas)
        session.end_epoch()
    session.sync()
    seconds = time.perf_counter() - start
    transcript = (
        [(r.shipped, r.upload_bytes, r.total_bytes) for r in session.history],
        session.network.total_bits,
        {k: s.state_array().tobytes() for k, s in session.merged.items()},
    )
    session.close()
    return transcript, seconds


def main() -> int:
    workers = _default_workers()
    cores = len(os.sched_getaffinity(0))
    total_rows = EPOCHS * BATCHES_PER_EPOCH * ROWS_PER_BATCH
    print(
        f"parallel smoke: kernel backend={current_backend()!r} "
        f"workers={workers} cores={cores}"
    )

    row_counts, b, plan = build_workload(sites=max(workers, 2))
    reference, serial_seconds = run(None, row_counts, b, plan)
    print(f"  serial:  {total_rows / serial_seconds:>12,.0f} rows/s")

    with Runtime("threads") as runtime:
        transcript, seconds = run(runtime, row_counts, b, plan)
    print(
        f"  threads: {total_rows / seconds:>12,.0f} rows/s"
        f"  ({serial_seconds / seconds:.2f}x serial)"
    )
    if transcript != reference:
        print(
            "\nPARALLEL SMOKE FAILURE: the threads run diverged from the "
            "serial transcript",
            file=sys.stderr,
        )
        return 1
    print("parallel smoke: all gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
