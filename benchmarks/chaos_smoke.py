#!/usr/bin/env python
"""Chaos smoke: one real loopback cluster under injected faults (ISSUE 9 gate).

One coordinator, four ``repro-site`` OS processes, simulated conditions with
one straggler link and a ``quorum=(4, 1)`` policy — then faults, in order:

* **quorum one-shot** — the straggler's 5 s simulated link leaves the
  critical path: the answer names ``site-3`` as the excluded straggler, its
  simulated makespan beats the straggler latency, the wall clock beats the
  coordinator deadline, and the value is bit-identical to an in-process
  reference running the same quorum policy;
* **transient refusal** — ``site-2 --flaky 1`` refuses its first protocol
  request; the link retries and ``repro_link_retries_total`` counts it;
* **mid-stream timeout** — ``site-1 --delay 6 --delay-after 2`` naps through
  its first epoch-boundary upload, past the 3 s coordinator deadline: the
  boundary degrades (``ServiceError`` + structured degradation report,
  site-1 dropped from the session) instead of wedging;
* **restore + late merge** — site-1 is restored, the next boundary closes
  with quorum met, and the straggler's previous-epoch delta is folded in
  (``late_merged``), with ``collect_late`` draining the rest;
* **bit-exact recovery** — after the drop/restore and the late folds, the
  live estimates equal the in-process reference session exactly;
* **SIGKILL** — site-0 dies; the next query answers *degraded* over the
  surviving sub-cluster within the deadline budget, never an error;
* **scrape** — ``GET /metrics`` parses as Prometheus text and shows the
  quorum shortfalls, late merges, retries, and (zero) quarantined sites.

Run: ``python benchmarks/chaos_smoke.py`` (CI: the chaos-smoke job).
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.comm.conditions import LinkModel, NetworkConditions  # noqa: E402
from repro.engine.runtime import QuorumPolicy, Runtime  # noqa: E402
from repro import ClusterEstimator  # noqa: E402
from repro.service.client import connect  # noqa: E402
from repro.service.messages import ServiceError  # noqa: E402
from repro.service.metrics import parse_metrics_text  # noqa: E402
from repro.service.server import CoordinatorServer  # noqa: E402

SEED = 7
NUM_SITES = 4
#: Coordinator per-site reply deadline, real seconds.
DEADLINE = 3.0
#: site-1's injected mid-stream nap — longer than DEADLINE, so the epoch
#: boundary's upload request times out for real.
SITE_DELAY = 6.0
#: site-3's *simulated* link latency — past the simulated deadline below,
#: so it is the every-epoch straggler and the one-shot quorum victim.
STRAGGLER_LATENCY = 5.0

#: Per-site chaos flags (see ``repro-site --help``).  site-1's counter:
#: the baseline one-shot costs it two protocol requests (downstream round
#: + upstream echo), so ``--delay-after 2`` makes exactly its *first
#: epoch-boundary upload* the one that naps.
SITE_CHAOS = {
    1: ["--delay", str(SITE_DELAY), "--delay-after", "2", "--delay-count", "1"],
    2: ["--flaky", "1"],
}


def _conditions() -> NetworkConditions:
    return NetworkConditions(
        LinkModel(latency=0.01),
        overrides={f"site-{NUM_SITES - 1}": LinkModel(latency=STRAGGLER_LATENCY)},
        deadline=1.0,
    )


def _data():
    rng = np.random.default_rng(11)
    a = rng.integers(0, 3, size=(40, 24))
    b = rng.integers(0, 3, size=(24, 16))
    return np.array_split(a, NUM_SITES, axis=0), b


def _epoch_batches(shards):
    """Two epochs per site: first and second half of each shard's rows."""
    batches: dict[int, list] = {1: [], 2: []}
    offset = 0
    for index, shard in enumerate(shards):
        half = shard.shape[0] // 2
        rows = offset + np.arange(shard.shape[0])
        batches[1].append((index, rows[:half], shard[:half]))
        batches[2].append((index, rows[half:], shard[half:]))
        offset += shard.shape[0]
    return batches


def _reference(shards, b, batches):
    """The in-process replay the remote run must match bit-exactly.

    Same seed, same conditions, same quorum runtime, same call sequence.
    The remote run's extra drama (site-1's timed-out boundary upload,
    drop + restore) must not change state: the boundary merges every
    on-time delta *before* any real send, and drop/restore only toggle
    connectivity.  So the clean replay is the ground truth.
    """
    estimator = ClusterEstimator(
        shards,
        b,
        seed=SEED,
        runtime=Runtime(quorum=QuorumPolicy.coerce((NUM_SITES, 1))),
        conditions=_conditions(),
    )
    out = {"baseline": estimator.lp_norm(p=2.0, epsilon=0.3)}
    session = estimator.stream()
    for epoch in (1, 2):
        for index, rows, deltas in batches[epoch]:
            session.ingest(index, rows, deltas)
        session.end_epoch(force=True)
    session.collect_late()
    out["live_lp"] = session.live_lp_norm(p=2.0)
    out["live_hh"] = session.live_heavy_hitters(phi=0.3)
    return out


def _spawn(tmp: str, shards, b):
    """The live cluster: a server in-process, four site OS processes."""
    server = CoordinatorServer(
        b,
        num_sites=NUM_SITES,
        expected_row_counts=[shard.shape[0] for shard in shards],
        seed=SEED,
        host="127.0.0.1",
        port=0,
        conditions=_conditions(),
        deadline=DEADLINE,
        retries=2,
        backoff=0.05,
        quorum=(NUM_SITES, 1),
    ).start()
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    processes = []
    for index, shard in enumerate(shards):
        shard_path = Path(tmp) / f"shard-{index}.npy"
        np.save(shard_path, shard)
        processes.append(
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro.service.cli", "site",
                    "--host", "127.0.0.1", "--port", str(server.port),
                    "--index", str(index), "--shard", str(shard_path),
                    *SITE_CHAOS.get(index, []),
                ],
                env=env,
            )
        )
    if not server.wait_ready(60.0):
        raise TimeoutError("cluster did not become ready within 60 s")
    return server, processes


def _scrape(port: int) -> str:
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(b"GET /metrics HTTP/1.0\r\nHost: chaos\r\n\r\n")
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status = head.decode().split("\r\n")[0]
    assert status == "HTTP/1.0 200 OK", f"scrape failed: {status}"
    return body.decode()


def _gate(name: str, ok: bool, detail: str = "") -> None:
    print(f"  [{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"chaos gate failed: {name} {detail}"


def main() -> int:
    shards, b = _data()
    batches = _epoch_batches(shards)
    reference = _reference(shards, b, batches)

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        server, processes = _spawn(tmp, shards, b)
        client = connect("127.0.0.1", server.port)
        try:
            # --- quorum one-shot beats the straggler -----------------------
            print("stage 1: quorum one-shot under a straggler link")
            start = time.monotonic()
            baseline = client.query("lp_norm", p=2.0, epsilon=0.3)
            elapsed = time.monotonic() - start
            stragglers = baseline.details.get("dropout", {}).get("stragglers", [])
            _gate("answer is clean (not degraded)", client.last_degraded is None)
            _gate(
                "wall clock beats the coordinator deadline",
                elapsed < DEADLINE,
                f"{elapsed:.2f}s < {DEADLINE}s",
            )
            _gate("straggler excluded by quorum", stragglers == [f"site-{NUM_SITES - 1}"])
            _gate(
                "simulated makespan beats the straggler latency",
                baseline.cost.makespan < STRAGGLER_LATENCY,
                f"{baseline.cost.makespan:.3f}s < {STRAGGLER_LATENCY}s",
            )
            _gate(
                "bit-identical to the in-process quorum reference",
                baseline.value == reference["baseline"].value,
            )

            # --- transient refusal retried and metered ---------------------
            print("stage 2: flaky site's transient refusal is retried")
            parsed = parse_metrics_text(_scrape(server.port))
            retries = parsed.get(("repro_link_retries_total", (("site", "site-2"),)), 0)
            _gate("repro_link_retries_total{site-2} >= 1", retries >= 1, f"{retries}")

            # --- mid-stream timeout degrades the boundary ------------------
            print("stage 3: epoch boundary with a site napping past the deadline")
            client.query("stream_open")
            for index, rows, deltas in batches[1]:
                client.query("stream_ingest", site=index, rows=rows, deltas=deltas)
            start = time.monotonic()
            degradation = None
            try:
                client.query("stream_end_epoch", force=True)
            except ServiceError as exc:
                degradation = getattr(exc, "degradation", None)
            elapsed = time.monotonic() - start
            _gate("boundary raised with a degradation report", degradation is not None)
            _gate(
                "degradation within the deadline budget",
                elapsed < 3 * DEADLINE,
                f"{elapsed:.2f}s < {3 * DEADLINE}s",
            )
            _gate("timed-out site named", degradation["failed_sites"] == ["site-1"])
            _gate("reason is the timeout", degradation["reason"] == "timeout")
            _gate("policy is exclude", degradation["policy"] == "exclude")
            _gate(
                "surviving count reported",
                degradation["surviving_sites"] == NUM_SITES - 1,
            )

            # Let site-1 finish its nap (its stale reply is written off on
            # arrival) before reconnecting it.
            time.sleep(max(0.0, SITE_DELAY - elapsed) + 1.0)

            # --- restore + late merge --------------------------------------
            print("stage 4: restore the napper; next boundary folds the straggler")
            restored = client.query("stream_restore_site", site=1)
            _gate("no sites dropped after restore", restored["dropped"] == [])
            for index, rows, deltas in batches[2]:
                client.query("stream_ingest", site=index, rows=rows, deltas=deltas)
            report = client.query("stream_end_epoch", force=True)
            _gate("quorum met at the boundary", report.quorum_met is True)
            _gate("straggler late again", report.late == [f"site-{NUM_SITES - 1}"])
            _gate(
                "previous epoch's straggler delta late-merged",
                report.late_merged == [f"site-{NUM_SITES - 1}"],
            )
            folded = client.query("stream_collect_late")
            _gate(
                "collect_late drains the in-flight delta",
                folded.get(f"site-{NUM_SITES - 1}", 0) > 0,
                str(folded),
            )
            _gate("nothing left in flight", client.query("stream_late_pending") == [])

            # --- bit-exact recovery ----------------------------------------
            print("stage 5: live state equals the clean in-process replay")
            live_lp = client.query("stream_live_lp_norm", p=2.0)
            live_hh = client.query("stream_live_heavy_hitters", phi=0.3)
            _gate(
                "live lp_norm bit-identical",
                live_lp == reference["live_lp"],
                f"{live_lp!r}",
            )
            _gate(
                "live heavy hitters identical",
                live_hh == reference["live_hh"],
            )

            # --- SIGKILL -> degraded quorum answer -------------------------
            print("stage 6: SIGKILL one site; queries degrade, not fail")
            clean = client.query("lp_norm", p=2.0, epsilon=0.3)
            _gate("pre-kill query is clean", clean.value > 0 and client.last_degraded is None)
            processes[0].send_signal(signal.SIGKILL)
            processes[0].wait(timeout=10)
            start = time.monotonic()
            degraded = client.query("lp_norm", p=2.0, epsilon=0.3)
            elapsed = time.monotonic() - start
            killed = client.last_degraded
            _gate("degraded answer has a value", degraded.value > 0)
            _gate(
                "degraded answer within the deadline budget",
                elapsed < 3 * DEADLINE,
                f"{elapsed:.2f}s < {3 * DEADLINE}s",
            )
            _gate("killed site named", killed is not None and killed["failed_sites"] == ["site-0"])
            _gate("reason is the loss", killed["reason"] in ("disconnect", "timeout"))
            _gate("surviving count reported", killed["surviving_sites"] == NUM_SITES - 1)

            # --- final scrape ----------------------------------------------
            print("stage 7: Prometheus scrape shows the chaos")
            parsed = parse_metrics_text(_scrape(server.port))
            shortfalls = parsed.get(("repro_quorum_shortfall_total", ()), 0)
            late = parsed.get(("repro_late_merges_total", ()), 0)
            _gate("quorum shortfalls counted", shortfalls >= 2, f"{shortfalls}")
            _gate("late merges counted", late >= 2, f"{late}")
            _gate(
                "quarantine gauge scraped (and zero: no corrupt frames here)",
                parsed.get(("repro_quarantined_sites", ())) == 0,
            )
            _gate(
                "retry counter scraped",
                parsed.get(("repro_link_retries_total", (("site", "site-2"),)), 0) >= 1,
            )
        finally:
            client.close()
            for process in processes:
                if process.poll() is None:
                    process.terminate()
            for process in processes:
                try:
                    process.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    process.kill()
            server.stop()

    print("chaos smoke: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
