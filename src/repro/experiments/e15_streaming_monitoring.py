"""E15 — streaming continuous monitoring: wire bytes per epoch vs refresh policy.

The streaming runtime (:mod:`repro.engine.streaming`) turns the one-shot
coordinator protocols into continuous monitoring: sites ingest batched
turnstile updates to their rows of ``A`` over epochs and ship serialized
sketch deltas upstream, metered in *actual encoded bytes* on the wire.  The
claims this driver checks:

* *threshold refresh ships strictly fewer bytes than every-epoch refresh on
  a skewed workload* — quiet sites' drift stays below the threshold, so
  they stay silent while the hot site keeps re-syncing;
* *live estimates track the truth* — after a sync, the coordinator's merged
  summaries estimate ``||C||_2^2`` and ``||C||_0`` within the monitor
  accuracy, under either policy;
* *the streamed run degrades nothing* — a one-shot query on the session
  after ingestion equals, bit for bit, the same query on a fresh
  ``ClusterEstimator`` over the final shards (the equivalence discipline
  pinned in ``tests/engine/test_streaming.py``).
"""

from __future__ import annotations

import numpy as np

from repro.engine.streaming import StreamingSession
from repro.experiments.harness import ExperimentReport, relative_error
from repro.engine.api import ClusterEstimator

CLAIM = (
    "Streaming monitoring over the star: threshold-triggered refresh ships "
    "strictly fewer wire bytes than every-epoch refresh on a skewed site "
    "workload, live estimates stay within the monitor accuracy after syncs, "
    "and a final one-shot query matches the batch protocol bit for bit."
)


def _update_schedule(
    n: int, bounds: np.ndarray, epochs: int, density: float, rng: np.random.Generator
) -> list[list[tuple[int, np.ndarray, np.ndarray]]]:
    """A skewed epoch schedule: site 0 is hot, the rest trickle.

    ``bounds`` is the site partition of the rows (``num_sites + 1`` edges).
    Returns, per epoch, a list of ``(site, rows, deltas)`` ingestion batches
    (global row indices, integer row-deltas).
    """
    num_sites = len(bounds) - 1
    schedule = []
    for _ in range(epochs):
        batches = []
        for site in range(num_sites):
            low, high = bounds[site], bounds[site + 1]
            if high <= low:
                continue  # zero-row site: nothing to update
            # The hot site updates about half its rows per epoch; quiet
            # sites touch a single row.
            num_rows = max(1, (high - low) // 2) if site == 0 else 1
            rows = rng.choice(np.arange(low, high), size=num_rows, replace=False)
            deltas = (rng.uniform(size=(num_rows, n)) < density).astype(np.int64)
            batches.append((site, rows, deltas))
        schedule.append(batches)
    return schedule


def run(
    *,
    n: int = 64,
    num_sites: int = 4,
    epochs: int = 8,
    density: float = 0.1,
    b_density: float = 0.1,
    threshold: float = 0.3,
    monitor_epsilon: float = 0.25,
    epsilon: float = 0.3,
    seed: int = 5,
) -> ExperimentReport:
    rng = np.random.default_rng(seed)
    b = (rng.uniform(size=(n, n)) < b_density).astype(np.int64)
    bounds = np.linspace(0, n, num_sites + 1).astype(int)
    schedule = _update_schedule(n, bounds, epochs, density, rng)

    row_counts = np.diff(bounds).tolist()
    sessions = {
        policy: StreamingSession(
            row_counts,
            b,
            seed=seed,
            refresh=policy,
            threshold=threshold,
            monitor_epsilon=monitor_epsilon,
        )
        for policy in ("every-epoch", "threshold")
    }

    a = np.zeros((n, n), dtype=np.int64)
    rows = []
    for batches in schedule:
        for site, update_rows, deltas in batches:
            np.add.at(a, update_rows, deltas)
            for session in sessions.values():
                session.ingest(site, update_rows, deltas)
        c = a @ b
        exact_f2 = float((c.astype(float) ** 2).sum())
        exact_l0 = float(np.count_nonzero(c))
        for policy, session in sessions.items():
            report = session.end_epoch()
            rows.append(
                {
                    # 1-based, matching EpochReport.epoch / session.history.
                    "epoch": report.epoch,
                    "policy": policy,
                    "sites_shipped": sum(report.shipped.values()),
                    "bytes": report.total_bytes,
                    "cum_bytes": report.cumulative_bytes,
                    "f2_rel_err": relative_error(session.live_lp_norm(2.0), exact_f2),
                    "l0_rel_err": relative_error(session.live_l0(), exact_l0),
                }
            )

    # Final sync: every pending delta lands, so live estimates of both
    # policies read the same merged summaries.
    for session in sessions.values():
        session.sync()
    c = a @ b
    exact_f2 = float((c.astype(float) ** 2).sum())
    exact_l0 = float(np.count_nonzero(c))
    synced_f2_err = relative_error(sessions["threshold"].live_lp_norm(2.0), exact_f2)
    synced_l0_err = relative_error(sessions["threshold"].live_l0(), exact_l0)

    # Equivalence: a one-shot query on the streamed session matches the
    # batch protocol over the final shards, bit for bit.
    batch = ClusterEstimator(sessions["threshold"].shards(), b, seed=seed)
    streamed_result = sessions["threshold"].join_size(epsilon)
    batch_result = batch.join_size(epsilon)
    sync_matches = bool(
        streamed_result.value == batch_result.value
        and streamed_result.cost.total_bits == batch_result.cost.total_bits
        and streamed_result.cost.rounds == batch_result.cost.rounds
    )

    every_epoch_bytes = sessions["every-epoch"].total_upload_bytes
    threshold_bytes = sessions["threshold"].total_upload_bytes
    summary = {
        "every_epoch_bytes": every_epoch_bytes,
        "threshold_bytes": threshold_bytes,
        "threshold_strictly_fewer": threshold_bytes < every_epoch_bytes,
        "byte_ratio": round(threshold_bytes / max(every_epoch_bytes, 1), 3),
        "synced_f2_rel_err": round(synced_f2_err, 4),
        "synced_l0_rel_err": round(synced_l0_err, 4),
        "sync_matches_one_shot": sync_matches,
    }
    return ExperimentReport(experiment="E15", claim=CLAIM, rows=rows, summary=summary)


if __name__ == "__main__":  # pragma: no cover
    print(run())
