"""E16 — runtime conditions: latency sweep, straggler link, site dropout.

The message-passing runtime (:mod:`repro.engine.runtime`) plus the network
condition models (:mod:`repro.comm.conditions`) add a *time* dimension and
a *fault* dimension to every experiment.  This driver exercises both on the
``lp_norm`` / ``join_size`` family:

* **Latency sweep** — the same query under uniform
  :class:`~repro.comm.conditions.LinkModel` conditions of increasing
  latency: bits and rounds are condition-invariant (conditions only price
  the transcript, never change it), while the simulated makespan grows by
  exactly one latency per round and always dominates the bandwidth bound
  ``max_link_bits / bandwidth + latency``.
* **Straggler** — one site's link override with a much larger latency: the
  critical path runs through the straggler, so the makespan jumps to (at
  least) the straggler's latency times its active rounds while every byte
  meter stays put.
* **Dropout** — one site declared dropped.  The default ``"fail"`` policy
  refuses to answer; ``Runtime(dropout="exclude")`` estimates from the
  survivors and renormalizes the additive ``join_size`` estimate by the
  inverse surviving row fraction, reporting exactly which sites
  contributed.
* **Streaming dropout** — a :class:`~repro.engine.streaming
  .StreamingSession` with a site dropped mid-stream: epoch reports list
  the partitioned site, live estimates go stale by its un-shipped drift,
  and the first sync after restoration recovers the streamed == one-shot
  summary identity bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.comm.conditions import LinkModel, NetworkConditions
from repro.engine.runtime import Runtime, SiteDroppedError
from repro.engine.streaming import StreamingSession
from repro.experiments.harness import ExperimentReport, cost_summary, relative_error
from repro.engine.api import ClusterEstimator

CLAIM = (
    "Network conditions price protocol transcripts into simulated makespans "
    "without perturbing a single bit or round: latency sweeps scale the "
    "makespan by rounds, a straggler link dominates the critical path, and "
    "dropped sites either fail the query or are excluded with renormalized "
    "estimates that report exactly which sites contributed."
)


def _workload(n: int, density: float, rng: np.random.Generator):
    a = (rng.uniform(size=(n, n)) < density).astype(np.int64)
    b = (rng.uniform(size=(n, n)) < density).astype(np.int64)
    return a, b


def run(
    *,
    n: int = 64,
    num_sites: int = 4,
    epsilon: float = 0.3,
    density: float = 0.15,
    latencies: tuple[float, ...] = (0.0, 0.005, 0.02, 0.08),
    bandwidth: float = 1e6,
    straggler_latency: float = 0.5,
    seed: int = 9,
) -> ExperimentReport:
    rng = np.random.default_rng(seed)
    a, b = _workload(n, density, rng)
    truth = float(np.count_nonzero(a @ b))
    rows = []

    # --- Latency sweep: same transcript, growing makespan -------------------
    baseline_bits = None
    sweep_makespans = []
    for latency in latencies:
        conditions = NetworkConditions(LinkModel(latency=latency, bandwidth=bandwidth))
        cluster = ClusterEstimator.from_matrix(
            a, b, num_sites, seed=seed, conditions=conditions
        )
        result = cluster.join_size(epsilon)
        cost = cost_summary(result)
        if baseline_bits is None:
            baseline_bits = cost["bits"]
        sweep_makespans.append(cost["makespan_s"])
        rows.append(
            {
                "scenario": "latency",
                "latency_s": latency,
                **cost,
                "rel_err": round(relative_error(result.value, truth), 4),
            }
        )
    bits_invariant = all(row["bits"] == baseline_bits for row in rows)
    rounds = rows[0]["rounds"]
    # One latency hit per round, links in parallel: the sweep grows by
    # exactly rounds * delta-latency on a uniform-link star.
    latency_slope_ok = all(
        abs(
            (sweep_makespans[i] - sweep_makespans[0])
            - rounds * (latencies[i] - latencies[0])
        )
        < 1e-9
        for i in range(len(latencies))
    )

    # --- Straggler: one slow link dominates the critical path ---------------
    uniform = NetworkConditions(LinkModel(latency=latencies[1], bandwidth=bandwidth))
    straggler = NetworkConditions(
        LinkModel(latency=latencies[1], bandwidth=bandwidth),
        overrides={"site-0": LinkModel(latency=straggler_latency, bandwidth=bandwidth)},
    )
    uniform_result = ClusterEstimator.from_matrix(
        a, b, num_sites, seed=seed, conditions=uniform
    ).join_size(epsilon)
    straggler_result = ClusterEstimator.from_matrix(
        a, b, num_sites, seed=seed, conditions=straggler
    ).join_size(epsilon)
    for label, result in (("uniform", uniform_result), ("straggler", straggler_result)):
        rows.append({"scenario": label, **cost_summary(result)})
    straggler_dominates = (
        straggler_result.cost.makespan
        >= straggler_latency
        > uniform_result.cost.makespan
    )
    transcripts_match = (
        straggler_result.cost.total_bits == uniform_result.cost.total_bits
        and straggler_result.value == uniform_result.value
    )

    # --- Dropout: fail vs exclude-with-renormalization ----------------------
    dropped = NetworkConditions(dropped={"site-1"})
    fail_raises = False
    try:
        ClusterEstimator.from_matrix(
            a, b, num_sites, seed=seed, conditions=dropped
        ).join_size(epsilon)
    except SiteDroppedError:
        fail_raises = True
    excluded = ClusterEstimator.from_matrix(
        a,
        b,
        num_sites,
        seed=seed,
        runtime=Runtime(dropout="exclude"),
        conditions=dropped,
    ).join_size(epsilon)
    dropout_info = excluded.details["dropout"]
    rows.append(
        {
            "scenario": "dropout-exclude",
            **cost_summary(excluded),
            "rel_err": round(relative_error(excluded.value, truth), 4),
        }
    )

    # --- Streaming dropout: stale while partitioned, exact after restore ----
    session = StreamingSession(
        [shard.shape[0] for shard in np.array_split(a, num_sites, axis=0)],
        b,
        seed=seed,
    )
    reference = StreamingSession(
        [shard.shape[0] for shard in np.array_split(a, num_sites, axis=0)],
        b,
        seed=seed,
    )
    offsets = np.cumsum([0] + [s.shape[0] for s in np.array_split(a, num_sites, axis=0)])
    for index in range(num_sites):
        shard = a[offsets[index] : offsets[index + 1]]
        shard_rows = offsets[index] + np.arange(shard.shape[0])
        session.ingest(index, shard_rows, shard)
        reference.ingest(index, shard_rows, shard)
    session.drop_site(1)
    stale_report = session.end_epoch()
    stale_l0 = session.live_l0()
    session.restore_site(1)
    session.sync()
    reference.sync()
    recovered = all(
        np.array_equal(
            session.merged[key].state_array(), reference.merged[key].state_array()
        )
        for key in session.merged
    )
    exact_l0 = float(np.count_nonzero(a @ b))
    rows.append(
        {
            "scenario": "streaming-dropout",
            "dropped": ",".join(stale_report.dropped),
            "stale_l0_rel_err": round(relative_error(stale_l0, exact_l0), 4),
            "recovered_bit_exact": recovered,
        }
    )

    summary = {
        "bits_invariant_under_conditions": bits_invariant and transcripts_match,
        "latency_slope_matches_rounds": latency_slope_ok,
        "straggler_dominates_makespan": straggler_dominates,
        "dropout_fail_raises": fail_raises,
        "dropout_contributing_sites": ",".join(dropout_info["contributing_sites"]),
        "dropout_renormalized": dropout_info["renormalized"],
        "dropout_rel_err": round(relative_error(excluded.value, truth), 4),
        "streaming_recovers_bit_exact": recovered,
    }
    return ExperimentReport(experiment="E16", claim=CLAIM, rows=rows, summary=summary)


if __name__ == "__main__":  # pragma: no cover
    print(run())
