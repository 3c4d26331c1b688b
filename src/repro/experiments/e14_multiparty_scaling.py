"""E14 — coordinator-model scaling: bits, link load and wall-clock vs k sites.

The k-site coordinator runtime (:class:`repro.ClusterEstimator`) re-runs the
paper's protocols with the rows of ``A`` sharded across k sites around a
coordinator holding ``B``.  The claims this driver checks:

* *rounds are k-invariant* — merging k site summaries costs no extra
  interaction, so every protocol keeps its two-party round count;
* *total bits grow (sub)linearly in k* — the broadcast and the k uploads
  each carry a per-site copy of an O~(n)-sized summary;
* *the busiest link stays ~flat* — per-link load does not grow with k, which
  is what lets the star parallelize (the makespan is bounded by
  ``max_link_bits``, not ``total_bits``).

The per-round bit breakdown (``MessageLog.bits_per_round`` contract, shared by
every meter) attributes the growth: the downstream broadcast round scales
with k while each site's upload shrinks with its shard.
"""

from __future__ import annotations

import time

from repro.experiments import workloads
from repro.experiments.harness import ExperimentReport, relative_error
from repro.matrices import exact_heavy_hitters, exact_lp_pp, product
from repro.engine.api import ClusterEstimator

CLAIM = (
    "Coordinator model, k sites: round counts match the two-party protocols "
    "for every k, total bits grow at most linearly in k, and the busiest "
    "coordinator-site link carries no more than the two-party channel did."
)


def run(
    *,
    n: int = 96,
    ks: tuple[int, ...] = (2, 4, 8),
    epsilon: float = 0.3,
    phi: float = 0.05,
    hh_epsilon: float = 0.03,
    density: float = 0.08,
    seed: int = 3,
) -> ExperimentReport:
    a, b = workloads.join_workload(n, density=density, seed=seed)
    c = product(a, b)
    join_truth = exact_lp_pp(c, 0.0)
    hh_truth = exact_heavy_hitters(c, phi, p=1.0)
    hh_slack = exact_heavy_hitters(c, phi - hh_epsilon, p=1.0)

    rows = []
    for k in ks:
        cluster = ClusterEstimator.from_matrix(a, b, k, seed=seed)

        start = time.perf_counter()
        join = cluster.join_size(epsilon)
        join_wall = time.perf_counter() - start
        per_round = join.cost.per_round
        rows.append(
            {
                "k": k,
                "query": "join_size",
                "rel_error": relative_error(join.value, join_truth),
                "bits": join.cost.total_bits,
                "rounds": join.cost.rounds,
                "max_link_bits": join.cost.max_link_bits,
                "round1_bits": per_round.get(1, 0),
                "round2_bits": per_round.get(2, 0),
                "wall_ms": join_wall * 1e3,
            }
        )

        start = time.perf_counter()
        sample = cluster.l0_sample(epsilon)
        sample_wall = time.perf_counter() - start
        valid = bool(sample.value.success and c[sample.value.row, sample.value.col] != 0)
        rows.append(
            {
                "k": k,
                "query": "l0_sample",
                "rel_error": 0.0 if valid else float("inf"),
                "bits": sample.cost.total_bits,
                "rounds": sample.cost.rounds,
                "max_link_bits": sample.cost.max_link_bits,
                "round1_bits": sample.cost.per_round.get(1, 0),
                "round2_bits": sample.cost.per_round.get(2, 0),
                "wall_ms": sample_wall * 1e3,
            }
        )

        start = time.perf_counter()
        heavy = cluster.heavy_hitters(phi, hh_epsilon)
        heavy_wall = time.perf_counter() - start
        # Correct iff complete (every exact heavy hitter reported) and sound
        # (nothing outside the (phi - eps) slack set reported).
        hh_correct = hh_truth <= heavy.value.pairs <= hh_slack
        rows.append(
            {
                "k": k,
                "query": "heavy_hitters",
                "rel_error": 0.0 if hh_correct else float("inf"),
                "bits": heavy.cost.total_bits,
                "rounds": heavy.cost.rounds,
                "max_link_bits": heavy.cost.max_link_bits,
                "round1_bits": heavy.cost.per_round.get(1, 0),
                "round2_bits": heavy.cost.per_round.get(2, 0),
                "wall_ms": heavy_wall * 1e3,
            }
        )

    by_query: dict[str, list[dict]] = {}
    for row in rows:
        by_query.setdefault(row["query"], []).append(row)

    smallest_k, largest_k = min(ks), max(ks)
    join_rows = by_query["join_size"]
    bits_small = next(r["bits"] for r in join_rows if r["k"] == smallest_k)
    bits_large = next(r["bits"] for r in join_rows if r["k"] == largest_k)
    link_small = next(r["max_link_bits"] for r in join_rows if r["k"] == smallest_k)
    link_large = next(r["max_link_bits"] for r in join_rows if r["k"] == largest_k)

    summary = {
        "rounds_k_invariant": all(
            len({r["rounds"] for r in q_rows}) == 1 for q_rows in by_query.values()
        ),
        "join_bits_growth": round(bits_large / bits_small, 2),
        "k_growth": round(largest_k / smallest_k, 2),
        "max_link_growth": round(link_large / max(link_small, 1), 2),
        "max_rel_error": round(max(r["rel_error"] for r in rows), 3),
    }
    return ExperimentReport(experiment="E14", claim=CLAIM, rows=rows, summary=summary)


if __name__ == "__main__":  # pragma: no cover
    print(run())
