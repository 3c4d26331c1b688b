"""E18 — tree aggregation at scale: the coordinator fan-in bottleneck.

The flat star asks one coordinator to absorb k upload bursts back to back
every round; at k in the thousands the root's ingress — not the protocol's
information cost — is the binding constraint.  This driver routes the SAME
per-site uploads through :class:`~repro.comm.network.Network` aggregation
trees of growing fan-out and charts what the hierarchy changes and what it
provably cannot:

* **Root ingress** — with exact-mergeable summaries every aggregator
  forwards ONE merged message per round, so the root receives ``fan_out``
  bursts (``root_ingress_bits = fan_out * per_site_bits``) instead of k.
  The busiest root edge carries the same bits as one site, whatever k is.
* **Total bits** — the tree *pays* for its relays: every level re-ships a
  summary, so total bits grow by roughly ``depth`` over the star.  The
  win is concentration, not volume.
* **Makespan** — under uniform bandwidth-limited links the flat star's
  root drains ``k * B / bw`` serialized; a fan-out-F tree drains
  ``depth * F * B / bw`` (levels sequential, siblings parallel).  The
  crossover is exactly where ``depth * F < k`` — by ``k = 10^3`` every
  charted fan-out is far below the star.  The flat baseline is priced
  under the SAME tree makespan model (a depth-1 spec), so the comparison
  is apples to apples.
* **Merge wall-clock** — the aggregators' actual summing time
  (``merge_seconds``), the compute the coordinator no longer does alone.
* **Bit-identity anchor** — a real ``lp_norm`` protocol at a moderate k
  answers through a tree and must match the flat star bit for bit; the
  overlay reroutes and re-meters, never recomputes.
"""

from __future__ import annotations

import numpy as np

from repro.comm.conditions import LinkModel, NetworkConditions
from repro.comm.network import Network
from repro.comm.tree import TreeSpec
from repro.experiments.harness import ExperimentReport
from repro.engine.api import ClusterEstimator

CLAIM = (
    "Routing a k-site star's uploads through a fan-out-F aggregation tree "
    "leaves every root estimate bit-identical while the root's ingress "
    "shrinks from k bursts to F merged bursts per round: max root-link "
    "bits grow with the fan-out, not with k, and under uniform "
    "bandwidth-limited links the simulated makespan falls below the flat "
    "star once depth * F < k (decisively by k = 10^3)."
)


def _upload_round(tree: TreeSpec, conditions, per_site_bits: int) -> Network:
    """One upload round: every site ships a mergeable summary upstream."""
    network = Network(tree.site_names, tree.root, conditions=conditions, tree=tree)
    summary = np.ones(4, dtype=np.int64)  # stand-in partial; bits are explicit
    for name in tree.site_names:
        network.send(name, tree.root, summary, label="partial", bits=per_site_bits)
    network._drain()
    return network


def run(
    *,
    k_values: tuple[int, ...] = (100, 1_000, 10_000),
    fan_outs: tuple[int, ...] = (2, 8, 32),
    per_site_bits: int = 65_536,
    bandwidth: float = 1e6,
    latency: float = 1e-3,
    anchor_sites: int = 32,
    anchor_fan_out: int = 4,
    seed: int = 18,
) -> ExperimentReport:
    conditions = NetworkConditions(LinkModel(latency=latency, bandwidth=bandwidth))
    rows: list[dict] = []
    makespans: dict[tuple[int, object], float] = {}
    root_maxes: dict[tuple[int, object], int] = {}
    root_totals: dict[tuple[int, object], int] = {}

    for k in k_values:
        names = [f"site-{i}" for i in range(k)]
        shapes: list[tuple[object, TreeSpec]] = [("flat", TreeSpec.flat(names))]
        shapes += [
            (fan_out, TreeSpec.regular(names, fan_out))
            for fan_out in fan_outs
            if fan_out < k
        ]
        for fan_out, tree in shapes:
            network = _upload_round(tree, conditions, per_site_bits)
            makespan, _ = network.simulate()
            root_bits = network.root_link_bits()
            makespans[(k, fan_out)] = makespan
            root_maxes[(k, fan_out)] = network.max_root_link_bits
            root_totals[(k, fan_out)] = sum(root_bits.values())
            rows.append(
                {
                    "scenario": "scaling",
                    "k": k,
                    "fan_out": fan_out,
                    "depth": tree.depth,
                    "aggregators": len(tree.aggregators),
                    "total_bits": network.total_bits,
                    "root_ingress_bits": sum(root_bits.values()),
                    "max_root_link_bits": network.max_root_link_bits,
                    "merges": network.merges,
                    "merge_s": round(network.merge_seconds, 6),
                    "makespan_s": round(makespan, 6),
                }
            )

    # --- Bit-identity anchor: a real protocol through a real tree -----------
    rng = np.random.default_rng(seed)
    a = (rng.uniform(size=(anchor_sites * 4, 48)) < 0.2).astype(np.int64)
    b = (rng.uniform(size=(48, 32)) < 0.2).astype(np.int64)
    shards = list(np.array_split(a, anchor_sites, axis=0))
    anchor_tree = TreeSpec.regular(
        [f"site-{i}" for i in range(anchor_sites)], anchor_fan_out
    )
    flat_result = ClusterEstimator(shards, b, seed=seed).lp_norm(p=2.0, epsilon=0.3)
    tree_result = ClusterEstimator(shards, b, seed=seed, tree=anchor_tree).lp_norm(
        p=2.0, epsilon=0.3
    )
    rows.append(
        {
            "scenario": "anchor",
            "k": anchor_sites,
            "fan_out": anchor_fan_out,
            "depth": anchor_tree.depth,
            "aggregators": len(anchor_tree.aggregators),
            "total_bits": tree_result.cost.total_bits,
            "root_ingress_bits": sum(
                tree_result.cost.link_bits[child]
                for child in anchor_tree.children[anchor_tree.root]
            ),
            "max_root_link_bits": max(
                tree_result.cost.link_bits[child]
                for child in anchor_tree.children[anchor_tree.root]
            ),
            "merges": 0,
            "merge_s": 0.0,
            "makespan_s": 0.0,
        }
    )

    largest = max(k_values)
    summary = {
        # The busiest root edge is one merged summary: identical across k.
        "max_root_link_bits_k_invariant": all(
            len({root_maxes[(k, f)] for k in k_values if (k, f) in root_maxes}) == 1
            for f in fan_outs
        ),
        # Root ingress totals are bounded by the fan-out, the star's by k.
        "root_ingress_tracks_fan_out": all(
            root_totals[(k, f)] <= f * per_site_bits
            for k in k_values
            for f in fan_outs
            if (k, f) in root_totals
        ),
        "flat_root_ingress_tracks_k": all(
            root_totals[(k, "flat")] == k * per_site_bits for k in k_values
        ),
        # The headline: every tree beats the star's makespan at k >= 10^3.
        "tree_beats_flat_at_1e3": all(
            makespans[(k, f)] < makespans[(k, "flat")]
            for k in k_values
            if k >= 1_000
            for f in fan_outs
            if (k, f) in makespans
        ),
        "flat_makespan_at_kmax_s": round(makespans[(largest, "flat")], 6),
        "best_tree_makespan_at_kmax_s": round(
            min(
                makespans[(largest, f)]
                for f in fan_outs
                if (largest, f) in makespans
            ),
            6,
        ),
        "anchor_bit_identical": tree_result.value == flat_result.value
        and tree_result.cost.rounds == flat_result.cost.rounds,
    }
    return ExperimentReport(experiment="E18", claim=CLAIM, rows=rows, summary=summary)


if __name__ == "__main__":  # pragma: no cover
    print(run())
