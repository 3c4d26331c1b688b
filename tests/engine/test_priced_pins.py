"""Pins of priced transcripts: simulated makespans under finite links.

Every other transcript pin runs on ideal links, where each makespan is 0,
so they cannot see a change to how a transcript is *priced*.  Here the
links have finite bandwidth, jitter and one straggler override, and the
sha256 of ``(makespan, makespan_per_round)`` is pinned for:

* one-shot ``ClusterEstimator`` queries of four families at k = 8, with
  ``tree`` in {None, ``TreeSpec.flat(names)``, 2};
* a hash-mode ``StreamingSession`` after three epochs, with ``tree`` in
  {None, 2}.

Two pricing models exist, and both are pinned: a network built without a
tree prices each round's links in parallel, while any declared tree, the
flat one included, serializes fan-in per receiver.  Under finite bandwidth
the flat star therefore prices differently with and without a spec, and
the last test fails if the two models are ever merged by accident.

Regenerate the pins (only after an *intentional* pricing change) with::

    PYTHONPATH=src python tests/engine/test_priced_pins.py
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import ClusterEstimator
from repro.comm.conditions import LinkModel, NetworkConditions
from repro.comm.tree import TreeSpec
from repro.matrices import random_binary_pair

K = 8
SEED = 7
NAMES = [f"site-{i}" for i in range(K)]

#: Finite bandwidth, jitter and one slow, high-latency site.
CONDITIONS = NetworkConditions(
    LinkModel(latency=0.01, bandwidth=1e6, jitter=0.002),
    overrides={"site-3": LinkModel(latency=0.05, bandwidth=2.5e5)},
    jitter_seed=11,
)

TREES = {
    "none": None,
    "flat": TreeSpec.flat(NAMES),
    "fan2": 2,
}

QUERIES = {
    "lp0": lambda est: est.lp_norm(p=0, epsilon=0.3),
    "heavy_hitters": lambda est: est.heavy_hitters(0.2, 0.15),
    "l0_sample": lambda est: est.l0_sample(epsilon=0.3),
    "natural_join_size": lambda est: est.natural_join_size(),
}


def _estimator(tree) -> ClusterEstimator:
    a, b = random_binary_pair(64, density=0.1, seed=SEED)
    return ClusterEstimator.from_matrix(
        a, b, K, seed=SEED, conditions=CONDITIONS, tree=tree
    )


def priced_digest(makespan: float, per_round: dict[int, float]) -> str:
    """sha256 of the exact float reprs of a makespan and its rounds."""
    text = repr(float(makespan)) + ";" + ",".join(
        f"{int(r)}:{float(s)!r}" for r, s in sorted(per_round.items())
    )
    return hashlib.sha256(text.encode()).hexdigest()


def oneshot_digest(query: str, tree: str) -> str:
    cost = QUERIES[query](_estimator(TREES[tree])).cost
    return priced_digest(cost.makespan, cost.makespan_per_round)


def streaming_digest(tree: str) -> str:
    session = _estimator(TREES[tree]).stream(sketch_mode="hash")
    rng = np.random.default_rng(SEED)
    width = session.b.shape[0]
    for _ in range(3):
        for site in session.sites[::3]:
            rows = site.row_offset + rng.choice(site.num_rows, size=3, replace=False)
            session.ingest(site.index, rows, rng.integers(-2, 3, size=(3, width)))
        session.end_epoch()
    return priced_digest(*session.network.simulate())


#: Generated at the commit before the star and tree networks merged.
#: Do not edit by hand.
ONESHOT_PINS = {
    ("heavy_hitters", "fan2"): "54fb45347ac0eef97f773e53cda35954df6f71b9cd97b3d18ecd8dfc531332db",
    ("heavy_hitters", "flat"): "54947b3ec9f8b4531804b98117653526c0d132407e8809c2440169effc74271a",
    ("heavy_hitters", "none"): "8bbd32fe9217ab4e38669719742cd15af968cf7abceb6a27b5196abbdd0d2cce",
    ("l0_sample", "fan2"): "13812fed65f3c39698acbc01409d4c1097f39585efb77cdf572283035fb67e13",
    ("l0_sample", "flat"): "534e3660353d3b5efe64c856e14b211971d6952815a67c369fc91aa549e541db",
    ("l0_sample", "none"): "7a8a85fea73f044e27d96cad0cdd08121756465827fca4feff64b40452d8a256",
    ("lp0", "fan2"): "87959480f8c8454f73a5148faadf5336c9485b5d83fcc47a9db2670e0f685338",
    ("lp0", "flat"): "1fec1a0f359d450dabdfc1f2ebc846030161d720c625d7fef98e68dad6ad0c46",
    ("lp0", "none"): "3ec98b818395424b28f5474307bfff1cd52048ff9d6ea54e8debfb6787eb33ce",
    ("natural_join_size", "fan2"): "8337fe7afb3840d3e3a95bf3b770ced746048fc21192a42b68efa2b447050596",
    ("natural_join_size", "flat"): "1714846aa893b09aaae6a1485770198d79791c708bc631d62dd046510104ec58",
    ("natural_join_size", "none"): "79de26e9f505a7ec969fbfa34ff40b2f10c37f645aa8849b72f6e78df75288db",
}

STREAMING_PINS = {
    "fan2": "264f3b78615110cd29f81ce16d690b70cc2ee2d7e179c9eb3a2992b0685fee5a",
    "none": "d84907935f43937b2ff6ccab00ea2c2ff9a35fb7935ec81a22bd22e182a93a84",
}


@pytest.mark.parametrize("tree", sorted(TREES))
@pytest.mark.parametrize("query", sorted(QUERIES))
def test_oneshot_makespan_pinned(query, tree):
    assert oneshot_digest(query, tree) == ONESHOT_PINS[(query, tree)]


@pytest.mark.parametrize("tree", ["fan2", "none"])
def test_streaming_makespan_pinned(tree):
    assert streaming_digest(tree) == STREAMING_PINS[tree]


@pytest.mark.parametrize("query", sorted(QUERIES))
def test_star_and_flat_spec_keep_their_own_pricing(query):
    """No tree prices links in parallel; a flat spec serializes fan-in."""
    assert ONESHOT_PINS[(query, "none")] != ONESHOT_PINS[(query, "flat")]
    assert oneshot_digest(query, "none") != oneshot_digest(query, "flat")


if __name__ == "__main__":  # pragma: no cover - pin regeneration helper
    print("ONESHOT_PINS = {")
    for query in sorted(QUERIES):
        for tree in sorted(TREES):
            print(f'    ("{query}", "{tree}"): "{oneshot_digest(query, tree)}",')
    print("}")
    print("STREAMING_PINS = {")
    for tree in ("fan2", "none"):
        print(f'    "{tree}": "{streaming_digest(tree)}",')
    print("}")
