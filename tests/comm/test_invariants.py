"""Accounting invariants of the unified engine's transports.

Every metered transport — the star ``Network``, including its one-leaf
two-party form — must satisfy, after any protocol execution:

* per-round bits partition the total: ``sum(bits_per_round()) == total_bits``;
* per-label bits partition the total: ``sum(bits_by_label()) == total_bits``;
* round indices are contiguous from 1;
* per-link meters partition the aggregate (star only);
* per-sender bits partition the total.

These are checked against *real* engine executions (not synthetic sends), so
a protocol that mislabels or double-charges a message fails here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.network import Network
from repro.engine import (
    StarBinaryHeavyHittersProtocol,
    StarKappaApproxLinfProtocol,
    StarL0SamplingProtocol,
    StarL1SamplingProtocol,
    StarLpNormProtocol,
    StarTwoPlusEpsilonLinfProtocol,
)
from repro.matrices import random_binary_pair


@pytest.fixture(scope="module")
def workload():
    return random_binary_pair(48, density=0.12, seed=17)


ENGINE_PROTOCOLS = [
    lambda: StarLpNormProtocol(0.0, 0.4, seed=5),
    lambda: StarL0SamplingProtocol(0.4, seed=5),
    lambda: StarL1SamplingProtocol(seed=5),
    lambda: StarTwoPlusEpsilonLinfProtocol(0.4, seed=5),
    lambda: StarKappaApproxLinfProtocol(6, seed=5),
    lambda: StarBinaryHeavyHittersProtocol(0.1, 0.05, seed=5),
]


def _assert_log_invariants(total_bits, rounds, per_round, by_label):
    assert sum(per_round.values()) == total_bits
    assert sum(by_label.values()) == total_bits
    assert set(per_round) == set(range(1, rounds + 1))
    assert all(bits >= 0 for bits in per_round.values())


class TestTwoPartyInvariantsUnderEngine:
    @pytest.mark.parametrize("factory", ENGINE_PROTOCOLS)
    def test_two_party_view(self, workload, factory):
        a, b = workload
        result = factory().run_two_party(a, b)
        cost = result.cost
        assert sum(cost.breakdown.values()) == cost.total_bits
        assert cost.alice_bits + cost.bob_bits == cost.total_bits
        assert cost.rounds >= 1

    def test_two_party_per_round_partition(self, workload):
        """Drive a raw one-leaf network and check bits_per_round / bits_by_label."""
        network = Network(["alice"], coordinator_name="bob")
        network.send("alice", "bob", 1, bits=10, label="x")
        network.send("alice", "bob", 1, bits=5, label="y")
        network.send("bob", "alice", 1, bits=7, label="x")
        network.send("alice", "bob", 1, bits=3, label="z")
        _assert_log_invariants(
            network.total_bits,
            network.rounds,
            network.bits_per_round(),
            network.bits_by_label(),
        )
        assert network.bits_per_round() == {1: 15, 2: 7, 3: 3}
        assert network.bits_by_label() == {"x": 17, "y": 5, "z": 3}

    def test_two_party_reset_clears_everything(self):
        network = Network(["alice"], coordinator_name="bob")
        network.send("alice", "bob", 1, bits=4)
        network.reset()
        assert network.total_bits == 0
        assert network.rounds == 0
        assert network.bits_per_round() == {}
        assert network.bits_by_label() == {}


class TestNetworkInvariantsUnderEngine:
    @pytest.mark.parametrize("factory", ENGINE_PROTOCOLS)
    @pytest.mark.parametrize("k", [1, 3])
    def test_star_partitions(self, workload, factory, k):
        a, b = workload
        shards = np.array_split(a, k, axis=0)
        result = factory().run(shards, b)
        cost = result.cost
        _assert_log_invariants(
            cost.total_bits, cost.rounds, cost.per_round, cost.breakdown
        )
        # Per-link meters partition the aggregate.
        assert sum(cost.link_bits.values()) == cost.total_bits
        assert cost.max_link_bits == max(cost.link_bits.values())
        # Per-sender bits partition the aggregate.
        assert cost.coordinator_bits + sum(cost.site_bits.values()) == cost.total_bits

    def test_one_site_aggregate_and_link_meters_agree(self, workload):
        """With one site, the aggregate log and the link log are identical."""
        network = Network(["alice"], coordinator_name="bob")
        for sender, receiver, bits, label in [
            ("alice", "bob", 11, "up"),
            ("bob", "alice", 13, "down"),
            ("bob", "alice", 2, "down"),
            ("alice", "bob", 7, "up"),
        ]:
            network.send(sender, receiver, None, bits=bits, label=label)
        link = network.link("alice")
        assert link.total_bits == network.total_bits == 33
        assert link.rounds == network.rounds == 3
        assert link.bits_per_round() == network.bits_per_round()
        assert link.bits_by_label() == network.bits_by_label()
        assert link.bits_sent_by("alice") == network.bits_sent_by("alice") == 18
