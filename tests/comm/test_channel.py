"""Unit tests for the two-party link and its round counting.

The two-party model is the one-leaf star: Alice is the single site and Bob
the hub, so a ``Network(["alice"], coordinator_name="bob")`` meters every
Alice/Bob exchange.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.network import Network


@pytest.fixture
def network() -> Network:
    return Network(["alice"], coordinator_name="bob")


class TestRoundCounting:
    def test_no_messages_means_zero_rounds(self, network):
        assert network.rounds == 0
        assert network.total_bits == 0

    def test_single_message_is_one_round(self, network):
        network.send("alice", "bob", 1, bits=10)
        assert network.rounds == 1

    def test_consecutive_same_direction_messages_share_a_round(self, network):
        network.send("alice", "bob", 1, bits=10)
        network.send("alice", "bob", 2, bits=10)
        assert network.rounds == 1

    def test_direction_flip_increments_round(self, network):
        network.send("alice", "bob", 1, bits=10)
        network.send("bob", "alice", 2, bits=10)
        network.send("alice", "bob", 3, bits=10)
        assert network.rounds == 3

    def test_round_index_recorded_on_messages(self, network):
        network.send("alice", "bob", 1, bits=1)
        network.send("bob", "alice", 2, bits=1)
        assert [m.round_index for m in network.log.messages] == [1, 2]


class TestBitAccounting:
    def test_total_bits_sums_messages(self, network):
        network.send("alice", "bob", 1, bits=10)
        network.send("bob", "alice", 1, bits=32)
        assert network.total_bits == 42

    def test_per_party_accounting(self, network):
        network.send("alice", "bob", 1, bits=10)
        network.send("bob", "alice", 1, bits=32)
        assert network.bits_sent_by("alice") == 10
        assert network.bits_sent_by("bob") == 32

    def test_auto_cost_from_payload(self, network):
        payload = np.zeros(4, dtype=float)
        network.send("alice", "bob", payload)
        assert network.total_bits == 4 * 64

    def test_breakdown_by_label(self, network):
        network.send("alice", "bob", 1, bits=10, label="sketch")
        network.send("alice", "bob", 1, bits=5, label="sketch")
        network.send("bob", "alice", 1, bits=7, label="rows")
        assert network.bits_by_label() == {"sketch": 15, "rows": 7}

    def test_negative_bits_rejected(self, network):
        with pytest.raises(ValueError):
            network.send("alice", "bob", 1, bits=-1)


class TestValidation:
    def test_self_send_rejected(self, network):
        with pytest.raises(ValueError):
            network.send("alice", "alice", 1, bits=1)

    def test_unknown_party_rejected(self, network):
        with pytest.raises(ValueError):
            network.send("alice", "carol", 1, bits=1)

    def test_payload_returned_unchanged(self, network):
        payload = {"x": 1}
        assert network.send("alice", "bob", payload, bits=1) is payload

    def test_reset_clears_state(self, network):
        network.send("alice", "bob", 1, bits=10)
        network.reset()
        assert network.total_bits == 0
        assert network.rounds == 0
        assert network.log.messages == []
