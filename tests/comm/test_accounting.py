"""Tests for the shared MessageLog accounting base."""

from __future__ import annotations

import pytest

from repro.comm.accounting import MessageLog
from repro.comm.network import Network


class TestMessageLog:
    def test_round_flips_on_sender_by_default(self):
        log = MessageLog()
        log.record("a", "b", bits=1)
        log.record("a", "b", bits=2)
        log.record("b", "a", bits=4)
        log.record("a", "b", bits=8)
        assert log.rounds == 3
        assert log.total_bits == 15

    def test_direction_key_overrides_sender(self):
        log = MessageLog()
        log.record("s0", "coord", bits=1, direction_key="up")
        log.record("s1", "coord", bits=1, direction_key="up")
        log.record("coord", "s0", bits=1, direction_key="down")
        assert log.rounds == 2

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            MessageLog().record("a", "b", bits=-1)

    def test_bits_per_round(self):
        log = MessageLog()
        log.record("a", "b", bits=3)
        log.record("a", "b", bits=5)
        log.record("b", "a", bits=7)
        assert log.bits_per_round() == {1: 8, 2: 7}
        assert sum(log.bits_per_round().values()) == log.total_bits

    def test_bits_per_round_keys_ascending(self):
        log = MessageLog()
        for sender in ["a", "b", "a", "b", "a"]:
            log.record(sender, "x" if sender != "x" else "y", bits=1)
        assert list(log.bits_per_round()) == sorted(log.bits_per_round())

    def test_bits_by_label_accumulates(self):
        log = MessageLog()
        log.record("a", "b", label="x", bits=1)
        log.record("b", "a", label="y", bits=2)
        log.record("a", "b", label="x", bits=4)
        assert log.bits_by_label() == {"x": 5, "y": 2}

    def test_reset(self):
        log = MessageLog()
        log.record("a", "b", bits=1)
        log.reset()
        assert log.rounds == 0
        assert log.total_bits == 0
        assert log.messages == []
        # After a reset the first message opens round 1 again.
        log.record("b", "a", bits=1)
        assert log.rounds == 1


class TestTwoPartyNetworkInheritsAccounting:
    def test_two_party_bits_per_round(self):
        network = Network(["alice"], coordinator_name="bob")
        network.send("alice", "bob", 1, bits=10, label="r1")
        network.send("bob", "alice", 1, bits=20, label="r2")
        network.send("bob", "alice", 1, bits=30, label="r2")
        assert network.bits_per_round() == {1: 10, 2: 50}
        assert network.bits_by_label() == {"r1": 10, "r2": 50}
