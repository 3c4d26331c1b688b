"""Unit tests for the two-party driver and its cost reporting.

The two-party model runs on the engine's one driver:
:meth:`~repro.engine.base.StarProtocol.run_two_party` executes a protocol
body on the one-leaf star (Alice the single site, Bob the hub) and
collapses its meters into a :class:`~repro.comm.protocol.CostReport`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.protocol import CostReport
from repro.engine.base import StarProtocol


class EchoProtocol(StarProtocol):
    """Toy protocol: Alice sends her matrix, Bob replies with the sum."""

    name = "echo"

    def _execute(self, coordinator, sites):
        (alice,) = sites
        alice.send(alice.data, label="forward", bits=8)
        total = int(alice.data.sum() + coordinator.data.sum())
        coordinator.send(alice, total, label="reply", bits=8)
        return total, {"note": "done"}


class PlainReturnProtocol(StarProtocol):
    """Protocol returning a bare value (no details dict)."""

    def _execute(self, coordinator, sites):
        (alice,) = sites
        alice.send(alice.data, bits=4)
        return int(alice.data.sum()) * 2


class RandomProtocol(StarProtocol):
    def _execute(self, coordinator, sites):
        (alice,) = sites
        alice.send(0, bits=1)
        return float(self.shared_rng.uniform()) + float(alice.rng.uniform())


def _matrix(value: int) -> np.ndarray:
    return np.array([[value]])


class TestTwoPartyRun:
    def test_value_and_details(self):
        result = EchoProtocol(seed=0).run_two_party(_matrix(3), _matrix(4))
        assert result.value == 7
        assert result.details == {"note": "done"}

    def test_cost_report(self):
        result = EchoProtocol(seed=0).run_two_party(_matrix(3), _matrix(4))
        assert isinstance(result.cost, CostReport)
        assert result.cost.total_bits == 16
        assert result.cost.rounds == 2
        assert result.cost.alice_bits == 8
        assert result.cost.bob_bits == 8
        assert result.cost.breakdown == {"forward": 8, "reply": 8}
        assert result.cost.makespan == 0.0

    def test_bare_return_value(self):
        result = PlainReturnProtocol(seed=1).run_two_party(_matrix(5), _matrix(0))
        assert result.value == 10
        assert result.details == {}

    def test_seed_reproducibility(self):
        a, b = np.zeros((2, 2)), np.zeros((2, 2))
        first = RandomProtocol(seed=7).run_two_party(a, b).value
        second = RandomProtocol(seed=7).run_two_party(a, b).value
        third = RandomProtocol(seed=8).run_two_party(a, b).value
        assert first == second
        assert first != third

    def test_base_class_requires_execute(self):
        with pytest.raises(NotImplementedError):
            StarProtocol(seed=0).run_two_party(_matrix(1), _matrix(2))

    def test_alice_tracks_bits_sent(self):
        class Probe(StarProtocol):
            def _execute(self, coordinator, sites):
                (alice,) = sites
                alice.send(1, bits=12)
                return alice.bits_sent, coordinator.bits_sent

        assert Probe(seed=0).run_two_party(_matrix(0), _matrix(0)).value == (12, 0)
