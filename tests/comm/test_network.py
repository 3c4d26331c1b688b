"""Star-network accounting: topology rules and the two-party reduction.

Replaying any two-party message sequence over a one-site star must give
the classic two-party accounting — the aggregate log's up/down round
counter, totals, per-label and per-round breakdowns all equal the link
log's sender-flip meter — and with k sites every link must behave like
its own one-leaf (two-party) network.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import bitcost
from repro.comm.network import Network
from repro.comm.tree import TreeSpec


def random_two_party_trace(seed: int, length: int = 40):
    """A random alternating-or-not message sequence between two endpoints."""
    rng = np.random.default_rng(seed)
    trace = []
    for _ in range(length):
        upstream = bool(rng.integers(0, 2))
        bits = int(rng.integers(0, 1000))
        label = f"label-{int(rng.integers(0, 4))}"
        trace.append((upstream, bits, label))
    return trace


class TestStarTopologyRules:
    def test_needs_at_least_one_site(self):
        with pytest.raises(ValueError, match="at least one site"):
            Network([])

    def test_site_names_unique(self):
        with pytest.raises(ValueError, match="unique"):
            Network(["s", "s"])

    def test_coordinator_cannot_be_a_site(self):
        with pytest.raises(ValueError, match="double"):
            Network(["hub"], coordinator_name="hub")

    def test_no_site_to_site_messages(self):
        network = Network(["s0", "s1"])
        with pytest.raises(ValueError, match="star topology"):
            network.send("s0", "s1", None, bits=1)

    def test_unknown_site_rejected(self):
        network = Network(["s0"])
        with pytest.raises(ValueError, match="unknown site"):
            network.send("coordinator", "s9", None, bits=1)

    @pytest.mark.parametrize("shape", ["none", "flat", "fan2"])
    def test_broadcast_checks_every_target_before_metering(self, shape):
        names = [f"site-{i}" for i in range(4)]
        tree = {
            "none": None,
            "flat": TreeSpec.flat(names),
            "fan2": TreeSpec.regular(names, 2),
        }[shape]
        network = Network(names, tree=tree)
        with pytest.raises(ValueError, match="unknown site 'nope'"):
            network.broadcast(b"x", bits=8, sites=["site-0", "nope"])
        assert network.total_bits == 0

    def test_tree_must_match_the_sites_and_the_coordinator(self):
        names = ["s0", "s1"]
        with pytest.raises(ValueError, match="tree leaves"):
            Network(names, tree=TreeSpec.flat(["s1", "s0"]))
        with pytest.raises(ValueError, match="tree root"):
            Network(names, "hub", tree=TreeSpec.flat(names))

    def test_self_send_rejected(self):
        network = Network(["s0"])
        with pytest.raises(ValueError, match="differ"):
            network.send("s0", "s0", None, bits=1)

    def test_default_payload_costing_uses_bitcost(self):
        network = Network(["s0"])
        payload = np.arange(10)
        network.send("s0", "coordinator", payload)
        assert network.total_bits == bitcost.bits_for_payload(payload) > 0


class TestTwoPartyReduction:
    """Network with one site == the two-party model, message for message."""

    @pytest.mark.parametrize("seed", range(10))
    def test_round_and_bit_accounting_agree_with_two_party(self, seed):
        trace = random_two_party_trace(seed)
        network = Network(["alice"], coordinator_name="bob")
        expected_rounds, last_sender = 0, None
        for upstream, bits, label in trace:
            sender, receiver = ("alice", "bob") if upstream else ("bob", "alice")
            network.send(sender, receiver, None, label=label, bits=bits)
            # Classic two-party rounds: a new round each time the sender flips.
            expected_rounds += sender != last_sender
            last_sender = sender

        assert network.rounds == expected_rounds
        assert network.total_bits == sum(bits for _, bits, _ in trace)
        assert network.bits_sent_by("alice") == sum(b for up, b, _ in trace if up)
        assert network.bits_sent_by("bob") == sum(b for up, b, _ in trace if not up)

        # The per-link meter (sender-flip semantics) equals the aggregate
        # (up/down semantics) when the star has a single leaf.
        link = network.link("alice")
        assert link.rounds == network.rounds
        assert link.total_bits == network.total_bits
        assert link.bits_by_label() == network.bits_by_label()
        assert link.bits_per_round() == network.bits_per_round()

    @pytest.mark.parametrize("seed", range(5))
    def test_per_link_meters_agree_with_independent_two_party_networks(self, seed):
        """With k sites, every link behaves like its own one-leaf network."""
        rng = np.random.default_rng(1000 + seed)
        k = 4
        network = Network([f"site-{i}" for i in range(k)])
        pairs = {f"site-{i}": Network([f"site-{i}"]) for i in range(k)}
        for _ in range(80):
            site = f"site-{int(rng.integers(0, k))}"
            upstream = bool(rng.integers(0, 2))
            bits = int(rng.integers(0, 500))
            sender, receiver = (site, "coordinator") if upstream else ("coordinator", site)
            network.send(sender, receiver, None, bits=bits)
            pairs[site].send(sender, receiver, None, bits=bits)

        for site, pair in pairs.items():
            assert network.link(site).rounds == pair.rounds
            assert network.link(site).total_bits == pair.total_bits
        assert network.total_bits == sum(p.total_bits for p in pairs.values())
        assert network.max_link_bits == max(p.total_bits for p in pairs.values())


class TestAggregateRoundSemantics:
    def test_parallel_uploads_share_a_round(self):
        network = Network(["s0", "s1", "s2"])
        for site in ["s0", "s1", "s2"]:
            network.send(site, "coordinator", None, bits=1)
        assert network.rounds == 1
        network.send("coordinator", "s1", None, bits=1)
        assert network.rounds == 2
        network.send("s2", "coordinator", None, bits=1)
        assert network.rounds == 3

    def test_broadcast_is_one_round_with_per_link_bits(self):
        network = Network(["s0", "s1", "s2"])
        network.broadcast("hello", label="b", bits=100)
        assert network.rounds == 1
        assert network.total_bits == 300
        assert network.link_bits() == {"s0": 100, "s1": 100, "s2": 100}
        assert network.max_link_bits == 100
        assert network.bits_sent_by("coordinator") == 300

    def test_reset_clears_links_and_aggregate(self):
        network = Network(["s0", "s1"])
        network.broadcast(None, bits=10)
        network.send("s0", "coordinator", None, bits=5)
        network.reset()
        assert network.rounds == 0
        assert network.total_bits == 0
        assert network.link("s0").total_bits == 0
        assert network.link("s1").rounds == 0
