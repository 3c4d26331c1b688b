"""Tests for the per-item index-exchange primitive shared by Algorithms 2/3/5.2.

Run in the two-party view: the one-leaf star with Alice as the single site
and Bob as the coordinator, so the site's share is ``C_A`` and the
coordinator's is ``C_B``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.network import Network
from repro.engine.exchange import star_exchange_item_supports
from repro.engine.topology import Coordinator, Site
from repro.matrices import random_binary_pair


def _make_parties(a, b):
    network = Network(["alice"], coordinator_name="bob")
    alice = Site("alice", a, network, rng=np.random.default_rng(0))
    bob = Coordinator(b, network, rng=np.random.default_rng(1))
    return alice, bob, network


def exchange_item_supports(alice, bob, a_sub, b, **kwargs):
    """Two-party call shape: ``(C_A, C_B, info)``."""
    site_shares, c_bob, info = star_exchange_item_supports(
        bob, [alice], [np.asarray(a_sub)], np.asarray(b), **kwargs
    )
    return site_shares[0], c_bob, info


class TestCorrectness:
    def test_shares_sum_to_product(self):
        a, b = random_binary_pair(40, density=0.15, seed=60)
        alice, bob, _ = _make_parties(a, b)
        c_alice, c_bob, _ = exchange_item_supports(alice, bob, a, b)
        assert np.array_equal(c_alice + c_bob, a @ b)

    def test_subsampled_matrix_respected(self):
        a, b = random_binary_pair(40, density=0.2, seed=61)
        a_sub = a.copy()
        a_sub[:, ::2] = 0
        alice, bob, _ = _make_parties(a, b)
        c_alice, c_bob, _ = exchange_item_supports(alice, bob, a_sub, b)
        assert np.array_equal(c_alice + c_bob, a_sub @ b)

    def test_empty_inputs(self):
        a = np.zeros((8, 8), dtype=np.int64)
        b = np.zeros((8, 8), dtype=np.int64)
        alice, bob, _ = _make_parties(a, b)
        c_alice, c_bob, info = exchange_item_supports(alice, bob, a, b)
        assert c_alice.sum() == 0
        assert c_bob.sum() == 0
        assert info["exchanged_indices"] == 0

    def test_dimension_mismatch_rejected(self):
        a = np.ones((4, 5), dtype=np.int64)
        b = np.ones((4, 4), dtype=np.int64)
        alice, bob, _ = _make_parties(a, b)
        with pytest.raises(ValueError):
            exchange_item_supports(alice, bob, a, b)

    def test_rectangular_inputs(self):
        rng = np.random.default_rng(62)
        a = (rng.uniform(size=(20, 30)) < 0.2).astype(np.int64)
        b = (rng.uniform(size=(30, 10)) < 0.2).astype(np.int64)
        alice, bob, _ = _make_parties(a, b)
        c_alice, c_bob, _ = exchange_item_supports(alice, bob, a, b)
        assert (c_alice + c_bob).shape == (20, 10)
        assert np.array_equal(c_alice + c_bob, a @ b)


class TestCostAccounting:
    def test_exchanged_volume_is_min_side(self):
        a, b = random_binary_pair(32, density=0.2, seed=63)
        alice, bob, _ = _make_parties(a, b)
        _, _, info = exchange_item_supports(alice, bob, a, b)
        u = a.sum(axis=0)
        v = b.sum(axis=1)
        active = (u > 0) & (v > 0)
        assert info["exchanged_indices"] == int(np.minimum(u, v)[active].sum())

    def test_network_records_both_directions(self):
        a, b = random_binary_pair(32, density=0.2, seed=64)
        alice, bob, network = _make_parties(a, b)
        exchange_item_supports(alice, bob, a, b, label_prefix="x/")
        labels = {message.label for message in network.log.messages}
        assert "x/coordinator-item-lists" in labels
        assert "x/site-item-lists" in labels

    def test_send_u_counts_flag_controls_first_message(self):
        a, b = random_binary_pair(32, density=0.2, seed=65)
        alice, bob, network = _make_parties(a, b)
        exchange_item_supports(alice, bob, a, b, send_u_counts=False)
        labels = {message.label for message in network.log.messages}
        assert not any("item-counts" in label for label in labels)

    def test_items_split_between_parties(self):
        a, b = random_binary_pair(48, density=0.25, seed=66)
        alice, bob, _ = _make_parties(a, b)
        _, _, info = exchange_item_supports(alice, bob, a, b)
        u = a.sum(axis=0)
        v = b.sum(axis=1)
        active = int(np.count_nonzero((u > 0) & (v > 0)))
        assert info["site_owned_items"] + info["coordinator_owned_items"] == active
