"""Link models, network conditions and the simulated makespan.

The makespan model prices a recorded transcript — it must never perturb the
transcript itself, must be deterministic for a fixed conditions object
(jitter included), and must respect the structural lower bound the
accounting layer documents: no schedule can beat the busiest link's
serialization delay plus one latency.  The latter is property-tested over
arbitrary message schedules and arbitrary uniform link models.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import LinkModel, Network, NetworkConditions
from repro.comm.conditions import simulate_tree_makespan


class TestLinkModel:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"latency": -1.0},
            {"bandwidth": 0.0},
            {"bandwidth": -5.0},
            {"jitter": -0.1},
            {"latency": math.nan},
        ],
    )
    def test_rejects_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            LinkModel(**kwargs)


class TestNetworkConditions:
    def test_override_takes_precedence(self):
        slow = LinkModel(latency=9.0)
        conditions = NetworkConditions(LinkModel(), overrides={"site-1": slow})
        assert conditions.edge_link("site-0") is conditions.default
        assert conditions.edge_link("site-1") is slow

    def test_ideal_detection(self):
        assert NetworkConditions().is_ideal()
        assert not NetworkConditions(LinkModel(latency=1.0)).is_ideal()
        assert not NetworkConditions(overrides={"x": LinkModel(latency=1.0)}).is_ideal()

    def test_dropped_sites_are_carried(self):
        conditions = NetworkConditions(dropped={"site-2"})
        assert conditions.dropped == frozenset({"site-2"})

    def test_unknown_override_keys_are_rejected_by_the_network(self):
        """A typo'd straggler override must not silently price as default."""
        conditions = NetworkConditions(overrides={"site-0": LinkModel(latency=5.0)})
        with pytest.raises(ValueError, match="site-0"):
            Network(["alice"], "bob", conditions=conditions)
        # Valid keys construct fine; so do overrides for sites the
        # conditions themselves declare dropped (the driver excludes them
        # from the star before wiring it).
        Network(["alice"], "bob", conditions=NetworkConditions(
            overrides={"alice": LinkModel(latency=5.0)}
        ))
        Network(["site-0"], conditions=NetworkConditions(
            overrides={"site-1": LinkModel(latency=5.0)}, dropped={"site-1"}
        ))

    def test_jitter_is_deterministic_per_conditions(self):
        conditions = NetworkConditions(LinkModel(jitter=0.5), jitter_seed=7)
        model = conditions.default
        first = conditions.jitter_seconds("site-0", 1, model)
        assert conditions.jitter_seconds("site-0", 1, model) == first
        assert 0.0 <= first <= 0.5

    def test_jitter_varies_with_seed_site_and_round(self):
        base = NetworkConditions(LinkModel(jitter=0.5), jitter_seed=7)
        other_seed = NetworkConditions(LinkModel(jitter=0.5), jitter_seed=8)
        model = base.default
        draws = {
            base.jitter_seconds("site-0", 1, model),
            base.jitter_seconds("site-0", 2, model),
            base.jitter_seconds("site-1", 1, model),
            other_seed.jitter_seconds("site-0", 1, model),
        }
        assert len(draws) == 4  # all distinct with overwhelming probability


class TestNetworkMakespan:
    def scripted_network(self, conditions=None) -> Network:
        network = Network(["a", "b"], "hub", conditions=conditions)
        network.send("a", "hub", None, bits=40)   # round 1 (up), link a
        network.send("b", "hub", None, bits=20)   # round 1 (up), link b
        network.send("hub", "a", None, bits=10)   # round 2 (down), link a
        return network

    def test_ideal_conditions_price_zero(self):
        network = self.scripted_network()
        assert network.makespan() == 0.0
        assert network.makespan_per_round() == {1: 0.0, 2: 0.0}

    def test_critical_path_over_rounds(self):
        conditions = NetworkConditions(LinkModel(latency=1.0, bandwidth=10.0))
        network = self.scripted_network(conditions)
        # Round 1: both uploads drain into the hub back to back, their
        # latencies overlap -> 1 + 4 + 2 = 7.
        # Round 2: only link a active -> 1 + 1 = 2.
        assert network.makespan_per_round() == {1: pytest.approx(7.0), 2: pytest.approx(2.0)}
        assert network.makespan() == pytest.approx(9.0)

    def test_straggler_override_dominates(self):
        conditions = NetworkConditions(
            LinkModel(latency=0.0, bandwidth=1e9),
            overrides={"b": LinkModel(latency=60.0)},
        )
        network = self.scripted_network(conditions)
        per_round = network.makespan_per_round()
        assert per_round[1] >= 60.0          # b's latency gates round 1
        assert per_round[2] < 1.0            # b idle in round 2
        assert network.makespan() == pytest.approx(sum(per_round.values()))

    def test_makespan_keys_align_with_bits_per_round(self):
        conditions = NetworkConditions(LinkModel(latency=1.0))
        network = self.scripted_network(conditions)
        assert network.makespan_per_round().keys() == network.bits_per_round().keys()

    def test_same_link_same_round_shares_one_latency(self):
        conditions = NetworkConditions(LinkModel(latency=1.0, bandwidth=math.inf))
        network = Network(["a"], "hub", conditions=conditions)
        network.send("a", "hub", None, bits=5)
        network.send("a", "hub", None, bits=5)  # same round, same burst
        assert network.makespan() == pytest.approx(1.0)

    def test_two_party_network_prices_the_same(self):
        conditions = NetworkConditions(LinkModel(latency=2.0, bandwidth=8.0))
        network = Network(["alice"], coordinator_name="bob", conditions=conditions)
        network.send("alice", "bob", None, bits=16)
        network.send("bob", "alice", None, bits=8)
        assert network.makespan() == pytest.approx((2.0 + 2.0) + (2.0 + 1.0))


# --------------------------------------------------------------------------
# Satellite property: for ANY LinkModel and ANY schedule, the simulated
# makespan is at least max(link bits) / bandwidth + latency — the busiest
# link must fully serialize, and at least one round pays the latency.
# --------------------------------------------------------------------------

schedules = st.lists(
    st.tuples(
        st.integers(0, 3),                 # site index
        st.booleans(),                     # upstream?
        st.integers(0, 10_000),            # bits
    ),
    min_size=1,
    max_size=40,
)
link_models = st.builds(
    LinkModel,
    latency=st.floats(0.0, 5.0, allow_nan=False),
    bandwidth=st.floats(0.5, 1e6, allow_nan=False, exclude_min=False),
    jitter=st.floats(0.0, 1.0, allow_nan=False),
)


@settings(max_examples=60, deadline=None)
@given(schedule=schedules, model=link_models, jitter_seed=st.integers(0, 2**16))
def test_makespan_dominates_busiest_link(schedule, model, jitter_seed):
    conditions = NetworkConditions(model, jitter_seed=jitter_seed)
    network = Network([f"site-{i}" for i in range(4)], conditions=conditions)
    for site, upstream, bits in schedule:
        name = f"site-{site}"
        sender, receiver = (name, "coordinator") if upstream else ("coordinator", name)
        network.send(sender, receiver, None, bits=bits)

    makespan = network.makespan()
    lower_bound = network.max_link_bits / model.bandwidth + model.latency
    assert makespan >= lower_bound - 1e-9
    # ... and every round pays at least one latency on its slowest link.
    assert makespan >= network.rounds * model.latency - 1e-9
    # Deterministic re-pricing, jitter included.
    assert network.makespan() == makespan
    # The simulation is a pure function of (round grouping, conditions).
    total, per_round = simulate_tree_makespan(
        network.log.per_round(), conditions, network.tree
    )
    assert total == makespan
    assert sum(per_round.values()) == pytest.approx(total)
