"""Pins for the one-shot protocols' per-item site work.

In the paper's one-shot protocols each site does some work for every
shared item, or for every subsampling level: Remark 3's witness draw
(``l1._l1_witness_task``), the index lists of the per-item exchange of
Algorithms 2-3 and Theorem 5.3 (``exchange._down_list_task`` /
``_up_list_task``), Algorithm 2's per-level column sums
(``linf._NestedSampler.column_sums``) and the two bit charges of the
heavy-hitter exchange.  Each is checked here against a frozen copy of its
one-item-at-a-time form: the same return value byte for byte
(``pickle.dumps`` also sees dtypes, memory layout and Python-vs-NumPy
scalar types, which is what a socket cluster ships) and the same
generator state afterwards.  The digests at the bottom pin whole protocol
results at k = 1, 3 and 8 sites.

Regenerate the digests (only after an *intentional* transcript change)
with::

    PYTHONPATH=src:. python tests/engine/test_oneshot_site_tasks.py
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import bitcost
from repro.engine.exchange import _down_list_task, _up_list_task
from repro.engine.heavy_hitters import (
    StarBinaryHeavyHittersProtocol,
    StarHeavyHittersProtocol,
    _site_share_task,
)
from repro.engine.l1 import StarExactL1Protocol, StarL1SamplingProtocol, _l1_witness_task
from repro.engine.linf import (
    StarKappaApproxLinfProtocol,
    StarTwoPlusEpsilonLinfProtocol,
    _NestedSampler,
)
from repro.engine.topology import Coordinator
from repro.matrices import integer_matrix_pair, random_binary_pair
from repro.sketch.kernels import exact_matmul
from tests.test_baseline_pins import canonical


# ----------------------------------------------------------- frozen copies
# The one-item-at-a-time forms, kept verbatim as the reference.
def frozen_l1_witness_task(rng, shard, row_offset):
    n_inner = shard.shape[1]
    column_sums = shard.sum(axis=0).astype(float)
    witnesses = np.full(n_inner, -1, dtype=np.int64)
    for j in range(n_inner):
        if column_sums[j] > 0:
            probabilities = shard[:, j] / column_sums[j]
            witnesses[j] = row_offset + rng.choice(shard.shape[0], p=probabilities)
    return (column_sums, witnesses), rng


def frozen_down_list_task(b, needed):
    n_items = b.shape[0]
    payload = {}
    down_bits = n_items
    for j in np.flatnonzero(needed):
        indices = np.flatnonzero(b[j, :])
        payload[int(j)] = indices
        down_bits += bitcost.bits_for_index_list(indices, max(b.shape[1], 1))
    return payload, down_bits


def frozen_up_list_task(shard, b, ship, site_ships, coordinator_ships, row_offset, total_rows):
    payload = {}
    up_bits = 0
    for j in np.flatnonzero(ship):
        indices = np.flatnonzero(shard[:, j])
        payload[int(j)] = row_offset + indices
        up_bits += bitcost.bits_for_index_list(indices, max(total_rows, 1))
    coord_block = exact_matmul(shard[:, site_ships], b[site_ships, :])
    site_share = exact_matmul(shard[:, coordinator_ships], b[coordinator_ships, :])
    return payload, up_bits, coord_block, site_share


def frozen_level_column_sums(sampler):
    return np.stack(
        [
            (sampler.ones & (sampler.priorities < rate)).sum(axis=0)
            for rate in sampler.keep_rates
        ]
    )


def frozen_site_share_task(
    beta_shard, b, ship_mask, coord_ships, row_offset, total_rows, value_bits,
    report_threshold, n,
):
    ship_items = np.flatnonzero(ship_mask)
    ship_bits = 0
    for j in ship_items:
        ship_bits += int(np.count_nonzero(beta_shard[:, j])) * (
            bitcost.bits_for_index(max(total_rows, 1)) + value_bits
        )
    coord_block = exact_matmul(beta_shard[:, ship_mask], b[ship_mask, :])

    c_site = exact_matmul(beta_shard[:, coord_ships], b[coord_ships, :])
    heavy_site = {
        (int(i) + row_offset, int(j)): int(c_site[i, j])
        for i, j in zip(*np.nonzero(c_site > report_threshold))
    }
    entry_bits = bitcost.bits_for_int(len(heavy_site)) + len(heavy_site) * (
        2 * bitcost.bits_for_index(max(n, 2)) + bitcost.INT_ENTRY_BITS
    )
    return (
        ship_items,
        ship_bits,
        coord_block,
        int(np.count_nonzero(c_site)),
        heavy_site,
        entry_bits,
    )


def frozen_coordinator_list_bits(b, needed, value_bits):
    """The heavy-hitter protocol's downstream charge, one item at a time."""
    v = np.count_nonzero(b, axis=1)
    down_bits = b.shape[0]
    for j in np.flatnonzero(needed):
        down_bits += int(v[j]) * (bitcost.bits_for_index(max(b.shape[1], 1)) + value_bits)
    return down_bits


# ---------------------------------------------------------------- inputs
KINDS = ("binary", "small", "huge", "fraction")


def make_matrix(rng, rows, cols, density, kind):
    """A non-negative matrix of one value kind, with some zeroed columns."""
    mask = rng.uniform(size=(rows, cols)) < density
    mask[:, rng.uniform(size=cols) < 0.25] = False
    if kind == "binary":
        values = np.ones((rows, cols), dtype=np.int64)
    elif kind == "small":
        values = rng.integers(1, 8, size=(rows, cols))
    elif kind == "huge":
        values = rng.integers(1, 2**40, size=(rows, cols))
    else:
        values = rng.uniform(size=(rows, cols)) * 10.0 ** rng.integers(-3, 4, size=(rows, cols))
    return np.where(mask, values, 0)


def random_mask(rng, size, rate):
    return rng.uniform(size=size) < rate


seeds = st.integers(0, 2**32 - 1)
row_counts = st.integers(1, 40)
item_counts = st.integers(0, 12)
densities = st.sampled_from([0.0, 0.05, 0.3, 1.0])
mask_rates = st.sampled_from([0.0, 0.5, 1.0])


def same_pickle(actual, expected):
    for protocol in (pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL):
        assert pickle.dumps(actual, protocol=protocol) == pickle.dumps(
            expected, protocol=protocol
        )


def next_draws(rng):
    return rng.integers(0, 2**63, size=4).tolist()


# ------------------------------------------------------------ l1 witnesses
@settings(max_examples=300, deadline=None)
@given(
    seed=seeds,
    rows=row_counts,
    cols=item_counts,
    density=densities,
    kind=st.sampled_from(KINDS),
    row_offset=st.integers(0, 10**6),
)
def test_l1_witnesses_match_frozen(seed, rows, cols, density, kind, row_offset):
    shard = make_matrix(np.random.default_rng(seed), rows, cols, density, kind)
    rng, frozen_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    result, rng = _l1_witness_task(rng, shard, row_offset)
    expected, frozen_rng = frozen_l1_witness_task(frozen_rng, shard, row_offset)
    same_pickle(result, expected)
    assert next_draws(rng) == next_draws(frozen_rng)


@pytest.mark.parametrize("kind", ["binary", "fraction"])
def test_l1_witnesses_of_a_tall_shard_match_frozen(kind):
    # 2.6 million entries: more than one column block of any blocked draw.
    shard = make_matrix(np.random.default_rng(7), 20_000, 130, 0.01, kind)
    rng, frozen_rng = np.random.default_rng(8), np.random.default_rng(8)
    result, rng = _l1_witness_task(rng, shard, 512)
    expected, frozen_rng = frozen_l1_witness_task(frozen_rng, shard, 512)
    same_pickle(result, expected)
    assert next_draws(rng) == next_draws(frozen_rng)


# --------------------------------------------------------- exchange lists
@settings(max_examples=200, deadline=None)
@given(
    seed=seeds,
    items=item_counts,
    cols=st.integers(0, 12),
    density=densities,
    rate=mask_rates,
)
def test_down_lists_match_frozen(seed, items, cols, density, rate):
    rng = np.random.default_rng(seed)
    b = make_matrix(rng, items, cols, density, "binary").astype(np.int64)
    needed = random_mask(rng, items, rate)
    same_pickle(_down_list_task(b, needed), frozen_down_list_task(b, needed))


@settings(max_examples=200, deadline=None)
@given(
    seed=seeds,
    rows=row_counts,
    items=item_counts,
    cols=st.integers(0, 12),
    density=densities,
    kind=st.sampled_from(["binary", "small"]),
    rate=mask_rates,
    row_offset=st.integers(0, 10**6),
)
def test_up_lists_match_frozen(seed, rows, items, cols, density, kind, rate, row_offset):
    rng = np.random.default_rng(seed)
    shard = make_matrix(rng, rows, items, density, kind).astype(np.int64)
    b = make_matrix(rng, items, cols, 0.3, "binary").astype(np.int64)
    site_ships = random_mask(rng, items, rate)
    coordinator_ships = ~site_ships & random_mask(rng, items, 0.5)
    ship = site_ships & (shard.sum(axis=0) > 0)
    total_rows = row_offset + rows + int(rng.integers(0, 50))
    args = (shard, b, ship, site_ships, coordinator_ships, row_offset, total_rows)
    same_pickle(_up_list_task(*args), frozen_up_list_task(*args))


# ------------------------------------------------------- linf level sums
@settings(max_examples=200, deadline=None)
@given(
    seed=seeds,
    rows=row_counts,
    items=item_counts,
    density=densities,
    levels=st.integers(1, 30),
    rates=st.sampled_from(["alg2", "alg3", "ties"]),
)
def test_level_column_sums_match_frozen(seed, rows, items, density, levels, rates):
    rng = np.random.default_rng(seed)
    a = make_matrix(rng, rows, items, density, "binary")
    if rates == "alg2":
        keep_rates = (1.0 + rng.uniform(0.01, 1.0)) ** (-np.arange(levels))
    elif rates == "alg3":
        keep_rates = 2.0 ** (-np.arange(levels))
    else:
        keep_rates = np.sort(rng.choice([1.0, 0.7, 0.5, 0.2, 0.0], size=levels))[::-1]
    sampler = _NestedSampler(a, keep_rates, np.random.default_rng(seed + 1))
    same_pickle(sampler.column_sums(), frozen_level_column_sums(sampler))


# ---------------------------------------------------- heavy-hitter charges
@settings(max_examples=200, deadline=None)
@given(
    seed=seeds,
    rows=row_counts,
    items=item_counts,
    cols=st.integers(0, 12),
    density=densities,
    kind=st.sampled_from(["binary", "small"]),
    rate=mask_rates,
    row_offset=st.integers(0, 10**6),
    value_bits=st.sampled_from([0, bitcost.INT_ENTRY_BITS]),
)
def test_site_share_task_matches_frozen(
    seed, rows, items, cols, density, kind, rate, row_offset, value_bits
):
    rng = np.random.default_rng(seed)
    beta_shard = make_matrix(rng, rows, items, density, kind).astype(np.int64)
    b = make_matrix(rng, items, cols, 0.4, kind).astype(np.int64)
    site_ships = random_mask(rng, items, rate)
    coord_ships = ~site_ships & random_mask(rng, items, 0.5)
    ship_mask = site_ships & (np.count_nonzero(beta_shard, axis=0) > 0)
    total_rows = row_offset + rows + int(rng.integers(0, 50))
    n = max(total_rows, items, cols)
    args = (
        beta_shard, b, ship_mask, coord_ships, row_offset, total_rows, value_bits,
        float(rng.uniform(0.0, 20.0)), n,
    )
    same_pickle(_site_share_task(*args), frozen_site_share_task(*args))


def spy_on_coordinator_sends(monkeypatch):
    sends = []
    send = Coordinator.send

    def spy(self, site, payload, *, label="", bits=None, universe=None):
        sends.append((label, payload, bits))
        return send(self, site, payload, label=label, bits=bits, universe=universe)

    monkeypatch.setattr(Coordinator, "send", spy)
    return sends


@settings(max_examples=40, deadline=None)
@given(seed=seeds, k=st.integers(1, 4), binary=st.booleans(), p=st.sampled_from([1.0, 2.0]))
def test_coordinator_list_charge_matches_frozen(seed, k, binary, p):
    rng = np.random.default_rng(seed)
    kind = "binary" if binary else "small"
    a = make_matrix(rng, 24, 16, 0.3, kind).astype(np.int64)
    b = make_matrix(rng, 16, 20, 0.3, kind).astype(np.int64)
    if not binary:
        b[0, 0] = 2  # a non-binary B makes every entry cost INT_ENTRY_BITS
    value_bits = 0 if binary else bitcost.INT_ENTRY_BITS
    with pytest.MonkeyPatch.context() as monkeypatch:
        sends = spy_on_coordinator_sends(monkeypatch)
        StarHeavyHittersProtocol(0.1, 0.05, p=p, beta_constant=4.0, seed=seed).run(
            np.array_split(a, k), b
        )
    charged = [(payload, bits) for label, payload, bits in sends if label == "hh/coordinator-lists"]
    for payload, bits in charged:
        assert bits == frozen_coordinator_list_bits(b, payload["b_rows"], value_bits)


# ----------------------------------------------------------- protocol pins
def _integer():
    return integer_matrix_pair(48, density=0.2, planted_value=6, seed=2301)


def _binary():
    return random_binary_pair(48, density=0.15, seed=2302)


#: name -> (protocol factory by seed, input factory)
CASES = {
    "l1-sampling": (lambda s: StarL1SamplingProtocol(seed=s), _integer),
    "l1-exact": (lambda s: StarExactL1Protocol(seed=s), _integer),
    "linf-2+eps": (lambda s: StarTwoPlusEpsilonLinfProtocol(0.5, gamma=0.05, seed=s), _binary),
    "linf-kappa": (lambda s: StarKappaApproxLinfProtocol(4.0, alpha_constant=0.5, seed=s), _binary),
    "hh-general": (lambda s: StarHeavyHittersProtocol(0.1, 0.05, seed=s), _integer),
    "hh-binary": (lambda s: StarBinaryHeavyHittersProtocol(0.1, 0.05, seed=s), _binary),
}
SITE_COUNTS = (1, 3, 8)


def digest(name: str, k: int) -> str:
    factory, inputs = CASES[name]
    a, b = inputs()
    shards = np.array_split(a, k)
    results = [factory(seed).run(shards, b) for seed in range(6)]
    return hashlib.sha256(canonical(results)).hexdigest()


#: Generated before the per-item loops became array passes.  Do not edit
#: by hand.
PINS = {
    "hh-binary/k1": "91f052878ba1887497ab859f6a08924372e1837817afad2981e9117bfe6a63ec",
    "hh-binary/k3": "4a3d43bee53751e0b8445c4d41e9640a11f1ccfdc2793557e19561edc0beee73",
    "hh-binary/k8": "1b7fc8b7e4c965b7d8b6526238524702a63fef63b7f641b35f2ac09670ac708d",
    "hh-general/k1": "c65baebdac95909079f068067c27675616f23ed1420b4da09868a0a7dd7068b3",
    "hh-general/k3": "c4b464184d131c333ee9c49ca25d5ccc839cb388e6e0aa6ef2a81a4d76b71162",
    "hh-general/k8": "97461caa6d7631db03919ca78c5da5ccfa6257c28a33500559a3901429781495",
    "l1-exact/k1": "172fbd66202de33c3101f51ce3b67d2ae07ffb68842e191081079e966a0bca2a",
    "l1-exact/k3": "179e9ecbda6d17d6f7f2c50d5f5b352561bb1b7a4f2457ce125ec2eff75f1a64",
    "l1-exact/k8": "56e8cfecdad2ae56d36706ae08629d45ef4f778446ec915e023090876a2da4e0",
    "l1-sampling/k1": "fb84d71b014369af51c21d1b184e4782dc37efce61a9cd26fb38a1bee539140b",
    "l1-sampling/k3": "30a69cc1041b37563a1d97ca68253af2238e3e043612493d060fbebb1923b31f",
    "l1-sampling/k8": "35622ccc7bb1ec5e8a5cb5ce2a9a1098ed546767714febedb5775a63de8b6d72",
    "linf-2+eps/k1": "bb6f870f4426bd09a060c057eb193d34bd7abf12b16222a713354a0abf49ac14",
    "linf-2+eps/k3": "32212676f0652bfeca60556272b1eecafdf5138945e9173f846cdd56c531a42e",
    "linf-2+eps/k8": "f3051ad982f290750248925ff07290ea26e5a3b794542d8598f9f0b0a74c13f3",
    "linf-kappa/k1": "0158ead1a8f637325cbe3e14dd856da53f4ff82ebb099aa61a1634a55b033b48",
    "linf-kappa/k3": "ff8beb27d06721616f02e556956bb90fc3fbba23f133a0069308c55bbfb093a5",
    "linf-kappa/k8": "40b7f33f0f205d217724b60f72213ca1315b81b123c16b1bd6db56d3fb60d995",
}


@pytest.mark.parametrize("k", SITE_COUNTS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_protocol_results_pinned(name, k):
    assert digest(name, k) == PINS[f"{name}/k{k}"]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print("PINS = {")
    for case in sorted(CASES):
        for sites in SITE_COUNTS:
            print(f'    "{case}/k{sites}": "{digest(case, sites)}",')
    print("}")
