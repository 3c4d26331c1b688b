"""The acceptance gate: a real 4-site socket cluster vs the in-process facade.

One coordinator server in this process, four ``repro-site`` OS processes on
localhost, one client — and an in-process :class:`ClusterEstimator` with the
same shards and seed issuing the *identical query sequence* (the per-query
seed stream is stateful, so sequence identity is part of the contract).

Claims pinned here, straight from the service contract:

* estimates are **bit-identical** to the in-process serial runtime for
  ``lp_norm``, ``l0_sample``, ``heavy_hitters`` and a streamed session;
* **observed socket bytes × 8 == wire-meter bits** — in aggregate, on every
  link, and in every round;
* for streaming traffic (deltas are already encoded bytes, charged
  8 bits/byte in-process too) the simulated, wire and observed meters all
  coincide exactly.
"""

from __future__ import annotations

import pickle
import pickletools
import threading

import numpy as np
import pytest

from repro import ClusterEstimator
from repro.service.client import SiteAgent, local_cluster
from repro.service.messages import ServiceError
from repro.service.server import CoordinatorServer

SEED = 7
NUM_SITES = 4


def _data():
    rng = np.random.default_rng(11)
    a = rng.integers(0, 3, size=(40, 24))
    b = rng.integers(0, 3, size=(24, 20))
    return np.array_split(a, NUM_SITES, axis=0), b


def canon(value) -> bytes:
    """Canonical pickle — byte equality here is bit-identity of the value."""
    return pickletools.optimize(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


#: The shared query script: (key, method, kwargs), issued in this exact
#: order on both the remote client and the in-process reference.
ONE_SHOT_QUERIES = [
    ("lp_norm", "lp_norm", {"p": 2.0, "epsilon": 0.3}),
    ("l0_sample", "l0_sample", {"epsilon": 0.3}),
    ("heavy_hitters", "heavy_hitters", {"phi": 0.3, "epsilon": 0.2}),
]


def _run_reference(shards, b):
    estimator = ClusterEstimator(shards, b, seed=SEED)
    out = {}
    for key, method, kwargs in ONE_SHOT_QUERIES:
        out[key] = getattr(estimator, method)(**kwargs)
    session = estimator.stream()
    offset = 0
    for index, shard in enumerate(shards):
        session.ingest(index, offset + np.arange(shard.shape[0]), shard)
        offset += shard.shape[0]
    out["epoch"] = session.sync()
    out["live_lp"] = session.live_lp_norm(p=2.0)
    out["live_l0"] = session.live_l0()
    out["live_hh"] = session.live_heavy_hitters(phi=0.3)
    out["session_lp"] = session.lp_norm(p=2.0, epsilon=0.3)
    out["upload_bytes"] = session.total_upload_bytes
    return out


def _run_remote(client, shards):
    out, reports = {}, {}

    def query(key, method, **kwargs):
        out[key] = client.query(method, **kwargs)
        reports[key] = client.last_service

    for key, method, kwargs in ONE_SHOT_QUERIES:
        query(key, method, **kwargs)
    client.query("stream_open")
    offset = 0
    for index, shard in enumerate(shards):
        client.query(
            "stream_ingest",
            site=index,
            rows=offset + np.arange(shard.shape[0]),
            deltas=shard,
        )
        offset += shard.shape[0]
    query("epoch", "stream_sync")
    query("live_lp", "stream_live_lp_norm", p=2.0)
    query("live_l0", "stream_live_l0")
    query("live_hh", "stream_live_heavy_hitters", phi=0.3)
    query("session_lp", "stream_lp_norm", p=2.0, epsilon=0.3)
    query("upload_bytes", "stream_total_upload_bytes")
    return out, reports


@pytest.fixture(scope="module")
def cluster():
    """Run the whole script once against a live cluster; tests assert on it."""
    shards, b = _data()
    with local_cluster(shards, b, seed=SEED) as (server, client):
        remote, reports = _run_remote(client, shards)
        yield {
            "server": server,
            "client": client,
            "remote": remote,
            "reports": reports,
            "reference": _run_reference(shards, b),
        }


class TestHandshake:
    def test_client_sees_the_cluster_shape(self, cluster):
        meta = cluster["client"].cluster
        assert meta["k"] == NUM_SITES
        assert meta["b_shape"] == [24, 20]

    def test_info_reports_the_registered_shards(self, cluster):
        shards, _ = _data()
        info = cluster["client"].query("info")
        assert info["k"] == NUM_SITES
        assert info["seed"] == SEED
        assert info["row_counts"] == [shard.shape[0] for shard in shards]


class TestBitIdentity:
    """Socket execution must be invisible: same estimates, same meters."""

    @pytest.mark.parametrize("key", [key for key, _, _ in ONE_SHOT_QUERIES])
    def test_one_shot_estimates_are_bit_identical(self, cluster, key):
        remote, reference = cluster["remote"][key], cluster["reference"][key]
        assert canon(remote.value) == canon(reference.value)

    @pytest.mark.parametrize("key", [key for key, _, _ in ONE_SHOT_QUERIES])
    def test_one_shot_costs_are_identical(self, cluster, key):
        remote, reference = cluster["remote"][key], cluster["reference"][key]
        assert remote.cost.total_bits == reference.cost.total_bits
        assert remote.cost.rounds == reference.cost.rounds

    @pytest.mark.parametrize("key", [key for key, _, _ in ONE_SHOT_QUERIES])
    def test_simulated_meter_in_report_matches_the_cost(self, cluster, key):
        report = cluster["reports"][key]
        result = cluster["reference"][key]
        assert report["simulated_bits"] == result.cost.total_bits
        assert report["rounds"] == result.cost.rounds

    def test_streamed_epoch_is_identical(self, cluster):
        remote, reference = cluster["remote"]["epoch"], cluster["reference"]["epoch"]
        assert remote.upload_bytes == reference.upload_bytes
        assert remote.total_bytes == reference.total_bytes
        assert cluster["remote"]["upload_bytes"] == cluster["reference"]["upload_bytes"]

    def test_streamed_live_estimates_are_bit_identical(self, cluster):
        for key in ("live_lp", "live_l0", "live_hh"):
            assert canon(cluster["remote"][key]) == canon(cluster["reference"][key])

    def test_streamed_one_shot_query_is_bit_identical(self, cluster):
        remote = cluster["remote"]["session_lp"]
        reference = cluster["reference"]["session_lp"]
        assert canon(remote.value) == canon(reference.value)
        assert remote.cost.total_bits == reference.cost.total_bits


class TestObservedBytes:
    """observed socket bytes × 8 == wire-meter bits, at every granularity."""

    def _metered_reports(self, cluster):
        return {
            key: report
            for key, report in cluster["reports"].items()
            if report is not None and report["wire_bits"] > 0
        }

    def test_aggregate(self, cluster):
        reports = self._metered_reports(cluster)
        assert reports  # the script produced metered traffic
        for key, report in reports.items():
            assert report["observed_bytes"] * 8 == report["wire_bits"], key

    def test_per_link(self, cluster):
        for key, report in self._metered_reports(cluster).items():
            for site, wire_bits in report["wire_link_bits"].items():
                observed = report["observed_link_bytes"].get(site, 0)
                assert observed * 8 == wire_bits, (key, site)

    def test_per_round(self, cluster):
        for key, report in self._metered_reports(cluster).items():
            for round_index, wire_bits in report["wire_round_bits"].items():
                observed = sum(
                    rounds.get(round_index, 0)
                    for rounds in report["observed_round_bytes"].values()
                )
                assert observed * 8 == wire_bits, (key, round_index)

    def test_every_live_site_carried_traffic(self, cluster):
        for report in self._metered_reports(cluster).values():
            assert set(report["observed_link_bytes"]) == {
                f"site-{i}" for i in range(NUM_SITES)
            }

    def test_streaming_meters_all_coincide(self, cluster):
        """Deltas are encoded bytes charged 8 bits/byte in-process too, so
        for the sync epoch *all three* meters agree exactly."""
        report = cluster["reports"]["epoch"]
        assert (
            report["simulated_bits"]
            == report["wire_bits"]
            == report["observed_bytes"] * 8
        )
        assert report["observed_bytes"] == cluster["reference"]["epoch"].total_bytes


class TestErrors:
    """Failures surface as remote ServiceErrors, never silent hangs."""

    def test_unknown_method_is_refused(self, cluster):
        with pytest.raises(ServiceError, match="unknown query method"):
            cluster["client"].query("drop_tables")

    def test_remote_exception_carries_its_type_and_message(self, cluster):
        with pytest.raises(ServiceError, match="ValueError"):
            cluster["client"].query("lp_norm", p=17.0, epsilon=0.3)


class TestNonFiniteData:
    """A NaN or infinite shard is refused at upload, not at readiness.

    The site learns why and its index stays free for a clean shard.
    Refused only when the estimator is built, after the last site
    arrived, it would leave a registered site, a server that never
    becomes ready and an agent that returns without an error.
    """

    def test_non_finite_shard_is_refused_and_the_index_stays_free(self):
        server = CoordinatorServer(
            np.ones((3, 2)), num_sites=1, seed=SEED, host="127.0.0.1", port=0
        ).start()
        bad = np.ones((4, 3))
        bad[1, 1] = np.nan
        refusals: list[ServiceError] = []

        def register(shard):
            try:
                SiteAgent("127.0.0.1", server.port, 0, shard).run()
            except ServiceError as exc:
                refusals.append(exc)

        threads = [
            threading.Thread(target=register, args=(shard,), daemon=True)
            for shard in (bad, np.ones((4, 3)))
        ]
        try:
            threads[0].start()
            threads[0].join(10.0)
            assert not threads[0].is_alive(), "the NaN shard was registered"
            assert len(refusals) == 1
            assert "NaN or infinite entries" in str(refusals[0])
            assert not server.wait_ready(0.2)
            threads[1].start()
            assert server.wait_ready(30.0)
        finally:
            server.stop()
            for thread in threads:
                if thread.ident is not None:
                    thread.join(10.0)
        assert not any(thread.is_alive() for thread in threads)

    def test_non_finite_b_is_refused_at_construction(self):
        with pytest.raises(ValueError, match="B has NaN or infinite entries"):
            CoordinatorServer(np.full((3, 2), np.inf), num_sites=1)
