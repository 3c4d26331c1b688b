"""Service hardening under injected faults (ISSUE 9): retry, degrade, quarantine.

Each scenario runs a real loopback cluster whose site processes carry a
chaos flag (see ``repro-site --help``), and pins the coordinator's new
robustness contract:

* a **transient refusal** (``retry`` reply) is backed off and resent
  within the budget — the answer is still bit-identical to the in-process
  runtime, and ``repro_link_retries_total`` counts the resends; beyond
  the budget the failure is a plain :class:`ServiceError`;
* a **reply past the deadline** degrades the query: the surviving
  sub-cluster answers (exclude + renormalize, bit-identical to an
  in-process dropout-exclude run) and ``client.last_degraded`` carries
  the structured report;
* a **corrupt frame** quarantines the site — its link is dead, the gauge
  shows it, and every later query degrades immediately (reason
  ``"quarantine"``, no timeout wait);
* a **mid-stream timeout** drops the site from the streaming session with
  the degradation report attached to the error; after restore the next
  boundary ships everyone and the live state matches a clean in-process
  replay bit for bit (the failed boundary must not double-merge).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import ClusterEstimator
from repro.comm.conditions import NetworkConditions
from repro.engine.runtime import Runtime
from repro.service.client import local_cluster
from repro.service.messages import ServiceError
from repro.service.metrics import parse_metrics_text

SEED = 13


def _data(num_sites: int):
    rng = np.random.default_rng(31)
    a = rng.integers(0, 3, size=(12 * num_sites, 12))
    b = rng.integers(0, 3, size=(12, 8))
    return np.array_split(a, num_sites, axis=0), b


def _metric(server, name: str, **labels) -> float:
    parsed = parse_metrics_text(server.metrics.render())
    return parsed.get((name, tuple(sorted(labels.items()))), 0.0)


class TestTransientRetries:
    def test_refusals_within_budget_are_invisible_to_the_answer(self):
        shards, b = _data(2)
        site_args = [[], ["--flaky", "2"]]
        with local_cluster(
            shards, b, seed=SEED, site_args=site_args, retries=3, backoff=0.01
        ) as (server, client):
            answer = client.query("lp_norm", p=2.0, epsilon=0.3)
            assert client.last_degraded is None
            reference = ClusterEstimator(shards, b, seed=SEED).lp_norm(
                p=2.0, epsilon=0.3
            )
            assert answer.value == reference.value
            assert _metric(server, "repro_link_retries_total", site="site-1") >= 2

    def test_refusals_beyond_budget_fail_plainly(self):
        shards, b = _data(2)
        site_args = [[], ["--flaky", "99"]]
        with local_cluster(
            shards, b, seed=SEED, site_args=site_args, retries=1, backoff=0.01
        ) as (server, client):
            with pytest.raises(ServiceError, match="still refusing"):
                client.query("lp_norm", p=2.0, epsilon=0.3)
            # An exhausted retry budget is not a site loss: nothing is
            # degraded, nothing is quarantined.
            assert client.last_degraded is None
            assert _metric(server, "repro_quorum_shortfall_total") == 0


class TestTimeoutDegradation:
    def test_slow_site_degrades_with_a_renormalized_answer(self):
        shards, b = _data(3)
        site_args = [[], [], ["--delay", "2"]]
        with local_cluster(
            shards, b, seed=SEED, site_args=site_args, deadline=0.5, retries=0
        ) as (server, client):
            answer = client.query("lp_norm", p=2.0, epsilon=0.3)
            report = client.last_degraded
            assert report is not None
            assert report["reason"] == "timeout"
            assert report["failed_sites"] == ["site-2"]
            assert report["policy"] == "exclude"
            assert report["surviving_sites"] == 2
            # The degraded answer is the survivor-renormalized estimate —
            # bit-identical to an in-process dropout-exclude run over the
            # same sub-cluster with the same seed.
            reference = ClusterEstimator(
                shards,
                b,
                seed=SEED,
                runtime=Runtime(dropout="exclude"),
                conditions=NetworkConditions(dropped=["site-2"]),
            ).lp_norm(p=2.0, epsilon=0.3)
            assert answer.value == reference.value
            assert _metric(server, "repro_quorum_shortfall_total") >= 1

            # The next query degrades again (the site is still slow) but
            # still answers, and the degraded seed stream stays stateful:
            # it does not restart from the first degraded answer.
            again = client.query("lp_norm", p=2.0, epsilon=0.3)
            assert client.last_degraded is not None
            assert again.value > 0


class TestQuarantine:
    def test_corrupt_frames_quarantine_the_site(self):
        shards, b = _data(3)
        site_args = [[], ["--corrupt-upstream"], []]
        with local_cluster(
            shards, b, seed=SEED, site_args=site_args, retries=0
        ) as (server, client):
            client.query("lp_norm", p=2.0, epsilon=0.3)
            report = client.last_degraded
            assert report is not None
            assert report["reason"] == "corrupt-frame"
            assert report["failed_sites"] == ["site-1"]
            assert server.quarantined == {"site-1"}
            assert _metric(server, "repro_quarantined_sites") == 1

            # Quarantine is sticky: later queries skip the dead link and
            # degrade immediately (no deadline wait).
            start = time.monotonic()
            again = client.query("l0_sample", epsilon=0.3)
            assert time.monotonic() - start < 5.0
            assert client.last_degraded["reason"] == "quarantine"
            assert client.last_degraded["failed_sites"] == ["site-1"]
            assert again is not None


class TestStreamingDegradation:
    def test_timed_out_boundary_drops_then_recovers_bit_exact(self):
        shards, b = _data(3)
        # site-1's first protocol request is its first epoch-boundary
        # upload; the nap outlives the deadline, so the boundary degrades.
        site_args = [[], ["--delay", "3", "--delay-count", "1"], []]
        first, second = [], []
        offset = 0
        for index, shard in enumerate(shards):
            half = shard.shape[0] // 2
            rows = offset + np.arange(shard.shape[0])
            first.append((index, rows[:half], shard[:half]))
            second.append((index, rows[half:], shard[half:]))
            offset += shard.shape[0]

        with local_cluster(
            shards, b, seed=SEED, site_args=site_args, deadline=1.0, retries=0
        ) as (server, client):
            client.query("stream_open")
            for index, rows, deltas in first:
                client.query("stream_ingest", site=index, rows=rows, deltas=deltas)
            with pytest.raises(ServiceError, match="dropped") as info:
                client.query("stream_end_epoch", force=True)
            degradation = info.value.degradation
            assert degradation["reason"] == "timeout"
            assert degradation["failed_sites"] == ["site-1"]
            assert _metric(server, "repro_quorum_shortfall_total") >= 1

            # Let the napping site wake up and flush its stale reply.
            time.sleep(2.5)
            restored = client.query("stream_restore_site", site=1)
            assert restored["dropped"] == []
            for index, rows, deltas in second:
                client.query("stream_ingest", site=index, rows=rows, deltas=deltas)
            report = client.query("stream_end_epoch", force=True)
            assert report.dropped == []

            # The failed boundary merged every on-time delta exactly once;
            # after restore + the next boundary the live state must equal a
            # clean in-process replay bit for bit (a double-merge of the
            # sites behind the timed-out send would show up here).
            replay = ClusterEstimator(shards, b, seed=SEED).stream()
            for index, rows, deltas in first:
                replay.ingest(index, rows, deltas)
            replay.end_epoch(force=True)
            for index, rows, deltas in second:
                replay.ingest(index, rows, deltas)
            replay.end_epoch(force=True)
            assert client.query("stream_live_lp_norm", p=2.0) == replay.live_lp_norm(
                p=2.0
            )
            assert client.query(
                "stream_live_heavy_hitters", phi=0.3
            ) == replay.live_heavy_hitters(phi=0.3)


def test_a_tree_over_other_sites_fails_when_the_server_is_built():
    """Sites register by the tree's names, so a spec that does not cover
    ``site-0..k-1`` must fail at construction, not stall registration."""
    from repro.comm.tree import TreeSpec
    from repro.service.server import CoordinatorServer

    with pytest.raises(ValueError, match="tree leaves"):
        CoordinatorServer(np.eye(4), num_sites=2, tree=TreeSpec.flat(["a", "b"]))


@pytest.mark.parametrize("shape", [(3,), (2, 3, 2), ()])
def test_a_b_that_is_not_a_matrix_fails_when_the_server_is_built(shape):
    """Accepted, such a B took a (4, 3) shard and then failed the estimator
    build after the last registration: the server never became ready."""
    from repro.service.server import CoordinatorServer

    with pytest.raises(ValueError, match="b must be a 2-dimensional matrix"):
        CoordinatorServer(np.ones(shape), num_sites=1)


def test_a_matrix_that_is_not_real_is_refused_by_the_server():
    """Accepted, a complex B dropped its imaginary part in every product,
    and a string shard failed every query with ``UFuncTypeError``."""
    from repro.service.server import CoordinatorServer

    with pytest.raises(ValueError, match="^B must hold real numbers"):
        CoordinatorServer(np.ones((3, 2)) * 1j, num_sites=1)
    server = CoordinatorServer(np.ones((3, 2)), num_sites=1)
    with pytest.raises(
        ValueError, match="^the shard of site 'site-0' must hold real numbers"
    ):
        server._check_shard("site-0", 0, np.ones((4, 3)).astype(str))


class _FrameRefusingLink:
    """A site link stub that fails the test if any frame is sent on it."""

    def __init__(self, site_name: str) -> None:
        self.site_name = site_name

    def request(self, message, timeout=None):
        pytest.fail(f"{message.type!r} frame sent to {self.site_name!r}")

    def submit(self, message, *, flush=True):
        pytest.fail(f"{message.type!r} frame sent to {self.site_name!r}")


@pytest.mark.parametrize("fan_out", [None, 2])
def test_an_empty_broadcast_meters_nothing_and_sends_no_frame(fan_out, monkeypatch):
    from repro.comm.tree import TreeSpec
    from repro.service import transport
    from repro.service.transport import RemoteNetwork

    monkeypatch.setattr(
        transport, "encode_payload", lambda payload: pytest.fail("payload encoded")
    )
    names = [f"site-{i}" for i in range(4)]
    tree = TreeSpec.flat(names) if fan_out is None else TreeSpec.regular(names, fan_out)
    links = {name: _FrameRefusingLink(name) for name in names + tree.aggregators}
    network = RemoteNetwork(names, tree=tree, links=links)
    payload = b"x"
    assert network.broadcast(payload, bits=8, sites=[]) is payload
    report = network.service_report()
    assert (report["rounds"], report["simulated_bits"], report["wire_bits"]) == (0, 0, 0)
    assert report["observed_bytes"] == 0
