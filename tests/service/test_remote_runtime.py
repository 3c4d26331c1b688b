"""RemoteRuntime's fan-out, against site agents that answer in process.

:class:`~repro.service.transport.RemoteRuntime` overrides only ``map``:
those tasks travel as ``task`` messages to the site agents, while
``map_async`` is the inherited fan-out on the coordinator.  The links here
hand every message straight to a :class:`~repro.service.client.SiteAgent`'s
handler, so the coordinator's side of the runtime — task dealing, the
payload codec, error replies, the generator round trip of ``map_sites``,
and which work ships at all — runs without sockets or processes.
``tests/service/test_cluster.py`` drives the same runtime over a live
loopback cluster.
"""

from __future__ import annotations

from concurrent.futures import Future

import numpy as np
import pytest

from repro.engine import (
    QuorumPolicy,
    Runtime,
    StarHeavyHittersProtocol,
    StarLpNormProtocol,
    StreamingSession,
)
from repro.matrices.stats import product
from repro.service.client import SiteAgent
from repro.service.messages import ServiceError
from repro.service.transport import RemoteRuntime, SiteLink, SocketTransport

SEED = 515151


class _AgentLink(SiteLink):
    """A link whose far end is a site agent answering in process."""

    def __init__(self, index: int) -> None:
        self.site_name = f"site-{index}"
        self.agent = SiteAgent("127.0.0.1", 0, index, np.zeros((1, 1)))
        self.sent: list = []

    def submit(self, message, *, flush=True):
        self.sent.append(message)
        future: Future = Future()
        future.set_result(self.agent._handle(message))
        return future


def _remote(k: int = 2, **policies):
    links = {f"site-{i}": _AgentLink(i) for i in range(k)}
    return SocketTransport(links).runtime(**policies), links


def _sent(links) -> list:
    return [message for link in links.values() for message in link.sent]


def _task(value: int) -> tuple:
    return (np.full((1, 1), value), np.ones((1, 1)))


def test_the_transport_runtime_keeps_the_fault_policies():
    runtime, _ = _remote(dropout="exclude", quorum=(2, 1))
    assert isinstance(runtime, RemoteRuntime)
    assert runtime.dropout == "exclude"
    assert runtime.quorum == QuorumPolicy(n=2, f=1)
    assert runtime.partition_dropped(["site-0", "site-1"], {"site-1"}) == (
        [0],
        ["site-1"],
    )


def test_tasks_are_dealt_across_the_links_and_come_back_in_task_order():
    runtime, links = _remote()
    results = runtime.map(product, [_task(value) for value in (4, 0, 3, 1, 2)])
    assert [int(result[0, 0]) for result in results] == [4, 0, 3, 1, 2]
    assert len(links["site-0"].sent) == 3 and len(links["site-1"].sent) == 2
    assert {message.type for message in _sent(links)} == {"task"}


def test_no_tasks_send_nothing():
    runtime, links = _remote()
    assert runtime.map(product, []) == []
    assert _sent(links) == []


def test_a_remote_task_error_reaches_the_caller_and_the_runtime_survives():
    runtime, _ = _remote()
    mismatched = (np.ones((1, 2)), np.ones((3, 1)))
    with pytest.raises(ServiceError, match="inner dimensions differ"):
        runtime.map(product, [_task(1), mismatched])
    assert [int(r[0, 0]) for r in runtime.map(product, [_task(5)])] == [5]


def test_a_task_function_outside_the_package_is_refused_before_sending():
    runtime, links = _remote()
    with pytest.raises(ServiceError, match="non-repro"):
        runtime.map(abs, [(-1,)])
    assert _sent(links) == []


def test_map_async_runs_on_the_coordinator():
    """The inherited ``map_async`` never reaches the transport, which
    would refuse a task function outside the package."""
    runtime, links = _remote()
    assert runtime.map_async(abs, [(-1,), (-2,)])() == [1, 2]
    assert _sent(links) == []


@pytest.mark.parametrize(
    "factory",
    [
        lambda: StarLpNormProtocol(2.0, 0.4, seed=SEED),
        # Two rng-consuming fan-out phases per site.
        lambda: StarHeavyHittersProtocol(0.1, 0.05, p=2.0, seed=SEED),
    ],
    ids=["lp-p2", "hh-general-p2"],
)
def test_a_protocol_run_matches_the_in_process_run(factory):
    rng = np.random.default_rng(42)
    a = rng.integers(0, 4, size=(24, 16))
    b = rng.integers(0, 4, size=(16, 12))
    shards = np.array_split(a, 3, axis=0)
    runtime, links = _remote()
    remote = factory().run(shards, b, runtime=runtime)
    local = factory().run(shards, b, runtime=Runtime())
    assert _sent(links)
    assert remote.value == local.value
    assert remote.cost.total_bits == local.cost.total_bits
    assert remote.cost.per_round == local.cost.per_round
    assert remote.cost.link_bits == local.cost.link_bits


def test_epoch_boundaries_ship_no_tasks():
    """A session encodes its sites' deltas on the coordinator under every
    runtime; only its one-shot queries fan out to the sites."""
    rng = np.random.default_rng(9)
    b = rng.integers(0, 2, size=(8, 8))
    runtime, links = _remote()
    sessions = [
        StreamingSession([6, 6], b, seed=13, runtime=chosen)
        for chosen in (runtime, None)
    ]
    for _ in range(2):
        for site in range(2):
            rows = rng.integers(6 * site, 6 * site + 6, size=5)
            deltas = rng.integers(-2, 3, size=(5, 8))
            for session in sessions:
                session.ingest(site, rows, deltas)
        for session in sessions:
            session.end_epoch()
    for session in sessions:
        session.sync()
    assert _sent(links) == []
    remote, local = sessions
    assert remote.network.total_bits == local.network.total_bits
    for key in local.merged:
        np.testing.assert_array_equal(
            remote.merged[key].state_array(), local.merged[key].state_array()
        )
    assert remote.join_size(0.4).value == local.join_size(0.4).value
    assert {message.type for message in _sent(links)} == {"task"}
