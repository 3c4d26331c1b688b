"""Pin of the socket service reports for a fixed query-and-stream script.

A 2-site loopback cluster answers a fixed script of one-shot queries and
a streamed session.  After every step the client's ``last_service``
report is reduced to the keys listed in :data:`REPORT_KEYS`, and the
sha256 of a canonical encoding of each reduced report is pinned.  Those
keys are every key the socket star reported when the pins were taken, so
any change to the simulated, wire or socket-observed meters, their round
structure or their per-link keys fails here.

Regenerate the pins (only after an *intentional* metering change) with::

    PYTHONPATH=src python tests/service/test_report_pins.py
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.service.client import local_cluster
from tests.test_baseline_pins import canonical

SEED = 23

#: Every key of a socket star's service report.
REPORT_KEYS = (
    "rounds",
    "simulated_bits",
    "simulated_link_bits",
    "wire_bits",
    "wire_link_bits",
    "wire_round_bits",
    "observed_bytes",
    "observed_link_bytes",
    "observed_round_bytes",
)


def _data():
    rng = np.random.default_rng(SEED)
    a = rng.integers(0, 3, size=(16, 12))
    b = rng.integers(0, 3, size=(12, 10))
    return np.array_split(a, 2, axis=0), b


def run_script() -> dict[str, dict]:
    """The script's reports, each reduced to :data:`REPORT_KEYS`."""
    shards, b = _data()
    reports: dict[str, dict] = {}
    with local_cluster(shards, b, seed=SEED) as (_, client):

        def query(key, method, **kwargs):
            client.query(method, **kwargs)
            report = client.last_service
            reports[key] = {name: report[name] for name in REPORT_KEYS}

        query("lp2", "lp_norm", p=2.0, epsilon=0.3)
        query("l0_sample", "l0_sample", epsilon=0.3)
        query("heavy_hitters", "heavy_hitters", phi=0.3, epsilon=0.2)
        query("natural_join", "natural_join_size")
        client.query("stream_open")
        offset = 0
        for index, shard in enumerate(shards):
            rows = offset + np.arange(shard.shape[0])
            client.query("stream_ingest", site=index, rows=rows, deltas=shard)
            offset += shard.shape[0]
        query("epoch", "stream_sync")
        client.query(
            "stream_ingest", site=1, rows=[offset - 1], deltas=-shards[1][-1:]
        )
        query("second_epoch", "stream_end_epoch")
        query("live_lp", "stream_live_lp_norm", p=2.0)
        query("session_lp", "stream_lp_norm", p=2.0, epsilon=0.3)
    return reports


def report_digests() -> dict[str, str]:
    return {
        key: hashlib.sha256(canonical(report)).hexdigest()
        for key, report in run_script().items()
    }


#: Generated at the commit before the star and tree networks merged.
#: Do not edit by hand.
PINS = {
    "epoch": "a4681c72403d43ec7b188b3feffe843459a1eb93da7e07bd9ff378e86e1b4a8f",
    "heavy_hitters": "1b8579fff4a4d0f3a6b5f2d551d0fefdc8ef069f405be50ee5b5be91f246b308",
    "l0_sample": "81a4486f55117da43357a5284e2f48a8a2094de3aa7eb47d33cc1a4ede477e7d",
    "live_lp": "b5a6c2aa0288d51eb4b5b4aa40a0a4f07d476410824e7da59a8dd74fd80a9601",
    "lp2": "797bebf21a996812a3b428dd974b20461005a11ee27ad53f51717c350ed45b40",
    "natural_join": "df1fad313edcaf4c627f6931f1ee86882b0e0233d5d0ae45c410a4a5861cf53c",
    "second_epoch": "b5a6c2aa0288d51eb4b5b4aa40a0a4f07d476410824e7da59a8dd74fd80a9601",
    "session_lp": "1ab9f4d72ec5957db1953ea644039d4faeb8225ad521dba7cba501c15c4c6e38",
}


@pytest.fixture(scope="module")
def digests():
    return report_digests()


@pytest.mark.parametrize("step", sorted(PINS))
def test_service_report_pinned(digests, step):
    assert digests[step] == PINS[step]


def test_script_covers_every_pinned_step(digests):
    assert sorted(digests) == sorted(PINS)


if __name__ == "__main__":  # pragma: no cover - pin regeneration helper
    for step, digest in sorted(report_digests().items()):
        print(f'    "{step}": "{digest}",')
