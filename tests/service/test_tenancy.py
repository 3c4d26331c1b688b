"""Multi-tenant isolation, quotas and the billing accounting contract.

The claims pinned here, straight from ISSUE 8's ground rules:

* a tenant's transcript is a pure function of its own seed and its own
  update stream — **bit-identical** no matter how other tenants interleave
  with it (or whether they exist at all);
* per-tenant ledger rows sum **exactly** to the aggregate, and the
  aggregate equals the sum of every session's own network meters — no
  double-count, no cross-tenant bleed;
* quota budgets let the crossing epoch complete, then ``reject`` raises
  and ``throttle`` degrades (counted boundary, nothing ships, deltas stay
  queued);
* the round-robin sweep rotates its starting tenant and survives an
  exhausted tenant;
* every multi-tenant lifecycle bug found during development stays pinned
  (closed-name reservation, closed-manager refusal, gauge removal).
"""

from __future__ import annotations

import pickle
import pickletools

import numpy as np
import pytest

from repro.comm.accounting import TenantLedger
from repro.comm.protocol import ProtocolResult
from repro.engine.runtime import Runtime
from repro.service.metrics import parse_metrics_text
from repro.service.tenancy import (
    PriceSchedule,
    QuotaExceededError,
    SessionManager,
    TenantCostReport,
    TenantQuota,
    derive_tenant_seed,
)

N, M = 16, 3


def canon(value) -> bytes:
    return pickletools.optimize(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


@pytest.fixture()
def b() -> np.ndarray:
    return np.random.default_rng(3).integers(0, 5, size=(N, M))


def batches(seed: int, *, sites: int = 2, epochs: int = 3, batch: int = 6,
            row_counts=None):
    """A deterministic per-tenant update stream: epochs x sites batches."""
    rng = np.random.default_rng(seed)
    if row_counts is None:
        row_counts = [N // sites] * sites
    offsets = np.concatenate([[0], np.cumsum(row_counts)])
    out = []
    for _ in range(epochs):
        epoch = []
        for site in range(len(row_counts)):
            rows = rng.integers(offsets[site], offsets[site + 1], size=batch)
            deltas = rng.integers(-3, 4, size=(batch, N))
            epoch.append((site, rows, deltas))
        out.append(epoch)
    return out


def transcript(manager: SessionManager, name: str, stream) -> dict:
    """Drive one tenant through its stream; capture everything observable."""
    out = {"epochs": [], "live": [], "queries": []}
    for epoch in stream:
        for site, rows, deltas in epoch:
            manager.ingest(name, site, rows, deltas)
        report = manager.end_epoch(name, force=True)
        out["epochs"].append((report.epoch, report.total_bytes, report.cumulative_bytes))
        session = manager.session(name)
        out["live"].append(canon(session.live_lp_norm(p=2.0)))
    result = manager.query(name, "lp_norm", p=2.0, epsilon=0.3)
    out["queries"].append((canon(result.value), result.cost.total_bits, result.cost.rounds))
    return out


class TestSeedDerivation:
    def test_deterministic_and_name_dependent(self):
        assert derive_tenant_seed(7, "alice") == derive_tenant_seed(7, "alice")
        assert derive_tenant_seed(7, "alice") != derive_tenant_seed(7, "bob")
        assert derive_tenant_seed(7, "alice") != derive_tenant_seed(8, "alice")

    def test_in_session_seed_range(self):
        for name in ("a", "b", "tenant-with-a-long-name"):
            assert 0 <= derive_tenant_seed(0, name) < 2**31 - 1


class TestTranscriptIsolation:
    """Same seed + same stream => bit-identical transcript, always."""

    def test_alone_vs_interleaved(self, b):
        # Reference: the tenant runs alone on its own manager.
        with SessionManager(b, seed=7) as alone:
            alone.open_tenant("x", [8, 8])
            reference = transcript(alone, "x", batches(1))

        # Same tenant on a busy manager, its epochs interleaved with two
        # noisy neighbours (opened *before* it, ingesting between its
        # batches, issuing their own queries).
        with SessionManager(b, seed=7) as busy:
            busy.open_tenant("noise-a", [16])
            busy.open_tenant("x", [8, 8])
            busy.open_tenant("noise-b", [4, 4, 8])
            noise = {"noise-a": batches(100, sites=1), "noise-b": batches(200, row_counts=[4, 4, 8])}
            out = {"epochs": [], "live": [], "queries": []}
            for index, epoch in enumerate(batches(1)):
                for name, stream in noise.items():
                    for site, rows, deltas in stream[index]:
                        busy.ingest(name, site, rows, deltas)
                for site, rows, deltas in epoch:
                    busy.ingest("x", site, rows, deltas)
                busy.query("noise-a", "lp_norm", p=1.0, epsilon=0.4)
                reports = busy.run_epoch(force=True)  # all tenants at once
                report = reports["x"]
                out["epochs"].append(
                    (report.epoch, report.total_bytes, report.cumulative_bytes)
                )
                out["live"].append(canon(busy.session("x").live_lp_norm(p=2.0)))
            result = busy.query("x", "lp_norm", p=2.0, epsilon=0.3)
            out["queries"].append(
                (canon(result.value), result.cost.total_bits, result.cost.rounds)
            )

        assert out == reference

    def test_two_tenants_with_identical_seed_and_stream_match(self, b):
        """Registration order and neighbour traffic must not matter."""
        with SessionManager(b, seed=0) as manager:
            manager.open_tenant("first", [8, 8], seed=42)
            manager.open_tenant("second", [8, 8], seed=42)
            # Interleave their identical streams batch by batch, in
            # opposite orders per epoch.
            stream = batches(5)
            for index, epoch in enumerate(stream):
                order = ("first", "second") if index % 2 else ("second", "first")
                for name in order:
                    for site, rows, deltas in epoch:
                        manager.ingest(name, site, rows, deltas)
                for name in order:
                    manager.end_epoch(name, force=True)
            a = manager.query("first", "lp_norm", p=2.0, epsilon=0.3)
            z = manager.query("second", "lp_norm", p=2.0, epsilon=0.3)
            assert canon(a.value) == canon(z.value)
            assert a.cost.total_bits == z.cost.total_bits
            assert (
                manager.session("first").total_upload_bytes
                == manager.session("second").total_upload_bytes
            )


class TestAccountingExactness:
    """Per-tenant rows sum exactly to the aggregate; ledger == network."""

    def test_meters_sum_to_aggregate(self, b):
        with SessionManager(b, seed=7) as manager:
            manager.open_tenant("a", [8, 8])
            manager.open_tenant("b", [16])
            manager.open_tenant("c", [4, 4, 8])
            streams = {
                "a": batches(1),
                "b": batches(2, sites=1),
                "c": batches(3, row_counts=[4, 4, 8]),
            }
            for index in range(3):
                for name, stream in streams.items():
                    for site, rows, deltas in stream[index]:
                        manager.ingest(name, site, rows, deltas)
                manager.run_epoch(force=True)
            for name in ("a", "b", "c"):
                manager.query(name, "lp_norm", p=2.0, epsilon=0.3)

            manager.verify_accounting()  # raises on any imbalance
            aggregate = manager.aggregate_report()
            assert aggregate["meters_consistent"]
            ledger = manager.ledger
            for key, total in aggregate["usage"].items():
                assert total == sum(
                    ledger.tenant_totals(name).get(key, 0) for name in ledger.tenants
                ), key
            # Ledger shipped bytes are the sessions' own network meters.
            for name in ("a", "b", "c"):
                assert (
                    ledger.tenant_totals(name)["shipped_bytes"]
                    == manager.session(name).total_upload_bytes
                )

    def test_close_keeps_the_ledger_row(self, b):
        with SessionManager(b, seed=7) as manager:
            manager.open_tenant("a", [8, 8])
            for site, rows, deltas in batches(1)[0]:
                manager.ingest("a", site, rows, deltas)
            manager.end_epoch("a", force=True)
            report = manager.close_tenant("a")
            assert report.closed
            assert report.usage["shipped_bytes"] > 0
            # Row survives; identity still checkable; name stays reserved.
            manager.verify_accounting()
            assert manager.report("a").usage == report.usage
            with pytest.raises(ValueError, match="already registered"):
                manager.open_tenant("a", [8, 8])

    def test_query_costs_are_billed_exactly(self, b):
        with SessionManager(b, seed=7) as manager:
            manager.open_tenant("a", [8, 8])
            for site, rows, deltas in batches(1)[0]:
                manager.ingest("a", site, rows, deltas)
            manager.end_epoch("a", force=True)
            result = manager.query("a", "lp_norm", p=2.0, epsilon=0.3)
            usage = manager.ledger.tenant_totals("a")
            assert usage["queries"] == 1
            assert usage["query_bits"] == result.cost.total_bits
            assert usage["query_rounds"] == result.cost.rounds

    def test_ledger_unit_invariants(self):
        ledger = TenantLedger()
        ledger.charge("a", rows=3, bytes=10)
        ledger.charge("b", rows=4)
        ledger.charge("a", rows=1)
        assert ledger.tenant_totals("a") == {"rows": 4, "bytes": 10}
        assert ledger.aggregate_totals() == {"rows": 8, "bytes": 10}
        ledger.verify()
        with pytest.raises(ValueError):
            ledger.charge("a", rows=-1)
        ledger.forget("a")
        assert ledger.tenants == ["b"]
        # Aggregate keeps the forgotten tenant's history: now inconsistent
        # with the surviving rows, which verify() must say loudly.
        with pytest.raises(AssertionError):
            ledger.verify()


class TestQuotas:
    def _fill(self, manager, name, epoch):
        for site, rows, deltas in epoch:
            manager.ingest(name, site, rows, deltas)

    def test_crossing_epoch_completes_then_reject_raises(self, b):
        quota = TenantQuota(byte_budget=1, policy="reject")
        with SessionManager(b, seed=7) as manager:
            manager.open_tenant("a", [8, 8], quota=quota)
            stream = batches(1)
            self._fill(manager, "a", stream[0])
            report = manager.end_epoch("a", force=True)  # crosses the budget
            assert report.total_bytes > 1  # overshoot recorded
            self._fill(manager, "a", stream[1])
            with pytest.raises(QuotaExceededError, match="budget exhausted"):
                manager.end_epoch("a", force=True)
            assert manager.ledger.tenant_totals("a")["rejections"] == 1
            # close() still verifies cleanly after the rejection.

    def test_epoch_budget(self, b):
        quota = TenantQuota(epoch_budget=2, policy="reject")
        with SessionManager(b, seed=7) as manager:
            manager.open_tenant("a", [8, 8])
            manager.open_tenant("budgeted", [8, 8], quota=quota)
            stream = batches(1)
            for index in range(2):
                self._fill(manager, "budgeted", stream[index])
                manager.end_epoch("budgeted", force=True)
            with pytest.raises(QuotaExceededError):
                manager.end_epoch("budgeted", force=True)

    def test_throttle_counts_the_boundary_but_ships_nothing(self, b):
        quota = TenantQuota(byte_budget=1, policy="throttle")
        with SessionManager(b, seed=7) as manager:
            manager.open_tenant("a", [8, 8], quota=quota)
            stream = batches(1)
            self._fill(manager, "a", stream[0])
            first = manager.end_epoch("a", force=True)
            shipped = manager.session("a").total_upload_bytes
            self._fill(manager, "a", stream[1])
            second = manager.end_epoch("a", force=True)
            assert second.throttled and not first.throttled
            assert second.epoch == first.epoch + 1
            assert second.total_bytes == 0
            assert second.cumulative_bytes == first.cumulative_bytes
            # Nothing shipped; the deltas stay queued at the sites.
            assert manager.session("a").total_upload_bytes == shipped
            assert sum(s.pending_updates for s in manager.session("a").sites) > 0
            usage = manager.ledger.tenant_totals("a")
            assert usage["epochs"] == 1 and usage["throttled_epochs"] == 1
            manager.verify_accounting()

    def test_run_epoch_skips_the_exhausted_tenant(self, b):
        with SessionManager(b, seed=7) as manager:
            manager.open_tenant("broke", [8, 8],
                                quota=TenantQuota(byte_budget=1, policy="reject"))
            manager.open_tenant("fine", [8, 8])
            stream = batches(1)
            self._fill(manager, "broke", stream[0])
            manager.end_epoch("broke", force=True)
            self._fill(manager, "broke", stream[1])
            self._fill(manager, "fine", stream[0])
            reports = manager.run_epoch(force=True)
            assert reports["broke"] is None
            assert reports["fine"] is not None and reports["fine"].total_bytes > 0

    def test_backpressure_reject(self, b):
        quota = TenantQuota(max_pending_updates=10, policy="reject")
        with SessionManager(b, seed=7) as manager:
            manager.open_tenant("a", [8, 8], quota=quota)
            epoch = batches(1, batch=10)[0]
            site, rows, deltas = epoch[0]
            manager.ingest("a", site, rows, deltas)
            with pytest.raises(QuotaExceededError, match="backpressure"):
                manager.ingest("a", *epoch[1][0:1], epoch[1][1], epoch[1][2])
            # Shipping the backlog reopens ingest.
            manager.end_epoch("a", force=True)
            manager.ingest("a", epoch[1][0], epoch[1][1], epoch[1][2])

    def test_backpressure_throttle_force_ships_the_backlog(self, b):
        quota = TenantQuota(max_pending_updates=10, policy="throttle")
        with SessionManager(b, seed=7) as manager:
            manager.open_tenant("a", [8, 8], quota=quota)
            epoch = batches(1, batch=10)[0]
            manager.ingest("a", epoch[0][0], epoch[0][1], epoch[0][2])
            manager.ingest("a", epoch[1][0], epoch[1][1], epoch[1][2])  # ships
            assert manager.session("a").total_upload_bytes > 0
            assert manager.ledger.tenant_totals("a")["epochs"] == 1

    def test_backpressure_throttle_with_exhausted_budget_raises(self, b):
        quota = TenantQuota(
            byte_budget=1, max_pending_updates=10, policy="throttle"
        )
        with SessionManager(b, seed=7) as manager:
            manager.open_tenant("a", [8, 8], quota=quota)
            stream = batches(1, batch=10)
            manager.ingest("a", *stream[0][0])
            manager.end_epoch("a", force=True)  # exhausts the byte budget
            manager.ingest("a", *stream[1][0])
            with pytest.raises(QuotaExceededError, match="cannot ship"):
                manager.ingest("a", *stream[2][0])

    def test_quota_validation(self):
        with pytest.raises(ValueError, match="policy"):
            TenantQuota(policy="explode")
        with pytest.raises(ValueError, match="byte_budget"):
            TenantQuota(byte_budget=-1)


class TestScheduling:
    def test_round_robin_rotates_the_start(self, b):
        with SessionManager(b, seed=7) as manager:
            for name in ("a", "b", "c"):
                manager.open_tenant(name, [16])
            starts = [next(iter(manager.run_epoch(force=True))) for _ in range(4)]
            assert starts == ["a", "b", "c", "a"]

    def test_sweep_covers_every_open_tenant(self, b):
        with SessionManager(b, seed=7) as manager:
            for name in ("a", "b", "c"):
                manager.open_tenant(name, [16])
            manager.close_tenant("b")
            assert set(manager.run_epoch(force=True)) == {"a", "c"}


class TestBilling:
    def test_report_prices_the_ledger_row(self, b):
        prices = PriceSchedule(per_shipped_mib=2.0, per_epoch=0.5, per_query=1.0)
        with SessionManager(b, seed=7, prices=prices) as manager:
            manager.open_tenant("a", [8, 8])
            for site, rows, deltas in batches(1)[0]:
                manager.ingest("a", site, rows, deltas)
            manager.end_epoch("a", force=True)
            manager.query("a", "lp_norm", p=2.0, epsilon=0.3)
            report = manager.report("a")
            assert isinstance(report, TenantCostReport)
            usage = report.usage
            by_item = {item["item"]: item for item in report.line_items}
            assert by_item["shipped bytes"]["quantity"] == usage["shipped_bytes"]
            assert by_item["shipped bytes"]["amount"] == pytest.approx(
                usage["shipped_bytes"] * 2.0 / 2**20
            )
            assert by_item["epochs shipped"]["amount"] == pytest.approx(0.5)
            assert by_item["queries"]["amount"] == pytest.approx(1.0)
            assert report.total_cost == pytest.approx(
                sum(item["amount"] for item in report.line_items)
            )
            round_trip = report.to_dict()
            assert round_trip["tenant"] == "a"
            assert round_trip["quota"]["bytes_remaining"] == float("inf")

    def test_unknown_query_method_is_refused(self, b):
        with SessionManager(b, seed=7) as manager:
            manager.open_tenant("a", [16])
            with pytest.raises(ValueError, match="unknown query method"):
                manager.query("a", "drop_tables")
            with pytest.raises(ValueError, match="not a one-shot query"):
                manager.query("a", "live_l0")


class TestLifecycle:
    def test_unknown_and_closed_tenants_raise(self, b):
        with SessionManager(b, seed=7) as manager:
            with pytest.raises(KeyError, match="unknown"):
                manager.ingest("ghost", 0, [0], np.zeros((1, N), dtype=np.int64))
            manager.open_tenant("a", [16])
            manager.close_tenant("a")
            with pytest.raises(KeyError, match="closed"):
                manager.end_epoch("a")
            # Reports remain available for closed tenants.
            assert manager.report("a").closed

    def test_closed_manager_refuses_new_tenants(self, b):
        manager = SessionManager(b, seed=7)
        manager.close()
        manager.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            manager.open_tenant("a", [16])
        with pytest.raises(RuntimeError, match="closed"):
            manager.run_epoch()

    def test_metrics_reflect_the_tenant_lifecycle(self, b):
        with SessionManager(b, seed=7) as manager:
            manager.open_tenant("a", [8, 8])
            manager.open_tenant("b", [16])
            assert manager.metrics.get("repro_tenants").value() == 2
            for site, rows, deltas in batches(1)[0]:
                manager.ingest("a", site, rows, deltas)
            manager.end_epoch("a", force=True)
            parsed = parse_metrics_text(manager.metrics.render())
            assert parsed[("repro_ingest_rows_total", (("tenant", "a"),))] == 12
            assert parsed[("repro_epochs_total", (("tenant", "a"),))] == 1
            # "a" leads by one epoch; "b" lags by one.
            assert parsed[("repro_epoch_lag", (("tenant", "b"),))] == 1
            assert parsed[("repro_epoch_lag", (("tenant", "a"),))] == 0
            manager.close_tenant("a")
            parsed = parse_metrics_text(manager.metrics.render())
            assert manager.metrics.get("repro_tenants").value() == 1
            # Per-tenant gauge series for the closed tenant are removed;
            # its counters (billing history) survive.
            assert ("repro_epoch_lag", (("tenant", "a"),)) not in parsed
            assert parsed[("repro_ingest_rows_total", (("tenant", "a"),))] == 12


class TestSharedRuntime:
    """Many tenant sessions over one runtime: shared policy, exact meters."""

    def test_tenants_share_the_runtime(self, b):
        runtime = Runtime(dropout="exclude")
        with SessionManager(b, seed=7, runtime=runtime) as manager:
            manager.open_tenant("a", [8, 8])
            manager.open_tenant("b", [16])
            assert manager.session("a").runtime is runtime
            assert manager.session("b").runtime is runtime
            assert manager.metrics.get("repro_resident_pool_occupancy") is None
            stream_a, stream_b = batches(1), batches(2, sites=1)
            for index in range(2):
                for site, rows, deltas in stream_a[index]:
                    manager.ingest("a", site, rows, deltas)
                for site, rows, deltas in stream_b[index]:
                    manager.ingest("b", site, rows, deltas)
                manager.run_epoch(force=True)
            manager.verify_accounting()
            manager.close_tenant("a")
            for site, rows, deltas in stream_b[2]:
                manager.ingest("b", site, rows, deltas)
            manager.run_epoch(force=True)
            manager.verify_accounting()

    def test_shared_runtime_transcript_matches_the_default(self, b):
        with SessionManager(b, seed=7) as alone:
            alone.open_tenant("x", [8, 8], seed=11)
            reference = transcript(alone, "x", batches(9))
        runtime = Runtime(dropout="exclude")
        with SessionManager(b, seed=7, runtime=runtime) as manager:
            manager.open_tenant("other", [16])
            manager.open_tenant("x", [8, 8], seed=11)
            result = transcript(manager, "x", batches(9))
        assert result == reference


class TestManyTenants:
    def test_fifty_tenants_account_exactly(self, b):
        rng = np.random.default_rng(0)
        with SessionManager(b, seed=7) as manager:
            names = [f"t{i:02d}" for i in range(50)]
            for name in names:
                manager.open_tenant(name, [16])
            for name in names:
                size = int(rng.integers(1, 8))
                rows = rng.integers(0, N, size=size)
                deltas = rng.integers(-2, 3, size=(size, N))
                manager.ingest(name, 0, rows, deltas)
            manager.run_epoch(force=True)
            for name in names[::7]:
                result = manager.query(name, "lp_norm", p=2.0, epsilon=0.4)
                assert isinstance(result, ProtocolResult)
            manager.verify_accounting()
            assert manager.aggregate_report()["meters_consistent"]
