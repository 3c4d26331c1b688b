"""Multi-tenant session management over one shared runtime.

ROADMAP item 2: millions of users means many concurrent
:class:`~repro.engine.streaming.StreamingSession`\\ s.  The
:class:`SessionManager` multiplexes N independent tenants over **one**
shared :class:`~repro.engine.runtime.Runtime` — its dropout and quorum
policies are shared, while everything observable is strictly isolated
per tenant:

* **randomness** — each tenant's session gets its own seed (explicit, or
  derived order-independently from the manager seed and the tenant name),
  so a tenant's transcript is a pure function of its own seed and its own
  update stream, bit for bit, regardless of how tenants interleave;
* **meters** — each session owns its network meters; the manager's
  :class:`~repro.comm.accounting.TenantLedger` rolls per-tenant usage and
  the service aggregate up from one charge point, so per-tenant rows sum
  *exactly* to the aggregate (no double-count, no bleed).

Scheduling is a fair round-robin: :meth:`SessionManager.run_epoch` sweeps
every open tenant starting from a rotating offset, so no tenant's epoch
boundary is systematically served first, and one tenant exhausting its
quota cannot starve the sweep.

Quotas and billing follow the KuberDock pricing/billing split: a
:class:`TenantQuota` bounds what a tenant may consume (shipped-byte and
epoch budgets, plus an ingest backpressure watermark) with a per-tenant
``reject`` or ``throttle`` policy, a :class:`PriceSchedule` prices the
metered usage, and :meth:`SessionManager.report` folds both into a
billing-grade :class:`TenantCostReport` built on the existing
bit-accounting contract — every charged byte is a byte the session's
network meters actually recorded.

Quota semantics (enforced at operation boundaries):

* the epoch that *crosses* a budget completes and the overshoot is
  recorded — budgets are checked before shipping, against usage so far;
* once a budget is exhausted, the next epoch boundary either raises
  :class:`QuotaExceededError` (``reject``) or closes as a *throttled*
  epoch — counted, nothing shipped, deltas stay queued (``throttle``);
* ingest backpressure: when a tenant's queued updates exceed
  ``max_pending_updates``, a ``reject`` tenant's ingest raises, while a
  ``throttle`` tenant first force-ships its backlog (budget permitting —
  an exhausted budget makes the ingest raise, since nothing else bounds
  the queue).
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.comm.accounting import TenantLedger
from repro.comm.protocol import ProtocolResult
from repro.engine.runtime import Runtime
from repro.engine.streaming import EpochReport, StreamingSession
from repro.service.metrics import MetricsRegistry

__all__ = [
    "PriceSchedule",
    "QUOTA_POLICIES",
    "QuotaExceededError",
    "SessionManager",
    "TenantCostReport",
    "TenantQuota",
]

#: Supported quota policies.
QUOTA_POLICIES = ("reject", "throttle")


class QuotaExceededError(RuntimeError):
    """A tenant operation was refused under its quota's ``reject`` policy."""

    def __init__(self, tenant: str, what: str) -> None:
        self.tenant = tenant
        super().__init__(f"tenant {tenant!r}: {what}")


@dataclass(frozen=True)
class TenantQuota:
    """Consumption bounds for one tenant.

    ``byte_budget`` caps cumulative shipped (upload) bytes and
    ``epoch_budget`` caps shipped epoch boundaries; ``inf`` disables
    either.  ``max_pending_updates`` is the ingest backpressure watermark:
    queued (un-shipped) updates beyond it trigger the policy.  ``policy``
    picks what exhaustion does: ``"reject"`` raises
    :class:`QuotaExceededError`, ``"throttle"`` degrades service (epochs
    close without shipping) but keeps the tenant alive.
    """

    byte_budget: float = math.inf
    epoch_budget: float = math.inf
    max_pending_updates: float = math.inf
    policy: str = "reject"

    def __post_init__(self) -> None:
        if self.policy not in QUOTA_POLICIES:
            raise ValueError(
                f"policy must be one of {QUOTA_POLICIES}, got {self.policy!r}"
            )
        for name in ("byte_budget", "epoch_budget", "max_pending_updates"):
            value = getattr(self, name)
            if math.isnan(value) or value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")


@dataclass(frozen=True)
class PriceSchedule:
    """Unit prices over the metered usage (the KuberDock pricing shape).

    Prices apply to exactly the quantities the accounting contract meters;
    there is no estimated or sampled billing basis.
    """

    currency: str = "credits"
    per_shipped_mib: float = 1.0  # per 2**20 shipped upload bytes
    per_epoch: float = 0.001  # per shipped epoch boundary
    per_query: float = 0.01  # per one-shot query
    per_query_gigabit: float = 1.0  # per 2**30 bits of query traffic
    per_million_rows: float = 0.1  # per 1e6 ingested update rows

    def line_items(self, usage: dict[str, float]) -> list[dict[str, Any]]:
        """Price one usage dict into billing line items."""
        basis = [
            ("shipped bytes", usage.get("shipped_bytes", 0.0),
             self.per_shipped_mib / 2**20),
            ("epochs shipped", usage.get("epochs", 0.0), self.per_epoch),
            ("queries", usage.get("queries", 0.0), self.per_query),
            ("query bits", usage.get("query_bits", 0.0),
             self.per_query_gigabit / 2**30),
            ("ingested rows", usage.get("rows", 0.0),
             self.per_million_rows / 1e6),
        ]
        return [
            {
                "item": item,
                "quantity": quantity,
                "unit_price": unit,
                "amount": quantity * unit,
            }
            for item, quantity, unit in basis
            if quantity
        ]


@dataclass
class TenantCostReport:
    """Billing-grade statement for one tenant.

    ``usage`` is the tenant's ledger row (exact metered quantities),
    ``line_items`` its pricing under the manager's schedule, and
    ``quota`` the budget state (limits, consumed, remaining).  The report
    is plain data — :meth:`to_dict` makes it wire/JSON ready for the
    service layer.
    """

    tenant: str
    usage: dict[str, float]
    line_items: list[dict[str, Any]]
    total_cost: float
    currency: str
    quota: dict[str, Any]
    epoch: int
    closed: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "tenant": self.tenant,
            "usage": dict(self.usage),
            "line_items": [dict(item) for item in self.line_items],
            "total_cost": self.total_cost,
            "currency": self.currency,
            "quota": dict(self.quota),
            "epoch": self.epoch,
            "closed": self.closed,
        }


@dataclass
class _Tenant:
    """Manager-side bookkeeping for one open tenant."""

    name: str
    session: StreamingSession
    quota: TenantQuota
    epoch: int = 0  # boundaries closed by the manager (shipped + throttled)
    history: list[EpochReport] = field(default_factory=list)
    closed: bool = False

    @property
    def pending_updates(self) -> int:
        return sum(site.pending_updates for site in self.session.sites)


def derive_tenant_seed(base_seed: int, tenant: str) -> int:
    """A per-tenant session seed, independent of registration order.

    Hash-derived from the manager's base seed and the tenant *name* only,
    so a tenant's randomness never depends on which other tenants exist or
    when they registered — the heart of the transcript-isolation
    guarantee.
    """
    digest = hashlib.sha256(f"{base_seed}:{tenant}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % (2**31 - 1)


class SessionManager:
    """N independent streaming tenants over one shared runtime.

    Parameters
    ----------
    b:
        The coordinator's matrix, common to every tenant's product
        ``C_t = A_t B`` (tenants own independent update streams ``A_t``).
    runtime:
        The shared :class:`~repro.engine.runtime.Runtime` that every
        tenant's session and one-shot queries run under.  ``None`` means
        the default policies (see :data:`~repro.engine.runtime
        .SERIAL_RUNTIME`).
    seed:
        Manager base seed; tenant sessions derive per-tenant seeds from it
        (see :func:`derive_tenant_seed`) unless ``open_tenant`` passes an
        explicit one.
    metrics:
        Optional shared :class:`~repro.service.metrics.MetricsRegistry`
        (the coordinator server passes its scrape registry); a private one
        is created otherwise.
    prices:
        The :class:`PriceSchedule` behind every cost report.
    default_quota:
        Quota applied to tenants opened without an explicit one
        (default: unlimited, ``reject`` policy).
    clock:
        Monotonic-seconds callable (injectable for tests) behind the
        ingest-rate gauge.
    """

    def __init__(
        self,
        b: np.ndarray,
        *,
        runtime: Runtime | None = None,
        seed: int = 0,
        metrics: MetricsRegistry | None = None,
        prices: PriceSchedule | None = None,
        default_quota: TenantQuota | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.b = np.asarray(b)
        self.runtime = runtime
        self.seed = int(seed)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.prices = prices if prices is not None else PriceSchedule()
        self.default_quota = (
            default_quota if default_quota is not None else TenantQuota()
        )
        self.ledger = TenantLedger()
        self._clock = clock
        self._started = clock()
        self._tenants: dict[str, _Tenant] = {}
        self._rr_offset = 0
        self._closed = False

        reg = self.metrics
        self._m_tenants = reg.gauge(
            "repro_tenants", "Open streaming tenants on this coordinator"
        )
        self._m_rows = reg.counter(
            "repro_ingest_rows_total", "Update rows ingested", ("tenant",)
        )
        self._m_rate = reg.gauge(
            "repro_ingest_rows_per_sec",
            "Manager-wide ingested rows per second since start",
        )
        self._m_epochs = reg.counter(
            "repro_epochs_total", "Epoch boundaries closed (shipped)", ("tenant",)
        )
        self._m_throttled = reg.counter(
            "repro_throttled_epochs_total",
            "Epoch boundaries closed without shipping under quota throttle",
            ("tenant",),
        )
        self._m_rejections = reg.counter(
            "repro_quota_rejections_total",
            "Operations refused under quota reject policy",
            ("tenant",),
        )
        self._m_lag = reg.gauge(
            "repro_epoch_lag",
            "Epoch boundaries behind the leading tenant",
            ("tenant",),
        )
        self._m_link_bytes = reg.counter(
            "repro_shipped_bytes_total",
            "Delta bytes shipped upstream per tenant site link",
            ("tenant", "site"),
        )
        self._m_makespan = reg.gauge(
            "repro_makespan_seconds",
            "Simulated transcript makespan under the tenant's network conditions",
            ("tenant",),
        )
        self._m_queries = reg.counter(
            "repro_queries_total", "One-shot queries answered", ("tenant",)
        )

    # ---------------------------------------------------------------- tenants
    @property
    def tenants(self) -> list[str]:
        """Open tenant names, in registration order."""
        return [name for name, t in self._tenants.items() if not t.closed]

    def _tenant(self, name: str) -> _Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            raise KeyError(f"unknown tenant {name!r}")
        if tenant.closed:
            raise KeyError(f"tenant {name!r} is closed")
        return tenant

    def open_tenant(
        self,
        name: str,
        row_counts: Sequence[int],
        *,
        quota: TenantQuota | None = None,
        seed: int | None = None,
        **session_kwargs: Any,
    ) -> StreamingSession:
        """Register a tenant and build its isolated streaming session.

        ``session_kwargs`` pass through to
        :class:`~repro.engine.streaming.StreamingSession` (refresh policy,
        thresholds, network conditions, ...).  Tenant names must be unique
        for the manager's lifetime — a closed tenant's name stays reserved
        so its ledger row is never conflated with a successor's.
        """
        if self._closed:
            raise RuntimeError("session manager is closed")
        name = str(name)
        if name in self._tenants:
            raise ValueError(f"tenant {name!r} already registered")
        session = StreamingSession(
            row_counts,
            self.b,
            seed=seed if seed is not None else derive_tenant_seed(self.seed, name),
            runtime=self.runtime,
            **session_kwargs,
        )
        self._tenants[name] = _Tenant(
            name=name,
            session=session,
            quota=quota if quota is not None else self.default_quota,
        )
        self._m_tenants.inc()
        self._update_shared_gauges()
        return session

    def session(self, name: str) -> StreamingSession:
        """The (open) tenant's underlying session."""
        return self._tenant(name).session

    def close_tenant(self, name: str) -> TenantCostReport:
        """Close one tenant's session and issue its final cost report.

        The tenant's ledger row is kept (names are never reused), so the
        per-tenant-sums-to-aggregate identity stays checkable for the
        manager's whole lifetime.
        """
        tenant = self._tenant(name)
        tenant.closed = True
        try:
            tenant.session.close()
        finally:
            self._m_tenants.dec()
            for site in tenant.session.sites:
                self._m_link_bytes.remove(tenant=name, site=site.name)
            self._m_lag.remove(tenant=name)
            self._m_makespan.remove(tenant=name)
            self._update_shared_gauges()
        return self._build_report(tenant)

    # ----------------------------------------------------------------- ingest
    def ingest(self, name: str, site: int, rows: Any, deltas: Any) -> None:
        """Apply one tenant update batch, under backpressure and quota.

        Over the ``max_pending_updates`` watermark a ``reject`` tenant's
        ingest raises; a ``throttle`` tenant first ships its backlog
        (:meth:`end_epoch`) and only raises if its exhausted budget made
        that a throttled (non-shipping) boundary.
        """
        tenant = self._tenant(name)
        quota = tenant.quota
        if tenant.pending_updates >= quota.max_pending_updates:
            if quota.policy == "reject":
                self._m_rejections.inc(tenant=name)
                self.ledger.charge(name, rejections=1)
                raise QuotaExceededError(
                    name,
                    f"ingest backpressure: {tenant.pending_updates} pending "
                    f"updates >= watermark {quota.max_pending_updates:g}",
                )
            report = self.end_epoch(name, force=True)
            if report.throttled:
                self._m_rejections.inc(tenant=name)
                self.ledger.charge(name, rejections=1)
                raise QuotaExceededError(
                    name,
                    "ingest backpressure with exhausted budget: backlog "
                    "cannot ship and cannot grow",
                )
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        tenant.session.ingest(site, rows, deltas)
        count = int(rows.shape[0])
        self.ledger.charge(name, rows=count, ingest_batches=1)
        self._m_rows.inc(count, tenant=name)
        elapsed = self._clock() - self._started
        if elapsed > 0:
            total = self.ledger.aggregate_totals().get("rows", 0)
            self._m_rate.set(total / elapsed)

    # ----------------------------------------------------------------- epochs
    def end_epoch(self, name: str, *, force: bool = False) -> EpochReport:
        """Close one tenant's epoch boundary under its quota.

        Budgets are checked against usage *so far*, so the boundary that
        crosses a budget ships in full (overshoot recorded); the next one
        hits the policy.
        """
        tenant = self._tenant(name)
        usage = self.ledger.tenant_totals(name)
        over = (
            usage.get("shipped_bytes", 0) >= tenant.quota.byte_budget
            or usage.get("epochs", 0) >= tenant.quota.epoch_budget
        )
        if over and tenant.quota.policy == "reject":
            self._m_rejections.inc(tenant=name)
            self.ledger.charge(name, rejections=1)
            raise QuotaExceededError(
                name,
                f"budget exhausted "
                f"(shipped_bytes={usage.get('shipped_bytes', 0):g}/"
                f"{tenant.quota.byte_budget:g}, "
                f"epochs={usage.get('epochs', 0):g}/"
                f"{tenant.quota.epoch_budget:g})",
            )
        tenant.epoch += 1
        if over:
            # Throttled boundary: counted, nothing ships, deltas stay
            # queued at the sites (they ship if the budget is ever raised).
            report = EpochReport(epoch=tenant.epoch, throttled=True)
            report.cumulative_bytes = (
                tenant.history[-1].cumulative_bytes if tenant.history else 0
            )
            tenant.history.append(report)
            self.ledger.charge(name, throttled_epochs=1)
            self._m_throttled.inc(tenant=name)
        else:
            report = tenant.session.end_epoch(force=force)
            tenant.history.append(report)
            self.ledger.charge(
                name, epochs=1, shipped_bytes=report.total_bytes
            )
            self._m_epochs.inc(tenant=name)
            for site_name, nbytes in report.upload_bytes.items():
                if nbytes:
                    self._m_link_bytes.inc(nbytes, tenant=name, site=site_name)
            if tenant.session.conditions is not None:
                self._m_makespan.set(
                    tenant.session.network.makespan(), tenant=name
                )
        self._update_shared_gauges()
        return report

    def run_epoch(self, *, force: bool = False) -> dict[str, EpochReport | None]:
        """One fair round-robin sweep: close every open tenant's boundary.

        The sweep starts from a rotating offset so no tenant is
        systematically served first, and a ``reject`` tenant over budget is
        skipped (recorded as ``None`` and a rejection) rather than aborting
        the sweep — one exhausted tenant must not stall the others.
        """
        if self._closed:
            raise RuntimeError("session manager is closed")
        names = self.tenants
        reports: dict[str, EpochReport | None] = {}
        if not names:
            return reports
        offset = self._rr_offset % len(names)
        self._rr_offset += 1
        for name in names[offset:] + names[:offset]:
            try:
                reports[name] = self.end_epoch(name, force=force)
            except QuotaExceededError:
                reports[name] = None
        return reports

    # ---------------------------------------------------------------- queries
    def query(self, name: str, method: str, *args: Any, **kwargs: Any) -> ProtocolResult:
        """Run a one-shot estimator query for one tenant and bill its cost.

        The query executes over the tenant's accumulated shards with the
        session's own seed stream; its protocol cost (total bits, rounds)
        lands on the tenant's ledger row.
        """
        tenant = self._tenant(name)
        query_fn = getattr(tenant.session, method, None)
        if query_fn is None or not callable(query_fn):
            raise ValueError(f"unknown query method {method!r}")
        result = query_fn(*args, **kwargs)
        if not isinstance(result, ProtocolResult):
            raise ValueError(
                f"{method!r} is not a one-shot query method (use the live_* "
                f"accessors on the session directly)"
            )
        self.ledger.charge(
            name,
            queries=1,
            query_bits=result.cost.total_bits,
            query_rounds=result.cost.rounds,
        )
        self._m_queries.inc(tenant=name)
        return result

    # -------------------------------------------------------------- reporting
    def _build_report(self, tenant: _Tenant) -> TenantCostReport:
        usage = self.ledger.tenant_totals(tenant.name)
        items = self.prices.line_items(usage)
        quota = tenant.quota
        return TenantCostReport(
            tenant=tenant.name,
            usage=usage,
            line_items=items,
            total_cost=sum(item["amount"] for item in items),
            currency=self.prices.currency,
            quota={
                "policy": quota.policy,
                "byte_budget": quota.byte_budget,
                "bytes_remaining": max(
                    quota.byte_budget - usage.get("shipped_bytes", 0), 0
                ),
                "epoch_budget": quota.epoch_budget,
                "epochs_remaining": max(
                    quota.epoch_budget - usage.get("epochs", 0), 0
                ),
                "max_pending_updates": quota.max_pending_updates,
            },
            epoch=tenant.epoch,
            closed=tenant.closed,
        )

    def report(self, name: str) -> TenantCostReport:
        """The tenant's current billing statement (open or closed tenant)."""
        tenant = self._tenants.get(name)
        if tenant is None:
            raise KeyError(f"unknown tenant {name!r}")
        return self._build_report(tenant)

    def aggregate_report(self) -> dict[str, Any]:
        """Service-wide usage: the ledger aggregate plus the meter identity.

        ``meters_consistent`` is the acceptance invariant made inspectable:
        the sum of per-tenant *shipped_bytes* ledger rows equals both the
        ledger aggregate and the sum of every session's own network meter.
        """
        self.ledger.verify()
        aggregate = self.ledger.aggregate_totals()
        network_bytes = sum(
            t.session.total_upload_bytes for t in self._tenants.values()
        )
        return {
            "tenants": len(self._tenants),
            "open_tenants": len(self.tenants),
            "usage": aggregate,
            "network_upload_bytes": network_bytes,
            "meters_consistent": (
                aggregate.get("shipped_bytes", 0) == network_bytes
            ),
        }

    def verify_accounting(self) -> None:
        """Assert the full metering identity (tests + load-gen gate).

        Per tenant: the ledger's ``shipped_bytes`` row equals the
        session's own network meter.  Globally: tenant rows sum to the
        ledger aggregate (no double-count), which therefore equals the sum
        of all per-session network meters (no bleed).
        """
        self.ledger.verify()
        for name, tenant in self._tenants.items():
            ledger_bytes = self.ledger.tenant_totals(name).get("shipped_bytes", 0)
            meter_bytes = tenant.session.total_upload_bytes
            if ledger_bytes != meter_bytes:
                raise AssertionError(
                    f"tenant {name!r}: ledger says {ledger_bytes} shipped "
                    f"bytes, session network metered {meter_bytes}"
                )
        aggregate = self.ledger.aggregate_totals().get("shipped_bytes", 0)
        network = sum(t.session.total_upload_bytes for t in self._tenants.values())
        if aggregate != network:
            raise AssertionError(
                f"aggregate ledger {aggregate} != summed network meters {network}"
            )

    # -------------------------------------------------------------- lifecycle
    def _update_shared_gauges(self) -> None:
        leader = max((t.epoch for t in self._tenants.values() if not t.closed),
                     default=0)
        for name, tenant in self._tenants.items():
            if not tenant.closed:
                self._m_lag.set(leader - tenant.epoch, tenant=name)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close every open tenant session (idempotent).

        Accounting is verified on the way out so a lifecycle bug cannot
        silently ship an unbalanced ledger.
        """
        if self._closed:
            return
        self._closed = True
        for tenant in self._tenants.values():
            if not tenant.closed:
                tenant.closed = True
                tenant.session.close()
                self._m_tenants.dec()
        self.verify_accounting()

    def __enter__(self) -> "SessionManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
