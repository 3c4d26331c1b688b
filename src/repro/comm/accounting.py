"""Shared bit/round accounting for metered transports.

Every metered transport — the star-topology
:class:`repro.comm.network.Network`, its aggregate log and each of its
per-link logs — charges messages the same way: every message carries a bit
cost, and a *round* counter increments whenever the direction of
communication flips.  This module holds the common machinery so the meters
cannot drift apart.

Round semantics
---------------
Each recorded message carries a *direction key*.  Consecutive messages with
the same key belong to the same round; the counter increments whenever the
key changes (the first message opens round 1).  For a two-party link the
key is the sender, which is exactly the classic definition.  For a star
network the key is the up/down direction, so k sites uploading their
summaries one after another share a single round — they could do so in
parallel — while a coordinator reply opens a new one.  On any individual
coordinator-site link the two notions coincide, which is what makes the
per-link meters of a ``Network`` directly comparable to a two-party run
(the one-leaf star).
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Hashable


@dataclass
class Message:
    """One message recorded on a metered transport."""

    sender: str
    receiver: str
    label: str
    bits: int
    round_index: int
    payload: Any = field(repr=False, default=None)


class MessageLog:
    """Append-only message record with bit and round accounting.

    Transports (network links and network aggregates) own one log
    each and feed it via :meth:`record`; all derived statistics — totals,
    per-sender bits, per-label and per-round breakdowns — live here.
    """

    def __init__(self) -> None:
        self.messages: list[Message] = []
        self._last_key: Hashable | None = None
        self._round = 0

    # ---------------------------------------------------------------- record
    def record(
        self,
        sender: str,
        receiver: str,
        payload: Any,
        *,
        label: str = "",
        bits: int,
        direction_key: Hashable | None = None,
    ) -> Message:
        """Append a message, advancing the round counter on direction flips.

        ``direction_key`` defaults to the sender (two-party semantics); a
        star network passes its up/down direction instead.
        """
        if bits < 0:
            raise ValueError("bit cost must be non-negative")
        key = sender if direction_key is None else direction_key
        if key != self._last_key:
            self._round += 1
            self._last_key = key
        message = Message(
            sender=sender,
            receiver=receiver,
            label=label,
            bits=int(bits),
            round_index=self._round,
            payload=payload,
        )
        self.messages.append(message)
        return message

    # ------------------------------------------------------------ accounting
    @property
    def total_bits(self) -> int:
        """Total bits recorded so far."""
        return sum(message.bits for message in self.messages)

    @property
    def rounds(self) -> int:
        """Number of rounds used so far (maximal direction flips)."""
        return self._round

    def bits_sent_by(self, sender: str) -> int:
        """Total bits sent by one endpoint."""
        return sum(message.bits for message in self.messages if message.sender == sender)

    def bits_by_label(self) -> dict[str, int]:
        """Total bits grouped by message label (for cost breakdowns)."""
        breakdown: Counter[str] = Counter()
        for message in self.messages:
            breakdown[message.label] += message.bits
        return dict(breakdown)

    def bits_per_round(self) -> dict[int, int]:
        """Total bits grouped by round index (1-based, ascending)."""
        breakdown: Counter[int] = Counter()
        for message in self.messages:
            breakdown[message.round_index] += message.bits
        return dict(sorted(breakdown.items()))

    def per_round(self) -> dict[int, list[Message]]:
        """Messages grouped by round index (1-based, ascending).

        The round structure is the synchronization structure of a protocol:
        everything inside one round could be in flight simultaneously, while
        rounds are sequential.  The makespan model
        (:func:`repro.comm.conditions.simulate_makespan`) consumes this
        grouping directly.
        """
        batches: dict[int, list[Message]] = {}
        for message in self.messages:
            batches.setdefault(message.round_index, []).append(message)
        return dict(sorted(batches.items()))

    def reset(self) -> None:
        """Clear all recorded traffic (used when reusing a transport)."""
        self.messages.clear()
        self._last_key = None
        self._round = 0


class TenantLedger:
    """Per-tenant rollups of metered quantities, with an exact aggregate.

    The multi-tenant service bills each tenant for the traffic its own
    sessions generate (upload bytes, total delta bytes, query bits, rounds,
    rows, epochs).  The classic double-entry failure modes are *double
    counting* (a quantity charged to a tenant and separately to the
    aggregate, then summed twice) and *bleed* (quantity charged to the wrong
    tenant).  The ledger rules both out by construction: :meth:`charge` is
    the only mutation point and it increments the tenant row and the
    aggregate row from the same amounts in one locked step, so

        sum over tenants of tenant_totals(t)[k] == aggregate_totals()[k]

    holds at all times.  :meth:`verify` asserts exactly that identity and is
    called by the tests and the load-generator gate.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._per_tenant: dict[str, Counter[str]] = {}
        self._aggregate: Counter[str] = Counter()

    def charge(self, tenant: str, **amounts: float) -> None:
        """Charge ``amounts`` (keyword -> quantity) to one tenant.

        Negative amounts are rejected: every metered quantity in the system
        is a monotone total.
        """
        for key, amount in amounts.items():
            if amount < 0:
                raise ValueError(
                    f"cannot charge negative {key}={amount} to tenant {tenant!r}"
                )
        with self._lock:
            row = self._per_tenant.setdefault(str(tenant), Counter())
            for key, amount in amounts.items():
                row[key] += amount
                self._aggregate[key] += amount

    def forget(self, tenant: str) -> None:
        """Drop a tenant's row *without* touching the aggregate.

        Used when a tenant is closed and its final report has been issued:
        the aggregate keeps the service-lifetime totals, matching the
        network meters which are likewise never rolled back.
        """
        with self._lock:
            self._per_tenant.pop(str(tenant), None)

    @property
    def tenants(self) -> list[str]:
        """Tenants with at least one charge, in insertion order."""
        with self._lock:
            return list(self._per_tenant)

    def tenant_totals(self, tenant: str) -> dict[str, float]:
        """All charged quantities for one tenant."""
        with self._lock:
            return dict(self._per_tenant.get(str(tenant), Counter()))

    def aggregate_totals(self) -> dict[str, float]:
        """Service-lifetime totals across every tenant ever charged."""
        with self._lock:
            return dict(self._aggregate)

    def verify(self) -> None:
        """Assert the per-tenant rows sum exactly to the aggregate.

        Only meaningful while no tenant has been :meth:`forget`-ten; the
        session manager verifies before dropping rows.
        """
        with self._lock:
            summed: Counter[str] = Counter()
            for row in self._per_tenant.values():
                summed.update(row)
            if summed != self._aggregate:
                diff = {
                    key: (summed.get(key, 0), self._aggregate.get(key, 0))
                    for key in set(summed) | set(self._aggregate)
                    if summed.get(key, 0) != self._aggregate.get(key, 0)
                }
                raise AssertionError(
                    f"tenant ledger out of balance (per-tenant sum, aggregate): {diff}"
                )
