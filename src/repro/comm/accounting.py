"""Shared bit/round accounting for metered transports.

Every metered transport — the in-process :class:`repro.comm.network
.Network` and its socket subclass's wire meter — records each message once,
into one log, and charges it the same way: every message carries a bit
cost, and a *round* counter increments whenever the direction of
communication flips.  Per-edge readings are reads of that log.

The meters keep **counts, not messages**.  A :class:`MessageLog` holds one
integer per ``(round, sender, receiver, label)`` *cell*, in the order the
cells first appear, plus running totals overall, per sender and per
``(sender, receiver)`` pair; no payload is ever kept.  So a log's size is
bounded by the number of distinct cells, not by how many messages it
metered: a streaming session that ships one delta per site per epoch, all
upstream, stays at one cell per edge however long it runs.

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
per-link views of a ``Network`` directly comparable to a two-party run
(the one-leaf star).
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from typing import Hashable


@dataclass(frozen=True)
class Message:
    """One cell of a :class:`MessageLog`: every message one sender sent one
    receiver under one label in one round, summed into ``bits``.

    Messages that share the cell are indistinguishable to every meter and
    to both makespan models (a link's burst in a round is its summed bits),
    so the log keeps them as one.
    """

    sender: str
    receiver: str
    label: str
    bits: int
    round_index: int


class MessageLog:
    """Bit and round meter over running counts, with no payload kept.

    A network owns one log per metering convention and feeds it via
    :meth:`record`; all derived statistics — totals, per-sender and
    per-pair bits, per-label and per-round breakdowns, one edge's own
    log — live here.  ``total_bits``, ``rounds``, :meth:`bits_sent_by` and
    :meth:`bits_between` are O(1); the breakdowns, :meth:`between` and the
    :attr:`messages` view are O(cells).
    """

    def __init__(self) -> None:
        #: (round, sender, receiver, label) -> bits, in first-appearance order.
        self._cells: dict[tuple[int, str, str, str], int] = {}
        self._total_bits = 0
        self._sender_bits: Counter[str] = Counter()
        self._pair_bits: Counter[tuple[str, str]] = Counter()
        self._last_key: Hashable | None = None
        self._round = 0

    # ---------------------------------------------------------------- record
    def record(
        self,
        sender: str,
        receiver: str,
        *,
        label: str = "",
        bits: int,
        direction_key: Hashable | None = None,
    ) -> None:
        """Count one message, advancing the round counter on direction flips.

        ``direction_key`` defaults to the sender (two-party semantics); a
        star network passes its up/down direction instead.
        """
        if bits < 0:
            raise ValueError("bit cost must be non-negative")
        key = sender if direction_key is None else direction_key
        if key != self._last_key:
            self._round += 1
            self._last_key = key
        bits = int(bits)
        cell = (self._round, sender, receiver, label)
        self._cells[cell] = self._cells.get(cell, 0) + bits
        self._total_bits += bits
        self._sender_bits[sender] += bits
        self._pair_bits[sender, receiver] += bits

    # ------------------------------------------------------------ accounting
    @property
    def messages(self) -> list[Message]:
        """The cells as :class:`Message` records, in first-appearance order.

        Built when read; changing the list does not change the log.
        """
        return [
            Message(sender, receiver, label, bits, round_index)
            for (round_index, sender, receiver, label), bits in self._cells.items()
        ]

    @property
    def total_bits(self) -> int:
        """Total bits recorded so far."""
        return self._total_bits

    @property
    def rounds(self) -> int:
        """Number of rounds used so far (maximal direction flips)."""
        return self._round

    def bits_sent_by(self, sender: str) -> int:
        """Total bits sent by one endpoint."""
        return self._sender_bits.get(sender, 0)

    def bits_between(self, a: str, b: str) -> int:
        """Total bits sent either way between two endpoints."""
        return self._pair_bits.get((a, b), 0) + self._pair_bits.get((b, a), 0)

    def between(self, a: str, b: str) -> "MessageLog":
        """The traffic between two endpoints as a fresh log with two-party
        (sender-flip) rounds: the pair's cells replayed in stored order,
        0-bit cells included.  Where each round of this log carries the
        pair's traffic one way only (a network's parent-child edge), that
        rebuilds the log the pair's own meter would keep; sorting the cells
        would reorder labels within a round."""
        log = MessageLog()
        for (_, sender, receiver, label), bits in self._cells.items():
            if (sender == a and receiver == b) or (sender == b and receiver == a):
                log.record(sender, receiver, label=label, bits=bits)
        return log

    def bits_by_label(self) -> dict[str, int]:
        """Total bits grouped by message label (for cost breakdowns)."""
        breakdown: dict[str, int] = {}
        for (_, _, _, label), bits in self._cells.items():
            breakdown[label] = breakdown.get(label, 0) + bits
        return breakdown

    def bits_per_round(self) -> dict[int, int]:
        """Total bits grouped by round index (1-based, ascending).

        Rounds only advance, so first-appearance order is ascending.
        """
        breakdown: dict[int, int] = {}
        for (round_index, _, _, _), bits in self._cells.items():
            breakdown[round_index] = breakdown.get(round_index, 0) + bits
        return breakdown

    def per_round(self) -> dict[int, list[Message]]:
        """The :attr:`messages` view grouped by round index (ascending).

        The round structure is the synchronization structure of a protocol:
        everything inside one round could be in flight simultaneously, while
        rounds are sequential.  The makespan models
        (:mod:`repro.comm.conditions`) consume this grouping directly.
        """
        batches: dict[int, list[Message]] = {}
        for message in self.messages:
            batches.setdefault(message.round_index, []).append(message)
        return batches

    def reset(self) -> None:
        """Clear all recorded traffic (used when reusing a transport)."""
        self._cells.clear()
        self._total_bits = 0
        self._sender_bits.clear()
        self._pair_bits.clear()
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
