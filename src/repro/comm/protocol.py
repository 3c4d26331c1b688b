"""Result and cost containers shared by every protocol driver."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class CostReport:
    """Communication cost of one two-party protocol execution.

    ``makespan`` is the simulated end-to-end seconds of the transcript
    under the transport's :class:`repro.comm.conditions.NetworkConditions`
    (0.0 under the default ideal links).
    """

    total_bits: int
    rounds: int
    alice_bits: int
    bob_bits: int
    breakdown: dict[str, int] = field(default_factory=dict)
    makespan: float = 0.0


@dataclass
class ProtocolResult:
    """Outcome of one protocol execution: the output plus its cost."""

    value: Any
    cost: CostReport
    details: dict[str, Any] = field(default_factory=dict)


def split_protocol_output(output: Any) -> tuple[Any, dict]:
    """Split a protocol's raw return into ``(value, details)``.

    Protocol bodies may return either a bare value or a ``(value, details)``
    pair; the engine driver normalizes through this helper.
    """
    if isinstance(output, tuple) and len(output) == 2 and isinstance(output[1], dict):
        return output
    return output, {}
