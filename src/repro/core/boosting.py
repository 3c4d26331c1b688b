"""Success-probability boosting via the median trick.

Every estimation protocol in the paper succeeds "with constant probability";
the paper then notes (e.g. after Theorem 3.1) that the success probability
can be boosted to ``1 - 1/n^10`` by running ``O(log n)`` independent copies
and taking the median, paying the same factor in communication.

:class:`MedianBoostedProtocol` implements exactly that as a combinator: it
wraps any scalar-valued protocol factory, runs ``repetitions`` independent
copies (fresh randomness each), outputs the median estimate, and reports the
summed communication.  Rounds are reported as the maximum over the copies:
the copies are independent and can run in parallel, which is the standard
convention for the round complexity of repeated protocols.
"""

from __future__ import annotations

import math
from typing import Any, Callable

import numpy as np

from repro.comm.protocol import CostReport, ProtocolResult


class MedianBoostedProtocol:
    """Run ``repetitions`` copies of a scalar protocol and take the median.

    Parameters
    ----------
    protocol_factory:
        Callable ``seed -> protocol`` building one independent copy (any
        object whose ``run(A, B)`` returns a two-party
        :class:`~repro.comm.protocol.ProtocolResult`).
    repetitions:
        Number of copies; ``O(log n)`` copies boost a constant success
        probability to ``1 - 1/poly(n)``.  Use :meth:`repetitions_for` to
        size it from a target failure probability.
    """

    name = "median-boosted"

    def __init__(
        self,
        protocol_factory: Callable[[int], Any],
        repetitions: int = 9,
        *,
        seed: int | None = None,
    ) -> None:
        if repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {repetitions}")
        self.seed = seed
        self.protocol_factory = protocol_factory
        self.repetitions = int(repetitions)

    @staticmethod
    def repetitions_for(n: int, *, failure_exponent: float = 10.0) -> int:
        """Copies needed for failure probability ``1/n^failure_exponent``.

        Standard Chernoff bound for boosting a 2/3-success estimator by
        medians: ``O(log(1/delta))`` copies; the constant used here is the
        usual ``18 ln(1/delta)`` rounded to the next odd integer.
        """
        if n < 2:
            return 1
        delta = float(n) ** (-failure_exponent)
        needed = int(math.ceil(18.0 * math.log(1.0 / delta)))
        return needed + 1 if needed % 2 == 0 else needed

    # ------------------------------------------------------------------ run
    def run(self, alice_data, bob_data) -> ProtocolResult:
        root = np.random.default_rng(self.seed)
        estimates: list[float] = []
        total_bits = 0
        alice_bits = 0
        bob_bits = 0
        max_rounds = 0
        breakdown: dict[str, int] = {}
        for _ in range(self.repetitions):
            copy_seed = int(root.integers(0, 2**31 - 1))
            result = self.protocol_factory(copy_seed).run(alice_data, bob_data)
            estimates.append(float(result.value))
            total_bits += result.cost.total_bits
            alice_bits += result.cost.alice_bits
            bob_bits += result.cost.bob_bits
            max_rounds = max(max_rounds, result.cost.rounds)
            for label, bits in result.cost.breakdown.items():
                breakdown[label] = breakdown.get(label, 0) + bits
        cost = CostReport(
            total_bits=total_bits,
            rounds=max_rounds,
            alice_bits=alice_bits,
            bob_bits=bob_bits,
            breakdown=breakdown,
        )
        details = {"estimates": estimates, "repetitions": self.repetitions}
        return ProtocolResult(value=float(np.median(estimates)), cost=cost, details=details)
