"""Theorem 3.2, k sites: one-round ``l_0``-sampling of the support of ``A B``.

The goal is a uniformly random non-zero entry ``(i, j)`` of ``C = A B``
(each with probability ``(1 ± eps) / ||C||_0``).  The protocol composes two
linear sketches, both applied to the *columns* of ``C``:

* an ``l_0`` sketch ``S`` (:class:`repro.sketch.l0_sketch.L0Sketch`) to
  estimate ``||C_{*,j}||_0`` for every column ``j`` within ``(1 + eps)``, and
* an ``l_0``-sampler ``T`` (:class:`repro.sketch.l0_sampler.L0Sampler`) to
  draw a uniform non-zero row index inside a chosen column.

Because the sketches are linear and columns of ``C`` satisfy
``C_{*,j} = A B_{*,j}``, every site ships the partial linear images of its
shard (one batched ``update_many`` per sketch, global row indexing) and the
coordinator merges them entrywise — the merged state equals the sketch of
the full ``A`` exactly — before finishing locally.  One round,
``O~(n / eps^2)`` bits per site; with a single site this is precisely the
two-party protocol (Alice ships ``S A`` and ``T A``, Bob finishes).
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from repro.comm import bitcost
from repro.core.result import SampleOutput
from repro.engine.base import StarProtocol
from repro.engine.lp_norm import check_inner_dims, total_rows_of
from repro.engine.topology import Coordinator, Site, shard_partial_summaries
from repro.sketch.kernels import exact_matmul
from repro.sketch.l0_sampler import L0Sampler
from repro.sketch.l0_sketch import L0Sketch

__all__ = ["StarL0SamplingProtocol", "finish_l0_sample"]


def finish_l0_sample(
    l0_sketch: L0Sketch,
    sampler: L0Sampler,
    sketched_c: np.ndarray,
    sampler_c: np.ndarray,
    rng: np.random.Generator,
) -> tuple[SampleOutput, dict]:
    """Receiver-side finish: pick a column by estimated ``l_0`` mass, then
    recover a uniform non-zero row inside it."""
    column_l0 = np.maximum(l0_sketch.estimate_rows_pp(sketched_c.T), 0.0)
    total = float(column_l0.sum())
    if total <= 0:
        return SampleOutput(row=None, col=None), {"column_mass": 0.0}
    col = int(rng.choice(sketched_c.shape[1], p=column_l0 / total))
    outcome = sampler.sample(sampler_c[:, col])
    if not outcome.success:
        return (
            SampleOutput(row=None, col=None),
            {"column_mass": total, "column": col, "sampler_failed": True},
        )
    return (
        SampleOutput(row=int(outcome.index), col=col, value=float(outcome.value)),
        {"column_mass": total, "column": col, "sampler_level": outcome.level},
    )


class StarL0SamplingProtocol(StarProtocol):
    """One-round ``l_0``-sampling on ``C = A B`` (Theorem 3.2).

    Parameters
    ----------
    epsilon:
        Accuracy of the column-``l_0`` estimates that drive the column
        choice; the sampled distribution is uniform over the support up to a
        ``(1 ± eps)`` factor.
    sampler_repetitions:
        Independent repetitions inside the per-column ``l_0``-sampler.
    """

    name = "l0-sampling-one-round"

    def __init__(
        self,
        epsilon: float = 0.25,
        *,
        sampler_repetitions: int = 8,
        seed: int | None = None,
    ) -> None:
        super().__init__(seed=seed)
        if not 0 < epsilon <= 1:
            raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
        self.epsilon = float(epsilon)
        self.sampler_repetitions = int(sampler_repetitions)

    def _execute(self, coordinator: Coordinator, sites: list[Site]):
        b = np.asarray(coordinator.data)
        check_inner_dims(sites, b)
        total_rows = total_rows_of(sites)

        # Shared randomness: every endpoint derives the same sketch pair.
        l0_sketch = L0Sketch.for_accuracy(total_rows, self.epsilon, self.shared_rng)
        sampler = L0Sampler(
            total_rows, self.shared_rng, repetitions=self.sampler_repetitions
        )

        # Round 1 (the only round): sites -> coordinator, partial summaries.
        # Fan-out: every site pushes its shard through both sketches; sends
        # and merges stay serial in site order.
        site_summaries = self.runtime.map(
            shard_partial_summaries,
            [(site.rows, site.data, (l0_sketch, sampler)) for site in sites],
        )
        for site, (partial_sketch, partial_sampler) in zip(sites, site_summaries):
            bits = bitcost.bits_for_matrix(partial_sketch.state) + bitcost.bits_for_matrix(
                partial_sampler.state
            )
            site.send(
                {"l0_sketch": partial_sketch, "sampler": partial_sampler},
                label="sketches-of-shard",
                bits=bits,
            )

        # Coordinator: merge the k summaries, then finish exactly like Bob.
        merged_sketch = reduce(
            lambda acc, pair: acc.merge(pair[0]), site_summaries, l0_sketch.empty_copy()
        )
        merged_sampler = reduce(
            lambda acc, pair: acc.merge(pair[1]), site_summaries, sampler.empty_copy()
        )
        sketched_c = exact_matmul(merged_sketch.state, b.astype(np.int64))
        sampler_c = exact_matmul(merged_sampler.state, b.astype(np.int64))
        return finish_l0_sample(
            l0_sketch, sampler, sketched_c, sampler_c, coordinator.rng
        )
