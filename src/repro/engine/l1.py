"""Remarks 2 and 3, k sites: exact ``||A B||_1`` and ``l_1``-sampling, one round.

For entrywise non-negative matrices (in particular binary matrices /
database joins) the natural-join size ``||A B||_1`` factorises over the
shared attribute:

    ``||A B||_1 = sum_j ||A_{*,j}||_1 * ||B_{j,*}||_1``

Column sums are mergeable (they add over row-shards), so every site sends
its shard's ``n`` column sums and the coordinator sums them before taking
the inner product with ``B``'s row sums (Remark 2).  Sampling an entry of
``C`` proportionally to its value reduces to sampling the shared item ``j``
proportionally to ``||A_{*,j}||_1 ||B_{j,*}||_1``, then a random "witness"
on each side (Remark 3); each site pre-draws one witness per item from its
own shard, and the coordinator picks the owning site proportionally to the
per-site column masses.  Both protocols use ``O(n log n)`` bits per site
and one round.

A site draws all its witnesses in a few array passes over column blocks,
each witness the row ``Generator.choice`` would have drawn for its column
from the same stream (see ``_l1_witness_task``).
"""

from __future__ import annotations

import numpy as np

from repro.comm import bitcost
from repro.core.result import SampleOutput
from repro.engine.base import StarProtocol
from repro.engine.lp_norm import check_inner_dims, total_rows_of
from repro.engine.robust import RobustPolicy, robust_total
from repro.engine.topology import Coordinator, Site

__all__ = ["StarExactL1Protocol", "StarL1SamplingProtocol", "shard_column_sums"]

#: Most shard entries one column block of the witness draw holds.
_WITNESS_BLOCK_ENTRIES = 1 << 20

_INT64_LIMIT = 2**63


def _check_nonnegative(matrix: np.ndarray, who: str) -> np.ndarray:
    matrix = np.asarray(matrix)
    if np.any(matrix < 0):
        raise ValueError(
            f"{who}'s matrix has negative entries; Remark 2/3 require "
            "entrywise non-negative matrices (e.g. binary join matrices)"
        )
    return matrix


def _exact_sums(matrix: np.ndarray, axis: int, what: str) -> np.ndarray:
    """``matrix.sum(axis)``, raising ``ValueError`` where a sum is not exact.

    An integer sum beyond int64 wraps around, and a float sum of NaN or inf
    entries, or one that overflows, is not finite; either would silently
    corrupt Remarks 2-3.  The int64 check is exact and cheap: Python-int
    sums run only when ``rows * max|entry|`` reaches ``2**63``.
    """
    sums = matrix.sum(axis=axis)
    if matrix.dtype.kind == "f" and not np.isfinite(sums).all():
        raise ValueError(f"a {what} is not finite (NaN or inf entries, or float overflow)")
    if matrix.dtype.kind in "iu" and matrix.size:
        largest = max(int(matrix.max()), -int(matrix.min()))
        if matrix.shape[axis] * largest >= _INT64_LIMIT and any(
            not -_INT64_LIMIT <= total < _INT64_LIMIT
            for total in matrix.astype(object).sum(axis=axis).flat
        ):
            raise ValueError(f"a {what} does not fit int64")
    return sums


def shard_column_sums(shard: np.ndarray) -> np.ndarray:
    """One shard's per-item column sums (Remark 2's mergeable summary).

    Module-level so the runtime can fan it out across sites; the ``l_inf``
    and heavy-hitter protocols reuse it for their own Remark-2 phases.
    Raises ``ValueError`` when a sum does not fit int64 or is not finite.
    """
    return _exact_sums(np.asarray(shard), 0, "column sum")


def _l1_witness_task(
    rng: np.random.Generator, shard: np.ndarray, row_offset: int
) -> tuple[tuple[np.ndarray, np.ndarray], np.random.Generator]:
    """One site's Remark-3 work: column sums + one witness row per item.

    Every column with a positive sum gets the witness that
    ``rng.choice(rows, p=shard[:, j] / column_sums[j])`` would draw, column
    after column, from the site's private ``rng`` (returned advanced, per
    the runtime's ``map_sites`` contract).  ``Generator.choice`` divides the
    cumulative sum of ``p`` by its last entry and returns
    ``cdf.searchsorted(rng.random(), side="right")``.  Here one
    ``rng.random(live)`` call yields the same doubles in column order;
    ``np.cumsum`` adds sequentially down each column of a block, so every
    column's cdf has the bytes of its 1-D cumsum; and in a non-decreasing
    cdf the count of entries ``<= u`` is that right-sided search.  Column
    blocks of at most ``_WITNESS_BLOCK_ENTRIES`` entries bound the
    temporaries.
    """
    column_sums = shard_column_sums(shard).astype(float)
    witnesses = np.full(shard.shape[1], -1, dtype=np.int64)
    live = np.flatnonzero(column_sums > 0)
    uniforms = rng.random(live.size)
    block = max(1, _WITNESS_BLOCK_ENTRIES // max(shard.shape[0], 1))
    for start in range(0, live.size, block):
        columns = live[start : start + block]
        cdf = np.cumsum(shard[:, columns] / column_sums[columns], axis=0)
        cdf /= cdf[-1]
        below = np.count_nonzero(cdf <= uniforms[start : start + block], axis=0)
        witnesses[columns] = row_offset + below
    return (column_sums, witnesses), rng


class StarExactL1Protocol(StarProtocol):
    """Remark 2: exact ``||A B||_1`` with ``O(n log n)`` bits, one round.

    ``robust=`` (a :class:`repro.engine.robust.RobustPolicy` or a bare
    ``f``) replaces the entrywise sum of per-site column sums with the
    coordinatewise robust total, tolerating up to f corrupt uploads; the
    conditions' :class:`~repro.engine.robust.FaultPlan` (if any) corrupts
    the named sites' uploads before the merge.
    """

    name = "l1-exact-one-round"
    renormalizes_on_dropout = True

    def __init__(
        self,
        *,
        seed: int | None = None,
        robust: "RobustPolicy | int | None" = None,
    ) -> None:
        super().__init__(seed=seed)
        self.robust = RobustPolicy.coerce(robust)

    def _execute(self, coordinator: Coordinator, sites: list[Site]):
        b = _check_nonnegative(coordinator.data, "the coordinator")
        check_inner_dims(sites, b)
        shards = [_check_nonnegative(site.data, site.name) for site in sites]
        faults = self.conditions.faults if self.conditions is not None else None

        # Fan-out: per-shard column sums; serial: sends + merge in site order.
        site_column_sums = self.runtime.map(
            shard_column_sums, [(shard,) for shard in shards]
        )
        merged = np.zeros(b.shape[0], dtype=float)
        total_bits = 0
        site_uploads: list[np.ndarray] = []
        for site, column_sums in zip(sites, site_column_sums):
            bits = column_sums.shape[0] * bitcost.bits_for_int(int(max(column_sums.max(), 1)))
            site.send(column_sums, label="column-sums", bits=bits)
            upload = column_sums.astype(float)
            if faults is not None:
                upload = np.asarray(faults.corrupt(site.name, upload), dtype=float)
            merged += upload
            site_uploads.append(upload)
            total_bits += bits

        details: dict = {"column_sums_bits": total_bits}
        if self.robust is not None:
            merged = np.asarray(robust_total(site_uploads, self.robust), dtype=float)
            details["robust"] = {
                "f": self.robust.f,
                "strategy": self.robust.strategy,
            }
        if faults is not None:
            present = {site.name for site in sites}
            details["faults"] = {
                name: kind
                for name, kind in faults.describe().items()
                if name in present
            }

        row_sums = _exact_sums(b, 1, "row sum of B")
        value = float(np.dot(merged, row_sums.astype(float)))
        return value, details


class StarL1SamplingProtocol(StarProtocol):
    """Remark 3: ``l_1``-sampling of an entry of ``A B`` in one round.

    Returns a :class:`repro.core.result.SampleOutput` whose ``(row, col)`` is
    distributed proportionally to ``C_{row, col}`` (for non-negative inputs).
    """

    name = "l1-sampling-one-round"

    def _execute(self, coordinator: Coordinator, sites: list[Site]):
        b = _check_nonnegative(coordinator.data, "the coordinator")
        check_inner_dims(sites, b)
        total_rows = total_rows_of(sites)
        n_inner = b.shape[0]

        # Round 1 (the only round): every site ships its shard's column sums
        # plus one witness row per item, sampled proportionally to the
        # column values within the shard (global row numbering).  Witness
        # drawing fans out (private coins per site); sends stay serial.
        shards = [_check_nonnegative(site.data, site.name) for site in sites]
        outcomes = self.runtime.map_sites(
            _l1_witness_task,
            sites,
            [(shard, site.row_offset) for site, shard in zip(sites, shards)],
        )
        site_column_sums = []
        site_witnesses = []
        for site, (column_sums, witnesses) in zip(sites, outcomes):
            bits = n_inner * (
                bitcost.bits_for_int(int(max(column_sums.max(), 1)))
                + bitcost.bits_for_index(max(total_rows, 1))
            )
            site.send(
                {"column_sums": column_sums, "witnesses": witnesses},
                label="column-sums+witnesses",
                bits=bits,
            )
            site_column_sums.append(column_sums)
            site_witnesses.append(witnesses)

        # Coordinator: item j ~ ||A_{*,j}||_1 ||B_{j,*}||_1, then a column
        # witness from B and a row witness from the owning site.
        merged = np.sum(site_column_sums, axis=0)
        row_sums = _exact_sums(b, 1, "row sum of B").astype(float)
        masses = merged * row_sums
        total = masses.sum()
        if total <= 0:
            return SampleOutput(row=None, col=None), {"total_mass": 0.0}
        j = int(coordinator.rng.choice(n_inner, p=masses / total))
        col_probabilities = b[j, :] / row_sums[j]
        col = int(coordinator.rng.choice(b.shape[1], p=col_probabilities))
        if len(sites) == 1:
            owner = 0
        else:
            weights = np.array([sums[j] for sums in site_column_sums])
            owner = int(coordinator.rng.choice(len(sites), p=weights / weights.sum()))
        row = int(site_witnesses[owner][j])
        return SampleOutput(row=row, col=col), {"total_mass": float(total), "item": j}
