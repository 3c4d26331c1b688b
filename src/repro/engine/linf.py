"""Algorithms 2-3 and Theorem 4.8, k sites: estimating ``||A B||_inf``.

Algorithm 2 (Theorem 4.1) gives a ``(2 + eps)``-approximation in 3 rounds
and ``O~(n^{1.5}/eps)`` bits for binary matrices; Algorithm 3 (Theorem 4.3)
a ``kappa``-approximation for ``kappa in [4, n]`` in ``O(1)`` rounds and
``O~(n^{1.5}/kappa)`` bits.  Both share the same skeleton, lifted to the
star:

1. *Down-scaling by sampling.*  Every site subsamples the 1-entries of its
   shard at geometrically decreasing rates ``p_l`` to obtain nested
   matrices ``A^l``.  Per-level column sums are mergeable, so each site
   ships its level column-sum stack (Remark 2 applied per level per shard);
   the coordinator merges them, computes ``||A^l B||_1`` per level, selects
   the first level ``l*`` below the threshold and broadcasts it.

2. *Per-item index exchange*
   (:func:`repro.engine.exchange.star_exchange_item_supports`): the
   endpoints obtain an additive split of ``A^{l*} B``.

3. The output is the maximum entry over all shares, rescaled by
   ``1/p_{l*}`` — within a factor 2 because a single entry is split across
   at most two shares, and within ``(1 + eps)`` of ``||C||_inf`` after
   rescaling because the sampling preserves large entries (Lemma 4.2).

Algorithm 3 additionally applies *universe sampling* (each shared item is
kept with probability ``q = min(alpha/kappa, 1)``) before the level search.
The kept-item mask must be common to all sites, so with several sites it is
drawn from the shared public-coin stream; with a single site it stays on
the site's private stream, exactly like the two-party protocol's Alice.

Theorem 4.8(1) (general integer matrices) is the one-round blocked-AMS
sketch: the shared block-diagonal sign sketch is linear over the global
rows, so per-site partial images merge entrywise at the coordinator.
"""

from __future__ import annotations

import math

import numpy as np

from repro.comm import bitcost
from repro.engine.base import StarProtocol
from repro.engine.exchange import star_exchange_item_supports
from repro.engine.l1 import shard_column_sums
from repro.engine.lp_norm import check_inner_dims, total_rows_of
from repro.engine.runtime import Runtime
from repro.engine.topology import Coordinator, Site
from repro.sketch.kernels import count_alive_levels

__all__ = [
    "StarGeneralMatrixLinfProtocol",
    "StarKappaApproxLinfProtocol",
    "StarTwoPlusEpsilonLinfProtocol",
]


def _require_binary(matrix: np.ndarray, who: str) -> np.ndarray:
    matrix = np.asarray(matrix)
    if not np.all((matrix == 0) | (matrix == 1)):
        raise ValueError(f"{who}'s matrix must be binary for this protocol")
    return matrix.astype(np.int64)


def _pair_column_sums(
    shard: np.ndarray, shard_prime: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Column sums of one shard and its universe-sampled companion."""
    return shard_column_sums(shard), shard_column_sums(shard_prime)


def _blocked_sketch_task(sketch_block: np.ndarray, shard: np.ndarray) -> np.ndarray:
    """One site's partial image of the shared block-diagonal sign sketch."""
    return sketch_block @ shard.astype(float)


def _universe_mask_rng(sites: list[Site], shared_rng: np.random.Generator):
    """The stream that draws item-sampling masks all sites must agree on.

    With one site no coordination is needed, so the mask stays on the
    site's private coins (matching the two-party protocols, where Alice
    samples privately); with several sites it must be a public coin.
    """
    return sites[0].rng if len(sites) == 1 else shared_rng


class _NestedSampler:
    """Nested subsamples of the 1-entries of one shard at geometric rates.

    A single uniform priority per 1-entry makes the levels nested (level
    ``l`` keeps an entry iff its priority is below ``keep_rates[l]``), the
    coupling the paper's between-level Chernoff argument relies on.  Levels
    are materialised lazily: only the selected level's matrix is built.
    """

    def __init__(self, a: np.ndarray, keep_rates: np.ndarray, rng: np.random.Generator) -> None:
        self.ones = a != 0
        self.keep_rates = np.asarray(keep_rates, dtype=float)
        self.priorities = rng.uniform(size=a.shape)

    def column_sums(self) -> np.ndarray:
        """Column sums of every level matrix, shape ``(levels, n_items)``.

        The rates never increase, so a 1-entry counts towards levels
        ``0..c-1``, where ``c`` is its alive-level count
        (:func:`~repro.sketch.kernels.count_alive_levels` makes the same
        ``priority < rate`` comparisons).  One ``np.bincount`` over
        (count, column) cells and a cumulative sum over the counts from the
        top give every level at once, as a C-contiguous int64 array.
        """
        levels, n_items = self.keep_rates.shape[0], self.ones.shape[1]
        columns = np.nonzero(self.ones)[1]
        counts = count_alive_levels(self.priorities[self.ones], self.keep_rates)
        cells = np.bincount(counts * n_items + columns, minlength=(levels + 1) * n_items)
        at_least = np.cumsum(cells.reshape(levels + 1, n_items)[::-1], axis=0)[::-1]
        return np.ascontiguousarray(at_least[1:])

    def level_matrix(self, level: int) -> np.ndarray:
        """Materialise the binary matrix of one level."""
        rate = self.keep_rates[level]
        return (self.ones & (self.priorities < rate)).astype(np.int64)


def _nested_sampler_task(
    rng: np.random.Generator, shard: np.ndarray, keep_rates: np.ndarray
) -> tuple[tuple[_NestedSampler, np.ndarray], np.random.Generator]:
    """One site's down-scaling fan-out: nested sampler + level column sums.

    Priorities come from the site's private ``rng`` (returned advanced per
    the runtime contract); the sampler itself is returned so the selected
    level's matrix can be materialised later.
    """
    sampler = _NestedSampler(shard, keep_rates, rng)
    return (sampler, sampler.column_sums()), rng


def _build_samplers(
    runtime: Runtime,
    sites: list[Site],
    shards: list[np.ndarray],
    keep_rates: np.ndarray,
) -> tuple[list[_NestedSampler], list[np.ndarray]]:
    """Fan the nested subsampling out over the sites (private coins each)."""
    outcomes = runtime.map_sites(
        _nested_sampler_task, sites, [(shard, keep_rates) for shard in shards]
    )
    samplers = [sampler for sampler, _ in outcomes]
    stacks = [stack for _, stack in outcomes]
    return samplers, stacks


def _select_level(
    coordinator: Coordinator,
    sites: list[Site],
    stacks: list[np.ndarray],
    shards: list[np.ndarray],
    b: np.ndarray,
    threshold: float,
    *,
    label_prefix: str,
) -> tuple[int, np.ndarray]:
    """Rounds 1-2 of the skeleton: pick the first level with small l1 mass.

    Every site sends the column sums of its shard's level matrices (Remark 2
    applied per level, precomputed in the fan-out phase); the coordinator
    merges them, computes ``||A^l B||_1`` for each level, picks the first
    ``l*`` at or below ``threshold`` and broadcasts it.  Returns
    ``(l*, masses)``.
    """
    for site, stack, shard in zip(sites, stacks, shards):
        n_rows = int(shard.shape[0])
        bits = stack.size * bitcost.bits_for_index(max(n_rows + 1, 2))
        site.send(stack, label=f"{label_prefix}level-column-sums", bits=bits)

    row_sums = b.sum(axis=1).astype(float)
    masses = np.sum(stacks, axis=0).astype(float) @ row_sums
    below = np.flatnonzero(masses <= threshold)
    l_star = int(below[0]) if below.size else len(masses) - 1
    coordinator.broadcast(
        l_star,
        label=f"{label_prefix}level-choice",
        bits=bitcost.bits_for_index(max(len(masses), 2)),
        sites=sites,
    )
    return l_star, masses


def _split_and_take_max(
    coordinator: Coordinator,
    sites: list[Site],
    level_matrices: list[np.ndarray],
    site_counts: list[np.ndarray],
    b: np.ndarray,
    *,
    label_prefix: str,
    runtime: Runtime | None = None,
) -> tuple[float, dict]:
    """Steps 7-14 of Algorithm 2: index exchange and the shared maximum."""
    site_shares, c_coord, info = star_exchange_item_supports(
        coordinator,
        sites,
        level_matrices,
        b,
        site_counts=site_counts,
        label_prefix=label_prefix,
        send_u_counts=False,
        runtime=runtime,
    )
    shared_max = float(c_coord.max()) if c_coord.size else 0.0
    for site, share in zip(sites, site_shares):
        site_max = float(share.max()) if share.size else 0.0
        site.send(
            site_max, label=f"{label_prefix}site-share-max", bits=bitcost.FLOAT_BITS
        )
        shared_max = max(shared_max, site_max)
    return shared_max, info


class StarTwoPlusEpsilonLinfProtocol(StarProtocol):
    """Algorithm 2: ``(2 + eps)``-approximation of ``||A B||_inf`` (binary).

    Parameters
    ----------
    epsilon:
        Approximation slack; the output is within a ``(2 + eps)`` factor of
        ``||A B||_inf`` with the protocol's success probability.
    gamma_constant:
        The threshold is ``gamma = gamma_constant * log(n) / eps^2`` (the
        paper uses ``10^4``; the default is laptop-scale).  When
        ``gamma * n^2 >= ||A B||_1`` no down-scaling happens and the protocol
        is exact up to the share-wise split.
    gamma:
        Explicit threshold override (takes precedence over
        ``gamma_constant``).
    """

    name = "linf-binary-2plus-eps"

    def __init__(
        self,
        epsilon: float = 0.25,
        *,
        gamma_constant: float = 100.0,
        gamma: float | None = None,
        seed: int | None = None,
    ) -> None:
        super().__init__(seed=seed)
        if not 0 < epsilon <= 1:
            raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
        self.epsilon = float(epsilon)
        self.gamma_constant = float(gamma_constant)
        self.gamma = gamma

    def _execute(self, coordinator: Coordinator, sites: list[Site]):
        shards = [_require_binary(site.data, site.name) for site in sites]
        b = _require_binary(coordinator.data, "the coordinator")
        check_inner_dims(sites, b)
        total_rows = total_rows_of(sites)
        n = max(total_rows, b.shape[0], b.shape[1])

        ones_in_a = int(sum(int(shard.sum()) for shard in shards))
        if ones_in_a == 0 or int(b.sum()) == 0:
            for site in sites:
                site.send(0, label="empty", bits=1)
            return 0.0, {"level": 0, "keep_rate": 1.0}

        gamma = (
            self.gamma
            if self.gamma is not None
            else self.gamma_constant * math.log(max(n, 2)) / self.epsilon**2
        )
        threshold = gamma * total_rows * b.shape[1]

        num_levels = int(math.ceil(math.log(max(ones_in_a, 2)) / math.log1p(self.epsilon))) + 1
        keep_rates = (1.0 + self.epsilon) ** (-np.arange(num_levels))
        samplers, stacks = _build_samplers(self.runtime, sites, shards, keep_rates)

        l_star, masses = _select_level(
            coordinator, sites, stacks, shards, b, threshold, label_prefix="alg2/"
        )
        keep_rate = float(keep_rates[l_star])

        shared_max, info = _split_and_take_max(
            coordinator,
            sites,
            [sampler.level_matrix(l_star) for sampler in samplers],
            [stack[l_star] for stack in stacks],
            b,
            label_prefix="alg2/",
            runtime=self.runtime,
        )
        estimate = shared_max / keep_rate
        details = {
            "level": l_star,
            "keep_rate": keep_rate,
            "level_l1_mass": float(masses[l_star]),
            "threshold": threshold,
            "exchanged_indices": info["exchanged_indices"],
        }
        return estimate, details


class StarKappaApproxLinfProtocol(StarProtocol):
    """Algorithm 3: ``kappa``-approximation of ``||A B||_inf`` (binary).

    Parameters
    ----------
    kappa:
        Target approximation factor (the paper analyses ``kappa in [4, n]``).
    alpha_constant:
        ``alpha = alpha_constant * log(n)``; both the universe-sampling rate
        ``q = min(alpha/kappa, 1)`` and the level threshold
        ``alpha * n^2 / kappa`` use it.  The paper's constant is ``10^4``.
    """

    name = "linf-binary-kappa"

    def __init__(
        self,
        kappa: float,
        *,
        alpha_constant: float = 32.0,
        seed: int | None = None,
    ) -> None:
        super().__init__(seed=seed)
        if kappa < 1:
            raise ValueError(f"kappa must be >= 1, got {kappa}")
        self.kappa = float(kappa)
        self.alpha_constant = float(alpha_constant)

    def _execute(self, coordinator: Coordinator, sites: list[Site]):
        shards = [_require_binary(site.data, site.name) for site in sites]
        b = _require_binary(coordinator.data, "the coordinator")
        check_inner_dims(sites, b)
        total_rows = total_rows_of(sites)
        n_items = b.shape[0]
        n = max(total_rows, n_items, b.shape[1])

        alpha = self.alpha_constant * math.log(max(n, 2))
        q = min(alpha / self.kappa, 1.0)

        # Universe sampling: keep each shared item (column of A) with prob q.
        kept_items = _universe_mask_rng(sites, self.shared_rng).uniform(size=n_items) < q
        primed = []
        for shard in shards:
            shard_prime = shard.copy()
            shard_prime[:, ~kept_items] = 0
            primed.append(shard_prime)

        # Remark 2 on both A and A': every site ships both column-sum vectors
        # (sums fan out; sends and merges stay serial in site order).
        both_sums = self.runtime.map(
            _pair_column_sums,
            [(shard, shard_prime) for shard, shard_prime in zip(shards, primed)],
        )
        merged_a = np.zeros(n_items, dtype=np.int64)
        merged_a_prime = np.zeros(n_items, dtype=np.int64)
        for site, shard, (column_sums, column_sums_prime) in zip(
            sites, shards, both_sums
        ):
            bits = 2 * n_items * bitcost.bits_for_index(max(int(shard.shape[0]) + 1, 2))
            site.send(
                {"A": column_sums, "A_prime": column_sums_prime},
                label="alg3/column-sums",
                bits=bits,
            )
            merged_a += column_sums
            merged_a_prime += column_sums_prime
        row_sums = b.sum(axis=1).astype(float)
        c_l1 = float(merged_a.astype(float) @ row_sums)
        d_l1 = float(merged_a_prime.astype(float) @ row_sums)

        if d_l1 == 0:
            value = 0.0 if c_l1 == 0 else 1.0
            coordinator.broadcast(
                value,
                label="alg3/degenerate-output",
                bits=bitcost.FLOAT_BITS,
                sites=sites,
            )
            return value, {"universe_keep_rate": q, "degenerate": True}

        ones_in_a_prime = max(int(sum(int(s.sum()) for s in primed)), 2)
        num_levels = int(math.ceil(math.log2(ones_in_a_prime))) + 1
        keep_rates = 2.0 ** (-np.arange(num_levels))
        samplers, stacks = _build_samplers(self.runtime, sites, primed, keep_rates)
        threshold = alpha * total_rows * b.shape[1] / self.kappa

        l_star, masses = _select_level(
            coordinator, sites, stacks, primed, b, threshold, label_prefix="alg3/"
        )
        keep_rate = float(keep_rates[l_star])

        shared_max, info = _split_and_take_max(
            coordinator,
            sites,
            [sampler.level_matrix(l_star) for sampler in samplers],
            [stack[l_star] for stack in stacks],
            b,
            label_prefix="alg3/",
            runtime=self.runtime,
        )
        estimate = shared_max / (q * keep_rate)
        if estimate == 0.0 and c_l1 > 0:
            # All surviving mass vanished after subsampling; the paper's
            # fallback is to output 1, which is a valid kappa-approximation
            # because event E5 bounds every entry by kappa/4 in this case.
            estimate = 1.0
        details = {
            "universe_keep_rate": q,
            "level": l_star,
            "keep_rate": keep_rate,
            "level_l1_mass": float(masses[l_star]),
            "threshold": threshold,
            "exchanged_indices": info["exchanged_indices"],
        }
        return estimate, details


class StarGeneralMatrixLinfProtocol(StarProtocol):
    """Theorem 4.8(1): one-round ``kappa``-approximation of ``||A B||_inf``
    for general integer matrices.

    The upper bound is a classic ``l_inf``-via-``l_2`` block sketch
    (Saks–Sun [33]): partition the coordinates of a column of ``C`` into
    blocks of size ``kappa^2``, AMS-sketch each block with ``O(1)`` rows,
    and output the largest block-``l_2`` estimate; since
    ``||y||_inf <= ||y||_2 <= kappa ||y||_inf`` for a block of size
    ``kappa^2`` this is a ``kappa``-approximation up to the AMS error.

    The sketch is linear over the global rows, so every site ships the
    partial image of its shard (``O~(n^2/kappa^2)`` entries) and the
    coordinator merges them entrywise before finishing locally.

    Parameters
    ----------
    kappa:
        Target approximation factor (``1 <= kappa <= n``); the block size is
        ``kappa^2``.
    rows_per_block:
        AMS rows per block; more rows tighten the constant-factor ``l_2``
        estimation error.
    """

    name = "linf-general-blocked-ams"

    def __init__(
        self,
        kappa: float,
        *,
        rows_per_block: int = 24,
        seed: int | None = None,
    ) -> None:
        super().__init__(seed=seed)
        if kappa < 1:
            raise ValueError(f"kappa must be >= 1, got {kappa}")
        if rows_per_block < 1:
            raise ValueError("rows_per_block must be >= 1")
        self.kappa = float(kappa)
        self.rows_per_block = int(rows_per_block)

    def _execute(self, coordinator: Coordinator, sites: list[Site]):
        b = np.asarray(coordinator.data, dtype=np.int64)
        check_inner_dims(sites, b)
        total_rows = total_rows_of(sites)

        block_size = max(1, min(total_rows, int(math.floor(self.kappa**2))))
        num_blocks = int(math.ceil(total_rows / block_size))

        # Block-diagonal sign sketch over the global rows of C (shared
        # randomness, so every endpoint derives the same matrix).
        sketch = np.zeros((num_blocks * self.rows_per_block, total_rows))
        block_of_row = np.arange(total_rows) // block_size
        signs = self.shared_rng.choice(
            np.array([-1.0, 1.0]), size=(num_blocks * self.rows_per_block, total_rows)
        )
        for block in range(num_blocks):
            members = block_of_row == block
            rows = slice(block * self.rows_per_block, (block + 1) * self.rows_per_block)
            sketch[rows, members] = signs[rows, members]

        # Round 1 (the only round): per-site partial images of S A.  Each
        # site gets only its column block of the shared sketch (fan-out);
        # sends and the entrywise merge stay serial in site order.
        partials = self.runtime.map(
            _blocked_sketch_task,
            [
                (sketch[:, site.rows], np.asarray(site.data, dtype=np.int64))
                for site in sites
            ],
        )
        sketched_a = None
        for site, partial in zip(sites, partials):
            site.send(
                partial,
                label="sketch-of-A",
                bits=bitcost.bits_for_matrix(partial),
            )
            sketched_a = partial if sketched_a is None else sketched_a + partial

        sketched_c = sketched_a @ b.astype(float)  # (num_blocks * rows, n_cols)
        per_block = sketched_c.reshape(num_blocks, self.rows_per_block, -1)
        block_l2_estimates = np.sqrt(np.mean(per_block**2, axis=1))  # (num_blocks, n_cols)
        estimate = float(block_l2_estimates.max()) if block_l2_estimates.size else 0.0
        details = {
            "block_size": block_size,
            "num_blocks": num_blocks,
            "sketch_rows": int(sketch.shape[0]),
        }
        return estimate, details
