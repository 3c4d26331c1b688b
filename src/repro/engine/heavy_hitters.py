"""Algorithm 4 / Corollary 5.2 / Theorem 5.3, k sites: heavy hitters of ``A B``.

The goal is a set ``S`` with ``HH^p_phi(C) ⊆ S ⊆ HH^p_{phi-eps}(C)`` where
``HH^p_phi(C) = {(i,j) : |C_ij|^p >= phi ||C||_p^p}``.

Two families, both with every Alice-side quantity replaced by a mergeable
per-site summary (so the two-party protocols are the ``k = 1`` case):

* :class:`StarHeavyHittersProtocol` — general non-negative integer
  matrices, ``O~((sqrt(phi)/eps) n)`` bits, ``O(1)`` rounds:

  1. Everyone learns ``T ~= ||C||_p^p`` — per-site column sums merged at
     the coordinator for ``p = 1`` (Remark 2), the k-site Algorithm 1 at
     accuracy ``eps/(4 phi)`` otherwise — and the coordinator broadcasts
     ``T`` back.
  2. Every site samples its shard's entries with the paper's rate ``beta``,
     scaling ``C`` down to ``C^beta`` while keeping heavy entries
     detectable.
  3. Star sparse-product exchange (Lemma 2.5 substitute): sites upload
     per-column non-zero counts (merged into the global ``u``); for each
     shared item the cheaper side ships — the coordinator sends its
     ``B``-rows to the sites that need them, sites ship their column lists
     upstream.
  4. Sites forward their shares' significant entries; the coordinator
     thresholds ``C' = C'_sites + C_coord`` and reports survivors.

* :class:`StarBinaryHeavyHittersProtocol` — binary matrices (database
  joins), ``O~(n + phi/eps^2)`` bits via the ``l_inf`` machinery:
  universe sampling, the per-item index exchange, candidate generation
  from every share, and verification by a shared random subset of
  coordinates.
"""

from __future__ import annotations

import math

import numpy as np

from repro.comm import bitcost
from repro.core.result import HeavyHitterOutput
from repro.engine.base import StarProtocol
from repro.engine.exchange import star_exchange_item_supports
from repro.engine.l1 import shard_column_sums
from repro.engine.linf import _universe_mask_rng
from repro.engine.lp_norm import check_inner_dims, star_lp_pp_estimate, total_rows_of
from repro.engine.topology import Coordinator, Site
from repro.sketch.kernels import exact_matmul

__all__ = [
    "StarBinaryHeavyHittersProtocol",
    "StarHeavyHittersProtocol",
    "entry_sampling_rate",
    "forward_threshold",
    "report_heavy_entries",
]


def entry_sampling_rate(
    phi: float, epsilon: float, p: float, *, beta_constant: float, n: int, total_pp: float
) -> float:
    """Step 2's down-sampling rate ``beta`` (one definition for every k)."""
    heavy_value = ((phi / 8.0) * total_pp) ** (1.0 / p)
    return min(
        beta_constant
        * math.log(max(n, 2))
        / ((epsilon / phi) ** 2 * max(heavy_value, 1e-12)),
        1.0,
    )


def forward_threshold(
    phi: float, epsilon: float, p: float, beta: float, total_pp: float
) -> float:
    """Step 4's threshold for forwarding locally significant entries."""
    if p == 1.0:
        # Faithful Algorithm 4 threshold for the forwarded entries.
        return epsilon * beta * total_pp / 8.0
    return beta * ((max(phi - epsilon, 0.0)) * total_pp) ** (1.0 / p) / 2.0


def _beta_shard_task(
    rng: np.random.Generator, shard: np.ndarray, beta: float
) -> tuple[np.ndarray, np.random.Generator]:
    """Step 2 fan-out: down-sample one shard's entries at rate ``beta``.

    Draws from the site's private ``rng`` (returned advanced per the
    runtime contract).
    """
    keep = rng.uniform(size=shard.shape) < beta
    return np.where((shard != 0) & keep, shard, 0).astype(np.int64), rng


def _nonzero_counts_task(beta_shard: np.ndarray) -> np.ndarray:
    """Step 3 fan-out: one site's per-column non-zero counts (mergeable)."""
    return np.count_nonzero(beta_shard, axis=0)


def _site_share_task(
    beta_shard: np.ndarray,
    b: np.ndarray,
    ship_mask: np.ndarray,
    coord_ships: np.ndarray,
    row_offset: int,
    total_rows: int,
    value_bits: int,
    report_threshold: float,
    n: int,
) -> tuple[np.ndarray, int, np.ndarray, int, dict, int]:
    """Steps 3-4 fan-out: one site's exchange lists, shares and heavy entries.

    Returns ``(shipped item indices, ship_bits, coordinator-share block,
    site-share non-zeros, heavy entries with global row indices,
    entry_bits)`` so the serial phase only sends and accumulates — the
    shipped-item list and its bit charge come from the same mask, so they
    cannot drift apart.
    """
    ship_items = np.flatnonzero(ship_mask)
    shipped = beta_shard[:, ship_mask]
    ship_bits = int(np.count_nonzero(shipped)) * (
        bitcost.bits_for_index(max(total_rows, 1)) + value_bits
    )
    coord_block = exact_matmul(shipped, b[ship_mask, :])

    c_site = exact_matmul(beta_shard[:, coord_ships], b[coord_ships, :])
    heavy_site = {
        (int(i) + row_offset, int(j)): int(c_site[i, j])
        for i, j in zip(*np.nonzero(c_site > report_threshold))
    }
    entry_bits = bitcost.bits_for_int(len(heavy_site)) + len(heavy_site) * (
        2 * bitcost.bits_for_index(max(n, 2)) + bitcost.INT_ENTRY_BITS
    )
    return (
        ship_items,
        ship_bits,
        coord_block,
        int(np.count_nonzero(c_site)),
        heavy_site,
        entry_bits,
    )


def _candidate_task(
    share: np.ndarray, row_offset: int, p: float, threshold: float
) -> list[tuple[int, int]]:
    """Binary-protocol step 3 fan-out: one site's candidate entries."""
    return sorted(
        (int(i) + row_offset, int(j))
        for i, j in zip(*np.nonzero(share.astype(float) ** p >= threshold))
    )


def report_heavy_entries(
    c_prime: np.ndarray, *, phi: float, epsilon: float, p: float, beta: float, total_pp: float
) -> tuple[HeavyHitterOutput, float]:
    """Final thresholding of ``C'``: the reported pairs with rescaled estimates."""
    if p == 1.0:
        output_threshold = beta * (phi - epsilon / 2.0) * total_pp
    else:
        output_threshold = beta * ((phi - epsilon / 2.0) * total_pp) ** (1.0 / p)
    pairs = set()
    estimates: dict[tuple[int, int], float] = {}
    for i, j in zip(*np.nonzero(c_prime >= output_threshold)):
        pair = (int(i), int(j))
        pairs.add(pair)
        estimates[pair] = float(c_prime[i, j] / beta)
    return HeavyHitterOutput(pairs=pairs, estimates=estimates), output_threshold


class StarHeavyHittersProtocol(StarProtocol):
    """``l_p``-(phi, eps) heavy hitters of ``A B`` (non-negative integers).

    Parameters
    ----------
    phi:
        Heaviness threshold (``0 < eps <= phi <= 1``).
    epsilon:
        Slack of the output set (entries between ``phi - eps`` and ``phi``
        may or may not be reported).
    p:
        Norm parameter in ``(0, 2]``; ``p = 1`` is the faithful Algorithm 4,
        other values follow Corollary 5.2.
    beta_constant:
        Constant in the sampling rate (the paper's ``10^4 log n``).
    """

    name = "heavy-hitters-general"

    def __init__(
        self,
        phi: float,
        epsilon: float,
        *,
        p: float = 1.0,
        beta_constant: float = 64.0,
        rho_constant: float = 48.0,
        seed: int | None = None,
    ) -> None:
        super().__init__(seed=seed)
        if not 0 < epsilon <= phi <= 1:
            raise ValueError(f"need 0 < eps <= phi <= 1, got eps={epsilon}, phi={phi}")
        if not 0 < p <= 2:
            raise ValueError(f"p must be in (0, 2], got {p}")
        self.phi = float(phi)
        self.epsilon = float(epsilon)
        self.p = float(p)
        self.beta_constant = float(beta_constant)
        self.rho_constant = float(rho_constant)

    # ----------------------------------------------------------------- run
    def _execute(self, coordinator: Coordinator, sites: list[Site]):
        b = np.asarray(coordinator.data, dtype=np.int64)
        shards = [np.asarray(site.data, dtype=np.int64) for site in sites]
        if np.any(b < 0) or any(np.any(shard < 0) for shard in shards):
            raise ValueError("heavy-hitter protocol requires non-negative matrices")
        check_inner_dims(sites, b)
        total_rows = total_rows_of(sites)
        n_items = b.shape[0]
        n = max(total_rows, n_items, b.shape[1])

        # --- Step 1: everyone learns T ~ ||C||_p^p --------------------------
        total_pp = self._estimate_total_pp(coordinator, sites, shards, b)
        if total_pp <= 0:
            return HeavyHitterOutput(), {"total_pp": 0.0, "beta": 1.0}
        coordinator.broadcast(
            total_pp, label="hh/total-norm", bits=bitcost.FLOAT_BITS, sites=sites
        )

        # --- Step 2: sites scale C down by entry sampling (fan-out) ---------
        beta = entry_sampling_rate(
            self.phi, self.epsilon, self.p,
            beta_constant=self.beta_constant, n=n, total_pp=total_pp,
        )
        beta_shards = self.runtime.map_sites(
            _beta_shard_task, sites, [(shard, beta) for shard in shards]
        )

        # --- Step 3: star sparse-product exchange ---------------------------
        values_are_binary = bool(
            all(np.all((s == 0) | (s == 1)) for s in beta_shards)
            and np.all((b == 0) | (b == 1))
        )
        value_bits = 0 if values_are_binary else bitcost.INT_ENTRY_BITS

        # Upstream: per-site per-column non-zero counts (mergeable; counts
        # fan out, sends stay serial in site order).
        site_counts = self.runtime.map(
            _nonzero_counts_task, [(beta_shard,) for beta_shard in beta_shards]
        )
        for site, beta_shard, u_site in zip(sites, beta_shards, site_counts):
            site.send(
                u_site,
                label="hh/sparse-product-counts",
                bits=n_items * bitcost.bits_for_index(max(beta_shard.shape[0] + 1, 2)),
            )
        u = np.sum(site_counts, axis=0)
        v = np.count_nonzero(b, axis=1)

        # Ownership: for each active item the cheaper side ships its lists.
        active = (u > 0) & (v > 0)
        coord_ships = active & (v < u)
        site_ships = active & (v >= u)

        # Downstream: B-rows for coordinator-shipped items, to the sites
        # whose shards touch them, plus each site's shipping instructions
        # (an n_items-bit bitmap).
        b_entry_bits = bitcost.bits_for_index(max(b.shape[1], 1)) + value_bits
        for site, u_site in zip(sites, site_counts):
            needed = coord_ships & (u_site > 0)
            coordinator.send(
                site,
                {"ship_items": np.flatnonzero(site_ships & (u_site > 0)), "b_rows": needed},
                label="hh/coordinator-lists",
                bits=n_items + int(v[needed].sum()) * b_entry_bits,
            )

        # Upstream: sites ship their column lists and, in the same round,
        # the significant entries of their shares of C^beta.
        report_threshold = forward_threshold(
            self.phi, self.epsilon, self.p, beta, total_pp
        )

        # Fan-out: per-site exchange lists, both shares' accumulation, and
        # the locally significant entries; the serial phase sends in site
        # order and assembles the coordinator's view.
        share_outcomes = self.runtime.map(
            _site_share_task,
            [
                (
                    beta_shard,
                    b,
                    site_ships & (u_site > 0),
                    coord_ships,
                    site.row_offset,
                    total_rows,
                    value_bits,
                    report_threshold,
                    n,
                )
                for site, u_site, beta_shard in zip(sites, site_counts, beta_shards)
            ],
        )
        heavy_site_entries: dict[tuple[int, int], int] = {}
        site_share_nonzeros = 0
        c_coord = np.zeros((total_rows, b.shape[1]), dtype=np.int64)
        for site, beta_shard, outcome in zip(sites, beta_shards, share_outcomes):
            ship_items, ship_bits, coord_block, share_nonzeros, heavy_site, entry_bits = (
                outcome
            )
            site.send(
                {"items": ship_items},
                label="hh/site-lists",
                bits=ship_bits,
            )
            # The coordinator owns the products of shipped items.
            rows = slice(site.row_offset, site.row_offset + beta_shard.shape[0])
            c_coord[rows] = coord_block

            # The site owns the products of coordinator-shipped items; it
            # forwards the significant entries of its share (same round).
            site_share_nonzeros += share_nonzeros
            site.send(heavy_site, label="hh/site-heavy-entries", bits=entry_bits)
            heavy_site_entries.update(heavy_site)

        # --- Step 4: coordinator thresholds C' = C_coord + forwarded --------
        c_prime = c_coord.astype(float)
        for (i, j), value in heavy_site_entries.items():
            c_prime[i, j] += value

        output, output_threshold = report_heavy_entries(
            c_prime,
            phi=self.phi, epsilon=self.epsilon, p=self.p, beta=beta, total_pp=total_pp,
        )
        details = {
            "total_pp": total_pp,
            "beta": beta,
            # Nonzeros of C^beta across all recovered shares (the historical
            # two-party count_nonzero(c_alice) + count_nonzero(c_bob)).
            "scaled_nonzeros": int(np.count_nonzero(c_coord)) + site_share_nonzeros,
            "output_threshold": output_threshold,
        }
        return output, details

    # ------------------------------------------------------------ internals
    def _estimate_total_pp(
        self,
        coordinator: Coordinator,
        sites: list[Site],
        shards: list[np.ndarray],
        b: np.ndarray,
    ) -> float:
        """Step 1: ``||C||_p^p`` — merged column sums (Remark 2) for p = 1,
        the k-site Algorithm 1 otherwise."""
        if self.p == 1.0:
            site_sums = self.runtime.map(
                shard_column_sums, [(shard,) for shard in shards]
            )
            merged = np.zeros(b.shape[0], dtype=np.int64)
            for site, column_sums in zip(sites, site_sums):
                bits = column_sums.shape[0] * bitcost.bits_for_int(
                    int(max(column_sums.max(initial=0), 1))
                )
                site.send(column_sums, label="hh/column-sums", bits=bits)
                merged += column_sums
            return float(merged.astype(float) @ b.sum(axis=1).astype(float))
        accuracy = min(0.5, self.epsilon / (4.0 * self.phi))
        estimate, _ = star_lp_pp_estimate(
            coordinator,
            sites,
            p=self.p,
            epsilon=accuracy,
            rho_constant=self.rho_constant,
            shared_rng=self.shared_rng,
            label_prefix="hh/",
            runtime=self.runtime,
        )
        return float(estimate)


class StarBinaryHeavyHittersProtocol(StarProtocol):
    """Heavy hitters of ``A B`` for binary matrices (Theorem 5.3).

    Parameters
    ----------
    phi, epsilon:
        Heaviness threshold and slack, ``0 < eps <= phi <= 1``.
    p:
        Norm parameter in ``(0, 2]``.
    alpha_constant:
        Constant in the universe-sampling rate (paper: ``10^4 log n``).
    verify_constant:
        Constant in the per-candidate verification sample size
        ``t = verify_constant * (phi/eps)^2 * log n`` (capped at ``n``).
    """

    name = "heavy-hitters-binary"

    def __init__(
        self,
        phi: float,
        epsilon: float,
        *,
        p: float = 1.0,
        alpha_constant: float = 32.0,
        verify_constant: float = 16.0,
        rho_constant: float = 48.0,
        seed: int | None = None,
    ) -> None:
        super().__init__(seed=seed)
        if not 0 < epsilon <= phi <= 1:
            raise ValueError(f"need 0 < eps <= phi <= 1, got eps={epsilon}, phi={phi}")
        if not 0 < p <= 2:
            raise ValueError(f"p must be in (0, 2], got {p}")
        self.phi = float(phi)
        self.epsilon = float(epsilon)
        self.p = float(p)
        self.alpha_constant = float(alpha_constant)
        self.verify_constant = float(verify_constant)
        self.rho_constant = float(rho_constant)

    # ----------------------------------------------------------------- run
    def _execute(self, coordinator: Coordinator, sites: list[Site]):
        shards = []
        for site in sites:
            shard = np.asarray(site.data)
            if not np.all((shard == 0) | (shard == 1)):
                raise ValueError("binary heavy-hitter protocol requires 0/1 matrices")
            shards.append(shard.astype(np.int64))
        b = np.asarray(coordinator.data)
        if not np.all((b == 0) | (b == 1)):
            raise ValueError("binary heavy-hitter protocol requires 0/1 matrices")
        b = b.astype(np.int64)
        check_inner_dims(sites, b)
        total_rows = total_rows_of(sites)
        n_items = b.shape[0]
        n = max(total_rows, n_items, b.shape[1])

        # --- Step 1: estimate T = ||C||_p^p ---------------------------------
        accuracy = min(0.5, self.epsilon / (4.0 * self.phi))
        total_pp, _ = star_lp_pp_estimate(
            coordinator,
            sites,
            p=self.p,
            epsilon=accuracy,
            rho_constant=self.rho_constant,
            shared_rng=self.shared_rng,
            label_prefix="hhb/",
            runtime=self.runtime,
        )
        if total_pp <= 0:
            return HeavyHitterOutput(), {"total_pp": 0.0, "beta": 1.0}
        coordinator.broadcast(
            total_pp, label="hhb/total-norm", bits=bitcost.FLOAT_BITS, sites=sites
        )
        lp_norm_estimate = total_pp ** (1.0 / self.p)

        # --- Step 2: universe sampling + index exchange ---------------------
        alpha = (self.alpha_constant * math.log(max(n, 2))) ** (1.0 / self.p)
        beta = min(alpha / (self.phi ** (1.0 / self.p) * lp_norm_estimate), 1.0)
        kept_items = (
            _universe_mask_rng(sites, self.shared_rng).uniform(size=n_items) < beta
        )
        primed = []
        for shard in shards:
            shard_prime = shard.copy()
            shard_prime[:, ~kept_items] = 0
            primed.append(shard_prime)

        site_shares, c_coord, exchange_info = star_exchange_item_supports(
            coordinator,
            sites,
            primed,
            b,
            label_prefix="hhb/",
            send_u_counts=True,
            runtime=self.runtime,
        )

        # --- Step 3: candidate generation (fan-out; serial sends) -----------
        candidate_threshold = (beta**self.p) * self.phi * total_pp / 20.0
        site_candidates = self.runtime.map(
            _candidate_task,
            [
                (share, site.row_offset, self.p, candidate_threshold)
                for site, share in zip(sites, site_shares)
            ],
        )
        candidates: set[tuple[int, int]] = set()
        for site, local in zip(sites, site_candidates):
            site.send(
                local,
                label="hhb/site-candidates",
                bits=bitcost.bits_for_int(len(local))
                + len(local) * 2 * bitcost.bits_for_index(max(n, 2)),
            )
            candidates |= set(local)
        candidates |= {
            (int(i), int(j))
            for i, j in zip(
                *np.nonzero(c_coord.astype(float) ** self.p >= candidate_threshold)
            )
        }
        candidates = sorted(candidates)

        # --- Step 4: verification by shared coordinate sampling -------------
        sample_size = int(
            min(
                n_items,
                max(8, math.ceil(self.verify_constant * (self.phi / self.epsilon) ** 2
                                 * math.log(max(n, 2)))),
            )
        )
        sample_coords = self.shared_rng.choice(n_items, size=sample_size, replace=False)
        scale = n_items / sample_size

        candidate_rows = sorted({i for i, _ in candidates})
        rows_payload: dict[int, np.ndarray] = {}
        for site, shard in zip(sites, shards):
            local_rows = [
                i
                for i in candidate_rows
                if site.row_offset <= i < site.row_offset + shard.shape[0]
            ]
            payload = {i: shard[i - site.row_offset, sample_coords] for i in local_rows}
            site.send(
                payload,
                label="hhb/candidate-row-samples",
                bits=len(local_rows) * (sample_size + bitcost.bits_for_index(max(n, 2))),
            )
            rows_payload.update(payload)

        output_threshold = (self.phi - self.epsilon / 2.0) * total_pp
        pairs = set()
        estimates: dict[tuple[int, int], float] = {}
        for i, j in candidates:
            overlap = float(np.dot(rows_payload[i], b[sample_coords, j]))
            estimate = overlap * scale if sample_size < n_items else overlap
            if estimate**self.p >= output_threshold:
                pairs.add((i, j))
                estimates[(i, j)] = estimate
        output = HeavyHitterOutput(pairs=pairs, estimates=estimates)
        details = {
            "total_pp": total_pp,
            "beta": beta,
            "candidates": len(candidates),
            "verification_sample_size": sample_size,
            "exchanged_indices": exchange_info["exchanged_indices"],
        }
        return output, details
