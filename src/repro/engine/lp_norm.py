"""Algorithm 1, k sites: two-round (1 + eps)-approximation of ``||A B||_p^p``.

Theorem 3.1 of the paper, lifted to the coordinator model.  Round 1
(downstream): the coordinator broadcasts the shared row sketch ``S B^T``
once.  Round 2 (upstream): every site group-samples its shard's rows —
stratified by shard, then by geometric norm group — and ships the sampled
rows with their inverse sampling weights.  The coordinator computes the
sampled rows of ``C`` exactly and sums the importance-weighted
contributions over all shards.  Each shard's estimate is ``(1 ± eps)`` of
its block's mass, so the sum is ``(1 ± eps)`` of ``||C||_p^p``.

With a single site this *is* the paper's two-party protocol: Bob
(coordinator) sends ``S B^T``, Alice (the site) group-samples all of ``A``,
and Bob finishes — same rounds, same per-message accounting.

Total communication ``O~(n/eps)`` per site — a ``1/eps`` factor better than
the one-round baseline of [16] (see :mod:`repro.baselines.one_round`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.comm import bitcost
from repro.engine.base import StarProtocol
from repro.engine.robust import RobustPolicy, robust_total
from repro.engine.runtime import SERIAL_RUNTIME, Runtime
from repro.engine.topology import Coordinator, Site
from repro.sketch.kernels import exact_matmul
from repro.sketch.lp_sketch import make_lp_sketch

__all__ = [
    "StarLpNormProtocol",
    "sample_block_rows",
    "star_lp_pp_estimate",
    "weighted_block_pp",
]


def _assign_groups(row_estimates: np.ndarray, beta: float) -> np.ndarray:
    """Geometric grouping of rows by estimated norm.

    Group ``l`` holds rows with estimate in ``[(1+beta)^l, (1+beta)^{l+1})``;
    rows with estimate in ``(0, 1)`` share group 0 and zero rows get group -1
    (they are never sampled and contribute nothing to the sum).
    """
    group_of = np.full(row_estimates.shape, -1, dtype=np.int64)
    positive = row_estimates > 0
    log_base = math.log1p(beta)
    with np.errstate(divide="ignore"):
        raw = np.floor(np.log(row_estimates[positive]) / log_base)
    group_of[positive] = np.maximum(raw, 0).astype(np.int64)
    return group_of


def _sampling_probabilities(
    row_estimates: np.ndarray,
    group_of: np.ndarray,
    rho: float,
    total_estimate: float,
) -> np.ndarray:
    """Per-row sampling probability ``p_l`` from the paper, capped at 1."""
    probs = np.zeros(row_estimates.shape)
    for group in np.unique(group_of):
        if group < 0:
            continue
        members = group_of == group
        group_mass = float(np.sum(row_estimates[members]))
        group_size = int(np.count_nonzero(members))
        p_l = (rho / group_size) * (group_mass / total_estimate)
        probs[members] = min(1.0, p_l)
    return probs


def sample_block_rows(
    a: np.ndarray,
    row_estimates: np.ndarray,
    *,
    beta: float,
    rho: float,
    rng: np.random.Generator,
    total_rows: int,
    row_offset: int = 0,
) -> tuple[dict, int]:
    """Group-sample the rows of one block of ``A`` (Algorithm 1, round 2).

    One block is one site's shard (the whole matrix in the two-party view),
    identified by ``row_offset``, so the sampling logic and the round-2
    bit-accounting formula exist exactly once.  Returns ``(payload, bits)``;
    the payload's ``rows`` are global row indices.
    """
    block_total = float(np.sum(row_estimates))
    group_of = _assign_groups(row_estimates, beta)
    sample_probs = _sampling_probabilities(row_estimates, group_of, rho, block_total)
    sampled_mask = rng.uniform(size=a.shape[0]) < sample_probs
    sampled_rows = np.flatnonzero(sampled_mask)
    weights = 1.0 / sample_probs[sampled_rows]

    payload = {
        "rows": row_offset + sampled_rows,
        "weights": weights,
        "a_rows": a[sampled_rows],
    }
    is_binary = bool(np.all((a == 0) | (a == 1)))
    per_row_bits = a.shape[1] if is_binary else a.shape[1] * bitcost.INT_ENTRY_BITS
    bits = len(sampled_rows) * (
        per_row_bits + bitcost.bits_for_index(max(total_rows, 1)) + bitcost.FLOAT_BITS
    )
    return payload, bits


def weighted_block_pp(payload: dict, b: np.ndarray, p: float) -> float:
    """Receiver side of :func:`sample_block_rows`: exact importance-weighted
    contribution of one block's sampled rows to ``||A B||_p^p``."""
    if len(payload["rows"]) == 0:
        return 0.0
    sampled_c = exact_matmul(payload["a_rows"], b)
    if p == 0:
        row_pp = np.count_nonzero(sampled_c, axis=1).astype(float)
    else:
        row_pp = np.sum(np.abs(sampled_c.astype(float)) ** p, axis=1)
    return float(np.dot(payload["weights"], row_pp))


def total_rows_of(sites: list[Site]) -> int:
    """Number of rows of the global matrix ``A`` (all shards together)."""
    return sum(np.asarray(site.data).shape[0] for site in sites)


def check_inner_dims(sites: list[Site], b: np.ndarray) -> None:
    """Shards' common column count must match ``B``'s row count."""
    inner = np.asarray(sites[0].data).shape[1]
    if inner != b.shape[0]:
        raise ValueError(
            f"inner dimensions differ: shards have {inner} columns, "
            f"B has {b.shape[0]} rows"
        )


def _round2_site_task(
    rng: np.random.Generator,
    a: np.ndarray,
    sketch,
    sketched_bt: np.ndarray,
    beta: float,
    rho: float,
    total_rows: int,
    row_offset: int,
) -> tuple[tuple[float, dict | None, int], np.random.Generator]:
    """One site's round-2 work (fan-out phase; no network access).

    Sketch-estimates the shard's per-row masses and group-samples the rows,
    drawing only from the site's private ``rng`` (returned advanced, per the
    :meth:`repro.engine.runtime.Runtime.map_sites` contract).  Returns
    ``(site_total, payload-or-None, round2_bits)``.
    """
    a = np.asarray(a)
    c_tilde = exact_matmul(a, sketched_bt.T)
    row_estimates = np.maximum(
        np.asarray(sketch.estimate_rows_pp(c_tilde), dtype=float), 0.0
    )
    site_total = float(np.sum(row_estimates))
    if site_total <= 0:
        return (site_total, None, 0), rng
    payload, round2_bits = sample_block_rows(
        a,
        row_estimates,
        beta=beta,
        rho=rho,
        rng=rng,
        total_rows=total_rows,
        row_offset=row_offset,
    )
    return (site_total, payload, round2_bits), rng


def star_lp_pp_estimate(
    coordinator: Coordinator,
    sites: list[Site],
    *,
    p: float,
    epsilon: float,
    rho_constant: float,
    shared_rng: np.random.Generator,
    label_prefix: str = "",
    runtime: Runtime | None = None,
    faults=None,
    robust: RobustPolicy | None = None,
) -> tuple[float, dict]:
    """Run Algorithm 1 over the star; the heavy-hitter protocols reuse it as
    a subroutine on the same network, exactly as Corollary 5.2 prescribes.

    Returns ``(estimate of ||A B||_p^p, details)``.  The estimate ends up in
    the coordinator's hands (it performs the final summation), matching the
    paper's Bob.  Per-site round-2 work fans out through ``runtime``; sends
    and the coordinator's weighted summation stay serial in site order, so
    the transcript is the same wherever the site tasks ran.
    """
    runtime = runtime if runtime is not None else SERIAL_RUNTIME
    b = np.asarray(coordinator.data)
    check_inner_dims(sites, b)
    total_rows = total_rows_of(sites)

    beta = math.sqrt(epsilon)
    rho = rho_constant / epsilon

    # --- Round 1: coordinator -> all sites, the row sketch S B^T -----------
    sketch = make_lp_sketch(b.shape[1], p, beta, shared_rng)
    sketched_bt = sketch.apply(b.T)
    coordinator.broadcast(
        sketched_bt,
        label=f"{label_prefix}round1/sketch-of-B",
        bits=bitcost.bits_for_matrix(sketched_bt),
        sites=sites,
    )

    # --- Round 2: every site -> coordinator, sampled shard rows ------------
    # Fan-out: sketch estimation + group sampling per site (private coins).
    outcomes = runtime.map_sites(
        _round2_site_task,
        sites,
        [
            (site.data, sketch, sketched_bt, beta, rho, total_rows, site.row_offset)
            for site in sites
        ],
    )

    # Serial: sends in site order, coordinator accumulation in site order.
    estimate = 0.0
    rough_total = 0.0
    sampled_total = 0
    site_estimates: list[float] = []
    for site, (site_total, payload, round2_bits) in zip(sites, outcomes):
        rough_total += site_total
        if payload is None:
            site.send(0, label=f"{label_prefix}round2/empty", bits=1)
            contribution = 0.0
        else:
            site.send(
                payload, label=f"{label_prefix}round2/sampled-rows", bits=round2_bits
            )
            # Coordinator: exact norms of the sampled rows of C, weighted sum.
            contribution = weighted_block_pp(payload, b, p)
            estimate += contribution
            sampled_total += int(len(payload["rows"]))
        if faults is not None:
            contribution = float(faults.corrupt(site.name, contribution))
        site_estimates.append(contribution)

    details = {
        "sampled_rows": sampled_total,
        "beta": beta,
        "rho": rho,
        "rough_total": rough_total,
    }
    if faults is not None or robust is not None:
        # Re-aggregate the per-site additive shares through the robust
        # combiner (the plain in-order sum at f = 0), over the possibly
        # corrupted uploads.
        policy = robust if robust is not None else RobustPolicy(0)
        estimate = float(robust_total(site_estimates, policy))
        details["site_estimates"] = site_estimates
        if robust is not None:
            details["robust"] = {"f": policy.f, "strategy": policy.strategy}
        if faults is not None:
            present = {site.name for site in sites}
            details["faults"] = {
                name: kind
                for name, kind in faults.describe().items()
                if name in present
            }
    return estimate, details


class StarLpNormProtocol(StarProtocol):
    """Two-round (1 + eps)-approximation of ``||A B||_p^p``, ``p in [0, 2]``.

    Parameters
    ----------
    p:
        Norm parameter in ``[0, 2]`` (``p = 0`` counts non-zero entries).
    epsilon:
        Target relative accuracy.
    rho_constant:
        Oversampling constant: ``rho = rho_constant / epsilon`` rows are
        sampled in expectation per block.  The paper uses ``10^4``; the
        default here is laptop-scale and can be raised for tighter estimates.
    seed:
        Randomness seed (shared + private coins).
    """

    name = "lp-norm-two-round"
    renormalizes_on_dropout = True

    def __init__(
        self,
        p: float,
        epsilon: float,
        *,
        rho_constant: float = 48.0,
        seed: int | None = None,
        robust: "RobustPolicy | int | None" = None,
    ) -> None:
        super().__init__(seed=seed)
        if not 0 <= p <= 2:
            raise ValueError(f"p must be in [0, 2], got {p}")
        if not 0 < epsilon <= 1:
            raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
        if rho_constant <= 0:
            raise ValueError("rho_constant must be positive")
        self.p = float(p)
        self.epsilon = float(epsilon)
        self.rho_constant = float(rho_constant)
        self.robust = RobustPolicy.coerce(robust)

    def _execute(self, coordinator: Coordinator, sites: list[Site]):
        return star_lp_pp_estimate(
            coordinator,
            sites,
            p=self.p,
            epsilon=self.epsilon,
            rho_constant=self.rho_constant,
            shared_rng=self.shared_rng,
            runtime=self.runtime,
            faults=self.conditions.faults if self.conditions is not None else None,
            robust=self.robust,
        )
