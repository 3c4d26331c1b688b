"""The per-item index-exchange primitive shared by Algorithms 2, 3 and 5.2.

Given the sites' (possibly subsampled) binary shards ``A'`` and the
coordinator's binary matrix ``B``, the endpoints learn an additive split of
``C = A' B``: the coordinator accumulates the products of the items the
sites shipped, and every site accumulates its shard's share of the items
the coordinator shipped.

* Every site announces ``u^s_j`` = number of its shard rows containing item
  ``j`` (it may have done so already as part of an enclosing protocol, e.g.
  Algorithm 2's per-level column sums).  The coordinator merges them into
  the global ``u_j``.
* The coordinator compares with ``v_j`` = number of columns of ``B``
  containing item ``j``; for every active item with ``v_j < u_j`` it ships
  its index list ``I_j = {j' : B_{j,j'} = 1}`` to the sites whose shards
  touch the item, which accumulate those items' contributions locally.
* Sites ship their row-index lists for the remaining (non-trivial) items
  and the coordinator accumulates them into its share.

The total shipped volume is ``sum_j min(u_j, v_j)`` indices, the quantity
bounded by ``O~(n^{1.5}/eps)`` (Theorem 4.1) / ``O~(n^{1.5}/kappa)``
(Theorem 4.3) in the paper's analyses.  With a single site this is exactly
the two-party exchange (Bob ships the smaller side's lists, Alice the
rest).

Each endpoint builds all its lists from one ``np.flatnonzero`` over the
gathered rows (``B``'s rows, or the shard's columns), split at the
per-item counts, and charges them from their lengths
(:func:`repro.comm.bitcost.bits_for_index_lists`).
"""

from __future__ import annotations

import numpy as np

from repro.comm import bitcost
from repro.engine.l1 import shard_column_sums
from repro.engine.runtime import SERIAL_RUNTIME, Runtime
from repro.engine.topology import Coordinator, Site
from repro.sketch.kernels import exact_matmul

__all__ = ["star_exchange_item_supports"]


def _index_lists(
    rows: np.ndarray, items: np.ndarray, offset: int = 0
) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """``{item: offset + flatnonzero(row)}`` for gathered rows, and the lengths.

    One ``np.flatnonzero`` over all the rows, split at the per-row counts:
    each list is a C-contiguous slice, so it pickles like a list built
    alone.
    """
    positions = offset + np.flatnonzero(rows) % rows.shape[1]
    lengths = np.count_nonzero(rows, axis=1)
    ends = np.cumsum(lengths).tolist()
    lists = {
        item: positions[start:end]
        for item, start, end in zip(items.tolist(), [0, *ends], ends)
    }
    return lists, lengths


def _down_list_task(b: np.ndarray, needed: np.ndarray) -> tuple[dict, int]:
    """Coordinator-side fan-out: column-index lists for one site's items.

    Returns ``(payload, down_bits)``; the bitmap charge (``n_items`` bits
    announcing which items the hub covers) is included in ``down_bits``.
    """
    items = np.flatnonzero(needed)
    payload, lengths = _index_lists(b[items], items)
    down_bits = b.shape[0] + bitcost.bits_for_index_lists(lengths, max(b.shape[1], 1))
    return payload, down_bits


def _up_list_task(
    shard: np.ndarray,
    b: np.ndarray,
    ship: np.ndarray,
    site_ships: np.ndarray,
    coordinator_ships: np.ndarray,
    row_offset: int,
    total_rows: int,
) -> tuple[dict, int, np.ndarray, np.ndarray]:
    """Site-side fan-out: row-index lists + both shares' local accumulation.

    Returns ``(payload, up_bits, coordinator-share block, site share)`` —
    all the per-site compute of the exchange, so the serial phase only
    sends and assembles.
    """
    items = np.flatnonzero(ship)
    payload, lengths = _index_lists(shard[:, items].T, items, row_offset)
    up_bits = bitcost.bits_for_index_lists(lengths, max(total_rows, 1))
    coord_block = exact_matmul(shard[:, site_ships], b[site_ships, :])
    site_share = exact_matmul(shard[:, coordinator_ships], b[coordinator_ships, :])
    return payload, up_bits, coord_block, site_share


def star_exchange_item_supports(
    coordinator: Coordinator,
    sites: list[Site],
    shard_subs: list[np.ndarray],
    b: np.ndarray,
    *,
    site_counts: list[np.ndarray] | None = None,
    label_prefix: str = "",
    send_u_counts: bool = True,
    runtime: Runtime | None = None,
) -> tuple[list[np.ndarray], np.ndarray, dict]:
    """Run the index exchange; returns ``(site_shares, c_coord, info)``.

    Parameters
    ----------
    shard_subs:
        The sites' (subsampled) binary shards ``A'_s``, aligned with
        ``sites``.
    b:
        The coordinator's binary matrix of shape ``(n, m2)``.
    site_counts:
        Per-site item counts ``u^s_j`` if the enclosing protocol already
        transmitted them (Algorithm 2 sends per-level column sums for *all*
        levels up front); computed locally otherwise.
    send_u_counts:
        Whether the counts still need to be transmitted; set to False by
        enclosing protocols that already paid for them, to avoid
        double-charging.

    Returns
    -------
    ``site_shares`` is one matrix per site (the site's share of its shard's
    rows of ``C``), ``c_coord`` the coordinator's share over the full global
    row space; ``site_shares`` stacked plus ``c_coord`` equals ``A' B``.

    Per-site list construction and the exchange-level accumulation (both
    shares' local products) fan out through ``runtime``; every send happens
    in the serial phase, in site order, so the transcript is
    executor-invariant.
    """
    runtime = runtime if runtime is not None else SERIAL_RUNTIME
    shard_subs = [np.asarray(shard, dtype=np.int64) for shard in shard_subs]
    b = np.asarray(b, dtype=np.int64)
    if shard_subs[0].shape[1] != b.shape[0]:
        raise ValueError(
            f"inner dimensions differ: {shard_subs[0].shape} vs {b.shape}"
        )
    n_items = b.shape[0]
    total_rows = sum(shard.shape[0] for shard in shard_subs)

    if site_counts is None:
        # For binary shards the per-item counts u^s_j ARE the column sums
        # (Remark 2's mergeable summary, shared across the fan-out paths).
        site_counts = runtime.map(
            shard_column_sums, [(shard,) for shard in shard_subs]
        )
    if send_u_counts:
        for site, shard, u_site in zip(sites, shard_subs, site_counts):
            site.send(
                u_site,
                label=f"{label_prefix}item-counts",
                bits=n_items * bitcost.bits_for_index(max(int(shard.shape[0]) + 1, 2)),
            )

    u = np.sum(site_counts, axis=0)
    v = b.sum(axis=1)
    active = (u > 0) & (v > 0)
    coordinator_ships = active & (u > v)
    site_ships = active & (u <= v)

    # Coordinator -> sites: its column-index lists for items where its side
    # is smaller, sent to the sites whose shards touch the item (plus the
    # per-item bitmap announcing which items it covers).  List construction
    # fans out; sends run serially in site order.
    down_payloads = runtime.map(
        _down_list_task,
        [(b, coordinator_ships & (u_site > 0)) for u_site in site_counts],
    )
    for site, (payload, down_bits) in zip(sites, down_payloads):
        coordinator.send(
            site,
            payload,
            label=f"{label_prefix}coordinator-item-lists",
            bits=down_bits,
        )

    # Sites -> coordinator: their row-index lists for the remaining items.
    # Global row indexing comes from each site's own row_offset (shard_subs
    # must be shape-aligned with the sites' shards).  The exchange-level
    # accumulation — each side's share of the split product — rides in the
    # same fan-out.
    up_payloads = runtime.map(
        _up_list_task,
        [
            (
                shard,
                b,
                site_ships & (u_site > 0),
                site_ships,
                coordinator_ships,
                site.row_offset,
                total_rows,
            )
            for site, shard, u_site in zip(sites, shard_subs, site_counts)
        ],
    )
    c_coord = np.zeros((total_rows, b.shape[1]), dtype=np.int64)
    site_shares = []
    for site, shard, (payload, up_bits, coord_block, site_share) in zip(
        sites, shard_subs, up_payloads
    ):
        site.send(payload, label=f"{label_prefix}site-item-lists", bits=up_bits)

        # Local accumulation: the coordinator owns the items the sites
        # shipped, each site its shard's share of the coordinator's items.
        rows = slice(site.row_offset, site.row_offset + shard.shape[0])
        c_coord[rows] = coord_block
        site_shares.append(site_share)

    info = {
        "u": u,
        "v": v,
        "exchanged_indices": int(np.minimum(u, v)[active].sum()),
        "site_owned_items": int(coordinator_ships.sum()),
        "coordinator_owned_items": int(site_ships.sum()),
    }
    return site_shares, c_coord, info
