"""Distributed sparse matrix product: ``C_A + C_B = A B`` exactly.

This is the repo's substitute for Lemma 2.5 of the paper ([16]): a protocol
after which Alice holds ``C_A`` and Bob holds ``C_B`` with
``C_A + C_B = A B`` exactly, using communication that grows with the
sparsity of the product rather than with ``n^2``.

Construction (the per-item "cheaper side ships its sets" exchange, the same
primitive used inside Algorithms 2 and 3 of the paper):

* The product decomposes over the shared attribute:
  ``A B = sum_j outer(A_{*,j}, B_{j,*})``.
* For every shared item ``j``, let ``u_j`` / ``v_j`` be the number of
  non-zero entries of Alice's column ``A_{*,j}`` / Bob's row ``B_{j,*}``.
* Alice announces all ``u_j`` (round 1); Bob replies with his non-zero
  (index, value) lists for every item where ``v_j < u_j`` (round 2); Alice
  sends her lists for the remaining items (round 3).
* Whoever ends up knowing *both* sides of item ``j`` accumulates the outer
  product ``outer(A_{*,j}, B_{j,*})`` into their share.

The communication is ``O(n log n + sum_j min(u_j, v_j) * w)`` bits (``w`` =
bits per transmitted pair), which is at most ``O~(n sqrt(||A B||_1))`` by
Cauchy–Schwarz and matches the paper's ``O~(n sqrt(||A B||_0))`` on the
(heavily subsampled, near-binary) inputs where the paper invokes Lemma 2.5.
The substitution is documented in DESIGN.md.
"""

from __future__ import annotations

import numpy as np

from repro.comm import bitcost
from repro.core.facade import EngineBackedProtocol, TwoPartyStarProtocol
from repro.engine.topology import Coordinator, Site
from repro.sketch.kernels import exact_matmul


def _nonzero_lists(matrix: np.ndarray, axis: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-item (indices, values) of ``A``'s columns (axis=0) or ``B``'s rows (axis=1)."""
    matrix = np.asarray(matrix)
    lists = []
    n_items = matrix.shape[1] if axis == 0 else matrix.shape[0]
    for j in range(n_items):
        vector = matrix[:, j] if axis == 0 else matrix[j, :]
        indices = np.flatnonzero(vector)
        lists.append((indices, vector[indices]))
    return lists


def sparse_product_shares(
    a: np.ndarray, b: np.ndarray, *, owner_is_bob: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Split ``A B`` into ``C_A + C_B`` according to a per-item ownership mask.

    ``owner_is_bob[j]`` is True when Bob accumulates item ``j``'s outer
    product (because Alice shipped her column ``j`` to him), and False when
    Alice accumulates it.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    owner_is_bob = np.asarray(owner_is_bob, dtype=bool)
    if owner_is_bob.shape[0] != a.shape[1]:
        raise ValueError("ownership mask must have one entry per shared item")
    c_bob = exact_matmul(a[:, owner_is_bob], b[owner_is_bob, :])
    c_alice = exact_matmul(a[:, ~owner_is_bob], b[~owner_is_bob, :])
    return c_alice, c_bob


class StarSparseProductProtocol(TwoPartyStarProtocol):
    """Engine body of :class:`SparseProductProtocol` (two-party only)."""

    name = "distributed-sparse-product"

    def _execute_two_party(self, alice: Site, bob: Coordinator):
        a = np.asarray(alice.data, dtype=np.int64)
        b = np.asarray(bob.data, dtype=np.int64)
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"inner dimensions differ: {a.shape} vs {b.shape}")
        n_items = a.shape[1]
        values_are_binary = bool(np.all((a == 0) | (a == 1)) and np.all((b == 0) | (b == 1)))
        value_bits = 0 if values_are_binary else bitcost.INT_ENTRY_BITS

        alice_lists = _nonzero_lists(a, axis=0)
        bob_lists = _nonzero_lists(b, axis=1)
        u = np.array([len(idx) for idx, _ in alice_lists], dtype=np.int64)
        v = np.array([len(idx) for idx, _ in bob_lists], dtype=np.int64)

        # Round 1: Alice announces her per-item counts.
        alice.send(
            u,
            label="round1/item-counts",
            bits=n_items * bitcost.bits_for_index(max(a.shape[0] + 1, 2)),
        )

        # Round 2: Bob ships his lists for items where his side is smaller.
        bob_ships = v < u
        bob_payload = {int(j): bob_lists[j] for j in np.flatnonzero(bob_ships)}
        bob_bits = n_items  # the ownership bitmap
        for indices, _values in bob_payload.values():
            bob_bits += len(indices) * (bitcost.bits_for_index(max(b.shape[1], 1)) + value_bits)
        bob.send(alice, bob_payload, label="round2/bob-lists", bits=bob_bits)

        # Round 3: Alice ships her lists for the remaining items (where they
        # are non-empty on both sides; empty items contribute nothing).
        alice_ships = (~bob_ships) & (u > 0) & (v > 0)
        alice_payload = {int(j): alice_lists[j] for j in np.flatnonzero(alice_ships)}
        alice_bits = 0
        for indices, _values in alice_payload.values():
            alice_bits += len(indices) * (bitcost.bits_for_index(max(a.shape[0], 1)) + value_bits)
        alice.send(alice_payload, label="round3/alice-lists", bits=alice_bits)

        # Ownership: Bob accumulates items whose Alice-column he received.
        owner_is_bob = alice_ships.copy()
        c_alice, c_bob = sparse_product_shares(a, b, owner_is_bob=owner_is_bob)
        details = {
            "ownership": owner_is_bob,
            "exchanged_pairs": int(np.sum(np.minimum(u, v)[(u > 0) & (v > 0)])),
        }
        return (c_alice, c_bob), details


class SparseProductProtocol(EngineBackedProtocol):
    """Exact distributed sparse product ``C_A + C_B = A B`` (Lemma 2.5 substitute).

    ``run(A, B)`` returns a result whose value is the tuple
    ``(C_A, C_B)``; ``details['ownership']`` records which party accumulated
    each shared item.
    """

    name = "distributed-sparse-product"
    engine_protocol = StarSparseProductProtocol
